"""Type patterns and guard expressions.

Patterns extend variants with an optional boolean *guard* over tag values.
They are used by:

* synchrocells -- ``[| {pic}, {chunk} |]``;
* the serial replication (star) exit condition -- ``(...)*{<tasks> == <cnt>}``;
* filters -- the left-hand side of a filter rule.

Guards are restricted to tag arithmetic/comparison, mirroring the S-Net rule
that only integers are visible to the coordination layer.  Guard expressions
are represented as small ASTs (:class:`Guard`) that can be built
programmatically or parsed from surface syntax by the language front-end.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Union

from repro.snet.errors import FilterError, TypeError_
from repro.snet.records import LabelLike, Record, Tag
from repro.snet.types import Variant

__all__ = ["Guard", "TagRef", "Const", "BinOp", "Pattern"]


class GuardExpr:
    """Base class of guard-expression AST nodes."""

    def evaluate(self, rec: Record) -> int:
        raise NotImplementedError

    # Operator sugar so guards can be written naturally in Python:
    # TagRef("tasks") == TagRef("cnt"), TagRef("cnt") + 1, ...
    def _bin(self, other: Union["GuardExpr", int], op: str) -> "BinOp":
        return BinOp(op, self, _coerce_expr(other))

    def __add__(self, other):  # noqa: D105
        return self._bin(other, "+")

    def __sub__(self, other):
        return self._bin(other, "-")

    def __mul__(self, other):
        return self._bin(other, "*")

    def __floordiv__(self, other):
        return self._bin(other, "/")

    def __mod__(self, other):
        return self._bin(other, "%")

    def __eq__(self, other):  # type: ignore[override]
        return self._bin(other, "==")

    def __ne__(self, other):  # type: ignore[override]
        return self._bin(other, "!=")

    def __lt__(self, other):
        return self._bin(other, "<")

    def __le__(self, other):
        return self._bin(other, "<=")

    def __gt__(self, other):
        return self._bin(other, ">")

    def __ge__(self, other):
        return self._bin(other, ">=")

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class TagRef(GuardExpr):
    """A reference to a tag value, e.g. ``<cnt>`` in a guard."""

    name: str

    def evaluate(self, rec: Record) -> int:
        return rec.tag(self.name)

    def __repr__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True, eq=False)
class Const(GuardExpr):
    """An integer literal in a guard expression."""

    value: int

    def evaluate(self, rec: Record) -> int:
        return self.value

    def __repr__(self) -> str:
        return str(self.value)


_OPS: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": lambda a, b: a // b,
    "%": operator.mod,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
    "min": min,
    "max": max,
}


@dataclass(frozen=True, eq=False)
class BinOp(GuardExpr):
    """A binary operation over guard expressions (integer semantics)."""

    op: str
    left: GuardExpr
    right: GuardExpr

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise TypeError_(f"unsupported guard operator {self.op!r}")

    def evaluate(self, rec: Record) -> int:
        return _OPS[self.op](self.left.evaluate(rec), self.right.evaluate(rec))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _coerce_expr(value: Union[GuardExpr, int, str]) -> GuardExpr:
    if isinstance(value, GuardExpr):
        return value
    if isinstance(value, bool):
        return Const(int(value))
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, str):
        text = value.strip()
        if text.startswith("<") and text.endswith(">"):
            return TagRef(text[1:-1])
        if text.lstrip("-").isdigit():
            return Const(int(text))
    raise TypeError_(f"cannot interpret {value!r} as a guard expression")


class Guard:
    """A boolean guard over the tags of a record.

    A guard wraps a :class:`GuardExpr` (or an arbitrary Python callable over
    records, used by the embedded API) and evaluates to ``True``/``False``.
    Missing tags make the guard fail rather than raise: this matches the
    behaviour of the star exit pattern where records that do not (yet) carry
    the counting tags simply keep flowing.
    """

    __slots__ = ("_expr", "_func", "_text")

    def __init__(
        self,
        expr: Optional[Union[GuardExpr, int]] = None,
        func: Optional[Callable[[Record], bool]] = None,
        text: Optional[str] = None,
    ):
        if expr is None and func is None:
            raise TypeError_("Guard requires an expression or a callable")
        self._expr = _coerce_expr(expr) if expr is not None else None
        self._func = func
        self._text = text

    @classmethod
    def parse(cls, text: str) -> "Guard":
        from repro.snet.lang.parser import parse_guard

        return parse_guard(text)

    @property
    def expr(self) -> Optional[GuardExpr]:
        """The guard expression AST, or None for opaque callable guards."""
        return self._expr

    def evaluate(self, rec: Record) -> bool:
        try:
            if self._func is not None:
                return bool(self._func(rec))
            assert self._expr is not None
            return bool(self._expr.evaluate(rec))
        except Exception:
            return False

    __call__ = evaluate

    def __repr__(self) -> str:
        if self._text:
            return self._text
        if self._expr is not None:
            return repr(self._expr)
        return f"<guard {self._func!r}>"


class Pattern:
    """A type pattern: a variant plus an optional guard.

    ``Pattern({"pic"})`` matches every record carrying at least a ``pic``
    field.  ``Pattern({"<tasks>", "<cnt>"}, Guard(TagRef("tasks") == TagRef("cnt")))``
    matches records where both tags exist and are equal — the exit pattern of
    the merger network in Fig. 3 of the paper.
    """

    __slots__ = ("_variant", "_guard", "source_span")

    def __init__(
        self,
        labels: Union[Variant, Iterable[LabelLike]] = (),
        guard: Optional[Guard] = None,
    ):
        self._variant = labels if isinstance(labels, Variant) else Variant(labels)
        self._guard = guard
        #: (line, column) span when this pattern came from parsed source
        self.source_span = None

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        from repro.snet.lang.parser import parse_pattern

        return parse_pattern(text)

    @property
    def variant(self) -> Variant:
        return self._variant

    @property
    def guard(self) -> Optional[Guard]:
        return self._guard

    def matches(self, rec: Record) -> bool:
        """Structural match plus guard evaluation."""
        if not self._variant.accepts(rec):
            return False
        if self._guard is not None and not self._guard.evaluate(rec):
            return False
        return True

    def match_score(self, rec: Record) -> Optional[int]:
        if not self.matches(rec):
            return None
        return self._variant.match_score(rec)

    def __repr__(self) -> str:
        if self._guard is None:
            return repr(self._variant)
        if len(self._variant) == 0:
            return f"{{{self._guard!r}}}"
        return f"{self._variant!r} if {self._guard!r}"
