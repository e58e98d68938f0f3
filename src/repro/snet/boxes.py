"""S-Net boxes: stateless user-defined stream transformers.

A box wraps a function written in the *box language* (here: Python).  The
coordination layer knows nothing about the function except its **box
signature**::

    box foo ((a, <b>) -> (c) | (c, d, <e>));

i.e. an *ordered* list of input labels and a disjunction of output variants.
On arrival of a record the coordination layer

1. checks that the record's type is a subtype of the box input type,
2. extracts the values of the declared labels *in signature order* and calls
   the box function with them,
3. collects the records emitted by the box function, checks them against the
   declared output variants, and
4. applies **flow inheritance**: all labels of the input record that were not
   consumed by the box are attached to every output record, unless the output
   record already carries an identically named label (override).

Box functions signal output either by returning an iterable of
``dict``/:class:`Record` objects or by calling the ``out(...)`` callable that
is passed as an optional keyword argument (mirroring ``snet_out`` of the C
interface).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.snet.base import PrimitiveEntity
from repro.snet.errors import BoxError
from repro.snet.records import Field, Label, LabelLike, Record, Tag, as_label
from repro.snet.types import RecordType, TypeSignature, Variant

__all__ = ["BoxSignature", "Box", "box"]


class BoxSignature:
    """An ordered box signature: input label list -> output variants."""

    __slots__ = ("inputs", "outputs")

    def __init__(
        self,
        inputs: Sequence[LabelLike],
        outputs: Sequence[Sequence[LabelLike]],
    ):
        self.inputs: Tuple[Label, ...] = tuple(as_label(l) for l in inputs)
        if not outputs:
            outputs = [()]
        self.outputs: Tuple[Tuple[Label, ...], ...] = tuple(
            tuple(as_label(l) for l in variant) for variant in outputs
        )

    @classmethod
    def parse(cls, text: str) -> "BoxSignature":
        """Parse surface syntax, e.g. ``"(scene, <nodes>) -> (scene, sect)"``."""
        from repro.snet.lang.parser import parse_box_signature

        return parse_box_signature(text)

    def type_signature(self) -> TypeSignature:
        """Drop ordering: the induced (set-based) type signature."""
        return TypeSignature(
            RecordType([Variant(self.inputs)]),
            RecordType([Variant(v) for v in self.outputs]),
        )

    def __repr__(self) -> str:
        ins = ", ".join(l.pretty() for l in self.inputs)
        outs = " | ".join(
            "(" + ", ".join(l.pretty() for l in v) + ")" for v in self.outputs
        )
        return f"({ins}) -> {outs}"


BoxOutput = Union[Record, Mapping[Any, Any], None]


class Box(PrimitiveEntity):
    """A stateless SISO box around a Python box function.

    Parameters
    ----------
    name:
        Box name (used in traces and the language front-end).
    signature:
        A :class:`BoxSignature`, or a string in surface syntax.
    func:
        The box function.  It is called with the values of the declared input
        labels, in order.  Tags are passed as plain integers.  If the function
        accepts a keyword argument named ``out`` it additionally receives an
        emitter callable; records passed to ``out`` are emitted in call order
        before any records returned.
    cost:
        Optional callable ``cost(record) -> float`` estimating the (simulated)
        execution time of the box on a given record; consumed by the
        discrete-event runtime.  Ignored by the threaded runtime.
    parallel_safe:
        Whether the box function may execute in a *different process* than the
        coordination layer (the process runtime offloads such boxes to its
        worker pool).  S-Net boxes are pure functions over their input record,
        so this defaults to ``True``; set it to ``False`` for boxes whose
        effect the caller observes through shared state (e.g. ``genImg``
        collecting images on the backend object) or whose arguments/results
        are not worth marshalling across a process boundary.
    """

    KIND = "box"

    def __init__(
        self,
        name: str,
        signature: Union[BoxSignature, str],
        func: Callable[..., Union[Iterable[BoxOutput], BoxOutput]],
        cost: Optional[Callable[[Record], float]] = None,
        parallel_safe: bool = True,
    ):
        super().__init__(name)
        if isinstance(signature, str):
            signature = BoxSignature.parse(signature)
        self.box_signature = signature
        self.func = func
        self.cost = cost
        self.parallel_safe = parallel_safe
        self._type_signature = signature.type_signature()
        self._wants_out = _accepts_out_kwarg(func)

    @property
    def signature(self) -> TypeSignature:
        return self._type_signature

    # -- execution -------------------------------------------------------------
    def process(self, rec: Record) -> List[Record]:
        if not self.accepts(rec):
            raise BoxError(
                f"box {self.name!r} received a record that does not match its "
                f"input type {self.input_type!r}: {rec!r}"
            )
        args = self._argument_list(rec)
        emitted: List[BoxOutput] = []
        if self._wants_out:
            result = self.func(*args, out=emitted.append)
        else:
            result = self.func(*args)
        outputs = list(emitted)
        outputs.extend(_normalise_result(result))
        records = [self._coerce_output(o) for o in outputs if o is not None]
        checked = [self._check_output(r) for r in records]
        return [self._inherit(rec, r) for r in checked]

    def _argument_list(self, rec: Record) -> List[Any]:
        args: List[Any] = []
        for label in self.box_signature.inputs:
            if isinstance(label, Tag):
                args.append(rec.tag(label.name))
            else:
                args.append(rec.field(label.name))
        return args

    def _coerce_output(self, out: BoxOutput) -> Record:
        if isinstance(out, Record):
            return out
        if isinstance(out, Mapping):
            return Record(out)
        raise BoxError(
            f"box {self.name!r} produced {out!r}; box functions must emit "
            "Record or mapping objects"
        )

    def _check_output(self, rec: Record) -> Record:
        """Verify the output record matches one of the declared variants.

        The check is a subtype check: the record must carry at least the
        labels of one declared output variant.  Extra labels are permitted
        (they may themselves be flow-inherited further downstream).
        """
        if self._type_signature.output_type.accepts(rec):
            return rec
        raise BoxError(
            f"box {self.name!r} produced a record {rec!r} that matches none of "
            f"its declared output variants {self.box_signature.outputs!r}"
        )

    def _inherit(self, input_rec: Record, output_rec: Record) -> Record:
        """Apply flow inheritance from ``input_rec`` onto ``output_rec``."""
        excess = input_rec.excess_over(self.box_signature.inputs)
        # output labels override inherited ones
        return excess.merge(output_rec, override=True)

    def estimated_cost(self, rec: Record) -> float:
        """Simulated execution time of this box on ``rec`` (seconds)."""
        if self.cost is None:
            return 0.0
        return float(self.cost(rec))


def _accepts_out_kwarg(func: Callable[..., Any]) -> bool:
    try:
        params = inspect.signature(func).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False
    if "out" in params:
        return True
    return any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())


def _normalise_result(result: Union[Iterable[BoxOutput], BoxOutput]) -> List[BoxOutput]:
    if result is None:
        return []
    if isinstance(result, (Record, Mapping)):
        return [result]
    try:
        return list(result)
    except TypeError:
        raise BoxError(
            f"box function returned {result!r}; expected None, a record/dict or "
            "an iterable of records/dicts"
        )


def box(
    signature: Union[BoxSignature, str],
    name: Optional[str] = None,
    cost: Optional[Callable[[Record], float]] = None,
    parallel_safe: bool = True,
) -> Callable[[Callable[..., Any]], Box]:
    """Decorator turning a Python function into an S-Net :class:`Box`.

    Example
    -------
    >>> @box("(a, <n>) -> (b)")
    ... def double(a, n):
    ...     return {"b": a * n}
    >>> double.process(Record({"a": 2, "<n>": 3}))[0].field("b")
    6
    """

    def decorate(func: Callable[..., Any]) -> Box:
        return Box(
            name or func.__name__, signature, func, cost=cost, parallel_safe=parallel_safe
        )

    return decorate
