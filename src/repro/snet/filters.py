"""Filter entities: coordination-level record rewriting.

A filter ``[ pattern -> output ; output ; ... ]`` is an S-Net entity defined
entirely in the coordination layer.  For every accepted record it produces one
output record per output template.  Templates can

* keep labels from the input (by naming them),
* add or update tags with values computed from guard expressions over the
  input tags (``{<cnt> -> <cnt+=1>}`` in Fig. 3 is sugar for assigning
  ``<cnt>+1`` to ``<cnt>``),
* rename fields (``new = old``), and
* drop labels simply by not mentioning them *only when the filter is
  restrictive*; by default filters are subject to flow inheritance exactly
  like boxes: labels not mentioned in the pattern are carried over unchanged.

The empty filter ``[]`` is the identity (a pure bypass), used extensively in
the paper's networks to provide bypass branches in parallel compositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.snet.base import PrimitiveEntity
from repro.snet.errors import FilterError
from repro.snet.patterns import Const, Guard, GuardExpr, Pattern, TagRef
from repro.snet.records import Field, Label, LabelLike, Record, Tag, as_label
from repro.snet.types import RecordType, TypeSignature, Variant

__all__ = ["OutputTemplate", "FilterRule", "Filter", "identity_filter"]


@dataclass
class OutputTemplate:
    """One output template of a filter rule.

    Attributes
    ----------
    keep:
        Labels copied verbatim from the input record.
    assign_tags:
        Mapping tag-name -> guard expression evaluated over the *input* record.
    rename:
        Mapping new-field-name -> old-field-name.
    inherit:
        Whether unmatched labels of the input record are flow-inherited onto
        this output (default True, matching box semantics).
    """

    keep: Tuple[Label, ...] = ()
    assign_tags: Dict[str, GuardExpr] = field(default_factory=dict)
    rename: Dict[str, str] = field(default_factory=dict)
    inherit: bool = True

    def __post_init__(self) -> None:
        self.keep = tuple(as_label(l) for l in self.keep)

    def build(self, rec: Record, consumed: Iterable[Label]) -> Record:
        entries: Dict[Label, object] = {}
        for label in self.keep:
            if isinstance(label, Tag):
                entries[label] = rec.tag(label.name)
            else:
                entries[label] = rec.field(label.name)
        for new_name, old_name in self.rename.items():
            entries[Field(new_name)] = rec.field(old_name)
        for tag_name, expr in self.assign_tags.items():
            entries[Tag(tag_name)] = int(expr.evaluate(rec))
        produced = Record(entries)
        if self.inherit:
            excess = rec.excess_over(consumed)
            produced = excess.merge(produced, override=True)
        return produced

    def output_variant(self) -> Variant:
        labels: List[Label] = list(self.keep)
        labels.extend(Tag(name) for name in self.assign_tags)
        labels.extend(Field(name) for name in self.rename)
        return Variant(labels)


class FilterRule:
    """A single filter rule: a pattern and one or more output templates."""

    def __init__(self, pattern: Pattern, outputs: Sequence[OutputTemplate]):
        if not outputs:
            raise FilterError("a filter rule needs at least one output template")
        self.pattern = pattern
        self.outputs = tuple(outputs)

    def matches(self, rec: Record) -> bool:
        return self.pattern.matches(rec)

    def apply(self, rec: Record) -> List[Record]:
        consumed = list(self.pattern.variant.labels)
        return [tpl.build(rec, consumed) for tpl in self.outputs]

    def __repr__(self) -> str:
        return f"[{self.pattern!r} -> ...x{len(self.outputs)}]"


class Filter(PrimitiveEntity):
    """A filter entity composed of one or more rules.

    Records are matched against the rules in order; the first matching rule
    fires.  A filter with no rules is the identity filter ``[]``.
    """

    KIND = "filter"

    def __init__(self, rules: Sequence[FilterRule] = (), name: Optional[str] = None):
        super().__init__(name)
        self.rules = tuple(rules)

    # -- constructors ------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Filter":
        """Parse filter surface syntax, e.g. ``"[{<cnt>} -> {<cnt=cnt+1>}]"``."""
        from repro.snet.lang.parser import parse_filter

        return parse_filter(text)

    @classmethod
    def identity(cls, name: Optional[str] = None) -> "Filter":
        """The empty filter ``[]``."""
        return cls((), name or "[]")

    @classmethod
    def simple(
        cls,
        pattern: Union[Pattern, Iterable[LabelLike]],
        keep: Iterable[LabelLike] = (),
        assign_tags: Optional[Mapping[str, Union[GuardExpr, int]]] = None,
        rename: Optional[Mapping[str, str]] = None,
        drop_rest: bool = False,
        name: Optional[str] = None,
    ) -> "Filter":
        """Build a one-rule, one-output filter programmatically."""
        if not isinstance(pattern, Pattern):
            pattern = Pattern(pattern)
        assigns: Dict[str, GuardExpr] = {}
        for tag_name, expr in (assign_tags or {}).items():
            assigns[tag_name] = expr if isinstance(expr, GuardExpr) else Const(int(expr))
        template = OutputTemplate(
            keep=tuple(as_label(l) for l in keep),
            assign_tags=assigns,
            rename=dict(rename or {}),
            inherit=not drop_rest,
        )
        return cls([FilterRule(pattern, [template])], name)

    @classmethod
    def splitter(
        cls,
        pattern: Union[Pattern, Iterable[LabelLike]],
        outputs: Sequence[Iterable[LabelLike]],
        name: Optional[str] = None,
    ) -> "Filter":
        """A filter producing several records, each keeping a subset of labels.

        This implements constructs like ``[{chunk,<node>} -> {chunk}; {<node>}]``
        from Fig. 4: a single input record is split into one record per output
        template, with *no* flow inheritance (each output keeps exactly the
        listed labels plus nothing else from the matched set).
        """
        if not isinstance(pattern, Pattern):
            pattern = Pattern(pattern)
        templates = [
            OutputTemplate(keep=tuple(as_label(l) for l in labels), inherit=True)
            for labels in outputs
        ]
        # Splitting semantics: the labels matched by the pattern are consumed;
        # only labels *outside* the pattern are inherited (e.g. <fst>, <tasks>).
        return cls([FilterRule(pattern, templates)], name)

    # -- typing ----------------------------------------------------------------
    @property
    def signature(self) -> TypeSignature:
        if not self.rules:
            empty = RecordType([Variant()])
            return TypeSignature(empty, empty)
        input_variants = [rule.pattern.variant for rule in self.rules]
        output_variants: List[Variant] = []
        for rule in self.rules:
            output_variants.extend(t.output_variant() for t in rule.outputs)
        return TypeSignature(RecordType(input_variants), RecordType(output_variants))

    def accepts(self, rec: Record) -> bool:
        if not self.rules:
            return True
        return any(rule.matches(rec) for rule in self.rules)

    def match_score(self, rec: Record) -> Optional[int]:
        if not self.rules:
            # identity filter: matches everything, ignoring every label
            return len(rec)
        scores = [
            s
            for s in (rule.pattern.match_score(rec) for rule in self.rules)
            if s is not None
        ]
        return min(scores) if scores else None

    # -- execution -----------------------------------------------------------
    def process(self, rec: Record) -> List[Record]:
        if not self.rules:
            return [rec]
        for rule in self.rules:
            if rule.matches(rec):
                return rule.apply(rec)
        raise FilterError(
            f"filter {self.name!r} received a record matching none of its "
            f"rules: {rec!r}"
        )


def identity_filter(name: Optional[str] = None) -> Filter:
    """Module-level alias for :meth:`Filter.identity`."""
    return Filter.identity(name)
