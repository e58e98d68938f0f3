"""The S-Net record type system.

S-Net types describe records structurally:

* a **variant** (here :class:`Variant`, the paper writes ``{a, b, <t>}``) is a
  set of labels;
* a **record type** (:class:`RecordType`) is a disjunction of variants,
  written ``{a} | {b, <t>}``;
* a **type signature** (:class:`TypeSignature`) maps an input type to an
  output type, e.g. ``{a,<b>} -> {c} | {c,d,<e>}``.

Subtyping is structural and contravariant in the label sets:

* variant ``v1`` is a subtype of variant ``v2`` iff ``v2 ⊆ v1`` (a record with
  *more* labels can be used where fewer are required);
* record type ``x`` is a subtype of ``y`` iff every variant of ``x`` is a
  subtype of some variant of ``y``.

Routing in parallel composition uses a *best match* metric: the branch whose
input type matches the record with the fewest ignored labels wins (ties are
broken non-deterministically by the runtime).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.snet.errors import TypeError_
from repro.snet.records import BTag, Field, Label, LabelLike, Record, Tag, as_label

__all__ = ["Variant", "RecordType", "TypeSignature"]


class Variant:
    """A single record variant: an (unordered) set of labels.

    The empty variant ``{}`` matches *every* record (every label set is a
    superset of the empty set); it is the type of pure bypass filters.
    """

    __slots__ = ("_labels", "_accepts")

    def __init__(self, labels: Iterable[LabelLike] = ()):  # noqa: D401
        self._labels: FrozenSet[Label] = frozenset(as_label(l) for l in labels)
        #: memo of :meth:`accepts` by record label set (exact: it reads
        #: nothing else of the record)
        self._accepts: Dict[FrozenSet[Label], bool] = {}

    @property
    def labels(self) -> FrozenSet[Label]:
        return self._labels

    def field_names(self) -> FrozenSet[str]:
        return frozenset(l.name for l in self._labels if type(l) is Field)

    def tag_names(self) -> FrozenSet[str]:
        return frozenset(l.name for l in self._labels if isinstance(l, Tag))

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __contains__(self, label: object) -> bool:
        try:
            return as_label(label) in self._labels  # type: ignore[arg-type]
        except Exception:
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Variant):
            return NotImplemented
        return self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    # -- subtyping ---------------------------------------------------------
    def is_subtype_of(self, other: "Variant") -> bool:
        """``self <= other`` iff every label of ``other`` appears in ``self``."""
        return other._labels <= self._labels

    def accepts(self, rec: Record) -> bool:
        """True if ``rec`` (viewed as a variant) is a subtype of this variant."""
        labels = rec.label_set
        try:
            return self._accepts[labels]
        except KeyError:
            accepted = self._accepts[labels] = self._covered_by(labels)
            return accepted

    def _covered_by(self, labels: FrozenSet[Label]) -> bool:
        for label in self._labels:
            if label in labels:
                continue
            # a tag pattern is satisfied by either a plain or binding tag
            if not (
                isinstance(label, Tag)
                and (Tag(label.name) in labels or BTag(label.name) in labels)
            ):
                return False
        return True

    def match_score(self, rec: Record) -> Optional[int]:
        """Return the number of record labels *not* required by this variant.

        ``None`` means the record does not match at all.  Lower scores are
        better matches (fewer ignored labels).
        """
        if not self.accepts(rec):
            return None
        return len(rec) - len(self._labels)

    def union(self, other: "Variant") -> "Variant":
        new = Variant()
        new._labels = self._labels | other._labels
        return new

    def __repr__(self) -> str:
        if not self._labels:
            return "{}"
        parts = sorted((l.pretty() for l in self._labels))
        return "{" + ", ".join(parts) + "}"


class RecordType:
    """A (multi-)variant record type: a disjunction of :class:`Variant` s."""

    __slots__ = ("_variants", "_scores")

    def __init__(self, variants: Iterable[Union[Variant, Iterable[LabelLike]]] = ()):  # noqa: D401
        vs: List[Variant] = []
        for v in variants:
            if isinstance(v, Variant):
                vs.append(v)
            else:
                vs.append(Variant(v))
        if not vs:
            vs = [Variant()]
        # deduplicate while preserving order
        seen = set()
        unique: List[Variant] = []
        for v in vs:
            if v not in seen:
                seen.add(v)
                unique.append(v)
        self._variants: Tuple[Variant, ...] = tuple(unique)
        #: memo of :meth:`match_score` by record label set
        self._scores: Dict[FrozenSet[Label], Optional[int]] = {}

    @classmethod
    def parse(cls, text: str) -> "RecordType":
        """Parse a record type from surface syntax, e.g. ``"{a,<b>} | {c}"``."""
        from repro.snet.lang.parser import parse_record_type

        return parse_record_type(text)

    @classmethod
    def single(cls, *labels: LabelLike) -> "RecordType":
        return cls([Variant(labels)])

    @property
    def variants(self) -> Tuple[Variant, ...]:
        return self._variants

    def __len__(self) -> int:
        return len(self._variants)

    def __iter__(self):
        return iter(self._variants)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordType):
            return NotImplemented
        return set(self._variants) == set(other._variants)

    def __hash__(self) -> int:
        return hash(frozenset(self._variants))

    # -- subtyping -----------------------------------------------------------
    def is_subtype_of(self, other: "RecordType") -> bool:
        """Every variant of ``self`` must be a subtype of some variant of ``other``."""
        return all(
            any(v.is_subtype_of(w) for w in other._variants) for v in self._variants
        )

    def accepts(self, rec: Record) -> bool:
        """True if the record matches at least one variant."""
        return any(v.accepts(rec) for v in self._variants)

    def match_score(self, rec: Record) -> Optional[int]:
        """Best (lowest) match score over all variants, or ``None``."""
        labels = rec.label_set
        try:
            return self._scores[labels]
        except KeyError:
            score = self._scores[labels] = self._best_score(rec)
            return score

    def _best_score(self, rec: Record) -> Optional[int]:
        scores = [s for s in (v.match_score(rec) for v in self._variants) if s is not None]
        return min(scores) if scores else None

    def best_variant(self, rec: Record) -> Optional[Variant]:
        """Return the variant with the best match score for ``rec``."""
        best: Optional[Variant] = None
        best_score: Optional[int] = None
        for v in self._variants:
            s = v.match_score(rec)
            if s is None:
                continue
            if best_score is None or s < best_score:
                best, best_score = v, s
        return best

    def union(self, other: "RecordType") -> "RecordType":
        return RecordType(list(self._variants) + list(other._variants))

    def __repr__(self) -> str:
        return " | ".join(repr(v) for v in self._variants)


class TypeSignature:
    """A type signature ``input -> output`` of a box, filter or network."""

    __slots__ = ("_input", "_output")

    def __init__(
        self,
        input_type: Union[RecordType, Variant, Iterable[LabelLike]],
        output_type: Union[RecordType, Variant, Iterable[LabelLike], None] = None,
    ):
        self._input = _coerce_record_type(input_type)
        self._output = _coerce_record_type(output_type) if output_type is not None else RecordType()

    @classmethod
    def parse(cls, text: str) -> "TypeSignature":
        """Parse a signature from surface syntax ``"{a} -> {b} | {c}"``."""
        from repro.snet.lang.parser import parse_type_signature

        return parse_type_signature(text)

    @property
    def input_type(self) -> RecordType:
        return self._input

    @property
    def output_type(self) -> RecordType:
        return self._output

    def accepts(self, rec: Record) -> bool:
        return self._input.accepts(rec)

    def match_score(self, rec: Record) -> Optional[int]:
        return self._input.match_score(rec)

    def is_subtype_of(self, other: "TypeSignature") -> bool:
        """Signature subtyping: contravariant input, covariant output.

        A signature ``s`` can be used where ``o`` is expected iff ``s`` accepts
        at least what ``o`` accepts (``o.input <= s.input``) and produces no
        more than ``o`` promises (``s.output <= o.output``).
        """
        return other._input.is_subtype_of(self._input) and self._output.is_subtype_of(
            other._output
        )

    def compose_serial(self, downstream: "TypeSignature") -> "TypeSignature":
        """Signature of ``self .. downstream`` (approximate inference).

        The input type is this entity's input; the output type is the
        downstream output.  A full inference would also check that every
        output variant of ``self`` is routable into ``downstream``; the
        language front-end performs that check separately and reports
        warnings rather than failing, because flow inheritance means labels
        not mentioned here may still satisfy the downstream input.
        """
        return TypeSignature(self._input, downstream._output)

    def compose_parallel(self, other: "TypeSignature") -> "TypeSignature":
        """Signature of ``self | other``: union on both sides."""
        return TypeSignature(
            self._input.union(other._input), self._output.union(other._output)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeSignature):
            return NotImplemented
        return self._input == other._input and self._output == other._output

    def __hash__(self) -> int:
        return hash((self._input, self._output))

    def __repr__(self) -> str:
        return f"{self._input!r} -> {self._output!r}"


def _coerce_record_type(
    value: Union[RecordType, Variant, Iterable[LabelLike]]
) -> RecordType:
    if isinstance(value, RecordType):
        return value
    if isinstance(value, Variant):
        return RecordType([value])
    if isinstance(value, str):
        raise TypeError_(
            "string types must be parsed explicitly with RecordType.parse()"
        )
    return RecordType([Variant(value)])
