"""Records: the messages that flow through an S-Net network.

A record is a non-recursive set of label/value pairs.  Labels are split into

* **fields** -- values from the box-language domain (arbitrary Python objects
  here, ``void*`` in the original C implementation); entirely opaque to the
  coordination layer, and
* **tags** -- integer values visible to *both* the coordination layer and the
  box language.  Tags drive routing decisions (index splits, guards, star exit
  conditions).  The paper additionally distinguishes *binding* tags (written
  ``<#tag>`` in later S-Net revisions); we expose them as :class:`BTag` for
  completeness, they behave like tags for typing purposes.

Records are immutable: every operation returns a new record.  This mirrors the
S-Net semantics where boxes are pure functions over their input record and is
what makes box replication and relocation safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

from repro.snet.errors import RecordError

__all__ = ["Label", "Field", "Tag", "BTag", "Record", "record"]


@dataclass(frozen=True, order=True)
class Label:
    """Base class for record labels.

    Labels compare by *kind* and *name* so that a field ``a`` and a tag
    ``<a>`` are distinct labels, exactly as in S-Net.
    """

    name: str

    #: short kind discriminator used in ordering and repr; overridden by
    #: subclasses.
    KIND = "label"

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise RecordError(f"label name must be a non-empty string, got {self.name!r}")

    @property
    def kind(self) -> str:
        return type(self).KIND

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.pretty()

    def pretty(self) -> str:
        return self.name


class Field(Label):
    """A field label.  Field values are opaque to the coordination layer."""

    KIND = "field"


class Tag(Label):
    """A tag label.  Tag values are integers, visible to coordination code."""

    KIND = "tag"

    def pretty(self) -> str:
        return f"<{self.name}>"


class BTag(Tag):
    """A binding tag label (``<#name>``)."""

    KIND = "btag"

    def pretty(self) -> str:
        return f"<#{self.name}>"


LabelLike = Union[str, Label]


def as_label(label: LabelLike) -> Label:
    """Coerce a string or :class:`Label` into a :class:`Label`.

    Strings use the surface syntax: ``"a"`` is a field, ``"<a>"`` a tag and
    ``"<#a>"`` a binding tag.
    """
    if isinstance(label, Label):
        return label
    if not isinstance(label, str):
        raise RecordError(f"cannot interpret {label!r} as a record label")
    text = label.strip()
    if text.startswith("<#") and text.endswith(">"):
        return BTag(text[2:-1].strip())
    if text.startswith("<") and text.endswith(">"):
        return Tag(text[1:-1].strip())
    return Field(text)


def _check_tag_value(label: Label, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecordError(
            f"tag {label.pretty()} must carry an integer value, got {value!r}"
        )
    return value


_record_counter = itertools.count(1)

#: one shared frozenset per distinct label set (see :attr:`Record.label_set`)
_LABEL_SETS: Dict[frozenset, frozenset] = {}


class Record(Mapping[Label, Any]):
    """An immutable S-Net record.

    Parameters
    ----------
    entries:
        Mapping from labels (or surface-syntax strings) to values.  Tag labels
        must map to integers.

    Examples
    --------
    >>> r = Record({"scene": object(), "<node>": 3})
    >>> r.tag("node")
    3
    >>> sorted(l.name for l in r.fields())
    ['scene']
    """

    __slots__ = ("_entries", "_uid", "_label_set")

    def __init__(self, entries: Optional[Mapping[LabelLike, Any]] = None, *, _uid: Optional[int] = None):
        normalised: Dict[Label, Any] = {}
        if entries:
            for raw_label, value in entries.items():
                label = as_label(raw_label)
                if label in normalised:
                    raise RecordError(f"duplicate label {label.pretty()} in record")
                if isinstance(label, Tag):
                    value = _check_tag_value(label, value)
                normalised[label] = value
        object.__setattr__(self, "_entries", normalised)
        object.__setattr__(self, "_uid", _uid if _uid is not None else next(_record_counter))
        object.__setattr__(self, "_label_set", None)

    @classmethod
    def _of(cls, entries: Dict[Label, Any]) -> "Record":
        """A record over ``entries`` that already hold labels and checked tags.

        The functional updates below build their results from records, so
        they skip the label parsing and tag checks of the constructor.
        """
        rec = object.__new__(cls)
        object.__setattr__(rec, "_entries", entries)
        object.__setattr__(rec, "_uid", next(_record_counter))
        object.__setattr__(rec, "_label_set", None)
        return rec

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, label: LabelLike) -> Any:
        return self._entries[as_label(label)]

    def __iter__(self) -> Iterator[Label]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, label: object) -> bool:
        try:
            return as_label(label) in self._entries  # type: ignore[arg-type]
        except RecordError:
            return False

    # -- identity ----------------------------------------------------------
    @property
    def uid(self) -> int:
        """A unique id assigned at creation; used only for tracing."""
        return self._uid

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Record instances are immutable")

    def __copy__(self) -> "Record":
        return self  # immutable, shallow copy can share

    def __reduce__(self):
        return (Record, (dict(self._entries),))

    def __hash__(self) -> int:
        return hash(self._uid)

    def __eq__(self, other: object) -> bool:
        """Structural equality on labels and values (ignores uid)."""
        if not isinstance(other, Record):
            return NotImplemented
        return self._entries == other._entries

    # -- label accessors ---------------------------------------------------
    @property
    def label_set(self) -> "frozenset[Label]":
        """The record's labels as a frozenset, computed once per record.

        Interned: records with equal label sets share one frozenset, so the
        type checks that memoize on it (:meth:`Variant.accepts`,
        :meth:`RecordType.match_score`) hit their tables by identity.
        """
        labels = self._label_set
        if labels is None:
            labels = frozenset(self._entries)
            labels = _LABEL_SETS.setdefault(labels, labels)
            object.__setattr__(self, "_label_set", labels)
        return labels

    def labels(self) -> Tuple[Label, ...]:
        return tuple(self._entries.keys())

    def fields(self) -> Tuple[Field, ...]:
        return tuple(l for l in self._entries if isinstance(l, Field))

    def tags(self) -> Tuple[Tag, ...]:
        return tuple(l for l in self._entries if isinstance(l, Tag))

    def field(self, name: str) -> Any:
        """Return the value of field ``name``."""
        label = Field(name)
        if label not in self._entries:
            raise RecordError(f"record has no field {name!r}: {self}")
        return self._entries[label]

    def tag(self, name: str) -> int:
        """Return the integer value of tag ``name``."""
        for label in (Tag(name), BTag(name)):
            if label in self._entries:
                return self._entries[label]
        raise RecordError(f"record has no tag <{name}>: {self}")

    def has_field(self, name: str) -> bool:
        return Field(name) in self._entries

    def has_tag(self, name: str) -> bool:
        return Tag(name) in self._entries or BTag(name) in self._entries

    def get(self, label: LabelLike, default: Any = None) -> Any:  # type: ignore[override]
        try:
            return self[label]
        except (KeyError, RecordError):
            return default

    # -- functional updates --------------------------------------------------
    def with_entries(self, entries: Mapping[LabelLike, Any]) -> "Record":
        """Return a new record with ``entries`` added/overriding existing ones."""
        merged: Dict[Label, Any] = dict(self._entries)
        for raw_label, value in entries.items():
            label = as_label(raw_label)
            if isinstance(label, Tag):
                value = _check_tag_value(label, value)
            merged[label] = value
        return Record._of(merged)

    def with_field(self, name: str, value: Any) -> "Record":
        return self.with_entries({Field(name): value})

    def with_tag(self, name: str, value: int) -> "Record":
        return self.with_entries({Tag(name): value})

    def without(self, labels: Iterable[LabelLike]) -> "Record":
        """Return a new record with the given labels removed (if present)."""
        drop = {as_label(l) for l in labels}
        return Record._of({l: v for l, v in self._entries.items() if l not in drop})

    def project(self, labels: Iterable[LabelLike]) -> "Record":
        """Return a new record restricted to the given labels."""
        keep = {as_label(l) for l in labels}
        return Record._of({l: v for l, v in self._entries.items() if l in keep})

    def map_field_values(self, fn: "Callable[[Any], Any]") -> "Record":
        """Return a record with ``fn`` applied to every *field* value.

        Tag values are never touched (they are plain integers owned by the
        coordination layer).  If ``fn`` returns every value unchanged
        (identity-wise), ``self`` is returned without allocating a new
        record — callers on hot paths (the process runtime swapping large
        payloads for shared-memory handles) rely on this.
        """
        changed = False
        mapped: Dict[Label, Any] = {}
        for label, value in self._entries.items():
            if isinstance(label, Field):
                new_value = fn(value)
                if new_value is not value:
                    changed = True
                value = new_value
            mapped[label] = value
        return Record._of(mapped) if changed else self

    def merge(self, other: "Record", override: bool = True) -> "Record":
        """Merge two records.

        With ``override=True`` (the default) labels of ``other`` replace
        identically named labels of ``self``; this is the behaviour used by
        synchrocells and flow inheritance (an output item overrides an
        inherited one).
        """
        if override:
            merged = dict(self._entries)
            merged.update(other._entries)
        else:
            merged = dict(other._entries)
            merged.update(self._entries)
        return Record._of(merged)

    # -- flow inheritance ----------------------------------------------------
    def excess_over(self, consumed_labels: Iterable[LabelLike]) -> "Record":
        """Return the part of this record not matched by ``consumed_labels``.

        This is the payload that flow inheritance attaches to every output
        record produced in response to this record.
        """
        return self.without(consumed_labels)

    # -- misc -----------------------------------------------------------------
    def payload_size(self) -> int:
        """A rough byte-size estimate of the record payload.

        Used by the cluster simulator to charge network transfer time.  Field
        values may provide ``nbytes`` (numpy arrays) or ``__len__``; otherwise
        a small constant is charged.
        """
        size = 0
        for label, value in self._entries.items():
            if isinstance(label, Tag):
                size += 8
                continue
            nbytes = getattr(value, "nbytes", None)
            if nbytes is not None:
                size += int(nbytes)
            elif isinstance(value, (bytes, bytearray, str)):
                size += len(value)
            elif hasattr(value, "payload_size"):
                size += int(value.payload_size())
            else:
                size += 64
        return size + 16  # envelope overhead

    def __repr__(self) -> str:
        parts = []
        for label in sorted(self._entries, key=lambda l: (l.KIND, l.name)):
            value = self._entries[label]
            if isinstance(label, Tag):
                parts.append(f"{label.pretty()}={value}")
            else:
                parts.append(label.pretty())
        return "{" + ", ".join(parts) + "}"


def record(**kwargs: Any) -> Record:
    """Convenience constructor: ``record(a=1, node=Tag)``...

    Keyword names are interpreted as fields unless the value is wrapped in
    a single-element tuple ``("tag", int)``; for tags prefer the explicit
    dict form ``Record({"<node>": 3})``.  This helper exists mainly for tests
    and examples.
    """
    return Record({Field(k): v for k, v in kwargs.items()})
