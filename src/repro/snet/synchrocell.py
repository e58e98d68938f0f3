"""Synchrocells: the only stateful entity in S-Net.

A synchrocell ``[| p1, p2, ... |]`` holds the first record matching each of
its patterns until *all* patterns have been matched; the stored records are
then merged into one record which is released on the output stream.  After
firing, the synchrocell becomes an identity (in the original runtime the cell
"dies" and is bypassed); records arriving afterwards — and records that match
a pattern whose slot is already occupied — pass through unchanged.

The merge is a label union; when the same label occurs in several stored
records the value of the record stored *first* wins for fields and the most
recently stored value wins for tags only if the first record lacks the tag
(in practice the paper's networks never merge conflicting labels).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.snet.base import PrimitiveEntity
from repro.snet.errors import SynchroError
from repro.snet.patterns import Pattern
from repro.snet.records import LabelLike, Record
from repro.snet.types import RecordType, TypeSignature, Variant

__all__ = ["SyncroCell"]


class SyncroCell(PrimitiveEntity):
    """A synchrocell with an arbitrary number of patterns.

    Parameters
    ----------
    patterns:
        The type patterns; at least two are required for a useful cell, but a
        single-pattern cell is allowed (it fires immediately on first match).
    """

    KIND = "sync"

    def __init__(
        self,
        patterns: Sequence[Union[Pattern, Iterable[LabelLike]]],
        name: Optional[str] = None,
    ):
        super().__init__(name)
        if not patterns:
            raise SynchroError("a synchrocell requires at least one pattern")
        self.patterns: List[Pattern] = [
            p if isinstance(p, Pattern) else Pattern(p) for p in patterns
        ]
        self._storage: Dict[int, Record] = {}
        self._fired = False

    @classmethod
    def parse(cls, text: str) -> "SyncroCell":
        """Parse surface syntax, e.g. ``"[| {pic}, {chunk} |]"``."""
        from repro.snet.lang.parser import parse_synchrocell

        return parse_synchrocell(text)

    # -- typing -------------------------------------------------------------
    @property
    def signature(self) -> TypeSignature:
        input_variants = [p.variant for p in self.patterns]
        merged = Variant()
        for p in self.patterns:
            merged = merged.union(p.variant)
        return TypeSignature(RecordType(input_variants), RecordType([merged]))

    def accepts(self, rec: Record) -> bool:
        return any(p.matches(rec) for p in self.patterns)

    def match_score(self, rec: Record) -> Optional[int]:
        scores = [s for s in (p.match_score(rec) for p in self.patterns) if s is not None]
        return min(scores) if scores else None

    # -- state ------------------------------------------------------------------
    @property
    def fired(self) -> bool:
        """True once the cell has matched all patterns and released its record."""
        return self._fired

    @property
    def pending(self) -> Dict[int, Record]:
        """Records currently held, keyed by pattern index (for inspection)."""
        return dict(self._storage)

    def reset(self) -> None:
        self._storage = {}
        self._fired = False

    # -- execution -----------------------------------------------------------------
    def process(self, rec: Record) -> List[Record]:
        if self._fired:
            # dead synchrocell behaves as identity
            return [rec]
        slot = self._matching_slot(rec)
        if slot is None:
            raise SynchroError(
                f"synchrocell {self.name!r} received a record matching none of "
                f"its patterns: {rec!r}"
            )
        if slot in self._storage:
            # slot already occupied: the record passes through untouched
            return [rec]
        self._storage[slot] = rec
        if len(self._storage) == len(self.patterns):
            merged = self._merge()
            self._fired = True
            self._storage = {}
            return [merged]
        return []

    def passes(self, rec: Record) -> bool:
        """Will :meth:`process` hand ``rec`` back unchanged, now and for good?

        True once the cell has fired, or while every slot ``rec`` matches
        is taken: a taken slot stays taken until the cell fires.
        """
        if self._fired:
            return True
        matched = [idx for idx, p in enumerate(self.patterns) if p.matches(rec)]
        return bool(matched) and all(idx in self._storage for idx in matched)

    def _matching_slot(self, rec: Record) -> Optional[int]:
        """Index of the first *unoccupied* matching pattern, else any match."""
        fallback: Optional[int] = None
        for idx, pattern in enumerate(self.patterns):
            if pattern.matches(rec):
                if idx not in self._storage:
                    return idx
                if fallback is None:
                    fallback = idx
        return fallback

    def _merge(self) -> Record:
        merged = Record()
        for idx in range(len(self.patterns)):
            stored = self._storage[idx]
            # earlier slots take precedence on conflicting labels
            merged = stored.merge(merged, override=True) if idx == 0 else merged.merge(
                stored, override=False
            )
        return merged

    def flush(self) -> List[Record]:
        """Release partially synchronised records when the stream ends.

        The original S-Net runtime silently discards incomplete matches; we
        do the same but keep the records inspectable through :attr:`pending`
        until the cell is reset.
        """
        return []

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.patterns)
        return f"[| {inner} |]"
