"""Common entity abstractions shared by all S-Net network components.

Every S-Net component — box, filter, synchrocell, or a whole network built
with combinators — is a *SISO entity*: it has exactly one (typed) input stream
and one (typed) output stream.  This module defines the two views the rest of
the system takes of an entity:

* the **transformation view** (:class:`PrimitiveEntity`): a primitive entity
  consumes one record at a time and emits zero or more records
  (``process(record)``).  Synchrocells are the only primitive entities with
  internal state; boxes and filters are pure.
* the **structural view** (:class:`Entity`): combinators are entities that
  *contain* other entities; execution engines walk this structure to build a
  worker/stream graph (threaded runtime) or a process graph (simulated
  distributed runtime).

Entities must be cheaply copyable (:meth:`Entity.copy`) because the dynamic
combinators — serial replication ``*`` and parallel replication ``!`` —
instantiate fresh copies of their operand on demand; each copy carries its own
state (important for synchrocells nested inside a star, as in the merger
network of Fig. 3).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.snet.records import Record
from repro.snet.types import RecordType, TypeSignature

__all__ = ["Entity", "PrimitiveEntity", "fresh_entity_id"]

_entity_ids = itertools.count(1)


def fresh_entity_id() -> int:
    """Return a process-unique entity id (used for tracing and placement)."""
    return next(_entity_ids)


class Entity:
    """Base class of every SISO network entity."""

    #: human-readable kind, overridden by subclasses ("box", "filter", ...)
    KIND = "entity"
    #: attributes holding child entities (or lists of them), which
    #: :meth:`copy` copies in turn
    CHILD_ATTRS: Tuple[str, ...] = ()

    def __init__(self, name: Optional[str] = None):
        self.entity_id = fresh_entity_id()
        self.name = name or f"{self.KIND}{self.entity_id}"

    # -- typing -------------------------------------------------------------
    @property
    def signature(self) -> TypeSignature:
        """The entity's type signature (input -> output)."""
        raise NotImplementedError

    @property
    def input_type(self) -> RecordType:
        return self.signature.input_type

    @property
    def output_type(self) -> RecordType:
        return self.signature.output_type

    def accepts(self, rec: Record) -> bool:
        """True if this entity's input type matches the record."""
        return self.input_type.accepts(rec)

    def match_score(self, rec: Record) -> Optional[int]:
        """Routing metric used by parallel composition (lower is better)."""
        return self.input_type.match_score(rec)

    # -- structure ------------------------------------------------------------
    def children(self) -> Iterable["Entity"]:
        """Sub-entities of a combinator; primitive entities have none."""
        return ()

    def iter_entities(self) -> Iterator["Entity"]:
        """Depth-first iteration over this entity and all nested entities."""
        yield self
        for child in self.children():
            yield from child.iter_entities()

    def copy(self) -> "Entity":
        """Return a fresh instance of this entity with reset internal state.

        Structural, not deep: a shallow copy with a new entity id whose
        child entities (:attr:`CHILD_ATTRS`) are fresh copies in turn.  The
        frozen parts — box functions, signatures, patterns, filter rules —
        are shared; stateful entities override :meth:`reset` to get fresh
        state.
        """
        dup = object.__new__(type(self))
        dup.__dict__.update(self.__dict__)
        dup.entity_id = fresh_entity_id()
        for attr in self.CHILD_ATTRS:
            child = getattr(self, attr)
            fresh = [c.copy() for c in child] if isinstance(child, list) else child.copy()
            setattr(dup, attr, fresh)
        dup.reset()
        return dup

    def reset(self) -> None:
        """Clear any internal state (no-op for pure entities)."""

    # -- convenience composition sugar ------------------------------------------
    def __rshift__(self, other: "Entity") -> "Entity":
        """``a >> b`` is serial composition ``a .. b``."""
        from repro.snet.combinators import Serial

        return Serial(self, other)

    def __or__(self, other: "Entity") -> "Entity":
        """``a | b`` is parallel composition."""
        from repro.snet.combinators import Parallel

        return Parallel(self, other)

    def __repr__(self) -> str:
        return f"<{self.KIND} {self.name}>"


class PrimitiveEntity(Entity):
    """An entity that transforms records directly (box, filter, synchrocell)."""

    def process(self, rec: Record) -> List[Record]:
        """Consume one record and return the produced records, in order."""
        raise NotImplementedError

    def flush(self) -> List[Record]:
        """Called once when the input stream has ended.

        Stateful entities may release buffered records here (a synchrocell
        holding partial matches emits nothing — matching S-Net, which simply
        discards unmatched storage at network shutdown — but subclasses can
        override).
        """
        return []
