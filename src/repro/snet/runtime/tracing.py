"""Lightweight event tracing for runtime executions.

A :class:`Tracer` collects timestamped events emitted by the runtimes (record
consumed, record produced, box started/finished, entity instantiated...).
Traces serve three purposes:

* tests assert on causal properties (e.g. "every chunk was produced by some
  solver instance"),
* the benchmark harness derives utilisation and queueing statistics,
* debugging of coordination programs ("why did this record end up here?").
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = ["TraceEvent", "Tracer", "NullTracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One trace event."""

    timestamp: float
    entity: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.timestamp:.6f}] {self.entity}: {self.kind} {self.detail}"


class Tracer:
    """Thread-safe in-memory event collector."""

    #: whether :meth:`record` keeps events; hot loops check it before
    #: formatting an expensive detail such as ``repr(record)``
    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._events: List[TraceEvent] = []
        self._lock = threading.Lock()
        self._clock = clock or time.monotonic
        self._t0 = self._clock()

    def record(self, entity: str, kind: str, **detail: Any) -> None:
        event = TraceEvent(self._clock() - self._t0, entity, kind, detail)
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_entity(self, entity: str) -> List[TraceEvent]:
        return [e for e in self.events if e.entity == entity]

    def count(self, kind: str) -> int:
        return len(self.of_kind(kind))

    def entities(self) -> List[str]:
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.entity, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def summary(self) -> Dict[str, int]:
        """Event counts per kind."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


class NullTracer(Tracer):
    """A tracer that drops everything (default when tracing is disabled)."""

    enabled = False

    def record(self, entity: str, kind: str, **detail: Any) -> None:  # noqa: D401
        return None
