"""The ports of a run: one per entity instance, each a step function.

A port takes one record (:meth:`Port.on_record`) or the end of its input
(:meth:`Port.on_close`) per step of the run's
:class:`~repro.snet.runtime.scheduler.RunScheduler`;
:meth:`~repro.snet.runtime.core.EngineCore.compile` instantiates them, star
levels and split replicas on the first record that needs them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.snet.base import Entity, PrimitiveEntity
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.errors import RouteError, RuntimeError_
from repro.snet.filters import Filter
from repro.snet.network import Network
from repro.snet.records import Record
from repro.snet.runtime.plan import FusedChain, StarFacts
from repro.snet.runtime.stream import StreamClosed
from repro.snet.synchrocell import SyncroCell

if TYPE_CHECKING:  # pragma: no cover
    from repro.snet.runtime.core import EngineCore
    from repro.snet.runtime.scheduler import RunScheduler

__all__ = ["Port", "PortWriter"]


class PortWriter:
    """A writer handle on a :class:`Port`.  A port counts its writers and
    steps ``on_close`` once all are closed: how parallel branches merge and
    EOS cascades through the graph."""

    __slots__ = ("port", "closed")

    def __init__(self, port: "Port"):
        self.port = port
        self.closed = False

    def push(self, rec: Record) -> None:
        if self.closed:
            raise StreamClosed(f"push on a closed writer of {self.port.name}")
        self.port.enqueue(rec)

    def dup(self) -> "PortWriter":
        """Open an additional writer on the same port."""
        return self.port.open_writer()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        port = self.port
        port.writers -= 1
        if port.writers == 0:
            port.enqueue(None)


class Port:
    """One entity instance of a run: its input and its steps.

    Subclasses implement :meth:`on_record` and :meth:`on_close` (which must
    close the port's outputs once it is done) and list their output
    writers in :meth:`outputs`, which the scheduler closes when a step
    raises.
    """

    def __init__(self, sched: "RunScheduler", name: str):
        self.sched = sched
        self.name = name
        self.writers = 0
        self.failed = False
        #: this port's pending steps, oldest first (``None`` is end of input)
        self.inbox: Deque[Optional[Record]] = deque()
        self._woken = sched.woken
        #: the star whose level ``unit`` unrolled this port (the level's
        #: body and the next level's router), if any
        self.star, self.unit = sched.unrolling

    def enqueue(self, item: Optional[Record]) -> None:
        """Queue one step: a record, or ``None`` for the end of input."""
        self.inbox.append(item)
        self._woken.append(self)
        star = self.star
        if star is not None:
            queued = star.queued
            queued[self.unit] = queued.get(self.unit, 0) + 1

    def open_writer(self) -> PortWriter:
        self.writers += 1
        return PortWriter(self)

    def on_record(self, rec: Record) -> None:
        raise NotImplementedError

    def on_close(self) -> None:
        for writer in self.outputs():
            writer.close()

    def end_turn(self, _arg: Any = None) -> None:
        """Called at the end of a scheduler turn after :meth:`RunScheduler.at_turn_end`."""

    def outputs(self) -> Iterable[PortWriter]:
        return ()


class _PrimitivePort(Port):
    """A box, filter, synchrocell or fused chain: a plain call per record."""

    def __init__(self, core: "EngineCore", entity: PrimitiveEntity, out: PortWriter):
        super().__init__(core.scheduler, entity.name)
        self.entity = entity
        self.out = out
        # a fused chain traces each of its stages under the stage's name
        traced = core.tracer.enabled and not isinstance(entity, FusedChain)
        self.tracer = core.tracer if traced else None

    def on_record(self, rec: Record) -> None:
        if self.tracer is not None:
            self.tracer.record(self.name, "consume", record=repr(rec))
        self._emit(self.entity.process(rec))

    def on_close(self) -> None:
        self._emit(self.entity.flush())
        self.out.close()

    def _emit(self, produced: Iterable[Record]) -> None:
        push, tracer = self.out.push, self.tracer
        for rec in produced:
            if tracer is not None:
                tracer.record(self.name, "produce", record=repr(rec))
            push(rec)

    def outputs(self) -> Iterable[PortWriter]:
        return (self.out,)


class _ParallelPort(Port):
    """Route each record to the best-matching branch; branches share ``out``."""

    def __init__(self, core: "EngineCore", entity: Parallel, out: PortWriter):
        super().__init__(core.scheduler, entity.name)
        self.entity = entity
        self.out = out
        self.tracer = core.tracer if core.tracer.enabled else None
        self.branches = entity.branches
        # by position: the two branches may be one shared entity
        self.inputs = [core.compile(b, out.dup()).open_writer() for b in self.branches]

    def on_record(self, rec: Record) -> None:
        branch = self.entity.route(rec)
        if self.tracer is not None:
            self.tracer.record(self.name, "route", branch=branch.name)
        self.inputs[self.branches.index(branch)].push(rec)

    def outputs(self) -> Iterable[PortWriter]:
        return (*self.inputs, self.out)


def _identity_route(
    entity: Entity, rec: Record, cells: Dict[int, int], route: List[int]
) -> bool:
    """Can ``entity`` (a star's operand) pass ``rec`` on unchanged, given its
    synchrocells let it?  Appends to ``route`` the indices (``cells``, by
    ``id``) of the synchrocells on ``rec``'s path; False if the path meets
    anything but routing, ``[]`` filters and synchrocells."""
    if isinstance(entity, SyncroCell):
        route.append(cells[id(entity)])
        return True
    if isinstance(entity, Filter):
        return not entity.rules
    if isinstance(entity, Serial):
        return _identity_route(entity.left, rec, cells, route) and _identity_route(
            entity.right, rec, cells, route
        )
    if isinstance(entity, Parallel):
        try:
            branch = entity.route(rec)
        except RouteError:
            return False
        return _identity_route(branch, rec, cells, route)
    if isinstance(entity, Network):
        return _identity_route(entity.body, rec, cells, route)
    return False


class _StarChain:
    """The unrolled levels of one star instance, and where records skip them.

    A level whose body has, on a record's path, only fired or occupied
    synchrocells, ``[]`` filters and routing fixed by the label set is
    the identity for good for that label set (see DESIGN.md, "Star levels
    that stop costing steps").  The router sends a record that does not
    exit straight to the first *live* level, through per-label-set jump
    pointers with path compression, but never past a level whose ports
    still hold a queued record (:attr:`queued`), so the record overtakes
    nothing on any edge.  Whether a star may skip is a plan fact
    (:class:`~repro.snet.runtime.plan.StarFacts`).
    """

    __slots__ = ("entity", "levels", "queued", "skips", "cells", "routes", "jumps")

    def __init__(self, entity: Star, facts: StarFacts):
        self.entity = entity
        self.levels: List["_StarLevel"] = []
        #: level -> records queued on the ports its unrolling made; only
        #: levels holding some are present
        self.queued: Dict[int, int] = {}
        self.skips = facts.skips
        #: id of a synchrocell of the operand -> its index in each level
        self.cells = facts.cells
        #: label set -> indices of the synchrocells on its path, or None
        #: when the path is never the identity
        self.routes: Dict[frozenset, Optional[Tuple[int, ...]]] = {}
        #: label set -> {level: a level at or beyond it, all in between
        #: being the identity for that label set for good}
        self.jumps: Dict[frozenset, Dict[int, int]] = {}

    def live_level(self, level: int, rec: Record) -> "_StarLevel":
        """The first level at or after ``level`` that may change ``rec``."""
        labels = rec.label_set
        try:
            route = self.routes[labels]
        except KeyError:
            path: List[int] = []
            route = self.routes[labels] = (
                tuple(path)
                if _identity_route(self.entity.operand, rec, self.cells, path)
                else None
            )
        levels = self.levels
        if route is None:
            return levels[level]
        jumps = self.jumps.setdefault(labels, {})
        start, passed = level, []
        while True:
            beyond = jumps.get(level)
            if beyond is None:
                cells = levels[level].cells
                if cells is None or not all(
                    cells[i] is not None and cells[i].passes(rec) for i in route
                ):
                    break
                beyond = level + 1
            passed.append(level)
            level = beyond
        for skipped in passed:
            jumps[skipped] = level
        # records queued on a skipped level go first: stop at the first one
        held = [unit for unit in self.queued if start <= unit < level]
        return levels[min(held) if held else level]


class _StarLevel(Port):
    """The router of one star level; unrolls the next level on demand."""

    def __init__(self, core: "EngineCore", chain: _StarChain, out: PortWriter):
        level = len(chain.levels)
        super().__init__(core.scheduler, f"{chain.entity.name}-L{level}")
        self.core = core
        self.chain = chain
        self.level = level
        self.out = out
        self.tracer = core.tracer if core.tracer.enabled else None
        self.instance: Optional[PortWriter] = None
        #: the synchrocells of this level's body by index (``None``: not
        #: instantiated here), once it is unrolled
        self.cells: Optional[List[Optional[SyncroCell]]] = None
        chain.levels.append(self)

    def on_record(self, rec: Record) -> None:
        chain = self.chain
        if chain.entity.exit_pattern.matches(rec):
            if self.tracer is not None:
                self.tracer.record(chain.entity.name, "exit", level=self.level)
            self.out.push(rec)
        elif chain.skips:
            chain.live_level(self.level, rec).enter(rec)
        else:
            self.enter(rec)

    def enter(self, rec: Record) -> None:
        """Send ``rec`` into this level's body, unrolling it first if needed."""
        if self.instance is None:
            chain = self.chain
            if self.level >= chain.entity.max_depth:
                raise RuntimeError_(
                    f"star {chain.entity.name} exceeded max depth {chain.entity.max_depth}"
                )
            if self.tracer is not None:
                self.tracer.record(chain.entity.name, "unroll", level=self.level)
            sched = self.sched
            outer = sched.unrolling, sched.cells
            sched.unrolling, sched.cells = (chain, self.level), {}
            try:
                following = _StarLevel(self.core, chain, self.out.dup())
                self.instance = self.core.compile(
                    chain.entity.operand, following.open_writer()
                ).open_writer()
                made = sched.cells
            finally:
                sched.unrolling, sched.cells = outer
            self.cells = [made.get(cell) for cell in chain.cells]
        self.instance.push(rec)

    def outputs(self) -> Iterable[PortWriter]:
        if self.instance is None:
            return (self.out,)
        return (self.instance, self.out)


class _SplitPort(Port):
    """Route by tag value; one replica per value, created on its first record."""

    def __init__(self, core: "EngineCore", entity: IndexSplit, out: PortWriter):
        super().__init__(core.scheduler, entity.name)
        self.core = core
        self.entity = entity
        self.out = out
        self.instances: Dict[int, PortWriter] = {}

    def on_record(self, rec: Record) -> None:
        entity = self.entity
        if not rec.has_tag(entity.tag):
            raise RuntimeError_(
                f"index split {entity.name} requires tag <{entity.tag}> "
                f"on every record, got {rec!r}"
            )
        value = rec.tag(entity.tag)
        writer = self.instances.get(value)
        if writer is None:
            core = self.core
            core.tracer.record(entity.name, "instantiate", index=value)
            inst_out = self.out.dup()
            # the transport gets first claim on the replica (a placed !@
            # split runs it on compute node `value`)
            port = core.transport.compile_split_instance(entity, value, inst_out)
            if port is None:
                port = core.compile(entity.operand, inst_out)
            writer = self.instances[value] = port.open_writer()
        writer.push(rec)

    def outputs(self) -> Iterable[PortWriter]:
        return (*self.instances.values(), self.out)


class _Forward:
    """A ``[]`` filter as a wire: its one writer is ``out`` itself, so a
    record crossing it costs no step."""

    __slots__ = ("out",)

    def __init__(self, out: PortWriter):
        self.out = out

    def open_writer(self) -> PortWriter:
        return self.out


class _Collector(Port):
    """The network's output: gathers the run's result records."""

    def __init__(self, sched: "RunScheduler"):
        super().__init__(sched, "network-out")
        self.records: List[Record] = []
        self.done = False

    def on_record(self, rec: Record) -> None:
        self.records.append(rec)

    def on_close(self) -> None:
        self.done = True
