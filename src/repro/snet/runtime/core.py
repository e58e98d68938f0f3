"""The transport-agnostic execution core shared by every executing runtime.

:class:`EngineCore` compiles an S-Net entity graph into a graph of
*ports*: one per entity instance, each a step function taking one record
(``on_record``) or the end of its input stream (``on_close``).  One
run-to-completion :class:`RunScheduler` drives the whole graph on the
thread that called :meth:`EngineCore.run`.  Every port has its own FIFO
inbox, and the scheduler always steps the port woken most recently: order
is kept on every edge, but a record's path downstream runs before older
queued work, so a solver result's node token reaches the next queued
section at once.  A record crossing 64 star levels is 64 queued steps,
never 64 nested calls and never an OS thread hand-off, and levels that
have become the identity for the record's label set are not crossed at
all (see :class:`_StarChain`).  What differs between backends sits behind
an explicit :class:`Transport` seam:

=============  =======================================================
runtime        transport
=============  =======================================================
threaded       :class:`InlineTransport` — every entity is a port on the
               scheduler; records travel by reference.
process        ``PoolTransport`` — ``parallel_safe`` boxes are claimed;
               a record goes to a worker at once when one owes nothing,
               else it is batched per scheduler turn; batches are
               serialized (protocol 5, out-of-band buffers) and sent over
               pipe links to forked workers; the scheduler reads the
               results itself (:meth:`Transport.poll`,
               :meth:`Transport.wait`).
distributed    ``PartitionTransport`` — whole placement partitions
               (``A @ num``, ``A !@ <tag>``) execute in real worker
               processes; each partition instance is a port whose
               records are batched per scheduler turn and cross over
               the same pipe links, read and awaited the same way.
=============  =======================================================

The core owns the engine invariants, so they hold identically on every
backend:

* **compilation** — one port per primitive entity (an untraced ``[]``
  filter is a plain wire), routing ports for the
  dynamic combinators; star levels and index-split replicas are created
  lazily, on the first record that needs them;
* **drain-on-error** — a failing port closes its outputs (downstream sees
  EOS at once) and drops the rest of its input, so the run fails promptly
  with the collected exception instead of hanging until the deadline;
* **wall-clock deadline** — ``timeout`` bounds the whole run; it is
  checked between steps;
* **warm lifecycle** — ``setup()``/``teardown()``/``is_warm`` and the
  context-manager protocol, with the transport deciding what (if
  anything) is worth keeping warm;
* **accounting** — :attr:`EngineCore.bytes_pickled` reports the bytes the
  transport serialized across process boundaries (0 inline) and
  :meth:`EngineCore.observability` the steps of the last run.

No backend starts a thread: every transport is driven from the scheduler.

A minimal custom transport only needs to override the hooks it cares
about:

>>> class CountingTransport(InlineTransport):
...     name = "counting"
...     def begin_run(self, network, inputs, timeout):
...         self.runs = getattr(self, "runs", 0) + 1
...         return network
>>> from repro.snet import Record, box
>>> @box("(x) -> (y)")
... def double(x):
...     return {"y": 2 * x}
>>> core = EngineCore(transport=CountingTransport())
>>> [r.field("y") for r in core.run(double, [Record({"x": 21})])]
[42]
>>> core.transport.runs, core.bytes_pickled
(1, 0)
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
import weakref
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.snet.base import Entity, PrimitiveEntity
from repro.snet.boxes import Box
from repro.snet.combinators import Combinator, IndexSplit, Parallel, Serial, Star
from repro.snet.errors import NetworkError, RouteError, RuntimeError_
from repro.snet.filters import Filter
from repro.snet.network import Network
from repro.snet.placement import StaticPlacement
from repro.snet.records import Record
from repro.snet.runtime.linearize import FusedChain, linearize
from repro.snet.runtime.stream import StreamClosed
from repro.snet.runtime.tracing import NullTracer, Tracer
from repro.snet.synchrocell import SyncroCell

__all__ = [
    "EngineCore",
    "Transport",
    "InlineTransport",
    "Port",
    "PortWriter",
    "RunScheduler",
    "warn_fork_degraded",
]


def warn_fork_degraded(runtime_name: str, consequence: str) -> None:
    """Announce that a fork-based transport degrades to threaded execution.

    Shared by every transport that needs real OS processes: the message
    wording ("degrading to threaded") is part of the degradation contract
    tests pin on both the process and distributed engines.
    """
    warnings.warn(
        f"{runtime_name}: the 'fork' start method is unavailable on this "
        "platform; degrading to threaded in-process execution "
        f"({consequence})",
        RuntimeWarning,
        stacklevel=5,
    )


# -- the port graph ------------------------------------------------------------


class PortWriter:
    """A writer handle on a :class:`Port`.

    Ports count their writers the way a :class:`Stream` does: the port's
    ``on_close`` step is scheduled once every writer has been closed, which
    is how parallel branches merge and how EOS cascades through the graph.
    """

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
    """One entity instance of the compiled graph: its input and its steps.

    Subclasses implement :meth:`on_record` (one input record) and
    :meth:`on_close` (end of input; must close the port's outputs once the
    port is done) and list their output writers in :meth:`outputs`, which
    the scheduler closes when a step raises.
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
        self.tracer = core.tracer if core.tracer.enabled else None

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
        # route() returns one of entity.branches; resolve it to a writer by
        # identity instead of an O(branches) list search per record
        self.writer_of = {
            id(branch): core.compile(branch, out.dup()).open_writer()
            for branch in entity.branches
        }

    def on_record(self, rec: Record) -> None:
        branch = self.entity.route(rec)
        if self.tracer is not None:
            self.tracer.record(self.name, "route", branch=branch.name)
        self.writer_of[id(branch)].push(rec)

    def outputs(self) -> Iterable[PortWriter]:
        return (*self.writer_of.values(), self.out)


def _routes_by_labels(operand: Entity) -> bool:
    """Does every routing decision inside ``operand`` depend on labels only?

    True when no pattern in it (synchrocell slot, filter rule, nested exit
    pattern) carries a guard and it holds no primitive of unknown kind:
    then whether a record passes an unrolled copy unchanged depends on the
    record's label set and the copy's synchrocells, nothing else.
    """
    for ent in operand.iter_entities():
        if isinstance(ent, SyncroCell):
            patterns = ent.patterns
        elif isinstance(ent, Filter):
            patterns = [rule.pattern for rule in ent.rules]
        elif isinstance(ent, Star):
            patterns = [ent.exit_pattern]
        elif isinstance(ent, (Box, Combinator, FusedChain)):
            continue
        else:
            return False
        if any(p.guard is not None for p in patterns):
            return False
    return True


def _identity_route(
    entity: Entity, rec: Record, cells: Dict[int, int], route: List[int]
) -> bool:
    """Can ``entity`` pass ``rec`` on unchanged, given its synchrocells let it?

    Walks the path ``rec`` takes through ``entity`` (the template of a star
    level) and appends to ``route`` the indices (in ``cells``, keyed by
    ``id``) of the synchrocells on it.  False if the path meets anything
    but routing, ``[]`` filters and synchrocells.
    """
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

    A synchrocell that has fired is the identity for good, and so is one
    whose every slot a record matches is already taken: the record passes
    it unchanged, now and later.  A level whose body has only such cells,
    ``[]`` filters and routing fixed by the label set on a record's path
    is therefore the identity for good for that record's label set.  The
    router sends a record that does not exit straight to the first *live*
    level, through per-label-set jump pointers with path compression; the
    exit test runs once per record, as the skipped routers would only
    repeat it on the same record.

    A skip replays the steps the depth-first scheduler would take next, so
    it stops short of any level whose ports still hold a queued record
    (:attr:`queued`): the skipped record overtakes nothing on any edge.
    Deterministic ``**`` stars, bodies with guards and traced runs (which
    keep an event per hop) never skip.
    """

    __slots__ = ("entity", "levels", "queued", "skips", "cells", "routes", "jumps")

    def __init__(self, entity: Star, traced: bool):
        self.entity = entity
        self.levels: List["_StarLevel"] = []
        #: level -> records queued on the ports its unrolling made; only
        #: levels holding some are present
        self.queued: Dict[int, int] = {}
        cells = _cells_of(entity.operand)
        #: id of a synchrocell of the template -> its index in each level
        self.cells: Dict[int, int] = {id(ent): index for index, ent in enumerate(cells)}
        self.skips = (
            not entity.deterministic
            and not traced
            and len(self.cells) == len(cells)  # no cell object used twice
            and _routes_by_labels(entity.operand)
        )
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
                if cells is None or not all(cells[i].passes(rec) for i in route):
                    break
                beyond = level + 1
            passed.append(level)
            level = beyond
        for skipped in passed:
            jumps[skipped] = level
        # records queued on a skipped level go first: stop at the first one
        held = [unit for unit in self.queued if start <= unit < level]
        return levels[min(held) if held else level]


def _cells_of(entity: Entity) -> List[SyncroCell]:
    """The synchrocells in ``entity``, in an order its copies share."""
    cells, pending = [], [entity]
    while pending:
        ent = pending.pop()
        if isinstance(ent, SyncroCell):
            cells.append(ent)
        else:
            pending.extend(ent.children())
    return cells


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
        #: the synchrocells of this level's body, once it is unrolled
        self.cells: Optional[List[SyncroCell]] = None
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
            outer, sched.unrolling = sched.unrolling, (chain, self.level)
            try:
                following = _StarLevel(self.core, chain, self.out.dup())
                body = chain.entity.operand.copy()
                self.instance = self.core.compile(
                    body, following.open_writer()
                ).open_writer()
            finally:
                sched.unrolling = outer
            self.cells = _cells_of(body)
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
                port = core.compile(entity.operand.copy(), inst_out)
            writer = self.instances[value] = port.open_writer()
        writer.push(rec)

    def outputs(self) -> Iterable[PortWriter]:
        return (*self.instances.values(), self.out)


class _Forward:
    """An untraced ``[]`` filter, compiled to a wire: a record costs no step.

    Stands in for the filter's port: the one writer a compiled entity's
    user opens is ``out`` itself.
    """

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


class RunScheduler:
    """Drive one run's port graph to completion on the calling thread.

    Every port queues its steps — records, then ``None`` for end of input
    — in its own FIFO inbox (:attr:`Port.inbox`), and :attr:`woken` stacks
    one entry per queued step.  The scheduler pops the top entry and runs
    the oldest step of that port: the port woken most recently goes first,
    so a record's path downstream runs before older queued work (depth
    first), while each edge keeps its order.

    A *turn* ends when nothing is queued or after :attr:`TURN_STEPS`
    steps: the ports registered with :meth:`at_turn_end` then act on what
    the turn gave them (the pool transport batches the records that found
    every worker busy, a partition port its turn's records), and the
    scheduler takes the transport's results (:meth:`Transport.poll`),
    sleeping in :meth:`Transport.wait` while it has nothing to do.
    """

    #: steps per turn: results are read at every turn end, so a long
    #: cascade elsewhere in the graph cannot hold a landed result back
    TURN_STEPS = 32

    def __init__(self, core: "EngineCore"):
        self.core = core
        self.woken: List[Port] = []
        self.steps = 0
        self.stars: List[_StarChain] = []
        #: (star, level) while a star level unrolls, for the ports it makes
        self.unrolling: Tuple[Optional[_StarChain], int] = (None, -1)
        self._turn_end: List[Port] = []

    def at_turn_end(self, port: Port) -> None:
        """Call ``port.end_turn()`` once the current turn's steps are done."""
        self._turn_end.append(port)

    def _fail(self, port: Port, exc: BaseException) -> None:
        port.failed = True
        self.core._record_error(exc, source=port.name)
        for writer in port.outputs():
            writer.close()

    def _call(self, port: Port, fn: Callable[[Any], None], arg: Any) -> None:
        if port.failed:
            return
        try:
            fn(arg)
        except Exception as exc:  # noqa: BLE001 - collected for reporting
            self._fail(port, exc)

    def run(self, collector: _Collector, deadline: Optional[float]) -> bool:
        """Process steps until the output closes; ``False`` at the deadline.

        With a collected error the run also ends as soon as the scheduler
        runs out of work: the error is what the caller reports.
        """
        woken, clock = self.woken, time.monotonic
        core = self.core
        while True:
            budget = self.TURN_STEPS
            while woken and budget:
                budget -= 1
                port = woken.pop()
                rec = port.inbox.popleft()
                star = port.star
                if star is not None:
                    queued, unit = star.queued, port.unit
                    if queued[unit] == 1:
                        del queued[unit]
                    else:
                        queued[unit] -= 1
                self.steps += 1
                if not port.failed:
                    try:
                        if rec is None:
                            port.on_close()
                        else:
                            port.on_record(rec)
                    except Exception as exc:  # noqa: BLE001 - collected
                        self._fail(port, exc)
                if deadline is not None and clock() > deadline:
                    return False
            if self._turn_end:
                ports, self._turn_end = self._turn_end, []
                for port in ports:
                    self._call(port, port.end_turn, None)
            if self._take_results() or woken:
                continue
            if collector.done or core.errors:
                return True
            if not self._await_results(deadline):
                return False

    def _take_results(self) -> bool:
        """Run the transport's landed results as steps; ``True`` if any."""
        transport = self.core.transport
        try:
            landed = transport.poll()
        except Exception as exc:  # noqa: BLE001 - collected
            self.core._record_error(exc, source=transport.name)
            return True
        for item in landed:
            self._call(*item)
        return bool(landed)

    def _await_results(self, deadline: Optional[float]) -> bool:
        """Sleep until the transport has results; ``False`` at the deadline."""
        wait = None if deadline is None else deadline - time.monotonic()
        if wait is not None and wait <= 0:
            return False
        transport = self.core.transport
        try:
            busy = transport.wait(wait)
        except Exception as exc:  # noqa: BLE001 - collected
            self.core._record_error(exc, source=transport.name)
            return True
        if not busy:
            raise RuntimeError_(
                f"run stalled: no step is queued and the {transport.name} "
                "transport owes nothing"
            )
        return True


class Transport:
    """The seam between the execution core and a record-moving substrate.

    A transport owns whatever lives outside the scheduler — a process pool,
    partition worker processes, nothing at all — and tells the core which
    parts of the entity graph it wants to execute itself.  All hooks have
    safe no-op defaults; see :class:`InlineTransport` for the trivial
    instance and the process/distributed engines for real ones.

    Lifecycle: :meth:`bind` is called once when the owning runtime is
    constructed; per run the core calls :meth:`begin_run` (acquire
    resources, possibly rewrite the network) before compilation and
    :meth:`end_run` after the run finishes (also on error).  The warm
    split (:meth:`setup`/:meth:`teardown`) brackets many runs; a transport
    that has been ``setup`` must treat ``begin_run``/``end_run`` as
    activation/deactivation of its persistent resources instead of
    acquisition/release.
    """

    #: short backend identifier (diagnostics only)
    name = "transport"

    def __init__(self) -> None:
        self.runtime: Optional["EngineCore"] = None

    # -- lifecycle -----------------------------------------------------------
    def bind(self, runtime: "EngineCore") -> None:
        """Attach the owning runtime (called once, from the constructor)."""
        self.runtime = runtime

    def setup(self, network: Optional[Entity], broadcast: Iterable[Any] = ()) -> None:
        """Acquire long-lived resources for ``network`` (warm lifecycle)."""

    def teardown(self) -> None:
        """Release resources acquired by :meth:`setup` (must be idempotent)."""

    def begin_run(
        self, network: Entity, inputs: Sequence[Record], timeout: Optional[float]
    ) -> Entity:
        """Acquire per-run resources; return the network the core compiles.

        The returned entity is usually ``network`` itself; transports that
        need to restructure the graph (the distributed engine wraps fully
        unplaced networks in a default partition) may return a wrapper.
        """
        return network

    def end_run(self) -> None:
        """Release per-run resources (called from ``finally``; idempotent)."""

    # -- compilation seam ----------------------------------------------------
    def compile_entity(self, entity: Entity, out: PortWriter) -> Optional[Port]:
        """Claim ``entity`` for transport-side execution.

        Return the :class:`Port` that receives the entity's input when the
        transport runs it (it then owns ``out``); ``None`` lets the core
        compile it with the default scheme.  Ports are built on the
        current run's :attr:`EngineCore.scheduler`.
        """
        return None

    def compile_split_instance(
        self, entity: IndexSplit, value: int, out: PortWriter
    ) -> Optional[Port]:
        """Claim one lazily created replica of an index split.

        Called by the split's port each time a new tag value appears;
        returning a port means the transport runs the replica (the
        distributed engine does this for placed ``!@`` splits), ``None``
        compiles it in-process.
        """
        return None

    def claims_entity(self, entity: Entity) -> bool:
        """Would :meth:`compile_entity` claim ``entity`` right now?

        A side-effect-free query used by the linearization pass: an entity
        the transport intends to execute itself (a pool-offloaded box, a
        placement partition) must never be folded into a fused chain, or
        the fusion would silently disable the offload.  Must be consistent
        with :meth:`compile_entity` for the current run's resources.
        """
        return False

    def poll(self) -> List[Tuple[Port, Callable[[Any], None], Any]]:
        """Take the landed results without blocking, as ``(port, fn, arg)``
        steps; called at every turn end.  Raise to fail the run."""
        return []

    def wait(self, timeout: Optional[float]) -> bool:
        """Sleep, at most ``timeout`` seconds, until :meth:`poll` has work;
        ``False`` (at once) when nothing is outstanding.  Raise to fail the
        run."""
        return False

    # -- accounting ----------------------------------------------------------
    @property
    def bytes_pickled(self) -> int:
        """Bytes this transport serialized across process boundaries."""
        return 0


class InlineTransport(Transport):
    """The trivial transport: every entity is a port on the scheduler.

    Records travel by reference between ports, so nothing is ever
    serialized and there are no resources to acquire or keep warm.
    """

    name = "inline"


class EngineCore:
    """Execute an S-Net network as a graph of ports on one scheduler.

    The core compiles an entity graph into :class:`Port` step functions
    that one :class:`RunScheduler` drives on the calling thread:

    * every primitive entity (box, filter, synchrocell, fused chain) becomes
      one port that applies the entity to each record and pushes the
      results to its output port; untraced, the identity filter ``[]``
      becomes no port at all, its input writer being its output;
    * serial composition wires the left operand's output to the right
      operand's input port;
    * parallel composition becomes a routing port that sends each record to
      the best-matching branch; both branches write into the same output
      port, which gives the nondeterministic in-arrival-order merge of the
      paper;
    * serial replication (star) is a chain of level routers, one more
      unrolled each time a record reaches the deepest level;
    * parallel replication (index split) becomes a routing port that
      lazily instantiates one replica per observed tag value.

    Before compiling any entity the core offers it to the
    :class:`Transport`, which may claim it for out-of-process execution
    (pool-offloaded boxes, placement partitions); unclaimed entities run on
    the scheduler regardless of the backend, so stateful primitives behave
    identically everywhere.

    Parameters
    ----------
    tracer:
        Optional :class:`Tracer` receiving runtime events.
    transport:
        The record-moving substrate; defaults to :class:`InlineTransport`.
    check:
        Static-analysis mode applied to every network before its first
        record flows (``repro.snet.analysis.analyze_network``, run once per
        network at :meth:`setup`/:meth:`run` time and cached — zero
        per-record overhead).  ``"warn"`` (default) emits a
        :class:`RuntimeWarning` for error-severity findings, ``"error"``
        raises :class:`~repro.snet.errors.NetworkError`, ``"off"`` skips
        analysis entirely.  An analyzer *crash* never blocks execution
        (fail-open with a warning).
    fuse:
        Sequential-chain linearization mode (see
        :mod:`repro.snet.runtime.linearize`).  ``"auto"`` (default)
        collapses purely sequential runs of pure primitives into single
        fused ports whenever that is provably transparent: tracing must
        be disabled (fusion elides the interior per-record trace events)
        and the static analyzer must report the network error-free (the
        fail-safe direction — no report, no fusion).  ``"off"`` disables
        the pass.  Fusion never crosses a combinator, synchrocell,
        placement boundary or transport-claimed entity, so the output
        record multiset is identical on every backend;
        :attr:`fused_chains` reports how many chains the last run
        collapsed.

    Runtime instances are **reusable**: :meth:`run` resets all per-run state
    (scheduler, collected errors, counters) on entry, so a long-lived
    service can execute many jobs on one runtime object.  The warm
    lifecycle — :meth:`setup`, :meth:`teardown`, :attr:`is_warm`, and the
    context-manager protocol — is owned here and delegates resource
    decisions to the transport::

        runtime.setup(network)            # no-op inline, forks a pool etc.
        try:
            for job_inputs in jobs:
                outputs = runtime.run(network, job_inputs)
        finally:
            runtime.teardown()
    """

    #: valid values of the ``check`` knob
    CHECK_MODES = ("warn", "error", "off")
    #: valid values of the ``fuse`` knob
    FUSE_MODES = ("auto", "off")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        transport: Optional[Transport] = None,
        check: str = "warn",
        fuse: str = "auto",
    ):
        if check not in self.CHECK_MODES:
            raise RuntimeError_(
                f"check must be one of {self.CHECK_MODES}, got {check!r}"
            )
        if fuse not in self.FUSE_MODES:
            raise RuntimeError_(
                f"fuse must be one of {self.FUSE_MODES}, got {fuse!r}"
            )
        self.tracer = tracer or NullTracer()
        self.transport = transport or InlineTransport()
        self.transport.bind(self)
        self.check = check
        self.fuse = fuse
        #: number of fused chains the most recent :meth:`run` created
        self.fused_chains = 0
        #: scheduler steps (records and end-of-stream signals moved between
        #: ports) of the most recent :meth:`run`
        self.steps = 0
        #: the scheduler of the run in progress (``None`` between runs)
        self.scheduler: Optional[RunScheduler] = None
        #: cluster size for placement checks; the distributed runtime sets it
        self.check_nodes: Optional[int] = None
        self._check_cache: "weakref.WeakKeyDictionary[Entity, Any]" = (
            weakref.WeakKeyDictionary()
        )
        self.errors: List[BaseException] = []
        self._warm = False

    # -- static validation ---------------------------------------------------
    def _validate_network(self, network: Optional[Entity]) -> None:
        """Statically analyze ``network`` according to the ``check`` mode.

        Runs once per network object (keyed weakly on the *pre-copy* entity
        the caller passed in) so warm services validating the same network
        on every job pay the analysis cost only on the first one.
        """
        if network is None or self.check == "off":
            return
        report = None
        cached = False
        try:
            report = self._check_cache.get(network)
            cached = report is not None
        except TypeError:  # unhashable/unweakrefable entity: just reanalyze
            pass
        if report is None:
            try:
                from repro.snet.analysis import analyze_network

                report = analyze_network(network, nodes=self.check_nodes)
            except Exception as exc:
                # the analyzer must never block execution: fail open
                warnings.warn(
                    f"static network check skipped: analyzer failed ({exc!r})",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return
            try:
                self._check_cache[network] = report
            except TypeError:
                pass
        if not report.errors:
            return
        findings = "\n".join(d.format() for d in report.errors)
        if self.check == "error":
            raise NetworkError(
                f"network {getattr(network, 'name', '<unnamed>')!r} failed "
                f"static analysis with {len(report.errors)} error(s) "
                "(pass check='warn' or check='off' to run anyway):\n"
                + findings
            )
        if not cached:  # warn once per network, not once per job
            warnings.warn(
                f"static analysis found {len(report.errors)} error(s) in "
                f"network {getattr(network, 'name', '<unnamed>')!r}:\n"
                + findings,
                RuntimeWarning,
                stacklevel=3,
            )

    def _fusion_safe(self, network: Optional[Entity]) -> bool:
        """May the linearization pass rewrite ``network``?

        Fusion requires positive proof of safety from the static analyzer:
        the network's dataflow report must exist and be error-free.  The
        fail-safe direction is the opposite of :meth:`_validate_network`'s
        fail-open — if the analyzer is unavailable or crashes we *skip the
        optimization* rather than the check.  With the default
        ``check="warn"`` the report is already cached by the time this
        runs, so the common case is a dictionary lookup.
        """
        if network is None:
            return False
        report = None
        try:
            report = self._check_cache.get(network)
        except TypeError:
            pass
        if report is None:
            try:
                from repro.snet.analysis import analyze_network

                report = analyze_network(network, nodes=self.check_nodes)
            except Exception:
                return False
            try:
                self._check_cache[network] = report
            except TypeError:
                pass
        return not report.errors

    # -- platform capabilities -----------------------------------------------
    @staticmethod
    def fork_available() -> bool:
        """Whether this platform supports the ``fork`` start method.

        Every transport that runs real OS processes (pool, partition links)
        relies on fork inheritance for its registries; transports consult
        this through the *runtime* (``self.runtime.fork_available()``) so
        tests can monkeypatch the capability per runtime class.
        """
        return "fork" in multiprocessing.get_all_start_methods()

    # -- data-plane accounting ----------------------------------------------
    @property
    def bytes_pickled(self) -> int:
        """Bytes serialized across a process boundary during the last run.

        Kept on the core so callers can read the data-plane cost of any
        executing backend uniformly; the inline transport always reports 0
        because records travel by reference on in-process streams.
        """
        return self.transport.bytes_pickled

    # -- warm lifecycle ------------------------------------------------------
    def setup(self, network: Optional[Entity], broadcast: Iterable[Any] = ()) -> "EngineCore":
        """Acquire long-lived execution resources for ``network``.

        What (if anything) gets acquired is the transport's decision: the
        inline transport owns nothing worth keeping warm, the pool transport
        registers boxes/broadcast payloads and forks its pool once, the
        partition transport forks its node workers once.  Returns ``self``
        so call sites can chain ``get_runtime(...).setup(...)``.

        A transport failing halfway through ``setup`` must not leak what it
        already acquired (fork-shared registry entries, ``/dev/shm``
        broadcast segments, half-forked workers): the core tears the
        transport down unconditionally before re-raising, which is why
        :meth:`Transport.teardown` is required to be idempotent.
        """
        self._validate_network(network)
        try:
            self.transport.setup(network, broadcast)
        except BaseException:
            self.transport.teardown()
            raise
        self._warm = True
        return self

    def teardown(self) -> None:
        """Release resources acquired by :meth:`setup` (idempotent)."""
        self._warm = False
        self.transport.teardown()

    @property
    def is_warm(self) -> bool:
        """Whether :meth:`setup` has been called without a matching :meth:`teardown`."""
        return self._warm

    def __enter__(self) -> "EngineCore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.teardown()

    def _reset_run_state(self) -> None:
        """Forget the previous run's errors and counters."""
        self.errors = []
        self.fused_chains = 0
        self.steps = 0

    def observability(self) -> Dict[str, Any]:
        """Counters of the most recent run as a JSON-friendly dict."""
        return {
            "transport": self.transport.name,
            "steps": self.steps,
            "fused_chains": self.fused_chains,
            "bytes_pickled": self.bytes_pickled,
        }

    def _record_error(self, exc: BaseException, source: str = "transport") -> None:
        """Collect an error (failing ports and transports report here)."""
        self.errors.append(exc)
        self.tracer.record(source, "worker-error", error=repr(exc))

    # -- compilation ----------------------------------------------------------
    def compile(self, entity: Entity, out: PortWriter) -> "Port | _Forward":
        """Compile ``entity`` writing to ``out``; returns its input port."""
        port = self.transport.compile_entity(entity, out)
        if port is not None:
            return port
        if isinstance(entity, Filter) and not entity.rules and not self.tracer.enabled:
            return _Forward(out)
        if isinstance(entity, PrimitiveEntity):
            return _PrimitivePort(self, entity, out)
        if isinstance(entity, Serial):
            right = self.compile(entity.right, out)
            return self.compile(entity.left, right.open_writer())
        if isinstance(entity, Parallel):
            return _ParallelPort(self, entity, out)
        if isinstance(entity, Star):
            chain = _StarChain(entity, self.tracer.enabled)
            self.scheduler.stars.append(chain)
            return _StarLevel(self, chain, out)
        if isinstance(entity, IndexSplit):
            return _SplitPort(self, entity, out)
        if isinstance(entity, (Network, StaticPlacement)):
            inner = entity.body if isinstance(entity, Network) else entity.operand
            return self.compile(inner, out)
        raise RuntimeError_(f"cannot compile entity {entity!r}")

    # -- running -------------------------------------------------------------
    def run(
        self,
        network: Entity,
        inputs: Sequence[Record],
        fresh: bool = True,
        timeout: Optional[float] = 60.0,
    ) -> List[Record]:
        """Execute ``network`` on a finite input stream and return all outputs.

        The inputs are pushed into the compiled graph and the scheduler runs
        it to completion on the calling thread.

        ``timeout`` is a *wall-clock deadline for the whole run*, checked
        between steps: an entity that blocks is not pre-empted, but the run
        ends at the first step boundary past the deadline.  ``None``
        disables the deadline.

        ``run`` may be called repeatedly on the same runtime instance; each
        call starts from a clean per-run state (fresh scheduler, no
        carried-over errors from an earlier failed run).  Transport
        resources are acquired before compilation (so forked workers inherit
        every registration) and released in ``finally``.
        """
        self._reset_run_state()
        # analyze the caller's network object (pre-copy) so the result is
        # cached across jobs on warm runtimes
        self._validate_network(network)
        target = network.copy() if fresh else network
        sched = self.scheduler = RunScheduler(self)
        try:
            target = self.transport.begin_run(target, inputs, timeout)
            # linearize after begin_run so the transport's claims reflect
            # this run's actual resources (pool forked or degraded, links
            # up or absent); only a fresh private copy may be rewritten
            if (
                fresh
                and self.fuse == "auto"
                and isinstance(self.tracer, NullTracer)
                and self._fusion_safe(network)
            ):
                target, self.fused_chains = linearize(
                    target, self.transport.claims_entity
                )
            collector = _Collector(sched)
            entry = self.compile(target, collector.open_writer()).open_writer()
            for rec in inputs:
                entry.push(rec)
            entry.close()

            deadline = None if timeout is None else time.monotonic() + timeout
            finished = sched.run(collector, deadline)
            if not finished and not self.errors:
                raise RuntimeError_(
                    f"run timed out after {timeout}s with the network still "
                    "running"
                )
            if self.errors:
                raise RuntimeError_(
                    f"{len(self.errors)} worker(s) failed: {self.errors[0]!r}"
                ) from self.errors[0]
            return collector.records
        finally:
            self.steps = sched.steps
            # a chain and its levels reference each other: break the cycle
            # so the finished graph and its records go at once
            for chain in sched.stars:
                chain.levels.clear()
            self.scheduler = None
            self.transport.end_run()
