"""The transport-agnostic execution core shared by every executing runtime.

:class:`EngineCore` runs an S-Net network as a graph of *ports*, one per
entity instance, that one run-to-completion
:class:`~repro.snet.runtime.scheduler.RunScheduler` drives on the thread
that called :meth:`EngineCore.run`.  A network object is compiled once to
its :class:`~repro.snet.runtime.plan.Plan` (analysis, fusable runs, star
facts, placement roots); each run instantiates the ports of
:mod:`repro.snet.runtime.ports` from the caller's entities and that plan,
copying only synchrocells.  What differs between backends sits behind the
:class:`Transport` seam:

=============  =======================================================
runtime        transport
=============  =======================================================
threaded       :class:`InlineTransport` — every entity is a port on the
               scheduler; records travel by reference.
process        ``LinkTransport``, pool policy (``PoolTransport``) —
               ``parallel_safe`` boxes run on forked workers over pipe
               links that the scheduler reads itself
               (:meth:`Transport.poll`, :meth:`Transport.wait`).
distributed    ``LinkTransport``, partition policy
               (``PartitionTransport``) — placement partitions
               (``A @ num``, ``A !@ <tag>``) run on the same workers,
               links and read/wait loop.
=============  =======================================================

The core owns the engine invariants, so they hold on every backend:
**drain-on-error** (a failing port closes its outputs and drops the rest
of its input, so the run fails promptly with the collected exception),
the **wall-clock deadline** ``timeout`` (checked between steps), the
**warm lifecycle** (``setup()``/``teardown()``/``is_warm``, the transport
deciding what is worth keeping warm) and **accounting**
(:attr:`EngineCore.bytes_pickled`, :meth:`EngineCore.observability`).

A minimal custom transport only needs to override the hooks it cares
about:

>>> class CountingTransport(InlineTransport):
...     name = "counting"
...     def begin_run(self, network, inputs, timeout):
...         self.runs = getattr(self, "runs", 0) + 1
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
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.snet.base import Entity, PrimitiveEntity
from repro.snet.boxes import Box
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.errors import RuntimeError_
from repro.snet.filters import Filter
from repro.snet.network import Network
from repro.snet.placement import StaticPlacement
from repro.snet.records import Record
from repro.snet.runtime.plan import FusedChain, Plan, plan_of
from repro.snet.runtime.ports import (
    Port,
    PortWriter,
    _Collector,
    _Forward,
    _ParallelPort,
    _PrimitivePort,
    _SplitPort,
    _StarChain,
    _StarLevel,
)
from repro.snet.runtime.scheduler import RunScheduler
from repro.snet.runtime.tracing import NullTracer, Tracer

__all__ = [
    "EngineCore",
    "Transport",
    "InlineTransport",
    "Port",
    "PortWriter",
    "RunScheduler",
]


class Transport:
    """The seam between the execution core and a record-moving substrate.

    A transport owns whatever lives outside the scheduler — a process pool,
    partition worker processes, nothing at all — and claims the entities
    it executes itself.  All hooks have safe no-op defaults.

    Lifecycle: :meth:`bind` once, from the runtime's constructor; per run
    :meth:`begin_run` before the core instantiates the network and
    :meth:`end_run` after it (also on error).  The warm split
    (:meth:`setup`/:meth:`teardown`) brackets many runs, which then only
    activate and deactivate the persistent resources.
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
    ) -> None:
        """Acquire per-run resources for ``network``, which the core then
        instantiates unchanged."""

    def end_run(self) -> None:
        """Release per-run resources (called from ``finally``; idempotent)."""

    # -- compilation seam ----------------------------------------------------
    def compile_entity(self, entity: Entity, out: PortWriter) -> Optional[Port]:
        """Claim ``entity``: return the :class:`Port` (on the run's
        :attr:`EngineCore.scheduler`) that takes its input and owns ``out``,
        or ``None`` to let the core instantiate it."""
        return None

    def compile_split_instance(
        self, entity: IndexSplit, value: int, out: PortWriter
    ) -> Optional[Port]:
        """Claim the replica of an index split for a new tag ``value`` (a
        placed ``!@`` split's, on node ``value``), or ``None``."""
        return None

    def claims_entity(self, entity: Entity) -> bool:
        """Would :meth:`compile_entity` claim ``entity`` in this run?  The
        side-effect-free query of the fusion pass, which must never fold a
        claimed entity (an offloaded box, a partition) into a fused chain."""
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
    """The trivial transport: every entity is a port on the scheduler,
    records travel by reference, and nothing is worth keeping warm."""

    name = "inline"


class EngineCore:
    """Execute an S-Net network as a graph of ports on one scheduler.

    A run instantiates the network straight from the caller's entities:
    a primitive becomes one port (boxes and filters shared, each
    synchrocell instance a fresh copy, a ``[]`` filter a plain wire), a
    serial composition wires its operands, a parallel composition a
    routing port whose branches merge into one output port, a star a
    chain of level routers unrolled on demand, an index split a routing
    port with one replica per observed tag value.  The :class:`Transport`
    gets first claim on every entity (pool-offloaded boxes, placement
    partitions); the rest run on the scheduler on every backend, so
    stateful primitives behave identically everywhere.

    Parameters
    ----------
    tracer:
        Optional :class:`Tracer` receiving runtime events.
    transport:
        The record-moving substrate; defaults to :class:`InlineTransport`.
    check:
        How the static analysis in the network's plan is reported (run
        once per network object — zero per-record overhead): ``"warn"``
        (default) warns of error-severity findings, ``"error"`` raises
        :class:`~repro.snet.errors.NetworkError`, ``"off"`` stays silent.
        An analyzer *crash* never blocks execution (fail-open).
    fuse:
        ``"auto"`` (default) runs each run of unclaimed boxes and filters
        in a serial spine in one fused port (:meth:`Plan.fuse
        <repro.snet.runtime.plan.Plan.fuse>`) when the analyzer reports
        the network error-free; ``"off"`` disables it.  The output record
        multiset is the same either way; :attr:`fused_chains` counts the
        fused runs of the last run.

    Runtime instances are **reusable**: :meth:`run` resets all per-run
    state on entry, and the warm lifecycle (:meth:`setup`,
    :meth:`teardown`, :attr:`is_warm`, ``with``) brackets many runs::

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
            raise RuntimeError_(f"check must be one of {self.CHECK_MODES}, got {check!r}")
        if fuse not in self.FUSE_MODES:
            raise RuntimeError_(f"fuse must be one of {self.FUSE_MODES}, got {fuse!r}")
        self.tracer = tracer or NullTracer()
        self.transport = transport or InlineTransport()
        self.transport.bind(self)
        self.check = check
        self.fuse = fuse
        #: number of fused chains the most recent :meth:`run` created
        self.fused_chains = 0
        #: scheduler steps (records and end-of-streams) of the last :meth:`run`
        self.steps = 0
        #: the scheduler of the run in progress (``None`` between runs)
        self.scheduler: Optional[RunScheduler] = None
        #: the plan of the run in progress (``None`` between runs)
        self.plan: Optional[Plan] = None
        #: this run's fused spines: id of a serial -> its stages
        self._fused: Dict[int, Tuple[Entity, ...]] = {}
        #: cluster size for placement checks; the distributed runtime sets it
        self.check_nodes: Optional[int] = None
        self.errors: List[BaseException] = []
        self._warm = False

    # -- platform capabilities -----------------------------------------------
    @staticmethod
    def fork_available() -> bool:
        """Whether this platform supports the ``fork`` start method (asked
        through the runtime, so tests can patch it per runtime class)."""
        return "fork" in multiprocessing.get_all_start_methods()

    # -- data-plane accounting ----------------------------------------------
    @property
    def bytes_pickled(self) -> int:
        """Bytes serialized across a process boundary during the last run
        (0 inline, where records travel by reference)."""
        return self.transport.bytes_pickled

    # -- warm lifecycle ------------------------------------------------------
    def setup(self, network: Optional[Entity], broadcast: Iterable[Any] = ()) -> "EngineCore":
        """Acquire long-lived execution resources for ``network``; returns
        ``self``.

        What gets acquired is the transport's decision (the pool forks its
        workers once, the partition transport its nodes).  A transport
        failing halfway is torn down before the error propagates, so
        nothing it acquired leaks: :meth:`Transport.teardown` must be
        idempotent.
        """
        if network is not None:
            plan_of(network, self.check_nodes, self.check)
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

    # -- instantiation --------------------------------------------------------
    def compile(self, entity: Entity, out: PortWriter) -> "Port | _Forward":
        """Instantiate ``entity`` writing to ``out``; returns its input port."""
        port = self.transport.compile_entity(entity, out)
        if port is not None:
            return port
        if isinstance(entity, PrimitiveEntity):
            if isinstance(entity, Filter) and not entity.rules:
                return _Forward(out)
            if not isinstance(entity, (Box, Filter, FusedChain)):
                # a synchrocell (or a primitive of unknown kind) has state:
                # each instance gets its own
                template, entity = entity, entity.copy()
                cells = self.scheduler.cells
                if cells is not None:
                    cells[id(template)] = entity
            return _PrimitivePort(self, entity, out)
        if isinstance(entity, Serial):
            stages = self._fused.get(id(entity)) or entity.children()
            port = self.compile(stages[-1], out)
            for stage in reversed(stages[:-1]):
                port = self.compile(stage, port.open_writer())
            return port
        if isinstance(entity, Parallel):
            return _ParallelPort(self, entity, out)
        if isinstance(entity, Star):
            chain = _StarChain(entity, self.plan.stars[id(entity)])
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
        timeout: Optional[float] = 60.0,
    ) -> List[Record]:
        """Execute ``network`` on a finite input stream and return all outputs.

        The network's plan is instantiated from the caller's entities (the
        network is never copied or changed), the inputs are pushed in and
        the scheduler runs it to completion on the calling thread, from a
        clean per-run state.  ``timeout`` is a *wall-clock deadline for the
        whole run*, checked between steps (``None``: no deadline).
        Transport resources are acquired before instantiation, so forked
        workers inherit every registration, and released in ``finally``.
        """
        self._reset_run_state()
        plan = self.plan = plan_of(network, self.check_nodes, self.check)
        sched = self.scheduler = RunScheduler(self)
        try:
            # fuse after begin_run, so the transport's claims reflect this
            # run's actual resources (pool forked or degraded, links up or
            # absent)
            self.transport.begin_run(network, inputs, timeout)
            claims = self.transport.claims_entity
            if self.fuse == "auto" and plan.fusable and not claims(network):
                tracer = self.tracer if self.tracer.enabled else None
                self._fused, self.fused_chains = plan.fuse(claims, tracer)
            collector = _Collector(sched)
            entry = self.compile(network, collector.open_writer()).open_writer()
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
            self.scheduler = self.plan = None
            self._fused = {}
            self.transport.end_run()
