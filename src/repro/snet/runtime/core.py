"""The transport-agnostic execution core shared by every executing runtime.

Three generations of runtimes (the PR 1 process pool, the PR 3 zero-copy
data plane, the PR 4 warm lifecycle) grew the same engine logic in two
places — :class:`~repro.snet.runtime.engine.ThreadedRuntime` and
:class:`~repro.snet.runtime.process_engine.ProcessRuntime` each carried
their own copy of network compilation, drain-on-error shutdown, the
wall-clock run deadline and the warm ``setup()``/``teardown()`` split.
This module hoists all of it into one :class:`EngineCore` and isolates what
actually differs between backends behind an explicit :class:`Transport`
seam:

=============  =======================================================
runtime        transport
=============  =======================================================
threaded       :class:`InlineTransport` — records stay on in-memory
               streams; every primitive executes in a parent thread.
process        ``PoolTransport`` — ``parallel_safe`` box invocations are
               serialized (protocol 5, out-of-band buffers) onto a
               forked worker pool; everything else runs inline.
distributed    ``PartitionTransport`` — whole placement partitions
               (``A @ num``, ``A !@ <tag>``) execute in real worker
               processes; records cross partitions over pipe links.
=============  =======================================================

The core owns the engine invariants, so they hold identically on every
backend:

* **compilation** — one worker per primitive entity, dispatchers for the
  dynamic combinators, lazily unrolled stars and index splits;
* **drain-on-error** — a dying worker closes its writers first, then
  drains its input (:func:`drain_stream`), so the run fails promptly
  instead of hanging until the harness timeout;
* **wall-clock deadline** — ``timeout`` bounds the whole run, not each
  output record;
* **warm lifecycle** — ``setup()``/``teardown()``/``is_warm`` and the
  context-manager protocol, with the transport deciding what (if
  anything) is worth keeping warm;
* **data-plane accounting** — :attr:`EngineCore.bytes_pickled` uniformly
  reports the bytes the transport serialized across process boundaries
  (0 for the inline transport).

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
import threading
import time
import warnings
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.snet.base import Entity, PrimitiveEntity
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.errors import NetworkError, RuntimeError_
from repro.snet.network import Network
from repro.snet.placement import StaticPlacement
from repro.snet.records import Record
from repro.snet.runtime.stream import Stream, StreamWriter
from repro.snet.runtime.tracing import NullTracer, Tracer

__all__ = [
    "EngineCore",
    "Transport",
    "InlineTransport",
    "drain_stream",
    "worker_scope",
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


def drain_stream(stream: Stream) -> None:
    """Consume and discard everything remaining on ``stream`` until EOS.

    Workers call this when they die on an error: abandoning the input stream
    would leave upstream producers blocked on back-pressure forever, so the
    whole run would only fail once the harness timeout fires.  Draining lets
    every upstream worker finish normally and the run fail promptly with the
    collected exception.
    """
    while stream.get() is not None:
        pass


@contextmanager
def worker_scope(
    in_stream: Stream, writers: Callable[[], Iterable[StreamWriter]]
) -> Iterator[None]:
    """Shutdown contract shared by every runtime worker.

    On normal exit the worker's output writers are closed.  On error they are
    closed *first* (so downstream sees EOS immediately), then the input
    stream is drained (see :func:`drain_stream`), then the error propagates
    to the runtime's collector.  ``writers`` is a callable because dynamic
    dispatchers (star, index split) open writers while running.
    """

    def close_all() -> None:
        for writer in writers():
            writer.close()

    try:
        yield
    except BaseException:
        close_all()
        drain_stream(in_stream)
        raise
    finally:
        close_all()


class Transport:
    """The seam between the execution core and a record-moving substrate.

    A transport owns whatever lives outside the parent's worker threads —
    a process pool, partition worker processes, nothing at all — and tells
    the core which parts of the entity graph it wants to execute itself.
    All hooks have safe no-op defaults; see :class:`InlineTransport` for
    the trivial instance and the process/distributed engines for real ones.

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
    def compile_entity(
        self, entity: Entity, in_stream: Stream, out_writer: StreamWriter
    ) -> bool:
        """Claim ``entity`` for transport-side execution.

        Return ``True`` when the transport compiled the entity itself (it
        then owns ``out_writer``); ``False`` lets the core compile it with
        the default in-process scheme.
        """
        return False

    def compile_split_instance(
        self, entity: IndexSplit, value: int, inst_in: Stream, out_writer: StreamWriter
    ) -> bool:
        """Claim one lazily created replica of an index split.

        Called by the split dispatcher each time a new tag value appears;
        returning ``True`` means the transport runs the replica (the
        distributed engine does this for placed ``!@`` splits), ``False``
        compiles it in-process.
        """
        return False

    def claims_entity(self, entity: Entity) -> bool:
        """Would :meth:`compile_entity` claim ``entity`` right now?

        A side-effect-free query used by the linearization pass: an entity
        the transport intends to execute itself (a pool-offloaded box, a
        placement partition) must never be folded into a fused chain, or
        the fusion would silently disable the offload.  Must be consistent
        with :meth:`compile_entity` for the current run's resources.
        """
        return False

    # -- accounting ----------------------------------------------------------
    @property
    def bytes_pickled(self) -> int:
        """Bytes this transport serialized across process boundaries."""
        return 0


class InlineTransport(Transport):
    """The trivial transport: everything executes in parent threads.

    In-memory :class:`Stream` objects *are* the data plane, so nothing is
    ever serialized and there are no resources to acquire or keep warm.
    """

    name = "inline"


class EngineCore:
    """Execute an S-Net network with one thread per runtime component.

    The core compiles an entity graph into a network of worker threads
    connected by :class:`~repro.snet.runtime.stream.Stream` objects:

    * every primitive entity (box, filter, synchrocell) becomes one worker
      that repeatedly takes a record from its input stream, applies the
      entity and writes the results to its output stream;
    * serial composition allocates an intermediate stream;
    * parallel composition becomes a dispatcher worker that routes records
      by best type match; both branches write into the same output stream,
      which gives the nondeterministic in-arrival-order merge of the paper;
    * serial replication (star) spawns one *router* per unrolling level;
    * parallel replication (index split) becomes a dispatcher that lazily
      instantiates one replica pipeline per observed tag value.

    Before compiling any entity the core offers it to the
    :class:`Transport`, which may claim it for out-of-process execution
    (pool-offloaded boxes, placement partitions); unclaimed entities run in
    parent threads regardless of the backend, so stateful primitives behave
    identically everywhere.

    Parameters
    ----------
    tracer:
        Optional :class:`Tracer` receiving runtime events.
    stream_capacity:
        Bound of every internal stream (provides back-pressure/throttling).
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
        fused workers whenever that is provably transparent: tracing must
        be disabled (fusion elides the interior per-record trace events)
        and the static analyzer must report the network error-free (the
        fail-safe direction — no report, no fusion).  ``"off"`` disables
        the pass.  Fusion never crosses a combinator, synchrocell,
        placement boundary or transport-claimed entity, so the output
        record multiset is identical on every backend;
        :attr:`fused_chains` reports how many chains the last run
        collapsed.

    Runtime instances are **reusable**: :meth:`run` resets all per-run state
    (worker bookkeeping, collected errors) on entry, so a long-lived service
    can execute many jobs on one runtime object.  The warm lifecycle —
    :meth:`setup`, :meth:`teardown`, :attr:`is_warm`, and the context-manager
    protocol — is owned here and delegates resource decisions to the
    transport::

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
        stream_capacity: int = 256,
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
        self.stream_capacity = stream_capacity
        self.transport = transport or InlineTransport()
        self.transport.bind(self)
        self.check = check
        self.fuse = fuse
        #: number of fused chains the most recent :meth:`run` created
        self.fused_chains = 0
        #: cluster size for placement checks; the distributed runtime sets it
        self.check_nodes: Optional[int] = None
        self._check_cache: "weakref.WeakKeyDictionary[Entity, Any]" = (
            weakref.WeakKeyDictionary()
        )
        self._threads: List[threading.Thread] = []
        self._pending: List[Callable[[], None]] = []
        self._started = False
        self._lock = threading.Lock()
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
        """Forget the previous run's workers and errors (start of every run)."""
        with self._lock:
            self._threads = []
            self._pending = []
            self._started = False
            self.errors = []
            self.fused_chains = 0

    # -- thread management -------------------------------------------------
    def _record_error(self, exc: BaseException, source: str = "transport") -> None:
        """Collect an asynchronous error (transport links report through this)."""
        with self._lock:
            self.errors.append(exc)
        self.tracer.record(source, "worker-error", error=repr(exc))

    def _spawn(self, fn: Callable[[], None], name: str) -> None:
        def guarded() -> None:
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - collected for reporting
                self._record_error(exc, source=name)

        with self._lock:
            if not self._started:
                self._pending.append(lambda: self._start_thread(guarded, name))
                return
        self._start_thread(guarded, name)

    def _start_thread(self, fn: Callable[[], None], name: str) -> None:
        thread = threading.Thread(target=fn, name=name, daemon=True)
        with self._lock:
            self._threads.append(thread)
        thread.start()

    def _new_stream(self, name: str) -> Stream:
        return Stream(name=name, capacity=self.stream_capacity)

    # -- compilation ----------------------------------------------------------
    def compile(self, entity: Entity, in_stream: Stream, out_writer: StreamWriter) -> None:
        """Compile ``entity`` reading ``in_stream`` and owning ``out_writer``."""
        if self.transport.compile_entity(entity, in_stream, out_writer):
            return
        if isinstance(entity, PrimitiveEntity):
            self._compile_primitive(entity, in_stream, out_writer)
        elif isinstance(entity, Serial):
            self._compile_serial(entity, in_stream, out_writer)
        elif isinstance(entity, Parallel):
            self._compile_parallel(entity, in_stream, out_writer)
        elif isinstance(entity, Star):
            self._compile_star(entity, in_stream, out_writer)
        elif isinstance(entity, IndexSplit):
            self._compile_split(entity, in_stream, out_writer)
        elif isinstance(entity, (Network, StaticPlacement)):
            inner = entity.body if isinstance(entity, Network) else entity.operand
            self.compile(inner, in_stream, out_writer)
        else:
            raise RuntimeError_(f"cannot compile entity {entity!r}")

    def _compile_primitive(
        self, entity: PrimitiveEntity, in_stream: Stream, out_writer: StreamWriter
    ) -> None:
        tracer = self.tracer
        traced = getattr(tracer, "enabled", True)

        def worker() -> None:
            with worker_scope(in_stream, lambda: (out_writer,)):
                while True:
                    rec = in_stream.get()
                    if rec is None:
                        break
                    if traced:
                        tracer.record(entity.name, "consume", record=repr(rec))
                    for produced in entity.process(rec):
                        if traced:
                            tracer.record(entity.name, "produce", record=repr(produced))
                        out_writer.put(produced)
                for produced in entity.flush():
                    if traced:
                        tracer.record(entity.name, "produce", record=repr(produced))
                    out_writer.put(produced)

        self._spawn(worker, f"worker-{entity.name}-{entity.entity_id}")

    def _compile_serial(
        self, entity: Serial, in_stream: Stream, out_writer: StreamWriter
    ) -> None:
        mid = self._new_stream(f"{entity.name}-mid")
        self.compile(entity.left, in_stream, mid.open_writer())
        self.compile(entity.right, mid, out_writer)

    def _compile_parallel(
        self, entity: Parallel, in_stream: Stream, out_writer: StreamWriter
    ) -> None:
        branch_streams: List[Stream] = []
        branch_writers: List[StreamWriter] = []
        for branch in entity.branches:
            branch_in = self._new_stream(f"{entity.name}-{branch.name}-in")
            branch_streams.append(branch_in)
            branch_writers.append(branch_in.open_writer())
            self.compile(branch, branch_in, out_writer.dup())

        tracer = self.tracer
        # route() returns one of entity.branches; resolve it to a writer by
        # identity instead of an O(branches) list search per record
        writer_of = {id(b): w for b, w in zip(entity.branches, branch_writers)}

        def dispatcher() -> None:
            with worker_scope(in_stream, lambda: (*branch_writers, out_writer)):
                while True:
                    rec = in_stream.get()
                    if rec is None:
                        break
                    branch = entity.route(rec)
                    tracer.record(entity.name, "route", branch=branch.name)
                    writer_of[id(branch)].put(rec)

        self._spawn(dispatcher, f"dispatch-{entity.name}-{entity.entity_id}")

    def _compile_star(
        self, entity: Star, in_stream: Stream, out_writer: StreamWriter
    ) -> None:
        tracer = self.tracer
        runtime = self

        def make_router(level: int, level_in: Stream, writer: StreamWriter) -> Callable[[], None]:
            def router() -> None:
                instance_writer: Optional[StreamWriter] = None

                def open_writers():
                    if instance_writer is not None:
                        return (instance_writer, writer)
                    return (writer,)

                with worker_scope(level_in, open_writers):
                    while True:
                        rec = level_in.get()
                        if rec is None:
                            break
                        if entity.exit_pattern.matches(rec):
                            tracer.record(entity.name, "exit", level=level)
                            writer.put(rec)
                            continue
                        if instance_writer is None:
                            if level >= entity.max_depth:
                                raise RuntimeError_(
                                    f"star {entity.name} exceeded max depth {entity.max_depth}"
                                )
                            tracer.record(entity.name, "unroll", level=level)
                            inst_in = runtime._new_stream(f"{entity.name}-L{level}-in")
                            inst_out = runtime._new_stream(f"{entity.name}-L{level}-out")
                            instance_writer = inst_in.open_writer()
                            runtime.compile(
                                entity.operand.copy(), inst_in, inst_out.open_writer()
                            )
                            runtime._spawn(
                                make_router(level + 1, inst_out, writer.dup()),
                                f"star-{entity.name}-L{level + 1}",
                            )
                        instance_writer.put(rec)

            return router

        self._spawn(make_router(0, in_stream, out_writer), f"star-{entity.name}-L0")

    def _compile_split(
        self, entity: IndexSplit, in_stream: Stream, out_writer: StreamWriter
    ) -> None:
        tracer = self.tracer
        runtime = self
        transport = self.transport

        def dispatcher() -> None:
            instance_writers: Dict[int, StreamWriter] = {}
            with worker_scope(
                in_stream, lambda: (*instance_writers.values(), out_writer)
            ):
                while True:
                    rec = in_stream.get()
                    if rec is None:
                        break
                    if not rec.has_tag(entity.tag):
                        raise RuntimeError_(
                            f"index split {entity.name} requires tag <{entity.tag}> "
                            f"on every record, got {rec!r}"
                        )
                    value = rec.tag(entity.tag)
                    if value not in instance_writers:
                        tracer.record(entity.name, "instantiate", index=value)
                        inst_in = runtime._new_stream(f"{entity.name}-{value}-in")
                        instance_writers[value] = inst_in.open_writer()
                        inst_out = out_writer.dup()
                        # the transport gets first claim on the replica (a
                        # placed !@ split runs it on compute node `value`)
                        if not transport.compile_split_instance(
                            entity, value, inst_in, inst_out
                        ):
                            runtime.compile(
                                entity.operand.copy(), inst_in, inst_out
                            )
                    instance_writers[value].put(rec)

        self._spawn(dispatcher, f"split-{entity.name}-{entity.entity_id}")

    # -- running -------------------------------------------------------------
    def run(
        self,
        network: Entity,
        inputs: Sequence[Record],
        fresh: bool = True,
        timeout: Optional[float] = 60.0,
    ) -> List[Record]:
        """Execute ``network`` on a finite input stream and return all outputs.

        The input records are fed from a dedicated feeder thread while the
        calling thread drains the global output stream, so bounded streams
        cannot deadlock the harness.

        ``timeout`` is a *wall-clock deadline for the whole run*, not a
        per-record patience: every read of the output stream waits at most
        for the time remaining until the deadline.  (It used to be applied
        per output record, so a network trickling one record just under the
        timeout apiece could stall arbitrarily long without ever timing
        out.)  ``None`` disables the deadline.

        ``run`` may be called repeatedly on the same runtime instance; each
        call starts from a clean per-run state (fresh worker bookkeeping, no
        carried-over errors from an earlier failed run).  Transport
        resources are acquired before compilation (so forked workers inherit
        every registration) and released in ``finally``.
        """
        self._reset_run_state()
        # analyze the caller's network object (pre-copy) so the result is
        # cached across jobs on warm runtimes
        self._validate_network(network)
        target = network.copy() if fresh else network
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
                from repro.snet.runtime.linearize import linearize

                target, self.fused_chains = linearize(
                    target, self.transport.claims_entity
                )
            in_stream = self._new_stream("network-in")
            out_stream = self._new_stream("network-out")
            self.compile(target, in_stream, out_stream.open_writer())

            input_writer = in_stream.open_writer()

            def feeder() -> None:
                try:
                    for rec in inputs:
                        input_writer.put(rec)
                finally:
                    input_writer.close()

            self._spawn(feeder, "feeder")

            # start all registered workers
            with self._lock:
                self._started = True
                pending = list(self._pending)
                self._pending.clear()
            for start in pending:
                start()

            deadline = None if timeout is None else time.monotonic() + timeout

            def remaining() -> Optional[float]:
                if deadline is None:
                    return None
                return max(0.0, deadline - time.monotonic())

            outputs: List[Record] = []
            while True:
                try:
                    # already-buffered records are returned even at a spent
                    # deadline; only *waiting* is bounded by the remaining budget
                    rec = out_stream.get(timeout=remaining())
                except RuntimeError_:
                    # drain timed out: a collected worker error explains the
                    # stall better than the generic timeout does
                    if self.errors:
                        break
                    raise
                if rec is None:
                    break
                outputs.append(rec)

            # with a collected error, joining stuck threads for the remaining
            # budget each would delay the report by N_threads x timeout; they
            # are daemons, so give them only a token grace period
            for thread in list(self._threads):
                thread.join(timeout=1.0 if self.errors else remaining())
            if self.errors:
                raise RuntimeError_(
                    f"{len(self.errors)} worker(s) failed: {self.errors[0]!r}"
                ) from self.errors[0]
            return outputs
        finally:
            self.transport.end_run()
