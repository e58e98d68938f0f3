"""Process-parallel execution engine.

:class:`ProcessRuntime` pairs the shared
:class:`~repro.snet.runtime.core.EngineCore` with a :class:`PoolTransport`:
the port graph and its scheduler are exactly those of the threaded engine,
but instances of ``parallel_safe`` boxes are claimed by the transport and
their records run on forked worker processes, so CPU-bound box code runs
outside the GIL (the paper's headline measurement, which the threaded
runtime can only simulate).  The data plane — fork-shared box registry and
payload broadcast, protocol-5 out-of-band batches, adaptive batch sizes —
is described in DESIGN.md, "The process data plane".

* **Fork-shared box registry.**  Box functions are typically closures and
  not picklable: every ``parallel_safe`` box is registered before the
  workers fork, and only records cross the boundary.  Star levels and
  split replicas share the template's ``func``, so they resolve to its key.
* **The link.**  Each worker is a :class:`~repro.snet.runtime.link.PipeLink`
  (forked process, duplex pipe, sentinel) carrying the multipart frames of
  :mod:`repro.snet.runtime.link`.  The scheduler thread drives every link
  itself and no thread is started.  Results are read by a non-blocking
  :meth:`PoolTransport.poll` at every turn end and pushed downstream at
  once, and an idle scheduler sleeps in one
  ``multiprocessing.connection.wait`` over the busy workers' pipes and
  sentinels.
* **Eager, pull-style dispatch.**  A record that reaches a claimed box
  instance while some worker owes nothing is sent at once: in the dynamic
  farm a solver result releases the node token, the scheduler runs the
  token's path first, and the section it admits goes out in the same turn.
  Records that arrive while every worker is busy are batched at the turn
  end, wait in the parent, and go to whichever worker answers first.  A
  worker that owes nothing is reading, so the parent never blocks in
  ``send`` while the worker blocks sending a large result.
  ``max_inflight`` bounds each box instance's outstanding batches.
* **Errors.**  A box exception comes back as :class:`BoxWorkerError` with
  the remote traceback and fails the box's port.  A worker that dies with
  batches outstanding fires its sentinel, which fails the run at once.
* **Warm lifecycle.**  :meth:`ProcessRuntime.setup` registers and forks
  once, so a persistent service (:class:`repro.apps.service.RenderService`)
  pays it per scene, not per frame; :meth:`ProcessRuntime.teardown` stops
  and reaps the workers.  Before each warm run, a worker that died — or
  that a failed run left owing results, which is stopped for it — is
  replaced by a fresh fork, which inherits the registries like the first.

Synchrocells, filters, routing ports and boxes marked
``parallel_safe=False`` execute on the scheduler, exactly as on the
threaded runtime.  Without the ``fork`` start method the runtime degrades
to threaded execution and says so with a :class:`RuntimeWarning`.
"""

from __future__ import annotations

import itertools
import multiprocessing.connection
import os
import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.snet.base import Entity
from repro.snet.boxes import Box
from repro.snet.errors import RuntimeError_
from repro.snet.records import Record
from repro.snet.runtime import data_plane
from repro.snet.runtime.core import (
    EngineCore,
    Port,
    PortWriter,
    Transport,
    _PrimitivePort,
    warn_fork_degraded,
)
from repro.snet.runtime.data_plane import (
    BROADCAST_MIN_BYTES,
    SharedObjectRef,
    broadcast_worthy,
    dumps_records,
    loads_records,
    register_shared_value,
    resolve_shared_in,
    swap_shared_out,
    unregister_shared,
)
from repro.snet.runtime.link import (
    DATA,
    ERROR,
    RESULT,
    SHUTDOWN,
    PipeLink,
    close_links,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.snet.runtime.tracing import Tracer

__all__ = [
    "ProcessRuntime",
    "PoolTransport",
    "BoxWorkerError",
    "BatchAutotuner",
    "SharedObjectRef",
    "dumps_records",
    "loads_records",
]


class BoxWorkerError(RuntimeError_):
    """A box raised inside a pool worker (message embeds the remote traceback)."""


#: template boxes visible to forked pool workers, keyed by registration id.
#: Populated in the parent *before* the workers fork; fork-inherited children
#: therefore see every key registered for the current run.
_BOX_REGISTRY: Dict[int, Box] = {}
_registry_keys = itertools.count(1)

# the payload broadcast registry lives in the shared data-plane module;
# tests reach it through this module
_SHARED_OBJECTS = data_plane._SHARED_OBJECTS
_SHARED_BY_ID = data_plane._SHARED_BY_ID


def _run_batch(key: int, payload: bytes, buffers: Sequence[bytes]) -> List[bytes]:
    """Run the box registered under ``key`` over one serialized batch.

    Returns the reply frame: ``RESULT`` with the produced records and the
    measured box time (serialization excluded, it feeds the parent's batch
    autotuner), or ``ERROR`` whose text carries the remote traceback — user
    exceptions are not guaranteed to pickle.
    """
    template = _BOX_REGISTRY.get(key)  # missing only without fork
    try:
        records = [resolve_shared_in(rec) for rec in loads_records(payload, buffers)]
        start = time.perf_counter()
        produced: List[Record] = []
        for rec in records:
            produced.extend(template.process(rec))
        elapsed = time.perf_counter() - start
        out_payload, out_buffers, _ = dumps_records(
            [swap_shared_out(rec) for rec in produced]
        )
        return encode_frame(RESULT, key, elapsed, out_payload, out_buffers)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        name = template.name if template is not None else f"#{key} (not registered)"
        return encode_frame(
            ERROR,
            key,
            f"box {name!r} failed in worker process: "
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
        )


def _pool_worker_main(conn) -> None:
    """Entry point of one forked pool worker: answer batches until ``SHUTDOWN``."""
    try:
        while True:
            try:
                kind, key, _, payload, buffers, _ = recv_frame(conn)
            except (EOFError, OSError):
                return
            if kind == SHUTDOWN:
                return
            send_frame(conn, _run_batch(key, payload, buffers))
    finally:
        conn.close()


class BatchAutotuner:
    """Adapt a box instance's ``chunk_size``/``max_inflight`` to batch service time.

    The controller targets ~:data:`TARGET_BATCH_SECONDS` of box work per
    pool submission: an EWMA of the worker-measured per-record service time
    sizes the next batch, clamped to ``[1, CHUNK_MAX]`` and to at most 4x
    growth per observation (one noisy measurement must not cause a wild
    swing).  ``max_inflight`` follows the same signal: sub-millisecond
    records need a deep submission pipeline to keep workers busy between
    scheduler turns (4x workers), expensive records keep the default shallow
    bound (2x workers) so work stays available for load balancing.  Pinned
    values (explicit ``chunk_size=``/``max_inflight=``) are never adapted.
    """

    TARGET_BATCH_SECONDS = 0.02
    CHUNK_MAX = 64
    DEEP_PIPELINE_THRESHOLD = 0.001  # per-record seconds
    EWMA_ALPHA = 0.5

    def __init__(
        self,
        workers: int,
        chunk_size: Optional[int] = None,
        max_inflight: Optional[int] = None,
    ):
        self._chunk_pinned = chunk_size is not None
        self._inflight_pinned = max_inflight is not None
        self.chunk_size = chunk_size if chunk_size is not None else 1
        self.max_inflight = (
            max_inflight if max_inflight is not None else 2 * workers
        )
        self._workers = workers
        self._per_record: Optional[float] = None
        self.batches_observed = 0

    def observe(self, batch_len: int, elapsed: float) -> None:
        """Fold one completed batch (``batch_len`` records, box-time ``elapsed``)."""
        if batch_len < 1:
            return
        self.batches_observed += 1
        sample = max(elapsed, 1e-7) / batch_len
        if self._per_record is None:
            self._per_record = sample
        else:
            self._per_record += self.EWMA_ALPHA * (sample - self._per_record)
        if not self._chunk_pinned:
            ideal = int(self.TARGET_BATCH_SECONDS / self._per_record)
            self.chunk_size = max(1, min(ideal, self.CHUNK_MAX, self.chunk_size * 4))
        if not self._inflight_pinned:
            deep = self._per_record < self.DEEP_PIPELINE_THRESHOLD
            self.max_inflight = (4 if deep else 2) * self._workers


class PoolTransport(Transport):
    """Offload ``parallel_safe`` box invocations to forked pool workers.

    Owns one link per worker, the fork-shared registrations made on behalf
    of its runtime, and the data-plane statistics; everything runs on the
    scheduler's thread (see the module docstring).  The runtime's knobs
    (worker count, batching, ``zero_copy``) are read from the owning
    :class:`ProcessRuntime`, which validates them.
    """

    name = "pool"

    def __init__(self) -> None:
        super().__init__()
        self._links: List[PipeLink] = []
        # _template_key(box) -> registry key; the key must survive Entity.copy
        # (which shares function objects) AND distinguish boxes that share
        # one function under different names/signatures
        self._box_keys: Dict[tuple, int] = {}
        self._registered: List[int] = []
        self._shared_registered: List[int] = []
        #: serialized batches waiting for a free worker: (port, frame, size)
        self._backlog: Deque[Tuple["_PoolPort", List[bytes], int]] = deque()
        self._bytes_pickled = 0
        self.batches_dispatched = 0
        #: final per-box (chunk_size, max_inflight) after autotuning, keyed
        #: by box name — observability for tests and benchmark reports
        self.batch_plan: Dict[str, Tuple[int, int]] = {}

    # -- accounting ----------------------------------------------------------
    @property
    def bytes_pickled(self) -> int:
        return self._bytes_pickled

    # -- registration --------------------------------------------------------
    @staticmethod
    def _template_key(ent: Box) -> tuple:
        return (id(ent.func), ent.name, repr(ent.box_signature))

    def _register_boxes(self, network: Entity) -> None:
        for ent in network.iter_entities():
            if not isinstance(ent, Box) or not getattr(ent, "parallel_safe", False):
                continue
            template = self._template_key(ent)
            if template in self._box_keys:
                continue
            key = next(_registry_keys)
            _BOX_REGISTRY[key] = ent
            self._box_keys[template] = key
            self._registered.append(key)

    def _unregister_boxes(self) -> None:
        for key in self._registered:
            _BOX_REGISTRY.pop(key, None)
        self._registered.clear()
        self._box_keys.clear()

    def _warn_degraded(self) -> None:
        warn_fork_degraded(
            "ProcessRuntime", "identical semantics, no wall-clock parallelism"
        )

    # -- workers -------------------------------------------------------------
    def _fork_link(self, index: int) -> PipeLink:
        # forks after registration, so the child inherits the registries
        return PipeLink(_pool_worker_main, name=f"snet-pool-{index}")

    def _acquire(self, network: Entity, payloads: Iterable[Any]) -> None:
        """Register the boxes and broadcast ``payloads``, then fork."""
        runtime = self.runtime
        if not runtime.fork_available():
            self._warn_degraded()
            return
        self._register_boxes(network)
        if not self._box_keys:
            return
        if runtime.zero_copy:
            for value in payloads:
                register_shared_value(
                    value, self._shared_registered, runtime.BROADCAST_MIN_BYTES
                )
        # append one by one: a fork failing halfway leaves the earlier
        # links for teardown to reap
        for index in range(runtime.workers):
            self._links.append(self._fork_link(index))

    def _release(self) -> None:
        links, self._links = self._links, []
        close_links(links)
        self._unregister_boxes()
        unregister_shared(self._shared_registered)

    def _lost(self, link: PipeLink) -> None:
        link.dead = True
        link.pending.clear()
        raise BoxWorkerError(
            f"pool worker {link.pid} died while box batches were outstanding"
        )

    @property
    def worker_pids(self) -> List[int]:
        """OS pids of the live pool workers (empty without workers)."""
        return [link.pid for link in self._links if link.alive]

    # -- warm lifecycle ------------------------------------------------------
    def setup(self, network: Optional[Entity], broadcast: Sequence[Any] = ()) -> None:
        if self.runtime.is_warm:
            raise RuntimeError_(
                "setup() called on an already-warm ProcessRuntime; call "
                "teardown() first to rebuild the pool"
            )
        self._acquire(network, broadcast)

    def teardown(self) -> None:
        self._release()

    # -- per-run lifecycle ---------------------------------------------------
    def begin_run(
        self, network: Entity, inputs: Sequence[Record], timeout: Optional[float]
    ) -> Entity:
        self._bytes_pickled = self.batches_dispatched = 0
        self.batch_plan = {}
        if self.runtime.is_warm:
            # warm path: the workers and both registries were built by
            # setup() and survive this run; a worker that died since (or
            # was stopped owing a failed run's results) is replaced by a
            # fresh fork, which inherits the registries like the first
            for index, link in enumerate(self._links):
                if not link.alive:
                    close_links([link])
                    self._links[index] = self._fork_link(index)
            return network
        self._acquire(network, (rec[label] for rec in inputs for label in rec.fields()))
        return network

    def end_run(self) -> None:
        self._backlog.clear()
        if self.runtime.is_warm:
            # a worker still owing results of this (failed) run would hand
            # them to the next one: stop it; begin_run replaces it
            for link in self._links:
                if link.pending or link.dead:
                    link.stop()
            return
        self._release()

    # -- compilation seam ----------------------------------------------------
    def compile_entity(self, entity: Entity, out: PortWriter) -> Optional[Port]:
        if not self.claims_entity(entity):
            # filters, synchrocells, non-offloadable boxes: scheduler ports
            return None
        return _PoolPort(self, entity, self._box_keys[self._template_key(entity)], out)

    def claims_entity(self, entity: Entity) -> bool:
        """Mirror of :meth:`compile_entity`'s claim condition (no side effects)."""
        return (
            bool(self._links)
            and isinstance(entity, Box)
            and entity.parallel_safe
            and self._box_keys.get(self._template_key(entity)) is not None
        )

    # -- the link, driven from the scheduler ---------------------------------
    def dispatch(self, port: "_PoolPort", frame: List[bytes], size: int) -> None:
        """Queue one serialized batch and send what free workers can take."""
        self._backlog.append((port, frame, size))
        self._pump()

    def idle(self) -> bool:
        """Does some worker owe nothing?  (Then the backlog is empty too.)"""
        return any(not (link.pending or link.dead) for link in self._links)

    def _pump(self) -> None:
        backlog = self._backlog
        for link in self._links:
            if not backlog:
                return
            if link.pending or link.dead:
                continue
            port, frame, size = backlog.popleft()
            link.pending.append((port, size))
            try:
                send_frame(link.conn, frame)
            except OSError:
                self._lost(link)

    def poll(self) -> List[Tuple[Port, Any, Any]]:
        landed = []
        for link in self._links:
            while link.pending and link.conn.poll():
                try:
                    kind, _, meta, payload, buffers, _ = recv_frame(link.conn)
                except (EOFError, OSError):
                    self._lost(link)
                port, size = link.pending.popleft()
                if kind == ERROR:
                    landed.append((port, port._failed, BoxWorkerError(meta)))
                else:
                    landed.append((port, port._landed, (payload, buffers, meta, size)))
        if landed:
            self._pump()
        return landed

    def wait(self, timeout: Optional[float]) -> bool:
        """Sleep until a worker answers or dies; a death fails the run at once."""
        busy = [link for link in self._links if link.pending]
        if not busy:
            return False
        ready = multiprocessing.connection.wait(
            [link.conn for link in busy] + [link.sentinel for link in busy], timeout
        )
        for link in busy:
            if link.sentinel in ready:
                self._lost(link)
        return True


class _PoolPort(_PrimitivePort):
    """A claimed ``parallel_safe`` box instance: batches on the pool workers.

    A record goes out at once while some worker owes nothing; the records
    that find every worker busy go out when the turn ends, in batches of
    the autotuned ``chunk_size``, at most ``max_inflight`` batches at a
    time; the rest wait in the port for results.
    """

    def __init__(self, transport: PoolTransport, entity: Box, key: int, out: PortWriter):
        runtime = transport.runtime
        super().__init__(runtime, entity, out)
        self.transport = transport
        self.key = key
        self.batcher = BatchAutotuner(
            runtime.workers,
            chunk_size=runtime.chunk_size,
            max_inflight=runtime.max_inflight,
        )
        self.waiting: Deque[Record] = deque()
        self.inflight = 0
        self.input_closed = False
        self.submit_due = False

    def on_record(self, rec: Record) -> None:
        if self.tracer is not None:
            self.tracer.record(self.name, "consume", record=repr(rec))
        self.waiting.append(rec)
        self._send()

    def on_close(self) -> None:
        self.input_closed = True
        if not self.waiting and not self.inflight:
            self._finish()

    def _send(self) -> None:
        """Send to the workers that owe nothing; batch the rest at the turn end."""
        idle = self.transport.idle
        while self.waiting and self.inflight < self.batcher.max_inflight and idle():
            self._submit()
        if self.waiting and not self.submit_due:
            self.submit_due = True
            self.sched.at_turn_end(self)

    def end_turn(self, _arg: Any = None) -> None:
        self.submit_due = False
        while self.waiting and self.inflight < self.batcher.max_inflight:
            self._submit()

    def _submit(self) -> None:
        """Serialize the next batch (payloads swapped for refs) and dispatch it."""
        waiting = self.waiting
        batch = [waiting.popleft() for _ in range(min(len(waiting), self.batcher.chunk_size))]
        payload, buffers, nbytes = dumps_records([swap_shared_out(r) for r in batch])
        self.transport._bytes_pickled += nbytes
        self.transport.batches_dispatched += 1
        self.inflight += 1
        frame = encode_frame(DATA, self.key, payload=payload, buffers=buffers)
        self.transport.dispatch(self, frame, len(batch))

    def _landed(self, landed: Tuple[bytes, List[bytes], float, int]) -> None:
        payload, buffers, elapsed, size = landed
        self.inflight -= 1
        self.transport._bytes_pickled += len(payload) + sum(len(b) for b in buffers)
        self.batcher.observe(size, elapsed)
        self._emit(resolve_shared_in(rec) for rec in loads_records(payload, buffers))
        if self.waiting:
            self._send()
        elif self.input_closed and not self.inflight:
            self._finish()

    def _failed(self, exc: BaseException) -> None:
        self.inflight -= 1
        raise exc

    def _finish(self) -> None:
        self._emit(self.entity.flush())  # boxes are stateless: usually []
        self.out.close()
        self.transport.batch_plan[self.name] = (
            self.batcher.chunk_size,
            self.batcher.max_inflight,
        )


class ProcessRuntime(EngineCore):
    """Execute an S-Net network with box invocations on a process pool.

    Parameters
    ----------
    workers:
        Size of the worker pool (default: ``os.cpu_count()``).
    chunk_size:
        Records per pool submission.  ``None`` (the default) lets each box
        instance autotune the batch size from observed service times (see
        :class:`BatchAutotuner`); an explicit integer pins it.
    max_inflight:
        Maximum outstanding batches per box instance.  ``None`` (the default)
        autotunes between ``2 * workers`` and ``4 * workers``; an explicit
        integer pins it.
    zero_copy:
        Enable the fork-shared payload broadcast: large field values of the
        input records are registered before the pool forks and cross the
        boundary as :class:`SharedObjectRef` tokens.  Disable to get the
        legacy full-record pickling data plane (the conformance baseline).
    tracer / stream_capacity:
        As for :class:`~repro.snet.runtime.engine.ThreadedRuntime`.

    After a run, :attr:`bytes_pickled` holds the total bytes serialized
    across the pool boundary in either direction.
    """

    #: input-record field values at least this large (estimated) are
    #: broadcast through the fork-shared registry instead of being pickled
    #: into every batch (the data plane's canonical threshold)
    BROADCAST_MIN_BYTES = BROADCAST_MIN_BYTES

    def __init__(
        self,
        workers: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        stream_capacity: int = 256,
        chunk_size: Optional[int] = None,
        max_inflight: Optional[int] = None,
        zero_copy: bool = True,
        check: str = "warn",
        fuse: str = "auto",
    ):
        super().__init__(
            tracer=tracer,
            stream_capacity=stream_capacity,
            transport=PoolTransport(),
            check=check,
            fuse=fuse,
        )
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise RuntimeError_("the process runtime needs at least one worker")
        if chunk_size is not None and chunk_size < 1:
            raise RuntimeError_("chunk_size must be at least 1")
        if max_inflight is not None and max_inflight < 1:
            raise RuntimeError_("max_inflight must be at least 1")
        self.chunk_size = chunk_size
        self.max_inflight = max_inflight
        self.zero_copy = zero_copy

    # -- data-plane introspection --------------------------------------------
    def _broadcast_worthy(self, value: Any) -> bool:
        return broadcast_worthy(value, self.BROADCAST_MIN_BYTES)

    @property
    def batch_plan(self) -> Dict[str, Tuple[int, int]]:
        """Final per-box ``(chunk_size, max_inflight)`` after autotuning."""
        return self.transport.batch_plan

    @property
    def batches_dispatched(self) -> int:
        """Pool submissions during the last run."""
        return self.transport.batches_dispatched

    @property
    def worker_pids(self) -> List[int]:
        """OS pids of the live pool workers (empty before fork/after teardown)."""
        return self.transport.worker_pids
