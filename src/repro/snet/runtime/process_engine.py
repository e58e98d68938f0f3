"""Process-parallel execution engine.

:class:`ProcessRuntime` pairs the shared
:class:`~repro.snet.runtime.core.EngineCore` with a :class:`PoolTransport`:
the port graph and its scheduler are exactly those of the threaded engine
(they live in the core), but instances of ``parallel_safe`` boxes are
claimed by the transport and their records are executed on a
``multiprocessing`` worker pool, so CPU-bound box code runs outside the GIL
and a multi-core host delivers real wall-clock speedup (the paper's
headline measurement, which the threaded runtime can only simulate).

Design notes
------------

* **Fork-shared box registry.**  Box functions are typically closures over a
  backend object (see :class:`repro.apps.boxes.RayTracingBoxes`) and are not
  picklable.  Before the pool is forked, the transport registers every
  ``parallel_safe`` box of the network in a module-level registry; the forked
  workers inherit it, so only *records* ever cross the process boundary
  (:class:`~repro.snet.records.Record` pickles structurally).  Dynamically
  instantiated replicas (star levels, index-split instances) are deep copies
  whose ``func`` attribute is the *same* function object as the registered
  template — pure boxes behave identically, so replicas resolve to the
  template's registry key.
* **Fork-shared payload broadcast (zero-copy layer 1).**  Large field values
  of the run's *input records* (the scene and its BVH, in the paper's farm)
  are registered in the shared broadcast registry
  (:mod:`repro.snet.runtime.data_plane`) before the pool forks; they cross
  the boundary as tiny :class:`SharedObjectRef` tokens and are resolved from
  the fork-inherited registry in the workers.  The broadcast object is
  pickled exactly zero times per run instead of once per batch.
* **Out-of-band buffers (zero-copy layer 3).**  Batches are serialized
  explicitly with pickle protocol 5 and ``buffer_callback`` in both
  directions (:func:`~repro.snet.runtime.data_plane.dumps_records`), so
  NumPy payloads that still must cross (model mode, custom boxes) travel as
  out-of-band buffers instead of being copied into the pickle stream.
  Every byte serialized either way is accumulated in
  :attr:`ProcessRuntime.bytes_pickled` — the instrumentation behind the
  data-plane benchmarks.
* **Chunked batches, adaptively sized (layer 4).**  A claimed box instance
  is a port on the scheduler: the records it receives during one scheduler
  turn are batched to amortise pool dispatch overhead, and nothing ever
  waits for a batch to fill, otherwise a feedback network (e.g. the token
  loop of the dynamic ray-tracing farm) could starve itself.  Unless
  ``chunk_size``/``max_inflight`` are pinned, a per-instance
  :class:`BatchAutotuner` adapts them to the observed batch service time:
  micro-boxes coalesce into large batches (dispatch-bound), expensive boxes
  stay at one record per batch (load-balance-bound).  Batches go out with
  ``apply_async``; their callbacks hand results to the scheduler's inbox.
* **No result withholding.**  A completed batch is pushed downstream as
  soon as it lands.  This is essential for cyclic dataflow: in the dynamic
  farm a solver *result* releases the node token that admits the solver's
  next *input*.
* **Back-pressure.**  At most ``max_inflight`` batches are outstanding per
  box instance; further records wait in the port until results return.
* **Error surfacing.**  An exception raised by a box in a pool worker comes
  back (as :class:`BoxWorkerError`, carrying the remote traceback) to the
  box's port, which fails like any other port: its output closes and the
  run reports the error.  A worker that *dies* never answers, so while
  batches are outstanding the scheduler checks the workers' sentinels
  each time it goes idle, and every
  :attr:`PoolTransport.HEALTH_CHECK_INTERVAL` seconds while it stays idle,
  and fails the run with :class:`BoxWorkerError` instead of waiting for
  the deadline.

* **Warm lifecycle (setup/teardown split).**  A one-shot :meth:`ProcessRuntime.run`
  builds and tears down everything per call: box registration, payload
  broadcast, pool fork, pool termination.  :meth:`ProcessRuntime.setup`
  hoists that out of the per-run path — register once, fork once — so a
  persistent service (:class:`repro.apps.service.RenderService`) can run many
  jobs against one warm pool and pay the setup cost once per *scene*, not
  once per *frame*.  :meth:`ProcessRuntime.teardown` restores the cold
  state.  A warm pool that lost a worker between runs is replaced before
  the next run: a worker killed while idle can die holding the task
  queue's reader lock, which would block every other worker (and
  ``Pool.terminate``) forever.

Stateful primitives (synchrocells), filters, routing ports and boxes
marked ``parallel_safe=False`` execute on the scheduler, exactly as on the
threaded runtime.  On platforms without the ``fork`` start method the runtime
degrades to threaded execution (same semantics, no extra processes) and
says so with a :class:`RuntimeWarning`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import multiprocessing.pool
import os
import threading
import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

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
    SharedPayloadMissing,
    broadcast_worthy,
    dumps_records,
    loads_records,
    register_shared_inputs,
    register_shared_value,
    resolve_shared_in,
    swap_shared_out,
    unregister_shared,
)
from repro.snet.runtime.tracing import Tracer

__all__ = [
    "ProcessRuntime",
    "PoolTransport",
    "BoxWorkerError",
    "BatchAutotuner",
    "SharedObjectRef",
    "run_process",
    "dumps_records",
    "loads_records",
]


class BoxWorkerError(RuntimeError_):
    """A box raised inside a pool worker (message embeds the remote traceback)."""


#: template boxes visible to forked pool workers, keyed by registration id.
#: Populated in the parent *before* the pool forks; fork-inherited children
#: therefore see every key registered for the current run.
_BOX_REGISTRY: Dict[int, Box] = {}
_registry_keys = itertools.count(1)

# backwards-compatible aliases: the payload broadcast moved to the shared
# data-plane module (the distributed engine uses the same registry); tests
# and older call sites still reach it through this module
_SHARED_OBJECTS = data_plane._SHARED_OBJECTS
_SHARED_BY_ID = data_plane._SHARED_BY_ID
_swap_shared_out = swap_shared_out
_resolve_shared_in = resolve_shared_in


def _invoke_box_batch(
    key: int, payload: bytes, buffers: Sequence[bytes]
) -> Tuple[bytes, List[bytes], float]:
    """Pool-worker entry point: run one box over a serialized batch.

    Returns the serialized produced records plus the measured box execution
    time (serialization excluded), which feeds the parent's batch autotuner.
    """
    template = _BOX_REGISTRY.get(key)
    if template is None:  # pragma: no cover - only reachable without fork
        raise BoxWorkerError(
            f"box registry key {key} missing in worker process; the process "
            "runtime requires the 'fork' start method"
        )
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
        return out_payload, out_buffers, elapsed
    except (BoxWorkerError, SharedPayloadMissing):
        raise
    except BaseException as exc:
        # user exceptions are not guaranteed to pickle; re-raise a plain-string
        # error carrying the remote traceback instead
        raise BoxWorkerError(
            f"box {template.name!r} failed in worker process: "
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        ) from None


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


def _fork_pool(workers: int) -> multiprocessing.pool.Pool:
    pool = multiprocessing.get_context("fork").Pool(processes=workers)
    pool.forked_pids = {proc.pid for proc in pool._pool}
    return pool


def _lost_worker(pool: multiprocessing.pool.Pool) -> bool:
    """Whether a worker ``pool`` forked with has died since (replaced or not)."""
    workers = list(pool._pool)
    return {proc.pid for proc in workers} != pool.forked_pids or bool(
        multiprocessing.connection.wait([proc.sentinel for proc in workers], 0)
    )


def _close_pool(pool: multiprocessing.pool.Pool) -> None:
    """Terminate ``pool``, also when a killed worker left it wedged.

    An idle pool worker blocks reading the task queue while holding its
    reader lock; SIGKILLed there, it takes the lock with it, and the other
    workers and ``Pool.terminate`` (which drains the queue under the same
    lock) then wait on it forever — as they do on the result queue's
    writer lock if a worker died mid-reply.  So when a worker has died:
    stop the pool from respawning workers, kill them all, let the task
    handler (the one other taker of the writer lock) finish, and free both
    locks — every worker is dead, so whoever still holds one is dead too —
    before terminating.
    """
    if _lost_worker(pool):
        handler = pool._worker_handler
        handler._state = multiprocessing.pool.TERMINATE
        pool._change_notifier.put(None)
        handler.join()
        workers = list(pool._pool)
        for proc in workers:
            proc.kill()
        for proc in workers:
            proc.join()
        pool._task_handler.join(1.0)
        for lock in (pool._inqueue._rlock, pool._outqueue._wlock):
            lock.acquire(block=False)  # free: take it; held by the dead: no-op
            lock.release()
    pool.terminate()
    pool.join()


class PoolTransport(Transport):
    """Offload ``parallel_safe`` box invocations to a forked worker pool.

    Owns the pool, the fork-shared registrations made on behalf of its
    runtime, and the data-plane statistics.  The runtime's knobs (worker
    count, batching, ``zero_copy``) are read from the owning
    :class:`ProcessRuntime`, which validates them.
    """

    name = "pool"

    #: longest the scheduler sleeps, while batches are outstanding, before
    #: re-checking that every pool worker is still alive
    HEALTH_CHECK_INTERVAL = 0.1

    def __init__(self) -> None:
        super().__init__()
        self._pool = None  # pool used by the current run (warm or cold)
        self._cold_pool = None  # pool owned by the current cold run only
        self._persistent_pool = None  # pool kept alive by setup()/teardown()
        # _template_key(box) -> registry key; the key must survive Entity.copy
        # (which deep-copies everything but function objects) AND distinguish
        # boxes that share one function under different names/signatures
        self._box_keys: Dict[tuple, int] = {}
        self._registered: List[int] = []
        self._shared_registered: List[int] = []
        self._ports: List["_PoolPort"] = []  # this run's claimed box instances
        self._stats_lock = threading.Lock()
        self._bytes_pickled = 0
        self.batches_dispatched = 0
        self.records_offloaded = 0
        #: final per-box (chunk_size, max_inflight) after autotuning, keyed
        #: by box name — observability for tests and benchmark reports
        self.batch_plan: Dict[str, Tuple[int, int]] = {}

    # -- accounting ----------------------------------------------------------
    @property
    def bytes_pickled(self) -> int:
        return self._bytes_pickled

    def _reset_stats(self) -> None:
        with self._stats_lock:
            self._bytes_pickled = 0
            self.batches_dispatched = 0
            self.records_offloaded = 0
            self.batch_plan = {}

    def _count_pickled(self, nbytes: int, batches: int = 0, records: int = 0) -> None:
        with self._stats_lock:
            self._bytes_pickled += nbytes
            self.batches_dispatched += batches
            self.records_offloaded += records

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

    # -- warm lifecycle ------------------------------------------------------
    def setup(self, network: Optional[Entity], broadcast: Sequence[Any] = ()) -> None:
        runtime = self.runtime
        if runtime.is_warm:
            raise RuntimeError_(
                "setup() called on an already-warm ProcessRuntime; call "
                "teardown() first to rebuild the pool"
            )
        if runtime.fork_available():
            self._register_boxes(network)
            if self._box_keys:
                if runtime.zero_copy:
                    for value in broadcast:
                        register_shared_value(
                            value, self._shared_registered, runtime.BROADCAST_MIN_BYTES
                        )
                # the pool MUST fork after registration so children inherit
                # the registries from a quiescent parent
                self._persistent_pool = _fork_pool(runtime.workers)
        else:
            self._warn_degraded()

    @property
    def worker_pids(self) -> List[int]:
        """OS pids of the current pool's live workers (empty without a pool)."""
        pool = self._pool if self._pool is not None else self._persistent_pool
        if pool is None:
            return []
        return [proc.pid for proc in list(pool._pool) if proc.exitcode is None]

    def teardown(self) -> None:
        pool, self._persistent_pool = self._persistent_pool, None
        if pool is not None:
            _close_pool(pool)
        self._unregister_boxes()
        unregister_shared(self._shared_registered)

    # -- per-run lifecycle ---------------------------------------------------
    def begin_run(
        self, network: Entity, inputs: Sequence[Record], timeout: Optional[float]
    ) -> Entity:
        self._ports = []
        self._reset_stats()
        runtime = self.runtime
        if runtime.is_warm:
            # warm path: the pool and both registries were built by setup()
            # and survive this run; nothing is registered or torn down here —
            # except a pool that lost a worker since it forked, which may be
            # wedged (see _close_pool): fork a fresh one, which inherits the
            # registries like the first
            if self._persistent_pool is not None and _lost_worker(self._persistent_pool):
                _close_pool(self._persistent_pool)
                self._persistent_pool = _fork_pool(runtime.workers)
            self._pool = self._persistent_pool
            return network
        if runtime.fork_available():
            self._register_boxes(network)
            if self._box_keys:
                if runtime.zero_copy:
                    register_shared_inputs(
                        inputs, self._shared_registered, runtime.BROADCAST_MIN_BYTES
                    )
                # the pool MUST fork after registration and before any worker
                # thread starts, so children inherit the registries from a
                # quiescent parent
                self._cold_pool = self._pool = _fork_pool(runtime.workers)
        else:
            self._warn_degraded()
        return network

    def end_run(self) -> None:
        pool, self._cold_pool = self._cold_pool, None
        self._pool = None
        self._ports = []
        if pool is not None:
            _close_pool(pool)
        if not self.runtime.is_warm:
            self._unregister_boxes()
            unregister_shared(self._shared_registered)

    # -- compilation seam ----------------------------------------------------
    def compile_entity(self, entity: Entity, out: PortWriter) -> Optional[Port]:
        if not self.claims_entity(entity):
            # filters, synchrocells, non-offloadable boxes: scheduler ports
            return None
        port = _PoolPort(self, entity, self._box_keys[self._template_key(entity)], out)
        self._ports.append(port)
        return port

    def claims_entity(self, entity: Entity) -> bool:
        """Mirror of :meth:`compile_entity`'s claim condition (no side effects)."""
        return (
            self._pool is not None
            and isinstance(entity, Box)
            and entity.parallel_safe
            and self._box_keys.get(self._template_key(entity)) is not None
        )

    def idle_check(self) -> Optional[float]:
        """Fail the run fast if a pool worker died with batches outstanding.

        A batch handed to a worker that dies never completes, and a worker
        killed while waiting for tasks can take the task queue's lock with
        it, wedging every other worker; either way waiting longer is futile.
        """
        if self._pool is None or not any(
            port.inflight and not port.failed for port in self._ports
        ):
            return None
        if _lost_worker(self._pool):
            raise BoxWorkerError(
                "a pool worker process died while box batches were outstanding"
            )
        return self.HEALTH_CHECK_INTERVAL


class _PoolPort(_PrimitivePort):
    """A claimed ``parallel_safe`` box instance: batches on the worker pool.

    Records pushed during one scheduler turn wait in the port; at the end
    of the turn they go out in batches of the autotuned ``chunk_size``, at
    most ``max_inflight`` batches at a time (the rest wait for results).
    Results come back through the scheduler's inbox and are pushed
    downstream as soon as they land — in the dynamic farm a solver
    *result* releases the node token that admits the solver's next input.
    """

    def __init__(self, transport: PoolTransport, entity: Box, key: int, out: PortWriter):
        runtime = transport.runtime
        super().__init__(runtime, entity, out)
        self.transport = transport
        self.key = key
        self.pool = transport._pool
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
        self._submit_at_turn_end()

    def on_close(self) -> None:
        self.input_closed = True
        if not self.waiting and not self.inflight:
            self._finish()

    def _submit_at_turn_end(self) -> None:
        if not self.submit_due:
            self.submit_due = True
            self.sched.at_turn_end(self)

    def end_turn(self, _arg: Any = None) -> None:
        self.submit_due = False
        waiting, batcher = self.waiting, self.batcher
        while waiting and self.inflight < batcher.max_inflight:
            self._submit([waiting.popleft() for _ in range(min(len(waiting), batcher.chunk_size))])

    def _submit(self, batch: List[Record]) -> None:
        """Serialize one batch (payloads swapped for refs) and dispatch it."""
        payload, buffers, nbytes = dumps_records([swap_shared_out(r) for r in batch])
        self.transport._count_pickled(nbytes, batches=1, records=len(batch))
        self.inflight += 1
        size, sched = len(batch), self.sched
        self.pool.apply_async(
            _invoke_box_batch,
            (self.key, payload, buffers),
            callback=lambda result: sched.deliver(self, self._landed, (result, size)),
            error_callback=lambda exc: sched.deliver(self, self._failed, exc),
        )

    def _landed(self, landed: Tuple[Tuple[bytes, List[bytes], float], int]) -> None:
        (payload, buffers, elapsed), size = landed
        self.inflight -= 1
        self.transport._count_pickled(len(payload) + sum(len(b) for b in buffers))
        self.batcher.observe(size, elapsed)
        self._emit(resolve_shared_in(rec) for rec in loads_records(payload, buffers))
        if self.waiting:
            self._submit_at_turn_end()
        elif self.input_closed and not self.inflight:
            self._finish()

    def _failed(self, exc: BaseException) -> None:
        self.inflight -= 1
        raise exc

    def _finish(self) -> None:
        self._emit(self.entity.flush())  # boxes are stateless: usually []
        self.out.close()
        with self.transport._stats_lock:
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
    def records_offloaded(self) -> int:
        """Records shipped to pool workers during the last run."""
        return self.transport.records_offloaded

    @property
    def worker_pids(self) -> List[int]:
        """OS pids of the live pool workers (empty before fork/after teardown)."""
        return self.transport.worker_pids


def run_process(
    network: Entity,
    inputs: Sequence[Record],
    workers: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    stream_capacity: int = 256,
    chunk_size: Optional[int] = None,
    timeout: Optional[float] = 60.0,
) -> List[Record]:
    """Convenience wrapper: run ``network`` on a fresh process runtime."""
    runtime = ProcessRuntime(
        workers=workers,
        tracer=tracer,
        stream_capacity=stream_capacity,
        chunk_size=chunk_size,
    )
    return runtime.run(network, inputs, timeout=timeout)
