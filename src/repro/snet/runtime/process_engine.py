"""Process-parallel execution engine: the box pool.

:class:`ProcessRuntime` pairs the shared
:class:`~repro.snet.runtime.core.EngineCore` with a :class:`PoolTransport`,
the claim policy of :class:`~repro.snet.runtime.link.LinkTransport` that
claims every instance of a ``parallel_safe`` box.  The port graph and its
scheduler are exactly those of the threaded engine, but a claimed box's
records run on forked workers, so CPU-bound box code runs outside the GIL
(the paper's headline measurement, which the threaded runtime can only
simulate).  The link protocol, the worker and the warm lifecycle are
described once, in :mod:`repro.snet.runtime.link`; the data plane in
DESIGN.md, "The process data plane".

* **Stateless templates.**  S-Net boxes are stateless, so a box batch
  names its registered template and runs on it directly: no ``OPEN``, no
  copy, any worker.  Star levels and split replicas instantiate the very
  box the template was registered for, so they resolve to its key.
* **Eager, pull-style dispatch.**  A record that reaches a claimed box
  instance while some worker owes nothing is sent at once: in the dynamic
  farm a solver result releases the node token, the scheduler runs the
  token's path first, and the section it admits goes out in the same turn.
  Records that arrive while every worker is busy are batched at the turn
  end, wait in one shared backlog, and go to whichever worker answers
  first.  ``max_inflight`` bounds each box instance's outstanding batches,
  and :class:`BatchAutotuner` sizes them from the box time each ``RESULT``
  carries.
* **Errors.**  A box exception comes back as :class:`BoxWorkerError` with
  the remote traceback and fails the box's port.  A worker that dies with
  batches outstanding fails the run at once; the next warm run forks a
  replacement.

Synchrocells, filters, routing ports and boxes marked
``parallel_safe=False`` execute on the scheduler, exactly as on the
threaded runtime.  Without the ``fork`` start method the runtime degrades
to threaded execution and says so with a :class:`RuntimeWarning`.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.snet.base import Entity
from repro.snet.boxes import Box
from repro.snet.errors import RuntimeError_
from repro.snet.records import Record
from repro.snet.runtime.core import EngineCore
from repro.snet.runtime.data_plane import (
    SharedObjectRef,
    dumps_records,
    loads_records,
    resolve_shared_in,
    swap_shared_out,
)
from repro.snet.runtime.link import DATA, ERROR, LinkTransport, PipeLink, encode_frame
from repro.snet.runtime.ports import Port, PortWriter, _PrimitivePort
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


#: registry keys of box templates (a box batch's channel on the wire)
_box_keys = itertools.count(1)


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


class PoolTransport(LinkTransport):
    """Claim ``parallel_safe`` boxes; send each batch to any worker owing nothing.

    The runtime's knobs (worker count, batching, ``zero_copy``) are read
    from the owning :class:`ProcessRuntime`, which validates them.
    """

    name = "pool"
    worker_name = "snet-pool"
    degraded = "identical semantics, no wall-clock parallelism"

    def __init__(self) -> None:
        super().__init__()
        #: serialized batches waiting for a free worker: (port, frame, size)
        self._backlog: Deque[Tuple["_PoolPort", List[bytes], int]] = deque()
        self.batches_dispatched = 0
        #: final per-box (chunk_size, max_inflight) after autotuning, keyed
        #: by box name — observability for tests and benchmark reports
        self.batch_plan: Dict[str, Tuple[int, int]] = {}

    def _slots(self) -> int:
        return self.runtime.workers

    @staticmethod
    def _template_key(ent: Box) -> tuple:
        # must survive Entity.copy (which shares function objects) AND tell
        # apart boxes that share one function under different names/signatures
        return (id(ent.func), ent.name, repr(ent.box_signature))

    def _claim(self, network: Entity, cold: bool) -> None:
        for ent in network.iter_entities():
            if isinstance(ent, Box) and ent.parallel_safe:
                ident = self._template_key(ent)
                if ident not in self._keys:
                    self._register(ident, next(_box_keys), ent)

    def begin_run(
        self, network: Entity, inputs: Sequence[Record], timeout: Optional[float]
    ) -> None:
        self.batches_dispatched = 0
        self.batch_plan = {}
        super().begin_run(network, inputs, timeout)

    def end_run(self) -> None:
        self._backlog.clear()
        super().end_run()

    def _fail_over(self, link: PipeLink, reason: str) -> None:
        """The pool does not fail over: a lost worker fails the run."""
        link.dead = True
        link.pending.clear()
        raise BoxWorkerError(
            f"pool worker {link.pid} died while box batches were outstanding ({reason})"
        )

    # -- compilation seam ----------------------------------------------------
    def compile_entity(self, entity: Entity, out: PortWriter) -> Optional[Port]:
        if not self.claims_entity(entity):
            # filters, synchrocells, non-offloadable boxes: scheduler ports
            return None
        return _PoolPort(self, entity, self._keys[self._template_key(entity)], out)

    def claims_entity(self, entity: Entity) -> bool:
        """Mirror of :meth:`compile_entity`'s claim condition (no side effects)."""
        return (
            bool(self._links)
            and isinstance(entity, Box)
            and entity.parallel_safe
            and self._template_key(entity) in self._keys
        )

    # -- the shared backlog ----------------------------------------------------
    def dispatch(self, port: "_PoolPort", frame: List[bytes], size: int) -> None:
        """Queue one serialized batch and send what free workers can take."""
        self._backlog.append((port, frame, size))
        self._flush()

    def idle(self) -> bool:
        """Does some worker owe nothing?  (Then the backlog is empty too.)"""
        return any(not (link.pending or link.dead) for link in self._links)

    def _flush(self, _link: Optional[PipeLink] = None) -> None:
        """Send the backlog's head to each worker that owes nothing."""
        backlog = self._backlog
        for link in self._links:
            if not backlog:
                return
            if not (link.pending or link.dead):
                port, frame, size = backlog.popleft()
                self._send(link, frame, (port, size))

    def _settle(self, owed: Tuple["_PoolPort", int], kind: int, meta: Any, records):
        port, size = owed
        if kind == ERROR:
            return (port, port._failed, BoxWorkerError(meta))
        return (port, port._landed, (records, meta, size))


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
        payload, buffers, _ = dumps_records([swap_shared_out(r) for r in batch])
        self.transport.batches_dispatched += 1
        self.inflight += 1
        frame = encode_frame(DATA, self.key, payload=payload, buffers=buffers)
        self.transport.dispatch(self, frame, len(batch))

    def _landed(self, landed: Tuple[List[Record], float, int]) -> None:
        records, elapsed, size = landed
        self.inflight -= 1
        self.batcher.observe(size, elapsed)
        self._emit(resolve_shared_in(rec) for rec in records)
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
    tracer:
        As for :class:`~repro.snet.runtime.engine.ThreadedRuntime`.

    After a run, :attr:`bytes_pickled` holds the total bytes serialized
    across the pool boundary in either direction.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        chunk_size: Optional[int] = None,
        max_inflight: Optional[int] = None,
        zero_copy: bool = True,
        check: str = "warn",
        fuse: str = "auto",
    ):
        super().__init__(
            tracer=tracer,
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
