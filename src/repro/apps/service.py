"""A persistent render-farm service with warm-runtime job scheduling.

:func:`repro.apps.runner.run_raytracing_farm` is the paper's evaluation
shape: one shot, full runtime construction per call — process-pool fork,
scene broadcast into the fork-shared registry, shared-memory frame
registration — all paid before the first ray is cast.  A render farm that
serves many jobs cannot afford that; :class:`RenderService` keeps the
expensive parts alive *between* jobs:

* **runtime lifecycle reuse** — per cached scene the service holds a *warm
  slot*: the render backend (including its shared frame buffer), the built
  network, and a runtime set up once via the engines' ``setup()``/
  ``teardown()`` split (:meth:`ProcessRuntime.setup
  <repro.snet.runtime.process_engine.ProcessRuntime.setup>` forks the pool
  once, with the scene already broadcast);
* **a multi-tenant job scheduler** — ``submit(job)`` returns a
  :class:`concurrent.futures.Future`; dispatch across tenants is
  weighted-fair (:class:`WeightedFairQueue`: no backlogged tenant starves,
  completed-work shares track ``tenant_weights``), jobs within one tenant
  execute FIFO within priority (higher ``RenderJob.priority`` first), and a
  bounded queue applies backpressure with a selectable ``overflow`` policy
  (``"block"`` the submitter, or ``"reject"`` with
  :class:`ServiceOverloaded`);
* **a warm pool** — slots live in a
  :class:`~repro.apps.warm_pool.WarmPoolManager` keyed by
  ``(runtime backend, scene content hash, variant)``
  (:func:`scene_content_key` hashes content, so a replayed animation
  keyframe from :func:`repro.apps.workloads.animation_scenes` skips scene
  preparation, broadcast registration and pool re-fork entirely), bounded
  by LRU + idle-TTL eviction with *eager* teardown — an evicted slot's
  forked workers and ``/dev/shm`` frame segment are released at eviction
  time, not at :meth:`~RenderService.close`;
* **structured observability** — :meth:`RenderService.metrics` reports jobs
  served, queue depth and p50/p95 queue wait, warm-hit rate and the setup
  seconds the pool saved; :meth:`RenderService.observability` exports the
  full JSON view (per-stage latency histograms, per-tenant queue depths and
  counters, warm-pool and recovery counters) that the
  :mod:`repro.apps.gateway` front door serves to clients.

The service boundary and the ``try_get`` contract
-------------------------------------------------

The job queue is a real S-Net :class:`~repro.snet.runtime.stream.Stream` of
job records, and the scheduler loop leans on the two distinct ``None``
meanings of the stream API (see :meth:`Stream.try_get
<repro.snet.runtime.stream.Stream.try_get>`):

* ``try_get() -> None`` means **"empty right now"** — the service uses it
  only to *top up* the priority heap with whatever is already queued, so an
  idle moment must never be mistaken for shutdown;
* ``get() -> None`` is the **definitive end-of-stream** — it fires only
  once :meth:`close` has closed the writer *and* the queue has drained, so
  every job accepted before ``close()`` still executes (drain-then-stop).

``tests/apps/test_render_service.py`` pins both halves of this contract.

Example
-------

>>> from repro.raytracer.scene import random_scene
>>> scene = random_scene(num_spheres=3)
>>> with RenderService(width=16, height=16) as service:
...     first = service.submit(RenderJob(scene, nodes=2, tasks=2)).result(60)
...     second = service.submit(RenderJob(scene, nodes=2, tasks=2)).result(60)
>>> first.image.shape, first.warm, second.warm
((16, 16, 3), False, True)
>>> service.metrics().warm_hits
1
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.runner import (
    FARM_VARIANTS,
    build_warm_runtime,
    farm_inputs,
    resolve_data_plane,
)
from repro.apps.warm_pool import WarmPoolManager, WarmSlot
from repro.apps.workloads import extract_image
from repro.raytracer.mutation import scene_content_key
from repro.raytracer.scene import Scene
from repro.raytracer.tracer import check_render_mode
from repro.scheduling.base import Scheduler
from repro.snet.records import Record
from repro.snet.runtime import run_on
from repro.snet.runtime.stream import Stream

__all__ = [
    "RenderService",
    "RenderJob",
    "JobResult",
    "ServiceMetrics",
    "ServiceClosed",
    "ServiceOverloaded",
    "LatencyHistogram",
    "WeightedFairQueue",
    "scene_content_key",
]


class ServiceClosed(RuntimeError):
    """Submitting to (or waiting on) a service that has been closed."""


class ServiceOverloaded(RuntimeError):
    """The bounded job queue is full and the overflow policy is ``"reject"``."""


# -- scene content hashing ----------------------------------------------------
# scene_content_key lives with the mutation journal now (the journal updates
# the memoised key in O(delta) on every commit); the service re-exports it
# unchanged for its historical import path.


# -- observability: per-stage latency histograms ------------------------------
class LatencyHistogram:
    """A fixed-bucket log-scale latency histogram (seconds).

    Buckets double from 100 µs to ~400 s plus an overflow bucket, so one
    histogram covers queue waits, setups and renders alike with bounded
    memory and no per-sample allocation.  Percentiles interpolate linearly
    inside the winning bucket (clamped to the observed min/max), which is
    plenty for p50/p95 service bars.  Instances are *not* internally locked —
    the service mutates its histograms under the service lock.

    >>> hist = LatencyHistogram()
    >>> for ms in range(1, 101):
    ...     hist.add(ms / 1000.0)
    >>> 0.04 < hist.percentile(0.5) < 0.06 and 0.09 < hist.percentile(0.95) < 0.1
    True
    """

    #: upper bounds of the finite buckets: 1e-4 * 2**i seconds
    BOUNDS = tuple(1e-4 * 2.0**i for i in range(22))

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        index = 0
        while index < len(self.BOUNDS) and seconds > self.BOUNDS[index]:
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.sum += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q <= 1``); 0.0 while empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be within (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = 0.0 if index == 0 else self.BOUNDS[index - 1]
                upper = self.BOUNDS[index] if index < len(self.BOUNDS) else self.max
                fraction = (rank - seen) / bucket_count
                value = lower + (upper - lower) * fraction
                return min(max(value, self.min), self.max)
            seen += bucket_count
        return self.max  # pragma: no cover - rank <= count always lands above

    def to_json(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot (non-empty buckets only)."""
        return {
            "count": self.count,
            "sum_seconds": self.sum,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "p50": self.percentile(0.5),
            "p95": self.percentile(0.95),
            "buckets": [
                {
                    "le": self.BOUNDS[i] if i < len(self.BOUNDS) else "inf",
                    "count": c,
                }
                for i, c in enumerate(self.counts)
                if c
            ],
        }


# -- weighted-fair cross-tenant dispatch --------------------------------------
class WeightedFairQueue:
    """Weighted-fair dispatch across tenants (start-time fair queueing).

    The service's original queue was a single global priority heap — one
    tenant flooding high-priority jobs starves everyone else.  This queue
    keeps **per-tenant** FIFO-within-priority heaps and interleaves *between*
    tenants by virtual time: dispatching one unit of work from tenant ``t``
    advances ``t``'s virtual finish tag by ``cost / weight(t)``, and the
    tenant whose head-of-line job has the earliest finish tag runs next.  A
    tenant that was idle re-enters at the current virtual time (no credit
    accumulates while idle), and a backlogged tenant's tag grows every time
    it is served — so every backlogged tenant is dispatched within a bounded
    number of rounds regardless of the others' weights or priorities
    (``tests/apps/test_fairness.py`` pins both properties under
    hypothesis-generated schedules).

    Priorities keep their PR 4 meaning *within* a tenant: higher
    ``RenderJob.priority`` first, FIFO within equal priority.  With a single
    tenant the queue therefore degenerates to exactly the old global order.

    >>> wfq = WeightedFairQueue({"a": 3.0, "b": 1.0})
    >>> for seq in range(4):
    ...     wfq.push("a", (0, seq), f"a{seq}")
    ...     wfq.push("b", (0, 10 + seq), f"b{seq}")
    >>> [wfq.pop()[1] for _ in range(5)]  # a gets ~3 of every 4 dispatches
    ['a0', 'a1', 'a2', 'b0', 'a3']
    """

    def __init__(
        self,
        weights: Optional[Dict[str, float]] = None,
        default_weight: float = 1.0,
    ):
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        for tenant, weight in (weights or {}).items():
            if weight <= 0:
                raise ValueError(
                    f"tenant {tenant!r} needs a positive weight, got {weight}"
                )
        self._weights = dict(weights or {})
        self._default_weight = default_weight
        self._queues: Dict[str, List[Tuple[Tuple[int, int], float, Any]]] = {}
        self._finish: Dict[str, float] = {}
        #: tenant -> (start, finish, order_key) of its *current* head-of-line
        #: job.  Assigned once when the job reaches the head and pinned until
        #: it is dispatched (or displaced by a higher-priority arrival): a
        #: pinned tag cannot slide as the virtual clock advances, so a
        #: backlogged tenant's head is eventually minimal — no starvation.
        self._head_tags: Dict[str, Tuple[float, float, Tuple[int, int]]] = {}
        self._vtime = 0.0
        self._size = 0

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, self._default_weight)

    def push(
        self,
        tenant: str,
        order_key: Tuple[int, int],
        item: Any,
        cost: float = 1.0,
    ) -> None:
        """Queue ``item`` for ``tenant``; ``order_key`` orders within the tenant."""
        if cost <= 0:
            raise ValueError("cost must be positive")
        heapq.heappush(
            self._queues.setdefault(tenant, []), (order_key, cost, item)
        )
        self._size += 1

    def _head_tag(self, tenant: str) -> Tuple[float, float, Tuple[int, int]]:
        order_key, cost, _ = self._queues[tenant][0]
        tag = self._head_tags.get(tenant)
        if tag is not None and tag[2] == order_key:
            return tag
        # a tenant re-entering after an idle period lines up at the current
        # virtual time, not in the past (max with its own last finish keeps a
        # backlogged tenant progressing at rate weight/total)
        start = max(self._vtime, self._finish.get(tenant, 0.0))
        finish = start + cost / self.weight(tenant)
        tag = (start, finish, order_key)
        self._head_tags[tenant] = tag
        return tag

    def pop(self) -> Tuple[str, Any]:
        """Dispatch the next job: ``(tenant, item)``.  Raises on empty."""
        if not self._size:
            raise IndexError("pop from an empty WeightedFairQueue")
        best = None
        for tenant, queue in self._queues.items():
            if not queue:
                continue
            start, finish, order_key = self._head_tag(tenant)
            candidate = (finish, order_key, tenant, start)
            if best is None or candidate < best:
                best = candidate
        finish, _, tenant, start = best
        _, _, item = heapq.heappop(self._queues[tenant])
        del self._head_tags[tenant]
        self._finish[tenant] = finish
        # the system's virtual time tracks the start tag of the job put in
        # service, so later arrivals cannot be tagged into the past
        self._vtime = max(self._vtime, start)
        self._size -= 1
        return tenant, item

    def backlog(self) -> Dict[str, int]:
        """Queued items per tenant (non-empty tenants only)."""
        return {t: len(q) for t, q in self._queues.items() if q}

    def __len__(self) -> int:
        return self._size


# -- jobs and results ---------------------------------------------------------
@dataclass
class RenderJob:
    """One unit of work for the service: render ``scene`` once.

    ``variant``/``nodes``/``tasks``/``tokens`` mirror the knobs of
    :func:`~repro.apps.runner.run_raytracing_farm`.  ``tenant`` names the
    submitting tenant: dispatch across tenants is weighted-fair (see
    :class:`WeightedFairQueue` and ``RenderService(tenant_weights=...)``),
    and ``priority`` keeps its meaning *within* a tenant — higher values run
    earlier, FIFO within equal priority.  ``label`` is free-form caller
    bookkeeping (e.g. a frame number) echoed on the :class:`JobResult`.
    """

    scene: Scene
    nodes: int = 2
    tasks: int = 8
    tokens: Optional[int] = None
    variant: str = "static"
    priority: int = 0
    tenant: str = "default"
    label: Optional[str] = None


@dataclass
class JobResult:
    """Outcome of one served job (the value of the job's future).

    ``warm`` tells whether the job was served from an existing warm slot
    (scene-cache hit: no scene preparation, no pool fork, no frame-buffer
    registration).  ``seconds`` is pure execution time; ``queued_seconds``
    is the time spent waiting in the queue before execution started.

    ``tiles_reused``/``rays_saved`` report the temporal tile cache's work
    avoidance for this job: sections served from the warm slot's previous
    frame and the rays their cached renders originally cost.  ``rays_cast``
    stays honest — it counts only rays actually traced for this job; the
    avoided rays are reported separately, never subtracted.
    """

    job: RenderJob
    image: Any
    seconds: float
    queued_seconds: float
    warm: bool
    scene_key: str
    rays_cast: int
    bytes_pickled: int
    node_recoveries: int = 0
    tiles_reused: int = 0
    rays_saved: int = 0
    outputs: List[Record] = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class ServiceMetrics:
    """Snapshot of the service counters (see :meth:`RenderService.metrics`).

    The snapshot is taken **atomically under the service lock** (the warm
    pool contributes its own lock-consistent snapshot), so every field
    describes the same instant — counters can never disagree with each other
    by a half-updated job.

    ``queue_depth`` counts jobs accepted but not yet completed (waiting or
    executing); ``tenant_queue_depths`` breaks it down per tenant.
    ``setup_seconds_saved`` charges, for every warm hit, the measured
    cold-build cost of the slot that served it — the wall-clock the warm
    pool avoided.  ``warm_hit_rate`` is warm hits over executed cache
    lookups (0.0 before the first job).  ``queue_p50``/``queue_p95`` are
    queue-wait percentiles from the service's latency histogram (seconds
    between ``submit`` and dispatch).  ``slots_evicted`` counts warm slots
    torn down by LRU or TTL eviction (their runtimes and shared frame
    segments were released *at eviction time*).  ``node_recoveries`` counts
    distributed node workers that died and were failed over or revived
    while serving jobs — a non-zero value means the service stayed up
    through node deaths.  ``tiles_reused``/``rays_saved`` total the temporal
    tile cache's work avoidance across all served jobs (reported separately
    from the honest traced-ray counts, see :class:`JobResult`).
    """

    state: str
    jobs_submitted: int
    jobs_served: int
    jobs_failed: int
    jobs_rejected: int
    jobs_cancelled: int
    queue_depth: int
    warm_hits: int
    cold_builds: int
    warm_hit_rate: float
    setup_seconds_saved: float
    render_seconds: float
    bytes_pickled: int
    scenes_cached: int
    node_recoveries: int
    queue_p50: float = 0.0
    queue_p95: float = 0.0
    slots_evicted: int = 0
    tenant_queue_depths: Dict[str, int] = field(default_factory=dict)
    tiles_reused: int = 0
    rays_saved: int = 0


@dataclass
class _QueuedJob:
    seq: int
    job: RenderJob
    future: Future
    submitted_at: float

    @property
    def order_key(self) -> Tuple[int, int]:
        # within one tenant: higher priority first, FIFO within a priority
        return (-self.job.priority, self.seq)


# -- the service --------------------------------------------------------------
class RenderService:
    """A persistent farm: warm runtimes, a scene cache and a job queue.

    Parameters
    ----------
    runtime:
        Runtime backend name executing the jobs (``"threaded"``,
        ``"process"`` or ``"distributed"``; the simulated backend has no
        warm resources worth a service).  The distributed backend keeps one
        set of compute-node worker processes warm per cached scene — pass
        ``runtime_options={"nodes": N}`` to size it.
    width, height, render_mode, data_plane, scheduler, runtime_options:
        Fixed per service, exactly as for
        :func:`~repro.apps.runner.run_raytracing_farm`; every job renders at
        this resolution.
    max_queue:
        Bound of the job queue (jobs accepted but not yet completed).
    overflow:
        Backpressure policy when the queue is full: ``"block"`` makes
        ``submit`` wait for space, ``"reject"`` raises
        :class:`ServiceOverloaded` immediately.
    max_scenes:
        Warm slots kept alive by the :class:`~repro.apps.warm_pool.
        WarmPoolManager`; beyond this the least-recently-used idle slot is
        torn down *eagerly* (pool terminated, shared frame released — at
        eviction time, not at :meth:`close`).
    slot_ttl:
        Idle seconds after which a warm slot is evicted by the pool's
        background sweeper (``None`` disables time-based eviction): a tenant
        that stopped rendering a scene stops paying for its forked workers.
    tenant_weights:
        Relative dispatch weights per tenant name (default weight 1.0 for
        unlisted tenants): with backlogged tenants ``a``/``b`` at weights
        3/1, ``a`` receives ~3 of every 4 dispatches.  Replaces PR 4's pure
        global priority order; ``RenderJob.priority`` still orders jobs
        *within* a tenant.
    job_timeout:
        Per-job wall-clock deadline handed to the runtime.
    check:
        Static-analysis mode (``"warn"``/``"error"``/``"off"``) forwarded to
        every warm runtime the service creates: each farm network is
        validated once, before its first record flows.  An explicit
        ``runtime_options["check"]`` takes precedence.
    incremental:
        Enables the temporal tile cache (default on): a warm slot whose
        scene is edited *in place* through :meth:`Scene.begin_edit
        <repro.raytracer.scene.Scene.begin_edit>` between jobs re-renders
        only the tiles the edits can affect and serves the rest from the
        previous frame's cache, pixel-identically.  The edited scene's new
        content key is migrated onto the existing slot (lineage adoption)
        instead of cold-building a duplicate.  ``incremental=False``
        restores the render-everything behaviour.

    The service starts accepting jobs immediately; :meth:`close` drains the
    queue and releases every warm slot.  Use as a context manager to
    guarantee teardown.  See the module docstring for a runnable example.
    """

    _STATES = ("running", "draining", "closed")

    def __init__(
        self,
        runtime: str = "threaded",
        *,
        width: int = 64,
        height: int = 64,
        render_mode: Optional[str] = None,
        data_plane: str = "auto",
        scheduler: Optional[Scheduler] = None,
        runtime_options: Optional[Dict[str, Any]] = None,
        max_queue: int = 16,
        overflow: str = "block",
        max_scenes: int = 4,
        slot_ttl: Optional[float] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
        job_timeout: float = 300.0,
        check: str = "warn",
        incremental: bool = True,
    ):
        if overflow not in ("block", "reject"):
            raise ValueError(
                f"unknown overflow policy {overflow!r}; use 'block' or 'reject'"
            )
        if check not in ("warn", "error", "off"):
            raise ValueError(
                f"unknown check mode {check!r}; use 'warn', 'error' or 'off'"
            )
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if max_scenes < 1:
            raise ValueError("max_scenes must be at least 1")
        self.runtime_name = runtime
        self.width = width
        self.height = height
        self.render_mode = check_render_mode(render_mode)
        self.scheduler = scheduler
        self.runtime_options = dict(runtime_options or {})
        # static network validation mode for every warm runtime the service
        # creates; an explicit runtime_options["check"] wins
        self.runtime_options.setdefault("check", check)
        self.max_queue = max_queue
        self.overflow = overflow
        self.max_scenes = max_scenes
        self.job_timeout = job_timeout
        self.incremental = bool(incremental)
        self.tenant_weights = dict(tenant_weights or {})
        self._plane = resolve_data_plane(data_plane, runtime)

        # the service boundary: a bounded S-Net stream of job records.  Its
        # capacity exceeds max_queue so writer.put never blocks while the
        # submit-side condition variable enforces the *policy* bound.
        self._jobs = Stream(name="render-service-jobs", capacity=max_queue + 2)
        self._writer = self._jobs.open_writer()
        self._cv = threading.Condition()
        self._seq = itertools.count()
        self._depth = 0
        self._closing = False
        self._cancel_pending = False
        self._state = "running"

        self._pool = WarmPoolManager(capacity=max_scenes, ttl=slot_ttl)

        # counters (all mutated under _cv)
        self._jobs_submitted = 0
        self._jobs_served = 0
        self._jobs_failed = 0
        self._jobs_rejected = 0
        self._jobs_cancelled = 0
        self._warm_hits = 0
        self._cold_builds = 0
        self._setup_seconds_saved = 0.0
        self._render_seconds = 0.0
        self._bytes_pickled = 0
        self._node_recoveries = 0
        self._tiles_reused = 0
        self._rays_saved = 0
        self._tenant_depth: Dict[str, int] = {}
        self._tenant_stats: Dict[str, Dict[str, int]] = {}
        # per-stage latency histograms (all mutated under _cv)
        self._hist_queue = LatencyHistogram()
        self._hist_setup = LatencyHistogram()
        self._hist_render = LatencyHistogram()
        self._tenant_queue_hist: Dict[str, LatencyHistogram] = {}

        self._thread = threading.Thread(
            target=self._scheduler_loop, name="render-service-scheduler", daemon=True
        )
        self._thread.start()

    # -- public API ----------------------------------------------------------
    def submit(self, job: RenderJob) -> "Future[JobResult]":
        """Queue ``job`` and return a future resolving to its :class:`JobResult`.

        Raises :class:`ServiceClosed` after :meth:`close`, and — queue full —
        either blocks (``overflow="block"``) or raises
        :class:`ServiceOverloaded` (``overflow="reject"``).  The future
        supports ``cancel()`` while the job is still queued.
        """
        if job.variant not in FARM_VARIANTS:
            raise ValueError(
                f"unknown farm variant {job.variant!r}; available: "
                + ", ".join(sorted(FARM_VARIANTS))
            )
        if not isinstance(job.scene, Scene):
            raise TypeError(f"RenderJob.scene must be a Scene, got {job.scene!r}")
        future: "Future[JobResult]" = Future()
        with self._cv:
            while True:
                if self._closing:
                    raise ServiceClosed("submit on a closed RenderService")
                if self._depth < self.max_queue:
                    break
                if self.overflow == "reject":
                    self._jobs_rejected += 1
                    self._tenant_stat(job.tenant, "rejected")
                    raise ServiceOverloaded(
                        f"job queue is full ({self.max_queue} jobs pending) and "
                        "the overflow policy is 'reject'"
                    )
                self._cv.wait()
            self._depth += 1
            self._jobs_submitted += 1
            self._tenant_depth[job.tenant] = self._tenant_depth.get(job.tenant, 0) + 1
            self._tenant_stat(job.tenant, "submitted")
            entry = _QueuedJob(
                seq=next(self._seq),
                job=job,
                future=future,
                submitted_at=time.perf_counter(),
            )
            # priority rides as a tag so the queue reads like any S-Net stream
            self._writer.put(Record({"job": entry, "<priority>": int(job.priority)}))
        return future

    def _tenant_stat(self, tenant: str, key: str, count: int = 1) -> None:
        """Bump a per-tenant counter (caller holds ``_cv``)."""
        stats = self._tenant_stats.setdefault(
            tenant, {"submitted": 0, "served": 0, "failed": 0, "rejected": 0,
                     "cancelled": 0}
        )
        stats[key] += count

    def render(self, job: RenderJob, timeout: Optional[float] = None) -> JobResult:
        """Synchronous convenience: ``submit(job).result(timeout)``."""
        return self.submit(job).result(timeout)

    def metrics(self) -> ServiceMetrics:
        """A consistent snapshot of the service counters.

        Everything is read under the service lock in one critical section
        (the warm pool's contribution is its own lock-consistent snapshot):
        no field of the returned :class:`ServiceMetrics` can reflect a
        different instant than the others.
        """
        pool = self._pool.stats()  # pool-lock-consistent, taken first
        with self._cv:
            lookups = self._warm_hits + self._cold_builds
            return ServiceMetrics(
                state=self._state,
                jobs_submitted=self._jobs_submitted,
                jobs_served=self._jobs_served,
                jobs_failed=self._jobs_failed,
                jobs_rejected=self._jobs_rejected,
                jobs_cancelled=self._jobs_cancelled,
                queue_depth=self._depth,
                warm_hits=self._warm_hits,
                cold_builds=self._cold_builds,
                warm_hit_rate=self._warm_hits / lookups if lookups else 0.0,
                setup_seconds_saved=self._setup_seconds_saved,
                render_seconds=self._render_seconds,
                bytes_pickled=self._bytes_pickled,
                scenes_cached=pool["slots"],
                node_recoveries=self._node_recoveries,
                queue_p50=self._hist_queue.percentile(0.5),
                queue_p95=self._hist_queue.percentile(0.95),
                slots_evicted=pool["evictions_lru"] + pool["evictions_ttl"],
                tenant_queue_depths={
                    t: d for t, d in self._tenant_depth.items() if d
                },
                tiles_reused=self._tiles_reused,
                rays_saved=self._rays_saved,
            )

    def observability(self) -> Dict[str, Any]:
        """Structured observability as a JSON-friendly dict.

        The production view of the service: per-stage latency histograms
        (queue wait, cold setup, render), queue depths and counters per
        tenant (including per-tenant queue-wait percentiles), the warm
        pool's hit/eviction counters, and the byte/recovery counters.  The
        gateway serves exactly this payload on its ``metrics`` op.
        """
        pool = self._pool.stats()
        with self._cv:
            lookups = self._warm_hits + self._cold_builds
            tenants: Dict[str, Any] = {}
            names = set(self._tenant_stats) | set(self._tenant_queue_hist)
            for tenant in sorted(names):
                stats = dict(
                    self._tenant_stats.get(
                        tenant,
                        {"submitted": 0, "served": 0, "failed": 0,
                         "rejected": 0, "cancelled": 0},
                    )
                )
                stats["queue_depth"] = self._tenant_depth.get(tenant, 0)
                stats["weight"] = self.tenant_weights.get(tenant, 1.0)
                hist = self._tenant_queue_hist.get(tenant)
                stats["queue_wait"] = (
                    hist.to_json() if hist else LatencyHistogram().to_json()
                )
                tenants[tenant] = stats
            return {
                "state": self._state,
                "runtime": self.runtime_name,
                "jobs": {
                    "submitted": self._jobs_submitted,
                    "served": self._jobs_served,
                    "failed": self._jobs_failed,
                    "rejected": self._jobs_rejected,
                    "cancelled": self._jobs_cancelled,
                    "queue_depth": self._depth,
                },
                "latency": {
                    "queue_wait": self._hist_queue.to_json(),
                    "setup": self._hist_setup.to_json(),
                    "render": self._hist_render.to_json(),
                },
                "tenants": tenants,
                "warm_pool": pool,
                "warm_hit_rate": self._warm_hits / lookups if lookups else 0.0,
                "setup_seconds_saved": self._setup_seconds_saved,
                "bytes_pickled": self._bytes_pickled,
                "node_recoveries": self._node_recoveries,
                "incremental": {
                    "enabled": self.incremental,
                    "tiles_reused": self._tiles_reused,
                    "rays_saved": self._rays_saved,
                },
            }

    @property
    def state(self) -> str:
        """``"running"`` → (``close()``) → ``"draining"`` → ``"closed"``."""
        with self._cv:
            return self._state

    def close(
        self, *, cancel_pending: bool = False, timeout: Optional[float] = None
    ) -> None:
        """Stop accepting jobs, drain the queue, release every warm slot.

        Closing closes the job stream's writer; the scheduler keeps serving
        until its blocking ``get()`` returns the *definitive* end-of-stream
        ``None`` (writer closed **and** queue drained), so jobs accepted
        before ``close`` still complete.  With ``cancel_pending=True`` the
        not-yet-started jobs are cancelled instead of executed (their
        futures raise :class:`~concurrent.futures.CancelledError`).
        Idempotent; blocks up to ``timeout`` for the drain to finish.
        """
        with self._cv:
            if not self._closing:
                self._closing = True
                self._state = "draining" if self._state == "running" else self._state
                self._writer.close()
            if cancel_pending:
                self._cancel_pending = True
            self._cv.notify_all()
        self._thread.join(timeout)

    def __enter__(self) -> "RenderService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- scheduler loop -------------------------------------------------------
    def _scheduler_loop(self) -> None:
        wfq = WeightedFairQueue(self.tenant_weights)
        try:
            while True:
                if not len(wfq):
                    # blocking read: this None is the definitive end-of-stream
                    # (writer closed by close() AND the queue fully drained)
                    rec = self._jobs.get()
                    if rec is None:
                        break
                    self._admit(wfq, rec)
                # top-up: admit everything already queued so tenants and
                # priorities compete.  try_get's None means "empty right now"
                # — with writers still open it is NOT end-of-stream, so an
                # idle service must keep waiting in get() above, never shut
                # down
                while True:
                    extra = self._jobs.try_get()
                    if extra is None:
                        break
                    self._admit(wfq, extra)
                _, entry = wfq.pop()
                self._execute(entry)
        finally:
            self._pool.close()
            with self._cv:
                self._state = "closed"
                self._cv.notify_all()

    @staticmethod
    def _admit(wfq: WeightedFairQueue, rec: Record) -> None:
        entry: _QueuedJob = rec.field("job")
        wfq.push(entry.job.tenant, entry.order_key, entry)

    # -- job execution --------------------------------------------------------
    def _execute(self, entry: _QueuedJob) -> None:
        with self._cv:
            cancel = self._cancel_pending
        if cancel or not entry.future.set_running_or_notify_cancel():
            if cancel:
                entry.future.cancel()
            self._job_done("cancelled", entry)
            return
        try:
            job = entry.job
            started = time.perf_counter()
            queued_seconds = started - entry.submitted_at
            slot, warm = self._slot_for(job)
            try:
                slot.backend.begin_job()
                rays_before = slot.backend.rays_cast
                tiles_before = getattr(slot.backend, "tiles_reused", 0)
                saved_before = getattr(slot.backend, "rays_saved", 0)
                inputs = farm_inputs(
                    job.variant, slot.scene, nodes=job.nodes, tasks=job.tasks,
                    tokens=job.tokens,
                )
                outputs = run_on(
                    slot.runtime, slot.network, inputs, timeout=self.job_timeout
                )
                image = extract_image(slot.backend)
                seconds = time.perf_counter() - started
                slot.jobs_served += 1
                # node deaths survived since the slot's previous job
                # (distributed runtimes expose a cumulative failover/revival
                # counter; others report 0)
                recoveries_total = int(getattr(slot.runtime, "recoveries", 0))
                recovered = recoveries_total - slot.recoveries_seen
                slot.recoveries_seen = recoveries_total
                result = JobResult(
                    job=job,
                    image=image,
                    seconds=seconds,
                    queued_seconds=queued_seconds,
                    warm=warm,
                    scene_key=slot.key[1],
                    rays_cast=slot.backend.rays_cast - rays_before,
                    bytes_pickled=int(getattr(slot.runtime, "bytes_pickled", 0)),
                    node_recoveries=max(0, recovered),
                    tiles_reused=getattr(slot.backend, "tiles_reused", 0)
                    - tiles_before,
                    rays_saved=getattr(slot.backend, "rays_saved", 0)
                    - saved_before,
                    outputs=outputs,
                )
            finally:
                self._pool.release(slot)
            with self._cv:
                if warm:
                    self._warm_hits += 1
                    self._setup_seconds_saved += slot.setup_seconds
                else:
                    self._cold_builds += 1
                    self._hist_setup.add(slot.setup_seconds)
                self._render_seconds += seconds
                self._bytes_pickled += result.bytes_pickled
                self._node_recoveries += result.node_recoveries
                self._tiles_reused += result.tiles_reused
                self._rays_saved += result.rays_saved
                self._hist_queue.add(queued_seconds)
                self._hist_render.add(seconds)
                self._tenant_queue_hist.setdefault(
                    job.tenant, LatencyHistogram()
                ).add(queued_seconds)
            self._job_done("served", entry)
            entry.future.set_result(result)
        except BaseException as exc:  # noqa: BLE001 - delivered via the future
            self._job_done("failed", entry)
            entry.future.set_exception(exc)

    def _job_done(self, outcome: str, entry: _QueuedJob) -> None:
        tenant = entry.job.tenant
        with self._cv:
            self._depth -= 1
            depth = self._tenant_depth.get(tenant, 0) - 1
            if depth > 0:
                self._tenant_depth[tenant] = depth
            else:
                self._tenant_depth.pop(tenant, None)
            if outcome == "served":
                self._jobs_served += 1
                self._tenant_stat(tenant, "served")
            elif outcome == "failed":
                self._jobs_failed += 1
                self._tenant_stat(tenant, "failed")
            elif outcome == "cancelled":
                self._jobs_cancelled += 1
                self._tenant_stat(tenant, "cancelled")
            self._cv.notify_all()

    # -- warm slots -----------------------------------------------------------
    @property
    def _slots(self) -> "OrderedDict[Tuple[str, str, str], WarmSlot]":
        """Snapshot of the warm pool's key -> slot mapping (tests/debugging)."""
        return self._pool.slots()

    def _slot_for(self, job: RenderJob) -> Tuple[WarmSlot, bool]:
        """Lease the warm slot serving ``job`` (building it cold on a miss).

        In-place scene edits (``Scene.begin_edit``) change the scene's
        content key; the warm slot built under the pre-edit key still holds
        the *same live scene object*, so it is adopted to the new key
        (keeping its forked workers and tile cache alive) rather than
        duplicated.  A slot whose slowest live fork worker can no longer be
        caught up — the journal trimmed past its watermark, see
        :meth:`RenderBackend.pending_edits
        <repro.apps.backends.RenderBackend.pending_edits>` — is discarded
        first: a stale worker would render silently wrong pixels.
        """
        key = (self.runtime_name, scene_content_key(job.scene), job.variant)
        adopted = self._pool.adopt(
            key,
            lambda slot: (
                slot.key[0] == self.runtime_name
                and slot.key[2] == job.variant
                and slot.parts.get("scene") is job.scene
            ),
        )
        if adopted is not None and adopted.backend.pending_edits(adopted.scene) is None:
            self._pool.discard(key)

        def build() -> Dict[str, Any]:
            parts = build_warm_runtime(
                job.scene,
                job.variant,
                width=self.width,
                height=self.height,
                plane=self._plane,
                render_mode=self.render_mode,
                scheduler=self.scheduler,
                runtime=self.runtime_name,
                runtime_options=self.runtime_options,
                incremental=self.incremental,
            )
            return {
                "scene": parts.scene,
                "backend": parts.backend,
                "network": parts.network,
                "runtime": parts.runtime,
                "setup_seconds": parts.setup_seconds,
            }

        return self._pool.acquire(key, build)
