"""Run a ray-tracing farm variant on a named runtime backend.

This is the single entry point the examples, benchmarks and ad-hoc scripts
use to execute the paper's networks without caring which runtime executes
them::

    from repro.apps.runner import run_raytracing_farm

    run = run_raytracing_farm("dynamic", runtime="process", width=64,
                              height=64, runtime_options={"workers": 4})
    print(run.seconds, run.image.shape)

Only the *executing* backends make sense here (``threaded``, ``process``,
``distributed``): the farm renders real pixels through a
:class:`RealRenderBackend` (or any backend you pass in) and the resulting
image is read back from the backend object after ``genImg`` fired.  On the
``distributed`` backend the farm's placement combinators are honoured for
real: every ``solver !@ <node>`` replica executes on the compute-node
worker process selected by its ``<node>`` tag (the runtime's ``nodes``
option defaults to the farm's ``nodes`` knob).  For the simulated/
virtual-time experiments use :mod:`repro.bench.experiments`, which drives
the ``dsnet`` backend with the model render backend instead.

Data planes
-----------

``data_plane`` selects how pixels travel between the solver boxes and the
merger:

``"records"``
    Rendered chunks ride inside the records (the paper's model and PR 2's
    behaviour).  On the process backend every chunk is pickled across the
    pool boundary and the scene is pickled into every batch.
``"shared"``
    The frame is allocated in ``multiprocessing.shared_memory`` before the
    pool forks (:class:`SharedFrameRenderBackend`); solver workers write
    rows directly into it and only metadata crosses the boundary, with the
    scene broadcast through the fork-shared registry.
``"auto"`` (default)
    ``"shared"`` on the process backend, ``"records"`` elsewhere — the
    threaded backend keeps its record-passing semantics as the correctness
    oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.apps.backends import (
    RealRenderBackend,
    RenderBackend,
    SharedFrameRenderBackend,
)
from repro.apps.networks import (
    build_dynamic_network,
    build_static_2cpu_network,
    build_static_network,
)
from repro.apps.workloads import dynamic_input_records, extract_image, initial_record
from repro.raytracer.camera import Camera
from repro.raytracer.scene import Scene, random_scene
from repro.scheduling.base import Scheduler
from repro.snet.records import Record
from repro.snet.runtime import get_runtime, run_on

__all__ = [
    "FarmRun",
    "WarmRuntimeParts",
    "run_raytracing_farm",
    "resolve_data_plane",
    "build_farm_backend",
    "build_warm_runtime",
    "farm_inputs",
    "FARM_VARIANTS",
    "DATA_PLANES",
]

#: variant name -> network builder
FARM_VARIANTS = {
    "static": build_static_network,
    "static_2cpu": build_static_2cpu_network,
    "dynamic": build_dynamic_network,
}

#: the selectable solver->merger data planes (see module docstring)
DATA_PLANES = ("auto", "shared", "records")


@dataclass
class FarmRun:
    """Outcome of one farm execution.

    ``render_mode`` is the solver's resolved render mode (``None`` for a
    backend that renders no pixels, such as the cost-model backend).
    ``rays_cast`` is the total number of rays the solver boxes traced,
    aggregated from the per-chunk counters by the merger side (so the count
    is correct even when the solvers executed in forked pool workers).
    ``bytes_pickled`` is the total bytes serialized across the process-pool
    boundary during the run (0 on the threaded backend, which passes
    references) — the quantity the zero-copy data plane minimises.

    ``tiles_reused``/``rays_saved`` account for the temporal tile cache:
    sections served from the previous frame's cache and the rays their
    cached renders originally cost.  The accounting is honest —
    ``rays_cast`` only counts rays *actually traced this run*, and the
    avoided work is reported separately rather than inflating or deflating
    the traced count.
    """

    variant: str
    runtime: str
    image: Any
    outputs: List[Record]
    seconds: float
    backend: RenderBackend = field(repr=False)
    render_mode: Optional[str] = None
    rays_cast: int = 0
    data_plane: str = "records"
    bytes_pickled: int = 0
    tiles_reused: int = 0
    rays_saved: int = 0


def resolve_data_plane(
    data_plane: str, runtime: str, backend: Optional[RenderBackend] = None
) -> str:
    """Resolve a ``data_plane`` request to the concrete plane of a run.

    Parameters
    ----------
    data_plane:
        One of :data:`DATA_PLANES` — ``"auto"``, ``"shared"`` or
        ``"records"``.
    runtime:
        The runtime backend name the run targets (``"auto"`` resolves to
        ``"shared"`` only on ``"process"``).
    backend:
        Optional explicit render backend; when given, the backend's own
        nature decides the plane and a contradictory request raises
        :class:`ValueError`.

    Returns the resolved plane name, always ``"shared"`` or ``"records"``.

    >>> resolve_data_plane("auto", "process")
    'shared'
    >>> resolve_data_plane("auto", "threaded")
    'records'
    >>> resolve_data_plane("auto", "distributed")
    'records'
    >>> resolve_data_plane("records", "process")
    'records'
    """
    if data_plane not in DATA_PLANES:
        raise ValueError(
            f"unknown data plane {data_plane!r}; available: " + ", ".join(DATA_PLANES)
        )
    if backend is not None:
        # an explicit backend defines its own data plane; reject a
        # contradictory request instead of silently ignoring it
        is_shared = isinstance(backend, SharedFrameRenderBackend)
        if data_plane == "shared" and not is_shared:
            raise ValueError(
                "data_plane='shared' requires a SharedFrameRenderBackend; got "
                f"{type(backend).__name__}"
            )
        if data_plane == "records" and is_shared:
            raise ValueError(
                "data_plane='records' contradicts the SharedFrameRenderBackend "
                "passed as backend"
            )
        return "shared" if is_shared else "records"
    if data_plane == "auto":
        return "shared" if runtime == "process" else "records"
    return data_plane


def build_farm_backend(
    scene: Scene,
    width: int,
    height: int,
    plane: str,
    render_mode: Optional[str] = None,
    incremental: bool = True,
) -> RenderBackend:
    """Construct the render backend matching a resolved data plane.

    ``plane`` must already be concrete (``"shared"`` or ``"records"``, see
    :func:`resolve_data_plane`).  The shared plane allocates the frame in
    ``multiprocessing.shared_memory`` — callers own the returned backend and
    must eventually call ``release()`` on it.  ``incremental=False`` disables
    the temporal tile cache (the backend then never captures tile summaries
    or short-circuits clean sections).

    >>> from repro.raytracer.scene import random_scene
    >>> backend = build_farm_backend(random_scene(num_spheres=2), 16, 16, "records")
    >>> type(backend).__name__, backend.width, backend.height
    ('RealRenderBackend', 16, 16)
    """
    backend_cls = SharedFrameRenderBackend if plane == "shared" else RealRenderBackend
    backend = backend_cls(
        scene,
        Camera(width=width, height=height),
        render_mode=render_mode,
    )
    backend.incremental = bool(incremental)
    return backend


@dataclass
class WarmRuntimeParts:
    """Everything a warm slot keeps alive between jobs on one scene.

    Produced by :func:`build_warm_runtime`; owned by the caller — release by
    calling ``runtime.teardown()`` and ``backend.release()`` (in that order),
    which is exactly what :meth:`repro.apps.warm_pool.WarmPoolManager`
    eviction does.
    """

    scene: Scene
    backend: RenderBackend = field(repr=False)
    network: Any = field(repr=False)
    runtime: Any = field(repr=False)
    setup_seconds: float = 0.0


def build_warm_runtime(
    scene: Scene,
    variant: str,
    *,
    width: int,
    height: int,
    plane: str,
    render_mode: Optional[str] = None,
    scheduler: Optional[Scheduler] = None,
    runtime: str = "threaded",
    runtime_options: Optional[Dict[str, Any]] = None,
    incremental: bool = True,
) -> WarmRuntimeParts:
    """Build the warm parts of one render slot: backend, network, runtime.

    This is the cold path a warm pool pays once per cached scene: scene
    preparation (BVH build + broadcast registration), render-backend and
    (on the shared plane) frame-segment allocation, network construction and
    the runtime's ``setup()`` (which forks pools / node workers).  On *any*
    failure the partially built slot is torn down before the exception
    propagates — a failed cold build must not leak a shared-memory frame
    segment or half-forked workers.

    With ``incremental`` (the default) the backend keeps a cross-job tile
    cache, so consecutive jobs on this warm runtime that edit the scene
    through :meth:`Scene.begin_edit` re-render only the dirty tiles.  On
    fork-based runtimes (``process``/``distributed``) the workers hold
    fork-time scene *copies*, so the backend is additionally wired to the
    runtime's live worker pids (``fork_workers``) and the fork epoch
    (``broadcast_epoch``): every renderable section then carries the
    journal entries the slowest live worker has not yet replayed.

    >>> from repro.raytracer.scene import random_scene
    >>> parts = build_warm_runtime(random_scene(num_spheres=2), "static",
    ...                            width=16, height=16, plane="records")
    >>> parts.setup_seconds >= 0.0 and parts.backend.width == 16
    True
    """
    if variant not in FARM_VARIANTS:
        raise ValueError(
            f"unknown farm variant {variant!r}; available: "
            + ", ".join(sorted(FARM_VARIANTS))
        )
    started = time.perf_counter()
    prepare = getattr(scene, "prepare_for_broadcast", None)
    if callable(prepare):
        prepare()  # build the BVH once; warm jobs inherit it
    backend = build_farm_backend(
        scene, width, height, plane, render_mode, incremental=incremental
    )
    try:
        network = FARM_VARIANTS[variant](backend, scheduler, render_mode=render_mode)
        options = dict(runtime_options or {})
        if runtime == "process":
            options.setdefault("zero_copy", plane == "shared")
        runtime_obj = get_runtime(runtime, **options)
        setup = getattr(runtime_obj, "setup", None)
        if callable(setup):
            # register boxes + broadcast the scene, then fork the pool — once
            runtime_obj.setup(network, broadcast=(scene,))
        if runtime in ("process", "distributed"):
            # forked workers hold fork-time scene copies: ship each of them
            # the edits committed after this point that it has not replayed
            backend.fork_workers = lambda: runtime_obj.worker_pids
            backend.broadcast_epoch = getattr(scene, "edit_epoch", 0)
    except BaseException:
        # the engines' setup() already tears itself down on failure; the
        # frame segment allocated above is ours to release
        release = getattr(backend, "release", None)
        if callable(release):
            release()
        raise
    return WarmRuntimeParts(
        scene=scene,
        backend=backend,
        network=network,
        runtime=runtime_obj,
        setup_seconds=time.perf_counter() - started,
    )


def farm_inputs(
    variant: str,
    scene: Scene,
    *,
    nodes: int,
    tasks: int,
    tokens: Optional[int] = None,
) -> List[Record]:
    """Build the input records of one farm job.

    The static variants take a single ``{scene, <nodes>, <tasks>}`` record;
    the dynamic variant additionally carries ``<tokens>`` (defaulting to
    ``nodes``).  Raises :class:`ValueError` for an unknown ``variant``.

    >>> from repro.raytracer.scene import random_scene
    >>> recs = farm_inputs("dynamic", random_scene(num_spheres=2), nodes=2, tasks=4)
    >>> len(recs), recs[0].tag("tasks"), recs[0].tag("tokens")
    (1, 4, 2)
    """
    if variant not in FARM_VARIANTS:
        raise ValueError(
            f"unknown farm variant {variant!r}; available: "
            + ", ".join(sorted(FARM_VARIANTS))
        )
    if variant == "dynamic":
        return dynamic_input_records(
            scene, nodes=nodes, tasks=tasks,
            tokens=tokens if tokens is not None else nodes,
        )
    return [initial_record(scene, nodes=nodes, tasks=tasks)]


def run_raytracing_farm(
    variant: str = "static",
    runtime: str = "threaded",
    *,
    width: int = 64,
    height: int = 64,
    nodes: int = 4,
    tasks: int = 8,
    tokens: Optional[int] = None,
    scene: Optional[Scene] = None,
    num_spheres: int = 30,
    seed: int = 7,
    scheduler: Optional[Scheduler] = None,
    backend: Optional[RenderBackend] = None,
    runtime_options: Optional[Dict[str, Any]] = None,
    timeout: float = 300.0,
    render_mode: Optional[str] = None,
    data_plane: str = "auto",
    incremental: bool = True,
) -> FarmRun:
    """Build one of the paper's farm variants and run it to completion.

    Parameters mirror the paper's experiment knobs: ``nodes`` compute nodes,
    ``tasks`` image sections, and (dynamic variant only) ``tokens`` initial
    node tokens, defaulting to ``nodes``.  ``render_mode`` selects the solver
    execution strategy (the vectorized ``"fused"`` path or the ``"scalar"``
    per-pixel oracle); ``None`` keeps the backend's own mode (the default
    of :func:`~repro.raytracer.tracer.check_render_mode` for a freshly
    created backend).  ``data_plane`` selects how pixels reach
    the merger (see module docstring); on the process backend it also gates
    the runtime's fork-shared scene broadcast (``zero_copy``), unless
    ``runtime_options`` pins that explicitly.

    Returns a :class:`FarmRun` carrying the rendered ``image`` (a
    ``(height, width, 3)`` float64 array), the raw output records, the
    wall-clock ``seconds`` and the run's instrumentation counters.

    >>> run = run_raytracing_farm("static", width=16, height=16, nodes=2,
    ...                           tasks=2, num_spheres=4)
    >>> run.image.shape, run.data_plane, run.rays_cast > 0
    ((16, 16, 3), 'records', True)

    A one-shot run has no previous frame, so the temporal tile cache never
    fires and the reuse counters stay zero (they matter for warm reuse, see
    :class:`repro.apps.service.RenderService`):

    >>> run.tiles_reused, run.rays_saved
    (0, 0)

    One-shot calls pay full runtime construction every time; to amortise
    setup across many renders of the same scene, use
    :class:`repro.apps.service.RenderService` instead.
    """
    plane = resolve_data_plane(data_plane, runtime, backend)
    if scene is None:
        scene = random_scene(num_spheres=num_spheres, clustering=0.5, seed=seed)
    # farm_inputs validates the variant and the dynamic token bounds; doing it
    # before backend construction means an invalid job cannot leak a
    # shared-memory frame segment
    inputs = farm_inputs(variant, scene, nodes=nodes, tasks=tasks, tokens=tokens)
    release_backend = False
    if backend is None:
        backend = build_farm_backend(
            scene, width, height, plane, render_mode, incremental=incremental
        )
        release_backend = plane == "shared"
    network = FARM_VARIANTS[variant](backend, scheduler, render_mode=render_mode)
    # the backend counters are cumulative across jobs on a reused backend;
    # diff around the run so FarmRun reports this job's reuse only
    tiles_before = getattr(backend, "tiles_reused", 0)
    rays_saved_before = getattr(backend, "rays_saved", 0)

    options = dict(runtime_options or {})
    if runtime == "process":
        # the record plane doubles as the PR 2 baseline: no scene broadcast
        options.setdefault("zero_copy", plane == "shared")
    elif runtime == "distributed":
        # one compute-node worker per farm node, so every <node> tag value
        # maps to its own OS process (override via runtime_options)
        options.setdefault("nodes", nodes)
    runtime_obj = get_runtime(runtime, **options)

    try:
        start = time.perf_counter()
        outputs = run_on(runtime_obj, network, inputs, timeout=timeout)
        seconds = time.perf_counter() - start
        image = extract_image(backend)
    finally:
        if release_backend:
            # genImg snapshots the frame into backend.saved_images, so the
            # segment can be unlinked as soon as the run is over
            backend.release()
    return FarmRun(
        variant=variant,
        runtime=runtime,
        image=image,
        outputs=outputs,
        seconds=seconds,
        backend=backend,
        render_mode=getattr(backend, "render_mode", None),
        rays_cast=getattr(backend, "rays_cast", 0),
        data_plane=plane,
        bytes_pickled=getattr(runtime_obj, "bytes_pickled", 0),
        tiles_reused=getattr(backend, "tiles_reused", 0) - tiles_before,
        rays_saved=getattr(backend, "rays_saved", 0) - rays_saved_before,
    )
