"""Direct-call probes: per-layer numbers no wrapper in the parent can see.

What runs inside fork workers (the kernel) or only at set-up (BVH build,
network analysis, fork) is timed here by calling each layer's public
functions on the workload's own generated scene, in a child of the benchmark
process (the probes fork workers of their own), after the serving process is
gone.  Every probe touches public API only.  The last line printed is the
probes' metrics as one JSON object.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from e2e_workloads import (  # noqa: E402
    Workload, animation_scene, camera_of, commit_mover_edit, mover_rng, scene_spec)
from repro.apps.runner import FARM_VARIANTS, build_warm_runtime, farm_inputs, resolve_data_plane
from repro.apps.service import RenderJob, RenderService
from repro.apps.workloads import scene_from_spec
from repro.raytracer.flatbvh import scene_flat_index
from repro.raytracer.geometry.primitives import Sphere
from repro.raytracer.mutation import scene_content_key
from repro.raytracer.tracer import render_section, reset_scratch_stats, scratch_stats
from repro.scheduling.block import BlockScheduler
from repro.snet.analysis import analyze_network
from repro.snet.records import Record
from repro.snet.runtime import get_runtime, run_on
from repro.snet.runtime.data_plane import dumps_records, loads_records

REPEATS = 3
EDIT_OPS = 40
COLD_PROBED = 3  # scenes of a never-repeating workload the kernel probes average over


def timed(func: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    value = func()
    return time.perf_counter() - start, value


def median_of(func: Callable[[], Any], repeats: int = REPEATS) -> float:
    return statistics.median(timed(func)[0] for _ in range(repeats))


def fresh_scene(workload: Workload, seed: int,
                request: int = 0) -> Tuple[Any, Callable[[Any], None]]:
    """A new copy of the scene of request ``request``, and a 40-op edit for it."""
    if workload.mode == "animation":
        scene, movers, homes = animation_scene(workload, seed)
        rng = mover_rng(seed)
        return scene, lambda s: commit_mover_edit(s, movers, homes, rng)
    scene = scene_from_spec(scene_spec(workload, seed, request))

    def edit(target: Any) -> None:
        spheres = [o for o in target.bounded_objects if isinstance(o, Sphere)][:EDIT_OPS]
        editor = target.begin_edit()
        for sphere in spheres:
            editor.update(sphere, center=sphere.center + 0.01)
        editor.commit()

    return scene, edit


def raytracer_probes(workload: Workload, seed: int) -> Dict[str, float]:
    """Tree and kernel numbers: the mean over the scenes the timed requests mix.

    A random scene's kernel cost differs by a tenth from one scene seed to the
    next, so the probes cover every scene a repeated-scene workload rotates
    over (the first ``COLD_PROBED`` of a never-repeating one); a probe of one
    scene would not be comparable with the latency of the mix.
    """
    sections = BlockScheduler(workload.tasks).sections(workload.height)
    columns: Dict[str, List[float]] = {name: [] for name in (
        "raytracer.bvh_build_s", "raytracer.flat_compile_s", "raytracer.node_visits",
        "raytracer.rays_cast", "raytracer.kernel_s")}
    reset_scratch_stats()
    for request in range(workload.scenes or COLD_PROBED):
        scene, _ = fresh_scene(workload, seed, request)
        build_s, _ = timed(scene.build_index)
        compile_s, flat = timed(lambda: scene_flat_index(scene))
        camera = camera_of(workload, scene)

        def frame(touch: bool = False) -> List[Any]:
            return [render_section(scene, camera, s.y_start, s.y_end, s.index,
                                   mode="fused", touch=touch) for s in sections]

        stats = getattr(flat, "stats", None)  # a brute-force index keeps no counters
        visits_before = stats.node_visits if stats else 0
        first_s, chunks = timed(frame)
        visits = (stats.node_visits if stats else 0) - visits_before
        kernel_s = statistics.median([first_s, timed(frame)[0], timed(frame)[0]])
        for name, value in zip(columns, (build_s, compile_s, visits,
                                         sum(chunk.rays_cast for chunk in chunks), kernel_s)):
            columns[name].append(value)
    out = {name: statistics.mean(values) for name, values in columns.items()}
    scratch = scratch_stats()
    out["raytracer.scratch_reuse_ratio"] = scratch["reuses"] / max(
        1, scratch["reuses"] + scratch["allocations"])
    out["raytracer.rays_per_s"] = out["raytracer.rays_cast"] / out["raytracer.kernel_s"]
    # capture cost, on the last scene: a ratio of two timings of the same frame
    out["raytracer.touch_overhead_ratio"] = median_of(lambda: frame(touch=True)) / kernel_s
    return out


def gateway_probes(workload: Workload, seed: int) -> Dict[str, float]:
    spec = scene_spec(workload, seed, 0)
    return {"gateway.scene_spec_s": median_of(lambda: scene_from_spec(spec))}


def mutation_probes(workload: Workload, seed: int) -> Dict[str, float]:
    scene, edit = fresh_scene(workload, seed)
    out = {"service.content_key_s": timed(lambda: scene_content_key(scene))[0]}
    scene.build_index()  # a commit refits the tree it finds
    out["mutation.commit_s"] = median_of(lambda: edit(scene))
    edit(scene)
    out["service.content_key_edit_s"] = timed(lambda: scene_content_key(scene))[0]
    return out


def pipeline_probes(workload: Workload, seed: int, workers: int,
                    kernel_s: float) -> Dict[str, float]:
    """Runner, runtime, data plane and service, on one set of warm parts."""
    w = workload
    scene, _ = fresh_scene(w, seed)
    out: Dict[str, float] = {}
    plane = resolve_data_plane("auto", "process")
    out["runner.build_warm_runtime_s"], parts = timed(lambda: build_warm_runtime(
        scene, w.variant, width=w.width, height=w.height, plane=plane,
        render_mode="fused", runtime="process"))
    try:
        def job() -> Any:
            parts.backend.begin_job()
            inputs = farm_inputs(w.variant, scene, nodes=w.nodes, tasks=w.tasks)
            return run_on(parts.runtime, parts.network, inputs, timeout=120.0)

        job()  # the first run pays lazy per-worker set-up
        out["runtime.run_s"] = median_of(job)
        out["runtime.fused_chains"] = parts.runtime.fused_chains
        out["runtime.overhead_s"] = out["runtime.run_s"] - kernel_s / workers
        out["runtime.overhead_per_task_s"] = out["runtime.overhead_s"] / w.tasks
        out["runner.network_build_s"] = median_of(
            lambda: FARM_VARIANTS[w.variant](parts.backend, None, render_mode="fused"))
        out["analysis.check_s"] = median_of(lambda: analyze_network(parts.network))

        sections = BlockScheduler(w.tasks).sections(w.height)
        records = [Record({"chunk": parts.backend.render_section(s), "<tasks>": w.tasks})
                   for s in sections]
        out["data_plane.dumps_s"] = median_of(lambda: dumps_records(records))
        payload, buffers, out["data_plane.batch_bytes"] = dumps_records(records)
        out["data_plane.loads_s"] = median_of(lambda: loads_records(payload, buffers))

        other = get_runtime("process", check="off")
        try:
            out["runtime.fork_setup_s"], _ = timed(
                lambda: other.setup(parts.network, broadcast=(scene,)))
        finally:
            other.teardown()
    finally:
        def teardown() -> None:
            parts.runtime.teardown()
            parts.backend.release()

        out["runner.teardown_s"], _ = timed(teardown)

    with RenderService("process", width=w.width, height=w.height,
                       render_mode="fused") as service:
        def render() -> Any:
            return service.render(
                RenderJob(scene, nodes=w.nodes, tasks=w.tasks, variant=w.variant),
                timeout=120.0)

        render()
        out["service.self_s"] = median_of(render) - out["runtime.run_s"]
    return out


def run_probes(workload: Workload, seed: int, workers: int) -> Dict[str, float]:
    out = raytracer_probes(workload, seed)
    out.update(gateway_probes(workload, seed))
    out.update(mutation_probes(workload, seed))
    out.update(pipeline_probes(workload, seed, workers, out["raytracer.kernel_s"]))
    return out


if __name__ == "__main__":
    print(json.dumps(run_probes(Workload(**json.loads(sys.argv[1])),
                                int(sys.argv[2]), int(sys.argv[3]))))
