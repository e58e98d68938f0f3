"""E9 — setup-overhead elimination by the persistent render service.

A one-shot ``run_raytracing_farm`` pays full runtime construction per frame:
scene preparation (content key and BVH build), render-backend
and shared-frame allocation, network build, fork-shared box/payload
registration and the process-pool fork itself.  The ``RenderService`` keeps
all of that warm per cached scene, so second-and-later jobs pay only the
render.

This benchmark is **1-CPU-safe**: it measures the *elimination of setup
overhead* on repeated jobs for one scene — not parallel speedup — so it
holds the farm shape (nodes/tasks/workers/section count) fixed across the
cold and warm arms.  The workload is sized so that setup is a significant
fraction of a cold job (dense 2000-sphere scene, small 64x64 frame): cold
jobs rebuild the BVH per call (fresh content-identical scene objects, which
is exactly what a one-shot service sees), warm jobs hit the scene cache.

Each job's clock covers the farm call or service request only: the test
builds the fresh scene object before starting it, in both arms.  Building
a 2000-sphere scene takes ~0.05 s (re-measured with the level-synchronous
BVH build and the array content key: 0.050 s), a constant in both arms
that belongs to neither path.  The warm arm's clock does include hashing that fresh object
to find the cached slot.  The two arms alternate job by job, and each is
summarised by its median: with all cold jobs first, a slow minute on a
shared host charged one arm alone.

Acceptance bars:

* the warm-served image is pixel-identical (``atol=1e-9``) to the one-shot
  ``run_raytracing_farm`` image;
* warm jobs are at least 1.3x faster than cold one-shot runs, comparing
  the medians of ``JOBS`` jobs per arm.  On a 2-vCPU container, with the
  per-node SAH build and per-object content key, it read 1.35-2.41x
  (cold 0.23-0.33 s, warm 0.12-0.17 s).  The level-synchronous build and
  the array key take most of the scene preparation out of the cold arm,
  and the warm arm's hash of the fresh object gets faster too.  Four runs
  then read 1.56-2.09x (cold 0.155-0.182 s, warm 0.083-0.112 s).  A faster
  cold path shrinks this ratio, and the bar stays where it is.  With the
  insertion-built BVH this repository used before the top-down build,
  cold jobs took 2.7 s and the ratio read 10.9x;
* the service metrics actually account for the cache: one cold build,
  ``JOBS`` warm hits, nonzero setup seconds saved.

Results go to the ``bench_json`` CI artifact when ``BENCH_RESULTS_DIR`` is
set, *and* to ``BENCH_4.json`` at the repository root so the perf
trajectory is readable straight from the checkout.
"""

import json
import os
import pathlib
import statistics
import time

import numpy as np
import pytest

from repro.apps import RenderJob, RenderService, run_raytracing_farm
from repro.raytracer.scene import paper_scene
from repro.snet.runtime import ProcessRuntime

WIDTH = HEIGHT = 64
NUM_SPHERES = 2000
NODES = 2
TASKS = 8
WORKERS = 2
JOBS = 5  # per arm
MIN_SPEEDUP = 1.3

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def make_scene():
    """A fresh, content-identical scene object (cold runs must rebuild its BVH)."""
    return paper_scene(num_spheres=NUM_SPHERES)


def run_one_shot(scene):
    start = time.perf_counter()
    run = run_raytracing_farm(
        "static",
        runtime="process",
        width=WIDTH,
        height=HEIGHT,
        nodes=NODES,
        tasks=TASKS,
        scene=scene,
        render_mode="fused",
        runtime_options={"workers": WORKERS},
        timeout=300.0,
    )
    return time.perf_counter() - start, run


def run_warm(service, scene):
    start = time.perf_counter()
    result = service.render(RenderJob(scene, nodes=NODES, tasks=TASKS), timeout=300.0)
    return time.perf_counter() - start, result


@pytest.mark.skipif(
    not ProcessRuntime.fork_available(),
    reason="the service benchmark runs on the process backend (needs fork)",
)
def test_service_warm_vs_cold(bench_json):
    cold_seconds = []
    warm_seconds = []
    oneshot = warm = None
    # warm arm: one persistent service; job 0 builds the slot, the rest hit it
    with RenderService(
        "process",
        width=WIDTH,
        height=HEIGHT,
        render_mode="fused",
        runtime_options={"workers": WORKERS},
    ) as service:
        first = service.render(
            RenderJob(make_scene(), nodes=NODES, tasks=TASKS), timeout=300.0
        )
        for job in range(JOBS):
            # alternate which arm goes first, so neither always follows
            # the other
            for cold in (True, False) if job % 2 else (False, True):
                scene = make_scene()
                if cold:  # a one-shot farm: full construction per job
                    seconds, oneshot = run_one_shot(scene)
                    cold_seconds.append(seconds)
                else:
                    seconds, warm = run_warm(service, scene)
                    warm_seconds.append(seconds)
                    assert warm.warm, "second-and-later jobs must hit the scene cache"
        metrics = service.metrics()

    cold_median = statistics.median(cold_seconds)
    warm_median = statistics.median(warm_seconds)
    speedup = cold_median / warm_median

    print()
    print(f"  cold one-shot : {cold_median:6.2f} s/job  {[f'{s:.2f}' for s in cold_seconds]}")
    print(f"  warm service  : {warm_median:6.2f} s/job  {[f'{s:.2f}' for s in warm_seconds]}")
    print(f"  speedup       : {speedup:6.2f} x")
    print(f"  slot build    : {first.seconds:6.2f} s (cold job 0, includes setup)")
    print(f"  setup saved   : {metrics.setup_seconds_saved:6.2f} s over {metrics.warm_hits} warm hits")

    payload = {
        "benchmark": "service_warm_vs_cold",
        "width": WIDTH,
        "height": HEIGHT,
        "num_spheres": NUM_SPHERES,
        "nodes": NODES,
        "tasks": TASKS,
        "workers": WORKERS,
        "render_mode": "fused",
        "cold_jobs": JOBS,
        "warm_jobs": JOBS,
        "cold_seconds_median": cold_median,
        "warm_seconds_median": warm_median,
        "speedup": speedup,
        "warm_hit_rate": metrics.warm_hit_rate,
        "setup_seconds_saved": metrics.setup_seconds_saved,
        "warm_bytes_pickled": int(metrics.bytes_pickled),
        "cpu_count": os.cpu_count(),
    }
    bench_json("service_warm_vs_cold", payload)
    # the repo-root trajectory file (in addition to the CI artifact)
    (REPO_ROOT / "BENCH_4.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # correctness first: the warm path renders the exact one-shot image
    np.testing.assert_allclose(warm.image, oneshot.image, atol=1e-9)
    np.testing.assert_allclose(first.image, oneshot.image, atol=1e-9)
    assert metrics.cold_builds == 1 and metrics.warm_hits == JOBS
    assert metrics.setup_seconds_saved > 0.0

    assert speedup >= MIN_SPEEDUP, (
        f"warm-service speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    )
