"""E8 — measured end-to-end win of the zero-copy shared-memory data plane.

PR 1 gave the farm a real process backend and PR 2 a vectorized solver, but
the process *data plane* still pickled the scene (plus its BVH) into every
solver batch and shipped every rendered chunk back as a pickled float64
array.  The zero-copy plane broadcasts the scene through the fork-shared
registry once, renders into a ``multiprocessing.shared_memory`` frame
buffer, and passes only metadata records — this benchmark measures both the
wall-clock effect and the serialization-volume effect on the paper-sized
workload (the 300-sphere reference scene at 256x256, fused solver).

The workload is a dense variant of the paper's reference scene (2000
spheres): the original measurement renders a heavyweight 3000x3000 scene,
so the serialized scene-plus-BVH description (~1.1 MB here) is the part of
the record payload the legacy plane keeps re-shipping — 64 sections at one
record per batch re-pickle it 64 times per frame, which is exactly the
pathology the broadcast layer removes.

Acceptance bars:

* images from both planes are pixel-identical to the sequential fused
  render (and therefore to each other);
* the shared plane is at least 1.3x faster end-to-end than the PR 2
  record-pickling plane under identical batching (measured ~1.5x on one
  core; the bar leaves headroom for loaded CI runners);
* the instrumented counter shows at least a 10x reduction in bytes pickled
  per frame (measured ~1900x).

Timings go to the ``bench_json`` CI artifact when ``BENCH_RESULTS_DIR`` is
set, *and* to ``BENCH_3.json`` at the repository root so the perf
trajectory is readable straight from the checkout.
"""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.apps import run_raytracing_farm
from repro.raytracer import Camera, render
from repro.raytracer.scene import paper_scene
from repro.snet.runtime import ProcessRuntime

WIDTH = HEIGHT = 256
NUM_SPHERES = 2000
TASKS = 64
NODES = 4
WORKERS = 2
MIN_SPEEDUP = 1.3
MIN_BYTES_REDUCTION = 10.0

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_plane(scene, data_plane: str, zero_copy: bool):
    return run_raytracing_farm(
        "static",
        runtime="process",
        width=WIDTH,
        height=HEIGHT,
        nodes=NODES,
        tasks=TASKS,
        scene=scene,
        render_mode="fused",
        data_plane=data_plane,
        # identical batching on both planes: the comparison isolates the
        # data plane itself, not the autotuner
        runtime_options={"workers": WORKERS, "chunk_size": 1, "zero_copy": zero_copy},
        timeout=600.0,
    )


@pytest.mark.skipif(
    not ProcessRuntime.fork_available(),
    reason="process backend needs the fork start method",
)
def test_shared_memory_speedup(bench_json):
    scene = paper_scene(num_spheres=NUM_SPHERES)
    scene.index  # build the BVH once up front; both planes start prepared
    reference = render(scene, Camera(width=WIDTH, height=HEIGHT), mode="fused")

    # both planes go through the runtime's explicit protocol-5 serializer
    # (the instrumentation layer), so the records baseline pays one extra
    # memcpy of pre-pickled bytes per batch vs the literal PR 2 pool pickler
    # — sub-millisecond against the ~110 ms/batch of scene object-graph
    # pickling this PR eliminates, i.e. the comparison is fair to <3%
    records = _run_plane(scene, data_plane="records", zero_copy=False)
    shared = _run_plane(scene, data_plane="shared", zero_copy=True)

    speedup = records.seconds / shared.seconds
    bytes_reduction = records.bytes_pickled / max(1, shared.bytes_pickled)

    print()
    print(f"  records plane: {records.seconds:7.2f} s  "
          f"({records.bytes_pickled / 1e6:8.2f} MB pickled)")
    print(f"  shared plane : {shared.seconds:7.2f} s  "
          f"({shared.bytes_pickled / 1e6:8.2f} MB pickled)")
    print(f"  speedup      : {speedup:7.2f} x")
    print(f"  bytes ratio  : {bytes_reduction:7.1f} x")

    payload = {
        "benchmark": "shared_memory_speedup",
        "width": WIDTH,
        "height": HEIGHT,
        "num_spheres": NUM_SPHERES,
        "tasks": TASKS,
        "workers": WORKERS,
        "render_mode": "fused",
        "records_seconds": records.seconds,
        "shared_seconds": shared.seconds,
        "speedup": speedup,
        "records_bytes_pickled": records.bytes_pickled,
        "shared_bytes_pickled": shared.bytes_pickled,
        "bytes_reduction": bytes_reduction,
        "rays_cast": int(shared.rays_cast),
        "cpu_count": os.cpu_count(),
    }
    bench_json("shared_memory_speedup", payload)
    # the repo-root trajectory file the feature-requester reads (in addition
    # to the CI artifact): wall-clock and bytes-pickled-per-frame together
    (REPO_ROOT / "BENCH_3.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # correctness first: both planes compute the exact sequential image
    np.testing.assert_allclose(records.image, reference, atol=1e-9)
    np.testing.assert_allclose(shared.image, reference, atol=1e-9)
    assert shared.rays_cast == records.rays_cast

    assert bytes_reduction >= MIN_BYTES_REDUCTION, (
        f"bytes-pickled reduction {bytes_reduction:.1f}x < {MIN_BYTES_REDUCTION}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"shared-memory data plane speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    )
