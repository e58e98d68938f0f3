"""E10 — fault-tolerance bookkeeping is (nearly) free on the happy path.

PR 6 gives the distributed runtime an in-flight ledger: every cross-
partition batch is journalled (by reference) until the worker acknowledges
``EOS``, which is what lets a dead node's work be re-dispatched to a
replacement.  The ledger must not tax runs where nothing dies — the
paper's runtime keeps its fault-tolerance machinery out of the steady-state
data path, and so must ours:

* **time** — a warm distributed frame with fault tolerance ON costs at
  most **1.1x** the same frame with fault tolerance OFF (measured ~1.0x:
  the journal is a list append of references per batch, no serialization,
  no copies);
* **wire** — journalling adds **zero** wire bytes: both configurations
  account the same frames on the links (within 2% — batch boundaries can
  shift with thread timing);
* **conformance** — both frames stay pixel-identical (``atol=1e-9``) to
  the threaded oracle.

Each configuration is timed as the median of ``RUNS`` warm runs
(setup/fork excluded), which keeps a loaded one-core CI runner from turning
scheduler noise into a verdict.  Both runtimes stay warm side by side and
alternate run by run, so a slow window of a shared host hits both alike.
Fused frames take ~0.15 s on a 2-vCPU host and spread +-20 % run to run;
there the *minimum* of 30 runs per arm moved 1.02-1.13x between two
identical-cost arms (one lucky-fast run decides it), while the median
stayed within 2 %.  Timings go to the ``bench_json`` CI artifact when
``BENCH_RESULTS_DIR`` is set, *and* to ``BENCH_6.json`` at the repository
root so the perf trajectory is readable straight from the checkout.
"""

import json
import os
import pathlib
import statistics
import time

import numpy as np
import pytest

from repro.apps.networks import build_static_network
from repro.apps.runner import build_farm_backend, farm_inputs
from repro.apps.workloads import extract_image
from repro.raytracer.scene import paper_scene
from repro.snet.runtime import DistributedRuntime, ThreadedRuntime

WIDTH = HEIGHT = 64
NUM_SPHERES = 1000
TASKS = 8
NODES = 2
RUNS = 30
MAX_FT_OVERHEAD = 1.1
MAX_WIRE_RATIO = 1.02

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

fork_only = pytest.mark.skipif(
    not DistributedRuntime.fork_available(), reason="needs the fork start method"
)


def _build_farm(scene):
    backend = build_farm_backend(scene, WIDTH, HEIGHT, "records", "fused")
    network = build_static_network(backend, render_mode="fused")
    inputs = farm_inputs("static", scene, nodes=NODES, tasks=TASKS)
    return backend, network, inputs


class _Config:
    """One warm farm on a distributed runtime with or without fault tolerance."""

    def __init__(self, scene, fault_tolerance):
        self.backend, self.network, self.inputs = _build_farm(scene)
        self.runtime = DistributedRuntime(nodes=NODES, fault_tolerance=fault_tolerance)
        self.runtime.setup(self.network, broadcast=(scene,))
        self.seconds = []

    def timed_run(self):
        self.backend.begin_job()
        start = time.perf_counter()
        self.runtime.run(self.network, list(self.inputs), timeout=150.0)
        self.seconds.append(time.perf_counter() - start)

    def result(self):
        assert self.runtime.recoveries == 0  # the happy path: nothing died
        return (
            extract_image(self.backend),
            statistics.median(self.seconds),
            self.runtime.bytes_pickled,
        )


def _measure_warm(scene):
    """Median-of-RUNS warm frame seconds, fault tolerance off and on."""
    configs = []
    try:
        off = _Config(scene, fault_tolerance=False)
        configs.append(off)
        on = _Config(scene, fault_tolerance=True)
        configs.append(on)
        for _ in range(RUNS):
            off.timed_run()
            on.timed_run()
        return off.result(), on.result()
    finally:
        for config in configs:
            config.runtime.teardown()


@fork_only
def test_fault_tolerance_overhead(bench_json):
    scene = paper_scene(num_spheres=NUM_SPHERES)
    scene.prepare_for_broadcast()  # build the BVH once, outside every timing

    backend, network, inputs = _build_farm(scene)
    backend.begin_job()
    ThreadedRuntime().run(network, inputs, timeout=150.0)
    oracle = extract_image(backend)

    (image_off, seconds_off, wire_off), (image_on, seconds_on, wire_on) = _measure_warm(
        scene
    )

    # conformance first: a fast wrong answer is not an optimisation
    np.testing.assert_allclose(image_off, oracle, atol=1e-9)
    np.testing.assert_allclose(image_on, oracle, atol=1e-9)

    overhead = seconds_on / seconds_off
    assert overhead <= MAX_FT_OVERHEAD, (seconds_on, seconds_off)

    # the journal holds references: nothing extra crosses the links
    assert wire_on > 0 and wire_off > 0
    wire_ratio = wire_on / wire_off
    assert wire_ratio <= MAX_WIRE_RATIO, (wire_on, wire_off)

    payload = {
        "benchmark": "fault_tolerance_overhead",
        "width": WIDTH,
        "height": HEIGHT,
        "tasks": TASKS,
        "nodes": NODES,
        "num_spheres": NUM_SPHERES,
        "runs": RUNS,
        "cpu_count": os.cpu_count(),
        "seconds_ft_off": seconds_off,
        "seconds_ft_on": seconds_on,
        "overhead_factor": overhead,
        "wire_bytes_ft_off": wire_off,
        "wire_bytes_ft_on": wire_on,
        "wire_ratio": wire_ratio,
    }
    bench_json("fault_tolerance_overhead", payload)
    (REPO_ROOT / "BENCH_6.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"\nfault tolerance on vs off: {seconds_on:.3f}s vs {seconds_off:.3f}s "
        f"(x{overhead:.3f}); wire {wire_on / 1024:.0f} KiB vs "
        f"{wire_off / 1024:.0f} KiB (x{wire_ratio:.3f})"
    )
