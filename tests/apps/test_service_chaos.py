"""RenderService chaos: the farm stays up through compute-node death.

The distributed backend's fault tolerance is pinned at the engine level in
``tests/snet/test_fault_tolerance.py``; this file pins it end-to-end at the
service boundary: a node worker SIGKILLed while (or between) rendering
frames must not lose the service — the frame comes out pixel-identical to
the one-shot oracle, the next job is served from the same warm slot, and
``ServiceMetrics.node_recoveries`` records that a death was survived.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.apps import RenderJob, RenderService, run_raytracing_farm
from repro.raytracer.scene import random_scene
from repro.snet.runtime import DistributedRuntime

SIZE = 32
TASKS = 8

pytestmark = [
    pytest.mark.usefixtures("no_process_leaks"),
    pytest.mark.skipif(
        not DistributedRuntime.fork_available(), reason="needs the fork start method"
    ),
]


@pytest.fixture(scope="module")
def scene():
    return random_scene(num_spheres=12, clustering=0.5, seed=21)


@pytest.fixture(scope="module")
def oracle(scene):
    """One-shot reference frame: same farm, no chaos."""
    run = run_raytracing_farm(
        "static", width=SIZE, height=SIZE, nodes=2, tasks=TASKS,
        scene=scene, render_mode="fused",
    )
    return run.image


def _distributed_service():
    return RenderService(
        "distributed",
        width=SIZE,
        height=SIZE,
        render_mode="fused",
        runtime_options={"nodes": 2},
    )


def test_service_survives_node_death_mid_frame(scene, oracle):
    with _distributed_service() as service:
        stop = threading.Event()
        killed = []

        def killer():
            # kill the first node worker that appears, while the first job
            # is being served — mid-frame when the timing lands there,
            # between fork and run otherwise; both must be survivable
            deadline = time.monotonic() + 60.0
            while not stop.is_set() and time.monotonic() < deadline:
                for slot in list(service._slots.values()):
                    pids = list(getattr(slot.runtime, "worker_pids", []))
                    if pids:
                        try:
                            os.kill(pids[0], signal.SIGKILL)
                        except ProcessLookupError:  # pragma: no cover
                            return
                        killed.append(pids[0])
                        return
                time.sleep(0.002)

        thread = threading.Thread(target=killer, name="chaos-killer")
        thread.start()
        try:
            first = service.submit(RenderJob(scene, nodes=2, tasks=TASKS)).result(180)
        finally:
            stop.set()
            thread.join(10.0)
        assert killed, "the chaos thread never saw a node worker to kill"
        np.testing.assert_allclose(first.image, oracle, atol=1e-9)

        # the service keeps serving from the same warm slot afterwards
        second = service.submit(RenderJob(scene, nodes=2, tasks=TASKS)).result(180)
        assert second.warm
        np.testing.assert_allclose(second.image, oracle, atol=1e-9)
        assert service.metrics().node_recoveries >= 1


def test_service_revives_workers_killed_between_jobs(scene, oracle):
    with _distributed_service() as service:
        first = service.render(RenderJob(scene, nodes=2, tasks=TASKS), timeout=180)
        np.testing.assert_allclose(first.image, oracle, atol=1e-9)

        slot = next(iter(service._slots.values()))
        victim = slot.runtime.worker_pids[0]
        os.kill(victim, signal.SIGKILL)

        second = service.render(RenderJob(scene, nodes=2, tasks=TASKS), timeout=180)
        assert second.warm
        np.testing.assert_allclose(second.image, oracle, atol=1e-9)
        assert second.node_recoveries >= 1
        assert service.metrics().node_recoveries >= 1
        assert victim not in slot.runtime.worker_pids
