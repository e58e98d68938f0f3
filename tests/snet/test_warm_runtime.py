"""The engines' warm lifecycle: setup/teardown split out of the per-run path.

PR 4 makes runtime instances reusable (the render service runs many jobs on
one runtime): ``ThreadedRuntime.run`` resets per-run state on entry, and
``ProcessRuntime.setup()`` hoists box registration, payload broadcast and
the pool fork out of ``run()`` so consecutive runs share one warm pool.
"""

import os
import signal
import time

import numpy as np
import pytest

import repro.snet.runtime.data_plane as data_plane
import repro.snet.runtime.link as link
from repro.apps.backends import RealRenderBackend, SharedFrameRenderBackend
from repro.apps.networks import build_static_network
from repro.apps.workloads import extract_image, initial_record
from repro.raytracer import Camera, render
from repro.raytracer.scene import random_scene
from repro.snet.boxes import box
from repro.snet.errors import RuntimeError_
from repro.snet.records import Record
from repro.snet.runtime import DistributedRuntime, ProcessRuntime, ThreadedRuntime

pytestmark = pytest.mark.usefixtures("no_process_leaks")

fork_only = pytest.mark.skipif(
    not ProcessRuntime.fork_available(),
    reason="warm pool tests need the fork start method",
)


@pytest.fixture
def farm():
    scene = random_scene(num_spheres=10, seed=3)
    camera = Camera(width=24, height=24)
    reference = render(scene, camera, mode="fused")
    return scene, camera, reference


def test_threaded_runtime_instance_is_reusable(farm):
    scene, camera, reference = farm
    backend = RealRenderBackend(scene, camera, render_mode="fused")
    network = build_static_network(backend)
    runtime = ThreadedRuntime()
    for _ in range(3):
        backend.begin_job()
        runtime.run(network, [initial_record(scene, nodes=2, tasks=4)], timeout=30.0)
        np.testing.assert_allclose(extract_image(backend), reference, atol=1e-9)


def test_threaded_runtime_forgets_previous_errors():
    @box("(x) -> (y)")
    def boom(x):
        raise ValueError("kaboom")

    @box("(x) -> (y)")
    def ok(x):
        return {"y": x + 1}

    runtime = ThreadedRuntime()
    with pytest.raises(RuntimeError_):
        runtime.run(boom, [Record({"x": 1})], timeout=10.0)
    # a failed run must not poison the next one on the same instance
    outputs = runtime.run(ok, [Record({"x": 1})], timeout=10.0)
    assert [rec.field("y") for rec in outputs] == [2]
    assert runtime.errors == []


def test_threaded_lifecycle_tracks_warm_state_without_resources():
    runtime = ThreadedRuntime()
    assert not runtime.is_warm
    with runtime as same:
        assert same is runtime
        assert runtime.setup(None) is runtime
        assert runtime.is_warm
    # the context manager exit tears down: warm flag cleared, nothing held
    assert not runtime.is_warm
    runtime.teardown()  # idempotent


@fork_only
def test_warm_process_runtime_serves_repeated_runs(farm):
    scene, camera, reference = farm
    backend = SharedFrameRenderBackend(scene, camera, render_mode="fused")
    network = build_static_network(backend)
    runtime = ProcessRuntime(workers=2)
    try:
        runtime.setup(network, broadcast=(scene,))
        assert runtime.is_warm
        per_run_bytes = []
        for _ in range(3):
            backend.begin_job()
            runtime.run(
                network, [initial_record(scene, nodes=2, tasks=4)], timeout=60.0
            )
            np.testing.assert_allclose(extract_image(backend), reference, atol=1e-9)
            per_run_bytes.append(runtime.bytes_pickled)
        # stats are per run, and the warm plane ships metadata only: the
        # broadcast scene must never be re-pickled into a warm batch
        assert all(0 < b < 64_000 for b in per_run_bytes), per_run_bytes
    finally:
        runtime.teardown()
        backend.release()
    assert not runtime.is_warm


@fork_only
def test_warm_pool_replaced_after_its_workers_die_between_runs(farm):
    # one idle worker holds the task queue's reader lock; killing every
    # worker takes it down with them, which wedges the pool (and its
    # terminate()) for good — the next run must fork a fresh pool instead
    scene, camera, reference = farm
    backend = SharedFrameRenderBackend(scene, camera, render_mode="fused")
    network = build_static_network(backend)
    runtime = ProcessRuntime(workers=2)
    try:
        runtime.setup(network, broadcast=(scene,))
        runtime.run(network, [initial_record(scene, nodes=2, tasks=4)], timeout=60.0)
        victims = runtime.worker_pids
        assert len(victims) == 2
        for pid in victims:
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while set(runtime.worker_pids) & set(victims) and time.monotonic() < deadline:
            time.sleep(0.005)
        backend.begin_job()
        runtime.run(network, [initial_record(scene, nodes=2, tasks=4)], timeout=60.0)
        np.testing.assert_allclose(extract_image(backend), reference, atol=1e-9)
        assert not set(runtime.worker_pids) & set(victims)
    finally:
        runtime.teardown()
        backend.release()
    assert runtime.worker_pids == []


@fork_only
def test_setup_twice_rejected_and_teardown_cleans_registries(farm):
    scene, camera, _ = farm
    backend = SharedFrameRenderBackend(scene, camera, render_mode="fused")
    network = build_static_network(backend)
    boxes_before = dict(link._TEMPLATES)
    shared_before = dict(data_plane._SHARED_OBJECTS)
    runtime = ProcessRuntime(workers=1)
    try:
        runtime.setup(network, broadcast=(scene,))
        with pytest.raises(RuntimeError_):
            runtime.setup(network)
    finally:
        runtime.teardown()
        runtime.teardown()  # idempotent
        backend.release()
    assert link._TEMPLATES == boxes_before
    assert data_plane._SHARED_OBJECTS == shared_before


@fork_only
def test_warm_distributed_runtime_serves_repeated_runs(farm):
    """The farm's `solver !@ <node>` partitions render on warm node workers.

    Same shape as the warm process-pool test: one setup, several runs, each
    pixel-identical, with the broadcast scene never re-shipped (per-run wire
    bytes stay in metadata territory) and the node workers not re-forked.
    """
    scene, camera, reference = farm
    backend = RealRenderBackend(scene, camera, render_mode="fused")
    network = build_static_network(backend)
    runtime = DistributedRuntime(nodes=2)
    try:
        runtime.setup(network, broadcast=(scene,))
        assert runtime.is_warm
        pids = list(runtime.worker_pids)
        assert len(pids) == 2
        per_run_bytes = []
        for _ in range(3):
            backend.begin_job()
            runtime.run(
                network, [initial_record(scene, nodes=2, tasks=4)], timeout=60.0
            )
            np.testing.assert_allclose(extract_image(backend), reference, atol=1e-9)
            per_run_bytes.append(runtime.bytes_pickled)
        assert runtime.worker_pids == pids  # the same node workers served all runs
        # the pixel chunks must cross the wire, the scene must not: per-run
        # wire volume stays far below a single scene serialization per batch
        assert all(0 < b < 256_000 for b in per_run_bytes), per_run_bytes
    finally:
        runtime.teardown()
    assert not runtime.is_warm


def test_setup_degrades_with_warning_without_fork(farm, monkeypatch):
    scene, camera, reference = farm
    monkeypatch.setattr(ProcessRuntime, "fork_available", staticmethod(lambda: False))
    backend = RealRenderBackend(scene, camera, render_mode="fused")
    network = build_static_network(backend)
    runtime = ProcessRuntime(workers=2)
    with pytest.warns(RuntimeWarning, match="fork"):
        runtime.setup(network, broadcast=(scene,))
    try:
        assert runtime.is_warm
        runtime.run(network, [initial_record(scene, nodes=2, tasks=4)], timeout=30.0)
        np.testing.assert_allclose(extract_image(backend), reference, atol=1e-9)
    finally:
        runtime.teardown()
