"""The persistent render service: warm slots, scheduling, backpressure, EOS.

The last test group pins the ``stream.try_get`` None-vs-EOS contract at the
service boundary: a momentarily empty job queue (``try_get() -> None``) must
never be mistaken for a closed job stream (blocking ``get() -> None`` after
``close()``), and closing must drain — not drop — already-accepted jobs.
"""

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.apps import (
    RenderJob,
    RenderService,
    ServiceClosed,
    ServiceOverloaded,
    run_raytracing_farm,
    scene_content_key,
)
from repro.apps.workloads import animation_scenes
from repro.raytracer.scene import random_scene
from repro.snet.runtime import ProcessRuntime

pytestmark = pytest.mark.usefixtures("no_process_leaks")

SIZE = 24  # tiny frames: these tests exercise coordination, not rendering


@pytest.fixture
def scene():
    return random_scene(num_spheres=8, seed=5)


@pytest.fixture
def service():
    svc = RenderService(width=SIZE, height=SIZE, render_mode="fused")
    yield svc
    svc.close(cancel_pending=True, timeout=30.0)


def gate_first_execution(svc):
    """Hold the first executed job until the returned event is set."""
    gate = threading.Event()
    entered = threading.Event()
    original = svc._slot_for
    state = {"first": True}

    def gated(job):
        if state["first"]:
            state["first"] = False
            entered.set()
            assert gate.wait(30.0), "test gate never released"
        return original(job)

    svc._slot_for = gated
    return gate, entered


# -- warm serving ------------------------------------------------------------
def test_second_job_is_warm_and_pixel_identical(service, scene):
    first = service.render(RenderJob(scene, nodes=2, tasks=4), timeout=60.0)
    second = service.render(RenderJob(scene, nodes=2, tasks=4), timeout=60.0)
    assert (first.warm, second.warm) == (False, True)
    oneshot = run_raytracing_farm(
        "static", width=SIZE, height=SIZE, nodes=2, tasks=4,
        scene=random_scene(num_spheres=8, seed=5), render_mode="fused",
    )
    np.testing.assert_allclose(first.image, oneshot.image, atol=1e-9)
    np.testing.assert_allclose(second.image, oneshot.image, atol=1e-9)
    metrics = service.metrics()
    assert metrics.warm_hits == 1 and metrics.cold_builds == 1
    assert metrics.warm_hit_rate == pytest.approx(0.5)
    assert metrics.setup_seconds_saved > 0.0
    assert second.rays_cast == first.rays_cast > 0


def test_cache_keys_by_content_not_identity(service):
    twin_a = random_scene(num_spheres=6, seed=9)
    twin_b = random_scene(num_spheres=6, seed=9)
    assert twin_a is not twin_b
    assert scene_content_key(twin_a) == scene_content_key(twin_b)
    first = service.render(RenderJob(twin_a), timeout=60.0)
    second = service.render(RenderJob(twin_b), timeout=60.0)
    assert (first.warm, second.warm) == (False, True)
    assert first.scene_key == second.scene_key


def test_animation_loop_replays_warm(service):
    # rebuild=True: fresh content-twin scenes per pass, exercising the scene
    # cache (the in-place AnimationSequence path is pinned by
    # tests/apps/test_incremental_pixels.py instead)
    frames = animation_scenes(3, num_spheres=5, rebuild=True)
    for frame in frames:  # first pass: every keyframe builds cold
        assert not service.render(RenderJob(frame, tasks=2), timeout=60.0).warm
    for frame in animation_scenes(3, num_spheres=5, rebuild=True):
        assert service.render(RenderJob(frame, tasks=2), timeout=60.0).warm
    metrics = service.metrics()
    assert metrics.cold_builds == 3 and metrics.warm_hits == 3


def test_lru_eviction_bounds_the_cache(scene):
    svc = RenderService(
        width=SIZE, height=SIZE, render_mode="fused", max_scenes=1
    )
    try:
        other = random_scene(num_spheres=4, seed=1)
        assert not svc.render(RenderJob(scene, tasks=2), timeout=60.0).warm
        assert not svc.render(RenderJob(other, tasks=2), timeout=60.0).warm
        # the first scene was evicted by the second: cold again
        assert not svc.render(RenderJob(scene, tasks=2), timeout=60.0).warm
        metrics = svc.metrics()
        assert metrics.cold_builds == 3 and metrics.scenes_cached == 1
    finally:
        svc.close(timeout=30.0)


def test_failed_job_reports_via_future_and_service_survives(service, scene):
    bad = service.submit(RenderJob(scene, variant="dynamic", tasks=4, tokens=99))
    with pytest.raises(ValueError, match="tokens"):
        bad.result(timeout=60.0)
    good = service.render(RenderJob(scene, tasks=2), timeout=60.0)
    assert good.image.shape == (SIZE, SIZE, 3)
    assert service.metrics().jobs_failed == 1


def test_submit_validates_eagerly(service, scene):
    with pytest.raises(ValueError, match="variant"):
        service.submit(RenderJob(scene, variant="nope"))
    with pytest.raises(TypeError):
        service.submit(RenderJob(scene="not a scene"))


def test_render_mode_resolved_and_validated_at_construction():
    # an unknown mode fails fast, before any job or worker exists
    with pytest.raises(ValueError, match="render mode"):
        RenderService(width=SIZE, height=SIZE, render_mode="packet")
    with RenderService(width=SIZE, height=SIZE) as svc:
        assert svc.render_mode == "fused"


# -- scheduling and backpressure ---------------------------------------------
def test_higher_priority_jobs_run_first(service, scene):
    gate, entered = gate_first_execution(service)
    done_order = []

    def track(label):
        return lambda fut: done_order.append(label)

    service.submit(RenderJob(scene, tasks=2, label="gate")).add_done_callback(
        track("gate")
    )
    assert entered.wait(30.0)
    low = service.submit(RenderJob(scene, tasks=2, priority=0, label="low"))
    high = service.submit(RenderJob(scene, tasks=2, priority=5, label="high"))
    low.add_done_callback(track("low"))
    high.add_done_callback(track("high"))
    gate.set()
    assert low.result(60.0).image is not None
    assert high.result(60.0).image is not None
    assert done_order == ["gate", "high", "low"]


def test_reject_policy_raises_when_queue_full(scene):
    svc = RenderService(
        width=SIZE, height=SIZE, render_mode="fused",
        max_queue=1, overflow="reject",
    )
    try:
        gate, entered = gate_first_execution(svc)
        first = svc.submit(RenderJob(scene, tasks=2))
        assert entered.wait(30.0)
        with pytest.raises(ServiceOverloaded):
            svc.submit(RenderJob(scene, tasks=2))
        gate.set()
        first.result(60.0)
        assert svc.metrics().jobs_rejected == 1
    finally:
        gate.set()
        svc.close(timeout=30.0)


def test_block_policy_waits_for_space(scene):
    svc = RenderService(
        width=SIZE, height=SIZE, render_mode="fused",
        max_queue=1, overflow="block",
    )
    try:
        gate, entered = gate_first_execution(svc)
        first = svc.submit(RenderJob(scene, tasks=2))
        assert entered.wait(30.0)
        second_future = {}

        def blocked_submit():
            second_future["future"] = svc.submit(RenderJob(scene, tasks=2))

        submitter = threading.Thread(target=blocked_submit, daemon=True)
        submitter.start()
        submitter.join(0.3)
        assert submitter.is_alive(), "submit should block while the queue is full"
        gate.set()
        submitter.join(30.0)
        assert not submitter.is_alive()
        assert first.result(60.0).image is not None
        assert second_future["future"].result(60.0).image is not None
    finally:
        gate.set()
        svc.close(timeout=30.0)


# -- the try_get None-vs-EOS contract at the service boundary ------------------
def test_idle_queue_is_not_end_of_stream(service, scene):
    """try_get() -> None while writers are open means "empty now", not EOS."""
    service.render(RenderJob(scene, tasks=2), timeout=60.0)
    time.sleep(0.3)  # the scheduler sees an empty queue for a while
    assert service.state == "running"
    # ...and the service still accepts and serves jobs afterwards
    assert service.render(RenderJob(scene, tasks=2), timeout=60.0).warm


def test_close_drains_accepted_jobs_before_stopping(scene):
    """EOS is get() -> None: writer closed AND queue drained — never early."""
    svc = RenderService(width=SIZE, height=SIZE, render_mode="fused")
    gate, entered = gate_first_execution(svc)
    first = svc.submit(RenderJob(scene, tasks=2))
    assert entered.wait(30.0)
    queued = [svc.submit(RenderJob(scene, tasks=2)) for _ in range(3)]
    closer = threading.Thread(target=lambda: svc.close(timeout=60.0), daemon=True)
    closer.start()
    time.sleep(0.1)
    assert svc.state == "draining"
    with pytest.raises(ServiceClosed):
        svc.submit(RenderJob(scene, tasks=2))
    gate.set()
    closer.join(60.0)
    assert svc.state == "closed"
    assert first.result(0).image is not None
    for future in queued:  # accepted before close() -> executed, not dropped
        assert future.result(0).warm
    assert svc.metrics().jobs_served == 4


def test_close_cancel_pending_cancels_queued_jobs(scene):
    svc = RenderService(width=SIZE, height=SIZE, render_mode="fused")
    gate, entered = gate_first_execution(svc)
    first = svc.submit(RenderJob(scene, tasks=2))
    assert entered.wait(30.0)
    queued = [svc.submit(RenderJob(scene, tasks=2)) for _ in range(2)]
    closer = threading.Thread(
        target=lambda: svc.close(cancel_pending=True, timeout=60.0), daemon=True
    )
    closer.start()
    gate.set()
    closer.join(60.0)
    assert first.result(0).image is not None  # was already running: completes
    for future in queued:
        with pytest.raises(CancelledError):
            future.result(0)
    metrics = svc.metrics()
    assert metrics.jobs_cancelled == 2 and metrics.jobs_served == 1


# -- the process backend ------------------------------------------------------
@pytest.mark.skipif(
    not ProcessRuntime.fork_available(),
    reason="process service needs the fork start method",
)
def test_process_service_warm_jobs_metadata_only(scene, live_segments):
    svc = RenderService(
        "process", width=SIZE, height=SIZE, render_mode="fused",
        runtime_options={"workers": 2},
    )
    try:
        first = svc.render(RenderJob(scene, nodes=2, tasks=4), timeout=120.0)
        second = svc.render(RenderJob(scene, nodes=2, tasks=4), timeout=120.0)
        assert second.warm
        # warm jobs ride the zero-copy plane: scene broadcast at setup, rows
        # in the shared frame -> only metadata records cross the pool
        assert 0 < second.bytes_pickled < 64_000
        oneshot = run_raytracing_farm(
            "static", width=SIZE, height=SIZE, nodes=2, tasks=4,
            scene=random_scene(num_spheres=8, seed=5), render_mode="fused",
        )
        np.testing.assert_allclose(first.image, oneshot.image, atol=1e-9)
        np.testing.assert_allclose(second.image, oneshot.image, atol=1e-9)
    finally:
        svc.close(timeout=60.0)
    assert not live_segments()


# -- observability ------------------------------------------------------------
def test_metrics_snapshot_has_latency_percentiles_and_tenant_depths(scene):
    with RenderService(width=SIZE, height=SIZE, render_mode="fused") as svc:
        for i in range(4):
            svc.render(RenderJob(scene, tasks=4, tenant="a"), timeout=60.0)
        svc.render(RenderJob(scene, tasks=4, tenant="b"), timeout=60.0)
        metrics = svc.metrics()
        assert 0.0 < metrics.queue_p50 <= metrics.queue_p95
        assert metrics.tenant_queue_depths == {}  # everything completed
        assert metrics.jobs_served == 5

        observed = svc.observability()
        assert observed["tenants"]["a"]["served"] == 4
        assert observed["tenants"]["b"]["served"] == 1
        assert observed["latency"]["queue_wait"]["count"] == 5
        assert observed["latency"]["render"]["count"] == 5
        assert observed["latency"]["setup"]["count"] == 1  # one cold build
        assert observed["tenants"]["a"]["queue_wait"]["p95"] >= 0.0


def test_metrics_count_evicted_slots(scene):
    with RenderService(
        width=SIZE, height=SIZE, render_mode="fused", max_scenes=1
    ) as svc:
        svc.render(RenderJob(scene, tasks=4), timeout=60.0)
        svc.render(RenderJob(random_scene(num_spheres=4, seed=9), tasks=4),
                   timeout=60.0)
        metrics = svc.metrics()
        assert metrics.slots_evicted == 1
        assert metrics.scenes_cached == 1


def test_slot_ttl_evicts_idle_scenes(scene):
    with RenderService(
        width=SIZE, height=SIZE, render_mode="fused", slot_ttl=0.15
    ) as svc:
        first = svc.render(RenderJob(scene, tasks=4), timeout=60.0)
        assert not first.warm
        deadline = time.monotonic() + 10.0
        while svc.metrics().scenes_cached and time.monotonic() < deadline:
            time.sleep(0.05)
        metrics = svc.metrics()
        assert metrics.scenes_cached == 0, "idle slot outlived its TTL"
        assert metrics.slots_evicted == 1
        # the scene still renders afterwards -- cold again
        again = svc.render(RenderJob(scene, tasks=4), timeout=60.0)
        assert not again.warm
