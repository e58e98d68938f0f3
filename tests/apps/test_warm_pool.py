"""Lifecycle tests for :class:`repro.apps.warm_pool.WarmPoolManager`.

The load-bearing property is *eager teardown*: a slot evicted by LRU or TTL
must release its runtime and backend **at eviction time** — forked workers
reaped and ``/dev/shm`` frame segments unlinked the moment the pool stops
caring, not when the service eventually closes.  The leak-guard regression
at the bottom pins this through a real process-runtime service, mirroring
``test_shared_memory_plane.py``.
"""

import gc
import threading

import pytest

from repro.apps import RenderJob, RenderService, WarmPoolManager, tenant_job_storm
from repro.raytracer import random_scene

pytestmark = pytest.mark.usefixtures("no_process_leaks")


class FakeRuntime:
    def __init__(self, log, name):
        self.log = log
        self.name = name
        self.torn_down = False

    def teardown(self):
        self.torn_down = True
        self.log.append(("runtime", self.name))


class FakeBackend:
    def __init__(self, log, name):
        self.log = log
        self.name = name
        self.released = False

    def release(self):
        self.released = True
        self.log.append(("backend", self.name))


def make_build(log, name, setup_seconds=0.5):
    def build():
        return {
            "runtime": FakeRuntime(log, name),
            "backend": FakeBackend(log, name),
            "setup_seconds": setup_seconds,
        }

    return build


class TestLeasing:
    def test_cold_then_warm(self):
        log = []
        pool = WarmPoolManager(capacity=2)
        slot, warm = pool.acquire("a", make_build(log, "a"))
        assert not warm
        pool.release(slot)
        again, warm = pool.acquire("a", make_build(log, "a2"))
        assert warm and again is slot
        stats = pool.stats()
        assert stats["warm_hits"] == 1 and stats["cold_builds"] == 1
        assert stats["setup_seconds_saved"] == pytest.approx(0.5)
        pool.release(again)
        pool.close()
        assert log == [("runtime", "a"), ("backend", "a")]

    def test_acquiring_a_leased_key_is_an_error(self):
        pool = WarmPoolManager(capacity=2)
        log = []
        slot, _ = pool.acquire("a", make_build(log, "a"))
        with pytest.raises(RuntimeError, match="already leased"):
            pool.acquire("a", make_build(log, "a"))
        pool.release(slot)
        pool.close()

    def test_slot_attribute_forwarding(self):
        pool = WarmPoolManager(capacity=1)
        log = []
        slot, _ = pool.acquire("a", make_build(log, "a"))
        assert slot.runtime.name == "a" and slot.backend.name == "a"
        with pytest.raises(AttributeError):
            slot.no_such_part
        pool.release(slot)
        pool.close()


class TestEviction:
    def test_lru_eviction_tears_down_eagerly(self):
        """The LRU victim's runtime and backend are released at insert time."""
        log = []
        pool = WarmPoolManager(capacity=2)
        a, _ = pool.acquire("a", make_build(log, "a"))
        pool.release(a)
        b, _ = pool.acquire("b", make_build(log, "b"))
        pool.release(b)
        # touching "a" makes "b" the LRU victim
        a, warm = pool.acquire("a", make_build(log, "a"))
        assert warm
        pool.release(a)
        c, _ = pool.acquire("c", make_build(log, "c"))
        # "b" torn down *now* — before release(c), before close()
        assert log == [("runtime", "b"), ("backend", "b")]
        assert b.runtime.torn_down and b.backend.released
        assert pool.stats()["evictions_lru"] == 1
        assert set(pool.slots()) == {"a", "c"}
        pool.release(c)
        pool.close()

    def test_busy_slots_are_never_evicted(self):
        log = []
        pool = WarmPoolManager(capacity=1)
        a, _ = pool.acquire("a", make_build(log, "a"))  # leased, never a victim
        b, _ = pool.acquire("b", make_build(log, "b"))
        assert log == []  # over capacity, but both slots are busy
        assert len(pool) == 2
        pool.release(a)
        pool.release(b)
        pool.close()

    def test_pool_beats_a_single_slot_on_a_tenant_storm(self):
        # four skewed tenants rotating through six scenes: a six-slot pool
        # builds each scene once, a single slot only hits on back-to-back
        # repeats of one scene
        storm = tenant_job_storm(
            {"heavy": 8.0, "steady": 3.0, "bursty": 2.0, "light": 1.0},
            requests_total=60, scene_specs=[{"frame": i} for i in range(6)], seed=9,
        )
        hit_rates = {}
        for capacity in (6, 1):
            pool = WarmPoolManager(capacity=capacity)
            for request in storm:
                key = request.scene["frame"]
                slot, _ = pool.acquire(key, make_build([], key))
                pool.release(slot)
            stats = pool.stats()
            pool.close()
            assert stats["warm_hits"] + stats["cold_builds"] == len(storm)
            hit_rates[capacity] = stats["warm_hits"] / len(storm)
        assert hit_rates[6] == (len(storm) - 6) / len(storm)
        assert hit_rates[6] > hit_rates[1]

    def test_ttl_sweep_with_fake_clock(self):
        log = []
        now = [0.0]
        pool = WarmPoolManager(capacity=4, ttl=10.0, clock=lambda: now[0])
        a, _ = pool.acquire("a", make_build(log, "a"))
        pool.release(a)
        now[0] = 5.0
        b, _ = pool.acquire("b", make_build(log, "b"))
        pool.release(b)
        now[0] = 12.0  # "a" idle 12s > ttl; "b" idle 7s
        assert pool.sweep() == 1
        assert log == [("runtime", "a"), ("backend", "a")]
        assert set(pool.slots()) == {"b"}
        assert pool.stats()["evictions_ttl"] == 1
        now[0] = 100.0
        assert pool.sweep() == 1
        assert len(pool) == 0
        pool.close()

    def test_ttl_never_evicts_a_leased_slot(self):
        log = []
        now = [0.0]
        pool = WarmPoolManager(capacity=4, ttl=1.0, clock=lambda: now[0])
        slot, _ = pool.acquire("a", make_build(log, "a"))
        now[0] = 50.0
        assert pool.sweep() == 0  # mid-job: not a victim
        pool.release(slot)
        now[0] = 102.0
        assert pool.sweep() == 1  # idle since release at t=50
        pool.close()

    def test_background_sweeper_evicts_without_explicit_calls(self):
        log = []
        pool = WarmPoolManager(capacity=4, ttl=0.05, sweep_interval=0.02)
        slot, _ = pool.acquire("a", make_build(log, "a"))
        pool.release(slot)
        deadline = threading.Event()
        for _ in range(100):
            if len(pool) == 0:
                break
            deadline.wait(0.02)
        assert len(pool) == 0 and log == [("runtime", "a"), ("backend", "a")]
        pool.close()


class TestTeardownContract:
    def test_backend_released_even_when_runtime_teardown_raises(self):
        log = []

        class ExplodingRuntime(FakeRuntime):
            def teardown(self):
                raise RuntimeError("boom")

        pool = WarmPoolManager(capacity=1)
        slot, _ = pool.acquire(
            "a",
            lambda: {"runtime": ExplodingRuntime(log, "a"),
                     "backend": FakeBackend(log, "a")},
        )
        pool.release(slot)
        with pytest.raises(RuntimeError, match="boom"):
            pool.close()
        # the /dev/shm-owning half was still released
        assert log == [("backend", "a")]

    def test_release_after_close_tears_down(self):
        log = []
        pool = WarmPoolManager(capacity=2)
        slot, _ = pool.acquire("a", make_build(log, "a"))
        pool.close()
        assert log == []  # still leased: close() must not yank it mid-job
        pool.release(slot)
        assert log == [("runtime", "a"), ("backend", "a")]

    def test_discard_ignores_busy_and_unknown_keys(self):
        log = []
        pool = WarmPoolManager(capacity=2)
        slot, _ = pool.acquire("a", make_build(log, "a"))
        assert not pool.discard("a")  # busy
        assert not pool.discard("nope")
        pool.release(slot)
        assert pool.discard("a")
        assert log == [("runtime", "a"), ("backend", "a")]
        pool.close()


class TestServiceEvictionReleasesSharedMemory:
    """Regression: LRU eviction frees ``/dev/shm`` *before* ``close()``.

    A process-runtime service holds one shared frame segment per warm slot.
    With a single-slot cache, rendering a second scene evicts the first —
    and the first scene's segment must disappear at that moment, not pile
    up until service close (the old single-slot cache got this right only
    because eviction and replacement were fused; the pool must keep it).
    """

    def test_lru_eviction_releases_segments_before_close(self, live_segments):
        service = RenderService(
            "process",
            width=16,
            height=16,
            max_scenes=1,
            runtime_options={"workers": 2},
        )
        try:
            with service:
                job_a = RenderJob(random_scene(num_spheres=4, seed=1), tasks=2)
                service.submit(job_a).result(timeout=120.0)
                after_a = live_segments()
                assert after_a, "process service should hold a frame segment"

                job_b = RenderJob(random_scene(num_spheres=4, seed=2), tasks=2)
                service.submit(job_b).result(timeout=120.0)
                after_b = live_segments()
                # scene A's slot was evicted: its segment is gone *now*,
                # while the service is still running and serving scene B
                assert not (after_a & after_b), (
                    f"evicted slot leaked segments until close: "
                    f"{sorted(after_a & after_b)}"
                )
                assert len(after_b) == len(after_a)
                assert service.metrics().slots_evicted == 1
        finally:
            service.close()
        gc.collect()
        leaked = live_segments()
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
