"""The run-to-completion scheduler: cost model and S-Net semantics.

``EngineCore`` compiles a network to a graph of ports that one scheduler
drives on the calling thread.  These tests pin what that buys — threads
per frame independent of the task count, no recursion per star level —
and the S-Net semantics the scheduler must keep: exact record multisets,
synchrocell state per star instance, stars and index splits that unfold
only as far as records reach, no record lost between the pool's threads
and the scheduler, prompt failure on a raising box and on a dead pool
worker.
"""

import collections
import copy
import os
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.apps.backends import RealRenderBackend
from repro.apps.networks import build_dynamic_network
from repro.apps.workloads import dynamic_input_records, extract_image
from repro.raytracer import Camera
from repro.raytracer.scene import random_scene
from repro.snet.boxes import box
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.errors import RuntimeError_
from repro.snet.filters import Filter
from repro.snet.network import run_network
from repro.snet.patterns import Guard, Pattern, TagRef
from repro.snet.placement import StaticPlacement
from repro.snet.records import Record
from repro.snet.runtime import (
    BoxWorkerError,
    DistributedRuntime,
    ProcessRuntime,
    ThreadedRuntime,
    Tracer,
    get_runtime,
)
from repro.snet.synchrocell import SyncroCell
from repro.snet.types import RecordType, Variant

pytestmark = pytest.mark.usefixtures("no_process_leaks")

fork_only = pytest.mark.skipif(
    not ProcessRuntime.fork_available(), reason="needs the fork start method"
)


def multiset(records):
    return sorted(repr(r) for r in records)


@pytest.fixture
def count_thread_starts(monkeypatch):
    """Count every ``threading.Thread.start`` in this process."""
    starts = [0]
    original = threading.Thread.start

    def counting_start(self):
        starts[0] += 1
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return starts


@pytest.fixture(scope="module")
def small_scene():
    return random_scene(num_spheres=8, seed=1)


def dynamic_frame(runtime_name, scene, tasks, **options):
    """One cold dynamic-farm frame: (outputs, image, the runtime that ran it)."""
    backend = RealRenderBackend(scene, Camera(width=32, height=64), render_mode="fused")
    network = build_dynamic_network(backend)
    inputs = dynamic_input_records(scene, nodes=2, tasks=tasks, tokens=2)
    runtime = get_runtime(runtime_name, **options)
    backend.begin_job()
    outputs = runtime.run(network, inputs, timeout=120.0)
    return outputs, extract_image(backend).copy(), runtime


def sequential_frame(scene, tasks):
    backend = RealRenderBackend(scene, Camera(width=32, height=64), render_mode="fused")
    network = build_dynamic_network(backend)
    backend.begin_job()
    outputs = run_network(network, dynamic_input_records(scene, nodes=2, tasks=tasks, tokens=2))
    return outputs, extract_image(backend).copy()


class TestCostModel:
    @pytest.mark.parametrize(
        "runtime_name, options",
        [
            ("threaded", {}),
            pytest.param("process", {"workers": 2}, marks=fork_only),
        ],
    )
    def test_threads_per_frame_do_not_grow_with_tasks(
        self, runtime_name, options, small_scene, count_thread_starts
    ):
        started = {}
        for tasks in (8, 32, 64):
            before = count_thread_starts[0]
            outputs, image, runtime = dynamic_frame(
                runtime_name, small_scene, tasks, **options
            )
            started[tasks] = count_thread_starts[0] - before
            # every entity instance is a port: the engine starts no thread
            assert runtime.threads_started == 0
            assert runtime.observability()["threads_started"] == 0
            assert runtime.observability()["steps"] > 0
            expected_outputs, expected_image = sequential_frame(small_scene, tasks)
            assert multiset(outputs) == multiset(expected_outputs)
            np.testing.assert_array_equal(image, expected_image)
        # the pool's links are driven from the scheduler thread: no thread
        # at all, whatever the backend
        assert started[8] == started[32] == started[64] == 0, started

    @pytest.mark.parametrize("tasks, steps_before", [(8, 480), (32, 5364)])
    def test_star_hops_neither_deep_copy_nor_rematch_types(
        self, tasks, steps_before, small_scene, monkeypatch
    ):
        deep_copies = [0]
        deepcopy = copy.deepcopy

        def counting_deepcopy(*args, **kwargs):
            deep_copies[0] += 1
            return deepcopy(*args, **kwargs)

        checks = collections.Counter()
        checked = []  # keeps every checked type alive, so ids stay unique

        def counting(compute):
            def wrapper(self, arg):
                labels = arg if isinstance(arg, frozenset) else arg.label_set
                checks[(id(self), labels)] += 1
                checked.append(self)
                return compute(self, arg)

            return wrapper

        monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
        monkeypatch.setattr(Variant, "_covered_by", counting(Variant._covered_by))
        monkeypatch.setattr(RecordType, "_best_score", counting(RecordType._best_score))
        outputs, image, runtime = dynamic_frame("threaded", small_scene, tasks)
        # star levels and split replicas are instantiated structurally
        assert deep_copies[0] == 0
        # type checks are memoized on the record's label set
        assert checks and max(checks.values()) == 1
        # the step count of the thread-per-entity-free scheduler, not more
        assert runtime.observability()["steps"] <= steps_before
        monkeypatch.undo()
        expected_outputs, expected_image = sequential_frame(small_scene, tasks)
        assert multiset(outputs) == multiset(expected_outputs)
        np.testing.assert_array_equal(image, expected_image)

    def test_deep_star_runs_without_recursion(self):
        # far deeper than the interpreter's recursion limit: each level is
        # one queued step, never a nested call
        @box("(<n>) -> (<n>)")
        def bump(n):
            return {"<n>": n + 1}

        depth = 1500
        net = Star(bump, Pattern(["<n>"], Guard(TagRef("n") >= depth)))
        outputs = ThreadedRuntime().run(net, [Record({"<n>": 0})], timeout=60.0)
        assert [r.tag("n") for r in outputs] == [depth]


class TestSemantics:
    def test_synchrocell_state_is_per_star_instance(self):
        # the first {a} waits in level 0's cell; the second passes the
        # occupied slot and waits in level 1's own cell
        @box("(a, b) -> (a, b, <done>)")
        def mark(a, b):
            return {"a": a, "b": b, "<done>": 1}

        operand = Serial(
            SyncroCell([["a"], ["b"]]), Parallel(mark, Filter.identity("pass"))
        )
        net = Star(operand, Pattern(["<done>"]))
        inputs = [Record({"a": 1}), Record({"a": 2}), Record({"b": 1}), Record({"b": 2})]
        outputs = ThreadedRuntime().run(net, inputs, timeout=30.0)
        pairs = sorted((r.field("a"), r.field("b")) for r in outputs)
        assert pairs == [(1, 1), (2, 2)]
        assert multiset(outputs) == multiset(run_network(net, inputs))

    def test_star_unfolds_only_as_deep_as_records_reach(self):
        @box("(<n>) -> (<n>)")
        def bump(n):
            return {"<n>": n + 1}

        tracer = Tracer()
        net = Star(bump, Pattern(["<n>"], Guard(TagRef("n") >= 4)))
        ThreadedRuntime(tracer=tracer).run(
            net, [Record({"<n>": 0}), Record({"<n>": 2})], timeout=30.0
        )
        # <n>=0 needs levels 0..3; <n>=2 reuses levels 0 and 1
        assert [e.detail["level"] for e in tracer.of_kind("unroll")] == [0, 1, 2, 3]

    def test_index_split_replica_created_on_a_tags_first_record(self):
        @box("(x, <k>) -> (y, <k>)")
        def solve(x, k):
            return {"y": x, "<k>": k}

        tracer = Tracer()
        inputs = [Record({"x": i, "<k>": k}) for i, k in enumerate([2, 2, 0, 2, 1, 0])]
        outputs = ThreadedRuntime(tracer=tracer).run(
            IndexSplit(solve, "k"), inputs, timeout=30.0
        )
        assert [e.detail["index"] for e in tracer.of_kind("instantiate")] == [2, 0, 1]
        assert sorted(r.field("y") for r in outputs) == list(range(6))

    def test_box_raising_mid_stream_ends_the_run_promptly(self):
        @box("(a) -> (b)")
        def flaky(a):
            if a == 7:
                raise ValueError("exploded mid-stream")
            return {"b": a}

        net = Serial(Filter.identity(), Serial(flaky, Filter.identity()))
        start = time.monotonic()
        with pytest.raises(RuntimeError_, match="worker") as excinfo:
            ThreadedRuntime().run(net, [Record({"a": i}) for i in range(5000)], timeout=30.0)
        assert time.monotonic() - start < 2.0
        assert isinstance(excinfo.value.__cause__, ValueError)


@fork_only
class TestInbox:
    def test_pool_results_handed_in_from_other_threads_are_never_lost(self):
        # results land on the workers' pipes while the scheduler is running
        # (read at a turn end) or asleep (woken by the link's wait); more
        # workers than cores and a short switch interval interleave the two
        @box("(a) -> (<n>, a)")
        def start(a):
            return {"<n>": a % 5, "a": a}

        @box("(<n>) -> (<n>)", parallel_safe=False)
        def bump(n):
            return {"<n>": n + 1}

        net = Serial(start, Star(bump, Pattern(["<n>"], Guard(TagRef("n") >= 5))))
        inputs = [Record({"a": i}) for i in range(300)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runtime = ProcessRuntime(workers=3, chunk_size=1, max_inflight=4)
            outputs = runtime.run(net, inputs, timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert runtime.batches_dispatched == 300
        assert multiset(outputs) == multiset(run_network(net, inputs))


def _suicidal_box():
    @box("(a) -> (b)", name="suicidal")
    def suicidal(a):
        if a < 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return {"b": a + 1}

    return suicidal


@fork_only
class TestPoolWorkerDeath:
    def test_worker_dying_mid_run_fails_fast_then_pool_is_replaced(self):
        net = _suicidal_box()
        runtime = ProcessRuntime(workers=2, chunk_size=1)
        try:
            runtime.setup(net)
            assert [r.field("b") for r in runtime.run(net, [Record({"a": 1})], timeout=30.0)] == [2]
            start = time.monotonic()
            with pytest.raises(RuntimeError_) as excinfo:
                runtime.run(net, [Record({"a": -1})], timeout=60.0)
            assert time.monotonic() - start < 5.0
            assert isinstance(excinfo.value.__cause__, BoxWorkerError)
            outputs = runtime.run(net, [Record({"a": i}) for i in range(6)], timeout=30.0)
            assert sorted(r.field("b") for r in outputs) == list(range(1, 7))
        finally:
            runtime.teardown()

    def test_worker_killed_right_before_a_run_never_wedges_it(self, small_scene):
        camera = Camera(width=32, height=64)
        backend = RealRenderBackend(small_scene, camera, render_mode="fused")
        network = build_dynamic_network(backend)
        inputs = dynamic_input_records(small_scene, nodes=2, tasks=8, tokens=2)
        _, reference = sequential_frame(small_scene, 8)
        runtime = ProcessRuntime(workers=2)
        try:
            runtime.setup(network, broadcast=(small_scene,))
            victim = runtime.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            start = time.monotonic()
            backend.begin_job()
            try:
                # the death lands either before begin_run (a fresh pool is
                # forked and the frame renders) or during the run
                runtime.run(network, inputs, timeout=60.0)
            except RuntimeError_ as exc:
                assert isinstance(exc.__cause__, BoxWorkerError)
            assert time.monotonic() - start < 5.0
            backend.begin_job()
            runtime.run(network, inputs, timeout=60.0)
            np.testing.assert_array_equal(extract_image(backend), reference)
            assert victim not in runtime.worker_pids
        finally:
            runtime.teardown()


class _Unpicklable(Exception):
    """An exception pickle cannot rebuild: it carries a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


@fork_only
class TestPipeLink:
    def test_unpicklable_box_exception_surfaces_with_the_remote_traceback(self):
        @box("(a) -> (b)", name="grumpy")
        def grumpy(a):
            raise _Unpicklable(f"cannot take {a}")

        with pytest.raises(RuntimeError_) as excinfo:
            ProcessRuntime(workers=1).run(grumpy, [Record({"a": 3})], timeout=30.0)
        cause = excinfo.value.__cause__
        assert isinstance(cause, BoxWorkerError)
        assert "_Unpicklable: cannot take 3" in str(cause)
        assert "Traceback (most recent call last)" in str(cause)
        assert 'raise _Unpicklable(f"cannot take {a}")' in str(cause)

    def test_worker_killed_with_a_batch_queued_fails_fast_then_runs_warm(self):
        @box("(a) -> (b)", name="stall")
        def stall(a):
            if a == 0:
                time.sleep(30.0)
            return {"b": a}

        runtime = ProcessRuntime(workers=1, chunk_size=1, max_inflight=2)
        try:
            runtime.setup(stall)
            (victim,) = runtime.worker_pids
            killed = []

            def kill():
                killed.append(time.monotonic())
                os.kill(victim, signal.SIGKILL)

            # one batch runs on the only worker, the other waits behind it
            timer = threading.Timer(0.3, kill)
            timer.start()
            try:
                with pytest.raises(RuntimeError_) as excinfo:
                    runtime.run(stall, [Record({"a": 0}), Record({"a": 1})], timeout=30.0)
                failed = time.monotonic()
            finally:
                timer.join()
            assert isinstance(excinfo.value.__cause__, BoxWorkerError)
            assert runtime.batches_dispatched == 2
            assert failed - killed[0] < 0.5
            outputs = runtime.run(stall, [Record({"a": i}) for i in (1, 2, 3)], timeout=30.0)
            assert sorted(r.field("b") for r in outputs) == [1, 2, 3]
            assert runtime.is_warm
            assert len(runtime.worker_pids) == 1 and victim not in runtime.worker_pids
        finally:
            runtime.teardown()

    def test_chunked_results_larger_than_a_socket_buffer_never_deadlock(self):
        # 256x256 planes: every batch of four is ~6 MB each way, so a worker
        # sending its result and a parent sending the next batch would both
        # block if the parent ever sent to a worker that still owes it
        @box("(a) -> (plane)", parallel_safe=False)
        def make(a):
            return {"plane": np.full((256, 256, 3), float(a))}

        @box("(plane) -> (plane)", name="brighten")
        def brighten(plane):
            return {"plane": plane + 1.0}

        inputs = [Record({"a": i}) for i in range(24)]
        runtime = ProcessRuntime(workers=2, chunk_size=4, max_inflight=4)
        outputs = runtime.run(Serial(make, brighten), inputs, timeout=60.0)
        assert sorted(r.field("plane")[5, 7, 1] for r in outputs) == [i + 1.0 for i in range(24)]
        assert runtime.bytes_pickled > 2 * 24 * 256 * 256 * 3 * 8

    @pytest.mark.parametrize("make_runtime, place", [
        (lambda: ProcessRuntime(workers=2), lambda net: net),
        (lambda: DistributedRuntime(nodes=2), lambda net: StaticPlacement(net, 1)),
    ], ids=["pool", "partition"])
    def test_workers_let_go_of_the_parents_sockets(self, make_runtime, place):
        # a socket open in the parent at fork time (a gateway client's
        # connection, say) must not stay open in a worker, or its peer sees
        # no EOF when the parent closes it; the workers still run and still
        # shut down through their own link ends
        def socket_inodes(pid):
            inodes = set()
            for fd in os.listdir(f"/proc/{pid}/fd"):
                try:
                    target = os.readlink(f"/proc/{pid}/fd/{fd}")
                except OSError:
                    continue
                if target.startswith("socket:["):
                    inodes.add(int(target[8:-1]))
            return inodes

        parent_end, peer = socket.socketpair()
        runtime = make_runtime()
        try:
            net = place(_suicidal_box())
            runtime.setup(net)
            outputs = runtime.run(net, [Record({"a": i}) for i in range(4)], timeout=30.0)
            assert sorted(r.field("b") for r in outputs) == [1, 2, 3, 4]
            held = {os.fstat(s.fileno()).st_ino for s in (parent_end, peer)}
            assert len(runtime.worker_pids) == 2
            for pid in runtime.worker_pids:
                deadline = time.monotonic() + 10.0
                while held & socket_inodes(pid) and time.monotonic() < deadline:
                    time.sleep(0.01)  # a worker that got no batch may still be starting
                assert not held & socket_inodes(pid), pid
                assert len(socket_inodes(pid)) == 1, pid  # its own link end
        finally:
            runtime.teardown()
            parent_end.close()
            peer.close()

    def test_setup_and_teardown_start_no_threads_and_leave_no_children(
        self, count_thread_starts, live_children
    ):
        net = _suicidal_box()
        runtime = ProcessRuntime(workers=2)
        runtime.setup(net)
        pids = set(runtime.worker_pids)
        assert len(pids) == 2 and pids <= live_children()
        outputs = runtime.run(net, [Record({"a": i}) for i in range(4)], timeout=30.0)
        assert sorted(r.field("b") for r in outputs) == [1, 2, 3, 4]
        runtime.teardown()
        assert count_thread_starts[0] == 0
        assert not pids & live_children()
        assert runtime.worker_pids == []
