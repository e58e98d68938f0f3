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
from repro.apps.networks import build_dynamic_network, build_static_network
from repro.apps.runner import farm_inputs
from repro.apps.workloads import dynamic_input_records, extract_image
from repro.raytracer import Camera
from repro.raytracer.scene import random_scene
from repro.snet.base import Entity
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
from repro.snet.runtime.core import EngineCore, InlineTransport, Port
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
            pytest.param("distributed", {"nodes": 2}, marks=fork_only),
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
            assert runtime.observability()["steps"] > 0
            expected_outputs, expected_image = sequential_frame(small_scene, tasks)
            assert multiset(outputs) == multiset(expected_outputs)
            np.testing.assert_array_equal(image, expected_image)
        # every entity instance is a port and every pipe link is driven from
        # the scheduler thread: no thread at all, whatever the backend
        assert started[8] == started[32] == started[64] == 0, started

    @pytest.mark.parametrize("tasks", [8, 32, 64])
    def test_star_hops_neither_deep_copy_nor_rematch_types(
        self, tasks, small_scene, monkeypatch
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
        # a record skips the star levels that can no longer change it, so
        # a task costs the same steps however many tasks share the frame
        assert runtime.observability()["steps"] <= 48 * tasks
        monkeypatch.undo()
        expected_outputs, expected_image = sequential_frame(small_scene, tasks)
        assert multiset(outputs) == multiset(expected_outputs)
        np.testing.assert_array_equal(image, expected_image)

    def test_star_steps_grow_linearly_with_tasks(self, small_scene):
        steps = {
            tasks: dynamic_frame("threaded", small_scene, tasks)[2].steps
            for tasks in (32, 64)
        }
        # each section and chunk used to walk every level its predecessors
        # unrolled: 168 steps per task at 32 tasks, 312 at 64
        assert steps[64] <= 2.2 * steps[32], steps

    @pytest.mark.parametrize(
        "runtime_name, options",
        [("threaded", {}), pytest.param("process", {"workers": 2}, marks=fork_only)],
    )
    @pytest.mark.parametrize("farm, most", [("dynamic", 65), ("static", 32)])
    def test_a_warm_frame_copies_only_synchrocells(
        self, runtime_name, options, farm, most, small_scene, monkeypatch
    ):
        # a network is compiled once: each run instantiates its plan from the
        # caller's entities and copies only the synchrocells, whose state is
        # per instance (666 and 244 copies a frame when every run copied the
        # network and every star level and split replica its operand)
        backend = RealRenderBackend(small_scene, Camera(width=32, height=64), render_mode="fused")
        if farm == "dynamic":
            network = build_dynamic_network(backend)
            inputs = lambda: dynamic_input_records(small_scene, nodes=2, tasks=32, tokens=2)
        else:
            network = build_static_network(backend, render_mode="fused")
            inputs = lambda: farm_inputs("static", small_scene, nodes=2, tasks=32)
        copied = collections.Counter()
        entity_copy = Entity.copy

        def counting_copy(self):
            copied[type(self).__name__] += 1
            return entity_copy(self)

        runtime = get_runtime(runtime_name, **options).setup(network)
        try:
            for counted in (False, True):
                if counted:
                    monkeypatch.setattr(Entity, "copy", counting_copy)
                backend.begin_job()
                runtime.run(network, inputs(), timeout=120.0)
            monkeypatch.undo()
        finally:
            runtime.teardown()
        assert set(copied) == {"SyncroCell"}, copied
        assert sum(copied.values()) <= most
        assert runtime.fused_chains == 2

    def test_a_traced_frame_takes_the_untraced_steps(self, small_scene):
        # tracing instantiates the same plan: fused ports and star skips
        # stay, and a fused port records each stage's events
        plain = dynamic_frame("threaded", small_scene, 32)[2]
        tracer = Tracer()
        traced = dynamic_frame("threaded", small_scene, 32, tracer=tracer)[2]
        assert (traced.steps, traced.fused_chains) == (plain.steps, plain.fused_chains)
        assert plain.fused_chains == 2
        assert tracer.events

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


def pairing_star(guarded=False, deterministic=False):
    """``([| {x,<i>}, {key} |] .. (open | []))*{<done>}``: one level per pair.

    Each ``x`` waits in the first level whose ``x`` slot is free; each
    ``key`` opens the first level that has not fired.  From the second
    pair on, a record meets only fired or occupied cells on its way.
    """

    @box("(x, key, <i>) -> (x, <i>, <done>)", parallel_safe=False)
    def open_(x, key, i):
        return {"x": x, "<i>": i, "<done>": 1}

    slot = Pattern(["x", "<i>"], Guard(TagRef("i") >= 0) if guarded else None)
    cell = SyncroCell([slot, Pattern(["key"])], name="pair")
    body = Serial(cell, Parallel(open_, Filter.identity("bypass")))
    return Star(body, Pattern(["<done>"]), deterministic=deterministic)


def pairing_inputs(pairs):
    xs = [Record({"x": f"x{i}", "<i>": i}) for i in range(pairs)]
    return xs + [Record({"key": k}) for k in range(pairs)]


@pytest.fixture
def passed_cells(monkeypatch):
    """Count the records synchrocells hand back unchanged (fired or occupied)."""
    passed = [0]
    process = SyncroCell.process

    def counting(self, rec):
        out = process(self, rec)
        passed[0] += out == [rec]
        return out

    monkeypatch.setattr(SyncroCell, "process", counting)
    return passed


class TestStarSkip:
    """A star level that is the identity for good for a label set is skipped.

    Skipping is only sound where the level cannot change the record: these
    tests pin where it does not happen and that it never changes what the
    network computes or the order on an edge.
    """

    def test_fired_and_occupied_levels_are_skipped(self, passed_cells):
        net, inputs = pairing_star(), pairing_inputs(40)
        runtime = ThreadedRuntime()
        outputs = runtime.run(net, inputs, timeout=30.0)
        assert passed_cells[0] == 0
        assert runtime.steps <= 8 * len(inputs)  # the end of input included
        assert multiset(outputs) == multiset(run_network(pairing_star(), inputs))

    def test_a_level_whose_cell_has_a_guard_is_not_skipped(self, passed_cells):
        # whether a guarded slot matches depends on tag values, not on the
        # label set: every record walks the levels before its own
        net, inputs = pairing_star(guarded=True), pairing_inputs(40)
        outputs = ThreadedRuntime().run(net, inputs, timeout=30.0)
        walked = passed_cells[0]
        assert walked == 2 * sum(range(40))
        expected = run_network(pairing_star(guarded=True), inputs)
        assert multiset(outputs) == multiset(expected)

    def test_a_deterministic_star_keeps_its_order(self, passed_cells):
        net, inputs = pairing_star(deterministic=True), pairing_inputs(40)
        outputs = ThreadedRuntime().run(net, inputs, timeout=30.0)
        assert passed_cells[0] == 2 * sum(range(40))
        expected = run_network(pairing_star(deterministic=True), inputs)
        assert [repr(r) for r in outputs] == [repr(r) for r in expected]

    @pytest.mark.parametrize(
        "make_runtime",
        [
            ThreadedRuntime,
            pytest.param(lambda: ProcessRuntime(workers=2), marks=fork_only),
        ],
        ids=["threaded", "process"],
    )
    def test_a_box_after_the_star_sees_its_upstreams_order(self, make_runtime):
        # one step emits every x, then every key: far more than a turn, so
        # the star's entry queues them while earlier ones skip ahead
        pairs = 100

        @box("(<n>) -> (x, <i>) | (key)")
        def emit(n):
            return [{"x": f"x{i}", "<i>": i} for i in range(n)] + [
                {"key": k} for k in range(n)
            ]

        seen = []

        @box("(x, <i>) -> (x, <i>)", parallel_safe=False)
        def record(x, i):
            seen.append(i)
            return {"x": x, "<i>": i}

        net = Serial(Serial(emit, pairing_star()), record)
        inputs = [Record({"<n>": pairs})]
        outputs = make_runtime().run(net, inputs, timeout=60.0)
        assert seen == list(range(pairs))
        assert multiset(outputs) == multiset(run_network(net, inputs))

    def test_a_skip_never_overtakes_a_record_queued_on_a_skipped_level(self):
        # a claimed box's result lands at a turn end, in the middle of a
        # burst of records queued on a router deeper in the same star: the
        # result passes the levels before that router as the identity, but
        # must still reach it behind the burst, as it would step by step
        burst = 100
        started = []

        @box("(x, key, <i>) -> (x, <i>, <done>) | (x, <i>)", parallel_safe=False)
        def open_(x, key, i):
            pair = [{"x": x, "<i>": i, "<done>": 1}]
            if i == 1:  # the second pair releases a burst of fresh x's
                started.append(True)
                return pair + [{"x": "x", "<i>": 100 + k} for k in range(burst)]
            return pair

        @box("(y) -> (x, <i>)", name="late", parallel_safe=False)
        def late(y):
            return {"x": y, "<i>": 50}

        class Deferred(Port):
            """``late`` on the scheduler, its results handed back by ``poll``."""

            def __init__(self, transport, entity, out):
                super().__init__(transport.runtime.scheduler, entity.name)
                self.transport, self.entity, self.out = transport, entity, out
                self.owed, self.closing = 0, False

            def on_record(self, rec):
                self.owed += 1
                self.transport.pending.append((self, self.land, self.entity.process(rec)))

            def on_close(self):
                self.closing = True
                if not self.owed:
                    self.out.close()

            def land(self, produced):
                self.owed -= 1
                for rec in produced:
                    self.out.push(rec)
                if self.closing and not self.owed:
                    self.out.close()

            def outputs(self):
                return (self.out,)

        class DeferLate(InlineTransport):
            """Hands ``late``'s results back once the burst is under way."""

            def __init__(self):
                super().__init__()
                self.pending = []

            def claims_entity(self, entity):
                return entity.name == "late"

            def compile_entity(self, entity, out):
                return Deferred(self, entity, out) if self.claims_entity(entity) else None

            def poll(self):
                if not started:
                    return []
                landed, self.pending = self.pending, []
                return landed

            def wait(self, timeout):
                return bool(self.pending)

        seen = []

        @box("(x, <i>) -> (x, <i>)", parallel_safe=False)
        def record(x, i):
            seen.append(i)
            return {"x": x, "<i>": i}

        cell = SyncroCell([Pattern(["x", "<i>"]), Pattern(["key"])], name="pair")
        body = Serial(
            Parallel(late, Filter.identity("bypass-late")),
            Serial(cell, Parallel(open_, Filter.identity("bypass"))),
        )
        net = Serial(Star(body, Pattern(["x", "<i>", "<done>"])), record)
        inputs = [Record({"x": "a", "<i>": 0}), Record({"x": "b", "<i>": 1}), Record({"y": "y"})]
        inputs += [Record({"key": k}) for k in range(burst + 3)]
        outputs = EngineCore(transport=DeferLate()).run(net, inputs, timeout=30.0)
        assert started and seen[:2] == [0, 1]
        # every x of the burst was on the edge into that router first
        assert seen[2:] == [100 + k for k in range(burst)] + [50]
        assert multiset(outputs) == multiset(run_network(net, inputs))


@fork_only
class TestEagerDispatch:
    def test_a_freed_worker_gets_its_next_section_within_a_few_steps(
        self, small_scene, monkeypatch
    ):
        from repro.snet.runtime import link

        backend = RealRenderBackend(small_scene, Camera(width=32, height=64), render_mode="fused")
        network = build_dynamic_network(backend)
        inputs = dynamic_input_records(small_scene, nodes=2, tasks=32, tokens=2)
        runtime = ProcessRuntime(workers=2)
        parent = os.getpid()
        landed, gaps = {}, []
        send, recv = link.send_frame, link.recv_frame

        def counting_send(conn, frame):
            if os.getpid() == parent and id(conn) in landed:
                gaps.append(runtime.scheduler.steps - landed.pop(id(conn)))
            return send(conn, frame)

        def counting_recv(conn):
            got = recv(conn)
            if os.getpid() == parent:
                landed[id(conn)] = runtime.scheduler.steps
            return got

        monkeypatch.setattr(link, "send_frame", counting_send)
        monkeypatch.setattr(link, "recv_frame", counting_recv)
        backend.begin_job()
        outputs = runtime.run(network, inputs, timeout=120.0)
        monkeypatch.undo()
        # the token a result releases runs first, and the section it admits
        # goes out at once instead of at the end of a 32-step turn
        assert len(gaps) >= 16, gaps
        assert np.median(gaps) <= 16, sorted(gaps)
        expected_outputs, expected_image = sequential_frame(small_scene, 32)
        assert multiset(outputs) == multiset(expected_outputs)
        np.testing.assert_array_equal(extract_image(backend), expected_image)


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
