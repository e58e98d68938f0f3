"""The distributed runtime's placement-specific behaviour.

The cross-backend conformance suite pins *semantics*; this file pins the
distribution itself: placement combinators map partitions onto real worker
processes, the wire data plane broadcasts payloads through the fork-shared
registry, the warm lifecycle keeps node workers alive across runs, and
failures inside a partition surface promptly with the remote traceback.
"""

import os
import pickle
import time

import numpy as np
import pytest

import repro.snet.runtime.data_plane as data_plane
import repro.snet.runtime.distributed_engine as distributed_engine
import repro.snet.runtime.link as link
from repro.apps.networks import build_static_network
from repro.apps.runner import build_farm_backend, farm_inputs
from repro.apps.workloads import extract_image
from repro.raytracer.scene import paper_scene
from repro.snet.boxes import box
from repro.snet.combinators import Serial
from repro.snet.errors import RuntimeError_
from repro.snet.network import Network
from repro.snet.placement import StaticPlacement, placed_split
from repro.snet.records import Record
from repro.snet.runtime import (
    DistributedRuntime,
    ThreadedRuntime,
    run_distributed,
    run_on,
)
from repro.snet.runtime.core import RunScheduler, _Collector
from repro.snet.types import TypeSignature

pytestmark = pytest.mark.usefixtures("no_process_leaks")

fork_only = pytest.mark.skipif(
    not DistributedRuntime.fork_available(), reason="needs the fork start method"
)


def make_pid_box(label_in="a", label_out="b", name="pidbox"):
    @box(f"({label_in}) -> ({label_out})", name=name)
    def tag_pid(value):
        return {label_out: (value, os.getpid())}

    return tag_pid


class TestPartitioning:
    @fork_only
    def test_static_partitions_run_on_distinct_worker_processes(self):
        net = Serial(
            StaticPlacement(make_pid_box("a", "b", "first"), 0),
            StaticPlacement(make_pid_box("b", "c", "second"), 1),
        )
        runtime = DistributedRuntime(nodes=2)
        outs = runtime.run(net, [Record({"a": i}) for i in range(6)], timeout=30.0)
        assert len(outs) == 6
        # c = ((value, pid_of_first_partition), pid_of_second_partition)
        first_pids = {r.field("c")[0][1] for r in outs}
        second_pids = {r.field("c")[1] for r in outs}
        assert len(first_pids) == len(second_pids) == 1
        assert os.getpid() not in first_pids | second_pids
        assert first_pids != second_pids  # node 0 and node 1 are real processes

    @fork_only
    def test_indexed_placement_maps_tag_value_to_node(self):
        net = placed_split(make_pid_box(), "node")
        inputs = [Record({"a": i, "<node>": i % 2}) for i in range(10)]
        runtime = DistributedRuntime(nodes=2)
        outs = runtime.run(net, inputs, timeout=30.0)
        pid_of_node = {}
        for rec in outs:
            value, pid = rec.field("b")
            pid_of_node.setdefault(value % 2, set()).add(pid)
        # every replica of one tag value lives on one worker, and the two
        # values land on the two distinct workers
        assert all(len(pids) == 1 for pids in pid_of_node.values())
        assert pid_of_node[0] != pid_of_node[1]
        assert os.getpid() not in pid_of_node[0] | pid_of_node[1]

    @fork_only
    def test_node_ids_beyond_node_count_wrap_modulo(self):
        net = StaticPlacement(make_pid_box(), 5)  # 5 % 2 == node 1
        runtime = DistributedRuntime(nodes=2)
        outs = runtime.run(net, [Record({"a": 1})], timeout=30.0)
        assert runtime.partition_plan[net.name] == 5
        assert len(outs) == 1

    @fork_only
    def test_unplaced_network_runs_wholly_on_node_zero(self):
        runtime = DistributedRuntime(nodes=2)
        outs = runtime.run(make_pid_box(), [Record({"a": i}) for i in range(4)], timeout=30.0)
        pids = {r.field("b")[1] for r in outs}
        assert len(pids) == 1 and os.getpid() not in pids
        assert list(runtime.partition_plan.values()) == [0]

    def test_partition_plan_reports_static_and_dynamic_partitions(self):
        # <k> reaches the split by flow inheritance past the first box, so
        # the input type is declared rather than inferred from that box
        net = Network(
            "placed",
            Serial(StaticPlacement(make_pid_box("a", "b"), 1), placed_split(make_pid_box("b", "c"), "k")),
            signature=TypeSignature(["a", "<k>"], ["c", "<k>"]),
        )
        runtime = DistributedRuntime(nodes=2)
        runtime.run(net, [Record({"a": 1, "<k>": 0})], timeout=30.0)
        values = list(runtime.partition_plan.values())
        assert 1 in values
        assert "!@<k>" in values


class TestDataPlane:
    @fork_only
    def test_broadcast_payload_never_crosses_the_wire_by_value(self):
        class Unpicklable:
            def __init__(self, token):
                self.token = token
                self.prepared = 0

            def payload_size(self):
                return 1 << 20

            def prepare_for_broadcast(self):
                self.prepared += 1
                return self

            def __reduce__(self):
                raise TypeError("this payload must not cross by value")

        payload = Unpicklable("scene")

        @box("(scene, a) -> (b)")
        def use_scene(scene, a):
            return {"b": f"{scene.token}-{a}"}

        net = StaticPlacement(use_scene, 1)
        inputs = [Record({"scene": payload, "a": i}) for i in range(5)]
        outs = run_on("distributed", net, inputs, timeout=30.0, nodes=2)
        assert sorted(r.field("b") for r in outs) == [f"scene-{i}" for i in range(5)]
        assert payload.prepared == 1  # prepared exactly once, pre-fork

    @fork_only
    def test_bytes_on_wire_accounted_and_reset_per_run(self):
        @box("(x) -> (y)")
        def copy_array(x):
            return {"y": x + 0.0}

        net = StaticPlacement(copy_array, 0)
        small = [Record({"x": np.zeros(8)})]
        runtime = DistributedRuntime(nodes=1, zero_copy=False)
        runtime.run(net, small, timeout=30.0)
        small_bytes = runtime.bytes_pickled
        assert small_bytes > 0
        runtime.run(net, [Record({"x": np.zeros(4096)})], timeout=30.0)
        big_bytes = runtime.bytes_pickled
        assert big_bytes > small_bytes  # per-run counter, scales with payload
        assert big_bytes >= 2 * 4096 * 8  # the array crossed both directions

    def test_registries_are_cleaned_up_after_cold_run(self):
        templates_before = dict(link._TEMPLATES)
        shared_before = dict(data_plane._SHARED_OBJECTS)
        net = StaticPlacement(make_pid_box(), 0)
        run_distributed(net, [Record({"a": 1})], nodes=2, timeout=30.0)
        assert link._TEMPLATES == templates_before
        assert data_plane._SHARED_OBJECTS == shared_before


class TestWarmLifecycle:
    @fork_only
    def test_warm_runs_reuse_the_same_node_workers(self):
        net = StaticPlacement(make_pid_box(), 0)
        runtime = DistributedRuntime(nodes=2)
        runtime.setup(net)
        try:
            assert runtime.is_warm
            pids_before = list(runtime.worker_pids)
            assert len(pids_before) == 2
            seen = set()
            for i in range(3):
                outs = runtime.run(net, [Record({"a": i})], timeout=30.0)
                seen.update(rec.field("b")[1] for rec in outs)
            assert runtime.worker_pids == pids_before  # no re-fork per run
            assert seen <= set(pids_before)
        finally:
            runtime.teardown()
        assert not runtime.is_warm
        assert runtime.worker_pids == []

    @fork_only
    def test_setup_twice_rejected_and_teardown_idempotent(self):
        net = StaticPlacement(make_pid_box(), 0)
        runtime = DistributedRuntime(nodes=1)
        runtime.setup(net)
        try:
            with pytest.raises(RuntimeError_, match="already-warm"):
                runtime.setup(net)
        finally:
            runtime.teardown()
            runtime.teardown()  # idempotent

    @fork_only
    def test_setup_warns_on_unplaced_network(self):
        runtime = DistributedRuntime(nodes=2)
        with pytest.warns(RuntimeWarning, match="no placement combinators"):
            runtime.setup(make_pid_box())
        try:
            # still correct, just in-process: placement is what distributes
            outs = runtime.run(make_pid_box(), [Record({"a": 1})], timeout=30.0)
            assert outs[0].field("b") == (1, os.getpid())
        finally:
            runtime.teardown()


class TestFailureModes:
    def test_degrades_to_threaded_with_warning_without_fork(self, monkeypatch):
        monkeypatch.setattr(
            DistributedRuntime, "fork_available", staticmethod(lambda: False)
        )
        runtime = DistributedRuntime(nodes=2)
        net = StaticPlacement(make_pid_box(), 1)
        with pytest.warns(RuntimeWarning, match="degrading to threaded"):
            outs = runtime.run(net, [Record({"a": i}) for i in range(3)], timeout=15.0)
        # placement transparent: everything executed in this very process
        assert {r.field("b")[1] for r in outs} == {os.getpid()}
        assert runtime.bytes_pickled == 0

    @fork_only
    def test_partition_error_surfaces_with_remote_traceback(self):
        @box("(a) -> (b)")
        def boom(a):
            raise KeyError("remote partition failure detail")

        net = StaticPlacement(boom, 0)
        runtime = DistributedRuntime(nodes=2)
        with pytest.raises(RuntimeError_, match="worker") as excinfo:
            runtime.run(net, [Record({"a": 1})], timeout=15.0)
        assert "remote partition failure detail" in str(excinfo.value.__cause__)

    @fork_only
    def test_partition_error_mid_stream_fails_promptly(self):
        @box("(a) -> (b)")
        def flaky(a):
            if a == 7:
                raise ValueError("partition exploded mid-stream")
            return {"b": a}

        net = StaticPlacement(flaky, 1)
        inputs = [Record({"a": i}) for i in range(50)]
        runtime = DistributedRuntime(nodes=2)
        with pytest.raises(RuntimeError_, match="worker"):
            runtime.run(net, inputs, timeout=15.0)

    @fork_only
    def test_channel_opened_on_dead_link_fails_fast(self):
        """A channel landing on an already-dead link must not stall the run.

        The failover closes the channels open when a link dies, but a
        channel opened *afterwards* (late split instantiation) would wait
        for replies no worker will send — the open must be refused, the
        output closed (downstream EOS) and the input dropped instead.
        """
        net = StaticPlacement(make_pid_box(), 0)
        runtime = DistributedRuntime(nodes=1, max_respawns=0)
        runtime.setup(net)
        try:
            transport = runtime.transport
            link = transport._links[0]
            transport._fail_over(link, "worker gone (test)")
            assert link.dead
            runtime._reset_run_state()
            sched = runtime.scheduler = RunScheduler(runtime)
            downstream = _Collector(sched)
            writer = transport.compile_entity(net, downstream.open_writer()).open_writer()
            # downstream sees EOS immediately instead of hanging
            assert list(downstream.inbox) == [None]
            for i in range(10):
                writer.push(Record({"a": i}))
            writer.close()
            # the input goes nowhere and the run ends at once, with the
            # dead-node error recorded for it to raise
            assert sched.run(downstream, deadline=time.monotonic() + 5.0)
            assert downstream.done and downstream.records == []
            assert any("is dead" in str(exc) for exc in runtime.errors)
        finally:
            runtime.scheduler = None
            runtime.teardown()

    @fork_only
    def test_frames_posted_to_a_dead_link_are_counted(self):
        """Frames hitting a dead link are accounted, never silently dropped.

        With no replacement available the drop must be counted and the
        dead-node error recorded so the run fails promptly instead of
        grinding to the wall-clock deadline.
        """
        net = StaticPlacement(make_pid_box(), 0)
        runtime = DistributedRuntime(nodes=1, max_respawns=0)
        runtime.setup(net)
        try:
            transport = runtime.transport
            runtime._reset_run_state()
            sched = runtime.scheduler = RunScheduler(runtime)
            downstream = _Collector(sched)
            port = transport.compile_entity(net, downstream.open_writer())
            transport._links[0].dead = True
            port.on_record(Record({"a": 1}))
            port.end_turn()  # the turn's batch goes to the dead link
            assert runtime.frames_dropped == 1
            assert port.done  # the failover closed the channel...
            assert list(downstream.inbox) == [None]
            # ...and recorded the dead-node error for the run to raise
            assert any("died" in str(exc) for exc in runtime.errors)
        finally:
            runtime.scheduler = None
            runtime.teardown()

    @fork_only
    def test_dead_node_without_replacement_fails_run_promptly(self, tmp_path):
        import signal

        sentinel = str(tmp_path / "killed")

        @box("(a) -> (b)")
        def kill_worker(a):
            if a == 3 and not os.path.exists(sentinel):
                with open(sentinel, "w", encoding="utf-8") as fh:
                    fh.write(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return {"b": a}

        net = StaticPlacement(kill_worker, 0)
        inputs = [Record({"a": i}) for i in range(50)]
        runtime = DistributedRuntime(nodes=2, chunk_size=1, max_respawns=0)
        start = time.monotonic()
        with pytest.raises(RuntimeError_, match="died"):
            runtime.run(net, inputs, timeout=60.0)
        assert time.monotonic() - start < 30.0  # prompt, not the deadline


class TestStructuralKeying:
    """The warm registry is keyed by structural content, not object identity."""

    @fork_only
    def test_warm_runtime_distributes_structurally_identical_network(self):
        # regression for the PR 5 gotcha: a different-but-identical network
        # object used to run silently in-process on a warm runtime
        def build():
            return StaticPlacement(make_pid_box(), 0)

        runtime = DistributedRuntime(nodes=2)
        runtime.setup(build())
        try:
            rebuilt = build()  # a distinct object, same structure
            outs = runtime.run(
                rebuilt, [Record({"a": i}) for i in range(4)], timeout=30.0
            )
            pids = {r.field("b")[1] for r in outs}
            assert pids  # produced something
            assert os.getpid() not in pids  # actually distributed
            assert pids <= set(runtime.worker_pids)
        finally:
            runtime.teardown()

    @fork_only
    def test_warm_runtime_refuses_structurally_different_network(self):
        runtime = DistributedRuntime(nodes=2)
        runtime.setup(StaticPlacement(make_pid_box(), 0))
        try:
            with pytest.raises(RuntimeError_, match="structural"):
                # placed on a different node -> structurally different
                runtime.run(
                    StaticPlacement(make_pid_box(), 1),
                    [Record({"a": 1})],
                    timeout=15.0,
                )
        finally:
            runtime.teardown()

    @fork_only
    def test_warm_run_of_unplaced_network_warns_about_in_process(self):
        runtime = DistributedRuntime(nodes=2)
        runtime.setup(StaticPlacement(make_pid_box(), 0))
        try:
            with pytest.warns(RuntimeWarning, match="in-process"):
                outs = runtime.run(make_pid_box(), [Record({"a": 1})], timeout=15.0)
            assert outs[0].field("b")[1] == os.getpid()
        finally:
            runtime.teardown()

    @fork_only
    def test_two_warm_runtimes_share_structurally_identical_templates(self):
        def build():
            return StaticPlacement(make_pid_box(), 0)

        first = DistributedRuntime(nodes=1)
        second = DistributedRuntime(nodes=1)
        first.setup(build())
        key = next(iter(first.transport._keys))
        second.setup(build())
        try:
            assert link._TEMPLATES[key][0] == 2  # refcounted
            first.teardown()
            # the template survives until the last registrant lets go
            assert link._TEMPLATES[key][0] == 1
            outs = second.run(build(), [Record({"a": 7})], timeout=30.0)
            assert outs[0].field("b")[0] == 7
        finally:
            first.teardown()
            second.teardown()
        assert key not in link._TEMPLATES


class TestSetupFailureCleanup:
    @fork_only
    def test_failed_setup_leaves_no_registry_leaks(self, monkeypatch):
        templates_before = dict(link._TEMPLATES)
        shared_before = dict(data_plane._SHARED_OBJECTS)
        real_fork = distributed_engine.PartitionTransport._fork_link
        forked = []

        def flaky_fork(self, index):
            if forked:
                raise OSError("fork failed (test)")
            forked.append(real_fork(self, index))
            return forked[-1]

        monkeypatch.setattr(distributed_engine.PartitionTransport, "_fork_link", flaky_fork)
        runtime = DistributedRuntime(nodes=2)
        with pytest.raises(OSError, match="fork failed"):
            runtime.setup(
                StaticPlacement(make_pid_box(), 0), broadcast=(np.zeros(4096),)
            )
        # teardown-on-failure was unconditional: nothing leaked, nothing warm
        assert not runtime.is_warm
        assert link._TEMPLATES == templates_before
        assert data_plane._SHARED_OBJECTS == shared_before
        assert runtime.worker_pids == []
        # the worker forked before the failing fork exited on SHUTDOWN
        assert [link.exitcode for link in forked] == [0]


class TestFarmWireBytes:
    """The ray-tracing farm on two node workers: pixels cross, the scene not.

    A 2000-sphere scene pickles to ~1.1 MB with its BVH, a 64x64 frame to
    ~98 KB.  Riding the fork-shared broadcast registry, the scene crosses
    the partition boundary zero times, so the wire carries about one frame
    (measured ~1.03x); without the broadcast it is re-shipped per batch
    (measured ~38x the broadcast plane).
    """

    WIDTH = HEIGHT = 64

    def _farm(self, scene):
        backend = build_farm_backend(scene, self.WIDTH, self.HEIGHT, "records", "fused")
        network = build_static_network(backend, render_mode="fused")
        return backend, network, farm_inputs("static", scene, nodes=2, tasks=8)

    def _render(self, runtime, backend, network, inputs):
        backend.begin_job()
        runtime.run(network, inputs, timeout=150.0)
        return extract_image(backend), runtime.bytes_pickled

    @fork_only
    def test_broadcast_scene_never_crosses_the_wire(self):
        scene = paper_scene(num_spheres=2000)
        scene.prepare_for_broadcast()
        scene_bytes = len(pickle.dumps(scene, protocol=5))
        frame_bytes = self.WIDTH * self.HEIGHT * 3 * 8
        oracle, _ = self._render(ThreadedRuntime(), *self._farm(scene))

        # warm lifecycle on the very network object setup() partitioned
        backend, network, inputs = self._farm(scene)
        runtime = DistributedRuntime(nodes=2)
        runtime.setup(network, broadcast=(scene,))
        try:
            pids = list(runtime.worker_pids)
            image, wire_bytes = self._render(runtime, backend, network, inputs)
        finally:
            runtime.teardown()
        np.testing.assert_allclose(image, oracle, atol=1e-9)
        assert len(set(pids)) == 2 and os.getpid() not in pids
        # a single scene crossing alone would break both bounds
        assert wire_bytes <= 2.0 * frame_bytes, (wire_bytes, frame_bytes)
        assert wire_bytes < scene_bytes

        # the broadcast registry is what keeps it that way
        image, unshared_bytes = self._render(
            DistributedRuntime(nodes=2, zero_copy=False), *self._farm(scene)
        )
        np.testing.assert_allclose(image, oracle, atol=1e-9)
        assert unshared_bytes >= 8.0 * wire_bytes, (unshared_bytes, wire_bytes)
