"""Chaos suite: compute nodes die and the distributed runtime carries on.

``tests/snet/test_distributed_runtime.py`` pins the fail-fast contract
(fault tolerance disabled); this file pins the tolerant path: a node
worker SIGKILLed mid-run is replaced, the work it owed is re-dispatched
from the in-flight journal, and the merged output is exactly what a
healthy run produces — nothing lost, nothing double-counted, partition
state rebuilt by replaying the journal from a fresh template copy.  It
also pins the warm lifecycle extras: between-job revival of dead workers
and elastic ``add_node()``/``remove_node()`` resizing.
"""

import os
import signal

import numpy as np
import pytest

from repro.apps.networks import build_static_network
from repro.apps.runner import build_farm_backend, farm_inputs
from repro.apps.workloads import extract_image
from repro.raytracer.scene import paper_scene
from repro.snet.boxes import box
from repro.snet.combinators import Parallel, Serial
from repro.snet.errors import RuntimeError_
from repro.snet.placement import StaticPlacement, placed_split
from repro.snet.records import Record
from repro.snet.runtime import DistributedRuntime, ThreadedRuntime
from repro.snet.synchrocell import SyncroCell

pytestmark = pytest.mark.usefixtures("no_process_leaks")

fork_only = pytest.mark.skipif(
    not DistributedRuntime.fork_available(), reason="needs the fork start method"
)


def make_kill_once_box(sentinel, kill_at, label_in="a", label_out="b", name="killbox"):
    """A box that SIGKILLs its own node worker the first time it sees ``kill_at``.

    The sentinel file makes the death one-shot: the replacement worker
    replaying the journal from a fresh template copy finds the sentinel
    and processes the fatal record normally — the replay itself must not
    re-trigger the kill.  The sentinel also records the victim's pid.
    """
    path = str(sentinel)

    @box(f"({label_in}) -> ({label_out})", name=name)
    def kill_once(value):
        if value == kill_at and not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        return {label_out: (value, os.getpid())}

    return kill_once


class TestMidRunFailover:
    @fork_only
    def test_killed_worker_is_replaced_and_no_record_lost_or_doubled(self, tmp_path):
        sentinel = tmp_path / "killed"
        net = StaticPlacement(make_kill_once_box(sentinel, 5), 0)
        runtime = DistributedRuntime(nodes=2, chunk_size=1)
        runtime.setup(net)
        try:
            outs = runtime.run(net, [Record({"a": i}) for i in range(20)], timeout=60.0)
            # the idempotent merge: results delivered before the death are
            # not re-counted by the replay, results owed are not lost
            values = sorted(rec.field("b")[0] for rec in outs)
            assert values == list(range(20))
            assert runtime.recoveries >= 1
            pids = {rec.field("b")[1] for rec in outs}
            assert os.getpid() not in pids  # still actually distributed
            killed_pid = int(sentinel.read_text())
            assert killed_pid not in runtime.worker_pids  # slot holds a replacement
            assert len(runtime.worker_pids) == 2
        finally:
            runtime.teardown()

    @fork_only
    def test_replay_rebuilds_partition_state_accumulated_before_the_death(
        self, tmp_path
    ):
        """Stateful partitions survive: the journal replays from record one.

        The partition's synchrocell has stored ``{a}`` (producing nothing)
        when the worker dies on ``{b}``.  Only a full-journal replay into a
        fresh template copy can rebuild that state — replaying just the
        unacknowledged tail would feed ``{b}`` to an empty synchrocell and
        the join would never complete.
        """
        sentinel = str(tmp_path / "killed")

        @box("(b) -> (b)", name="kill-on-b")
        def kill_on_b(b):
            if not os.path.exists(sentinel):
                with open(sentinel, "w", encoding="utf-8") as fh:
                    fh.write(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return {"b": b}

        @box("(a) -> (a)", name="pass-a")
        def pass_a(a):
            return {"a": a}

        partition = Serial(Parallel(kill_on_b, pass_a), SyncroCell([["a"], ["b"]]))
        runtime = DistributedRuntime(nodes=1, chunk_size=1)
        outs = runtime.run(
            StaticPlacement(partition, 0),
            [Record({"a": 1}), Record({"b": 10})],
            timeout=60.0,
        )
        assert len(outs) == 1
        assert outs[0].field("a") == 1
        assert outs[0].field("b") == 10
        assert runtime.recoveries >= 1

    @fork_only
    def test_indexed_placement_replica_fails_over(self, tmp_path):
        net = placed_split(make_kill_once_box(tmp_path / "killed", 3), "node")
        inputs = [Record({"a": i, "<node>": i % 2}) for i in range(10)]
        runtime = DistributedRuntime(nodes=2, chunk_size=1)
        outs = runtime.run(net, inputs, timeout=60.0)
        values = sorted(rec.field("b")[0] for rec in outs)
        assert values == list(range(10))  # the dead replica's work re-dispatched
        assert runtime.recoveries >= 1


class TestWarmRevival:
    @fork_only
    def test_worker_killed_between_jobs_is_revived_on_the_next_run(self):
        @box("(a) -> (b)", name="revive-pid")
        def tag_pid(a):
            return {"b": (a, os.getpid())}

        net = StaticPlacement(tag_pid, 0)
        runtime = DistributedRuntime(nodes=2)
        runtime.setup(net)
        try:
            runtime.run(net, [Record({"a": 1})], timeout=30.0)
            victim = runtime.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            outs = runtime.run(net, [Record({"a": 2})], timeout=30.0)
            assert outs[0].field("b")[0] == 2
            assert runtime.recoveries >= 1
            assert victim not in runtime.worker_pids
            assert len(runtime.worker_pids) == 2
        finally:
            runtime.teardown()


class TestElasticity:
    @staticmethod
    def _pid_box():
        @box("(a) -> (b)", name="elastic-pid")
        def tag_pid(a):
            return {"b": (a, os.getpid())}

        return tag_pid

    @fork_only
    def test_add_and_remove_node_between_jobs(self):
        net = placed_split(self._pid_box(), "node")
        runtime = DistributedRuntime(nodes=2)
        runtime.setup(net)
        try:
            assert runtime.add_node() == 3
            assert len(runtime.worker_pids) == 3
            inputs = [Record({"a": i, "<node>": i % 3}) for i in range(9)]
            outs = runtime.run(net, inputs, timeout=30.0)
            pids = {rec.field("b")[1] for rec in outs}
            assert len(pids) == 3  # the third replica landed on the new worker
            assert pids <= set(runtime.worker_pids)

            assert runtime.remove_node() == 2
            assert len(runtime.worker_pids) == 2
            outs = runtime.run(net, list(inputs), timeout=30.0)
            pids = {rec.field("b")[1] for rec in outs}
            # tag value 2 re-mapped modulo the shrunken node set
            assert len(pids) == 2
            assert pids <= set(runtime.worker_pids)
        finally:
            runtime.teardown()

    def test_elastic_resize_is_refused_mid_run(self):
        runtime = DistributedRuntime(nodes=2)
        runtime.transport._run_active = True
        try:
            with pytest.raises(RuntimeError_, match="between jobs"):
                runtime.add_node()
            with pytest.raises(RuntimeError_, match="between jobs"):
                runtime.remove_node()
        finally:
            runtime.transport._run_active = False

    def test_cannot_remove_the_last_node(self):
        runtime = DistributedRuntime(nodes=1)
        with pytest.raises(RuntimeError_, match="last compute node"):
            runtime.remove_node()


class TestHappyPath:
    @fork_only
    def test_journal_adds_no_wire_bytes_and_no_recoveries(self):
        """The in-flight journal holds references: nothing extra crosses.

        The same warm 1000-sphere 64x64 farm frame on two node workers, with
        fault tolerance off and on: both match the threaded oracle, neither
        recovers anything, and the wire volumes agree within 2% (batch
        boundaries may shift with thread timing).
        """
        scene = paper_scene(num_spheres=1000)
        scene.prepare_for_broadcast()

        def farm():
            backend = build_farm_backend(scene, 64, 64, "records", "fused")
            network = build_static_network(backend, render_mode="fused")
            return backend, network, farm_inputs("static", scene, nodes=2, tasks=8)

        def render(runtime, backend, network, inputs):
            backend.begin_job()
            runtime.run(network, list(inputs), timeout=150.0)
            return extract_image(backend)

        oracle = render(ThreadedRuntime(), *farm())
        wire = {}
        for fault_tolerance in (False, True):
            backend, network, inputs = farm()
            runtime = DistributedRuntime(nodes=2, fault_tolerance=fault_tolerance)
            runtime.setup(network, broadcast=(scene,))
            try:
                for _ in range(2):  # the second frame is a warm steady state
                    image = render(runtime, backend, network, inputs)
                    np.testing.assert_allclose(image, oracle, atol=1e-9)
                assert runtime.recoveries == 0
                wire[fault_tolerance] = runtime.bytes_pickled
            finally:
                runtime.teardown()
        assert wire[False] > 0 and wire[True] > 0
        assert wire[True] <= 1.02 * wire[False], wire
