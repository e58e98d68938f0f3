"""Cross-backend conformance: every executing runtime, identical semantics.

One set of semantic tests parametrised over the ``threaded``, ``process``
and ``distributed`` backends.  S-Net output ordering is nondeterministic
(parallel branches merge in arrival order), so conformance is defined on
*multisets* of output records: for every network and input stream, each
backend must produce the same records the same number of times — and, where
a sequential reference exists, the same multiset as the sequential
interpreter.

The distributed backend participates with two real node workers: an
unplaced network executes wholly on compute node 0 (the implicit ``@ 0``
wrap), so even these placement-free tests exercise the wire protocol
end-to-end.
"""

from collections import Counter

import pytest

from repro.snet.base import PrimitiveEntity
from repro.snet.boxes import Box, box
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.errors import RuntimeError_
from repro.snet.filters import Filter
from repro.snet.lang.builder import build_network
from repro.snet.network import Network, run_network
from repro.snet.patterns import Guard, Pattern, TagRef
from repro.snet.records import Record
from repro.snet.runtime import (
    DistributedRuntime,
    ProcessRuntime,
    ThreadedRuntime,
    available_backends,
    get_runtime,
    run_on,
)
from repro.snet.synchrocell import SyncroCell
from repro.snet.types import TypeSignature

BACKENDS = ["threaded", "process", "distributed"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def multiset(records):
    """Order-insensitive canonical form of a record stream."""
    return Counter(repr(r) for r in records)


def run_backend(name, network, inputs, timeout=30.0, **options):
    if name == "process":
        options.setdefault("workers", 2)
    elif name == "distributed":
        options.setdefault("nodes", 2)
    return run_on(name, network, inputs, timeout=timeout, **options)


def make_inc(label_in="a", label_out="b"):
    @box(f"({label_in}) -> ({label_out})", name=f"inc_{label_in}_{label_out}")
    def inc(value):
        return {label_out: value + 1}

    return inc


class TestRegistry:
    def test_backends_registered(self):
        assert {"threaded", "process", "distributed", "simulated", "dsnet"} <= set(
            available_backends()
        )

    def test_get_runtime_types(self):
        assert isinstance(get_runtime("threaded"), ThreadedRuntime)
        assert isinstance(get_runtime("process", workers=2), ProcessRuntime)
        assert isinstance(get_runtime("distributed", nodes=2), DistributedRuntime)

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(RuntimeError_, match="threaded"):
            get_runtime("quantum")

    def test_unknown_backend_suggests_close_match(self):
        with pytest.raises(RuntimeError_, match="did you mean 'distributed'"):
            get_runtime("distribted")

    def test_unknown_backend_error_lists_every_backend(self):
        with pytest.raises(RuntimeError_) as excinfo:
            get_runtime("quantum")
        for name in available_backends():
            assert name in str(excinfo.value)

    def test_run_on_rejects_non_runtime_instance(self):
        with pytest.raises(RuntimeError_, match="available backends"):
            run_on(object(), make_inc(), [Record({"a": 1})])

    def test_get_runtime_rejects_non_string_name(self):
        with pytest.raises(RuntimeError_, match="run_on"):
            get_runtime(ThreadedRuntime())  # a runtime instance is not a name

    def test_process_is_a_distinct_backend(self):
        runtime = get_runtime("process", workers=3, chunk_size=2)
        assert runtime.workers == 3
        assert runtime.chunk_size == 2

    def test_distributed_is_a_distinct_backend(self):
        runtime = get_runtime("distributed", nodes=3, chunk_size=4)
        assert runtime.nodes == 3
        assert runtime.chunk_size == 4


class TestConformance:
    def test_single_box(self, backend):
        outs = run_backend(backend, make_inc(), [Record({"a": 1}), Record({"a": 5})])
        assert sorted(r.field("b") for r in outs) == [2, 6]

    def test_serial_pipeline_matches_sequential(self, backend):
        net = Serial(make_inc("a", "b"), make_inc("b", "c"))
        inputs = [Record({"a": i}) for i in range(20)]
        expected = multiset(run_network(net, inputs))
        assert multiset(run_backend(backend, net, inputs)) == expected

    def test_parallel_routing(self, backend):
        net = Parallel(make_inc("a", "x"), make_inc("b", "y"))
        inputs = [Record({"a": 1}), Record({"b": 2}), Record({"a": 3})]
        outs = run_backend(backend, net, inputs)
        assert len(outs) == 3
        assert sum(1 for r in outs if r.has_field("x")) == 2
        assert sum(1 for r in outs if r.has_field("y")) == 1

    def test_star_unrolling(self, backend):
        @box("(<n>) -> (<n>)")
        def bump(n):
            return {"<n>": n + 1}

        net = Star(bump, Pattern(["<n>"], Guard(TagRef("n") >= 4)))
        outs = run_backend(backend, net, [Record({"<n>": 0}), Record({"<n>": 2})])
        assert sorted(r.tag("n") for r in outs) == [4, 4]

    def test_index_split(self, backend):
        @box("(sect, <node>) -> (chunk, <node>)")
        def solve(sect, node):
            return {"chunk": sect * 10, "<node>": node}

        net = IndexSplit(solve, "node")
        inputs = [Record({"sect": i, "<node>": i % 3}) for i in range(9)]
        outs = run_backend(backend, net, inputs)
        assert len(outs) == 9
        assert {r.tag("node") for r in outs} == {0, 1, 2}
        assert sorted(r.field("chunk") for r in outs) == [i * 10 for i in range(9)]

    def test_synchrocell(self, backend):
        net = Serial(SyncroCell([["pic"], ["chunk"]]), Filter.identity())
        outs = run_backend(
            backend, net, [Record({"pic": "P"}), Record({"chunk": "C"})]
        )
        assert len(outs) == 1
        assert outs[0].field("pic") == "P"
        assert outs[0].field("chunk") == "C"

    def test_flush_releases_buffered_records(self, backend):
        class Batcher(PrimitiveEntity):
            """Stateful primitive releasing its buffer at end-of-stream."""

            def __init__(self):
                super().__init__("batcher")
                self._held = []

            @property
            def signature(self):
                return Filter.identity().signature

            def process(self, rec):
                self._held.append(rec)
                return []

            def flush(self):
                held, self._held = self._held, []
                return held

            def reset(self):
                self._held = []

        net = Serial(Batcher(), make_inc("a", "b"))
        inputs = [Record({"a": i}) for i in range(5)]
        outs = run_backend(backend, net, inputs)
        assert sorted(r.field("b") for r in outs) == [1, 2, 3, 4, 5]

    def test_flow_inheritance_is_preserved(self, backend):
        net = Serial(make_inc("a", "b"), make_inc("b", "c"))
        inputs = [Record({"a": i, "payload": f"rec-{i}", "<k>": i}) for i in range(8)]
        outs = run_backend(backend, net, inputs)
        assert sorted(r.field("payload") for r in outs) == [f"rec-{i}" for i in range(8)]
        assert sorted(r.tag("k") for r in outs) == list(range(8))

    def test_nested_combinators_match_sequential(self, backend):
        @box("(<n>) -> (<n>)")
        def bump(n):
            return {"<n>": n + 1}

        inner = Serial(make_inc("a", "a"), Filter.identity())
        # the star needs <n>, which reaches it by flow inheritance: declare
        # it, since an inferred input type is only what the first entity
        # reads (see tests/snet/test_analysis.py)
        net = Network(
            "nested",
            Serial(
                IndexSplit(inner, "k"),
                Star(bump, Pattern(["<n>"], Guard(TagRef("n") >= 2))),
            ),
            signature=TypeSignature(["a", "<k>", "<n>"], ["a", "<k>", "<n>"]),
        )
        inputs = [Record({"a": i, "<k>": i % 2, "<n>": 0}) for i in range(10)]
        expected = multiset(run_network(net, inputs))
        assert multiset(run_backend(backend, net, inputs)) == expected

    def test_error_propagation_mid_stream(self, backend):
        """A box raising mid-stream fails run() promptly on every backend.

        Regression: a dead worker used to leave upstream producers blocked on
        back-pressure, so the failure only surfaced at the harness timeout.
        """

        @box("(a) -> (b)")
        def flaky(a):
            if a == 7:
                raise ValueError("box exploded mid-stream")
            return {"b": a}

        net = Serial(make_inc("a", "a"), Serial(flaky, make_inc("b", "c")))
        inputs = [Record({"a": i}) for i in range(50)]
        with pytest.raises(RuntimeError_, match="worker"):
            run_backend(backend, net, inputs, timeout=15.0)


class TestPlacementDSLAcrossBackends:
    """End-to-end: textual S-Net with ``@`` and ``!@`` runs on every backend.

    The parser has accepted the placement combinators all along; this pins
    that a program using both runs *unchanged* — identical output multisets
    — whether placement is transparent (threaded, process) or honoured with
    real compute-node workers (distributed).
    """

    SOURCE = """
    net placed_pipeline
    {
      box prep ( (raw, <node>) -> (val, <node>) );
      box work ( (val, <node>) -> (res, <node>) );
      box publish ( (res, <node>) -> (done) );
    } connect
      prep@1 .. (work!@<node>) .. publish@0
    """

    @staticmethod
    def _network():
        return build_network(
            TestPlacementDSLAcrossBackends.SOURCE,
            {
                "prep": lambda raw, node: {"val": raw * 10, "<node>": node},
                "work": lambda val, node: {"res": val + node, "<node>": node},
                "publish": lambda res, node: {"done": res},
            },
        ).instantiate()

    @staticmethod
    def _inputs():
        return [Record({"raw": i, "<node>": i % 3}) for i in range(12)]

    def test_dsl_placement_program_conforms(self, backend):
        expected = multiset(run_network(self._network(), self._inputs()))
        outs = run_backend(backend, self._network(), self._inputs())
        assert multiset(outs) == expected

    def test_identical_outputs_across_all_three_backends(self):
        results = {
            name: multiset(run_backend(name, self._network(), self._inputs()))
            for name in BACKENDS
        }
        assert results["threaded"] == results["process"] == results["distributed"]

    def test_distributed_partitions_the_dsl_program(self):
        runtime = get_runtime("distributed", nodes=2)
        outs = runtime.run(self._network(), self._inputs(), timeout=30.0)
        assert sorted(r.field("done") for r in outs) == sorted(
            10 * i + (i % 3) for i in range(12)
        )
        plan = runtime.partition_plan
        # two static partitions (@1, @0) and one dynamic (!@<node>) family
        assert sorted(v for v in plan.values() if isinstance(v, int)) == [0, 1]
        assert "!@<node>" in plan.values()


class TestProcessBackendSpecifics:
    def test_chunked_batches_conform(self):
        net = Serial(make_inc("a", "b"), make_inc("b", "c"))
        inputs = [Record({"a": i}) for i in range(40)]
        expected = multiset(run_network(net, inputs))
        outs = run_on(
            "process", net, inputs, timeout=30.0, workers=2, chunk_size=8
        )
        assert multiset(outs) == expected

    def test_not_parallel_safe_box_runs_in_parent(self):
        observed = []

        @box("(a) -> (b)", parallel_safe=False)
        def local_effect(a):
            observed.append(a)  # visible only if executed in this process
            return {"b": a}

        outs = run_on(
            "process", local_effect, [Record({"a": i}) for i in range(5)],
            timeout=30.0, workers=2,
        )
        assert len(outs) == 5
        assert sorted(observed) == [0, 1, 2, 3, 4]

    @pytest.mark.skipif(
        not ProcessRuntime.fork_available(), reason="needs fork start method"
    )
    def test_parallel_safe_box_runs_in_workers(self):
        import os

        @box("(a) -> (b)")
        def tag_pid(a):
            return {"b": os.getpid()}

        outs = run_on(
            "process", tag_pid, [Record({"a": i}) for i in range(8)],
            timeout=30.0, workers=2,
        )
        pids = {r.field("b") for r in outs}
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2

    def test_registry_is_cleaned_up_after_run(self):
        from repro.snet.runtime import process_engine

        before = dict(process_engine._BOX_REGISTRY)
        run_on(
            "process", make_inc(), [Record({"a": 1})], timeout=30.0, workers=2
        )
        assert process_engine._BOX_REGISTRY == before

    def test_distinct_boxes_sharing_one_function(self):
        """Regression: two boxes over one function must not collapse.

        The fork-shared registry used to key templates by function identity
        alone, so the second box's records were processed with the first
        box's signature in the pool worker.
        """

        def rename(value):
            return {"r": value}

        first = Box("first", "(a) -> (r)", rename)
        second = Box("second", "(b) -> (r)", rename)
        net = Parallel(first, second)
        inputs = [Record({"a": 1}), Record({"b": 2}), Record({"a": 3})]
        expected = multiset(run_network(net, inputs))
        outs = run_on("process", net, inputs, timeout=30.0, workers=2)
        assert multiset(outs) == expected

    def test_worker_error_carries_remote_traceback(self):
        @box("(a) -> (b)")
        def boom(a):
            raise KeyError("remote failure detail")

        runtime = get_runtime("process", workers=2)
        with pytest.raises(RuntimeError_) as excinfo:
            runtime.run(boom, [Record({"a": 1})], timeout=15.0)
        assert "remote failure detail" in str(excinfo.value.__cause__)

    def test_degrades_to_threaded_with_warning_without_fork(self, monkeypatch):
        """No fork -> threaded execution, announced, semantically identical."""
        monkeypatch.setattr(ProcessRuntime, "fork_available", staticmethod(lambda: False))
        runtime = ProcessRuntime(workers=2)
        inputs = [Record({"a": i}) for i in range(5)]
        with pytest.warns(RuntimeWarning, match="degrading to threaded"):
            outs = runtime.run(make_inc(), inputs, timeout=15.0)
        assert sorted(r.field("b") for r in outs) == [1, 2, 3, 4, 5]
        assert runtime.bytes_pickled == 0  # nothing crossed a process boundary

    def test_fork_path_emits_no_degradation_warning(self):
        if not ProcessRuntime.fork_available():
            pytest.skip("needs fork start method")
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            outs = run_on("process", make_inc(), [Record({"a": 1})],
                          timeout=15.0, workers=2)
        assert len(outs) == 1


class TestZeroCopyDataPlane:
    """The fork-shared payload broadcast (zero-copy layer 1) specifics."""

    class BigPayload:
        """A broadcast-worthy stand-in (size estimate above the threshold)."""

        def __init__(self, token):
            self.token = token
            self.prepared = 0

        def payload_size(self):
            return 1 << 20

        def prepare_for_broadcast(self):
            self.prepared += 1
            return self

    @pytest.mark.skipif(
        not ProcessRuntime.fork_available(), reason="needs fork start method"
    )
    def test_broadcast_payload_is_never_pickled(self):
        class Unpicklable(self.BigPayload):
            def __reduce__(self):
                raise TypeError("this payload must not cross by value")

        payload = Unpicklable("scene")

        @box("(scene, a) -> (b)")
        def use_scene(scene, a):
            # the worker sees the fork-inherited object, fully usable
            return {"b": f"{scene.token}-{a}"}

        inputs = [Record({"scene": payload, "a": i}) for i in range(6)]
        outs = run_on("process", use_scene, inputs, timeout=30.0, workers=2)
        assert sorted(r.field("b") for r in outs) == [f"scene-{i}" for i in range(6)]
        assert payload.prepared == 1  # prepared exactly once, pre-fork

    @pytest.mark.skipif(
        not ProcessRuntime.fork_available(), reason="needs fork start method"
    )
    def test_flow_inherited_payload_resolves_to_parent_object(self):
        """A broadcast value flow-inherited through an offloaded box comes
        back as the *same* parent-side object, not a pickled copy."""
        payload = self.BigPayload("shared")

        @box("(a) -> (b)")  # does not consume 'big' -> flow inheritance
        def passthrough(a):
            return {"b": a + 1}

        inputs = [Record({"a": 1, "big": payload})]
        outs = run_on("process", passthrough, inputs, timeout=30.0, workers=2)
        assert len(outs) == 1
        assert outs[0].field("big") is payload

    def test_shared_registry_cleaned_up_after_run(self):
        from repro.snet.runtime import process_engine

        payload = self.BigPayload("transient")
        before_objects = dict(process_engine._SHARED_OBJECTS)
        before_ids = dict(process_engine._SHARED_BY_ID)
        run_on(
            "process",
            make_inc(),
            [Record({"a": 1, "big": payload})],
            timeout=30.0,
            workers=2,
        )
        assert process_engine._SHARED_OBJECTS == before_objects
        assert process_engine._SHARED_BY_ID == before_ids

    @pytest.mark.skipif(
        not ProcessRuntime.fork_available(), reason="needs fork start method"
    )
    def test_zero_copy_disabled_matches_semantics(self):
        net = Serial(make_inc("a", "b"), make_inc("b", "c"))
        inputs = [Record({"a": i}) for i in range(10)]
        expected = multiset(run_network(net, inputs))
        outs = run_on(
            "process", net, inputs, timeout=30.0, workers=2, zero_copy=False
        )
        assert multiset(outs) == expected

    def test_small_values_are_not_broadcast(self):
        runtime = ProcessRuntime(workers=2)
        assert not runtime._broadcast_worthy(7)
        assert not runtime._broadcast_worthy("short string")
        assert not runtime._broadcast_worthy(None)
        assert not runtime._broadcast_worthy(b"x" * 100)
        assert runtime._broadcast_worthy(self.BigPayload("big"))


class TestBatchAutotuning:
    def test_cheap_records_grow_batches_and_pipeline(self):
        from repro.snet.runtime import BatchAutotuner

        tuner = BatchAutotuner(workers=4)
        assert (tuner.chunk_size, tuner.max_inflight) == (1, 8)
        for batch_len in (1, 4, 16, 64, 64):
            tuner.observe(batch_len, elapsed=batch_len * 1e-5)  # 10us/record
        assert tuner.chunk_size == BatchAutotuner.CHUNK_MAX
        assert tuner.max_inflight == 16  # deep pipeline: 4x workers

    def test_expensive_records_stay_single(self):
        from repro.snet.runtime import BatchAutotuner

        tuner = BatchAutotuner(workers=4)
        for _ in range(5):
            tuner.observe(1, elapsed=0.25)  # a solver-sized record
        assert tuner.chunk_size == 1
        assert tuner.max_inflight == 8  # shallow: 2x workers

    def test_growth_is_bounded_per_observation(self):
        from repro.snet.runtime import BatchAutotuner

        tuner = BatchAutotuner(workers=2)
        tuner.observe(1, elapsed=1e-6)  # one absurdly fast sample
        assert tuner.chunk_size <= 4  # at most 4x growth per step

    def test_pinned_values_never_adapt(self):
        from repro.snet.runtime import BatchAutotuner

        tuner = BatchAutotuner(workers=4, chunk_size=3, max_inflight=5)
        for _ in range(10):
            tuner.observe(3, elapsed=1e-6)
        assert (tuner.chunk_size, tuner.max_inflight) == (3, 5)

    @pytest.mark.skipif(
        not ProcessRuntime.fork_available(), reason="needs fork start method"
    )
    def test_autotuned_run_conforms_and_reports_plan(self):
        net = make_inc()
        inputs = [Record({"a": i}) for i in range(200)]
        runtime = ProcessRuntime(workers=2)  # chunk_size=None -> autotune
        outs = runtime.run(net, inputs, timeout=30.0)
        assert sorted(r.field("b") for r in outs) == list(range(1, 201))
        (plan,) = runtime.batch_plan.values()
        chunk_size, max_inflight = plan
        assert chunk_size >= 1
        assert max_inflight >= 2


class TestRayTracingFarmConformance:
    """The paper's farm renders the identical image on every backend.

    Parametrised over the solver's render mode as well: the farm must
    produce exactly the sequential image of the *same* mode on every
    backend, and the fused image must match the scalar one to ``1e-9``.
    """

    @pytest.mark.parametrize("variant", ["static", "dynamic"])
    @pytest.mark.parametrize("render_mode", ["scalar", "fused"])
    def test_farm_image_identical_across_backends(self, backend, variant, render_mode):
        import numpy as np

        from repro.apps import run_raytracing_farm
        from repro.raytracer import Camera, random_scene, render
        from repro.raytracer.image import image_rms_difference

        scene = random_scene(num_spheres=6, clustering=0.5, seed=3)
        scalar_reference = render(scene, Camera(width=24, height=24), mode="scalar")
        reference = render(scene, Camera(width=24, height=24), mode=render_mode)
        options = {"workers": 2} if backend == "process" else {}
        run = run_raytracing_farm(
            variant,
            runtime=backend,
            width=24,
            height=24,
            nodes=2,
            tasks=4,
            scene=scene,
            runtime_options=options,
            timeout=60.0,
            render_mode=render_mode,
        )
        assert image_rms_difference(run.image, reference) == 0.0
        assert np.allclose(run.image, scalar_reference, atol=1e-9)
        # the farm surfaces the solver-side ray accounting on every backend
        # (the chunks carry the counts back across process boundaries)
        assert run.rays_cast >= 24 * 24
        assert run.render_mode == render_mode
