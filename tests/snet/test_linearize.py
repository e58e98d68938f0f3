"""Sequential-chain linearization: the pass, its boundaries, its transparency.

The rewrite (:mod:`repro.snet.runtime.linearize`) must be *observably
invisible*: for every network and input stream, a runtime with ``fuse="auto"``
produces exactly the record multiset a ``fuse="off"`` runtime produces — on
every executing backend.  The structural tests pin what may and may not be
fused; the conformance tests pin the output equality.
"""

from collections import Counter

import pytest

from repro.snet.boxes import box
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.errors import RuntimeError_
from repro.snet.filters import Filter
from repro.snet.network import Network, run_network
from repro.snet.patterns import Guard, Pattern, TagRef
from repro.snet.placement import StaticPlacement
from repro.snet.records import Record
from repro.snet.runtime import (
    DistributedRuntime,
    FusedChain,
    ProcessRuntime,
    ThreadedRuntime,
    linearize,
)
from repro.snet.runtime.tracing import Tracer
from repro.snet.synchrocell import SyncroCell

pytestmark = pytest.mark.usefixtures("no_process_leaks")


def make_chain():
    @box("(x) -> (y)", name="stage_a")
    def a(x):
        return {"y": x + 1}

    @box("(y) -> (z)", name="stage_b")
    def b(y):
        return {"z": y * 2}

    @box("(z) -> (w)", name="stage_c")
    def c(z):
        return {"w": z - 3}

    return a, b, c


def multiset(records):
    return Counter(repr(r) for r in records)


def walk_types(entity):
    return [type(e).__name__ for e in entity.iter_entities()]


class TestFusedChainSemantics:
    def test_process_pipes_through_stages(self):
        a, b, c = make_chain()
        fused = FusedChain([a, b, c])
        (out,) = fused.process(Record({"x": 5}))
        assert out.field("w") == 9  # ((5+1)*2)-3

    def test_needs_two_stages(self):
        a, _, _ = make_chain()
        with pytest.raises(ValueError):
            FusedChain([a])

    def test_signature_composes_serially(self):
        a, b, _ = make_chain()
        fused = FusedChain([a, b])
        assert fused.signature.input_type == a.signature.input_type
        assert fused.signature.output_type == b.signature.output_type

    def test_copy_resets_and_renumbers(self):
        a, b, _ = make_chain()
        fused = FusedChain([a, b])
        dup = fused.copy()
        assert dup.entity_id != fused.entity_id
        assert [s.name for s in dup.stages] == [s.name for s in fused.stages]
        assert dup.process(Record({"x": 1}))[0].field("z") == 4

    def test_flush_cascades_through_later_stages(self):
        # a stage that releases a record at end-of-stream must still have it
        # transformed by the stages after it
        class Hoarder(Filter):
            def __init__(self):
                super().__init__([], name="hoarder")
                self.pattern = Pattern(["x"])

            @property
            def signature(self):
                a, _, _ = make_chain()
                return a.signature

            def process(self, rec):
                return []

            def flush(self):
                return [Record({"x": 10})]

        a, b, _ = make_chain()
        fused = FusedChain([Hoarder(), a, b])
        assert fused.process(Record({"x": 1})) == []
        (out,) = fused.flush()
        assert out.field("z") == 22


class TestRewriteStructure:
    def test_pure_chain_collapses_to_one_entity(self):
        a, b, c = make_chain()
        target, count = linearize((a >> b >> c).copy())
        assert count == 1
        assert isinstance(target, FusedChain)
        assert [s.name for s in target.stages] == ["stage_a", "stage_b", "stage_c"]

    def test_filters_fuse_with_boxes(self):
        a, b, _ = make_chain()
        target, count = linearize(Serial(Serial(a, Filter.identity()), b).copy())
        assert count == 1
        assert isinstance(target, FusedChain)
        assert len(target.stages) == 3

    def test_synchrocell_breaks_the_chain(self):
        a, b, c = make_chain()
        sync = SyncroCell([["p"], ["q"]])
        net = a >> b >> sync >> c
        target, count = linearize(net.copy())
        assert count == 1  # only the a..b prefix fuses; c stays alone
        names = walk_types(target)
        assert "SyncroCell" in names
        assert names.count("FusedChain") == 1

    def test_single_primitive_runs_are_left_alone(self):
        a, _, _ = make_chain()
        sync = SyncroCell([["p"], ["q"]])
        target, count = linearize((a >> sync).copy())
        assert count == 0
        assert "FusedChain" not in walk_types(target)

    def test_parallel_branches_fuse_independently(self):
        a, b, c = make_chain()

        @box("(w) -> (v)", name="stage_d")
        def d(w):
            return {"v": w}

        target, count = linearize(((a >> b) | (c >> d)).copy())
        assert count == 2
        assert isinstance(target, Parallel)
        assert all(isinstance(br, FusedChain) for br in target.branches)

    def test_star_operand_fuses_but_star_survives(self):
        a, b, _ = make_chain()
        star = Star(Serial(a, b), Pattern(["z"]))
        target, count = linearize(star.copy())
        assert count == 1
        assert isinstance(target, Star)
        assert isinstance(target.operand, FusedChain)

    def test_placement_subtree_is_untouched(self):
        a, b, c = make_chain()
        placed = StaticPlacement(Serial(a, b), 1)
        target, count = linearize(Serial(placed, c).copy())
        assert count == 0
        assert "FusedChain" not in walk_types(target)

    def test_placed_split_operand_is_untouched(self):
        a, b, _ = make_chain()
        split = IndexSplit(Serial(a, b), "node", placed=True)
        target, count = linearize(split.copy())
        assert count == 0
        assert "FusedChain" not in walk_types(target)

    def test_unplaced_split_operand_fuses(self):
        a, b, _ = make_chain()
        split = IndexSplit(Serial(a, b), "k")
        target, count = linearize(split.copy())
        assert count == 1
        assert isinstance(target.operand, FusedChain)

    def test_network_body_fuses(self):
        a, b, _ = make_chain()
        target, count = linearize(Network("net", Serial(a, b)).copy())
        assert count == 1
        assert isinstance(target, Network)
        assert isinstance(target.body, FusedChain)

    def test_claims_veto_fusion(self):
        a, b, c = make_chain()
        target, count = linearize(
            (a >> b >> c).copy(), claims=lambda e: e.name == "stage_b"
        )
        assert count == 0
        assert "FusedChain" not in walk_types(target)

    def test_claims_split_the_chain_around_the_claimed_stage(self):
        a, b, c = make_chain()

        @box("(w) -> (v)", name="stage_d")
        def d(w):
            return {"v": w}

        target, count = linearize(
            (a >> b >> c >> d).copy(), claims=lambda e: e.name == "stage_c"
        )
        assert count == 1  # a..b fuses; c is claimed; d stands alone
        names = [type(e).__name__ for e in target.iter_entities()]
        assert names.count("FusedChain") == 1


class TestEngineKnob:
    def test_invalid_mode_rejected(self):
        with pytest.raises(RuntimeError_):
            ThreadedRuntime(fuse="always")

    def test_auto_fuses_and_counts(self):
        a, b, c = make_chain()
        runtime = ThreadedRuntime()
        outputs = runtime.run(a >> b >> c, [Record({"x": i}) for i in range(4)])
        assert runtime.fused_chains == 1
        assert sorted(r.field("w") for r in outputs) == [-1, 1, 3, 5]

    def test_off_disables_the_pass(self):
        a, b, c = make_chain()
        runtime = ThreadedRuntime(fuse="off")
        outputs = runtime.run(a >> b >> c, [Record({"x": i}) for i in range(4)])
        assert runtime.fused_chains == 0
        assert sorted(r.field("w") for r in outputs) == [-1, 1, 3, 5]

    def test_tracing_disables_fusion_and_keeps_per_stage_events(self):
        a, b, c = make_chain()
        tracer = Tracer()
        runtime = ThreadedRuntime(tracer=tracer)
        runtime.run(a >> b >> c, [Record({"x": 1})])
        assert runtime.fused_chains == 0
        sources = {e.entity for e in tracer.events}
        assert {"stage_a", "stage_b", "stage_c"} <= sources

    def test_fusion_requires_clean_analysis(self):
        # a network the analyzer flags (star that can never exit) must run
        # unfused — fusion needs positive proof of safety
        a, b, _ = make_chain()

        @box("(<n>) -> (<n>)", name="spin")
        def spin(n):
            return {"<n>": n}

        stuck = Star(spin, Pattern(["<n>"], Guard(TagRef("n") >= 2)))
        net = Serial(Serial(a, b), stuck)
        runtime = ThreadedRuntime()
        with pytest.warns(RuntimeWarning):
            outputs = runtime.run(net, [], timeout=10.0)
        assert runtime.fused_chains == 0
        assert outputs == []

    def test_stale_runs_are_never_rewritten(self):
        # fresh=False executes the caller's own object; the pass must not
        # mutate a network the caller still holds
        a, b, _ = make_chain()
        net = Serial(a, b)
        runtime = ThreadedRuntime()
        runtime.run(net, [Record({"x": 1})], fresh=False)
        assert runtime.fused_chains == 0
        assert isinstance(net.left, type(a))

    def test_process_pool_claims_exclude_offloaded_boxes(self):
        # parallel_safe boxes registered with the pool execute out of
        # process; fusing them would silently disable the offload
        a, b, c = make_chain()
        runtime = ProcessRuntime(workers=2)
        outputs = runtime.run(a >> b >> c, [Record({"x": i}) for i in range(4)])
        assert runtime.fused_chains == 0
        assert sorted(r.field("w") for r in outputs) == [-1, 1, 3, 5]


class TestLinearizationTransparency:
    """fuse="auto" and fuse="off" must emit identical output multisets."""

    def _inputs(self):
        return [Record({"x": i, "<k>": i % 3}) for i in range(12)]

    def _net(self):
        a, b, c = make_chain()

        @box("(w) -> (v)", name="stage_d")
        def d(w):
            return {"v": w * 10}

        return Serial(Serial(Serial(a, Filter.identity()), b), Serial(c, d))

    def test_threaded(self):
        on = ThreadedRuntime()
        off = ThreadedRuntime(fuse="off")
        assert multiset(on.run(self._net(), self._inputs())) == multiset(
            off.run(self._net(), self._inputs())
        )
        assert on.fused_chains >= 1

    def test_process(self):
        on = ProcessRuntime(workers=2)
        off = ProcessRuntime(workers=2, fuse="off")
        assert multiset(on.run(self._net(), self._inputs())) == multiset(
            off.run(self._net(), self._inputs())
        )

    def test_distributed(self):
        on = DistributedRuntime(nodes=2)
        off = DistributedRuntime(nodes=2, fuse="off")
        assert multiset(on.run(self._net(), self._inputs())) == multiset(
            off.run(self._net(), self._inputs())
        )

    def test_simulated(self):
        from repro.cluster.topology import paper_cluster
        from repro.dsnet.simruntime import SimulatedDSNetRuntime

        on = SimulatedDSNetRuntime(paper_cluster())
        off = SimulatedDSNetRuntime(paper_cluster(), fuse="off")
        assert multiset(on.run(self._net(), self._inputs()).outputs) == multiset(
            off.run(self._net(), self._inputs()).outputs
        )

    def test_matches_sequential_reference(self):
        expected = multiset(run_network(self._net(), self._inputs()))
        runtime = ThreadedRuntime()
        assert multiset(runtime.run(self._net(), self._inputs())) == expected

    def test_star_heavy_network(self):
        @box("(<n>) -> (<n>)", name="bump")
        def bump(n):
            return {"<n>": n + 1}

        @box("(<n>) -> (<n>, m)", name="mark")
        def mark(n):
            return {"<n>": n, "m": n}

        star = Star(Serial(bump, Filter.identity()), Pattern(["<n>"], Guard(TagRef("n") >= 3)))
        net = Serial(star, mark)
        inputs = [Record({"<n>": i}) for i in range(4)]
        on = ThreadedRuntime()
        off = ThreadedRuntime(fuse="off")
        assert multiset(on.run(net, inputs, timeout=20.0)) == multiset(
            off.run(net, inputs, timeout=20.0)
        )
        assert on.fused_chains >= 1
