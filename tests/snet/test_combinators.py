"""Unit tests for the four S-Net network combinators."""

import pytest

from repro.snet.boxes import Box, box
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star, parallel, serial, split, star
from repro.snet.errors import NetworkError, RouteError
from repro.snet.filters import Filter
from repro.snet.network import run_network
from repro.snet.patterns import Guard, Pattern, TagRef
from repro.snet.records import Record
from repro.snet.synchrocell import SyncroCell


def make_inc(label_in="a", label_out="b", delta=1):
    @box(f"({label_in}) -> ({label_out})", name=f"inc_{label_in}_{label_out}")
    def inc(value):
        return {label_out: value + delta}

    return inc


class TestSerial:
    def test_pipeline_of_two_boxes(self):
        net = Serial(make_inc("a", "b"), make_inc("b", "c"))
        out = run_network(net, [Record({"a": 1})])
        assert out[0].field("c") == 3

    def test_serial_helper_folds_left(self):
        net = serial(make_inc("a", "b"), make_inc("b", "c"), make_inc("c", "d"))
        out = run_network(net, [Record({"a": 0})])
        assert out[0].field("d") == 3

    def test_serial_requires_entities(self):
        with pytest.raises(NetworkError):
            serial()

    def test_signature_composes(self):
        net = Serial(make_inc("a", "b"), make_inc("b", "c"))
        assert net.accepts(Record({"a": 1}))
        assert net.signature.output_type.accepts(Record({"c": 1}))

    def test_intermediate_records_all_processed(self):
        @box("(xs) -> (x)")
        def explode(xs):
            return [{"x": v} for v in xs]

        @box("(x) -> (y)")
        def double(x):
            return {"y": x * 2}

        net = Serial(explode, double)
        out = run_network(net, [Record({"xs": [1, 2, 3]})])
        assert sorted(r.field("y") for r in out) == [2, 4, 6]


class TestParallel:
    def test_routing_by_type(self):
        net = Parallel(make_inc("a", "x"), make_inc("b", "y"))
        outs = run_network(net, [Record({"a": 1}), Record({"b": 10})])
        assert any(r.has_field("x") for r in outs)
        assert any(r.has_field("y") for r in outs)

    def test_best_match_wins(self):
        @box("(a) -> (generic)")
        def generic(a):
            return {"generic": a}

        @box("(a, b) -> (specific)")
        def specific(a, b):
            return {"specific": a + b}

        net = Parallel(generic, specific)
        out = run_network(net, [Record({"a": 1, "b": 2})])
        assert out[0].has_field("specific")

    def test_bypass_branch_is_weaker_match(self):
        # ( init | [] ) -- records with the init pattern go to init,
        # everything else bypasses; this is the Fig. 3 idiom.
        @box("(chunk, <fst>) -> (pic)")
        def init(chunk, fst):
            return {"pic": [chunk]}

        net = Parallel(init, Filter.identity())
        outs = run_network(
            net,
            [Record({"chunk": "C0", "<fst>": 1}), Record({"chunk": "C1"})],
        )
        assert any(r.has_field("pic") for r in outs)
        assert any(r.has_field("chunk") and not r.has_field("pic") for r in outs)

    def test_unroutable_record_raises(self):
        net = Parallel(make_inc("a", "x"), make_inc("b", "y"))
        with pytest.raises(RouteError):
            run_network(net, [Record({"z": 1})])

    def test_parallel_helper(self):
        net = parallel(make_inc("a", "x"), make_inc("b", "y"), make_inc("c", "z"))
        outs = run_network(net, [Record({"c": 5})])
        assert outs[0].field("z") == 6

    def test_deterministic_flag_repr(self):
        net = Parallel(make_inc(), make_inc(), deterministic=True)
        assert "||" in repr(net)


class TestStar:
    def test_records_matching_exit_pattern_leave_immediately(self):
        net = Star(make_inc("a", "a", delta=1), Pattern(["done"]))
        rec = Record({"done": 1})
        assert run_network(net, [rec]) == [rec]

    def test_iterates_until_exit(self):
        # increment <n> until it reaches 5, then the guard pattern matches
        @box("(<n>) -> (<n>)")
        def bump(n):
            return {"<n>": n + 1}

        exit_pattern = Pattern(["<n>"], Guard(TagRef("n") >= 5))
        net = Star(bump, exit_pattern)
        out = run_network(net, [Record({"<n>": 0})])
        assert out[0].tag("n") == 5

    def test_star_instances_have_independent_state(self):
        # a synchrocell inside a star: each unrolling gets a fresh cell
        sync = SyncroCell([["a"], ["b"]])
        net = Star(sync, Pattern(["exit"]))
        run_network(net, [Record({"a": 1}), Record({"b": 2})], fresh=False)
        # the merged {a,b} record re-enters the star and is stored by a fresh
        # second synchrocell instance; the first instance has fired
        assert net.unrolled_depth == 2
        first, second = net._instances
        assert first.fired
        assert not second.fired and len(second.pending) == 1

    def test_unrolled_depth_grows_lazily(self):
        @box("(<n>) -> (<n>)")
        def bump(n):
            return {"<n>": n + 1}

        net = Star(bump, Pattern(["<n>"], Guard(TagRef("n") >= 3)))
        run_network(net, [Record({"<n>": 0})], fresh=False)
        assert net.unrolled_depth == 3

    def test_max_depth_guard(self):
        @box("(<n>) -> (<n>)")
        def same(n):
            return {"<n>": n}

        net = Star(same, Pattern(["never"]), max_depth=10)
        with pytest.raises(NetworkError):
            run_network(net, [Record({"<n>": 0})])

    def test_star_helper(self):
        net = star(make_inc("a", "a"), Pattern(["stop"]))
        assert isinstance(net, Star)


class TestIndexSplit:
    def test_routes_by_tag_value(self):
        calls = []

        @box("(sect, <node>) -> (chunk)")
        def solve(sect, node):
            calls.append(node)
            return {"chunk": (node, sect)}

        net = IndexSplit(solve, "node")
        recs = [Record({"sect": i, "<node>": i % 2}) for i in range(4)]
        outs = run_network(net, recs)
        assert len(outs) == 4
        assert sorted(calls) == [0, 0, 1, 1]

    def test_one_instance_per_tag_value(self):
        @box("(sect, <node>) -> (chunk)")
        def solve(sect, node):
            return {"chunk": sect}

        net = IndexSplit(solve, "node")
        run_network(net, [Record({"sect": 1, "<node>": 7}), Record({"sect": 2, "<node>": 9})], fresh=False)
        assert set(net.instances.keys()) == {7, 9}

    def test_missing_tag_raises(self):
        net = IndexSplit(make_inc("a", "b"), "node")
        with pytest.raises(RouteError):
            run_network(net, [Record({"a": 1})])

    def test_tag_accepted_with_angle_brackets(self):
        net = split(make_inc("a", "b"), "<node>")
        assert net.tag == "node"

    def test_placed_flag_for_distributed_snet(self):
        net = split(make_inc("a", "b"), "node", placed=True)
        assert net.placed
        assert "!@" in repr(net)

    def test_signature_requires_tag(self):
        net = IndexSplit(make_inc("a", "b"), "node")
        assert not net.accepts(Record({"a": 1}))
        assert net.accepts(Record({"a": 1, "<node>": 0}))


class TestCopySemantics:
    def test_copying_resets_nested_state(self):
        sync = SyncroCell([["a"], ["b"]])
        net = Serial(Filter.identity(), sync)
        sync.process(Record({"a": 1}))
        clone = net.copy()
        nested_syncs = [e for e in clone.iter_entities() if isinstance(e, SyncroCell)]
        assert len(nested_syncs) == 1
        assert nested_syncs[0].pending == {}

    def test_copy_assigns_new_entity_ids(self):
        net = Serial(make_inc(), make_inc())
        clone = net.copy()
        original_ids = {e.entity_id for e in net.iter_entities()}
        clone_ids = {e.entity_id for e in clone.iter_entities()}
        assert original_ids.isdisjoint(clone_ids)

    def test_copy_shares_immutable_type_objects(self):
        exit_pattern = Pattern(["<n>"], Guard(TagRef("n") == 3))
        net = Star(Serial(make_inc(), SyncroCell([["a"], ["b"]])), exit_pattern)
        clone = net.copy()
        for original, copied in zip(net.iter_entities(), clone.iter_entities()):
            assert copied is not original
        (box_a,) = [e for e in net.iter_entities() if isinstance(e, Box)]
        (box_b,) = [e for e in clone.iter_entities() if isinstance(e, Box)]
        assert box_b.signature is box_a.signature
        assert clone.exit_pattern.guard.expr is exit_pattern.guard.expr

    def test_run_network_fresh_does_not_mutate_original(self):
        net = Star(make_inc("a", "a"), Pattern(["stop"]), max_depth=50)
        run_network(net, [Record({"stop": 1})])
        assert net.unrolled_depth == 0
