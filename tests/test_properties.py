"""Property-based tests (hypothesis) on the core data structures and invariants."""

import string

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from repro.raytracer.bvh import BruteForceIndex
from repro.raytracer.flatbvh import FlatBVH
from repro.raytracer.geometry import Plane, Sphere, Triangle
from repro.raytracer.ray import Ray
from repro.raytracer.vec import vec3
from repro.scheduling import BlockScheduler, FactoringScheduler, validate_sections
from repro.snet.boxes import box
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.filters import Filter
from repro.snet.network import Network, run_network
from repro.snet.patterns import Guard, Pattern, TagRef
from repro.snet.placement import StaticPlacement
from repro.snet.records import Field, Record, Tag
from repro.snet.runtime import ThreadedRuntime
from repro.snet.types import RecordType, TypeSignature, Variant
from repro.mpisim.datatypes import payload_bytes

from oracles import assert_same_tree

pytestmark = pytest.mark.usefixtures("no_process_leaks")

# -- strategies ---------------------------------------------------------------

label_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@st.composite
def variants(draw):
    fields = draw(st.sets(label_names, max_size=5))
    tags = draw(st.sets(label_names, max_size=3))
    return Variant([Field(n) for n in fields] + [Tag(n) for n in tags])


@st.composite
def records(draw):
    fields = draw(st.dictionaries(label_names, st.integers(), max_size=5))
    tags = draw(st.dictionaries(label_names, st.integers(-1000, 1000), max_size=3))
    entries = {Field(n): v for n, v in fields.items()}
    entries.update({Tag(n): v for n, v in tags.items()})
    return Record(entries)


# -- subtyping laws --------------------------------------------------------------
class TestSubtypingProperties:
    @settings(max_examples=60, deadline=None)
    @given(variants())
    def test_subtyping_is_reflexive(self, v):
        assert v.is_subtype_of(v)

    @settings(max_examples=60, deadline=None)
    @given(variants(), variants())
    def test_adding_labels_creates_subtype(self, a, b):
        combined = a.union(b)
        assert combined.is_subtype_of(a)
        assert combined.is_subtype_of(b)

    @settings(max_examples=60, deadline=None)
    @given(variants(), variants(), variants())
    def test_subtyping_is_transitive(self, a, b, c):
        if a.is_subtype_of(b) and b.is_subtype_of(c):
            assert a.is_subtype_of(c)

    @settings(max_examples=60, deadline=None)
    @given(variants())
    def test_every_variant_is_subtype_of_empty(self, v):
        assert v.is_subtype_of(Variant())

    @settings(max_examples=60, deadline=None)
    @given(records(), variants())
    def test_match_score_counts_ignored_labels(self, rec, v):
        score = v.match_score(rec)
        if score is not None:
            assert 0 <= score <= len(rec)
            assert v.accepts(rec)

    @settings(max_examples=60, deadline=None)
    @given(records())
    def test_record_always_matches_its_own_variant(self, rec):
        own = Variant(rec.labels())
        assert own.accepts(rec)
        assert own.match_score(rec) == 0


# -- record / flow-inheritance laws ----------------------------------------------
class TestRecordProperties:
    @settings(max_examples=60, deadline=None)
    @given(records(), records())
    def test_merge_override_prefers_right_operand(self, a, b):
        merged = a.merge(b, override=True)
        for label in b.labels():
            assert merged[label] == b[label]
        assert set(merged.labels()) == set(a.labels()) | set(b.labels())

    @settings(max_examples=60, deadline=None)
    @given(records())
    def test_excess_plus_projection_reconstructs_record(self, rec):
        labels = list(rec.labels())
        consumed = labels[: len(labels) // 2]
        excess = rec.excess_over(consumed)
        projected = rec.project(consumed)
        assert excess.merge(projected) == rec

    @settings(max_examples=60, deadline=None)
    @given(records())
    def test_payload_size_is_positive(self, rec):
        assert rec.payload_size() > 0
        assert payload_bytes(rec) > 0

    @settings(max_examples=60, deadline=None)
    @given(records(), records())
    def test_structural_equality_ignores_uid(self, a, b):
        duplicate = Record({l: a[l] for l in a.labels()})
        assert duplicate == a
        assert duplicate.uid != a.uid


# -- scheduler invariants --------------------------------------------------------
class TestSchedulerProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(64, 4000))
    def test_block_sections_tile_image(self, tasks, height):
        sections = BlockScheduler(tasks).sections(height)
        validate_sections(sections, height)
        assert len(sections) == tasks
        assert sum(s.rows for s in sections) == height
        # block scheduling is one batch: sizes may differ by at most one row
        sizes = [s.rows for s in sections]
        assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 16).map(lambda k: 2 * k),  # even task counts
        st.integers(500, 4000),
        st.floats(1.5, 5.0),
    )
    def test_factoring_sections_tile_image(self, tasks, height, decay):
        scheduler = FactoringScheduler(num_tasks=tasks, num_batches=2, decay=decay)
        sections = scheduler.sections(height)
        validate_sections(sections, height)
        assert len(sections) == tasks

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(1, 4),  # batches
        st.integers(1, 12),  # sections per batch
        st.integers(100, 6000),
        st.floats(1.5, 5.0),
    )
    def test_factoring_within_batch_spread_at_most_one(
        self, batches, per_batch, height, decay
    ):
        """Pins the remainder fix: sections tile exactly and every batch is
        uniform to within one row (no dumping of leftover rows into the
        closing section)."""
        tasks = batches * per_batch
        scheduler = FactoringScheduler(num_tasks=tasks, num_batches=batches, decay=decay)
        try:
            sections = scheduler.sections(height)
        except ValueError:
            # the configuration genuinely does not fit this height
            assume(False)
        validate_sections(sections, height)
        assert len(sections) == tasks
        for batch in range(batches):
            rows = [s.rows for s in sections[batch * per_batch:(batch + 1) * per_batch]]
            assert max(rows) - min(rows) <= 1, (batch, rows)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16).map(lambda k: 2 * k), st.integers(1000, 4000))
    def test_factoring_first_batch_not_smaller_than_last(self, tasks, height):
        sizes = FactoringScheduler(num_tasks=tasks).batch_sizes(height)
        assert sizes[0] >= sizes[-1] >= 1


# -- BVH invariants -------------------------------------------------------------
sphere_lists = st.lists(
    st.tuples(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-10, -1), st.floats(0.05, 1.0)
    ),
    min_size=1,
    max_size=25,
)

#: the float-heavy BVH properties report a failure as generated: shrinking
#: their scenes ran for minutes and hundreds of MB before reporting anything
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


class TestBVHProperties:
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(sphere_lists)
    def test_build_invariants(self, raw):
        spheres = [Sphere(vec3(x, y, z), r) for x, y, z, r in raw]
        flat = FlatBVH.build(spheres)
        n = len(spheres)
        assert flat.size == n and flat.box_min.shape[1] == 2 * n - 1
        assert sorted(map(id, flat.packet_primitives)) == sorted(map(id, spheres))
        internal = np.flatnonzero(flat.left >= 0)
        left, right = flat.left[internal], flat.right[internal]
        assert np.array_equal(right, internal + 1)
        assert np.array_equal(
            flat.box_min[:, internal], np.minimum(flat.box_min[:, left], flat.box_min[:, right])
        )
        assert np.array_equal(
            flat.box_max[:, internal], np.maximum(flat.box_max[:, left], flat.box_max[:, right])
        )
        for slot, sphere in enumerate(flat.packet_primitives):
            node = flat.leaf_node[slot]
            assert np.array_equal(flat.box_min[:, node], sphere.bounding_box().minimum)
            assert flat.leaf_end[node] - flat.first_leaf[node] == 1

    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(sphere_lists, st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
    def test_bvh_agrees_with_brute_force(self, raw, dx, dy):
        spheres = [Sphere(vec3(x, y, z), r) for x, y, z, r in raw]
        flat = FlatBVH.build(spheres)
        brute = BruteForceIndex(spheres)
        ray = Ray(vec3(0, 0, 5), vec3(dx, dy, -1.0))
        flat_hit, flat_t = flat.intersect(ray)
        brute_hit, brute_t = brute.intersect(ray)
        assert (flat_hit is None) == (brute_hit is None)
        assert flat_t == brute_t


# -- runtime stream invariants ---------------------------------------------------
#
# Random record streams through randomly composed combinator graphs.  Every
# component of the grammar below conserves records one-to-one, so for any
# generated graph the runtime must emit exactly one output per input — no
# loss, no duplication, no deadlock — at any stream capacity (including the
# fully throttled capacity=1 configuration).  Each input carries a unique
# ``ident`` field that flow inheritance must preserve end to end.

STAR_EXIT = 3  # bump boxes increment <n>; records enter with <n> <= this


def _bump_box():
    @box("(<n>) -> (<n>)", name="bump")
    def bump(n):
        return {"<n>": n + 1}

    return bump


def _inc_box():
    @box("(<n>) -> (<n>)", name="inc")
    def inc(n):
        return {"<n>": n}

    return inc


@st.composite
def combinator_graphs(draw, depth=0):
    """A random record-conserving combinator graph over {<n>, <k>} records."""
    leaves = ["inc", "identity"]
    choices = list(leaves)
    if depth < 3:
        choices += ["serial", "parallel", "split", "star"]
    kind = draw(st.sampled_from(choices))
    if kind == "inc":
        return _inc_box()
    if kind == "identity":
        return Filter.identity()
    if kind == "serial":
        return Serial(
            draw(combinator_graphs(depth=depth + 1)),
            draw(combinator_graphs(depth=depth + 1)),
        )
    if kind == "parallel":
        # both branches accept every record; route() still must send each
        # record to exactly one of them
        return Parallel(
            draw(combinator_graphs(depth=depth + 1)),
            draw(combinator_graphs(depth=depth + 1)),
        )
    if kind == "split":
        return IndexSplit(draw(combinator_graphs(depth=depth + 1)), "k")
    # star: the operand must strictly advance <n> towards the exit guard,
    # otherwise the unrolling would never terminate
    return Star(_bump_box(), Pattern(["<n>"], Guard(TagRef("n") >= STAR_EXIT)))


#: every generated stream record carries exactly these labels; graphs run
#: as networks declaring them, so the runtimes' static check seeds the
#: records that really arrive (an inferred input type is only what the
#: first entity reads, see tests/snet/test_analysis.py)
STREAM_SIGNATURE = TypeSignature(["<n>", "<k>", "ident"], ["<n>", "<k>", "ident"])


def declared(entity):
    return Network("stream_graph", entity, signature=STREAM_SIGNATURE)


@st.composite
def record_streams(draw):
    count = draw(st.integers(0, 30))
    return [
        Record(
            {
                "<n>": draw(st.integers(0, STAR_EXIT)),
                "<k>": draw(st.integers(0, 3)),
                "ident": i,
            }
        )
        for i in range(count)
    ]


class TestRuntimeStreamProperties:
    @settings(max_examples=25, deadline=None)
    @given(combinator_graphs().map(declared), record_streams())
    def test_no_record_loss_or_duplication(self, graph, inputs):
        runtime = ThreadedRuntime()
        # a 10s timeout turns any scheduling deadlock into a hard failure
        outputs = runtime.run(graph, inputs, timeout=10.0)
        assert sorted(r.field("ident") for r in outputs) == [
            r.field("ident") for r in inputs
        ]

    @settings(max_examples=25, deadline=None)
    @given(combinator_graphs().map(declared), record_streams())
    def test_matches_sequential_multiset(self, graph, inputs):
        expected = sorted(repr(r) for r in run_network(graph, inputs))
        runtime = ThreadedRuntime()
        outputs = runtime.run(graph, inputs, timeout=10.0)
        assert sorted(repr(r) for r in outputs) == expected

    @settings(max_examples=8, deadline=None)
    @given(record_streams())
    def test_process_backend_conserves_records(self, inputs):
        from repro.snet.runtime import ProcessRuntime

        graph = Serial(
            _inc_box(), Parallel(Filter.identity(), Star(
                _bump_box(), Pattern(["<n>"], Guard(TagRef("n") >= STAR_EXIT))
            ))
        )
        runtime = ProcessRuntime(workers=2, chunk_size=3)
        outputs = runtime.run(graph, inputs, timeout=20.0)
        assert sorted(r.field("ident") for r in outputs) == [
            r.field("ident") for r in inputs
        ]


# -- placement transparency ------------------------------------------------------
#
# Distributed S-Net's placement combinators are *conservative* extensions:
# ``A @ num`` and ``A !@ <tag>`` tell the distributed runtime where entities
# execute but must never change what the network computes.  The strategies
# below generate a placement *plan* — a structural recipe — and build it
# twice: once with placements materialised, once with every ``@ num``
# stripped and every ``!@`` demoted to a plain ``!``.  Both variants must
# produce identical output multisets, whatever the stream of records.


@st.composite
def placement_plans(draw, depth=0):
    """A recipe buildable with or without its placement combinators."""
    choices = ["inc", "identity"]
    if depth < 3:
        choices += ["serial", "parallel", "split", "star", "place", "placed_split"]
    kind = draw(st.sampled_from(choices))
    if kind in ("serial", "parallel"):
        return (
            kind,
            draw(placement_plans(depth=depth + 1)),
            draw(placement_plans(depth=depth + 1)),
        )
    if kind in ("split", "placed_split"):
        return (kind, draw(placement_plans(depth=depth + 1)))
    if kind == "place":
        return ("place", draw(st.integers(0, 3)), draw(placement_plans(depth=depth + 1)))
    return (kind,)


def build_placement_plan(plan, placed):
    """Materialise a plan, with (``placed=True``) or without its placements."""
    kind = plan[0]
    if kind == "inc":
        return _inc_box()
    if kind == "identity":
        return Filter.identity()
    if kind == "serial":
        return Serial(
            build_placement_plan(plan[1], placed), build_placement_plan(plan[2], placed)
        )
    if kind == "parallel":
        return Parallel(
            build_placement_plan(plan[1], placed), build_placement_plan(plan[2], placed)
        )
    if kind == "split":
        return IndexSplit(build_placement_plan(plan[1], placed), "k")
    if kind == "placed_split":
        return IndexSplit(build_placement_plan(plan[1], placed), "k", placed=placed)
    if kind == "place":
        inner = build_placement_plan(plan[2], placed)
        return StaticPlacement(inner, plan[1]) if placed else inner
    if kind == "star":
        return Star(_bump_box(), Pattern(["<n>"], Guard(TagRef("n") >= STAR_EXIT)))
    raise AssertionError(f"unknown plan node {plan!r}")


class TestPlacementTransparency:
    @settings(max_examples=40, deadline=None)
    @given(placement_plans(), record_streams())
    def test_sequential_semantics_ignore_placement(self, plan, inputs):
        placed = run_network(build_placement_plan(plan, placed=True), inputs)
        unplaced = run_network(build_placement_plan(plan, placed=False), inputs)
        assert sorted(repr(r) for r in placed) == sorted(repr(r) for r in unplaced)

    @settings(max_examples=20, deadline=None)
    @given(placement_plans(), record_streams())
    def test_threaded_runtime_treats_placement_as_transparent(self, plan, inputs):
        expected = sorted(
            repr(r) for r in run_network(build_placement_plan(plan, placed=False), inputs)
        )
        runtime = ThreadedRuntime()
        outputs = runtime.run(
            declared(build_placement_plan(plan, placed=True)), inputs, timeout=10.0
        )
        assert sorted(repr(r) for r in outputs) == expected

    @pytest.mark.parametrize("backend", ["process", "distributed"])
    @settings(max_examples=40, deadline=None)
    @given(placement_plans(), record_streams())
    def test_fork_runtimes_match_the_unplaced_sequential_run(self, backend, plan, inputs):
        # boxes reach the pool as stateless template batches, partitions
        # reach opened channels: both claim kinds of the one fork worker
        from repro.snet.runtime import DistributedRuntime, ProcessRuntime

        if not ProcessRuntime.fork_available():
            pytest.skip("needs the fork start method")
        if backend == "process":
            runtime = ProcessRuntime(workers=2)
        else:
            runtime = DistributedRuntime(nodes=2, chunk_size=3)
        expected = sorted(
            repr(r) for r in run_network(build_placement_plan(plan, placed=False), inputs)
        )
        outputs = runtime.run(
            declared(build_placement_plan(plan, placed=True)), inputs, timeout=20.0
        )
        assert sorted(repr(r) for r in outputs) == expected

    @settings(max_examples=40, deadline=None)
    @given(placement_plans(), record_streams())
    def test_placement_conserves_every_record(self, plan, inputs):
        outputs = run_network(build_placement_plan(plan, placed=True), inputs)
        assert sorted(r.field("ident") for r in outputs) == [
            r.field("ident") for r in inputs
        ]


# -- flat-BVH traversal equivalence ----------------------------------------------
#
# The compiled SoA traversal (repro.raytracer.flatbvh) must agree with the
# brute-force oracle exactly — bit-identical hit parameters, the same hit
# primitive, the same occlusion mask — for arbitrary sphere sets and ray
# packets.  These scenes and packets are small enough that the default batch
# rule answers most of them from the root batch, so every property also runs
# with the budget at its minimum (and 7-ray waves): every example then walks
# the tree down to its leaf boxes.

#: (BATCH_WORK, WAVE_RAYS) overrides per run; None keeps the defaults
TRAVERSALS = pytest.mark.parametrize(
    "traversal", [None, (1, 7)], ids=["default-batch", "every-leaf-box"]
)


def _with_traversal(flat, traversal):
    if traversal is not None:
        flat.BATCH_WORK, flat.WAVE_RAYS = traversal
    return flat

ray_packets = st.lists(
    st.tuples(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(-1, 8),
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, -0.05),
    ),
    min_size=1,
    max_size=40,
)


def _packet_arrays(raw_rays):
    from repro.raytracer.vec import normalize_rows

    arr = np.asarray(raw_rays, dtype=np.float64)
    return arr[:, :3], normalize_rows(arr[:, 3:])


class TestFlatBVHProperties:
    @TRAVERSALS
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(sphere_lists, ray_packets)
    def test_flat_any_hit_equals_brute_force(self, traversal, raw, raw_rays):
        spheres = [Sphere(vec3(x, y, z), r) for x, y, z, r in raw]
        flat = _with_traversal(FlatBVH.build(spheres), traversal)
        brute = BruteForceIndex(spheres)
        origins, directions = _packet_arrays(raw_rays)
        assert np.array_equal(
            brute.any_hit_packet(origins, directions),
            flat.any_hit_packet(origins, directions),
        )

    @TRAVERSALS
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(sphere_lists, ray_packets)
    def test_flat_agrees_with_brute_force_by_identity(self, traversal, raw, raw_rays):
        spheres = [Sphere(vec3(x, y, z), r) for x, y, z, r in raw]
        flat = _with_traversal(FlatBVH.build(spheres), traversal)
        brute = BruteForceIndex(spheres)
        origins, directions = _packet_arrays(raw_rays)
        fi, ft = flat.intersect_packet(origins, directions)
        bi, bt = brute.intersect_packet(origins, directions)
        assert np.array_equal(ft, bt)
        for ray in range(origins.shape[0]):
            if bi[ray] == -1:
                assert fi[ray] == -1
                continue
            chosen = flat.packet_primitives[fi[ray]]
            if chosen is brute.primitives[bi[ray]]:
                continue
            # hypothesis can generate exactly coincident spheres; the two
            # indexes then tie-break by their own orderings, and any
            # primitive reproducing the winning distance is a valid answer
            t = chosen.intersect_block(
                origins[ray : ray + 1], directions[ray : ray + 1]
            )[0]
            assert t == bt[ray]


# Seeded packets: the walk splits a packet into interleaved classes and tests
# each ray first against the hits of its walked neighbours (and, for shadow
# rays, against a seed slot of its own).  Coherent fans over duplicated
# spheres make neighbours hit the same sphere and meet exact-t ties between
# two leaf slots; the brute-force scan over the leaf slots in slot order keeps
# the lowest tied slot, so it names the exact primitive the walk must return.
# The batch budget is at its minimum so that no packet takes the dense path.

#: (BATCH_WORK, WAVE_RAYS): many small classes, and one class per packet
SEEDED = pytest.mark.parametrize("traversal", [(1, 7), (1, 512)], ids=["7-ray", "512-ray"])

coherent_fans = st.tuples(
    st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 4)),  # fan origin
    st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-8, -2)),  # aim point
    st.floats(0.0, 0.15),  # angular step between neighbouring rays
    st.integers(1, 60),  # rays
)


def _fan(fan):
    from repro.raytracer.vec import normalize_rows

    origin, aim, step, count = fan
    spread = step * (np.arange(count) - count / 2.0)
    directions = np.asarray(aim) - np.asarray(origin) + np.stack(
        (spread, 0.5 * np.sin(spread), np.zeros(count)), axis=1
    )
    return np.repeat(np.asarray(origin, dtype=np.float64)[None], count, 0), normalize_rows(
        directions
    )


class TestSeededPacketProperties:
    @SEEDED
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(sphere_lists, st.integers(0, 25), coherent_fans, st.data())
    def test_seeded_walk_equals_brute_force(self, traversal, raw, duplicate, fan, data):
        spheres = [Sphere(vec3(x, y, z), r) for x, y, z, r in raw]
        spheres += [Sphere(s.center, s.radius) for s in spheres[:duplicate]]  # exact ties
        flat = _with_traversal(FlatBVH.build(spheres), traversal)
        by_slot = BruteForceIndex(flat.packet_primitives)
        origins, directions = _fan(fan)
        fi, ft = flat.intersect_packet(origins, directions)
        bi, bt = by_slot.intersect_packet(origins, directions)
        assert np.array_equal(ft, bt)
        assert [flat.packet_primitives[i] if i >= 0 else None for i in fi] == [
            by_slot.primitives[i] if i >= 0 else None for i in bi
        ]
        # shadow-like queries: a seed per ray, -1 and rows past the index
        # (the unbounded primitives' rows of a packet) included
        n = origins.shape[0]
        seed = np.array(data.draw(st.lists(
            st.integers(-1, flat.size + 2), min_size=n, max_size=n
        )), dtype=np.int64)
        tmax = np.where(np.isfinite(bt), bt, 20.0) * data.draw(st.sampled_from([0.5, 1.0, 2.0]))
        expected = by_slot.any_hit_packet(origins, directions, t_max=tmax)
        assert np.array_equal(
            flat.any_hit_packet(origins, directions, t_max=tmax, seed=seed), expected
        )
        half = -(-n // 2)  # two groups, as a two-light shadow packet enters
        assert np.array_equal(
            flat.any_hit_packet(origins, directions, t_max=tmax, wave=half, seed=seed),
            expected,
        )


# Mixed scenes: spheres, triangles and an optional ground plane (kept off the
# BVH on the scene's unbounded list), hit by rays whose direction components
# are often exactly zero — the slab test's parallel-ray branch.
triangle_lists = st.lists(
    st.tuples(*(st.floats(-4, 4) for _ in range(9))), max_size=6
)
axis_component = st.one_of(st.just(0.0), st.floats(-1, 1))
mixed_rays = st.lists(
    st.tuples(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(-1, 8),
        axis_component, axis_component, axis_component,
    ).filter(lambda r: abs(r[3]) + abs(r[4]) + abs(r[5]) > 0.05),
    min_size=1,
    max_size=40,
)


class TestFlatBVHMixedSceneProperties:
    @TRAVERSALS
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(sphere_lists, triangle_lists, st.booleans(), mixed_rays)
    def test_closest_hit_is_brute_force_hit(
        self, traversal, raw, raw_tris, with_plane, raw_rays
    ):
        from repro.raytracer.packet import cast_packet, scene_packet_data
        from repro.raytracer.scene import Scene

        triangles = [
            Triangle(vec3(*t[:3]), vec3(*t[3:6]), vec3(*t[6:]))
            for t in raw_tris
            if np.linalg.norm(
                np.cross(np.subtract(t[3:6], t[:3]), np.subtract(t[6:], t[:3]))
            ) > 1e-3
        ]
        objects = [Sphere(vec3(x, y, z), r) for x, y, z, r in raw] + triangles
        if with_plane:
            objects.append(Plane(vec3(0, -3, 0), vec3(0, 1, 0)))
        flat_scene, brute_scene = Scene(objects), Scene(objects, use_bvh=False)
        assert isinstance(flat_scene.index, FlatBVH)
        _with_traversal(flat_scene.index, traversal)
        origins, directions = _packet_arrays(raw_rays)
        fi, ft = cast_packet(flat_scene, flat_scene.index, origins, directions)
        bi, bt = cast_packet(brute_scene, brute_scene.index, origins, directions)
        assert np.array_equal(ft, bt)
        flat_rows = scene_packet_data(flat_scene).primitives
        brute_rows = scene_packet_data(brute_scene).primitives
        for ray in range(origins.shape[0]):
            scalar = Ray(origins[ray], directions[ray])
            assert flat_scene.index.intersect(scalar)[1] == brute_scene.index.intersect(scalar)[1]
            if bi[ray] == -1:
                assert fi[ray] == -1
                continue
            chosen = flat_rows[fi[ray]]
            if chosen is not brute_rows[bi[ray]]:
                # coincident primitives tie; any one reproducing the winning
                # distance is a valid answer
                t = chosen.intersect_block(
                    origins[ray : ray + 1], directions[ray : ray + 1]
                )[0]
                assert t == bt[ray]
        tmax = np.where(np.isfinite(bt), bt, 10.0)
        assert np.array_equal(
            flat_scene.index.any_hit_packet(origins, directions, t_max=tmax),
            brute_scene.index.any_hit_packet(origins, directions, t_max=tmax),
        )


class TestLevelBuilderMatchesPerNodeBuilder:
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(sphere_lists, triangle_lists, st.integers(0, 3))
    def test_mixed_scene_trees_are_identical(self, raw, raw_tris, duplicate):
        # duplicated primitives add exact centroid ties to the generated ones
        objects = [Sphere(vec3(x, y, z), r) for x, y, z, r in raw] + [
            Triangle(vec3(*t[:3]), vec3(*t[3:6]), vec3(*t[6:])) for t in raw_tris
        ]
        objects += [Sphere(obj.center, obj.radius) for obj in objects[:duplicate]
                    if isinstance(obj, Sphere)]
        assert_same_tree(FlatBVH.build(objects), objects)


# -- linearization transparency ---------------------------------------------------
#
# Collapsing pure sequential chains into fused workers (fuse="auto") must be
# observably invisible: for every generated combinator graph and input
# stream the fused runtime emits exactly the multiset the unfused runtime
# emits (and both match the sequential interpreter, which the unfused case
# already pins above).

class TestLinearizationTransparency:
    @settings(max_examples=25, deadline=None)
    @given(combinator_graphs().map(declared), record_streams())
    def test_fused_matches_unfused_multiset(self, graph, inputs):
        fused = ThreadedRuntime()
        unfused = ThreadedRuntime(fuse="off")
        out_fused = fused.run(graph.copy(), inputs, timeout=10.0)
        out_unfused = unfused.run(graph.copy(), inputs, timeout=10.0)
        assert sorted(repr(r) for r in out_fused) == sorted(
            repr(r) for r in out_unfused
        )
