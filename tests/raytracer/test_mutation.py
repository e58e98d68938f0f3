"""Mutation journal tests: incremental content key, refit, editor contract.

The three invariants PR 10 rides on:

* the **incrementally maintained** content key (key rows patched at
  commit time) always equals the **from-scratch** key of the same scene
  state — pinned for arbitrary random edit sequences — and two keys are
  equal exactly when the per-object ``_canonical`` oracle's are;
* a geometry commit refits the scene's flat BVH: tree topology and leaf
  order are preserved while every internal box stays the exact union of
  its children, so traversal tie-breaks cannot flip and intersections
  match a freshly built tree;
* journal replay (:func:`apply_edits`) is idempotent and lands a stale
  fork-copy of the scene on byte-identical state.
"""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.raytracer.camera import Camera
from repro.raytracer.flatbvh import FlatBVH
from repro.raytracer.coherence import _cones_overlap_block
from repro.raytracer.geometry.primitives import Plane, Sphere, Triangle
from repro.raytracer.materials import MATERIAL_FIELDS, Material
from repro.raytracer.mutation import (
    EditEntry,
    MutationJournal,
    _GEOMETRY_ATTRS,
    _ROWS,
    apply_edits,
    scene_content_key,
)
from repro.raytracer.scene import Light, Scene, random_scene
from repro.raytracer.tracer import RayTracer
from repro.raytracer.vec import vec3

from oracles import reference_cones_overlap, reference_content_key

_MEMO_ATTRS = (
    "_repro_content_key",
    "_repro_settings_digest",
    "_repro_prims_by_id",
)


def from_scratch_key(scene):
    """The content key recomputed with every memo dropped, the key rows
    held beside the scene included; the memos are put back afterwards."""
    saved = {}
    for attr in _MEMO_ATTRS:
        if attr in scene.__dict__:
            saved[attr] = scene.__dict__.pop(attr)
    rows = _ROWS.pop(scene, None)
    try:
        return scene_content_key(scene)
    finally:
        for attr in _MEMO_ATTRS:
            scene.__dict__.pop(attr, None)
        scene.__dict__.update(saved)
        _ROWS.pop(scene, None)
        if rows is not None:
            _ROWS[scene] = rows


def small_scene(num_spheres=6, seed=3):
    return random_scene(num_spheres=num_spheres, clustering=0.4, seed=seed)


# -- incremental content key --------------------------------------------------
class TestIncrementalContentKey:
    def test_single_move_matches_from_scratch(self):
        scene = small_scene()
        sphere = scene.bounded_objects[0]
        edit = scene.begin_edit()
        edit.update(sphere, center=vec3(0.3, 0.1, -4.0))
        edit.commit()
        assert scene_content_key(scene) == from_scratch_key(scene)

    def test_key_matches_content_twin_after_edits(self):
        # editing scene A into the shape of scene B yields B's key
        a = Scene([Sphere(vec3(0, 0, -5), 1.0)], [Light(vec3(0, 4, 0))])
        b = Scene([Sphere(vec3(1, 0, -5), 2.0)], [Light(vec3(0, 4, 0))])
        edit = a.begin_edit()
        edit.update(a.objects[0], center=vec3(1, 0, -5), radius=2.0)
        edit.commit()
        assert scene_content_key(a) == scene_content_key(b)

    def test_material_and_settings_edits_update_key(self):
        scene = small_scene()
        keys = {scene_content_key(scene)}
        edit = scene.begin_edit()
        edit.update(scene.bounded_objects[1], material=Material.mirror(0.7))
        edit.commit()
        keys.add(scene_content_key(scene))
        edit = scene.begin_edit()
        edit.set_light(0, intensity=0.4)
        edit.commit()
        keys.add(scene_content_key(scene))
        edit = scene.begin_edit()
        edit.set_background(vec3(0.2, 0.2, 0.2))
        edit.commit()
        keys.add(scene_content_key(scene))
        assert len(keys) == 4  # every edit changed the key...
        assert scene_content_key(scene) == from_scratch_key(scene)  # ...correctly

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_edit_sequences_match_from_scratch(self, data):
        scene = small_scene(num_spheres=5, seed=11)
        n_edits = data.draw(st.integers(min_value=1, max_value=6))
        for _ in range(n_edits):
            edit = scene.begin_edit()
            spheres = [o for o in scene.bounded_objects if isinstance(o, Sphere)]
            kind = data.draw(
                st.sampled_from(["move", "recolor", "add", "remove", "light"])
            )
            if kind == "move" and spheres:
                target = data.draw(st.sampled_from(spheres))
                delta = data.draw(
                    st.tuples(*[st.floats(-1.0, 1.0) for _ in range(3)])
                )
                edit.update(target, center=target.center + np.asarray(delta))
            elif kind == "recolor" and spheres:
                target = data.draw(st.sampled_from(spheres))
                rgb = data.draw(st.tuples(*[st.floats(0.1, 1.0) for _ in range(3)]))
                edit.update(target, material=Material.matte(*rgb))
            elif kind == "add":
                pos = data.draw(st.tuples(*[st.floats(-3.0, 3.0) for _ in range(2)]))
                edit.add(Sphere(vec3(pos[0], pos[1], -6.0), 0.3, Material.matte(0.5, 0.5, 0.5)))
            elif kind == "remove" and len(spheres) > 1:
                edit.remove(data.draw(st.sampled_from(spheres)))
            else:
                edit.set_light(0, intensity=data.draw(st.floats(0.1, 2.0)))
            edit.commit()
        assert scene_content_key(scene) == from_scratch_key(scene)

    def test_pickled_scene_carries_no_key_rows(self):
        # the rows are held beside the scene: a keyed scene pickles (and
        # broadcasts) at its unkeyed size plus the key and settings digest
        scene = small_scene(num_spheres=200)
        unkeyed = len(pickle.dumps(scene))
        key = scene_content_key(scene)
        assert len(pickle.dumps(scene)) - unkeyed < 256
        assert scene_content_key(pickle.loads(pickle.dumps(scene))) == key

    def test_abort_leaves_key_untouched(self):
        scene = small_scene()
        key = scene_content_key(scene)
        edit = scene.begin_edit()
        edit.update(scene.bounded_objects[0], center=vec3(9, 9, 9))
        edit.abort()
        assert scene_content_key(scene) == key
        assert scene.edit_epoch == 0 and scene.journal is None

    def test_empty_commit_is_a_noop(self):
        scene = small_scene()
        key = scene_content_key(scene)
        assert scene.begin_edit().commit() == 0
        assert scene.edit_epoch == 0 and scene_content_key(scene) == key


# -- the key against the per-object oracle ------------------------------------
class PlainSphere(Sphere):
    """A sphere subclass with no attribute of its own: keys apart by type."""


def _state(scene):
    """``(incremental key, per-object oracle key)`` of the scene as it is;
    the incremental key must equal the from-scratch one."""
    key = scene_content_key(scene)
    assert key == from_scratch_key(scene)
    return key, reference_content_key(scene)


def _assert_keys_agree(states):
    """Keys are equal exactly when the oracle's are, over every pair."""
    for (key_a, ref_a), (key_b, ref_b) in itertools.combinations(states, 2):
        assert (key_a == key_b) == (ref_a == ref_b), (key_a, key_b, ref_a, ref_b)


def _committed(scene, stage):
    edit = scene.begin_edit()
    stage(edit, scene)
    edit.commit()
    return scene


class TestKeyAgainstOracle:
    def test_corpus_keys_agree_with_oracle(self):
        lights = [Light(vec3(0, 4, 0))]
        states = [_state(small_scene()), _state(small_scene()), _state(small_scene(seed=4))]
        # material-only edits: a new material, then an equal copy of the old one
        scene = small_scene()
        original = scene.bounded_objects[1].material
        _committed(scene, lambda e, s: e.update(s.bounded_objects[1], material=Material.mirror(0.7)))
        states.append(_state(scene))
        copy = Material(original.color.copy(), original.ambient, original.diffuse,
                        original.specular, original.shininess, original.reflectivity,
                        original.transparency, original.ior)
        _committed(scene, lambda e, s: e.update(s.bounded_objects[1], material=copy))
        states.append(_state(scene))  # back to the content twin's key
        # a subclass twin, and a one-sphere twin of each
        for cls in (Sphere, PlainSphere, Sphere, PlainSphere):
            states.append(_state(Scene([cls(vec3(0, 0, -5), 1.0)], lights)))
        # settings edits, each on a fresh twin
        for stage in (
            lambda e, s: e.set_light(0, intensity=0.4),
            lambda e, s: e.set_light(1, position=vec3(1.0, 2.0, 3.0)),
            lambda e, s: e.set_camera(Camera(width=32, height=24)),
            lambda e, s: e.set_background(vec3(0.2, 0.2, 0.2)),
            lambda e, s: e.set_max_ray_depth(2),
        ):
            states.append(_state(_committed(small_scene(), stage)))
        # an add/remove chain that returns to the start
        scene = small_scene()
        extra = Sphere(vec3(0.5, 0.5, -6.0), 0.3, Material.matte(0.5, 0.5, 0.5))
        _committed(scene, lambda e, s: e.add(extra))
        states.append(_state(scene))
        removed = scene.bounded_objects[2]
        _committed(scene, lambda e, s: e.remove(removed))
        states.append(_state(scene))
        _committed(scene, lambda e, s: e.remove(extra))
        states.append(_state(scene))
        _committed(scene, lambda e, s: e.add(removed))  # same content, new position
        states.append(_state(scene))
        # mixed object kinds, plane included
        tri = Triangle(vec3(0, 0, -3), vec3(1, 0, -3), vec3(0, 1, -3))
        for objects in ([tri], [tri, Plane(vec3(0, -1, 0), vec3(0, 1, 0))]):
            states.append(_state(Scene(objects, lights)))
        _assert_keys_agree(states)
        assert len({key for key, _ in states}) == len({ref for _, ref in states}) > 10

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_edit_chains_agree_with_oracle(self, data):
        scene = small_scene(num_spheres=4, seed=11)
        states = [_state(scene)]
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            spheres = [o for o in scene.bounded_objects if isinstance(o, Sphere)]
            target = data.draw(st.sampled_from(spheres))
            kind = data.draw(st.sampled_from(["move", "unmove", "recolor", "add", "remove"]))
            edit = scene.begin_edit()
            if kind in ("move", "unmove"):
                step = data.draw(st.sampled_from([0.0, 0.5]))
                sign = 1.0 if kind == "move" else -1.0
                edit.update(target, center=target.center + sign * step)
            elif kind == "recolor":
                grey = data.draw(st.sampled_from([0.25, 0.5]))
                edit.update(target, material=Material.matte(grey, grey, grey))
            elif kind == "add":
                edit.add(Sphere(vec3(0.0, 0.0, -6.0), 0.3, Material.matte(0.5, 0.5, 0.5)))
            elif len(spheres) > 1:
                edit.remove(target)
            edit.commit()
            states.append(_state(scene))
        _assert_keys_agree(states)

    def test_key_covers_every_public_attribute(self):
        # a new public attribute on a keyed type must be added to the key's
        # rows, or two scenes differing only in it would share a key
        for obj in (
            Sphere(vec3(0, 0, -5), 1.0),
            Triangle(vec3(0, 0, -3), vec3(1, 0, -3), vec3(0, 1, -3)),
            Plane(vec3(0, -1, 0), vec3(0, 1, 0)),
        ):
            public = {name for name in vars(obj) if not name.startswith("_")}
            assert public - {"primitive_id", "material"} == set(_GEOMETRY_ATTRS[type(obj)])
        material = Material()
        assert {name for name in vars(material) if not name.startswith("_")} == set(
            MATERIAL_FIELDS
        )


# -- the journal --------------------------------------------------------------
class TestJournal:
    def test_entries_since_semantics(self):
        journal = MutationJournal(capacity=3)
        for epoch in range(1, 6):
            journal.record(EditEntry(epoch, ()))
        assert [e.epoch for e in journal.entries_since(2)] == [3, 4, 5]
        assert journal.entries_since(5) == []
        assert journal.entries_since(1) is None  # trimmed past the reader
        assert journal.entries_since(0) is None
        assert journal.latest_epoch == 5

    def test_epochs_must_increase(self):
        journal = MutationJournal()
        journal.record(EditEntry(1, ()))
        with pytest.raises(ValueError, match="increase"):
            journal.record(EditEntry(1, ()))

    def test_replay_is_idempotent_and_matches_parent(self):
        scene = small_scene()
        stale = pickle.loads(pickle.dumps(scene))  # a fork-time copy
        sphere = scene.bounded_objects[0]
        edit = scene.begin_edit()
        edit.update(sphere, center=vec3(0.4, -0.2, -5.0), radius=0.8)
        edit.commit()
        edit = scene.begin_edit()
        edit.update(scene.bounded_objects[2], material=Material.matte(0.9, 0.1, 0.1))
        edit.commit()
        entries = scene.journal.entries_since(0)
        assert apply_edits(stale, entries) == 2
        assert apply_edits(stale, entries) == 0  # replayed entries are skipped
        assert stale.edit_epoch == scene.edit_epoch == 2
        assert scene_content_key(stale) == scene_content_key(scene)
        twin = stale.bounded_objects[0]
        np.testing.assert_array_equal(twin.center, sphere.center)
        assert twin.radius == sphere.radius


# -- BVH refit ----------------------------------------------------------------
def _check_boxes(flat):
    internal = np.flatnonzero(flat.left >= 0)
    left, right = flat.left[internal], flat.right[internal]
    assert np.array_equal(
        flat.box_min[:, internal], np.minimum(flat.box_min[:, left], flat.box_min[:, right])
    )
    assert np.array_equal(
        flat.box_max[:, internal], np.maximum(flat.box_max[:, left], flat.box_max[:, right])
    )


class TestRefit:
    def test_refit_preserves_leaf_order_and_containment(self):
        scene = small_scene(num_spheres=12, seed=5)
        index = scene.index
        assert isinstance(index, FlatBVH)
        leaves_before = list(index.packet_primitives)
        moved = [o for o in scene.bounded_objects if isinstance(o, Sphere)][:4]
        edit = scene.begin_edit()
        for i, sphere in enumerate(moved):
            edit.update(sphere, center=sphere.center + np.asarray([0.3 * (i + 1), -0.1, 0.2]))
        edit.commit()
        refit = scene.index
        assert refit is not index
        assert list(refit.packet_primitives) == leaves_before  # same order
        assert np.array_equal(refit.left, index.left)  # same topology
        _check_boxes(refit)
        for sphere in moved:
            box = sphere.bounding_box()
            node = refit.leaf_node[leaves_before.index(sphere)]
            assert np.array_equal(refit.box_min[:, node], box.minimum)

    def test_refit_matches_fresh_build_intersections(self):
        scene = small_scene(num_spheres=10, seed=7)
        sphere = [o for o in scene.bounded_objects if isinstance(o, Sphere)][0]
        edit = scene.begin_edit()
        edit.update(sphere, center=sphere.center + np.asarray([0.5, 0.3, -0.4]))
        edit.commit()  # refits in place
        fresh = Scene(scene.objects, scene.lights)  # same objects, fresh BVH
        from repro.raytracer.camera import Camera

        camera = Camera(width=16, height=16)
        tracer_a, tracer_b = RayTracer(scene, camera), RayTracer(fresh, camera)
        for px, py in [(0, 0), (7, 3), (15, 15), (4, 12)]:
            ray = camera.primary_ray(px, py)
            hit_a, hit_b = tracer_a.cast(ray), tracer_b.cast(ray)
            assert (hit_a is None) == (hit_b is None)
            if hit_a is not None:
                assert hit_a.primitive is hit_b.primitive
                assert hit_a.t == pytest.approx(hit_b.t, abs=1e-12)

    def test_refit_rejects_foreign_primitive(self):
        scene = small_scene()
        with pytest.raises(KeyError):
            scene.index.refitted([Sphere(vec3(0, 0, -3), 0.5)])


# -- the planner's vectorised cone test ---------------------------------------
class TestConesOverlapBlock:
    """The (U, B)-grid shadow-cone kernel must agree with the scalar reference.

    ``plan_tiles`` calls the vectorised kernel once per (section, light);
    a divergence from ``reference_cones_overlap`` would silently re-render too
    much (slow) or too little (wrong pixels), so the equivalence is pinned
    over random sphere configurations including the degenerate branches
    (light inside a sphere, blocker entirely beyond the hits).
    """

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_scalar_reference(self, data):
        def boxes(count, lo, hi, max_extent):
            out = []
            for _ in range(count):
                mn = np.array(
                    [data.draw(st.floats(lo, hi)) for _ in range(3)]
                )
                extent = np.array(
                    [data.draw(st.floats(0.0, max_extent)) for _ in range(3)]
                )
                out.append((mn, mn + extent))
            return out

        light = np.array([data.draw(st.floats(-4.0, 4.0)) for _ in range(3)])
        hits = boxes(data.draw(st.integers(1, 4)), -6.0, 6.0, 3.0)
        moved = boxes(data.draw(st.integers(1, 4)), -6.0, 6.0, 1.0)
        expected = any(
            reference_cones_overlap(light, h_min, h_max, b_min, b_max)
            for h_min, h_max in hits
            for b_min, b_max in moved
        )
        got = _cones_overlap_block(
            light,
            np.array([mn for mn, _ in hits]),
            np.array([mx for _, mx in hits]),
            np.array([0.5 * (mn + mx) for mn, mx in moved]),
            np.array([0.5 * float(np.linalg.norm(mx - mn)) for mn, mx in moved]),
        )
        assert got == expected


# -- the editor ---------------------------------------------------------------
class TestEditor:
    def test_validation_is_eager_and_non_mutating(self):
        scene = small_scene()
        sphere = scene.bounded_objects[0]
        key = scene_content_key(scene)
        edit = scene.begin_edit()
        with pytest.raises(ValueError, match="radius"):
            edit.update(sphere, radius=-1.0)
        with pytest.raises(ValueError, match="editable"):
            edit.update(sphere, wobble=3)
        with pytest.raises(KeyError):
            edit.update(Sphere(vec3(0, 0, -2), 0.1), radius=0.2)
        with pytest.raises(IndexError):
            edit.set_light(99, intensity=1.0)
        edit.abort()
        assert scene_content_key(scene) == key

    def test_editor_single_use(self):
        scene = small_scene()
        edit = scene.begin_edit()
        edit.commit()
        with pytest.raises(RuntimeError, match="committed or aborted"):
            edit.update(scene.bounded_objects[0], radius=1.0)

    def test_triangle_normal_recomputed(self):
        tri = Triangle(vec3(0, 0, -3), vec3(1, 0, -3), vec3(0, 1, -3))
        scene = Scene([tri], [Light(vec3(0, 4, 0))])
        edit = scene.begin_edit()
        edit.update(tri, v2=vec3(0, 0, -2))
        edit.commit()
        expected = np.cross(tri.v1 - tri.v0, tri.v2 - tri.v0)
        expected = expected / np.linalg.norm(expected)
        np.testing.assert_allclose(tri._normal, expected, atol=1e-12)

    def test_geometry_update_captures_boxes(self):
        scene = small_scene()
        sphere = scene.bounded_objects[0]
        before = sphere.bounding_box()
        edit = scene.begin_edit()
        edit.update(sphere, center=sphere.center + np.asarray([1.0, 0.0, 0.0]))
        edit.commit()
        (op,) = scene.journal.entries_since(0)[0].ops
        np.testing.assert_allclose(op.old_box[0], before.minimum)
        np.testing.assert_allclose(op.new_box[0], sphere.bounding_box().minimum)
