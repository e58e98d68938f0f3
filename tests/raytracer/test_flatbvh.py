"""The flat SoA BVH and the fused render path against their oracles."""

import pickle

import numpy as np
import pytest

from repro.raytracer.bvh import BruteForceIndex
from repro.raytracer.camera import Camera
from repro.raytracer.flatbvh import FlatBVH, scene_flat_index
from repro.raytracer.geometry import AABB, Plane, Sphere, Triangle
from repro.raytracer.materials import Material
from repro.raytracer.ray import Ray
from repro.raytracer.scene import Scene, random_scene
from repro.raytracer.tracer import (
    RayTracer,
    render,
    render_section,
    reset_scratch_stats,
    scratch_stats,
)
from repro.raytracer.vec import normalize_rows, vec3


def _mixed_scene(num_spheres=60, seed=7, with_triangles=True):
    scene = random_scene(num_spheres=num_spheres, seed=seed)
    if with_triangles:
        rng = np.random.default_rng(seed + 1)
        for _ in range(8):
            base = vec3(*(rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(-8, -2)))
            scene.add(
                Triangle(
                    base,
                    base + rng.uniform(0.2, 1.0, 3),
                    base + rng.uniform(0.2, 1.0, 3),
                    Material.matte(0.4, 0.6, 0.5),
                )
            )
    return scene


def _ray_batch(n, seed=11, spread=1.0):
    rng = np.random.default_rng(seed)
    origins = rng.uniform(-1, 1, (n, 3)) * np.array([2.0, 2.0, 0.5]) + np.array(
        [0.0, 1.0, 5.0]
    )
    directions = normalize_rows(
        np.array([0.0, -0.1, -1.0]) + spread * rng.uniform(-0.5, 0.5, (n, 3))
    )
    return origins, directions


class TestFlatCompilation:
    def test_layout_matches_leaf_order(self):
        # the scene's index is the flat BVH itself; its leaf slots are the
        # packet_primitives rows, each a permutation of the bounded objects
        scene = _mixed_scene()
        flat = scene.index
        assert isinstance(flat, FlatBVH)
        assert flat.size == len(scene.bounded_objects)
        assert sorted(map(id, flat.packet_primitives)) == sorted(
            map(id, scene.bounded_objects)
        )
        for slot, prim in enumerate(flat.packet_primitives):
            node = flat.leaf_node[slot]
            assert flat.left[node] == -1 and flat.first_leaf[node] == slot
            assert np.array_equal(flat.box_min[:, node], prim.bounding_box().minimum)

    def test_empty_bvh(self):
        flat = FlatBVH.build([])
        origins, directions = _ray_batch(4)
        indices, t = flat.intersect_packet(origins, directions)
        assert (indices == -1).all() and np.isinf(t).all()
        assert not flat.any_hit_packet(origins, directions).any()

    def test_single_primitive(self):
        flat = FlatBVH.build([Sphere(vec3(0, 0, -5), 1.0, Material.matte(1, 0, 0))])
        origins = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 0.0]])
        directions = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, -1.0]])
        indices, t = flat.intersect_packet(origins, directions)
        assert indices.tolist() == [0, -1]
        assert t[0] == pytest.approx(4.0)


class TestExactEquivalence:
    """The flat traversal must find exactly the oracle's hits."""

    def test_matches_brute_force_by_primitive(self):
        scene = _mixed_scene(num_spheres=80)
        flat = scene.index
        brute = BruteForceIndex(scene.bounded_objects)
        origins, directions = _ray_batch(300, seed=5)
        fi, ft = flat.intersect_packet(origins, directions)
        bi, bt = brute.intersect_packet(origins, directions)
        # the two indices enumerate different primitive orders: compare hits
        # by identity and parameters exactly
        assert np.array_equal(ft, bt)
        for ray in range(origins.shape[0]):
            if bi[ray] == -1:
                assert fi[ray] == -1
            else:
                assert flat.packet_primitives[fi[ray]] is brute.primitives[bi[ray]]

    def test_degenerate_axis_rays(self):
        # axis-aligned rays have zero direction components: the flat slab
        # test must reproduce the scalar AABB.intersects_ray parallel-ray
        # rule exactly, node by node and ray by ray
        spheres = [
            Sphere(vec3(float(i), 0.0, -4.0), 0.45, Material.matte(0.5, 0.5, 0.5))
            for i in range(10)
        ]
        flat = FlatBVH.build(spheres)
        brute = BruteForceIndex(spheres)
        # origins inside, on the boundary of and outside the slabs
        origins = np.array(
            [[i / 2.0, y, 0.0] for i in range(-2, 22) for y in (0.0, 0.45, 1.0)]
        )
        directions = np.tile(np.array([0.0, 0.0, -1.0]), (origins.shape[0], 1))
        inv, deg = flat._packet_inverse(directions)
        n, m = origins.shape[0], flat.box_min.shape[1]
        rays, nodes = np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
        with np.errstate(over="ignore", invalid="ignore"):
            mask = flat._slab(
                rays, nodes[None], origins.T.copy(), inv, deg, 1e-6, np.full(n * m, np.inf)
            )[0]
        for k in range(n * m):
            r, i = rays[k], nodes[k]
            box = AABB(flat.box_min[:, i], flat.box_max[:, i])
            assert mask[k] == box.intersects_ray(
                Ray(origins[r], directions[r]), 1e-6, np.inf
            ), (i, r)
        fi, ft = flat.intersect_packet(origins, directions)
        for r in range(origins.shape[0]):
            ray = Ray(origins[r], directions[r])
            prim, t = brute.intersect(ray)
            assert flat.intersect(ray) == (prim, t)
            if prim is None:
                assert fi[r] == -1 and np.isinf(ft[r])
            else:
                assert flat.packet_primitives[fi[r]] is prim and ft[r] == t

    def test_grazing_hit_on_a_degenerate_axis(self):
        # the ray runs along z in the plane y = 0 and meets the triangle at a
        # vertex whose y is 1.8e-130: Moller-Trumbore accepts the hit after
        # rounding, while the exact box [1.8e-130, 1] in y would reject the
        # parallel ray.  Primitive boxes carry a relative margin, so the BVH
        # finds the hit a linear scan finds (a hypothesis-found case).
        prims = [
            Sphere(vec3(0.0, 0.0, -1.0), 1.0),
            Triangle(vec3(1.0, 1.0, 0.0), vec3(0.0, 1.819812741600498e-130, 1.0), vec3(0.0, 1.0, 0.0)),
        ]
        flat, brute = FlatBVH.build(prims), BruteForceIndex(prims)
        ray = Ray(vec3(0.0, 0.0, 0.0), vec3(0.0, 0.0, 1.0))
        assert brute.intersect(ray) == (prims[1], 1.0)
        assert flat.intersect(ray) == brute.intersect(ray)
        indices, t = flat.intersect_packet(ray.origin[None, :], ray.direction[None, :])
        assert flat.packet_primitives[indices[0]] is prims[1] and t[0] == 1.0

    def test_any_hit_matches_brute_force_with_per_ray_tmax(self):
        scene = _mixed_scene(num_spheres=100, seed=9)
        flat = scene.index
        brute = BruteForceIndex(scene.bounded_objects)
        origins, directions = _ray_batch(250, seed=13)
        rng = np.random.default_rng(17)
        tmax = rng.uniform(0.5, 20.0, origins.shape[0])
        assert np.array_equal(
            brute.any_hit_packet(origins, directions, t_max=tmax),
            flat.any_hit_packet(origins, directions, t_max=tmax),
        )

    @pytest.mark.parametrize("batch_work, wave_rays", [(1, 7), (1_000, 1), (1_000, 512)])
    def test_batch_rule_and_wave_size_do_not_change_hits(self, batch_work, wave_rays):
        # every leaf box tested in 18 neighbour-seeded classes of 7 rays,
        # the whole 71-leaf scene as one batch in 1-ray classes, and 3-leaf
        # batches in one 120-ray class (rounded up to 256 for the budget):
        # the same hits, the same exact-t tie-breaks
        scene = _mixed_scene(num_spheres=60, seed=21)
        brute = BruteForceIndex(scene.bounded_objects)
        origins, directions = _ray_batch(120, seed=23)
        flat = FlatBVH.build(scene.bounded_objects)
        assert flat.size == 71
        flat.BATCH_WORK, flat.WAVE_RAYS = batch_work, wave_rays
        fi, ft = flat.intersect_packet(origins, directions)
        bi, bt = brute.intersect_packet(origins, directions)
        assert np.array_equal(ft, bt)
        assert [id(flat.packet_primitives[i]) if i >= 0 else None for i in fi] == [
            id(brute.primitives[i]) if i >= 0 else None for i in bi
        ]
        tmax = np.where(np.isfinite(bt), bt, 5.0)
        assert np.array_equal(
            flat.any_hit_packet(origins, directions, t_max=tmax),
            brute.any_hit_packet(origins, directions, t_max=tmax),
        )


class TestSeeds:
    def test_a_shadow_ray_its_own_sphere_occludes_tests_no_box(self):
        # a shadow ray leaving each sphere's surface into the sphere (the
        # light behind it) is occluded by its own hit: one pair test, no
        # box; the same ray without its seed walks the tree
        flat = random_scene(num_spheres=200, seed=5).index
        slots = flat.sphere_slot[:64]
        normal = normalize_rows(np.random.default_rng(3).normal(size=(slots.size, 3)))
        centre = flat.sphere_center[flat.sphere_before[slots]]
        radius = np.sqrt(flat.sphere_r2[flat.sphere_before[slots]])
        origins = centre + normal * (radius + 1e-4)[:, None]
        flat.stats.reset()
        assert flat.any_hit_packet(origins, -normal, t_max=50.0, seed=slots).all()
        assert (flat.stats.node_visits, flat.stats.primitive_tests) == (0, slots.size)
        assert flat.any_hit_packet(origins, -normal, t_max=50.0).all()
        assert flat.stats.node_visits > 0

    def test_a_frame_memoises_a_handful_of_batch_rules(self):
        # the rule is keyed by a class size rounded up to a power of four,
        # so a frame's primary, shadow and secondary packets of every size
        # share at most six (with the default WAVE_RAYS and BATCH_WORK)
        scene = random_scene(num_spheres=1000, seed=1)
        camera = Camera(width=128, height=128)
        for y in range(0, 128, 16):
            render_section(scene, camera, y, y + 16, mode="fused")
        assert 1 <= len(scene.index._batch_rules) <= 6


class TestSceneFlatCache:
    def test_cached_and_invalidated_on_insert(self):
        scene = _mixed_scene(num_spheres=20)
        first = scene_flat_index(scene)
        assert first is scene.index
        assert scene_flat_index(scene) is first
        scene.add(Sphere(vec3(0, 0, -3), 0.3, Material.matte(1, 1, 1)))
        rebuilt = scene_flat_index(scene)
        assert rebuilt is not first
        assert rebuilt.size == scene.index.size

    def test_brute_force_scene_returns_index_itself(self):
        scene = random_scene(num_spheres=5, use_bvh=False)
        assert scene_flat_index(scene) is scene.index

    def test_invalidate_packet_cache_clears_flat_index(self):
        scene = _mixed_scene(num_spheres=10)
        first = scene_flat_index(scene)
        scene.invalidate_packet_cache()
        rebuilt = scene_flat_index(scene)
        assert rebuilt is not first
        for name, array in _flat_arrays(first).items():
            assert np.array_equal(array, _flat_arrays(rebuilt)[name]), name

    def test_geometry_mutation_needs_explicit_invalidation(self):
        # moving a sphere in place, outside the edit journal, leaves its leaf
        # box and kernel row stale until invalidate_packet_cache
        scene = _mixed_scene(num_spheres=20)
        camera = Camera(width=16, height=16)
        render(scene, camera, mode="fused")
        sphere = next(p for p in scene.index.packet_primitives if type(p) is Sphere)
        sphere.center = sphere.center + np.array([0.4, -0.3, 0.2])
        scene.invalidate_packet_cache()
        np.testing.assert_allclose(
            render(scene, camera, mode="fused"),
            render(Scene(scene.objects, scene.lights), camera, mode="scalar"),
            atol=1e-9,
        )

    def test_material_mutation_needs_explicit_invalidation(self):
        # the documented contract: in-place Material mutation is invisible
        # to the staleness checks; invalidate_packet_cache makes the packet
        # paths agree with the scalar oracle again
        scene = Scene(
            [Sphere(vec3(0, 0, -5), 1.0, Material.matte(0.2, 0.2, 0.2))],
            use_bvh=True,
        )
        from repro.raytracer.scene import Light

        scene.add_light(Light(vec3(0, 5, 0)))
        camera = Camera(width=16, height=16)
        before = render(scene, camera, mode="fused")
        scene.objects[0].material.color = np.array([0.9, 0.1, 0.1])
        scene.invalidate_packet_cache()
        after_packet = render(scene, camera, mode="fused")
        after_scalar = render(scene, camera, mode="scalar")
        assert not np.allclose(before, after_packet)
        np.testing.assert_allclose(after_packet, after_scalar, atol=1e-9)


def _flat_arrays(flat):
    return {k: v for k, v in vars(flat).items() if isinstance(v, np.ndarray)}


def _edit_geometry(scene, seed=3):
    """Move/resize a few spheres and move one triangle vertex, in one commit."""
    rng = np.random.default_rng(seed)
    prims = scene.index.packet_primitives
    spheres = [p for p in prims if type(p) is Sphere]
    triangle = next(p for p in prims if type(p) is Triangle)
    edit = scene.begin_edit()
    for sphere in spheres[:: max(1, len(spheres) // 6)]:
        edit.update(
            sphere,
            center=sphere.center + rng.uniform(-0.5, 0.5, 3),
            radius=sphere.radius * 1.2,
        )
    edit.update(triangle, v1=triangle.v1 + rng.uniform(-0.3, 0.3, 3))
    edit.commit()


def _assert_exact_union(flat):
    internal = np.flatnonzero(flat.left >= 0)
    left, right = flat.left[internal], flat.right[internal]
    assert np.array_equal(
        flat.box_min[:, internal], np.minimum(flat.box_min[:, left], flat.box_min[:, right])
    )
    assert np.array_equal(
        flat.box_max[:, internal], np.maximum(flat.box_max[:, left], flat.box_max[:, right])
    )
    for slot, prim in enumerate(flat.packet_primitives):
        box = prim.bounding_box()
        assert np.array_equal(flat.box_min[:, flat.leaf_node[slot]], box.minimum)
        assert np.array_equal(flat.box_max[:, flat.leaf_node[slot]], box.maximum)


class TestFlatRefit:
    def test_commit_refits_bit_identical_to_recompile(self):
        scene = _mixed_scene(num_spheres=80)
        camera = Camera(width=16, height=12)
        before = scene_flat_index(scene)
        snapshot = {k: v.copy() for k, v in _flat_arrays(before).items()}
        for seed in range(3):
            previous = scene.index
            _edit_geometry(scene, seed=seed)
            refit = scene.index
            assert refit is not previous  # one structure, replaced by its refit
            assert refit.packet_primitives == previous.packet_primitives  # same slots
            _assert_exact_union(refit)
            # refitting *every* leaf of a pickled copy of the pre-edit index
            # lands on the same arrays as the commit's refit of the moved ones
            stale = pickle.loads(pickle.dumps(previous))
            reference = _flat_arrays(stale.refitted(stale.packet_primitives))
            for name, array in _flat_arrays(refit).items():
                assert np.array_equal(array, reference[name]), name
            np.testing.assert_allclose(
                render(scene, camera, mode="fused"),
                render(scene, camera, mode="scalar"),
                atol=1e-9,
            )
        # the index a render may still hold is never mutated
        for name, array in _flat_arrays(before).items():
            assert np.array_equal(array, snapshot[name]), name

    def test_refit_index_renders_like_scalar_oracle(self):
        scene = _mixed_scene(num_spheres=40)
        camera = Camera(width=24, height=16)
        render(scene, camera, mode="fused")  # compile the flat index
        _edit_geometry(scene)
        np.testing.assert_allclose(
            render(scene, camera, mode="fused"),
            render(scene, camera, mode="scalar"),
            atol=1e-9,
        )

    def test_unpickled_scene_refits_without_stale_ids(self):
        import pickle

        scene = _mixed_scene(num_spheres=30)
        scene_flat_index(scene)
        _edit_geometry(scene, seed=1)  # builds the id-keyed slot map
        copy = pickle.loads(pickle.dumps(scene))
        assert copy.index._slot_by_prim is None
        _edit_geometry(copy, seed=2)
        _edit_geometry(scene, seed=2)
        reference = _flat_arrays(scene.index)
        for name, array in _flat_arrays(copy.index).items():
            assert np.array_equal(array, reference[name]), name
        _assert_exact_union(copy.index)

    def test_refit_at_scale_renders_like_a_fresh_build(self):
        # a 40-op commit on a 600-sphere scene refits the index in place of
        # a rebuild; the refit must leave no box the traversal reads stale
        scene = random_scene(num_spheres=600, seed=41)
        camera = Camera(width=64, height=64)

        def sections(scene, mode="fused"):
            return np.vstack([
                render_section(scene, camera, y, y + 8, mode=mode).pixels
                for y in range(0, camera.height, 8)
            ])

        sections(scene)  # build the index the commit refits
        rng = np.random.default_rng(43)
        spheres = scene.index.packet_primitives
        edit = scene.begin_edit()
        for sphere in spheres[:: len(spheres) // 40][:40]:
            edit.update(
                sphere,
                center=sphere.center + rng.uniform(-0.6, 0.6, 3),
                radius=sphere.radius * rng.uniform(0.8, 1.3),
            )
        before = scene.index
        edit.commit()
        assert scene.index is not before and scene.index.size == before.size
        refit = sections(scene)
        # a fresh build over the edited primitives (its own tree and leaf order)
        fresh = Scene(scene.objects, scene.lights, scene.background, scene.max_ray_depth)
        assert np.array_equal(refit, sections(fresh))
        np.testing.assert_allclose(refit, sections(scene, mode="scalar"), atol=1e-9)

    def test_refit_rejects_foreign_primitive(self):
        flat = _mixed_scene(num_spheres=10).index
        with pytest.raises(KeyError):
            flat.refitted([Sphere(vec3(0, 0, -3), 0.5, Material.matte(1, 1, 1))])


class TestFusedRenderPath:
    def test_fused_matches_scalar_oracle(self):
        scene = _mixed_scene(num_spheres=25, seed=33)
        camera = Camera(width=24, height=24)
        scalar = render(scene, camera, mode="scalar")
        fused = render(scene, camera, mode="fused")
        np.testing.assert_allclose(fused, scalar, atol=1e-9)

    def test_scratch_buffers_reused_across_frames(self):
        scene = _mixed_scene(num_spheres=15, seed=35)
        camera = Camera(width=16, height=16)
        tracer = RayTracer(scene, camera)
        reset_scratch_stats()
        tracer.render_rows_fused(0, camera.height)
        first = scratch_stats()
        tracer.render_rows_fused(0, camera.height)
        second = scratch_stats()
        assert second["reuses"] > first["reuses"]
        assert second["allocations"] == first["allocations"]

    def test_scratch_buffers_are_warm_across_sections(self):
        # two sections of the same tile size: the second reuses the first's
        # buffers (warm service jobs render the same section geometry)
        scene = _mixed_scene(num_spheres=15, seed=35)
        camera = Camera(width=16, height=32)
        tracer = RayTracer(scene, camera)
        reset_scratch_stats()
        tracer.render_rows_fused(0, 16)
        after_first = scratch_stats()
        tracer.render_rows_fused(16, 32)
        after_second = scratch_stats()
        assert after_second["allocations"] == after_first["allocations"]
        assert after_second["reuses"] > after_first["reuses"]

    def test_rays_cast_matches_scalar_path(self):
        scene = _mixed_scene(num_spheres=30, seed=39)
        camera = Camera(width=16, height=16)
        scalar = RayTracer(scene, camera)
        scalar_img = scalar.render_rows(0, camera.height)
        fused = RayTracer(scene, camera)
        fused_img = fused.render_rows_fused(0, camera.height)
        assert scalar.rays_cast == fused.rays_cast > camera.width * camera.height
        np.testing.assert_allclose(fused_img, scalar_img, atol=1e-9)

    def test_unbounded_primitives_still_hit(self):
        scene = Scene(
            [
                Plane(vec3(0, -1, 0), vec3(0, 1, 0), Material.matte(0.5, 0.5, 0.5)),
                Sphere(vec3(0, 0, -5), 1.0, Material.matte(0.8, 0.2, 0.2)),
            ]
        )
        from repro.raytracer.scene import Light

        scene.add_light(Light(vec3(0, 5, 0)))
        camera = Camera(width=16, height=16)
        np.testing.assert_allclose(
            render(scene, camera, mode="fused"),
            render(scene, camera, mode="scalar"),
            atol=1e-9,
        )
