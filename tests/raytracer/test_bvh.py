"""Builder invariants of the flat SAH BVH, the level-synchronous builder
against the per-node one, and its scalar queries against the brute-force
oracle."""

import math
import pickle

import numpy as np
import pytest

from repro.raytracer.bvh import BruteForceIndex
from repro.raytracer.camera import Camera
from repro.raytracer.flatbvh import FlatBVH
from repro.raytracer.geometry import Plane, Sphere, Triangle
from repro.raytracer.image import image_rms_difference
from repro.raytracer.materials import Material
from repro.raytracer.ray import Ray
from repro.raytracer.scene import random_scene
from repro.raytracer.tracer import render, render_section
from repro.raytracer.vec import vec3

from oracles import assert_same_tree


def grid_spheres(n=4, spacing=2.0, radius=0.4):
    spheres = []
    for i in range(n):
        for j in range(n):
            spheres.append(Sphere(vec3(i * spacing, j * spacing, -5.0), radius))
    return spheres


def node_depths(flat):
    """Depth of every node (root = 1); parents precede their children."""
    depth = np.ones(flat.box_min.shape[1], dtype=np.int64)
    for i in range(1, depth.size):
        depth[i] = depth[flat.parent[i]] + 1
    return depth


def assert_tree_invariants(flat, primitives):
    """Everything the traversals and the refit rely on, checked exactly."""
    n = len(primitives)
    m = flat.box_min.shape[1]
    assert m == max(0, 2 * n - 1)
    assert flat.size == n
    assert sorted(map(id, flat.packet_primitives)) == sorted(map(id, primitives))
    if n == 0:
        return
    internal = np.flatnonzero(flat.left >= 0)
    leaves = np.flatnonzero(flat.left < 0)
    assert internal.size == n - 1 and leaves.size == n
    # pre-order, right child first: subtree of i is [i, skip[i])
    assert flat.skip[0] == m
    assert np.array_equal(flat.right[internal], internal + 1)
    assert np.array_equal(flat.left[internal], flat.skip[internal + 1])
    assert np.array_equal(flat.skip[flat.left[internal]], flat.skip[internal])
    assert np.array_equal(flat.skip[leaves], leaves + 1)
    # leaf ranges nest the same way; one primitive per leaf
    assert np.array_equal(flat.first_leaf[flat.right[internal]], flat.first_leaf[internal])
    assert np.array_equal(flat.leaf_end[flat.right[internal]], flat.first_leaf[flat.left[internal]])
    assert np.array_equal(flat.leaf_end[flat.left[internal]], flat.leaf_end[internal])
    assert np.array_equal(flat.leaf_end[leaves] - flat.first_leaf[leaves], np.ones(n))
    assert np.array_equal(flat.leaf_node[flat.first_leaf[leaves]], leaves)
    assert flat.parent[0] == -1
    assert np.array_equal(flat.parent[flat.left[internal]], internal)
    assert np.array_equal(flat.parent[flat.right[internal]], internal)
    # every internal box is the exact union of its children
    left, right = flat.left[internal], flat.right[internal]
    assert np.array_equal(
        flat.box_min[:, internal], np.minimum(flat.box_min[:, left], flat.box_min[:, right])
    )
    assert np.array_equal(
        flat.box_max[:, internal], np.maximum(flat.box_max[:, left], flat.box_max[:, right])
    )
    # every leaf box is its primitive's box
    for slot, prim in enumerate(flat.packet_primitives):
        box = prim.bounding_box()
        node = flat.leaf_node[slot]
        assert np.array_equal(flat.box_min[:, node], box.minimum)
        assert np.array_equal(flat.box_max[:, node], box.maximum)


class TestConstruction:
    def test_empty_bvh(self):
        flat = FlatBVH.build([])
        assert flat.size == 0
        assert flat.intersect(Ray(vec3(0, 0, 0), vec3(0, 0, -1))) == (None, None)
        assert not flat.any_hit(Ray(vec3(0, 0, 0), vec3(0, 0, -1)))
        assert_tree_invariants(flat, [])

    def test_single_primitive(self):
        sphere = Sphere(vec3(0, 0, -5), 1.0)
        flat = FlatBVH.build([sphere])
        assert flat.box_min.shape[1] == 1
        assert flat.intersect(Ray(vec3(0, 0, 0), vec3(0, 0, -1)))[0] is sphere
        assert_tree_invariants(flat, [sphere])

    def test_invariants_on_mixed_primitives(self):
        scene = random_scene(num_spheres=50, seed=4)
        rng = np.random.default_rng(4)
        prims = scene.bounded_objects + [
            Triangle(*(rng.uniform(-3, 3, 3) for _ in range(3))) for _ in range(6)
        ]
        assert_tree_invariants(FlatBVH.build(prims), prims)

    def test_unbounded_primitive_rejected(self):
        with pytest.raises(ValueError):
            FlatBVH.build([Sphere(vec3(0, 0, -5), 1.0), Plane(vec3(0, 0, 0), vec3(0, 1, 0))])

    def test_tree_is_reasonably_balanced_on_grid(self):
        spheres = grid_spheres(n=6)  # 36 primitives
        flat = FlatBVH.build(spheres)
        assert_tree_invariants(flat, spheres)
        assert node_depths(flat).max() <= 2 * math.ceil(math.log2(len(spheres)))

    def test_root_box_contains_all_primitives(self):
        spheres = grid_spheres()
        flat = FlatBVH.build(spheres)
        boxes = [sphere.bounding_box() for sphere in spheres]
        assert np.array_equal(flat.box_min[:, 0], np.min([b.minimum for b in boxes], axis=0))
        assert np.array_equal(flat.box_max[:, 0], np.max([b.maximum for b in boxes], axis=0))

    def test_root_split_separates_two_clusters(self):
        # the surface-area heuristic must cut the empty gap between two
        # well-separated clusters, whatever the input order
        near = [Sphere(vec3(x, 0.0, -5.0), 0.3) for x in np.linspace(0, 2, 7)]
        far = [Sphere(vec3(x, 0.0, -5.0), 0.3) for x in np.linspace(50, 52, 9)]
        mixed = [p for pair in zip(near, far) for p in pair] + far[len(near):]
        flat = FlatBVH.build(mixed)
        children = (flat.right[0], flat.left[0])
        groups = [
            {id(p) for p in flat.packet_primitives[flat.first_leaf[c]:flat.leaf_end[c]]}
            for c in children
        ]
        assert sorted(map(len, groups)) == [len(near), len(far)]
        assert {id(p) for p in near} in groups

    def test_collinear_spheres_build_shallow(self):
        # 2 000 collinear spheres: an insertion-built tree degenerates into a
        # spine here; the top-down split stays logarithmic
        n = 2000
        spheres = [
            Sphere(vec3(float(i) * 2.0, 0.0, 0.0), 0.5, Material.matte(0.5, 0.5, 0.5))
            for i in range(n)
        ]
        flat = FlatBVH.build(spheres)
        assert_tree_invariants(flat, spheres)
        assert node_depths(flat).max() <= 2 * math.ceil(math.log2(n))


class TestDeterminism:
    def test_two_builds_and_a_pickle_round_trip_are_identical(self):
        prims = random_scene(num_spheres=300, seed=12).bounded_objects
        first = FlatBVH.build(prims)
        second = FlatBVH.build(prims)
        copy = pickle.loads(pickle.dumps(first))
        for name, array in vars(first).items():
            if isinstance(array, np.ndarray):
                assert np.array_equal(array, vars(second)[name]), name
                assert np.array_equal(array, vars(copy)[name]), name
        assert [id(p) for p in first.packet_primitives] == [
            id(p) for p in second.packet_primitives
        ]

    #: scalar-walk node visits per ray on these 32x32 frames, measured 106.2
    #: (seed 1), 107.8 (2), 103.6 (3), 105.4 (4).  The scalar walk visits
    #: nodes in layout order and culls with each hit, so it prices the tree
    #: alone, whatever the packet traversal does; the bound leaves ~4 % over
    #: the worst seed for platform differences in the last bits of a slab
    #: test, not for a worse tree
    NODE_VISITS_PER_RAY = 112.0

    #: packet work per ray (ray-box plus ray-primitive tests, seed tests
    #: included) of the fused wavefront traversal on the same frames,
    #: measured 133.8, 137.5, 131.2 and 140.9 with neighbour and self seeds
    #: and two levels per step (the one-level walk did 201.8, 210.8, 199.6
    #: and 197.3, the per-node packet DFS before it 419.0, 353.5, 385.1 and
    #: 362.3); the bound leaves the same ~4 %
    PACKET_WORK_PER_RAY = 147.0

    def _per_ray(self, mode):
        camera = Camera(width=32, height=32)
        for seed in (1, 2, 3, 4):
            scene = random_scene(num_spheres=1000, seed=seed)
            stats = scene.index.stats
            stats.reset()
            chunk = render_section(scene, camera, 0, camera.height, mode=mode)
            yield seed, stats, chunk.rays_cast

    def test_tree_quality_is_pinned(self):
        for seed, stats, rays in self._per_ray("scalar"):
            per_ray = stats.node_visits / rays
            assert per_ray <= self.NODE_VISITS_PER_RAY, (seed, per_ray)

    def test_packet_work_is_pinned(self):
        for seed, stats, rays in self._per_ray("fused"):
            per_ray = (stats.node_visits + stats.primitive_tests) / rays
            assert per_ray <= self.PACKET_WORK_PER_RAY, (seed, per_ray)


class TestPerNodeOracle:
    """The level-synchronous builder reproduces the per-node builder exactly:
    every node array, every kernel row and the leaf order, including every
    tie it has to break the same way (``tests/oracles.py``)."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_determinism_seeds_at_1000_spheres(self, seed):
        prims = random_scene(num_spheres=1000, seed=seed).bounded_objects
        assert_same_tree(FlatBVH.build(prims), prims)

    def test_grid_with_centroid_ties_on_every_axis(self):
        # a 5 x 4 x 3 lattice of equal spheres: every axis sort meets ties,
        # and equal-cost cuts across axes exercise the tie rule
        spheres = [
            Sphere(vec3(float(i), float(j), float(-k)), 0.3)
            for k in range(3)
            for j in range(4)
            for i in range(5)
        ]
        assert_same_tree(FlatBVH.build(spheres), spheres)
        assert_same_tree(FlatBVH.build(spheres[::-1]), spheres[::-1])

    def test_collinear_spheres(self):
        spheres = [Sphere(vec3(float(i) * 2.0, 0.0, 0.0), 0.5) for i in range(2000)]
        assert_same_tree(FlatBVH.build(spheres), spheres)

    def test_coincident_centres(self):
        # all centroids equal: every cut is priced alike down a one-sided spine
        equal = [Sphere(vec3(1.0, -2.0, -6.0), 0.5) for _ in range(40)]
        nested = [Sphere(vec3(1.0, -2.0, -6.0), 0.1 + 0.05 * (i % 7)) for i in range(40)]
        for spheres in (equal, nested):
            assert_same_tree(FlatBVH.build(spheres), spheres)

    def test_mixed_spheres_and_triangles(self):
        rng = np.random.default_rng(4)
        prims = random_scene(num_spheres=200, seed=4).bounded_objects
        for i in range(30):
            prims.insert(7 * i, Triangle(*(rng.uniform(-3, 3, 3) for _ in range(3))))
        assert_same_tree(FlatBVH.build(prims), prims)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_scenes(self, n):
        spheres = [Sphere(vec3(0.5 * i, 0.0, -4.0 - i), 0.4) for i in range(n)]
        assert_same_tree(FlatBVH.build(spheres), spheres)


class TestQueries:
    def test_intersect_finds_closest(self):
        near = Sphere(vec3(0, 0, -3), 0.5)
        far = Sphere(vec3(0, 0, -8), 0.5)
        flat = FlatBVH.build([far, near])
        primitive, t = flat.intersect(Ray(vec3(0, 0, 0), vec3(0, 0, -1)))
        assert primitive is near
        assert t == pytest.approx(2.5)

    def test_any_hit(self):
        flat = FlatBVH.build([Sphere(vec3(0, 0, -3), 0.5)])
        assert flat.any_hit(Ray(vec3(0, 0, 0), vec3(0, 0, -1)))
        assert not flat.any_hit(Ray(vec3(0, 0, 0), vec3(0, 1, 0)))

    def test_any_hit_respects_max_distance(self):
        flat = FlatBVH.build([Sphere(vec3(0, 0, -10), 0.5)])
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -1))
        assert not flat.any_hit(ray, t_max=5.0)
        assert flat.any_hit(ray, t_max=20.0)

    def test_matches_brute_force_oracle(self):
        scene = random_scene(num_spheres=40, clustering=0.3, seed=7)
        spheres = scene.bounded_objects
        flat = FlatBVH.build(spheres)
        brute = BruteForceIndex(spheres)
        rng = np.random.default_rng(0)
        for _ in range(200):
            origin = vec3(*(rng.random(3) * 6 - 3))
            direction = vec3(*(rng.random(3) * 2 - 1))
            if np.allclose(direction, 0):
                continue
            ray = Ray(origin, direction)
            flat_prim, flat_t = flat.intersect(ray)
            brute_prim, brute_t = brute.intersect(ray)
            assert flat_prim is brute_prim
            assert flat_t == brute_t
            assert flat.any_hit(ray, t_max=5.0) == brute.any_hit(ray, t_max=5.0)

    def test_exact_tie_resolves_to_lower_leaf_slot(self):
        # two coincident spheres: scalar and packet queries both report the
        # one in the lower leaf slot
        twins = [Sphere(vec3(0, 0, -5), 1.0), Sphere(vec3(0, 0, -5), 1.0)]
        flat = FlatBVH.build(twins)
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -1))
        indices, _ = flat.intersect_packet(ray.origin[None, :], ray.direction[None, :])
        assert indices[0] == 0
        assert flat.intersect(ray)[0] is flat.packet_primitives[0]

    def test_bvh_visits_fewer_primitives_than_brute_force(self):
        spheres = grid_spheres(n=6)
        flat = FlatBVH.build(spheres)
        brute = BruteForceIndex(spheres)
        rays = [
            Ray(vec3(x, y, 0), vec3(0, 0, -1))
            for x in np.linspace(-1, 11, 10)
            for y in np.linspace(-1, 11, 10)
        ]
        for ray in rays:
            flat.intersect(ray)
            brute.intersect(ray)
        assert 0 < flat.stats.primitive_tests < brute.stats.primitive_tests
        assert flat.stats.node_visits > 0

    def test_same_hits_with_under_half_the_primitive_tests(self):
        # 400 random rays through a 120-sphere clustered scene
        spheres = random_scene(num_spheres=120, clustering=0.4, seed=3).bounded_objects
        flat = FlatBVH.build(spheres)
        brute = BruteForceIndex(spheres)
        rng = np.random.default_rng(1)
        rays = [Ray(vec3(0, 1, 5), vec3(*(rng.random(3) * 2 - 1))) for _ in range(400)]
        flat_hits = [flat.intersect(ray)[0] for ray in rays]
        brute_hits = [brute.intersect(ray)[0] for ray in rays]
        assert all(f is b for f, b in zip(flat_hits, brute_hits))
        assert any(hit is not None for hit in flat_hits)
        assert flat.stats.primitive_tests < brute.stats.primitive_tests * 0.5

    def test_bvh_renders_identical_image(self):
        camera = Camera(position=vec3(0, 0.5, 4), look_at=vec3(0, 0, -2), width=16, height=16)
        with_bvh = render(random_scene(num_spheres=30, seed=11, use_bvh=True), camera)
        without_bvh = render(random_scene(num_spheres=30, seed=11, use_bvh=False), camera)
        assert image_rms_difference(with_bvh, without_bvh) < 1e-12


class TestBruteForce:
    def test_size(self):
        assert BruteForceIndex([Sphere(vec3(0, 0, -5), 1.0)]).size == 1

    def test_miss_returns_none(self):
        brute = BruteForceIndex([Sphere(vec3(0, 0, -5), 1.0)])
        assert brute.intersect(Ray(vec3(0, 0, 0), vec3(0, 1, 0))) == (None, None)
