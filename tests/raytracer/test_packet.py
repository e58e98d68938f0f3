"""Tests for the NumPy ray-packet kernels of the fused render path.

The scalar per-pixel path is the correctness oracle: every packet kernel
(camera ray blocks, primitive intersection, flat-BVH traversal, vectorized
shading) must agree with its scalar counterpart, and a whole fused render
must match the scalar image to ``atol=1e-9``.
"""

import numpy as np
import pytest

from repro.raytracer import (
    BruteForceIndex,
    Camera,
    Material,
    RayTracer,
    Sphere,
    random_scene,
    render,
    render_section,
)
from repro.raytracer.flatbvh import FlatBVH, scene_flat_index
from repro.raytracer.geometry import Plane, Triangle
from repro.raytracer.packet import (
    cast_packet,
    occluded_packet,
    scene_packet_data,
    trace_packet,
)
from repro.raytracer.ray import Ray
from repro.raytracer.tracer import check_render_mode
from repro.raytracer.vec import vec3


def standard_scene(**overrides):
    """The standard random scene used across the runner and benchmarks."""
    params = dict(num_spheres=30, clustering=0.5, seed=7)
    params.update(overrides)
    return random_scene(**params)


def random_rays(count=256, seed=5):
    rng = np.random.default_rng(seed)
    origins = rng.uniform(-4.0, 4.0, size=(count, 3))
    directions = rng.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return origins, directions


def primary_rays(camera, y_start, y_end):
    n = (y_end - y_start) * camera.width
    return camera.primary_ray_block_into(
        y_start, y_end, np.empty((n, 3)), np.empty(n)
    )


class TestCameraBlocks:
    def test_primary_ray_block_matches_primary_ray(self):
        camera = Camera(width=9, height=7)
        origins, directions = primary_rays(camera, 2, 6)
        assert origins.shape == directions.shape == (4 * 9, 3)
        i = 0
        for py in range(2, 6):
            for px in range(9):
                ray = camera.primary_ray(px, py)
                np.testing.assert_allclose(origins[i], ray.origin, atol=0.0)
                np.testing.assert_allclose(directions[i], ray.direction, atol=1e-15)
                i += 1

    def test_block_bounds_checked(self):
        camera = Camera(width=8, height=8)
        with pytest.raises(ValueError):
            primary_rays(camera, 4, 20)


class TestPrimitiveKernels:
    @pytest.mark.parametrize(
        "primitive",
        [
            Sphere(vec3(0.3, -0.2, 0.5), 1.7),
            Plane(vec3(0, -1.0, 0), vec3(0.2, 1.0, -0.1)),
            Triangle(vec3(-2, -1, 0), vec3(2, -1, 0), vec3(0, 2, 0.5)),
        ],
        ids=["sphere", "plane", "triangle"],
    )
    def test_intersect_block_matches_scalar(self, primitive):
        origins, directions = random_rays()
        block = primitive.intersect_block(origins, directions, 1e-6, np.inf)
        for i in range(origins.shape[0]):
            scalar = primitive.intersect(Ray(origins[i], directions[i]))
            if scalar is None:
                assert np.isinf(block[i])
            else:
                assert block[i] == pytest.approx(scalar, abs=1e-12)

    def test_intersect_block_respects_per_ray_tmax(self):
        sphere = Sphere(vec3(0, 0, 0), 1.0)
        origins = np.array([[0.0, 0.0, 5.0]] * 2)
        directions = np.array([[0.0, 0.0, -1.0]] * 2)
        t = sphere.intersect_block(origins, directions, 1e-6, np.array([10.0, 2.0]))
        assert t[0] == pytest.approx(4.0)
        assert np.isinf(t[1])  # both roots beyond the per-ray bound

    def test_inside_sphere_picks_far_root(self):
        sphere = Sphere(vec3(0, 0, 0), 2.0)
        t = sphere.intersect_block(
            np.zeros((1, 3)), np.array([[0.0, 0.0, -1.0]]), 1e-6, np.inf
        )
        assert t[0] == pytest.approx(2.0)

    def test_base_class_fallback_matches_scalar(self):
        class PlainSphere(Sphere):
            """A primitive without its own vectorized kernel."""

            intersect_block = Sphere.__mro__[1].intersect_block  # Primitive's loop
            normal_block = Sphere.__mro__[1].normal_block

        plain = PlainSphere(vec3(0.5, 0.0, -1.0), 1.2)
        fast = Sphere(vec3(0.5, 0.0, -1.0), 1.2)
        origins, directions = random_rays(64)
        np.testing.assert_allclose(
            plain.intersect_block(origins, directions, 1e-6, np.inf),
            fast.intersect_block(origins, directions, 1e-6, np.inf),
            atol=1e-12,
        )


class TestIndexPackets:
    def make_spheres(self, count=25, seed=3):
        rng = np.random.default_rng(seed)
        return [
            Sphere(rng.uniform(-4, 4, size=3), rng.uniform(0.2, 1.0))
            for _ in range(count)
        ]

    def test_any_hit_packet_matches_scalar(self):
        spheres = self.make_spheres(12, seed=29)
        brute = BruteForceIndex(spheres)
        origins, directions = random_rays(200, seed=31)
        t_max = np.full(200, 6.0)
        mask = FlatBVH.build(spheres).any_hit_packet(origins, directions, 1e-6, t_max)
        for i in range(origins.shape[0]):
            assert mask[i] == brute.any_hit(Ray(origins[i], directions[i]), 1e-6, 6.0)


class TestPacketTracing:
    def test_cast_packet_matches_scalar_cast(self):
        scene = standard_scene(num_spheres=12)
        camera = Camera(width=16, height=16)
        tracer = RayTracer(scene, camera)
        origins, directions = primary_rays(camera, 0, 16)
        data = scene_packet_data(scene)
        indices, t = cast_packet(scene, scene_flat_index(scene), origins, directions)
        for i in range(0, origins.shape[0], 7):
            hit = tracer.cast(Ray(origins[i], directions[i]))
            if hit is None:
                assert indices[i] == -1
            else:
                assert data.primitives[indices[i]] is hit.primitive
                assert t[i] == pytest.approx(hit.t, abs=1e-12)

    def test_occluded_packet_matches_scalar(self):
        scene = standard_scene(num_spheres=12)
        tracer = RayTracer(scene, Camera(width=8, height=8))
        origins, directions = random_rays(120, seed=37)
        distances = np.full(120, 8.0)
        mask = occluded_packet(
            scene, scene_flat_index(scene), origins, directions, distances
        )
        for i in range(origins.shape[0]):
            assert mask[i] == tracer.occluded(Ray(origins[i], directions[i]), 8.0)

    def test_fused_image_matches_scalar_image(self):
        """The acceptance bar: pixel-identical (atol 1e-9) on the standard
        random scene, identical ray accounting included."""
        scene = standard_scene()
        camera = Camera(width=48, height=48)
        scalar_tracer = RayTracer(scene, camera)
        scalar = scalar_tracer.render_rows(0, 48)
        fused_tracer = RayTracer(scene, camera)
        fused = fused_tracer.render_rows_fused(0, 48)
        np.testing.assert_allclose(fused, scalar, atol=1e-9)
        assert fused_tracer.rays_cast == scalar_tracer.rays_cast > 48 * 48

    def test_fused_without_bvh_matches_scalar(self):
        camera = Camera(width=16, height=16)
        scalar = render(
            standard_scene(num_spheres=8, use_bvh=False), camera, mode="scalar"
        )
        fused = render(
            standard_scene(num_spheres=8, use_bvh=False), camera, mode="fused"
        )
        np.testing.assert_allclose(fused, scalar, atol=1e-9)

    def test_max_ray_depth_zero_returns_background(self):
        scene = standard_scene(num_spheres=4)
        scene.max_ray_depth = 0
        camera = Camera(width=4, height=4)
        tracer = RayTracer(scene, camera)
        image = tracer.render_rows_fused(0, 4)
        np.testing.assert_allclose(image, np.broadcast_to(scene.background, (4, 4, 3)))
        assert tracer.rays_cast == 0

    def test_empty_packet(self):
        scene = standard_scene(num_spheres=2)
        tracer = RayTracer(scene, Camera(width=4, height=4))
        colors = trace_packet(
            tracer, scene_flat_index(scene), np.zeros((0, 3)), np.zeros((0, 3))
        )
        assert colors.shape == (0, 3)

    def test_glass_and_mirror_recursion_matches(self):
        """Reflection/refraction packets recurse identically to the scalar
        secondary rays (including total internal reflection handling)."""
        from repro.raytracer import Light, Scene

        scene = Scene()
        scene.add(Plane(vec3(0, -1.5, 0), vec3(0, 1, 0), Material.matte(0.6, 0.6, 0.6)))
        scene.add(Sphere(vec3(-0.8, 0, -3), 1.0, Material.mirror()))
        scene.add(Sphere(vec3(0.9, 0, -2.2), 0.8, Material.glass()))
        scene.add_light(Light(vec3(3, 5, 2)))
        camera = Camera(position=vec3(0, 0.4, 2), look_at=vec3(0, 0, -3), width=24, height=24)
        scalar = RayTracer(scene, camera).render_rows(0, 24)
        fused = RayTracer(scene, camera).render_rows_fused(0, 24)
        np.testing.assert_allclose(fused, scalar, atol=1e-9)


class TestRenderModeKnob:
    def test_render_section_fused_mode(self):
        scene = standard_scene(num_spheres=6)
        camera = Camera(width=16, height=16)
        chunk_scalar = render_section(scene, camera, 4, 12, section_id=1, mode="scalar")
        chunk_fused = render_section(scene, camera, 4, 12, section_id=1, mode="fused")
        np.testing.assert_allclose(chunk_fused.pixels, chunk_scalar.pixels, atol=1e-9)
        assert chunk_fused.rays_cast == chunk_scalar.rays_cast > 0

    def test_default_mode_is_fused(self):
        scene = standard_scene(num_spheres=6)
        camera = Camera(width=8, height=8)
        assert check_render_mode() == check_render_mode(None) == "fused"
        assert np.array_equal(render(scene, camera), render(scene, camera, "fused"))

    def test_packet_mode_is_gone(self):
        with pytest.raises(ValueError, match="render mode"):
            check_render_mode("packet")

    def test_unknown_mode_rejected(self):
        scene = standard_scene(num_spheres=2)
        camera = Camera(width=4, height=4)
        with pytest.raises(ValueError, match="render mode"):
            render(scene, camera, mode="simd")
        with pytest.raises(ValueError, match="render mode"):
            render_section(scene, camera, 0, 2, mode="warp")

    def test_packet_data_cache_tracks_index(self):
        scene = standard_scene(num_spheres=4)
        first = scene_packet_data(scene)
        assert scene_packet_data(scene) is first  # cached
        scene.add(Sphere(vec3(0, 0, -5), 0.4))  # invalidates the index
        rebuilt = scene_packet_data(scene)
        assert rebuilt is not first
        assert len(rebuilt.primitives) == len(first.primitives) + 1

    def test_packet_data_follows_geometry_refit(self):
        """A geometry-only commit replaces the index by its refit; the packet
        rows (aligned with the unchanged leaf slots) are carried over, and a
        material commit drops them."""
        scene = standard_scene(num_spheres=8)
        first = scene_packet_data(scene)
        sphere = scene.index.packet_primitives[0]
        edit = scene.begin_edit()
        edit.update(sphere, center=sphere.center + np.array([0.2, 0.0, 0.1]))
        edit.commit()
        carried = scene_packet_data(scene)
        assert carried.index is scene.index is not first.index
        assert carried.primitives == first.primitives
        assert np.array_equal(carried.color, first.color)
        edit = scene.begin_edit()
        edit.update(sphere, material=Material.matte(0.9, 0.1, 0.1))
        edit.commit()
        recoloured = scene_packet_data(scene)
        assert recoloured is not carried
        row = recoloured.primitives.index(sphere)
        assert np.array_equal(recoloured.color[row], [0.9, 0.1, 0.1])
        camera = Camera(position=vec3(0, 0, 2), look_at=vec3(0, 0, -4), width=16, height=16)
        np.testing.assert_allclose(
            RayTracer(scene, camera).render_rows_fused(0, 16),
            RayTracer(scene, camera).render_rows(0, 16),
            atol=1e-9,
        )

    def test_tiled_packets_match_single_packet(self):
        """Row tiling (MAX_PACKET_RAYS) must not change any pixel."""
        scene = standard_scene(num_spheres=10)
        camera = Camera(width=16, height=16)
        whole = RayTracer(scene, camera).render_rows_fused(0, 16)
        tiny_tiles = RayTracer(scene, camera)
        tiny_tiles.MAX_PACKET_RAYS = 40  # forces 2-row tiles mid-band
        tiled = tiny_tiles.render_rows_fused(0, 16)
        np.testing.assert_allclose(tiled, whole, atol=0.0)
