"""Tests for vectors, rays, cameras, AABBs and primitives."""

import numpy as np
import pytest

from repro.raytracer.camera import Camera
from repro.raytracer.geometry import AABB, Plane, Sphere, Triangle
from repro.raytracer.materials import Material
from repro.raytracer.ray import Ray
from repro.raytracer.vec import dot, length, normalize, reflect, refract, vec3


class TestVec:
    def test_normalize_unit_length(self):
        v = normalize(vec3(3, 4, 0))
        assert length(v) == pytest.approx(1.0)

    def test_normalize_zero_vector(self):
        v = normalize(vec3(0, 0, 0))
        assert length(v) == 0.0

    def test_reflect(self):
        incoming = normalize(vec3(1, -1, 0))
        normal = vec3(0, 1, 0)
        reflected = reflect(incoming, normal)
        assert reflected == pytest.approx(normalize(vec3(1, 1, 0)))

    def test_refract_straight_through(self):
        direction = vec3(0, -1, 0)
        normal = vec3(0, 1, 0)
        refracted = refract(direction, normal, 1.0)
        assert refracted == pytest.approx(direction)

    def test_total_internal_reflection_returns_none(self):
        # grazing incidence from a dense medium
        direction = normalize(vec3(1, -0.1, 0))
        normal = vec3(0, 1, 0)
        assert refract(direction, normal, 1.8) is None

    def test_dot(self):
        assert dot(vec3(1, 2, 3), vec3(4, 5, 6)) == 32


class TestRay:
    def test_direction_is_normalised(self):
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -10))
        assert length(ray.direction) == pytest.approx(1.0)

    def test_at(self):
        ray = Ray(vec3(1, 0, 0), vec3(0, 0, -1))
        assert ray.at(2.0) == pytest.approx(vec3(1, 0, -2))

    def test_spawn_increments_depth(self):
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -1), depth=1)
        child = ray.spawn(vec3(0, 0, -1), vec3(1, 0, 0))
        assert child.depth == 2


class TestAABB:
    def test_union_and_surface_area(self):
        a = AABB(vec3(0, 0, 0), vec3(1, 1, 1))
        b = AABB(vec3(2, 0, 0), vec3(3, 1, 1))
        u = a.union(b)
        assert u.minimum == pytest.approx(vec3(0, 0, 0))
        assert u.maximum == pytest.approx(vec3(3, 1, 1))
        assert a.surface_area() == pytest.approx(6.0)
        assert u.surface_area() == pytest.approx(2 * (3 + 1 + 3))

    def test_empty_box(self):
        e = AABB.empty()
        assert e.is_empty()
        assert e.surface_area() == 0.0
        box = AABB(vec3(0, 0, 0), vec3(1, 1, 1))
        assert e.union(box).surface_area() == pytest.approx(6.0)

    def test_contains(self):
        box = AABB(vec3(0, 0, 0), vec3(2, 2, 2))
        assert box.contains_point(vec3(1, 1, 1))
        assert not box.contains_point(vec3(3, 1, 1))
        assert box.contains_box(AABB(vec3(0.5, 0.5, 0.5), vec3(1, 1, 1)))
        assert not box.contains_box(AABB(vec3(0.5, 0.5, 0.5), vec3(3, 1, 1)))

    def test_ray_intersection(self):
        box = AABB(vec3(-1, -1, -1), vec3(1, 1, 1))
        hit_ray = Ray(vec3(0, 0, 5), vec3(0, 0, -1))
        miss_ray = Ray(vec3(5, 5, 5), vec3(0, 0, -1))
        assert box.intersects_ray(hit_ray)
        assert not box.intersects_ray(miss_ray)

    def test_ray_parallel_to_slab(self):
        box = AABB(vec3(-1, -1, -1), vec3(1, 1, 1))
        inside_parallel = Ray(vec3(0, 0, 0), vec3(1, 0, 0))
        outside_parallel = Ray(vec3(0, 5, 0), vec3(1, 0, 0))
        assert box.intersects_ray(inside_parallel)
        assert not box.intersects_ray(outside_parallel)

    def test_centroid(self):
        box = AABB(vec3(0, 0, 0), vec3(2, 4, 6))
        assert box.centroid == pytest.approx(vec3(1, 2, 3))


class TestSphere:
    def test_intersection_from_outside(self):
        sphere = Sphere(vec3(0, 0, -5), 1.0)
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -1))
        t = sphere.intersect(ray)
        assert t == pytest.approx(4.0)

    def test_miss(self):
        sphere = Sphere(vec3(0, 3, -5), 1.0)
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -1))
        assert sphere.intersect(ray) is None

    def test_intersection_from_inside(self):
        sphere = Sphere(vec3(0, 0, 0), 2.0)
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -1))
        assert sphere.intersect(ray) == pytest.approx(2.0)

    def test_t_window_respected(self):
        sphere = Sphere(vec3(0, 0, -5), 1.0)
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -1))
        assert sphere.intersect(ray, t_max=3.0) is None

    def test_normal_points_outwards(self):
        sphere = Sphere(vec3(0, 0, 0), 1.0)
        n = sphere.normal_at(vec3(1, 0, 0))
        assert n == pytest.approx(vec3(1, 0, 0))

    def test_bounding_box(self):
        sphere = Sphere(vec3(1, 2, 3), 0.5)
        box = sphere.bounding_box()
        assert box.minimum == pytest.approx(vec3(0.5, 1.5, 2.5))
        assert box.maximum == pytest.approx(vec3(1.5, 2.5, 3.5))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            Sphere(vec3(0, 0, 0), 0.0)


class TestPlane:
    def test_intersection(self):
        plane = Plane(vec3(0, -1, 0), vec3(0, 1, 0))
        ray = Ray(vec3(0, 1, 0), vec3(0, -1, 0))
        assert plane.intersect(ray) == pytest.approx(2.0)

    def test_parallel_ray_misses(self):
        plane = Plane(vec3(0, -1, 0), vec3(0, 1, 0))
        ray = Ray(vec3(0, 1, 0), vec3(1, 0, 0))
        assert plane.intersect(ray) is None

    def test_plane_is_unbounded(self):
        plane = Plane(vec3(0, 0, 0), vec3(0, 1, 0))
        assert not plane.is_bounded


class TestTriangle:
    def test_hit_inside(self):
        tri = Triangle(vec3(-1, -1, -3), vec3(1, -1, -3), vec3(0, 1, -3))
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -1))
        assert tri.intersect(ray) == pytest.approx(3.0)

    def test_miss_outside(self):
        tri = Triangle(vec3(-1, -1, -3), vec3(1, -1, -3), vec3(0, 1, -3))
        ray = Ray(vec3(2, 2, 0), vec3(0, 0, -1))
        assert tri.intersect(ray) is None

    def test_bounding_box_contains_vertices(self):
        tri = Triangle(vec3(-1, -1, -3), vec3(1, -1, -4), vec3(0, 1, -2))
        box = tri.bounding_box()
        for v in (tri.v0, tri.v1, tri.v2):
            assert box.contains_point(v)


class TestCamera:
    def test_center_ray_points_forward(self):
        cam = Camera(position=vec3(0, 0, 5), look_at=vec3(0, 0, 0), width=100, height=100)
        ray = cam.primary_ray(50, 50)
        assert ray.direction[2] < -0.99

    def test_corner_rays_differ(self):
        cam = Camera(width=64, height=64)
        top_left = cam.primary_ray(0, 0)
        bottom_right = cam.primary_ray(63, 63)
        assert not np.allclose(top_left.direction, bottom_right.direction)

    def test_projection_roundtrip(self):
        cam = Camera(position=vec3(0, 0, 5), look_at=vec3(0, 0, 0), width=200, height=200)
        x, y, depth = cam.ndc_of_point(vec3(0, 0, 0))
        assert depth == pytest.approx(5.0)
        assert abs(x) < 1e-9 and abs(y) < 1e-9
        assert cam.row_of_ndc_y(y) in (99, 100)

    def test_point_behind_camera(self):
        cam = Camera(position=vec3(0, 0, 5), look_at=vec3(0, 0, 0))
        _, _, depth = cam.ndc_of_point(vec3(0, 0, 10))
        assert depth <= 0

    def test_rows_of_points_matches_scalar_projection(self):
        cam = Camera(position=vec3(0.3, 1.0, 5.0), look_at=vec3(0, 0, -8), width=50, height=40)
        points = np.random.default_rng(5).uniform([-6, -5, -14], [6, 5, -1], (200, 3))
        expected = [cam.row_of_ndc_y(cam.ndc_of_point(p)[1]) for p in points]
        assert cam.rows_of_points(points).tolist() == expected
        assert cam.rows_of_points(np.vstack([points, vec3(0, 0, 10)])) is None

    def test_with_resolution(self):
        cam = Camera(width=3000, height=3000)
        small = cam.with_resolution(64, 64)
        assert small.width == 64 and small.height == 64
        assert small.fov_degrees == cam.fov_degrees

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            Camera(width=0, height=10)


class TestMaterial:
    def test_factories(self):
        assert Material.matte(1, 0, 0).reflectivity == 0
        assert Material.mirror().reflectivity > 0.5
        assert Material.glass().transparency > 0.5

    def test_casts_secondary_rays(self):
        assert not Material.matte(1, 1, 1).casts_secondary_rays
        assert Material.mirror().casts_secondary_rays
        assert Material.glass().casts_secondary_rays
