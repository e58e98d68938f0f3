"""The packet shader against its per-light, per-kind oracle.

:func:`repro.raytracer.shading.shade_block` sends one shadow packet for all
lights and one secondary packet for reflection and transmission together;
``tests/oracles.py`` keeps the shader that sent one packet per light and
per kind.  Each pixel keeps its arithmetic and summation order, so the two
must agree bit for bit, and so must the rays cast and the tile touch
capture.  The call-count tests pin the packet structure itself.
"""

import numpy as np
import pytest

from oracles import reference_render_section, reference_shade_block
from repro.apps.workloads import scene_from_spec
from repro.raytracer import Camera, Material, RayTracer, Sphere, random_scene, render_section
from repro.raytracer import packet, shading
from repro.raytracer.geometry import Plane, Triangle
from repro.raytracer.packet import cast_packet, scene_packet_data
from repro.raytracer.scene import Light, Scene
from repro.raytracer.vec import vec3


def lit_scene(seed, lights, *, triangles=0, max_ray_depth=4):
    """A random scene (floor plane, mirrors, glass) with ``lights`` lights
    and ``triangles`` random triangles of all three material kinds."""
    scene = random_scene(num_spheres=25, clustering=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    kinds = (Material.glass(), Material.mirror(), Material.matte(0.3, 0.8, 0.4))
    for i in range(triangles):
        corner = rng.uniform(-3.0, 3.0, 3) + np.array([0.0, 0.0, -8.0])
        scene.add(Triangle(corner, corner + rng.uniform(-1.5, 1.5, 3),
                           corner + rng.uniform(-1.5, 1.5, 3), kinds[i % 3]))
    scene.lights = [
        Light(rng.uniform(-6.0, 6.0, 3) + np.array([0.0, 6.0, 0.0]),
              0.5 + 0.5 * rng.random(3), intensity=0.3 + rng.random())
        for _ in range(lights)
    ]
    scene.max_ray_depth = max_ray_depth
    return scene


def assert_same_as_oracle(scene, camera, y_start=0, y_end=None):
    y_end = camera.height if y_end is None else y_end
    chunk = render_section(scene, camera, y_start, y_end, touch=True)
    pixels, rays, summary = reference_render_section(scene, camera, y_start, y_end, touch=True)
    assert np.array_equal(chunk.pixels, pixels)
    assert chunk.rays_cast == rays
    got = chunk.summary
    assert got.ids == summary.ids
    assert np.array_equal(got.bucket_min, summary.bucket_min)
    assert np.array_equal(got.bucket_max, summary.bucket_max)
    assert (got.secondary, got.rays) == (summary.secondary, summary.rays)


class TestOracle:
    @pytest.mark.parametrize("lights", [0, 1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spheres_and_plane(self, seed, lights):
        assert_same_as_oracle(lit_scene(seed, lights), Camera(width=40, height=32))

    @pytest.mark.parametrize("lights", [0, 1, 3])
    def test_triangles_and_plane(self, lights):
        scene = lit_scene(5, lights, triangles=12)
        assert_same_as_oracle(scene, Camera(width=40, height=32))

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_rays_reach_max_ray_depth(self, depth):
        """Mirror walls facing each other: every primary hit recurses into
        secondary packets until ``max_ray_depth`` cuts it off."""
        scene = Scene(max_ray_depth=depth)
        scene.add(Plane(vec3(0.0, -2.0, 0.0), vec3(0.0, 1.0, 0.0), Material.mirror()))
        scene.add(Plane(vec3(0.0, 2.0, 0.0), vec3(0.0, -1.0, 0.0), Material.glass()))
        scene.add(Sphere(vec3(0.0, 0.0, -5.0), 1.0, Material.mirror()))
        scene.add_light(Light(vec3(0.0, 1.5, 0.0)))
        scene.add_light(Light(vec3(1.0, 1.0, -2.0), intensity=0.5))
        assert_same_as_oracle(scene, Camera(width=16, height=12))

    def test_no_bvh_index(self):
        scene = lit_scene(3, 2, triangles=6)
        scene.use_bvh = False
        scene.invalidate_packet_cache()
        assert_same_as_oracle(scene, Camera(width=24, height=16))

    def test_small_sections(self):
        scene = scene_from_spec({"kind": "random", "num_spheres": 8, "seed": 0})
        camera = Camera(width=32, height=64)
        for y in range(0, 64, 2):
            assert_same_as_oracle(scene, camera, y, y + 2)

    def test_total_internal_reflection_and_axis_aligned_rays(self):
        """Rays inside a glass sphere, parallel to an axis (two zero
        direction components), meet its surface beyond the critical angle:
        the transmission rows become reflections."""
        glass = Sphere(vec3(0.0, 0.0, 0.0), 1.0, Material.glass(ior=1.5))
        scene = Scene(objects=[glass, Sphere(vec3(0.0, 3.0, 0.0), 0.5, Material.mirror())],
                      lights=[Light(vec3(0.0, 5.0, 5.0)), Light(vec3(-3.0, 1.0, 0.0))])
        offsets = np.linspace(-0.95, 0.95, 9)
        origins = np.stack([offsets, np.zeros(9), np.zeros(9)], axis=1)
        directions = np.tile([0.0, 1.0, 0.0], (9, 1))
        index = scene.index
        data = scene_packet_data(scene)
        indices, t = cast_packet(scene, index, origins, directions)
        assert (indices >= 0).all()
        # sin(incidence) = |offset| > 1 / 1.5 on the outer rows
        assert (np.abs(offsets) > 1.0 / 1.5).sum() == 4
        results = []
        for shader in (shading.shade_block, reference_shade_block):
            tracer = RayTracer(scene, Camera(width=3, height=3))
            results.append((shader(tracer, data, index, origins, directions, indices, t, 0),
                            tracer.rays_cast))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1] > 0


class TestPacketCounts:
    @pytest.mark.parametrize("lights", [1, 2, 5])
    def test_one_shadow_and_one_secondary_packet_per_shading_call(self, monkeypatch, lights):
        scene = lit_scene(1, lights, triangles=6)
        index = scene.index
        frames = []  # one entry per shade_block call: [any-hit, secondary]
        stack = []

        def counted(original, slot):
            def wrapper(*args, **kwargs):
                if stack:
                    stack[-1][slot] += 1
                return original(*args, **kwargs)
            return wrapper

        real_shade = shading.shade_block

        def shade(*args):
            stack.append([0, 0])
            try:
                return real_shade(*args)
            finally:
                frames.append(stack.pop())

        monkeypatch.setattr(index, "any_hit_packet", counted(index.any_hit_packet, 0))
        monkeypatch.setattr(packet, "trace_packet", counted(packet.trace_packet, 1))
        monkeypatch.setattr(shading, "shade_block", shade)
        render_section(scene, Camera(width=32, height=24), 0, 24)
        assert len(frames) > 3
        assert all(any_hit == 1 for any_hit, _ in frames)
        assert all(secondary <= 1 for _, secondary in frames)
        assert any(secondary == 1 for _, secondary in frames)

    def test_traversal_calls_of_a_32_section_frame(self, monkeypatch):
        """The 32x64 8-sphere frame as 32 two-row sections: 110 traversals
        (the per-light, per-kind shader sent 212)."""
        scene = scene_from_spec({"kind": "random", "num_spheres": 8, "seed": 0})
        camera = Camera(width=32, height=64)
        index = scene.index
        calls = {"n": 0}

        def counted(original):
            def wrapper(*args, **kwargs):
                calls["n"] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(index, "intersect_packet", counted(index.intersect_packet))
        monkeypatch.setattr(index, "any_hit_packet", counted(index.any_hit_packet))
        for y in range(0, 64, 2):
            render_section(scene, camera, y, y + 2)
        new = calls["n"]
        calls["n"] = 0
        for y in range(0, 64, 2):
            reference_render_section(scene, camera, y, y + 2)
        assert (new, calls["n"]) == (110, 212)
