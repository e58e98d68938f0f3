"""Tests for scenes, shading, rendering, image assembly and the cost model."""

import numpy as np
import pytest

from repro.raytracer import (
    Camera,
    ImageChunk,
    Light,
    Material,
    RayTracer,
    Scene,
    SectionCostModel,
    Sphere,
    assemble_chunks,
    paper_scene,
    random_scene,
    render,
    render_section,
    to_ppm,
)
from repro.raytracer.cost import CostParameters
from repro.raytracer.geometry import Plane
from repro.raytracer.image import blank_image, image_rms_difference, merge_chunk_into
from repro.raytracer.ray import Ray
from repro.raytracer.vec import vec3


def simple_scene(use_bvh=True):
    scene = Scene(use_bvh=use_bvh)
    scene.add(Sphere(vec3(0, 0, -4), 1.0, Material.matte(1.0, 0.1, 0.1)))
    scene.add(Plane(vec3(0, -1.5, 0), vec3(0, 1, 0), Material.matte(0.5, 0.5, 0.5)))
    scene.add_light(Light(vec3(3, 5, 2)))
    return scene


class TestSceneBasics:
    def test_random_scene_is_deterministic(self):
        a = random_scene(num_spheres=10, seed=3)
        b = random_scene(num_spheres=10, seed=3)
        assert len(a.objects) == len(b.objects)
        assert a.objects[1].center == pytest.approx(b.objects[1].center)

    def test_clustering_bounds_validated(self):
        with pytest.raises(ValueError):
            random_scene(clustering=1.5)

    def test_paper_scene_has_floor_and_many_spheres(self):
        scene = paper_scene(num_spheres=50)
        assert any(not obj.is_bounded for obj in scene.objects)
        assert len(scene.bounded_objects) >= 50

    def test_scene_payload_size_scales_with_objects(self):
        small = random_scene(num_spheres=5)
        large = random_scene(num_spheres=100)
        assert large.payload_size() > small.payload_size()

    def test_index_rebuilt_after_add(self):
        scene = simple_scene()
        _ = scene.index
        scene.add(Sphere(vec3(2, 0, -4), 0.5))
        assert scene.index.size == 2  # only bounded objects are indexed


class TestTracing:
    def test_center_pixel_hits_sphere(self):
        scene = simple_scene()
        camera = Camera(position=vec3(0, 0, 2), look_at=vec3(0, 0, -4), width=32, height=32)
        tracer = RayTracer(scene, camera)
        center = tracer.render_pixel(16, 16)
        corner = tracer.render_pixel(0, 0)
        assert center[0] > corner[0]  # red sphere in the middle

    def test_miss_returns_background(self):
        scene = Scene(background=vec3(0.1, 0.2, 0.3))
        scene.add_light(Light(vec3(0, 5, 0)))
        camera = Camera(width=8, height=8)
        tracer = RayTracer(scene, camera)
        assert tracer.render_pixel(4, 4) == pytest.approx(vec3(0.1, 0.2, 0.3))

    def test_max_ray_depth_limits_recursion(self):
        scene = Scene(max_ray_depth=0)
        scene.add(Sphere(vec3(0, 0, -4), 1.0, Material.mirror()))
        scene.add_light(Light(vec3(0, 5, 0)))
        camera = Camera(width=8, height=8)
        tracer = RayTracer(scene, camera)
        # depth 0 rays immediately return the background
        assert tracer.render_pixel(4, 4) == pytest.approx(scene.background)

    def test_shadows_darken_pixels(self):
        # a small sphere between the light and the floor casts a shadow:
        # rendering with and without the occluder must differ on floor pixels
        # that only the shadow ray (not the primary ray) can explain.
        def make_scene(with_occluder):
            scene = Scene()
            scene.add(Plane(vec3(0, -1, 0), vec3(0, 1, 0), Material.matte(0.8, 0.8, 0.8)))
            if with_occluder:
                scene.add(Sphere(vec3(0, 1.0, -4), 0.7, Material.matte(0.8, 0.1, 0.1)))
            scene.add_light(Light(vec3(0, 6, -4)))
            return scene

        camera = Camera(position=vec3(0, 2.0, 1.0), look_at=vec3(0, -1, -4), width=48, height=48)
        with_sphere = render(make_scene(True), camera)
        without_sphere = render(make_scene(False), camera)
        darkened = (with_sphere.mean(axis=2) < without_sphere.mean(axis=2) - 0.1)
        # the sphere itself covers some pixels, but the shadow on the floor
        # darkens strictly more pixels than the silhouette alone
        assert darkened.sum() > 20

    def test_reflection_changes_image(self):
        camera = Camera(position=vec3(0, 0.5, 3), look_at=vec3(0, 0, -4), width=24, height=24)
        matte_scene = simple_scene()
        mirror_scene = simple_scene()
        mirror_scene.objects[0].material = Material.mirror()
        matte_image = render(matte_scene, camera, mode="scalar")
        mirror_image = render(mirror_scene, camera, mode="scalar")
        assert image_rms_difference(matte_image, mirror_image) > 0.01

    def test_bvh_and_brute_force_render_identically(self):
        camera = Camera(position=vec3(0, 0.5, 4), look_at=vec3(0, 0, -2), width=24, height=24)
        scene_bvh = random_scene(num_spheres=25, seed=11, use_bvh=True)
        scene_brute = random_scene(num_spheres=25, seed=11, use_bvh=False)
        diff = image_rms_difference(
            render(scene_bvh, camera, mode="scalar"),
            render(scene_brute, camera, mode="scalar"),
        )
        assert diff < 1e-12

    def test_occluded_respects_distance(self):
        scene = simple_scene()
        camera = Camera(width=8, height=8)
        tracer = RayTracer(scene, camera)
        ray = Ray(vec3(0, 0, 0), vec3(0, 0, -1))
        assert tracer.occluded(ray, max_distance=10.0)
        assert not tracer.occluded(ray, max_distance=1.0)


class TestSectionsAndImages:
    def test_render_section_matches_full_render(self):
        scene = simple_scene()
        camera = Camera(position=vec3(0, 0, 2), look_at=vec3(0, 0, -4), width=24, height=24)
        full = render(scene, camera, mode="scalar")
        top = render_section(scene, camera, 0, 12, mode="scalar")
        bottom = render_section(scene, camera, 12, 24, mode="scalar")
        assembled = assemble_chunks([top, bottom], 24, 24)
        assert image_rms_difference(full, assembled) < 1e-12

    def test_render_rows_bounds_checked(self):
        scene = simple_scene()
        camera = Camera(width=8, height=8)
        tracer = RayTracer(scene, camera)
        with pytest.raises(ValueError):
            tracer.render_rows(4, 20)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            ImageChunk(y_start=-1, pixels=np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            ImageChunk(y_start=0, pixels=np.zeros((2, 2)))

    def test_assemble_rejects_overlap_and_out_of_bounds(self):
        a = ImageChunk(0, np.zeros((4, 8, 3)))
        overlapping = ImageChunk(2, np.zeros((4, 8, 3)))
        with pytest.raises(ValueError):
            assemble_chunks([a, overlapping], 8, 6)
        too_tall = ImageChunk(6, np.zeros((4, 8, 3)))
        with pytest.raises(ValueError):
            assemble_chunks([too_tall], 8, 8)

    def test_merge_chunk_into(self):
        image = blank_image(8, 8)
        chunk = ImageChunk(2, np.ones((2, 8, 3)))
        merged = merge_chunk_into(image, chunk)
        assert merged[2:4].sum() == 2 * 8 * 3
        assert image.sum() == 0  # original untouched

    def test_merge_chunk_into_in_place(self):
        image = blank_image(8, 8)
        chunk = ImageChunk(2, np.ones((2, 8, 3)))
        merged = merge_chunk_into(image, chunk, copy=False)
        assert merged is image  # O(chunk): no fresh accumulator allocated
        assert image[2:4].sum() == 2 * 8 * 3

    def test_ppm_output(self):
        image = blank_image(4, 2)
        image[0, 0] = vec3(1.0, 0.0, 0.0)
        data = to_ppm(image)
        assert data.startswith(b"P6\n4 2\n255\n")
        assert len(data) == len(b"P6\n4 2\n255\n") + 4 * 2 * 3

    def test_chunk_payload_size(self):
        chunk = ImageChunk(0, np.zeros((10, 100, 3)))
        assert chunk.payload_size() == 10 * 100 * 3 + 32


class TestCostModel:
    def test_total_cost_matches_calibration(self):
        scene = paper_scene(num_spheres=40)
        camera = Camera(width=3000, height=3000)
        model = SectionCostModel(scene, camera, CostParameters(total_seconds=630.0))
        assert model.total_cost() == pytest.approx(630.0, rel=1e-9)

    def test_section_costs_sum_to_total(self):
        scene = paper_scene(num_spheres=40)
        camera = Camera(width=3000, height=3000)
        model = SectionCostModel(scene, camera)
        bounds = np.linspace(0, 3000, 9).astype(int)
        total = sum(
            model.section_cost(int(bounds[i]), int(bounds[i + 1])) for i in range(8)
        )
        assert total == pytest.approx(model.total_cost(), rel=1e-9)

    def test_clustered_scene_is_imbalanced(self):
        camera = Camera(width=3000, height=3000)
        uniform = SectionCostModel(random_scene(num_spheres=120, clustering=0.0, seed=5), camera)
        clustered = SectionCostModel(random_scene(num_spheres=120, clustering=0.8, seed=5), camera)
        assert clustered.imbalance(8) > uniform.imbalance(8)
        assert clustered.imbalance(8) > 1.15

    def test_paper_scene_half_split_matches_mpi_2proc_ratio(self):
        # the slower half should carry roughly 55-70% of the work, consistent
        # with Fig. 6 (one node: 651 s sequential vs 402 s with 2 processes)
        camera = Camera(width=3000, height=3000)
        model = SectionCostModel(paper_scene(), camera)
        lower = model.section_cost(1500, 3000)
        total = model.total_cost()
        heavier = max(lower, total - lower)
        assert 0.55 <= heavier / total <= 0.72

    def test_invalid_section_bounds(self):
        model = SectionCostModel(paper_scene(num_spheres=10), Camera(width=100, height=100))
        with pytest.raises(ValueError):
            model.section_cost(50, 200)

    def test_model_correlates_with_measured_cost(self):
        # at a small resolution, the analytic row weights should correlate
        # positively with the real tracer's per-row intersection counts
        scene = random_scene(num_spheres=40, clustering=0.7, seed=9)
        camera = Camera(width=48, height=48)
        model = SectionCostModel(scene, camera)
        predicted = model.row_weights
        measured = model.measured_row_weights(subsample=4)
        correlation = np.corrcoef(predicted, measured)[0, 1]
        assert correlation > 0.4
