"""Integration tests: the paper's S-Net networks render correct images.

The correctness claim of the paper's methodology is that the coordination
layer (splitter / solver / merger / genImg wired by combinators) computes the
*same image* as the sequential renderer, whatever the scheduling variant.
These tests verify that end to end on small images with the real backend,
using both the sequential reference interpreter and the threaded runtime.
"""

import numpy as np
import pytest

from repro.apps import (
    FIG2_SOURCE,
    FIG3_MERGER_SOURCE,
    FIG4_SOLVER_SOURCE,
    ModelRenderBackend,
    RayTracingBoxes,
    RealRenderBackend,
    build_dynamic_network,
    build_merger,
    build_static_2cpu_network,
    build_static_network,
    dynamic_input_records,
    extract_image,
    initial_record,
    run_raytracing_farm,
)
from repro.raytracer import Camera, paper_scene, random_scene, render
from repro.raytracer.image import image_rms_difference
from repro.scheduling import FactoringScheduler
from repro.snet.lang.builder import build_network
from repro.snet.lang.parser import parse_network
from repro.snet.network import run_network
from repro.snet.records import Record
from repro.snet.runtime import run_threaded


@pytest.fixture(scope="module")
def small_setup():
    scene = random_scene(num_spheres=12, clustering=0.5, seed=21)
    camera = Camera(width=24, height=24)
    reference = render(scene, camera, mode="scalar")
    return scene, camera, reference


def make_backend(small_setup):
    scene, camera, _ = small_setup
    return RealRenderBackend(scene, camera)


class TestPaperSourcesParse:
    def test_fig2_parses(self):
        decl = parse_network(FIG2_SOURCE)
        assert decl.name == "raytracing_stat"
        assert [b.name for b in decl.boxes] == ["splitter", "solver", "genImg"]

    def test_fig3_parses(self):
        decl = parse_network(FIG3_MERGER_SOURCE)
        assert decl.name == "merger"
        assert [b.name for b in decl.boxes] == ["init", "merge"]

    def test_fig4_parses(self):
        decl = parse_network(FIG4_SOLVER_SOURCE)
        assert decl.name == "solver_segment"

    def test_fig2_buildable_with_application_boxes(self, small_setup):
        backend = make_backend(small_setup)
        boxes = RayTracingBoxes(backend)
        env = boxes.environment()
        env["merger"] = build_merger(boxes)
        netdef = build_network(FIG2_SOURCE, env)
        assert netdef.network.name == "raytracing_stat"


class TestMergerNetwork:
    def test_merger_combines_chunks_in_any_order(self, small_setup):
        scene, camera, reference = small_setup
        backend = RealRenderBackend(scene, camera)
        boxes = RayTracingBoxes(backend)
        merger = build_merger(boxes)
        # render three chunks by hand and feed them out of order
        from repro.raytracer.tracer import render_section
        from repro.scheduling import BlockScheduler

        sections = BlockScheduler(3).sections(camera.height)
        chunks = [
            render_section(scene, camera, s.y_start, s.y_end, s.index) for s in sections
        ]
        records = [
            Record({"chunk": chunks[1], "<tasks>": 3}),
            Record({"chunk": chunks[0], "<tasks>": 3, "<fst>": 1}),
            Record({"chunk": chunks[2], "<tasks>": 3}),
        ]
        outputs = run_network(merger, records)
        pics = [r for r in outputs if r.has_field("pic")]
        assert len(pics) == 1
        assert image_rms_difference(pics[0].field("pic"), reference) < 1e-12

    def test_merger_counts_to_tasks(self, small_setup):
        scene, camera, _ = small_setup
        backend = RealRenderBackend(scene, camera)
        merger = build_merger(RayTracingBoxes(backend))
        from repro.raytracer.tracer import render_section

        chunk = render_section(scene, camera, 0, camera.height, 0)
        outputs = run_network(merger, [Record({"chunk": chunk, "<tasks>": 1, "<fst>": 1})])
        assert len([r for r in outputs if r.has_field("pic")]) == 1

    def test_merger_incomplete_inputs_produce_no_picture(self, small_setup):
        scene, camera, _ = small_setup
        backend = RealRenderBackend(scene, camera)
        merger = build_merger(RayTracingBoxes(backend))
        from repro.raytracer.tracer import render_section

        chunk = render_section(scene, camera, 0, 12, 0)
        outputs = run_network(merger, [Record({"chunk": chunk, "<tasks>": 2, "<fst>": 1})])
        assert [r for r in outputs if r.has_field("pic")] == []


class TestStaticNetwork:
    def test_static_network_matches_sequential_render(self, small_setup):
        scene, camera, reference = small_setup
        backend = RealRenderBackend(scene, camera)
        net = build_static_network(backend)
        outputs = run_network(net, [initial_record(scene, nodes=3, tasks=3)])
        assert outputs == []  # genImg consumes everything
        image = extract_image(backend)
        assert image_rms_difference(image, reference) < 1e-12

    def test_static_network_on_threaded_runtime(self, small_setup):
        scene, camera, reference = small_setup
        backend = RealRenderBackend(scene, camera)
        net = build_static_network(backend)
        run_threaded(net, [initial_record(scene, nodes=2, tasks=4)], timeout=60.0)
        image = extract_image(backend)
        assert image_rms_difference(image, reference) < 1e-12

    def test_static_2cpu_network(self, small_setup):
        scene, camera, reference = small_setup
        backend = RealRenderBackend(scene, camera)
        net = build_static_2cpu_network(backend)
        run_network(net, [initial_record(scene, nodes=2, tasks=4)])
        image = extract_image(backend)
        assert image_rms_difference(image, reference) < 1e-12

    def test_tasks_not_multiple_of_nodes(self, small_setup):
        scene, camera, reference = small_setup
        backend = RealRenderBackend(scene, camera)
        net = build_static_network(backend)
        run_network(net, [initial_record(scene, nodes=2, tasks=3)])
        image = extract_image(backend)
        assert image_rms_difference(image, reference) < 1e-12


class TestDynamicNetwork:
    def test_dynamic_network_matches_sequential_render(self, small_setup):
        scene, camera, reference = small_setup
        backend = RealRenderBackend(scene, camera)
        net = build_dynamic_network(backend)
        run_network(net, dynamic_input_records(scene, nodes=2, tasks=6, tokens=3))
        image = extract_image(backend)
        assert image_rms_difference(image, reference) < 1e-12

    def test_dynamic_network_on_threaded_runtime(self, small_setup):
        scene, camera, reference = small_setup
        backend = RealRenderBackend(scene, camera)
        net = build_dynamic_network(backend)
        run_threaded(
            net, dynamic_input_records(scene, nodes=2, tasks=6, tokens=2), timeout=60.0
        )
        image = extract_image(backend)
        assert image_rms_difference(image, reference) < 1e-12

    def test_dynamic_with_factoring_scheduler(self, small_setup):
        scene, camera, reference = small_setup
        backend = RealRenderBackend(scene, camera)
        net = build_dynamic_network(backend, FactoringScheduler(num_tasks=4))
        run_network(net, dynamic_input_records(scene, nodes=2, tasks=4, tokens=2))
        image = extract_image(backend)
        assert image_rms_difference(image, reference) < 1e-12

    def test_tokens_equal_tasks_degenerates_to_static(self, small_setup):
        scene, camera, reference = small_setup
        backend = RealRenderBackend(scene, camera)
        net = build_dynamic_network(backend)
        run_network(net, dynamic_input_records(scene, nodes=2, tasks=4, tokens=4))
        image = extract_image(backend)
        assert image_rms_difference(image, reference) < 1e-12

    def test_invalid_token_count_rejected(self, small_setup):
        scene, camera, _ = small_setup
        with pytest.raises(ValueError):
            dynamic_input_records(scene, nodes=2, tasks=4, tokens=5)
        with pytest.raises(ValueError):
            dynamic_input_records(scene, nodes=2, tasks=4, tokens=0)


class TestRenderModeDefault:
    def test_backend_and_farm_default_to_fused(self, small_setup):
        scene, camera, reference = small_setup
        assert RealRenderBackend(scene, camera).render_mode == "fused"
        run = run_raytracing_farm(
            "static", width=camera.width, height=camera.height, nodes=2,
            tasks=4, scene=scene,
        )
        assert run.render_mode == "fused"
        np.testing.assert_allclose(run.image, reference, atol=1e-9)


class TestModelBackend:
    def test_model_backend_costs_positive(self, small_setup):
        scene, camera, _ = small_setup
        backend = ModelRenderBackend(scene, camera)
        from repro.scheduling import BlockScheduler

        section = BlockScheduler(4).sections(camera.height)[0]
        assert backend.section_cost(section) > 0
        chunk = backend.render_section(section)
        assert chunk.payload_size() == section.rows * camera.width * 3 + 32

    def test_model_backend_through_static_network(self, small_setup):
        scene, camera, _ = small_setup
        backend = ModelRenderBackend(scene, camera)
        net = build_static_network(backend)
        run_network(net, [initial_record(scene, nodes=2, tasks=4)])
        picture = extract_image(backend)
        assert picture.merged_chunks == 4
        assert picture.covered_rows == camera.height

    def test_model_backend_through_dynamic_network(self, small_setup):
        scene, camera, _ = small_setup
        backend = ModelRenderBackend(scene, camera)
        net = build_dynamic_network(backend)
        run_network(net, dynamic_input_records(scene, nodes=2, tasks=6, tokens=3))
        picture = extract_image(backend)
        assert picture.merged_chunks == 6
        assert picture.covered_rows == camera.height

    def test_extract_image_requires_a_run(self, small_setup):
        scene, camera, _ = small_setup
        backend = ModelRenderBackend(scene, camera)
        with pytest.raises(ValueError):
            extract_image(backend)
