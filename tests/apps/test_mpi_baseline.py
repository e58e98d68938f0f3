"""Tests for the MPI baseline ray tracer and the experiment harness."""

import pytest

from repro.apps import ModelRenderBackend, RealRenderBackend
from repro.apps.mpi_baseline import run_mpi_raytracer
from repro.bench.experiments import (
    ExperimentSettings,
    run_mpi_variant,
    run_snet_dynamic,
    run_snet_static,
    run_variant,
)
from repro.bench.figures import fig6_speedups, scheduling_example
from repro.bench.reporting import format_fig5_table, format_fig6_table, to_csv
from repro.bench.figures import Fig5Cell
from repro.cluster import paper_cluster
from repro.raytracer import Camera, paper_scene, random_scene, render
from repro.raytracer.image import assemble_chunks, image_rms_difference


class TestMPIBaseline:
    def test_real_render_matches_sequential(self):
        scene = random_scene(num_spheres=10, seed=4)
        camera = Camera(width=16, height=16)
        reference = render(scene, camera, mode="scalar")
        cluster = paper_cluster(num_nodes=4)
        backend = RealRenderBackend(scene, camera)
        result = run_mpi_raytracer(cluster, backend, processes_per_node=1, real_render=True)
        assert len(result.chunks) == 4
        image = assemble_chunks(result.chunks, camera.width, camera.height)
        assert image_rms_difference(image, reference) < 1e-12

    def test_model_backend_scaling(self):
        settings = ExperimentSettings()
        one = run_mpi_variant(settings, 1, 1)
        eight = run_mpi_variant(settings, 8, 1)
        assert eight.runtime_seconds < one.runtime_seconds
        # imbalance keeps 8-node efficiency below the ideal factor of 8
        assert eight.runtime_seconds > one.runtime_seconds / 8

    def test_two_processes_per_node_faster(self):
        settings = ExperimentSettings()
        single = run_mpi_variant(settings, 4, 1)
        double = run_mpi_variant(settings, 4, 2)
        assert double.runtime_seconds < single.runtime_seconds

    def test_invalid_processes_per_node(self):
        scene = random_scene(num_spheres=5)
        backend = ModelRenderBackend(scene, Camera(width=100, height=100))
        with pytest.raises(ValueError):
            run_mpi_raytracer(paper_cluster(2), backend, processes_per_node=0)


class TestExperimentHarness:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_variant(ExperimentSettings(), "nonsense", 2)

    def test_snet_static_produces_picture_and_runtime(self):
        result = run_snet_static(ExperimentSettings(), 2)
        assert result.runtime_seconds > 0
        assert result.variant == "snet_static"
        assert result.tasks == 2

    def test_dynamic_beats_static_on_imbalanced_scene(self):
        settings = ExperimentSettings()
        static = run_snet_static(settings, 4)
        dynamic = run_snet_dynamic(settings, 4, tasks=32, tokens=8, scheduling="block")
        assert dynamic.runtime_seconds < static.runtime_seconds

    def test_invalid_scheduling_name(self):
        with pytest.raises(ValueError):
            run_snet_dynamic(ExperimentSettings(), 2, tasks=8, tokens=4, scheduling="magic")

    def test_speedup_helper(self):
        settings = ExperimentSettings()
        table = {
            "mpi_2proc": {2: run_mpi_variant(settings, 2, 2)},
            "snet_best_dynamic": {2: run_variant(settings, "snet_best_dynamic", 2)},
        }
        speedups = fig6_speedups(table)
        assert 2 in speedups["snet_best_dynamic"]
        assert speedups["snet_best_dynamic"][2] > 0

    def test_speedup_requires_baseline(self):
        with pytest.raises(ValueError):
            fig6_speedups({"snet_best_dynamic": {}})

    def test_scheduling_example_matches_paper(self):
        result = scheduling_example()
        assert result["batch_sizes"] == [93, 32]

    def test_overhead_scaling_setting(self):
        settings = ExperimentSettings()
        scaled = settings.with_overhead_scale(10.0)
        assert scaled.dsnet_config.record_overhead > settings.dsnet_config.record_overhead


class TestReporting:
    def test_fig5_table_contains_all_cells(self):
        cells = [Fig5Cell(8, 8, 100.0), Fig5Cell(16, 8, 90.0), Fig5Cell(16, 16, 80.0)]
        text = format_fig5_table(cells, "title")
        assert "title" in text
        assert "100.0" in text and "80.0" in text
        assert "-" in text  # missing (8, 16) combination

    def test_fig6_table_includes_paper_numbers(self):
        settings = ExperimentSettings()
        table = {"mpi": {1: run_mpi_variant(settings, 1, 1)}}
        text = format_fig6_table(table)
        assert "651.0" in text  # the paper's 1-node MPI runtime
        assert "MPI" in text

    def test_to_csv(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        text = to_csv(rows)
        assert text.splitlines() == ["a,b", "1,2", "3,4"]
        assert to_csv([]) == ""
