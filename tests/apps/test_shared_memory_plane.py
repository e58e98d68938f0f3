"""Conformance and lifecycle tests for the zero-copy shared-memory data plane.

The process backend's data plane (scene broadcast, shared frame buffer,
metadata-only chunk records, protocol-5 out-of-band batches) must be
observationally identical to the threaded record-passing oracle: same
pixels (atol 1e-9), same ray accounting, no leaked shared-memory segments.
"""

import numpy as np
import pytest

from repro.apps import run_raytracing_farm
from repro.apps.backends import (
    RealRenderBackend,
    SharedFrameRenderBackend,
    SharedFramePicture,
)
from repro.raytracer import Camera, random_scene, render
from repro.raytracer.image import FrameChunkRef, ImageChunk, SharedFrameBuffer
from repro.snet.runtime import ProcessRuntime


# every test must reap its workers and release the shared segments it
# creates: a leaked ``SharedMemory`` segment survives the process and
# silently eats ``/dev/shm`` until the host reboots
pytestmark = pytest.mark.usefixtures("no_process_leaks")


class TestSharedFrameBuffer:
    def test_write_rows_and_snapshot(self):
        frame = SharedFrameBuffer(8, 6)
        try:
            band = np.full((2, 8, 3), 0.5)
            ref = frame.write_rows(2, band)
            assert (ref.y_start, ref.rows, ref.width) == (2, 2, 8)
            assert ref.y_end == 4
            snap = frame.snapshot()
            assert snap[2:4].sum() == pytest.approx(2 * 8 * 3 * 0.5)
            assert snap[:2].sum() == 0.0
            # the snapshot is independent of the live frame
            frame.write_rows(0, np.ones((1, 8, 3)))
            assert snap[:1].sum() == 0.0
        finally:
            frame.release()

    def test_rejects_out_of_range_and_misshaped_writes(self):
        frame = SharedFrameBuffer(4, 4)
        try:
            with pytest.raises(ValueError):
                frame.write_rows(3, np.zeros((2, 4, 3)))
            with pytest.raises(ValueError):
                frame.write_rows(0, np.zeros((1, 5, 3)))
        finally:
            frame.release()

    def test_release_is_idempotent_and_invalidates(self):
        frame = SharedFrameBuffer(4, 4)
        frame.release()
        frame.release()
        with pytest.raises(ValueError, match="released"):
            frame.snapshot()
        with pytest.raises(ValueError, match="released"):
            frame.write_rows(0, np.zeros((1, 4, 3)))

    def test_release_survives_outstanding_views(self):
        frame = SharedFrameBuffer(4, 4)
        view = frame.array  # pins the underlying mmap export
        frame.release()  # must not raise; the segment is still unlinked
        assert view is not None

    def test_frame_chunk_ref_is_metadata_only(self):
        ref = FrameChunkRef(y_start=8, rows=4, width=256, section_id=2, rays_cast=99)
        assert ref.payload_size() < 100
        assert ref.y_end == 12


class TestSharedFrameBackend:
    def test_render_section_writes_frame_and_returns_ref(self):
        scene = random_scene(num_spheres=4, seed=5)
        backend = SharedFrameRenderBackend(scene, Camera(width=16, height=16))
        try:
            from repro.scheduling.base import Section

            ref = backend.render_section(Section(index=1, y_start=4, y_end=8))
            assert isinstance(ref, FrameChunkRef)
            assert ref.rays_cast > 0
            assert backend.frame.snapshot()[4:8].any()
        finally:
            backend.release()

    def test_merge_is_bookkeeping_and_guards_overflow(self):
        scene = random_scene(num_spheres=2, seed=5)
        backend = SharedFrameRenderBackend(scene, Camera(width=8, height=8))
        try:
            first = FrameChunkRef(y_start=0, rows=4, width=8, rays_cast=10)
            pic = backend.init_picture(first)
            assert isinstance(pic, SharedFramePicture)
            pic = backend.merge(pic, FrameChunkRef(y_start=4, rows=4, width=8, rays_cast=5))
            assert pic.merged_chunks == 2
            assert pic.covered_rows == 8
            assert backend.rays_cast == 15
            with pytest.raises(ValueError):
                backend.merge(pic, FrameChunkRef(y_start=0, rows=1, width=8))
        finally:
            backend.release()


class TestInPlaceMerge:
    """The threaded record plane merges O(chunk), not O(H*W) (satellite)."""

    def test_merging_n_chunks_allocates_no_copies(self):
        scene = random_scene(num_spheres=2, seed=5)
        backend = RealRenderBackend(scene, Camera(width=8, height=8))
        pic = backend.init_picture(ImageChunk(0, np.full((2, 8, 3), 0.1)))
        accumulator_id = id(pic)
        for i in range(1, 4):
            pic = backend.merge(pic, ImageChunk(2 * i, np.full((2, 8, 3), 0.1 * i)))
            # in-place: the very same ndarray object every merge
            assert id(pic) == accumulator_id
        np.testing.assert_allclose(pic[6:8], 0.3)


@pytest.mark.skipif(
    not ProcessRuntime.fork_available(), reason="needs fork start method"
)
class TestSharedPlaneFarmConformance:
    """Acceptance: shared-memory process output is pixel-identical to the
    threaded scalar oracle, for both farm variants and both render modes."""

    @pytest.mark.parametrize("variant", ["static", "dynamic"])
    @pytest.mark.parametrize("render_mode", ["scalar", "fused"])
    def test_pixel_identical_to_threaded_oracle(self, variant, render_mode):
        scene = random_scene(num_spheres=6, clustering=0.5, seed=3)
        oracle = run_raytracing_farm(
            variant,
            runtime="threaded",
            width=24,
            height=24,
            nodes=2,
            tasks=4,
            scene=scene,
            timeout=60.0,
            render_mode="scalar",
        )
        assert oracle.data_plane == "records"
        shared = run_raytracing_farm(
            variant,
            runtime="process",
            width=24,
            height=24,
            nodes=2,
            tasks=4,
            scene=scene,
            runtime_options={"workers": 2},
            timeout=60.0,
            render_mode=render_mode,
            data_plane="shared",
        )
        assert shared.data_plane == "shared"
        assert np.allclose(shared.image, oracle.image, atol=1e-9)
        if render_mode == "scalar":
            # identical FP operations -> exactly the same image
            assert float(np.abs(shared.image - oracle.image).max()) == 0.0
        # rays aggregate across the pool boundary via the metadata refs
        assert shared.rays_cast >= 24 * 24
        assert shared.rays_cast == oracle.rays_cast

    def test_shared_plane_pickles_far_fewer_bytes(self):
        scene = random_scene(num_spheres=6, clustering=0.5, seed=3)
        kwargs = dict(
            width=24,
            height=24,
            nodes=2,
            tasks=4,
            scene=scene,
            timeout=60.0,
        )
        records = run_raytracing_farm(
            "static",
            runtime="process",
            runtime_options={"workers": 2, "zero_copy": False},
            data_plane="records",
            **kwargs,
        )
        shared = run_raytracing_farm(
            "static",
            runtime="process",
            runtime_options={"workers": 2},
            data_plane="shared",
            **kwargs,
        )
        assert np.allclose(shared.image, records.image, atol=1e-9)
        assert records.bytes_pickled > 0
        assert shared.bytes_pickled > 0
        # even at 24x24 the metadata-only plane is an order of magnitude lighter
        assert records.bytes_pickled >= 10 * shared.bytes_pickled

    def test_genimg_snapshot_survives_release(self):
        run = run_raytracing_farm(
            "static",
            runtime="process",
            width=16,
            height=16,
            nodes=2,
            tasks=2,
            runtime_options={"workers": 2},
            timeout=60.0,
        )
        # the runner released the segment already; the saved image must live on
        assert isinstance(run.backend, SharedFrameRenderBackend)
        assert run.image.shape == (16, 16, 3)
        assert run.image.any()


class TestDataPlaneSelection:
    def test_auto_resolves_by_runtime(self):
        run = run_raytracing_farm(
            "static", runtime="threaded", width=8, height=8, nodes=1, tasks=2,
            timeout=60.0,
        )
        assert run.data_plane == "records"
        assert isinstance(run.backend, RealRenderBackend)
        assert not isinstance(run.backend, SharedFrameRenderBackend)

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValueError, match="data plane"):
            run_raytracing_farm("static", data_plane="quantum")

    def test_contradictory_backend_rejected(self):
        scene = random_scene(num_spheres=2, seed=5)
        backend = RealRenderBackend(scene, Camera(width=8, height=8))
        with pytest.raises(ValueError, match="SharedFrameRenderBackend"):
            run_raytracing_farm(
                "static", runtime="threaded", backend=backend, data_plane="shared"
            )

    def test_explicit_shared_backend_on_threaded_runtime(self):
        # the shared frame works (if pointlessly) in-process too
        scene = random_scene(num_spheres=4, clustering=0.5, seed=3)
        reference = render(scene, Camera(width=16, height=16))
        backend = SharedFrameRenderBackend(scene, Camera(width=16, height=16))
        try:
            run = run_raytracing_farm(
                "static",
                runtime="threaded",
                nodes=2,
                tasks=2,
                scene=scene,
                backend=backend,
                timeout=60.0,
            )
            assert run.data_plane == "shared"
            assert np.allclose(run.image, reference, atol=1e-9)
        finally:
            backend.release()
