"""Incremental re-rendering is pixel-identical to cold full renders.

The temporal tile cache's one non-negotiable: for *any* sequence of scene
edits, rendering incrementally through a warm slot produces exactly the
image a from-scratch render of the current scene state produces (atol
1e-9).  The dirty-tile planner is conservative — camera/light/structural
edits dirty everything — so reuse can only skip tiles provably untouched.

Pinned here:

* a hypothesis property suite: random mutation sequences (move/recolor/
  add/remove spheres, light jiggles) rendered frame by frame through a warm
  threaded service, each frame compared against a cold oracle;
* the same invariant on the **process** backend, where fork workers hold
  stale scene copies and catch up by replaying shipped journal entries;
* the "everything dirty" fallback: a camera edit reuses zero tiles and
  still renders correctly;
* honest accounting: ``rays_cast`` counts only rays actually traced;
  avoided work is reported separately as ``tiles_reused``/``rays_saved``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.backends import RealRenderBackend, SharedFrameRenderBackend
from repro.apps.boxes import RayTracingBoxes
from repro.apps.runner import run_raytracing_farm
from repro.apps.service import RenderJob, RenderService
from repro.raytracer.camera import Camera
from repro.raytracer.geometry.primitives import Sphere
from repro.raytracer.materials import Material
from repro.raytracer.scene import random_scene
from repro.raytracer.vec import vec3
from repro.snet.runtime.process_engine import ProcessRuntime

SIZE = 32
TASKS = 4


def journaled_scene(num_spheres=6, seed=13):
    """A scene whose first edit activates the incremental machinery."""
    scene = random_scene(num_spheres=num_spheres, clustering=0.4, seed=seed)
    edit = scene.begin_edit()
    edit.add(Sphere(vec3(0.0, 0.2, -4.0), 0.4, Material.matte(0.8, 0.4, 0.3)))
    edit.commit()
    return scene


def cold_oracle(scene):
    """Full re-render of the scene's *current* state, incremental off.

    Pickling snapshots the state so the oracle cannot share cached tiles
    (or future edits) with the warm service under test.
    """
    snapshot = pickle.loads(pickle.dumps(scene))
    run = run_raytracing_farm(
        "static", width=SIZE, height=SIZE, nodes=2, tasks=TASKS,
        scene=snapshot, render_mode="fused", incremental=False,
    )
    return run.image


def random_edit(data, scene):
    """Commit one hypothesis-drawn edit; returns its kind."""
    spheres = [o for o in scene.bounded_objects if isinstance(o, Sphere)]
    kind = data.draw(
        st.sampled_from(["move", "recolor", "add", "remove", "light"])
    )
    edit = scene.begin_edit()
    if kind == "move" and spheres:
        target = data.draw(st.sampled_from(spheres))
        delta = data.draw(st.tuples(*[st.floats(-0.8, 0.8) for _ in range(3)]))
        edit.update(target, center=target.center + np.asarray(delta))
    elif kind == "recolor" and spheres:
        target = data.draw(st.sampled_from(spheres))
        rgb = data.draw(st.tuples(*[st.floats(0.1, 1.0) for _ in range(3)]))
        edit.update(target, material=Material.matte(*rgb))
    elif kind == "add":
        x, y = data.draw(st.tuples(st.floats(-2.5, 2.5), st.floats(-1.5, 1.5)))
        edit.add(Sphere(vec3(x, y, -5.0), 0.35, Material.matte(0.6, 0.6, 0.4)))
    elif kind == "remove" and len(spheres) > 1:
        edit.remove(data.draw(st.sampled_from(spheres)))
    else:
        kind = "light"
        edit.set_light(0, intensity=data.draw(st.floats(0.2, 1.8)))
    edit.commit()
    return kind


# -- the property: pixel identity under random mutation -----------------------
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_random_mutations_render_pixel_identical_threaded(data):
    scene = journaled_scene(seed=data.draw(st.integers(0, 5)))
    with RenderService(
        width=SIZE, height=SIZE, render_mode="fused"
    ) as service:
        for _ in range(3):
            random_edit(data, scene)
            result = service.render(
                RenderJob(scene, nodes=2, tasks=TASKS), timeout=60.0
            )
            np.testing.assert_allclose(result.image, cold_oracle(scene), atol=1e-9)


@pytest.mark.skipif(
    not ProcessRuntime.fork_available(), reason="fork start method unavailable"
)
def test_mutations_render_pixel_identical_process_backend():
    # fork workers hold fork-time scene copies; shipped journal entries must
    # land them on byte-identical state (same ray counts, same pixels)
    scene = journaled_scene(num_spheres=8, seed=2)
    moved = [o for o in scene.bounded_objects if isinstance(o, Sphere)][0]
    with RenderService(
        "process", width=SIZE, height=SIZE, render_mode="fused",
        runtime_options={"workers": 2},
    ) as service:
        for step in range(4):
            if step:
                edit = scene.begin_edit()
                edit.update(moved, center=moved.center + np.asarray([0.3, 0.0, 0.1]))
                if step == 2:  # mix in a material edit
                    edit.update(
                        scene.bounded_objects[1], material=Material.matte(0.2, 0.7, 0.4)
                    )
                edit.commit()
            result = service.render(
                RenderJob(scene, nodes=2, tasks=TASKS), timeout=120.0
            )
            np.testing.assert_allclose(result.image, cold_oracle(scene), atol=1e-9)
            assert step == 0 or result.warm  # the slot followed the edits


# -- the all-dirty fallback ---------------------------------------------------
def test_camera_edit_dirties_everything():
    scene = journaled_scene()
    scene.camera = Camera(width=SIZE, height=SIZE)
    with RenderService(width=SIZE, height=SIZE, render_mode="fused") as service:
        first = service.render(RenderJob(scene, nodes=2, tasks=TASKS), timeout=60.0)
        edit = scene.begin_edit()
        edit.set_camera(
            Camera(position=vec3(0.05, 0.02, 0.0), width=SIZE, height=SIZE)
        )
        edit.commit()
        second = service.render(RenderJob(scene, nodes=2, tasks=TASKS), timeout=60.0)
        # conservative planner: a camera edit reuses nothing...
        assert second.tiles_reused == 0 and second.rays_saved == 0
        assert second.rays_cast > 0
        # ...and the moved viewpoint still renders exactly
        np.testing.assert_allclose(second.image, cold_oracle(scene), atol=1e-9)
        assert not np.allclose(first.image, second.image, atol=1e-9)


# -- honest accounting --------------------------------------------------------
def test_counters_report_saved_work_separately():
    scene = journaled_scene()
    with RenderService(width=SIZE, height=SIZE, render_mode="fused") as service:
        first = service.render(RenderJob(scene, nodes=2, tasks=TASKS), timeout=60.0)
        assert first.rays_cast > 0
        assert (first.tiles_reused, first.rays_saved) == (0, 0)
        # no edits between jobs: every tile is provably clean
        second = service.render(RenderJob(scene, nodes=2, tasks=TASKS), timeout=60.0)
        assert second.rays_cast == 0  # honest: nothing was traced...
        assert second.tiles_reused == TASKS
        assert second.rays_saved == first.rays_cast  # ...and the savings say why
        np.testing.assert_allclose(second.image, first.image, atol=0.0)
        metrics = service.metrics()
        assert metrics.tiles_reused == TASKS
        assert metrics.rays_saved == first.rays_cast
        obs = service.observability()
        assert obs["incremental"] == {
            "enabled": True,
            "tiles_reused": TASKS,
            "rays_saved": first.rays_cast,
        }


@pytest.mark.parametrize("backend_cls", [RealRenderBackend, SharedFrameRenderBackend])
def test_reused_tiles_reach_the_merger_as_one_chunk(backend_cls):
    # the merger unrolls one star level per chunk: a run of adjacent reused
    # tiles travels as one chunk, and the tiles stay cached for the next job
    scene = journaled_scene()
    backend = backend_cls(scene, Camera(width=SIZE, height=SIZE), render_mode="fused")
    boxes = RayTracingBoxes(backend)
    sections = boxes._sections(TASKS)
    try:
        images = []
        for job in range(3):
            backend.begin_job()
            records = boxes._split_records(scene, sections)
            chunks = [
                rec["chunk"] if "chunk" in rec else backend.render_section(rec["sect"])
                for rec in records
            ]
            assert [rec["<tasks>"] for rec in records] == [len(records)] * len(records)
            assert [rec.get("<fst>") for rec in records] == [1] + [None] * (len(records) - 1)
            picture = backend.init_picture(chunks[0])
            for chunk in chunks[1:]:
                picture = backend.merge(picture, chunk)
            backend.write_image(picture)
            backend.finish_job()
            images.append(backend.saved_images[-1])
            if job == 0:
                assert len(records) == TASKS and backend.tiles_reused == 0
            else:
                (chunk,) = chunks
                assert (chunk.y_start, chunk.rows, chunk.rays_cast) == (0, SIZE, 0)
                assert backend.tiles_reused == job * TASKS
        np.testing.assert_array_equal(images[1], images[0])
        np.testing.assert_array_equal(images[2], images[0])
    finally:
        getattr(backend, "release", lambda: None)()


def test_incremental_off_renders_everything():
    scene = journaled_scene()
    with RenderService(
        width=SIZE, height=SIZE, render_mode="fused", incremental=False
    ) as service:
        first = service.render(RenderJob(scene, nodes=2, tasks=TASKS), timeout=60.0)
        second = service.render(RenderJob(scene, nodes=2, tasks=TASKS), timeout=60.0)
        assert second.rays_cast == first.rays_cast > 0
        assert (second.tiles_reused, second.rays_saved) == (0, 0)
        assert service.observability()["incremental"]["enabled"] is False
