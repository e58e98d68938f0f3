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
  stale scene copies and catch up by replaying shipped journal entries —
  along a 100-edit chain on one warm slot, across a worker killed between
  commits, and across a journal trimmed past the slowest worker (the one
  case that rebuilds the slot);
* edit shipping: each dirty section carries only the entries the slowest
  live worker has not replayed, in wire form (no planner boxes);
* the "everything dirty" fallback: a camera edit reuses zero tiles and
  still renders correctly;
* honest accounting: ``rays_cast`` counts only rays actually traced;
  avoided work is reported separately as ``tiles_reused``/``rays_saved``,
  and after an edit local to a few sections the two add up to the frame.
"""

import os
import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.backends import RealRenderBackend, SharedFrameRenderBackend
from repro.apps.boxes import RayTracingBoxes
from repro.apps.runner import run_raytracing_farm
from repro.apps.service import RenderJob, RenderService
from repro.raytracer.camera import Camera
from repro.raytracer.geometry.primitives import Sphere
from repro.raytracer.image import ImageChunk
from repro.raytracer.materials import Material
from repro.raytracer.scene import Light, Scene, random_scene
from repro.raytracer.vec import vec3
from repro.snet.runtime.process_engine import ProcessRuntime

pytestmark = pytest.mark.usefixtures("no_process_leaks")

SIZE = 32
TASKS = 4

fork_only = pytest.mark.skipif(
    not ProcessRuntime.fork_available(), reason="fork start method unavailable"
)


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


@fork_only
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


# -- edit shipping on the process backend -------------------------------------
def mover_chain():
    """A journaled scene plus a commit function moving one sphere per call."""
    scene = journaled_scene(num_spheres=8, seed=2)
    mover = [o for o in scene.bounded_objects if isinstance(o, Sphere)][0]
    home = mover.center.copy()

    def commit_move(step):
        edit = scene.begin_edit()
        edit.update(
            mover, center=home + np.asarray([0.3 * np.sin(step), 0.1 * np.cos(step), 0.0])
        )
        edit.commit()

    return scene, commit_move


def process_service(workers):
    return RenderService(
        "process", width=SIZE, height=SIZE, render_mode="fused",
        runtime_options={"workers": workers},
    )


def render_job(service, scene):
    return service.render(RenderJob(scene, nodes=2, tasks=TASKS), timeout=60.0)


def the_slot(service):
    (slot,) = service._slots.values()
    return slot


def test_edits_to_ship_follow_the_slowest_live_worker():
    scene, commit_move = mover_chain()
    backend = RealRenderBackend(scene, Camera(width=SIZE, height=SIZE))
    live = [11, 22]
    backend.fork_workers = lambda: live
    backend.broadcast_epoch = scene.edit_epoch
    for step in range(3):
        commit_move(step)
    fork = backend.broadcast_epoch

    def shipped():
        return [entry.epoch for entry in backend.edits_to_ship(scene)]

    def ack(worker, epoch):
        backend.absorb_chunk_stats(
            ImageChunk(0, np.zeros((1, SIZE, 3)), worker=worker, epoch=epoch)
        )

    # nobody has acknowledged a chunk yet: both count at the fork epoch
    assert shipped() == [fork + 1, fork + 2, fork + 3]
    ack(11, fork + 3)
    ack(22, fork + 2)
    assert shipped() == [fork + 3]  # the slower worker sets the floor
    # wire form: the planner's boxes stay home, the journal keeps them
    (entry,) = backend.edits_to_ship(scene)
    assert all(op.old_box is None and op.new_box is None for op in entry.ops)
    (op,) = scene.journal.entries_since(fork + 2)[0].ops
    assert all(type(x) is float for corner in op.old_box + op.new_box for x in corner)
    # a dead worker cannot pin the floor; a new (respawned) one counts at
    # the fork epoch until it acknowledges
    live[:] = [11]
    assert shipped() == [] and 22 not in backend.watermarks
    live[:] = [11, 33]
    assert shipped() == [fork + 1, fork + 2, fork + 3]
    # trimmed past the floor: the worker cannot be caught up
    for step in range(scene.journal.capacity):
        commit_move(step)
    assert backend.pending_edits(scene) is None
    with pytest.raises(RuntimeError):
        backend.edits_to_ship(scene)


@fork_only
def test_long_edit_chain_stays_on_one_warm_slot():
    # 100 in-place edits, one warm slot: no backlog rule rebuilds it, and
    # the workers stay caught up (pixels match the cold oracle)
    scene, commit_move = mover_chain()
    with process_service(workers=2) as service:
        for step in range(1, 101):
            commit_move(step)
            result = render_job(service, scene)
            assert service.observability()["warm_pool"]["cold_builds"] == 1
            if step in (1, 2, 33, 64, 65, 66, 100):
                np.testing.assert_allclose(result.image, cold_oracle(scene), atol=1e-9)


@fork_only
@pytest.mark.parametrize("victim", [0, 1])
def test_worker_killed_between_commits(victim):
    # the killed worker's replacement has acknowledged nothing, so it is
    # shipped everything since the fork; a worker killed while idle may
    # also take the pool's task-queue lock with it, which must not hang
    scene, commit_move = mover_chain()
    with process_service(workers=2) as service:
        for step in range(1, 6):
            commit_move(step)
            render_job(service, scene)
        slot = the_slot(service)
        pid = slot.runtime.worker_pids[victim]
        commit_move(6)
        os.kill(pid, signal.SIGKILL)
        # the death lands a few ms after the signal: wait for it, so the
        # kill falls between the commits and not into the next frame
        deadline = time.monotonic() + 10.0
        while pid in slot.runtime.worker_pids and time.monotonic() < deadline:
            time.sleep(0.005)
        commit_move(7)
        for step in range(8, 11):
            result = render_job(service, scene)
            assert result.warm
            np.testing.assert_allclose(result.image, cold_oracle(scene), atol=1e-9)
            commit_move(step)
        assert pid not in slot.runtime.worker_pids
        assert service.observability()["warm_pool"]["cold_builds"] == 1


@fork_only
def test_each_frame_ships_one_entry_per_dirty_section():
    scene, commit_move = mover_chain()
    with process_service(workers=1) as service:
        render_job(service, scene)
        backend = the_slot(service).backend
        for step in range(1, 11):
            commit_move(step)
            before = backend.edits_shipped
            result = render_job(service, scene)
            dirty = TASKS - result.tiles_reused
            assert dirty > 0
            assert backend.edits_shipped - before == dirty
            # the one worker acknowledged the frame's epoch
            assert list(backend.watermarks.values()) == [scene.edit_epoch]


@fork_only
def test_journal_trimmed_past_the_floor_rebuilds_once():
    scene, commit_move = mover_chain()
    with process_service(workers=2) as service:
        render_job(service, scene)
        for step in range(300):
            commit_move(step)
        assert len(scene.journal) == scene.journal.capacity < 300
        for step in range(2):
            result = render_job(service, scene)
            pool = service.observability()["warm_pool"]
            assert (pool["cold_builds"], pool["discards_stale"]) == (2, 1)
            assert result.warm == (step > 0)
            np.testing.assert_allclose(result.image, cold_oracle(scene), atol=1e-9)
            commit_move(step)


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


def cloud_and_movers(cloud=200, movers=8, seed=5):
    """A matte cloud up top, a mover band at the bottom, the lights between.

    Lights sit in the vertical gap, so the shadow-cone test can prove the
    cloud's tiles clean when only the movers move (all matte: a mirror
    would spawn secondary rays that dirty every tile they leave).
    """
    rng = np.random.RandomState(seed)
    objects = []
    for count, x, y, z, radius in (
        (cloud, (-6.0, 6.0), (0.5, 4.5), (-14.0, -6.0), (0.12, 0.30)),
        (movers, (-2.0, 2.0), (-4.3, -3.95), (-10.3, -9.7), (0.07, 0.12)),
    ):
        for _ in range(count):
            centre = vec3(rng.uniform(*x), rng.uniform(*y), rng.uniform(*z))
            r, g, b = rng.uniform(0.2, 0.9, size=3)
            objects.append(Sphere(centre, rng.uniform(*radius), Material.matte(r, g, b)))
    lights = [Light(vec3(-3.0, -1.5, -8.0), intensity=0.9),
              Light(vec3(3.0, -1.0, -12.0), intensity=0.6)]
    scene = Scene(objects, lights, camera=Camera(width=SIZE, height=SIZE))
    return scene, objects[cloud:]


def test_local_edit_reuses_most_tiles_and_conserves_rays():
    # moving the bottom band re-traces only its own sections: every pixel
    # is either traced or reused, and the image is the cold oracle's
    scene, movers = cloud_and_movers()
    rng = np.random.RandomState(17)
    tasks = 8
    with RenderService(width=SIZE, height=SIZE, render_mode="fused") as service:
        for frame in range(3):
            edit = scene.begin_edit()
            for mover in movers:
                step = rng.uniform(-0.04, 0.04, size=3) if frame else 0.0
                edit.update(mover, center=mover.center + step)
            edit.commit()
            result = service.render(RenderJob(scene, nodes=2, tasks=tasks), timeout=60.0)
            np.testing.assert_allclose(result.image, cold_oracle(scene), atol=1e-9)
            if frame:
                assert result.tiles_reused >= tasks // 2
                assert 0 < result.rays_cast < SIZE * SIZE
                assert result.rays_cast + result.rays_saved == SIZE * SIZE


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
