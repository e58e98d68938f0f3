"""E10 — temporal tile cache: incremental re-rendering of an animation.

A 2000-sphere scene is animated by moving a 40-sphere cluster (2% of the
primitives) a few centimetres per frame.  Rendered through a warm
``RenderService`` slot, the temporal tile cache re-traces only the image
sections the edits can affect — the mover cluster's own row band plus any
tile whose shadows the moved boxes could touch — and re-emits cached pixels
for the rest.  The full-re-render arm runs the *same* warm service with
``incremental=False``, so the two arms differ only in the tile cache: same
farm shape, same warm slot, no setup cost in either measurement.

The scene is deliberately animation-shaped (and mostly matte: mirrors spawn
secondary rays, which dirty every tile they originate from): a dense static
cloud fills the upper image rows, the movers sit in a tight band near the
bottom, and the lights sit in the vertical gap between the two groups so
the conservative shadow-cone test can prove the cloud's tiles clean.

This benchmark is **1-CPU-safe** and noise-hardened: it measures work
*skipped* per frame, not parallel speedup; the two arms render each
animation frame back to back (so a slow container window hits both
equally).  Fused frames (~0.05 s incremental, ~0.3 s full on a 2-vCPU
host) vary by 10-20 % frame to frame there, with outliers, so the speedup
bar compares per-frame minima over ``FRAMES`` = 16 frames per arm, and the
tight all-dirty bar compares median frame times over ``PAN_FRAMES`` = 64
pan frames per arm, alternating which arm renders first: two identical
arms read within ~2-3 % that way, while their per-frame minima moved up
to 13 % and their means up to 7 % (one slow frame drags a mean).  Half
those frame counts sufficed while the BVH was slower; the top-down build
made full frames cheaper, so the fixed per-frame costs of the incremental
arm weigh more.  With three or four CPU-bound processes competing for
the two vCPUs, the 8-frame speedup read 3.6-5.1x and the 32-frame pan
ratio 0.94-1.04x (the insertion-built BVH: 3.8-5.0x and 0.99-1.07x).

Acceptance bars:

* every incremental frame is pixel-identical (``atol=1e-9``) to a cold
  from-scratch render of the same scene state (the oracle renders a pickled
  snapshot through a fresh one-shot farm);
* incremental frames are at least 3x faster than warm full re-renders
  (measured ~4.6-6x on a 2-vCPU container with the fused kernel; the
  reused tiles reach the merger as one chunk per row-adjacent run, since
  its per-chunk coordination would otherwise bound the frame);
* with an all-dirty edit stream (a camera pan) incremental mode degrades
  to at most 1.05x the incremental-off frame time — the price of touch
  capture plus a planner that immediately reports "everything dirty"
  (measured 1.01-1.04x);
* the counters stay honest: ``rays_cast`` counts only rays actually
  traced; skipped work is reported separately as ``tiles_reused`` /
  ``rays_saved``.

Results go to the ``bench_json`` CI artifact when ``BENCH_RESULTS_DIR`` is
set, *and* to ``BENCH_10.json`` at the repository root so the perf
trajectory is readable straight from the checkout.
"""

import json
import os
import pathlib
import pickle
import statistics
import time

import numpy as np

from repro.apps import RenderJob, RenderService, run_raytracing_farm
from repro.raytracer.camera import Camera
from repro.raytracer.geometry.primitives import Sphere
from repro.raytracer.materials import Material
from repro.raytracer.scene import Light, Scene
from repro.raytracer.vec import vec3

WIDTH = HEIGHT = 96
CLOUD_SPHERES = 1960
MOVERS = 40  # 2% of the 2000 primitives move per frame
NODES = 2
TASKS = 24
FRAMES = 16
PAN_FRAMES = 64
MIN_SPEEDUP = 3.0
MAX_ALL_DIRTY_OVERHEAD = 1.05

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def bench_scene(seed=5):
    """Static cloud up top, tight mover band at the bottom, lights between."""
    rng = np.random.RandomState(seed)
    objects = []
    for _ in range(CLOUD_SPHERES):
        pos = vec3(
            rng.uniform(-6.0, 6.0),
            rng.uniform(0.5, 4.5),
            rng.uniform(-14.0, -6.0),
        )
        r, g, b = rng.uniform(0.2, 0.9, size=3)
        objects.append(Sphere(pos, rng.uniform(0.12, 0.30), Material.matte(r, g, b)))
    for _ in range(MOVERS):
        pos = vec3(
            rng.uniform(-2.0, 2.0),
            rng.uniform(-4.3, -3.95),
            rng.uniform(-10.3, -9.7),
        )
        r, g, b = rng.uniform(0.3, 0.9, size=3)
        objects.append(Sphere(pos, rng.uniform(0.07, 0.12), Material.matte(r, g, b)))
    lights = [
        Light(vec3(-3.0, -1.5, -8.0), intensity=0.9),
        Light(vec3(3.0, -1.0, -12.0), intensity=0.6),
    ]
    return Scene(objects, lights, camera=Camera(width=WIDTH, height=HEIGHT))


def movers_of(scene):
    return [
        s
        for s in scene.bounded_objects
        if isinstance(s, Sphere) and s.center[1] < -3.0
    ]


def mover_deltas(frames, seed=17):
    rng = np.random.RandomState(seed)
    return [
        [rng.uniform(-0.04, 0.04, size=3) for _ in range(MOVERS)]
        for _ in range(frames)
    ]


def cold_oracle(scene):
    """From-scratch render of the scene's current state (fresh one-shot farm)."""
    snapshot = pickle.loads(pickle.dumps(scene))
    run = run_raytracing_farm(
        "static",
        width=WIDTH,
        height=HEIGHT,
        nodes=NODES,
        tasks=TASKS,
        scene=snapshot,
        render_mode="fused",
        incremental=False,
    )
    return run.image


class Arm:
    """One warm service + its own copy of the animated scene."""

    def __init__(self, incremental):
        self.scene = bench_scene()
        self.movers = movers_of(self.scene)
        assert len(self.movers) == MOVERS
        self.service = RenderService(
            width=WIDTH,
            height=HEIGHT,
            render_mode="fused",
            incremental=incremental,
        )
        self.seconds = []
        self.results = []

    def render(self, timed=True):
        start = time.perf_counter()
        result = self.service.render(
            RenderJob(self.scene, nodes=NODES, tasks=TASKS), timeout=300.0
        )
        if timed:
            self.seconds.append(time.perf_counter() - start)
            self.results.append(result)
        return result

    def close(self):
        self.service.close()


def run_animation(oracle_frames):
    """Both arms, same edit schedule, rendered back to back per frame."""
    arms = {True: Arm(True), False: Arm(False)}
    try:
        for arm in arms.values():
            # activation commit (identity update) + cold frame 0
            edit = arm.scene.begin_edit()
            for mover in arm.movers:
                edit.update(mover, center=mover.center)
            edit.commit()
            arm.render(timed=False)
        for frame_deltas in mover_deltas(FRAMES):
            for arm in arms.values():
                edit = arm.scene.begin_edit()
                for mover, delta in zip(arm.movers, frame_deltas):
                    edit.update(mover, center=mover.center + delta)
                edit.commit()
                arm.render()
            oracle_frames.append(cold_oracle(arms[True].scene))
        return arms[True], arms[False]
    finally:
        for arm in arms.values():
            arm.close()


def run_pan():
    """Both arms again, but every frame is an all-dirty camera edit."""
    arms = {True: Arm(True), False: Arm(False)}
    try:
        for arm in arms.values():
            edit = arm.scene.begin_edit()
            edit.set_camera(
                Camera(position=vec3(0.0, 1.0, 5.0), width=WIDTH, height=HEIGHT)
            )
            edit.commit()
            arm.render(timed=False)
        for frame in range(1, PAN_FRAMES + 1):
            # alternate which arm goes first, so neither always pays for
            # following the other
            order = (True, False) if frame % 2 else (False, True)
            for arm in (arms[key] for key in order):
                edit = arm.scene.begin_edit()
                edit.set_camera(
                    Camera(
                        position=vec3(0.02 * frame, 1.0, 5.0),
                        width=WIDTH,
                        height=HEIGHT,
                    )
                )
                edit.commit()
                arm.render()
        return arms[True], arms[False]
    finally:
        for arm in arms.values():
            arm.close()


def test_incremental_animation_speedup(bench_json):
    oracle_frames = []
    inc, full = run_animation(oracle_frames)

    # correctness first: every incremental frame matches its cold oracle
    for result, oracle in zip(inc.results, oracle_frames):
        np.testing.assert_allclose(result.image, oracle, atol=1e-9)

    # the cache actually engaged, and the counters are honest
    for result in inc.results:
        assert result.tiles_reused >= TASKS // 2
        assert result.rays_saved > 0
        assert 0 < result.rays_cast < WIDTH * HEIGHT
        assert result.rays_cast + result.rays_saved == WIDTH * HEIGHT
    for result in full.results:
        assert (result.tiles_reused, result.rays_saved) == (0, 0)
        assert result.rays_cast == WIDTH * HEIGHT

    # all-dirty degradation: a camera pan must cost ~nothing extra
    pan_inc, pan_full = run_pan()
    for result in pan_inc.results:
        assert (result.tiles_reused, result.rays_saved) == (0, 0)
        assert result.rays_cast == WIDTH * HEIGHT

    # speedup: per-frame minima, immune to one-off container stalls in
    # either arm; all-dirty overhead: medians (see the module docstring)
    inc_best = min(inc.seconds)
    full_best = min(full.seconds)
    speedup = full_best / inc_best
    pan_overhead = statistics.median(pan_inc.seconds) / statistics.median(pan_full.seconds)

    print()
    print(f"  full re-render : {full_best:6.3f} s/frame  {[f'{s:.3f}' for s in full.seconds]}")
    print(f"  incremental    : {inc_best:6.3f} s/frame  {[f'{s:.3f}' for s in inc.seconds]}")
    print(f"  speedup        : {speedup:6.2f} x")
    print(f"  tiles reused   : {inc.results[0].tiles_reused}/{TASKS} per frame")
    print(f"  all-dirty pan  : {pan_overhead:6.3f} x overhead")

    payload = {
        "benchmark": "incremental_animation",
        "width": WIDTH,
        "height": HEIGHT,
        "num_spheres": CLOUD_SPHERES + MOVERS,
        "movers_per_frame": MOVERS,
        "nodes": NODES,
        "tasks": TASKS,
        "frames": FRAMES,
        "render_mode": "fused",
        "full_seconds_best": full_best,
        "incremental_seconds_best": inc_best,
        "speedup": speedup,
        "tiles_reused_per_frame": int(inc.results[0].tiles_reused),
        "rays_saved_per_frame": int(inc.results[0].rays_saved),
        "all_dirty_overhead": pan_overhead,
        "cpu_count": os.cpu_count(),
    }
    bench_json("incremental_animation", payload)
    (REPO_ROOT / "BENCH_10.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"incremental speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    )
    assert pan_overhead <= MAX_ALL_DIRTY_OVERHEAD, (
        f"all-dirty overhead {pan_overhead:.3f}x > {MAX_ALL_DIRTY_OVERHEAD}x"
    )
