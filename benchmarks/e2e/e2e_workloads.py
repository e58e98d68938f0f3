"""The four workloads of the end-to-end benchmark, as data plus generators.

Every input the program under test sees is made here from ``--seed``: the
scene specs the gateway workloads send, and the animated scene and mover
jitter of ``animation_edit``.  Sizes are what fits the benchmark's time cap
on a 2-vCPU host (see README.md, "Sizing"); the *shape* of each workload —
which layer it loads — is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

#: frames per animation block: today's edit-shipping cycle,
#: ``RenderService.MAX_SHIPPED_EDITS + 1`` (hard-coded on purpose: the block
#: must stay one whole sawtooth even if a later change removes the rebuild)
ANIMATION_CYCLE = 65


@dataclass(frozen=True)
class Workload:
    """One named workload: front door, frame geometry, farm shape, sizes."""

    name: str  # why each exists: the ``workloads`` of BENCHMARK.json, and README.md
    mode: str  # "gateway" (GatewayClient -> RenderGateway) | "animation" (in-process service)
    width: int
    height: int
    variant: str
    nodes: int
    tasks: int
    num_spheres: int
    scenes: int  # distinct scenes per run; 0 = a never-repeated scene per request
    block: int  # requests per timed block (a multiple of ``scenes``: same mix in every block)
    blocks: int  # timed blocks per run at the benchmark's ``run_seconds``
    trace_rounds: int  # (untraced block, traced block) pairs of the traced pass
    smoke: Dict[str, int]  # the fields ``--smoke`` overrides
    movers: int = 0

    def tiny(self) -> "Workload":
        """The ``--smoke`` variant: same path through the program, toy sizes."""
        return Workload(**{**self.__dict__, **self.smoke, "blocks": 1, "trace_rounds": 1})


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="frame_heavy",
            mode="gateway", width=128, height=128, variant="static",
            nodes=2, tasks=8, num_spheres=1000, scenes=4, block=8, blocks=5, trace_rounds=2,
            smoke=dict(width=16, height=16, num_spheres=12, scenes=2, block=4),
        ),
        Workload(
            name="frame_light",
            mode="gateway", width=32, height=64, variant="dynamic",
            nodes=2, tasks=32, num_spheres=8, scenes=1, block=10, blocks=5, trace_rounds=2,
            smoke=dict(width=16, height=32, num_spheres=4, tasks=8, block=3),
        ),
        Workload(
            name="cold_scene",
            mode="gateway", width=64, height=64, variant="static",
            nodes=2, tasks=8, num_spheres=600, scenes=0, block=5, blocks=5, trace_rounds=2,
            smoke=dict(width=16, height=16, num_spheres=10, block=3),
        ),
        Workload(
            name="animation_edit",
            mode="animation", width=64, height=96, variant="static",
            nodes=2, tasks=24, num_spheres=600, scenes=1, block=ANIMATION_CYCLE, blocks=1,
            trace_rounds=1,
            smoke=dict(width=16, height=48, num_spheres=30, movers=4, block=6), movers=40,
        ),
    )
}


def scene_spec(workload: Workload, seed: int, request: int) -> Dict[str, Any]:
    """The wire scene spec of request number ``request`` (gateway workloads).

    Scene seeds of different ``--seed`` values never overlap: a repeated-scene
    workload rotates over ``scenes`` seeds of its own, ``cold_scene`` walks a
    private range of 10000 seeds.
    """
    if workload.scenes:
        scene_seed = seed * workload.scenes + request % workload.scenes
    else:
        scene_seed = seed * 10_000 + request
    return {"kind": "random", "num_spheres": workload.num_spheres, "seed": scene_seed}


def camera_of(workload: Workload, scene: Any) -> Any:
    """The camera the farm renders ``scene`` with at the workload's resolution."""
    from repro.raytracer.camera import Camera

    if scene.camera is not None:
        return scene.camera.with_resolution(workload.width, workload.height)
    return Camera(width=workload.width, height=workload.height)


# -- animation_edit ------------------------------------------------------------
#: the movers' image rows, as fractions of the image height: the middle of
#: tiles 19..21 of 24, far enough from tiles 18 and 22 that the planner's
#: conservative row margin never reaches them — every seed dirties exactly
#: the same three tiles
_MOVER_ROWS = (0.823, 0.885)
_MOVER_JITTER = 0.04


def animation_scene(workload: Workload, seed: int) -> Tuple[Any, List[Any], List[np.ndarray]]:
    """The animated scene: ``(scene, movers, home centres)``.

    The matte cloud + mover band of ``benchmarks/test_incremental_render.py``
    re-created from ``--seed``: a dense static cloud in the upper image rows,
    a tight band of small movers near the bottom (placed through the camera so
    the band covers the same image rows for every seed), the lights in the gap
    between so the planner's shadow-cone test proves the cloud's tiles clean.
    """
    from repro.raytracer.camera import Camera
    from repro.raytracer.geometry.primitives import Sphere
    from repro.raytracer.materials import Material
    from repro.raytracer.scene import Light, Scene
    from repro.raytracer.vec import vec3

    rng = np.random.RandomState(seed)
    camera = Camera(width=workload.width, height=workload.height)
    objects: List[Any] = []
    for _ in range(workload.num_spheres - workload.movers):
        pos = vec3(rng.uniform(-6.0, 6.0), rng.uniform(0.5, 4.5), rng.uniform(-14.0, -6.0))
        r, g, b = rng.uniform(0.2, 0.9, size=3)
        objects.append(Sphere(pos, rng.uniform(0.12, 0.30), Material.matte(r, g, b)))
    movers: List[Any] = []
    low, high = _MOVER_ROWS
    for i in range(workload.movers):
        px = rng.uniform(0.3, 0.7) * workload.width
        # stratified over the band, so a handful of movers always spans it
        py = (low + (i + rng.uniform()) / workload.movers * (high - low)) * workload.height
        pos = camera.primary_ray(px, py).at(rng.uniform(14.5, 15.5))
        r, g, b = rng.uniform(0.3, 0.9, size=3)
        movers.append(Sphere(pos, rng.uniform(0.07, 0.12), Material.matte(r, g, b)))
    lights = [
        Light(vec3(-3.0, 9.0, -6.0), intensity=0.9),
        Light(vec3(3.0, 8.0, -12.0), intensity=0.6),
    ]
    scene = Scene(objects + movers, lights, camera=camera)
    return scene, movers, [m.center.copy() for m in movers]


def mover_rng(seed: int) -> np.random.RandomState:
    """The jitter stream of one run (distinct from the scene's stream)."""
    return np.random.RandomState(seed + 7919)


def commit_mover_edit(scene: Any, movers: List[Any], homes: List[np.ndarray],
                      rng: np.random.RandomState) -> None:
    """One frame's edit: every mover jumps to its home plus seeded jitter.

    Jitter around a fixed home (not a random walk) keeps the band inside its
    three tiles however long the run is.
    """
    edit = scene.begin_edit()
    for mover, home in zip(movers, homes):
        edit.update(mover, center=home + rng.uniform(-_MOVER_JITTER, _MOVER_JITTER, size=3))
    edit.commit()
