"""The ray-tracing core: Cast, Trace and whole-image/section rendering.

This module mirrors Algorithms 1 and 2 of the paper:

* :meth:`RayTracer.cast` — find the closest intersection of a ray with the
  scene (traversing the BVH plus the unbounded primitives);
* :meth:`RayTracer.trace` — follow a ray: below the maximum depth, cast it
  and shade the closest hit, otherwise return the background colour;
* :func:`render` / :func:`render_section` — loop over (a horizontal band of)
  the image plane casting one primary ray per pixel (Algorithm 1).  Sections
  are horizontal bands because that is how the paper's splitter divides the
  3000x3000 scene along the y axis.

These per-ray methods are the ``scalar`` render mode, kept as the oracle
for tests.  The default ``fused`` mode (:meth:`RayTracer.render_rows_fused`)
renders the same pixels with whole ray packets.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.raytracer.camera import Camera
from repro.raytracer.flatbvh import scene_flat_index
from repro.raytracer.geometry.primitives import Primitive
from repro.raytracer.image import ImageChunk
from repro.raytracer.packet import trace_packet
from repro.raytracer.ray import Ray
from repro.raytracer.scene import Scene
from repro.raytracer.shading import shade
from repro.raytracer.vec import Vector

__all__ = [
    "Hit",
    "RayTracer",
    "RENDER_MODES",
    "DEFAULT_RENDER_MODE",
    "check_render_mode",
    "render",
    "render_section",
    "scratch_stats",
    "reset_scratch_stats",
]

#: the two rendering strategies: ``fused`` is the production path (flat-BVH
#: packet traversal over reusable per-tile scratch buffers), ``scalar`` the
#: per-pixel correctness oracle (Algorithms 1/2 verbatim, kept for tests);
#: both produce the same pixels to ``atol=1e-9``
RENDER_MODES = ("fused", "scalar")

#: the render mode every layer uses when none is named
DEFAULT_RENDER_MODE = "fused"


def check_render_mode(mode: Optional[str] = None) -> str:
    """Validate a render-mode name (``None`` = the default); the single gate.

    Every layer that takes a ``render_mode`` resolves it here, so the
    default is decided in exactly one place.
    """
    if mode is None:
        return DEFAULT_RENDER_MODE
    if mode not in RENDER_MODES:
        raise ValueError(
            f"unknown render mode {mode!r}; available: " + ", ".join(RENDER_MODES)
        )
    return mode


#: scratch buffers are thread-local (concurrent solver threads must not
#: share arrays) and keyed by tile size, so warm service jobs rendering the
#: same section geometry reuse them frame after frame
_scratch_pool = threading.local()

#: process-wide scratch telemetry: how many tile renders allocated fresh
#: buffers vs. reused warm ones
_scratch_counters = {"allocations": 0, "reuses": 0}


def _tile_scratch(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """This thread's ``(directions, norms)`` buffers for an ``n``-ray tile."""
    pool: Dict[int, Tuple[np.ndarray, np.ndarray]] = getattr(
        _scratch_pool, "buffers", None
    )
    if pool is None:
        pool = _scratch_pool.buffers = {}
    scratch = pool.get(n)
    if scratch is None:
        scratch = pool[n] = (np.empty((n, 3)), np.empty(n))
        _scratch_counters["allocations"] += 1
    else:
        _scratch_counters["reuses"] += 1
    return scratch


def scratch_stats() -> Dict[str, int]:
    """Snapshot of the fused-path scratch counters (benchmark telemetry)."""
    return dict(_scratch_counters)


def reset_scratch_stats() -> None:
    _scratch_counters["allocations"] = 0
    _scratch_counters["reuses"] = 0


@dataclass
class Hit:
    """The closest intersection found by :meth:`RayTracer.cast`."""

    primitive: Primitive
    t: float
    point: Vector
    normal: Vector


class RayTracer:
    """Stateless renderer for one scene/camera pair.

    "Stateless" in the S-Net sense: tracing a ray depends only on the scene
    and the ray, never on previous invocations, which is what allows the
    solver box to be replicated and relocated freely.
    """

    def __init__(self, scene: Scene, camera: Camera):
        self.scene = scene
        self.camera = camera
        self.rays_cast = 0
        #: optional :class:`~repro.raytracer.coherence.TileTouch` capture
        #: sink; when set, every tracing path records the primitive ids it
        #: hits (plus primary hit regions and a spawned-secondary-rays flag)
        #: for the incremental renderer's dirty-tile planner
        self.touch = None

    # -- Algorithm 2, step "Cast" -------------------------------------------
    def cast(self, ray: Ray) -> Optional[Hit]:
        """Find the closest intersection of ``ray`` with the scene."""
        self.rays_cast += 1
        primitive, t = self.scene.index.intersect(ray)
        # unbounded primitives (ground plane) are tested separately
        for obj in self.scene.unbounded_objects:
            t_obj = obj.intersect(ray, 1e-6, t if t is not None else np.inf)
            if t_obj is not None and (t is None or t_obj < t):
                primitive, t = obj, t_obj
        if primitive is None or t is None:
            return None
        point = ray.at(t)
        return Hit(primitive, t, point, primitive.normal_at(point))

    def occluded(self, shadow_ray: Ray, max_distance: float) -> bool:
        """Is anything between the shadow ray origin and the light?"""
        if self.scene.index.any_hit(shadow_ray, 1e-6, max_distance):
            return True
        for obj in self.scene.unbounded_objects:
            if obj.intersect(shadow_ray, 1e-6, max_distance) is not None:
                return True
        return False

    # -- Algorithm 2 ------------------------------------------------------------
    def trace(self, ray: Ray) -> Vector:
        """Follow ``ray`` and return its colour contribution."""
        if ray.depth >= self.scene.max_ray_depth:
            return self.scene.background
        if self.touch is not None and ray.depth > 0:
            self.touch.secondary = True
        hit = self.cast(ray)
        if hit is None:
            return self.scene.background
        if self.touch is not None:
            self.touch.note_scalar(hit.primitive, hit.point, ray.depth)
        return shade(self, hit, ray)

    # -- Algorithm 1 ------------------------------------------------------------
    def _check_rows(self, y_start: int, y_end: int) -> None:
        if not 0 <= y_start <= y_end <= self.camera.height:
            raise ValueError(
                f"row range [{y_start}, {y_end}) outside image of height "
                f"{self.camera.height}"
            )

    def render_rows(self, y_start: int, y_end: int) -> np.ndarray:
        """Render image rows ``[y_start, y_end)``; returns (rows, width, 3)."""
        self._check_rows(y_start, y_end)
        rows = y_end - y_start
        pixels = np.zeros((rows, self.camera.width, 3), dtype=np.float64)
        touch = self.touch
        for local_y, py in enumerate(range(y_start, y_end)):
            for px in range(self.camera.width):
                if touch is not None:
                    touch.current_px = px
                ray = self.camera.primary_ray(px, py)
                pixels[local_y, px] = self.trace(ray)
        return pixels

    #: upper bound on rays per packet (~1.5 MB per (n, 3) float64 array);
    #: keeps peak memory flat for huge sections — the paper's 3000x3000
    #: image would otherwise make a single 9M-ray packet whose traversal
    #: scratch arrays reach gigabytes
    MAX_PACKET_RAYS = 65536

    # -- Algorithm 1, vectorized (the fused fast path) -----------------------
    def render_rows_fused(self, y_start: int, y_end: int) -> np.ndarray:
        """Vectorized :meth:`render_rows`: the production render path.

        The section is rendered in row tiles of at most
        :attr:`MAX_PACKET_RAYS` rays.  Per tile, three stages run
        back-to-back: primary-ray generation into preallocated scratch
        buffers (a thread-local pool keyed by tile size, so warm
        :class:`~repro.apps.service.RenderService` jobs reuse them across
        frames), packet traversal of the scene's flat BVH
        (:func:`~repro.raytracer.flatbvh.scene_flat_index`, looked up once
        per section) and vectorized shading (see
        :mod:`repro.raytracer.packet`).  Rays are independent, so tiling
        does not change any pixel: the result matches :meth:`render_rows`
        to within ``atol=1e-9``.
        """
        self._check_rows(y_start, y_end)
        width = self.camera.width
        index = scene_flat_index(self.scene)
        tile_rows = max(1, self.MAX_PACKET_RAYS // max(1, width))
        tiles = [np.empty((0, width, 3))]
        for start in range(y_start, y_end, tile_rows):
            end = min(y_end, start + tile_rows)
            scratch = _tile_scratch((end - start) * width)
            rays = self.camera.primary_ray_block_into(start, end, *scratch)
            tiles.append(trace_packet(self, index, *rays).reshape(-1, width, 3))
        return tiles[1] if len(tiles) == 2 else np.concatenate(tiles)

    def render_pixel(self, px: int, py: int) -> Vector:
        """Render a single pixel (used by tests and the cost calibrator)."""
        return self.trace(self.camera.primary_ray(px, py))


def render(scene: Scene, camera: Camera, mode: Optional[str] = None) -> np.ndarray:
    """Render the whole image sequentially in one process."""
    return render_section(scene, camera, 0, camera.height, mode=mode).pixels


def render_section(
    scene: Scene,
    camera: Camera,
    y_start: int,
    y_end: int,
    section_id: int = 0,
    mode: Optional[str] = None,
    touch: bool = False,
) -> ImageChunk:
    """Render one horizontal section and wrap it as an :class:`ImageChunk`.

    This is exactly the work done by the paper's ``solver`` box for one
    section record.  The returned chunk carries the number of rays the
    section cost, so the merger side can account rays even when the solver
    ran in another process.

    With ``touch=True`` the tracer records which primitives the section's
    rays touched (see :class:`~repro.raytracer.coherence.TileTouch`) and the
    chunk carries the frozen
    :class:`~repro.raytracer.coherence.TileSummary` on ``chunk.summary`` —
    the input of the next frame's dirty-tile planner.
    """
    mode = check_render_mode(mode)
    tracer = RayTracer(scene, camera)
    if touch:
        from repro.raytracer.coherence import TileTouch

        tracer.touch = TileTouch(camera.width)
    if mode == "scalar":
        pixels = tracer.render_rows(y_start, y_end)
    else:
        pixels = tracer.render_rows_fused(y_start, y_end)
    return ImageChunk(
        y_start=y_start,
        pixels=pixels,
        section_id=section_id,
        rays_cast=int(tracer.rays_cast),
        summary=tracer.touch.summary(tracer.rays_cast) if touch else None,
    )
