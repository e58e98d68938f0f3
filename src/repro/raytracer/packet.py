"""NumPy ray-packet tracing: the vectorized inner loop of the solver box.

The scalar path of :mod:`repro.raytracer.tracer` follows Algorithms 1 and 2
of the paper one ray at a time, which makes every backend — threaded,
process, simulated — interpreter-bound rather than coordination-bound.  This
module renders whole image sections as *packets*:

* the camera emits all primary rays of a section as ``(n, 3)`` arrays
  (:meth:`~repro.raytracer.camera.Camera.primary_ray_block_into`);
* the scene's flat BVH is traversed once per packet by a wavefront of
  ``(ray, node)`` pairs, two tree levels per NumPy step
  (:meth:`~repro.raytracer.flatbvh.FlatBVH.intersect_packet`), testing
  every pair's node box at once and the leaf pairs with pair-list NumPy
  kernels (scalar fallback for primitives without a vectorized kernel);
* direct lighting is shaded for the whole packet at once
  (:func:`repro.raytracer.shading.shade_block`), one shadow packet for all
  lights;
* the secondary rays (reflection, refraction) are gathered into one smaller
  packet and traced recursively, so the whole image is rendered without a
  single per-pixel Python loop.

The traversal ``index`` is always
:func:`~repro.raytracer.flatbvh.scene_flat_index` of the scene (a
brute-force-indexed scene's index is already array-batched and stands in
unchanged); the renderer looks it up once per section and passes it down.
Every kernel reproduces the scalar arithmetic operation-for-operation, so
the packet image matches the scalar image to ``atol=1e-9`` (the conformance
tests pin this); the scalar path remains the correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

import numpy as np

from repro.raytracer.flatbvh import FlatBVH
from repro.raytracer.geometry.primitives import Primitive
from repro.raytracer.materials import material_table
from repro.raytracer.vec import broadcast_tmax

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.raytracer.scene import Scene
    from repro.raytracer.tracer import RayTracer

__all__ = [
    "ScenePacketData",
    "scene_packet_data",
    "cast_packet",
    "occluded_packet",
    "trace_packet",
]


@dataclass
class ScenePacketData:
    """Per-primitive material arrays for packet shading.

    Rows are aligned with the hit indices produced by :func:`cast_packet`:
    the first ``len(index.packet_primitives)`` rows are the indexed (bounded)
    primitives in leaf-slot order, followed by the scene's unbounded
    primitives.  Cached on the scene and rebuilt whenever the acceleration
    index is (object identity ties the two together).
    """

    index: Any
    primitives: List[Primitive]
    #: ``Primitive.primitive_id`` per row (tile touch capture)
    primitive_id: np.ndarray
    #: a :class:`FlatBVH` sphere's row in ``index.sphere_center``, else -1
    sphere_row: np.ndarray
    color: np.ndarray
    ambient: np.ndarray
    diffuse: np.ndarray
    specular: np.ndarray
    shininess: np.ndarray
    reflectivity: np.ndarray
    transparency: np.ndarray
    ior: np.ndarray


def scene_packet_data(scene: "Scene") -> ScenePacketData:
    """The (cached) packet arrays of ``scene``; rebuilt when the index is.

    The cache is valid while ``scene.index`` is the index object it was
    built for.  A committed edit keeps it in step (a geometry refit carries
    it over to the refit index, a material edit drops it); a primitive or
    :class:`Material` mutated in place outside the journal needs
    :meth:`Scene.invalidate_packet_cache`.
    """
    index = scene.index  # building the index also populates the unbounded list
    cached = getattr(scene, "_packet_data", None)
    if cached is not None and cached.index is index:
        return cached
    indexed = index.packet_primitives
    primitives = list(indexed) + list(scene.unbounded_objects)
    table = material_table([p.material for p in primitives])
    ids = np.array([p.primitive_id for p in primitives], dtype=np.int64)
    sphere_row = np.full(len(primitives), -1, dtype=np.int64)
    if isinstance(index, FlatBVH):
        sphere_row[index.sphere_slot] = np.arange(index.sphere_slot.size)
    columns = np.ascontiguousarray(table[:, 3:].T)  # one row per scalar field
    color = np.ascontiguousarray(table[:, :3])
    data = ScenePacketData(index, primitives, ids, sphere_row, color, *columns)
    scene._packet_data = data
    return data


def cast_packet(
    scene: "Scene", index: Any, origins: np.ndarray, directions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Closest hit of every ray in the packet (the packet ``Cast`` step).

    Returns ``(indices, t)`` with indices into
    :attr:`ScenePacketData.primitives` (``-1``/``np.inf`` for misses).
    Mirrors :meth:`RayTracer.cast`: the traversal ``index`` first, then the
    unbounded primitives bounded by each ray's current best hit.
    """
    indices, t = index.intersect_packet(origins, directions, t_min=1e-6)
    base = len(index.packet_primitives)
    for offset, obj in enumerate(scene.unbounded_objects):
        t_obj = obj.intersect_block(origins, directions, 1e-6, t)
        closer = t_obj < t
        t[closer] = t_obj[closer]
        indices[closer] = base + offset
    return indices, t


def occluded_packet(
    scene: "Scene",
    index: Any,
    origins: np.ndarray,
    directions: np.ndarray,
    max_distance: np.ndarray,
    wave: Optional[int] = None,
    seed: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized :meth:`RayTracer.occluded` for a packet of shadow rays
    (``wave`` and ``seed``: see :meth:`FlatBVH.any_hit_packet`)."""
    occluded = index.any_hit_packet(origins, directions, 1e-6, max_distance, wave, seed)
    tmax = broadcast_tmax(max_distance, origins.shape[0])
    for obj in scene.unbounded_objects:
        active = (~occluded).nonzero()[0]
        if active.size == 0:
            break
        t = obj.intersect_block(origins[active], directions[active], 1e-6, tmax[active])
        occluded[active[np.isfinite(t)]] = True
    return occluded


def trace_packet(
    tracer: "RayTracer",
    index: Any,
    origins: np.ndarray,
    directions: np.ndarray,
    depth: int = 0,
) -> np.ndarray:
    """Vectorized :meth:`RayTracer.trace`: colours for a whole ray packet.

    One traversal, then one ``shade_block`` call for the hits, which sends
    its one secondary packet back through here at ``depth + 1``.
    ``directions`` must be normalized (as
    :meth:`Camera.primary_ray_block_into` and the secondary-ray spawning in
    ``shade_block`` guarantee).
    """
    scene = tracer.scene
    n = origins.shape[0]
    if n == 0:
        return np.zeros((0, 3), dtype=np.float64)
    colors = np.repeat(scene.background[None, :], n, axis=0)
    if depth >= scene.max_ray_depth:
        return colors
    tracer.rays_cast += n
    touch = getattr(tracer, "touch", None)
    if touch is not None and depth > 0:
        # the tile spawned secondary rays that were actually traced: any
        # geometry edit can change what they hit (set even when all miss)
        touch.secondary = True
    data = scene_packet_data(scene)
    indices, t = cast_packet(scene, index, origins, directions)
    hits = (indices >= 0).nonzero()[0]
    if hits.size == 0:
        return colors
    from repro.raytracer.shading import shade_block

    # the hit rows, gathered once for the touch capture and the shading
    rows = (
        origins.take(hits, axis=0),
        directions.take(hits, axis=0),
        indices.take(hits),
        t.take(hits),
    )
    if touch is not None:
        touch.note_packet(data, *rows, hits, n, depth)
    colors[hits] = shade_block(tracer, data, index, *rows, depth)
    return colors
