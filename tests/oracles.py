"""Reference implementations the shipped fast paths are pinned against.

* :func:`reference_tree` is the per-node top-down SAH builder that
  :meth:`FlatBVH.build <repro.raytracer.flatbvh.FlatBVH.build>` replaced by
  a level-synchronous one: a Python stack of nodes, each sorting its own
  centroids and pricing its own splits.  :func:`assert_same_tree` checks a
  built tree against it array for array.
* :func:`reference_content_key` is the per-object ``_canonical`` key that
  :func:`repro.raytracer.mutation.scene_content_key` replaced by one digest
  over gathered arrays: every object is canonicalised attribute by
  attribute, hashed on its own, and the digests are folded.
* :func:`reference_cones_overlap` is the one-pair shadow-cone test that
  :func:`repro.raytracer.coherence._cones_overlap_block` evaluates on a
  whole (hit bucket, moved box) grid.
* :func:`reference_shade_block` / :func:`reference_trace_packet` are the
  packet shader that :func:`repro.raytracer.shading.shade_block` replaced
  by one packet per stage: one shadow packet per light, one secondary
  packet per kind (reflection, then transmission), and hit normals asked
  of each hit primitive in turn.

All are deliberately slow and self-contained: nothing here calls the code
they check (the shading oracle shares only the traversal queries it
sends its packets to).
"""

import hashlib
import math
import pickle

import numpy as np

from repro.raytracer.geometry.primitives import Sphere, Triangle
from repro.raytracer.packet import cast_packet, occluded_packet, scene_packet_data
from repro.raytracer.shading import EPSILON
from repro.raytracer.vec import normalize_rows, row_dot

__all__ = [
    "assert_same_tree",
    "reference_cones_overlap",
    "reference_content_key",
    "reference_render_section",
    "reference_shade_block",
    "reference_trace_packet",
    "reference_tree",
]


# -- the per-node SAH builder -------------------------------------------------
def _half_area(lo, hi):
    e = hi - lo
    return e[..., 0] * e[..., 1] + e[..., 1] * e[..., 2] + e[..., 2] * e[..., 0]


def _sah_split(lo, hi, centroid):
    """``(ranked, count)``: rows sorted by descending centroid along the
    cheapest axis, and how many of them form the upper child."""
    k = lo.shape[0]
    rank = np.argsort(-centroid, axis=0, kind="stable")  # (k, axis)
    slo, shi = lo[rank], hi[rank]  # (k, axis, xyz)
    before = _half_area(
        np.minimum.accumulate(slo, axis=0)[:-1], np.maximum.accumulate(shi, axis=0)[:-1]
    )
    after = _half_area(
        np.minimum.accumulate(slo[::-1], axis=0)[-2::-1],
        np.maximum.accumulate(shi[::-1], axis=0)[-2::-1],
    )
    counts = np.arange(1, k)[:, None]
    cost = before * counts + after * (k - counts)  # (k - 1, axis)
    axis, position = divmod(int(np.argmin(cost.T)), k - 1)
    return rank[:, axis], position + 1


def reference_tree(primitives):
    """``(arrays, leaves)`` of the per-node builder over ``primitives``.

    ``arrays`` maps every :class:`FlatBVH` array attribute to its expected
    value; ``leaves`` is the primitive of every leaf slot.
    """
    prims = list(primitives)
    n = len(prims)
    boxes = [prim.bounding_box() for prim in prims]
    lo = np.array([box.minimum for box in boxes], dtype=np.float64).reshape(n, 3)
    hi = np.array([box.maximum for box in boxes], dtype=np.float64).reshape(n, 3)
    centroid = 0.5 * (lo + hi)
    m = max(0, 2 * n - 1)
    order = np.arange(n)
    box_min, box_max = np.zeros((3, m)), np.zeros((3, m))
    left, right = np.full(m, -1, dtype=np.int64), np.full(m, -1, dtype=np.int64)
    first_leaf, leaf_end = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    stack = [(0, 0, n)] if n else []
    while stack:
        i, a, b = stack.pop()
        first_leaf[i], leaf_end[i] = a, b
        rows = order[a:b]
        box_min[:, i] = lo[rows].min(axis=0)
        box_max[:, i] = hi[rows].max(axis=0)
        if b - a == 1:
            continue
        ranked, count = _sah_split(lo[rows], hi[rows], centroid[rows])
        order[a:b] = rows[ranked]
        right[i], left[i] = i + 1, i + 2 * count
        stack.append((i + 2 * count, a + count, b))
        stack.append((i + 1, a, a + count))
    internal = np.flatnonzero(left >= 0)
    parent = np.full(m, -1, dtype=np.int64)
    parent[left[internal]] = internal
    parent[right[internal]] = internal
    leaf_nodes = np.flatnonzero(left < 0)
    leaf_node = np.zeros(n, dtype=np.int64)
    leaf_node[first_leaf[leaf_nodes]] = leaf_nodes
    leaves = [prims[row] for row in order]
    kinds = np.array(
        [{Sphere: 0, Triangle: 1}.get(type(prim), 2) for prim in leaves], dtype=np.int64
    )
    spheres = [leaves[slot] for slot in np.flatnonzero(kinds == 0)]
    tris = [leaves[slot] for slot in np.flatnonzero(kinds == 1)]
    arrays = {
        "box_min": box_min,
        "box_max": box_max,
        "left": left,
        "right": right,
        "skip": np.arange(m) + 2 * (leaf_end - first_leaf) - 1,
        "first_leaf": first_leaf,
        "leaf_end": leaf_end,
        "parent": parent,
        "leaf_node": leaf_node,
        "sphere_center": np.array([s.center for s in spheres]).reshape(-1, 3),
        "sphere_r2": np.array([s.radius * s.radius for s in spheres]).reshape(-1),
        "sphere_slot": np.flatnonzero(kinds == 0),
        "tri_v0": np.array([t.v0 for t in tris]).reshape(-1, 3),
        "tri_edge1": np.array([t.v1 - t.v0 for t in tris]).reshape(-1, 3),
        "tri_edge2": np.array([t.v2 - t.v0 for t in tris]).reshape(-1, 3),
        "tri_slot": np.flatnonzero(kinds == 1),
    }
    for name, kind in (("sphere_before", 0), ("tri_before", 1), ("other_before", 2)):
        arrays[name] = np.concatenate(([0], np.cumsum(kinds == kind)))
    return arrays, leaves


def assert_same_tree(flat, primitives):
    """``flat`` is the per-node builder's tree over ``primitives``: every
    array equal, the same primitive (by identity) in every leaf slot."""
    arrays, leaves = reference_tree(primitives)
    for name, expected in arrays.items():
        got = getattr(flat, name)
        assert got.shape == expected.shape, (name, got.shape, expected.shape)
        assert np.array_equal(got, expected), name
    assert [id(prim) for prim in flat.packet_primitives] == [id(prim) for prim in leaves]
    assert [slot for slot, _ in flat.other_prims] == [
        slot for slot, prim in enumerate(leaves) if type(prim) not in (Sphere, Triangle)
    ]


# -- the per-object content key -----------------------------------------------
_SCALAR_TYPES = (type(None), bool, int, float, str, bytes)


def _canonical(value):
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, np.ndarray):
        return ("nd", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if hasattr(value, "__dict__"):
        return (
            type(value).__name__,
            tuple(
                (name, _canonical(attr))
                for name, attr in sorted(vars(value).items())
                if name != "primitive_id" and not name.startswith("_")
            ),
        )
    return repr(value)


def _digest(value):
    return hashlib.sha256(pickle.dumps(_canonical(value), protocol=5)).digest()


def reference_content_key(scene):
    """The scene key as one digest per object plus one for the settings."""
    settings = (
        tuple(_canonical(light) for light in scene.lights),
        _canonical(scene.background),
        scene.max_ray_depth,
        scene.use_bvh,
        _canonical(getattr(scene, "camera", None)),
    )
    blob = b"".join(_digest(obj) for obj in scene.objects)
    blob += hashlib.sha256(pickle.dumps(settings, protocol=5)).digest()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- the per-light, per-kind packet shader ------------------------------------
def reference_trace_packet(tracer, index, origins, directions, depth=0):
    """:func:`repro.raytracer.packet.trace_packet` over the reference shader."""
    scene = tracer.scene
    n = origins.shape[0]
    colors = np.repeat(scene.background[None, :], n, axis=0)
    if n == 0 or depth >= scene.max_ray_depth:
        return colors
    tracer.rays_cast += n
    touch = tracer.touch
    if touch is not None and depth > 0:
        touch.secondary = True
    data = scene_packet_data(scene)
    indices, t = cast_packet(scene, index, origins, directions)
    hits = (indices >= 0).nonzero()[0]
    if hits.size == 0:
        return colors
    rows = (origins[hits], directions[hits], indices[hits], t[hits])
    if touch is not None:
        touch.note_packet(data, *rows, hits, n, depth)
    colors[hits] = reference_shade_block(tracer, data, index, *rows, depth)
    return colors


def reference_shade_block(tracer, data, index, origins, directions, indices, t, depth):
    """The packet shader with one shadow packet per light and one secondary
    packet per kind, recursing through :func:`reference_trace_packet`."""
    scene = tracer.scene
    points = origins + t[:, None] * directions

    normals = np.empty_like(points)
    for prim_id in np.unique(indices):
        selected = indices == prim_id
        normals[selected] = data.primitives[prim_id].normal_block(points[selected])

    inside = row_dot(directions, normals) > 0
    oriented = np.where(inside[:, None], -normals, normals)
    surface = points + oriented * EPSILON

    m_color = data.color[indices]
    color = data.ambient[indices][:, None] * m_color

    for light in scene.lights:
        to_light = light.position - surface
        distance = np.sqrt(row_dot(to_light, to_light))
        positive = distance > 0.0
        light_dir = np.where(
            positive[:, None],
            to_light / np.where(positive, distance, 1.0)[:, None],
            to_light,
        )
        lit = ~occluded_packet(scene, index, surface, normalize_rows(light_dir), distance)
        lambert = np.maximum(0.0, row_dot(oriented, light_dir))
        contribution = (data.diffuse[indices] * lambert * light.intensity)[:, None] * (
            m_color * light.color
        )
        half_vector = normalize_rows(light_dir - directions)
        highlight = np.maximum(0.0, row_dot(oriented, half_vector)) ** data.shininess[indices]
        contribution += (data.specular[indices] * highlight * light.intensity)[
            :, None
        ] * light.color
        color = color + np.where(lit[:, None], contribution, 0.0)

    reflectivity = data.reflectivity[indices]
    reflecting = (reflectivity > 0.0).nonzero()[0]
    if reflecting.size:
        d = directions[reflecting]
        n = oriented[reflecting]
        reflected_dir = d - 2.0 * row_dot(d, n)[:, None] * n
        reflected = reference_trace_packet(
            tracer, index, surface[reflecting], normalize_rows(reflected_dir), depth + 1
        )
        color[reflecting] += reflectivity[reflecting][:, None] * reflected

    transparency = data.transparency[indices]
    transmitting = (transparency > 0.0).nonzero()[0]
    if transmitting.size:
        d = directions[transmitting]
        n = oriented[transmitting]
        ior = data.ior[indices][transmitting]
        ratio = np.where(inside[transmitting], ior, 1.0 / ior)
        cos_incident = -row_dot(d, n)
        sin2_transmitted = ratio * ratio * (1.0 - cos_incident * cos_incident)
        total_internal = sin2_transmitted > 1.0
        cos_transmitted = np.sqrt(np.maximum(0.0, 1.0 - sin2_transmitted))
        refracted_dir = (
            ratio[:, None] * d + (ratio * cos_incident - cos_transmitted)[:, None] * n
        )
        reflected_dir = d - 2.0 * row_dot(d, n)[:, None] * n
        secondary_dir = np.where(total_internal[:, None], reflected_dir, refracted_dir)
        secondary_origin = np.where(
            total_internal[:, None],
            surface[transmitting],
            points[transmitting] - n * EPSILON,
        )
        contribution = reference_trace_packet(
            tracer, index, secondary_origin, normalize_rows(secondary_dir), depth + 1
        )
        color[transmitting] += transparency[transmitting][:, None] * contribution

    return np.clip(color, 0.0, 1.0)


def reference_render_section(scene, camera, y_start, y_end, touch=False):
    """``render_section(..., mode="fused")`` over the reference shader, as
    one packet: ``(pixels, rays_cast, summary)``."""
    from repro.raytracer.coherence import TileTouch
    from repro.raytracer.tracer import RayTracer

    tracer = RayTracer(scene, camera)
    if touch:
        tracer.touch = TileTouch(camera.width)
    n = (y_end - y_start) * camera.width
    origins, directions = camera.primary_ray_block_into(
        y_start, y_end, np.empty((n, 3)), np.empty(n)
    )
    colors = reference_trace_packet(tracer, scene.index, origins, directions)
    pixels = colors.reshape(y_end - y_start, camera.width, 3)
    summary = tracer.touch.summary(tracer.rays_cast) if touch else None
    return pixels, tracer.rays_cast, summary


# -- the planner's one-pair shadow-cone test ----------------------------------
def reference_cones_overlap(
    light_pos: np.ndarray,
    hit_min: np.ndarray,
    hit_max: np.ndarray,
    box_min: np.ndarray,
    box_max: np.ndarray,
) -> bool:
    """Can ``box`` intersect any segment light→p for p in the hit region?

    The one-pair form of the planner's bounding-sphere cone test."""
    hit_center = 0.5 * (hit_min + hit_max)
    hit_radius = 0.5 * float(np.linalg.norm(hit_max - hit_min))
    box_center = 0.5 * (box_min + box_max)
    box_radius = 0.5 * float(np.linalg.norm(box_max - box_min))
    to_hit = hit_center - light_pos
    to_box = box_center - light_pos
    dist_hit = float(np.linalg.norm(to_hit))
    dist_box = float(np.linalg.norm(to_box))
    if dist_box <= box_radius + 1e-12 or dist_hit <= hit_radius + 1e-12:
        return True  # the light sits inside one of the spheres
    if dist_box - box_radius > dist_hit + hit_radius:
        return False  # the blocker is entirely beyond every hit point
    cos_axis = float(np.dot(to_hit, to_box)) / (dist_hit * dist_box)
    axis_angle = math.acos(min(1.0, max(-1.0, cos_axis)))
    half_hit = math.asin(min(1.0, hit_radius / dist_hit))
    half_box = math.asin(min(1.0, box_radius / dist_box))
    return axis_angle <= half_hit + half_box
