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

Both are deliberately slow and self-contained: nothing here calls the code
they check.
"""

import hashlib
import pickle

import numpy as np

from repro.raytracer.geometry.primitives import Sphere, Triangle

__all__ = ["assert_same_tree", "reference_content_key", "reference_tree"]


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
