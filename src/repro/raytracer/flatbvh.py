"""The flat SoA BVH: the one acceleration structure of a scene.

:meth:`FlatBVH.build` constructs the tree top-down, straight into
contiguous structure-of-arrays storage — there is no node-object tree and no
compile step.  One structure is built (:meth:`Scene.build_index
<repro.raytracer.scene.Scene.build_index>`), refit after edits
(:meth:`FlatBVH.refitted`) and traversed by both render modes.

* **Builder.**  The paper's Cast walks a BVH built by Goldsmith–Salmon
  insertion under a surface-area cost model (see :mod:`repro.raytracer.bvh`).
  This builder keeps the cost model and splits top-down instead: each node
  sorts its primitives' box centroids along all three axes, prices every
  split position of every axis by the surface-area heuristic
  ``area(L) * |L| + area(R) * |R|`` from prefix/suffix box unions (a full
  sweep, after Wald, "On fast Construction of SAH-based Bounding Volume
  Hierarchies", RT 2007) and takes the cheapest, lowest axis and position
  first on ties.  It runs breadth-first: all leaf boxes are read in one
  vectorised expression per primitive kind, then every node of a tree
  level is split in one step — one segmented sort, one prefix and one
  suffix scan and one segmented argmin over the whole level (see
  :func:`_build_levels`) — so the Python steps follow the tree depth, not
  the node count.  On a 2-vCPU host a 600-sphere scene (12 levels) builds
  in 6–9 ms where a per-node loop took 38–50 ms, and 2 000 spheres
  (14 levels) in 22–30 ms against 140–180 ms.  The
  upper part along the split axis becomes the child the scalar walk visits
  first: the scene generators' cameras look down ``-z``, so near geometry
  is tested first and its hits cull the far child.  The result is
  deterministic — the same primitives in the same order give bit-identical
  arrays, identical to the per-node builder's — and each leaf holds one
  primitive.
* **Layout.**  ``box_min``/``box_max`` ``(3, m)`` — one row per axis, the
  one box layout, stored the way the packet slab test gathers it — and
  ``left``/``right``/``skip``/``first_leaf``/``leaf_end``/``parent`` int
  arrays (``m = 2 n - 1``) in pre-order with the right child at ``i + 1``,
  so the subtree of node ``i`` is the index range ``[i, skip[i])`` and its
  leaves are the leaf slots ``[first_leaf[i], leaf_end[i])``; ``leaf_node``
  maps a leaf slot back to its node.  Leaf slots are the rows of
  :attr:`FlatBVH.packet_primitives`.  Every internal box is the exact
  union of its children's boxes and every leaf box its primitive's box.
* **Leaf kernels.**  Leaf primitives are grouped by kernel type into
  batched parameter arrays (sphere centres/radii, triangle vertices, a
  generic fallback list) with per-type prefix counts, so a leaf slot maps
  to its row of its kind's parameter array.  :meth:`FlatBVH.build` and
  :meth:`FlatBVH.refitted` read leaf boxes and kernel rows through one
  per-kind reader, :func:`_read_leaves`.
* **Packet traversal** (the ``fused`` render path) is a wavefront: a
  frontier of ``(ray, node)`` pairs held as int arrays, walked two tree
  levels per step.  Each step slab-tests every pair in one gathered
  ``(3, nodes, rays)`` NumPy expression, sends the surviving pairs whose
  node fits the batch rule (``BATCH_WORK``) to a pair-list leaf kernel
  over gathered ``(ray, primitive)`` rows, and replaces each other
  survivor by its up to four grandchildren (a child that fits the batch
  rule stays as itself) — so the Python steps per packet follow half the
  tree depth, not the number of nodes visited.  A packet (a shadow
  packet: one light's group) splits into interleaved classes of at most
  ``WAVE_RAYS`` rays, which bounds the frontier and its peak memory.  A
  class is walked after its neighbours: each ray is first tested against
  the leaves its nearest walked neighbours hit, and a shadow ray against
  its own hit (``seed``), so it starts with a bound or is already
  occluded.  The leaf kernels reproduce :meth:`Sphere.intersect_block` /
  :meth:`Triangle.intersect_block` operation-for-operation; their dot
  products must be ``einsum("ij,ij->i")`` (the reduction order of the
  block kernels) — a hand-written ``x*x + y*y + z*z`` rounds differently.
  The closest hit per ray is the lexicographic minimum of ``(t, leaf
  slot)``, so exact-``t`` ties resolve to the lower leaf slot whatever
  order the frontier and the seeds meet them in.  ``stats.node_visits``
  counts the ray-box tests made (the frontier's padding is not counted;
  the dense path counts one root visit per ray) and
  ``stats.primitive_tests`` the ray-primitive tests, seeds included.
* **Scalar traversal** (the ``scalar`` oracle mode) walks the same arrays
  in layout order with one ray and tests each leaf with the primitive's own
  scalar ``intersect``, so it checks the batched kernels independently and
  resolves exact-``t`` ties to the lower leaf slot as well.

:class:`~repro.raytracer.bvh.BruteForceIndex` is the correctness oracle;
``tests/raytracer/test_flatbvh.py``, ``tests/raytracer/test_bvh.py`` and
the property suite pin the builder invariants and exact equality against
it, and pin the builder's arrays to the per-node builder kept in
``tests/oracles.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

import copy

import numpy as np

from repro.raytracer.bvh import TraversalStats
from repro.raytracer.geometry.aabb import slab_hit
from repro.raytracer.geometry.primitives import _BOX_MARGIN, Primitive, Sphere, Triangle
from repro.raytracer.ray import Ray
from repro.raytracer.vec import broadcast_tmax, flat_floats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.raytracer.scene import Scene

__all__ = ["FlatBVH", "scene_flat_index"]

#: treat a direction component below this as parallel to the slab axis
#: (must match ``AABB.intersects_ray`` so the flat and scalar traversals
#: gate the same candidate set on degenerate rays)
_DEGENERATE = 1e-15

#: sentinel slot larger than any real leaf slot (tie-break folding)
_NO_SLOT = np.iinfo(np.int64).max

#: leaf kernel per primitive type; anything else (2) takes the scalar fallback
_KIND = {Sphere: 0, Triangle: 1}


def _half_area(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Half the surface area of the boxes ``[lo, hi]`` (first axis: x, y, z)."""
    e = hi - lo
    return e[0] * e[1] + e[1] * e[2] + e[2] * e[0]


def _read_leaves(prims: List[Primitive]) -> Tuple[np.ndarray, ...]:
    """Leaf boxes and kernel rows of ``prims``, one vectorised read per kind.

    Returns ``(kinds, lo, hi, center, r2, v0, edge1, edge2)``: each
    primitive's kernel kind (2: the scalar fallback); the ``(n, 3)`` leaf
    boxes, which are :meth:`Sphere.bounding_box` /
    :meth:`Triangle.bounding_box` evaluated operation for operation, margin
    included (a fallback primitive is asked for its own box); and the sphere
    and triangle kernel rows, in input order within each kind.
    """
    kinds = np.array([_KIND.get(type(prim), 2) for prim in prims], dtype=np.int64)
    spheres, tris, others = (np.flatnonzero(kinds == kind) for kind in range(3))
    lo, hi = np.empty((kinds.size, 3)), np.empty((kinds.size, 3))
    center = flat_floats([prims[i].center for i in spheres]).reshape(-1, 3)
    radius = flat_floats([prims[i].radius for i in spheres])
    r = (radius + _BOX_MARGIN * (1.0 + radius + np.abs(center).max(axis=1)))[:, None]
    lo[spheres], hi[spheres] = center - r, center + r
    verts = flat_floats([v for i in tris for v in (prims[i].v0, prims[i].v1, prims[i].v2)])
    verts = verts.reshape(-1, 3, 3)
    pad = (_BOX_MARGIN * (1.0 + np.abs(verts).max(axis=(1, 2))))[:, None]
    lo[tris], hi[tris] = verts.min(axis=1) - pad, verts.max(axis=1) + pad
    for i in others:
        box = prims[i].bounding_box()
        lo[i], hi[i] = box.minimum, box.maximum
    v0 = verts[:, 0]
    return kinds, lo, hi, center, radius * radius, v0, verts[:, 1] - v0, verts[:, 2] - v0


def _build_levels(flat: "FlatBVH", lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Fill ``flat``'s node arrays one tree level per step; returns the
    input row of every leaf slot.

    Each step prices every split of every node still to split at once, and
    each node gets exactly the numbers a per-node sweep would give it:

    * one stable sort per axis of ``(node, -centroid)``, with centroids as
      dense ranks so that ties compare equal and keep the node's current
      order — the per-node ``argsort(-centroid, kind="stable")``;
    * one prefix and one suffix ``minimum.accumulate`` of the sorted boxes.
      The boxes enter as integer ranks into one sorted table of their
      coordinates (box maxima negated, so both halves are minima), offset
      by ``node * table size`` so that no scan crosses a node boundary;
      min/max are exact, so the looked-up unions are the per-node floats;
    * the same ``area * count`` cost and a segmented argmin with the same
      tie rule: lowest axis first, then lowest position.

    The scans also give both children's boxes.  Node ``i`` covering leaf
    slots ``[a, b)`` puts its first ``count`` slots (the upper side of the
    split axis) in its right child ``i + 1`` and the rest in its left child
    ``i + 2 * count``, after the right subtree's ``2 * count - 1`` nodes.
    """
    n = lo.shape[0]
    m = 2 * n - 1
    flat.box_min, flat.box_max = np.empty((3, m)), np.empty((3, m))
    flat.left, flat.right, flat.parent = (np.full(m, -1, dtype=np.int64) for _ in range(3))
    flat.first_leaf, flat.leaf_end = np.zeros(m, dtype=np.int64), np.full(m, n, dtype=np.int64)
    flat.leaf_node = np.zeros(n, dtype=np.int64)
    flat.box_min[:, 0], flat.box_max[:, 0] = lo.min(axis=0), hi.max(axis=0)
    crank = np.array([np.unique(c, return_inverse=True)[1] for c in (-0.5 * (lo + hi)).T])
    corners = np.concatenate((lo, -hi), axis=1)  # maxima negated: every scan is a minimum
    table = np.sort(corners, axis=None)
    rank = np.argsort(np.argsort(corners, axis=None)).reshape(n, 6).T.copy()  # (corner, row)
    order = np.arange(n)
    nodes = starts = np.zeros(int(n > 1), dtype=np.int64)  # the root, if it splits
    ends = starts + n
    while nodes.size:
        k = ends - starts
        seg = np.repeat(np.arange(k.size), k)  # node of each active position
        offset = np.cumsum(k) - k  # its first active position
        pos = np.arange(seg.size) - offset[seg] + starts[seg]
        rows = order[pos]
        ranked = rows[np.argsort(seg * n + crank[:, rows], axis=1, kind="stable")]
        keys = rank[:, ranked]  # (corner, axis, position)
        shift = seg * table.size
        pre = table[np.minimum.accumulate(keys - shift, axis=2) + shift]
        suf = table[np.minimum.accumulate((keys + shift)[..., ::-1], axis=2)[..., ::-1] - shift]
        # cost of cutting after position p (the upper side is p and before);
        # a node's last position has no cut and prices at infinity
        counts = np.arange(1, seg.size) - offset[seg[:-1]]
        cost = _half_area(pre[:3, :, :-1], -pre[3:, :, :-1]) * counts
        cost += _half_area(suf[:3, :, 1:], -suf[3:, :, 1:]) * (k[seg[:-1]] - counts)
        cost[:, (offset + k - 1)[:-1]] = np.inf
        cheapest = np.minimum.reduceat(cost.min(axis=0), offset)[seg[:-1]]
        pick = np.where(cost == cheapest, np.arange(cost.size).reshape(3, -1), cost.size)
        axis, pick = np.divmod(np.minimum.reduceat(pick.min(axis=0), offset), seg.size - 1)
        count = pick - offset + 1
        order[pos] = ranked[axis[seg], np.arange(seg.size)]
        # children, (right, left) per node: the upper `count` slots go right
        children = np.stack((nodes + 1, nodes + 2 * count), axis=1).ravel()
        flat.right[nodes], flat.left[nodes] = children[::2], children[1::2]
        flat.parent[children] = np.repeat(nodes, 2)
        box = np.stack((pre[:, axis, offset + count - 1], suf[:, axis, offset + count]), axis=2)
        box = box.reshape(6, -1)  # (corner, child)
        flat.box_min[:, children], flat.box_max[:, children] = box[:3], -box[3:]
        mid = starts + count
        starts, ends = np.stack((starts, mid, mid, ends), axis=1).reshape(-1, 2).T
        flat.first_leaf[children], flat.leaf_end[children] = starts, ends
        leaf = ends - starts == 1
        flat.leaf_node[starts[leaf]] = children[leaf]
        nodes, starts, ends = children[~leaf], starts[~leaf], ends[~leaf]
    flat.skip = np.arange(m) + 2 * (flat.leaf_end - flat.first_leaf) - 1
    return order


class FlatBVH:
    """A bounding-volume hierarchy stored as flat arrays.

    Built with :meth:`build`; immutable afterwards (an in-place geometry
    edit is carried over by :meth:`refitted`, which returns a new object).
    Answers the same queries as
    :class:`~repro.raytracer.bvh.BruteForceIndex` — scalar ``intersect`` /
    ``any_hit`` and packet ``intersect_packet`` / ``any_hit_packet`` /
    ``packet_primitives`` / ``stats`` — so either can serve as a scene's
    index.
    """

    #: the batch rule: a node whose ``subtree_leaves * rays_in_class`` fits
    #: this budget is not descended — once its box passes, the ray is paired
    #: with every leaf under it.  A small scene is then one batch, while a
    #: 512-ray class descends to 2-leaf subtrees, whose boxes prune far
    #: better than brute-forcing larger ones.  1024 is the best of a sweep
    #: (1 .. 8192) on the benchmark workloads' packets.  Re-swept (256 ..
    #: 4096) under the seeded two-level walk: 2048 and 4096 cut the walk
    #: steps of a ``frame_heavy`` frame by 16 and 24 % but add 81 and 249 %
    #: primitive tests; 2048 rendered the ``frame_heavy`` frames ~5 %
    #: faster and the 600-sphere ``cold_scene`` frames ~6 % slower (min of
    #: 24 runs each), so 1024 stays; 1 tests every leaf box
    BATCH_WORK = 1024

    #: rays per class: the frontier walks at most this many rays at once,
    #: which bounds its peak size (and the process's peak memory) whatever
    #: the packet size; 512 was the fastest of 256 .. 2048.  Re-swept under
    #: the seeded walk: 256 makes a ``frame_heavy`` frame take 51 % more
    #: walk steps, 1024 takes 33 % fewer steps but makes 26 % more box
    #: tests (half the rays walk unseeded), 2048 leaves a 2048-ray section
    #: no neighbour seeds; none beat 512 beyond the host's noise
    WAVE_RAYS = 512

    def __init__(self) -> None:
        self.primitives: List[Primitive] = []
        self.num_primitives = 0
        self.stats = TraversalStats()
        # node arrays (m = 2 * leaves - 1 for a non-empty tree); the boxes
        # are (3, m), one row per axis, the way the slab test gathers them
        self.box_min = np.zeros((3, 0))
        self.box_max = np.zeros((3, 0))
        self.left = np.zeros(0, dtype=np.int64)
        self.right = np.zeros(0, dtype=np.int64)
        self.skip = np.zeros(0, dtype=np.int64)
        self.first_leaf = np.zeros(0, dtype=np.int64)
        self.leaf_end = np.zeros(0, dtype=np.int64)
        # refit support: parent position per node (-1 at the root) and the
        # node position of each leaf slot
        self.parent = np.zeros(0, dtype=np.int64)
        self.leaf_node = np.zeros(0, dtype=np.int64)
        self._slot_by_prim: Optional[Dict[int, int]] = None
        # the traversal's batch rule, memoised per leaf budget
        self._batch_rules: Dict[int, np.ndarray] = {}
        # per-kind leaf parameter arrays + prefix counts over leaf slots
        self.sphere_center = np.zeros((0, 3))
        self.sphere_r2 = np.zeros(0)
        self.sphere_slot = np.zeros(0, dtype=np.int64)
        self.sphere_before = np.zeros(1, dtype=np.int64)
        self.tri_v0 = np.zeros((0, 3))
        self.tri_edge1 = np.zeros((0, 3))
        self.tri_edge2 = np.zeros((0, 3))
        self.tri_slot = np.zeros(0, dtype=np.int64)
        self.tri_before = np.zeros(1, dtype=np.int64)
        self.other_prims: List[Tuple[int, Primitive]] = []
        self.other_before = np.zeros(1, dtype=np.int64)

    def __getstate__(self):
        # the refit lookup is keyed by id(primitive), which pickling does
        # not preserve; the unpickled copy rebuilds it lazily
        state = self.__dict__.copy()
        state["_slot_by_prim"] = None
        state["_batch_rules"] = {}
        return state

    # -- construction --------------------------------------------------------
    @classmethod
    def build(cls, primitives: Iterable[Primitive]) -> "FlatBVH":
        """Build the tree over ``primitives`` top-down (see the module notes).

        Raises :class:`ValueError` for an unbounded primitive: planes stay
        on the scene's unbounded list.
        """
        prims = list(primitives)
        for prim in prims:
            if not prim.is_bounded:
                raise ValueError(
                    f"unbounded primitive {prim!r} cannot be stored in a BVH; "
                    "keep it on the scene's unbounded list"
                )
        flat = cls()
        if not prims:
            return flat
        kinds, lo, hi, center, r2, v0, edge1, edge2 = _read_leaves(prims)
        order = _build_levels(flat, lo, hi)
        flat.primitives, flat.num_primitives = [prims[i] for i in order], len(prims)
        # per-kind leaf parameter arrays in leaf-slot order, and prefix counts
        slot_kinds = kinds[order]
        flat.sphere_slot, flat.tri_slot = (np.flatnonzero(slot_kinds == kind) for kind in (0, 1))
        flat.other_prims = [(int(s), flat.primitives[s]) for s in np.flatnonzero(slot_kinds == 2)]
        # a leaf's row in its kind's arrays: its input row's rank among that kind
        sphere_row = np.cumsum(kinds == 0)[order[flat.sphere_slot]] - 1
        tri_row = np.cumsum(kinds == 1)[order[flat.tri_slot]] - 1
        flat.sphere_center, flat.sphere_r2 = center[sphere_row], r2[sphere_row]
        flat.tri_v0, flat.tri_edge1, flat.tri_edge2 = (a[tri_row] for a in (v0, edge1, edge2))
        flat.sphere_before, flat.tri_before, flat.other_before = (
            np.concatenate(([0], np.cumsum(slot_kinds == kind))) for kind in range(3)
        )
        return flat

    def refitted(self, primitives: Iterable[Primitive]) -> "FlatBVH":
        """A copy updated for in-place geometry edits of ``primitives``.

        Every moved primitive's leaf box and kernel parameters are re-read
        (by the reader :meth:`build` uses), then every ancestor of a moved
        leaf is re-unioned from its children, bottom-up, so every internal
        box is again the exact union of its children — at O(k · depth) for
        k moved primitives.  The topology and leaf order are kept
        (exact-``t`` tie-breaks cannot flip) and the other primitives' rows
        are shared with ``self``; ``self`` is left untouched (a render
        still holding it sees a consistent index).
        """
        slot_by_prim = self._slot_by_prim
        if slot_by_prim is None:
            slot_by_prim = {id(prim): slot for slot, prim in enumerate(self.primitives)}
            self._slot_by_prim = slot_by_prim
        flat = copy.copy(self)
        flat.stats = TraversalStats()
        moved = list(primitives)
        slots = [slot_by_prim.get(id(prim)) for prim in moved]
        if None in slots:
            raise KeyError(f"{moved[slots.index(None)]!r} is not stored in this flat BVH")
        slots = np.array(slots, dtype=np.int64)
        kinds, lo, hi, center, r2, v0, edge1, edge2 = _read_leaves(moved)
        for name in ("box_min", "box_max", "sphere_center", "sphere_r2",
                     "tri_v0", "tri_edge1", "tri_edge2"):
            setattr(flat, name, getattr(self, name).copy())
        rows = flat.sphere_before[slots[kinds == 0]]
        flat.sphere_center[rows], flat.sphere_r2[rows] = center, r2
        rows = flat.tri_before[slots[kinds == 1]]
        flat.tri_v0[rows], flat.tri_edge1[rows], flat.tri_edge2[rows] = v0, edge1, edge2
        level = flat.leaf_node[slots]
        flat.box_min[:, level], flat.box_max[:, level] = lo.T, hi.T
        # re-union one tree level per round: a node d levels above a moved
        # leaf is recomputed in round d, so its last recomputation follows
        # both its children's (min/max are exact: repeats change nothing)
        while True:
            level = np.unique(flat.parent[level])
            level = level[level >= 0]
            if level.size == 0:
                return flat
            left, right = flat.left[level], flat.right[level]
            flat.box_min[:, level] = np.minimum(flat.box_min[:, left], flat.box_min[:, right])
            flat.box_max[:, level] = np.maximum(flat.box_max[:, left], flat.box_max[:, right])

    # -- interface parity with BruteForceIndex --------------------------------
    @property
    def size(self) -> int:
        return self.num_primitives

    @property
    def packet_primitives(self) -> List[Primitive]:
        """Leaf primitives in traversal order; hit indices refer here."""
        return self.primitives


    # -- scalar queries (the ``scalar`` oracle mode) -------------------------
    def intersect(
        self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf
    ) -> Tuple[Optional[Primitive], Optional[float]]:
        """Closest primitive hit by the ray, or ``(None, None)``.

        Walks the layout in order (right child first), so leaves are tested
        in ascending slot order and an exact-``t`` tie keeps the lower slot.
        """
        best_primitive: Optional[Primitive] = None
        best_t = t_max
        stack = [0] if self.num_primitives else []
        while stack:
            i = stack.pop()
            self.stats.node_visits += 1
            if not slab_hit(self.box_min[:, i], self.box_max[:, i], ray, t_min, best_t):
                continue
            if self.left[i] < 0:
                self.stats.primitive_tests += 1
                prim = self.primitives[self.first_leaf[i]]
                t = prim.intersect(ray, t_min, best_t)
                if t is not None and t < best_t:
                    best_t = t
                    best_primitive = prim
                continue
            stack.append(int(self.left[i]))
            stack.append(int(self.right[i]))
        if best_primitive is None:
            return None, None
        return best_primitive, best_t

    def any_hit(self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf) -> bool:
        """Early-exit occlusion query used for shadow rays."""
        stack = [0] if self.num_primitives else []
        while stack:
            i = stack.pop()
            self.stats.node_visits += 1
            if not slab_hit(self.box_min[:, i], self.box_max[:, i], ray, t_min, t_max):
                continue
            if self.left[i] < 0:
                self.stats.primitive_tests += 1
                if self.primitives[self.first_leaf[i]].intersect(ray, t_min, t_max) is not None:
                    return True
                continue
            stack.append(int(self.left[i]))
            stack.append(int(self.right[i]))
        return False

    # -- packet traversal (the ``fused`` render path) --------------------------
    def _packet_inverse(self, directions: np.ndarray) -> Tuple[np.ndarray, Any]:
        """Per-packet reciprocal directions and the degenerate-axis mask.

        Returns ``(inv, deg)``, both ``(3, n)`` like the node boxes: one row
        per axis.  ``deg`` marks the rays parallel to a slab and is ``None``
        for packets without any (the overwhelmingly common case), which lets
        the slab test skip the parallel-ray handling entirely.
        """
        rows = np.ascontiguousarray(directions.T)
        deg = np.abs(rows) < _DEGENERATE
        if not deg.any():
            return 1.0 / rows, None
        return 1.0 / np.where(deg, 1.0, rows), deg

    def _slab(
        self,
        rays: np.ndarray,
        nodes: np.ndarray,
        org: np.ndarray,
        inv: np.ndarray,
        deg: Any,
        t_min: float,
        hi: np.ndarray,
    ) -> np.ndarray:
        """Slab test of ray ``rays[k]`` against nodes ``nodes[:, k]``.

        ``nodes`` is ``(c, k)``: the frontier holds up to four nodes below a
        node for the same ray, so each ray row is gathered once and
        broadcast over its ``c`` nodes.  ``org``/``inv``/``deg`` are ``(3, n)``
        per-packet rows and the gathered blocks ``(3, c, k)``, so the whole
        test is a dozen NumPy calls whatever the pair count.  Returns the
        ``(c, k)`` accept mask within ``[t_min, hi[k]]`` — the accept set of
        the scalar ``slab_hit``, including the parallel-ray rule: a
        degenerate axis leaves the interval unconstrained when the origin
        lies inside the slab and rejects the ray outright when it does not.
        A wide frontier is tested ``2 * WAVE_RAYS`` columns at a time, which
        bounds the ``(3, c, columns)`` temporaries and so a step's peak
        memory.
        """
        span = 2 * self.WAVE_RAYS
        if rays.size > span:
            return np.concatenate([
                self._slab(rays[i : i + span], nodes[:, i : i + span], org, inv, deg, t_min,
                           hi[i : i + span])
                for i in range(0, rays.size, span)
            ], axis=1)
        o = org.take(rays, axis=1)[:, None]
        iv = inv.take(rays, axis=1)[:, None]
        t0 = self.box_min.take(nodes, axis=1)
        t1 = self.box_max.take(nodes, axis=1)
        if deg is not None:
            d = deg.take(rays, axis=1)[:, None]
            outside = (d & ((o < t0) | (o > t1))).any(axis=0)
        t0 -= o
        t0 *= iv
        t1 -= o
        t1 *= iv
        del o, iv  # the widest level's peak memory: free before `near`
        near = np.minimum(t0, t1)
        far = np.maximum(t0, t1, out=t1)
        if deg is not None:
            np.copyto(near, -np.inf, where=d)
            np.copyto(far, np.inf, where=d)
        lo = near.max(axis=0)
        np.maximum(lo, t_min, out=lo)
        mask = lo <= np.minimum(far.min(axis=0), hi)
        if deg is not None:
            mask &= ~outside
        return mask

    def _leaf_pairs(
        self, rays: np.ndarray, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand batch pairs ``(ray, node)`` to ``(ray, leaf slot)`` pairs."""
        first = self.first_leaf[nodes]
        count = self.leaf_end[nodes] - first
        if count.max() == 1:
            return rays, first
        total = int(count.sum())
        start = (first - (count.cumsum() - count)).repeat(count)
        return rays.repeat(count), start + np.arange(total)

    def _pair_t(
        self,
        rays: np.ndarray,
        slots: np.ndarray,
        origins: np.ndarray,
        directions: np.ndarray,
        t_min: float,
        tm: np.ndarray,
    ) -> np.ndarray:
        """Hit parameter of every ``(ray, leaf slot)`` pair (``inf`` on a miss).

        One pair-list kernel per primitive kind over gathered rows; each
        reproduces :meth:`Sphere.intersect_block` /
        :meth:`Triangle.intersect_block` operation-for-operation and accepts
        only ``t`` inside ``[t_min, tm]``.
        """
        self.stats.primitive_tests += int(slots.size)
        if self.sphere_slot.size == self.num_primitives:
            return self._sphere_t(rays, slots, origins, directions, t_min, tm)
        t = np.full(slots.size, np.inf)
        kinds = (
            (self.sphere_before, self._sphere_t),
            (self.tri_before, self._triangle_t),
        )
        other = np.ones(slots.size, dtype=bool)
        for before, kernel in kinds:
            rows = before[slots]
            sel = (before[slots + 1] > rows).nonzero()[0]
            if sel.size:
                other[sel] = False
                t[sel] = kernel(rays[sel], rows[sel], origins, directions, t_min, tm[sel])
        other = other.nonzero()[0]
        for prim_slot in np.unique(slots[other]):
            sel = other[slots[other] == prim_slot]
            r = rays[sel]
            t[sel] = self.primitives[prim_slot].intersect_block(
                origins[r], directions[r], t_min, tm[sel]
            )
        return t

    def _sphere_t(
        self,
        rays: np.ndarray,
        rows: np.ndarray,
        origins: np.ndarray,
        directions: np.ndarray,
        t_min: float,
        tm: np.ndarray,
    ) -> np.ndarray:
        """Nearer valid root of ray ``rays[k]`` against sphere ``rows[k]``.

        ``einsum("ij,ij->i")`` is the reduction :meth:`Sphere.intersect_block`
        uses (``row_dot``); a hand-written ``x*x + y*y + z*z`` sums in another
        order and moves pixels by ~1e-9.  The root preference is the block
        kernel's in fewer calls: the near root when it is past ``t_min``,
        else the far one, kept if inside ``[t_min, tm]`` (``far >= near``,
        so a near root past ``tm`` leaves no far one).  A miss has a
        negative discriminant and NaN roots, which fail every range test
        (the traversal runs under ``errstate(invalid="ignore")``).
        """
        oc = origins.take(rays, axis=0) - self.sphere_center.take(rows, axis=0)
        half_b = np.einsum("ij,ij->i", oc, directions.take(rays, axis=0))
        c = np.einsum("ij,ij->i", oc, oc) - self.sphere_r2[rows]
        sqrt_d = np.sqrt(half_b * half_b - c)
        half_b = -half_b
        near = half_b - sqrt_d
        root = np.where(near >= t_min, near, half_b + sqrt_d)
        return np.where((root >= t_min) & (root <= tm), root, np.inf)

    def _triangle_t(
        self,
        rays: np.ndarray,
        rows: np.ndarray,
        origins: np.ndarray,
        directions: np.ndarray,
        t_min: float,
        tm: np.ndarray,
    ) -> np.ndarray:
        """Möller–Trumbore for ray ``rays[k]`` against triangle ``rows[k]``."""
        d = directions.take(rays, axis=0)
        edge1 = self.tri_edge1.take(rows, axis=0)
        edge2 = self.tri_edge2.take(rows, axis=0)
        h = np.cross(d, edge2)
        aa = np.einsum("ij,ij->i", h, edge1)
        valid = np.abs(aa) >= 1e-12
        f = 1.0 / np.where(valid, aa, 1.0)
        s = origins.take(rays, axis=0) - self.tri_v0.take(rows, axis=0)
        u = f * np.einsum("ij,ij->i", s, h)
        q = np.cross(s, edge1)
        v = f * np.einsum("ij,ij->i", d, q)
        cand = f * np.einsum("ij,ij->i", q, edge2)
        ok = (
            valid
            & (u >= 0.0)
            & (u <= 1.0)
            & (v >= 0.0)
            & (u + v <= 1.0)
            & (cand >= t_min)
            & (cand <= tm)
        )
        return np.where(ok, cand, np.inf)

    def _batch_rule(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The batch rule of a class of ``size`` rays and its two-level step.

        The class size is first rounded up to a power of four, at most
        ``WAVE_RAYS``, so that a handful of rules is ever memoised (six
        with the defaults), whatever sizes the packets have.  Returns
        ``(batch_node, below)``: the mask of nodes whose subtree fits the
        leaf budget ``BATCH_WORK // rounded size``, and the ``(4, m)`` table of what
        replaces a surviving non-batch node in the frontier: each of its two
        children, or that child's two children when the child is not a
        batch node itself (``-1`` pads).
        """
        bucket = 1
        while bucket < size:
            bucket *= 4
        leaves = max(1, self.BATCH_WORK // min(bucket, self.WAVE_RAYS))
        rule = self._batch_rules.get(leaves)
        if rule is None:
            batch_node = self.leaf_end - self.first_leaf <= leaves
            below = np.full((4, batch_node.size), -1, dtype=np.int32)
            inner = (~batch_node).nonzero()[0]  # internal nodes, never leaves
            for row, child in ((0, inner + 1), (2, self.left[inner])):
                stays = batch_node[child]
                below[row, inner] = np.where(stays, child, child + 1)
                below[row + 1, inner] = np.where(stays, -1, self.left[child])
            rule = self._batch_rules[leaves] = (batch_node, below)
        return rule

    def _fold(self, pr: np.ndarray, ps: np.ndarray, t: np.ndarray, bound: np.ndarray,
              found: np.ndarray, occluded: Optional[np.ndarray]) -> None:
        """Fold the hits among ``(ray, leaf slot)`` pairs with parameters
        ``t`` into the per-ray state: the lexicographic minimum of ``(t,
        slot)`` in ``bound``/``found``, or (any hit) the ``occluded`` flag
        and the occluder's slot in ``found``."""
        hit = (t < np.inf).nonzero()[0]
        if hit.size == 0:
            return
        pr, ps, t = pr[hit], ps[hit], t[hit]
        if occluded is not None:
            occluded[pr] = True
            found[pr] = ps
            return
        # lowest t first, then the lowest slot among its ties
        before = bound[pr]
        np.minimum.at(bound, pr, t)
        after = bound[pr]
        found[pr[after < before]] = _NO_SLOT
        tie = t == after
        np.minimum.at(found, pr[tie], ps[tie])

    def _traverse(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        t_min: float,
        bound: np.ndarray,
        slot: Optional[np.ndarray] = None,
        occluded: Optional[np.ndarray] = None,
        wave: Optional[int] = None,
        seed: Optional[np.ndarray] = None,
    ) -> None:
        """The wavefront walk both packet queries share.

        Closest hit (``slot`` given): hits fold into the per-ray
        lexicographic minimum of ``(t, leaf slot)``, held in ``bound`` and
        ``slot``.  Any hit (``occluded`` given): a hit flags its ray, which
        then leaves the frontier.  The packet splits into groups of
        ``wave`` rays (one light's shadow rays), each group of ``g`` rays
        into ``s = ceil(g / WAVE_RAYS)`` interleaved classes ``i % s == c``,
        walked in turn.  Before its walk a class tests each ray against the
        leaf slots its seeds name — its own ``seed`` row and the hits of its
        nearest walked neighbours ``i - 1`` and ``i + s - c`` — so it enters
        the tree with a bound, or already occluded.  When every class's root
        is a batch node the packet goes to :meth:`_dense` instead.
        """
        n = origins.shape[0]
        group = min(n, wave or n)
        size = -(-group // -(-group // self.WAVE_RAYS))  # the largest class
        if self.num_primitives <= max(1, self.BATCH_WORK // size):  # a batch root
            self.stats.node_visits += n  # one root visit per ray
            self._dense(origins, directions, t_min, bound, slot, occluded)
            return
        rule = self._batch_rule(size)  # no batch root: the dense test above
        org = np.ascontiguousarray(origins.T)
        inv, deg = self._packet_inverse(directions)
        # each ray's hit slot, the seed of its neighbours in later classes
        found = slot if occluded is None else np.full(n, _NO_SLOT, dtype=np.int64)
        if seed is not None:
            seed = np.where((seed >= 0) & (seed < self.num_primitives), seed, _NO_SLOT)
        for g0 in range(0, n, group):
            g1 = min(n, g0 + group)
            classes = -(-(g1 - g0) // self.WAVE_RAYS)
            for c in range(classes):
                rays = np.arange(g0 + c, g1, classes)
                seeds = [] if seed is None else [seed[rays]]
                if c:
                    right = rays + (classes - c)
                    seeds += [found[rays - 1], found[np.where(right < g1, right, rays - c)]]
                if seeds:
                    rays = self._seed(rays, np.array(seeds), origins, directions, t_min,
                                      bound, found, occluded)
                self._walk(rays, rule, origins, directions, org, inv, deg, t_min,
                           bound, found, occluded)

    def _seed(self, rays: np.ndarray, seeds: np.ndarray, origins: np.ndarray,
              directions: np.ndarray, t_min: float, bound: np.ndarray, found: np.ndarray,
              occluded: Optional[np.ndarray]) -> np.ndarray:
        """Test ray ``rays[k]`` against leaf slots ``seeds[:, k]`` (repeats
        and out-of-range slots skipped) in one pair-kernel call and fold the
        hits; returns the rays still to walk."""
        keep = seeds < self.num_primitives
        keep[1:] &= seeds[1:] != seeds[:-1]
        pick = keep.nonzero()
        if pick[0].size:
            pr, ps = rays[pick[1]], seeds[pick]
            t = self._pair_t(pr, ps, origins, directions, t_min, bound[pr])
            self._fold(pr, ps, t, bound, found, occluded)
            if occluded is not None:
                return rays[~occluded[rays]]
        return rays

    def _walk(self, rays: np.ndarray, rule: Tuple[np.ndarray, np.ndarray],
              origins: np.ndarray, directions: np.ndarray, org: np.ndarray, inv: np.ndarray,
              deg: Any, t_min: float, bound: np.ndarray, found: np.ndarray,
              occluded: Optional[np.ndarray]) -> None:
        """Walk ``rays`` down the tree, two levels per step.

        The frontier is ``(c, k)``: up to ``c = 4`` nodes below a surviving
        node for each of ``k`` rays, ``-1`` padded, starting below the root,
        which the rule never makes a batch node.
        Each step slab-tests it, sends the surviving batch nodes' leaves to
        the pair kernel and replaces the other survivors by ``below``.
        """
        batch_node, below = rule
        nodes = below[:, :1].repeat(rays.size, axis=1)
        while rays.size:
            keep = self._slab(rays, nodes, org, inv, deg, t_min, bound[rays])
            real = nodes >= 0
            keep &= real
            self.stats.node_visits += int(np.count_nonzero(real))
            pair_rays = rays[None].repeat(nodes.shape[0], 0).ravel()  # each flat pair's ray
            nodes, flat_keep = nodes.ravel(), keep.ravel()
            batch = batch_node.take(nodes)
            leaf = (flat_keep & batch).nonzero()[0]
            if leaf.size:
                pr, ps = self._leaf_pairs(pair_rays.take(leaf), nodes.take(leaf))
                t = self._pair_t(pr, ps, origins, directions, t_min, bound[pr])
                self._fold(pr, ps, t, bound, found, occluded)
                if occluded is not None:
                    keep &= ~occluded[rays]
            inner = (flat_keep > batch).nonzero()[0]
            rays, nodes = pair_rays.take(inner), below.take(nodes.take(inner), axis=1)

    def _dense(self, origins: np.ndarray, directions: np.ndarray, t_min: float, bound: np.ndarray,
               slot: Optional[np.ndarray], occluded: Optional[np.ndarray]) -> None:
        """Every ray against every leaf, no box tests: the frontier's one
        batch step minus the root slab test, which only skips missing pairs
        (``argmin`` keeps the lowest slot among exact-``t`` ties)."""
        n, k = origins.shape[0], self.num_primitives
        pr = np.repeat(np.arange(n), k)
        t = self._pair_t(pr, np.arange(pr.size) % k, origins, directions, t_min, bound[pr])
        t = t.reshape(n, k)
        if occluded is not None:
            occluded[:] = (t < np.inf).any(axis=1)
            return
        best = t.argmin(axis=1)
        best_t = t[np.arange(n), best]
        hit = best_t < np.inf
        bound[hit], slot[hit] = best_t[hit], best[hit]

    def intersect_packet(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Closest hit for a whole ray packet.

        Returns ``(indices, t)`` with indices into :attr:`packet_primitives`
        (``-1``/``np.inf`` for misses).
        """
        n = origins.shape[0]
        best_t = np.full(n, np.inf)
        slot = np.full(n, _NO_SLOT, dtype=np.int64)
        if self.num_primitives and n:
            with np.errstate(over="ignore", invalid="ignore"):
                self._traverse(origins, directions, t_min, best_t, slot)
        return np.where(slot == _NO_SLOT, -1, slot), best_t

    def any_hit_packet(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6, t_max=np.inf,
        wave: Optional[int] = None, seed: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized occlusion query; ``t_max`` may be per-ray.  A packet of
        several lights' shadow rays passes one light's ray count as
        ``wave``, so each light's group is walked as a one-light packet
        would be.  ``seed`` names a leaf slot per ray to test before the
        walk (a shadow ray's own hit: a surface facing away from the light
        occludes itself); a slot outside ``[0, size)`` is no seed."""
        n = origins.shape[0]
        occluded = np.zeros(n, dtype=bool)
        if self.num_primitives and n:
            tmax = broadcast_tmax(t_max, n)
            with np.errstate(over="ignore", invalid="ignore"):
                self._traverse(origins, directions, t_min, tmax, occluded=occluded, wave=wave,
                               seed=seed)
        return occluded


def scene_flat_index(scene: "Scene"):
    """The scene's traversal index (:attr:`Scene.index`, built lazily).

    A BVH-indexed scene's index is its :class:`FlatBVH`; a brute-force
    index is already array-batched and stands in unchanged.
    """
    return scene.index
