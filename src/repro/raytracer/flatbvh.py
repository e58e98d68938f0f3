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
  sweep, a handful of NumPy calls per node, no per-primitive Python insert)
  and takes the cheapest, lowest axis and position first on ties.  The
  upper part along the split axis becomes the child both traversals visit
  first: the scene generators' cameras look down ``-z``, so near geometry
  is tested first and its hits cull the far child (about 30 % fewer node
  visits than the opposite order on the benchmark scenes).  The result is
  deterministic — the same primitives in the same order give bit-identical
  arrays — and each leaf holds one primitive.
* **Layout.**  ``box_min``/``box_max`` ``(m, 3)`` and ``left``/``right``/
  ``skip``/``first_leaf``/``leaf_end``/``parent`` int arrays
  (``m = 2 n - 1``) in pre-order with the right child at ``i + 1``, so the
  subtree of node ``i`` is the index range ``[i, skip[i])`` and its leaves
  are the leaf slots ``[first_leaf[i], leaf_end[i])``; ``leaf_node`` maps a
  leaf slot back to its node.  Leaf slots are the rows of
  :attr:`FlatBVH.packet_primitives`.  Every internal box is the exact
  union of its children's boxes and every leaf box its primitive's box.
* **Leaf kernels.**  Leaf primitives are grouped by kernel type into
  batched parameter arrays (sphere centres/radii, triangle vertices, a
  generic fallback list) with per-type prefix counts, so the leaves under
  any subtree form a contiguous slice of each parameter array.
* **Packet traversal** (the ``fused`` render path) keeps an explicit index
  stack of ``(node, active-ray-indices)`` pairs and a batch budget: once a
  subtree is small enough relative to the surviving packet, all its leaves
  are tested in one 2-D ``(rays x leaves)`` NumPy kernel.  The batched
  kernels reproduce :meth:`Sphere.intersect_block` /
  :meth:`Triangle.intersect_block` operation-for-operation, and ties in
  exact ``t`` resolve to the lower leaf slot.
* **Scalar traversal** (the ``scalar`` oracle mode) walks the same arrays
  in layout order with one ray and tests each leaf with the primitive's own
  scalar ``intersect``, so it checks the batched kernels independently and
  resolves exact-``t`` ties to the lower leaf slot as well.

:class:`~repro.raytracer.bvh.BruteForceIndex` is the correctness oracle;
``tests/raytracer/test_flatbvh.py``, ``tests/raytracer/test_bvh.py`` and
the property suite pin the builder invariants and exact equality against
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

import copy

import numpy as np

from repro.raytracer.bvh import TraversalStats
from repro.raytracer.geometry.aabb import slab_hit
from repro.raytracer.geometry.primitives import Primitive, Sphere, Triangle
from repro.raytracer.ray import Ray
from repro.raytracer.vec import broadcast_tmax

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
    """Half the surface area of the boxes ``[lo, hi]`` (last axis: x, y, z)."""
    e = hi - lo
    return e[..., 0] * e[..., 1] + e[..., 1] * e[..., 2] + e[..., 2] * e[..., 0]


def _sah_split(
    lo: np.ndarray, hi: np.ndarray, centroid: np.ndarray
) -> Tuple[np.ndarray, int]:
    """The cheapest surface-area split of ``k >= 2`` boxes.

    Returns ``(ranked, count)``: the box rows sorted by descending centroid
    along the chosen axis and the number of them that form the first
    child — the upper half, which the traversal visits first.
    """
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

    #: max ``active_rays * subtree_leaves`` elements for a batched leaf
    #: test; above it the traversal keeps descending (pruning beats
    #: batching while the product is large)
    BATCH_WORK = 8192

    def __init__(self) -> None:
        self.primitives: List[Primitive] = []
        self.num_primitives = 0
        self.stats = TraversalStats()
        # node arrays (m = 2 * leaves - 1 for a non-empty tree)
        self.box_min = np.zeros((0, 3))
        self.box_max = np.zeros((0, 3))
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
        n = len(prims)
        if n == 0:
            return flat
        boxes = [prim.bounding_box() for prim in prims]
        lo = np.array([box.minimum for box in boxes], dtype=np.float64)
        hi = np.array([box.maximum for box in boxes], dtype=np.float64)
        centroid = 0.5 * (lo + hi)
        m = 2 * n - 1
        order = np.arange(n)  # leaf slot -> input row, settled top-down
        flat.box_min = np.empty((m, 3))
        flat.box_max = np.empty((m, 3))
        flat.left = np.full(m, -1, dtype=np.int64)
        flat.right = np.full(m, -1, dtype=np.int64)
        flat.first_leaf = np.empty(m, dtype=np.int64)
        flat.leaf_end = np.empty(m, dtype=np.int64)
        # node i covers leaf slots [a, b); its first `count` slots form the
        # right child at i + 1 and the rest the left child, laid out after
        # the right subtree's 2 * count - 1 nodes
        stack = [(0, 0, n)]
        while stack:
            i, a, b = stack.pop()
            flat.first_leaf[i], flat.leaf_end[i] = a, b
            rows = order[a:b]
            row_lo, row_hi = lo[rows], hi[rows]
            flat.box_min[i] = row_lo.min(axis=0)
            flat.box_max[i] = row_hi.max(axis=0)
            if b - a == 1:
                continue
            ranked, count = _sah_split(row_lo, row_hi, centroid[rows])
            order[a:b] = rows[ranked]
            flat.right[i] = i + 1
            flat.left[i] = i + 2 * count
            stack.append((i + 2 * count, a + count, b))
            stack.append((i + 1, a, a + count))
        flat.skip = np.arange(m) + 2 * (flat.leaf_end - flat.first_leaf) - 1
        internal = np.flatnonzero(flat.left >= 0)
        flat.parent = np.full(m, -1, dtype=np.int64)
        flat.parent[flat.left[internal]] = internal
        flat.parent[flat.right[internal]] = internal
        leaves = np.flatnonzero(flat.left < 0)
        flat.leaf_node = np.empty(n, dtype=np.int64)
        flat.leaf_node[flat.first_leaf[leaves]] = leaves
        flat._pack_leaves([prims[row] for row in order])
        return flat

    def _pack_leaves(self, prims: List[Primitive]) -> None:
        """Fill the per-kind leaf parameter arrays, in leaf-slot order."""
        self.primitives = prims
        self.num_primitives = len(prims)
        kinds = np.array([_KIND.get(type(prim), 2) for prim in prims], dtype=np.int64)
        self.sphere_slot = np.flatnonzero(kinds == 0)
        self.tri_slot = np.flatnonzero(kinds == 1)
        self.other_prims = [(int(slot), prims[slot]) for slot in np.flatnonzero(kinds == 2)]
        spheres = [prims[slot] for slot in self.sphere_slot]
        tris = [prims[slot] for slot in self.tri_slot]
        if spheres:
            self.sphere_center = np.stack([s.center for s in spheres])
            self.sphere_r2 = np.array([s.radius * s.radius for s in spheres])
        if tris:
            self.tri_v0 = np.stack([t.v0 for t in tris])
            self.tri_edge1 = np.stack([t.v1 - t.v0 for t in tris])
            self.tri_edge2 = np.stack([t.v2 - t.v0 for t in tris])
        self.sphere_before, self.tri_before, self.other_before = (
            np.concatenate(([0], np.cumsum(kinds == kind))) for kind in range(3)
        )

    def refitted(self, primitives: Iterable[Primitive]) -> "FlatBVH":
        """A copy updated for in-place geometry edits of ``primitives``.

        Every moved primitive's leaf box and kernel parameters are re-read,
        then every ancestor of a moved leaf is re-unioned from its children,
        bottom-up, so every internal box is again the exact union of its
        children — at O(k · depth) for k moved primitives.  The topology and
        leaf order are kept (exact-``t`` tie-breaks cannot flip) and the
        other primitives' rows are shared with ``self``; ``self`` is left
        untouched (a render still holding it sees a consistent index).
        """
        slot_by_prim = self._slot_by_prim
        if slot_by_prim is None:
            slot_by_prim = {id(prim): slot for slot, prim in enumerate(self.primitives)}
            self._slot_by_prim = slot_by_prim
        flat = copy.copy(self)
        flat.stats = TraversalStats()
        for name in (
            "box_min", "box_max", "sphere_center", "sphere_r2",
            "tri_v0", "tri_edge1", "tri_edge2",
        ):
            setattr(flat, name, getattr(self, name).copy())
        touched: List[int] = []
        for prim in primitives:
            slot = slot_by_prim.get(id(prim))
            if slot is None:
                raise KeyError(f"{prim!r} is not stored in this flat BVH")
            node = int(flat.leaf_node[slot])
            box = prim.bounding_box()
            flat.box_min[node] = box.minimum
            flat.box_max[node] = box.maximum
            if type(prim) is Sphere:
                row = flat.sphere_before[slot]
                flat.sphere_center[row] = prim.center
                flat.sphere_r2[row] = prim.radius * prim.radius
            elif type(prim) is Triangle:
                row = flat.tri_before[slot]
                flat.tri_v0[row] = prim.v0
                flat.tri_edge1[row] = prim.v1 - prim.v0
                flat.tri_edge2[row] = prim.v2 - prim.v0
            touched.append(node)
        ancestors = set()
        for node in touched:
            i = int(flat.parent[node])
            while i >= 0 and i not in ancestors:
                ancestors.add(i)
                i = int(flat.parent[i])
        # the layout puts every parent before its children, so descending
        # positions re-union each node only after both its children
        for i in sorted(ancestors, reverse=True):
            li, ri = flat.left[i], flat.right[i]
            np.minimum(flat.box_min[li], flat.box_min[ri], out=flat.box_min[i])
            np.maximum(flat.box_max[li], flat.box_max[ri], out=flat.box_max[i])
        return flat

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
            if not slab_hit(self.box_min[i], self.box_max[i], ray, t_min, best_t):
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
            if not slab_hit(self.box_min[i], self.box_max[i], ray, t_min, t_max):
                continue
            if self.left[i] < 0:
                self.stats.primitive_tests += 1
                if self.primitives[self.first_leaf[i]].intersect(ray, t_min, t_max) is not None:
                    return True
                continue
            stack.append(int(self.left[i]))
            stack.append(int(self.right[i]))
        return False

    # -- traversal helpers ---------------------------------------------------
    def _packet_inverse(self, directions: np.ndarray) -> Tuple[np.ndarray, Any]:
        """Per-packet reciprocal directions plus the degenerate-axis mask.

        Computed once per packet instead of once per node: the per-node slab
        test reduces to two fused subtract-multiplies, a min/max pair and
        two reductions.  ``deg`` is ``None`` for packets without degenerate
        components (the overwhelmingly common case), which lets the hot loop
        skip the parallel-ray handling entirely.
        """
        deg = np.abs(directions) < _DEGENERATE
        if not deg.any():
            deg = None
            safe = directions
        else:
            safe = np.where(deg, 1.0, directions)
        return 1.0 / safe, deg

    def _box_mask(
        self,
        i: int,
        origins: np.ndarray,
        inv: np.ndarray,
        deg,
        t_min: float,
        hi0: np.ndarray,
    ) -> np.ndarray:
        """Slab test of node ``i`` for the active rays (bool mask).

        Same accept set as the scalar ``AABB.intersects_ray`` — including
        the parallel-ray rule: a degenerate axis leaves the interval
        unconstrained when the origin lies inside the slab and rejects the
        ray outright when it does not.
        """
        t0 = (self.box_min[i] - origins) * inv
        t1 = (self.box_max[i] - origins) * inv
        near = np.minimum(t0, t1)
        far = np.maximum(t0, t1)
        if deg is not None:
            near = np.where(deg, -np.inf, near)
            far = np.where(deg, np.inf, far)
        lo = np.maximum(near.max(axis=1), t_min)
        hi = np.minimum(far.min(axis=1), hi0)
        mask = lo <= hi
        if deg is not None:
            outside = (origins < self.box_min[i]) | (origins > self.box_max[i])
            mask &= ~(deg & outside).any(axis=1)
        return mask

    def _sphere_roots(
        self,
        s0: int,
        s1: int,
        origins: np.ndarray,
        directions: np.ndarray,
        t_min: float,
        tm: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Both roots of every ray against spheres ``[s0, s1)`` (2-D kernel).

        Returns ``(near, far, near_ok, far_ok)``, each ``(rays, spheres)``;
        a root is ok when it is real and inside ``[t_min, tm]``.
        """
        self.stats.primitive_tests += int(origins.shape[0] * (s1 - s0))
        oc = origins[:, None, :] - self.sphere_center[s0:s1]
        half_b = np.einsum("rsk,rk->rs", oc, directions)
        c = np.einsum("rsk,rsk->rs", oc, oc) - self.sphere_r2[s0:s1]
        disc = half_b * half_b - c
        valid = disc >= 0.0
        sqrt_d = np.sqrt(np.where(valid, disc, 0.0))
        near = -half_b - sqrt_d
        far = -half_b + sqrt_d
        near_ok = valid & (near >= t_min) & (near <= tm)
        far_ok = valid & (far >= t_min) & (far <= tm)
        return near, far, near_ok, far_ok

    def _triangle_hits(
        self,
        g0: int,
        g1: int,
        origins: np.ndarray,
        directions: np.ndarray,
        t_min: float,
        tm: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Möller–Trumbore for every ray against triangles ``[g0, g1)``.

        Returns ``(t, ok)``, each ``(rays, triangles)``; ``ok`` marks hits
        inside ``[t_min, tm]``.
        """
        self.stats.primitive_tests += int(origins.shape[0] * (g1 - g0))
        edge2 = self.tri_edge2[g0:g1]
        h = np.cross(directions[:, None, :], edge2[None, :, :])
        aa = np.einsum("rsk,sk->rs", h, self.tri_edge1[g0:g1])
        valid = np.abs(aa) >= 1e-12
        f = 1.0 / np.where(valid, aa, 1.0)
        s = origins[:, None, :] - self.tri_v0[g0:g1]
        u = f * np.einsum("rsk,rsk->rs", s, h)
        q = np.cross(s, self.tri_edge1[g0:g1][None, :, :])
        v = f * np.einsum("rk,rsk->rs", directions, q)
        cand = f * np.einsum("rsk,sk->rs", q, edge2)
        ok = (
            valid
            & (u >= 0.0)
            & (u <= 1.0)
            & (v >= 0.0)
            & (u + v <= 1.0)
            & (cand >= t_min)
            & (cand <= tm)
        )
        return cand, ok

    def _range_closest(
        self,
        a: int,
        b: int,
        origins: np.ndarray,
        directions: np.ndarray,
        t_min: float,
        tmax: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Closest hit among leaf slots ``[a, b)``: per-ray ``(t, slot)``.

        One 2-D kernel per primitive kind present in the range; the fold
        across kinds breaks exact-``t`` ties towards the lower leaf slot, so
        the result does not depend on how the range was batched.
        """
        r = origins.shape[0]
        best = np.full(r, np.inf)
        slot = np.full(r, _NO_SLOT, dtype=np.int64)
        tm = tmax[:, None]
        s0, s1 = self.sphere_before[a], self.sphere_before[b]
        g0, g1 = self.tri_before[a], self.tri_before[b]
        kinds = []
        if s1 > s0:
            near, far, near_ok, far_ok = self._sphere_roots(
                s0, s1, origins, directions, t_min, tm
            )
            ts = np.where(near_ok, near, np.where(far_ok, far, np.inf))
            kinds.append((ts, self.sphere_slot[s0:s1]))
        if g1 > g0:
            cand, ok = self._triangle_hits(g0, g1, origins, directions, t_min, tm)
            kinds.append((np.where(ok, cand, np.inf), self.tri_slot[g0:g1]))
        for ts, slots in kinds:
            col = np.argmin(ts, axis=1)
            t_kind = ts[np.arange(r), col]
            s_kind = slots[col]
            better = (t_kind < best) | ((t_kind == best) & (s_kind < slot))
            best = np.where(better, t_kind, best)
            slot = np.where(better & np.isfinite(t_kind), s_kind, slot)
        o0, o1 = self.other_before[a], self.other_before[b]
        for prim_slot, prim in self.other_prims[o0:o1]:
            self.stats.primitive_tests += int(r)
            ts = prim.intersect_block(origins, directions, t_min, tmax)
            better = (ts < best) | ((ts == best) & (prim_slot < slot))
            best = np.where(better, ts, best)
            slot = np.where(better & np.isfinite(ts), prim_slot, slot)
        return best, slot

    def _range_any(
        self,
        a: int,
        b: int,
        origins: np.ndarray,
        directions: np.ndarray,
        t_min: float,
        tmax: np.ndarray,
    ) -> np.ndarray:
        """Occlusion among leaf slots ``[a, b)``: per-ray bool."""
        r = origins.shape[0]
        hit = np.zeros(r, dtype=bool)
        tm = tmax[:, None]
        s0, s1 = self.sphere_before[a], self.sphere_before[b]
        if s1 > s0:
            _, _, near_ok, far_ok = self._sphere_roots(
                s0, s1, origins, directions, t_min, tm
            )
            hit |= (near_ok | far_ok).any(axis=1)
        g0, g1 = self.tri_before[a], self.tri_before[b]
        if g1 > g0 and not hit.all():
            _, ok = self._triangle_hits(g0, g1, origins, directions, t_min, tm)
            hit |= ok.any(axis=1)
        o0, o1 = self.other_before[a], self.other_before[b]
        for _, prim in self.other_prims[o0:o1]:
            if hit.all():
                break
            self.stats.primitive_tests += int(r)
            ts = prim.intersect_block(origins, directions, t_min, tmax)
            hit |= np.isfinite(ts)
        return hit

    # -- packet queries ------------------------------------------------------
    def intersect_packet(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Closest hit for a whole ray packet.

        Returns ``(indices, t)`` with indices into :attr:`packet_primitives`
        (``-1``/``np.inf`` for misses).
        """
        n = origins.shape[0]
        best_t = np.full(n, np.inf)
        best_index = np.full(n, -1, dtype=np.int64)
        if self.box_min.shape[0] == 0 or n == 0:
            return best_index, best_t
        inv, deg = self._packet_inverse(directions)
        stack: List[Tuple[int, np.ndarray]] = [(0, np.arange(n))]
        with np.errstate(over="ignore", invalid="ignore"):
            while stack:
                i, active = stack.pop()
                self.stats.node_visits += int(active.size)
                mask = self._box_mask(
                    i,
                    origins[active],
                    inv[active],
                    None if deg is None else deg[active],
                    t_min,
                    best_t[active],
                )
                active = active[mask]
                if active.size == 0:
                    continue
                a, b = int(self.first_leaf[i]), int(self.leaf_end[i])
                count = b - a
                if count == 1 or count * active.size <= self.BATCH_WORK:
                    t, slot = self._range_closest(
                        a, b, origins[active], directions[active], t_min, best_t[active]
                    )
                    closer = t < best_t[active]
                    hits = active[closer]
                    best_t[hits] = t[closer]
                    best_index[hits] = slot[closer]
                    continue
                # push left then right: the right child (laid out at i + 1)
                # pops first, walking the layout in order
                stack.append((int(self.left[i]), active))
                stack.append((int(self.right[i]), active))
        return best_index, best_t

    def any_hit_packet(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6, t_max=np.inf
    ) -> np.ndarray:
        """Vectorized occlusion query; ``t_max`` may be per-ray."""
        n = origins.shape[0]
        occluded = np.zeros(n, dtype=bool)
        if self.box_min.shape[0] == 0 or n == 0:
            return occluded
        tmax = broadcast_tmax(t_max, n)
        inv, deg = self._packet_inverse(directions)
        stack: List[Tuple[int, np.ndarray]] = [(0, np.arange(n))]
        with np.errstate(over="ignore", invalid="ignore"):
            while stack:
                i, active = stack.pop()
                active = active[~occluded[active]]
                if active.size == 0:
                    continue
                self.stats.node_visits += int(active.size)
                mask = self._box_mask(
                    i,
                    origins[active],
                    inv[active],
                    None if deg is None else deg[active],
                    t_min,
                    tmax[active],
                )
                active = active[mask]
                if active.size == 0:
                    continue
                a, b = int(self.first_leaf[i]), int(self.leaf_end[i])
                count = b - a
                if count == 1 or count * active.size <= self.BATCH_WORK:
                    hit = self._range_any(
                        a, b, origins[active], directions[active], t_min, tmax[active]
                    )
                    occluded[active[hit]] = True
                    continue
                stack.append((int(self.left[i]), active))
                stack.append((int(self.right[i]), active))
        return occluded


def scene_flat_index(scene: "Scene"):
    """The scene's traversal index (:attr:`Scene.index`, built lazily).

    A BVH-indexed scene's index is its :class:`FlatBVH`; a brute-force
    index is already array-batched and stands in unchanged.
    """
    return scene.index
