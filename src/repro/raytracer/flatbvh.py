"""Flat SoA compilation of the BVH: the traversal of the fused render path.

The node-based :class:`~repro.raytracer.bvh.BVH` is the construction
structure (Goldsmith–Salmon insertion, refit after edits) and answers the
scalar oracle's per-ray queries.  Walking its Python node objects with a
ray packet would pay one NumPy dispatch chain per visited node and one
``intersect_block`` call per visited *leaf*; :class:`FlatBVH` removes both
costs without changing a single pixel:

* the tree is **compiled** into contiguous structure-of-arrays storage
  (``box_min``/``box_max`` ``(m, 3)``, ``left``/``right``/``skip``/
  ``primitive_index`` int arrays) laid out depth-first, right child first
  (the order of :meth:`BVH.leaves`), so one subtree is one contiguous
  index range and leaf slots coincide with ``BVH.packet_primitives`` rows;
* leaf primitives are grouped **by kernel type** into batched parameter
  arrays (sphere centres/radii, triangle vertices, a generic fallback
  list), with per-type prefix-count arrays — the leaves under any subtree
  form a contiguous slice of each parameter array;
* traversal keeps an explicit index stack of ``(node, active-ray-indices)``
  pairs and a **batch budget**: as soon as a subtree is small enough
  relative to the surviving packet, all its leaves are tested in one 2-D
  ``(rays x leaves)`` NumPy kernel instead of one dispatch per leaf.

The batched kernels reproduce :meth:`Sphere.intersect_block` /
:meth:`Triangle.intersect_block` operation-for-operation and the looser
``t_max`` bound used at batch time can only *admit* extra candidates (the
per-ray minimum over a leaf range is taken afterwards), so every ray gets
the closest hit a linear scan finds.  The scalar ``BVH`` queries and
:class:`~repro.raytracer.bvh.BruteForceIndex` are the correctness oracles;
``tests/raytracer/test_flatbvh.py`` and the property suite pin exact
equality against them.

:func:`scene_flat_index` caches the compiled ``FlatBVH`` on the scene
beside :class:`~repro.raytracer.packet.ScenePacketData` and applies the
same three staleness rules (rebuilt index object, in-place ``BVH.insert``,
grown brute-force list); :meth:`Scene.invalidate_packet_cache` drops both
caches explicitly (in-place ``Material`` mutation is invisible to the
staleness checks).  Edits committed through the mutation journal
(:meth:`Scene.begin_edit`) need no manual invalidation: ``commit()`` refits
the node BVH in place (which the staleness rules cannot see) and carries
the cached ``FlatBVH`` across the same edit with :func:`refit_flat_index`
— O(k · depth) for k moved primitives, where a recompile walks every node
— and drops ``_packet_data`` after material edits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

import copy

import numpy as np

from repro.raytracer.bvh import BVH, TraversalStats
from repro.raytracer.geometry.primitives import Primitive, Sphere, Triangle
from repro.raytracer.vec import broadcast_tmax

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.raytracer.scene import Scene

__all__ = ["FlatBVH", "refit_flat_index", "scene_flat_index"]

#: treat a direction component below this as parallel to the slab axis
#: (must match ``AABB.intersects_ray`` so the flat and scalar traversals
#: gate the same candidate set on degenerate rays)
_DEGENERATE = 1e-15

#: sentinel slot larger than any real leaf slot (tie-break folding)
_NO_SLOT = np.iinfo(np.int64).max


class FlatBVH:
    """Contiguous SoA compilation of a node-based :class:`BVH`.

    Built with :meth:`from_bvh`; immutable afterwards (a mutated ``BVH`` is
    recompiled by :func:`scene_flat_index` via the shared staleness rules,
    or, after a :meth:`BVH.refit`, replaced by :meth:`refitted`).
    Exposes the same packet query interface as :class:`BruteForceIndex` —
    ``intersect_packet`` / ``any_hit_packet`` / ``packet_primitives`` /
    ``stats`` — so either can serve as the traversal index of
    :func:`~repro.raytracer.packet.cast_packet`.
    """

    #: max ``active_rays * subtree_leaves`` elements for a batched leaf
    #: test; above it the traversal keeps descending (pruning beats
    #: batching while the product is large)
    BATCH_WORK = 8192

    def __init__(self) -> None:
        self.source: Optional[BVH] = None
        self.primitives: List[Primitive] = []
        self.num_primitives = 0
        self.stats = TraversalStats()
        # node arrays (m = 2 * leaves - 1 for a non-empty tree)
        self.box_min = np.zeros((0, 3))
        self.box_max = np.zeros((0, 3))
        self.left = np.zeros(0, dtype=np.int64)
        self.right = np.zeros(0, dtype=np.int64)
        self.skip = np.zeros(0, dtype=np.int64)
        self.primitive_index = np.zeros(0, dtype=np.int64)
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
    def from_bvh(cls, bvh: BVH) -> "FlatBVH":
        """Compile ``bvh`` into flat arrays (iterative — no recursion)."""
        flat = cls()
        flat.source = bvh
        flat.primitives = bvh.packet_primitives  # shared list, leaf order
        flat.num_primitives = len(flat.primitives)
        if bvh.root is None:
            return flat
        # depth-first layout in the exact order BVH.leaves() visits (right
        # child first), so leaf slots coincide with packet-primitive rows
        nodes = []
        stack = [bvh.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                stack.append(node.left)
                stack.append(node.right)
        m = len(nodes)
        pos = {id(node): i for i, node in enumerate(nodes)}
        flat.box_min = np.empty((m, 3))
        flat.box_max = np.empty((m, 3))
        flat.left = np.full(m, -1, dtype=np.int64)
        flat.right = np.full(m, -1, dtype=np.int64)
        flat.skip = np.empty(m, dtype=np.int64)
        flat.primitive_index = np.full(m, -1, dtype=np.int64)
        is_leaf = np.zeros(m, dtype=np.int64)
        leaf_slot = 0
        for i, node in enumerate(nodes):
            flat.box_min[i] = node.box.minimum
            flat.box_max[i] = node.box.maximum
            if node.is_leaf:
                is_leaf[i] = 1
                flat.primitive_index[i] = leaf_slot
                if node.primitive is not bvh.packet_primitives[leaf_slot]:
                    raise AssertionError(
                        "flat leaf order diverged from BVH.packet_primitives"
                    )
                leaf_slot += 1
            else:
                flat.left[i] = pos[id(node.left)]
                flat.right[i] = pos[id(node.right)]
        # skip pointers: subtree of i occupies [i, skip[i]); the right child
        # starts at i + 1 and ends where the left child starts
        flat.skip[0] = m
        for i in range(m):
            li, ri = flat.left[i], flat.right[i]
            if li >= 0:
                flat.skip[ri] = li
                flat.skip[li] = flat.skip[i]
        # leaf ranges: leaves before position i (exclusive prefix over layout)
        leaf_before = np.concatenate(([0], np.cumsum(is_leaf)))
        flat.first_leaf = leaf_before[:m]
        flat.leaf_end = leaf_before[flat.skip]
        internal = np.flatnonzero(flat.left >= 0)
        flat.parent = np.full(m, -1, dtype=np.int64)
        flat.parent[flat.left[internal]] = internal
        flat.parent[flat.right[internal]] = internal
        leaves = np.flatnonzero(is_leaf)
        flat.leaf_node = np.empty(leaves.size, dtype=np.int64)
        flat.leaf_node[flat.primitive_index[leaves]] = leaves
        # per-kind parameter arrays in leaf-slot order
        prims = flat.primitives
        kinds = np.zeros(len(prims), dtype=np.int64)  # 0=sphere 1=tri 2=other
        spheres: List[Sphere] = []
        tris: List[Triangle] = []
        sph_slots: List[int] = []
        tri_slots: List[int] = []
        for slot, prim in enumerate(prims):
            if type(prim) is Sphere:
                spheres.append(prim)
                sph_slots.append(slot)
            elif type(prim) is Triangle:
                kinds[slot] = 1
                tris.append(prim)
                tri_slots.append(slot)
            else:
                kinds[slot] = 2
                flat.other_prims.append((slot, prim))
        if spheres:
            flat.sphere_center = np.stack([s.center for s in spheres])
            flat.sphere_r2 = np.array([s.radius * s.radius for s in spheres])
            flat.sphere_slot = np.array(sph_slots, dtype=np.int64)
        if tris:
            flat.tri_v0 = np.stack([t.v0 for t in tris])
            flat.tri_edge1 = np.stack([t.v1 - t.v0 for t in tris])
            flat.tri_edge2 = np.stack([t.v2 - t.v0 for t in tris])
            flat.tri_slot = np.array(tri_slots, dtype=np.int64)
        flat.sphere_before = np.concatenate(([0], np.cumsum(kinds == 0)))
        flat.tri_before = np.concatenate(([0], np.cumsum(kinds == 1)))
        flat.other_before = np.concatenate(([0], np.cumsum(kinds == 2)))
        return flat

    def refitted(self, primitives: Iterable[Primitive]) -> "FlatBVH":
        """A copy updated for in-place geometry edits of ``primitives``.

        The flat mirror of :meth:`BVH.refit`: every moved primitive's leaf
        box and kernel parameters are re-read, then every ancestor of a
        moved leaf is re-unioned from its children, bottom-up.  The topology, leaf
        order and the other primitives' rows are shared with ``self``, so
        the result is bit-identical to ``FlatBVH.from_bvh`` of the refit
        tree at O(k · depth) instead of a walk over every node.  ``self``
        is left untouched (a render still holding it sees a consistent
        index).
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

    # -- interface parity with BVH/BruteForceIndex ---------------------------
    @property
    def size(self) -> int:
        return self.num_primitives

    @property
    def packet_primitives(self) -> List[Primitive]:
        """Leaf primitives in traversal order; hit indices refer here."""
        return self.primitives

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
    """The scene's traversal index for the fused path, compiled and cached.

    For a BVH-indexed scene this returns a (cached) :class:`FlatBVH`
    compiled from ``scene.index``; a brute-force-indexed scene returns the
    index itself (it is already array-batched).  Staleness mirrors
    :func:`~repro.raytracer.packet.scene_packet_data` exactly: a rebuilt
    index object (``Scene.add``), an in-place ``BVH.insert`` (leaf list
    object swapped), or a grown brute-force list.  In-place ``Material``
    mutation does not alter geometry, so the compiled arrays stay valid;
    call :meth:`Scene.invalidate_packet_cache` after mutating primitives
    in place.
    """
    index = scene.index  # also populates the unbounded list
    if not isinstance(index, BVH):
        return index
    cached = _current_flat_index(scene, index)
    if cached is not None:
        return cached
    flat = FlatBVH.from_bvh(index)
    scene._flat_index = flat
    return flat


def _current_flat_index(scene: "Scene", index: BVH) -> Optional[FlatBVH]:
    """The scene's cached flat index if it still mirrors ``index``."""
    cached = getattr(scene, "_flat_index", None)
    if (
        cached is not None
        and cached.source is index
        and cached.primitives is index.packet_primitives
        and cached.num_primitives == len(cached.primitives)
    ):
        return cached
    return None


def refit_flat_index(scene: "Scene", moved: Sequence[Primitive]) -> None:
    """Carry the cached flat index across ``scene.index.refit(moved)``.

    Call after the node BVH was refit for the in-place geometry edits of
    ``moved``.  A still-current cached index is replaced by its
    :meth:`FlatBVH.refitted` copy; a stale or missing one is dropped, and
    the next :func:`scene_flat_index` compiles from the refit tree.
    """
    index = scene._index
    cached = _current_flat_index(scene, index) if isinstance(index, BVH) else None
    scene._flat_index = cached.refitted(moved) if cached is not None else None
