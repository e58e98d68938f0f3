"""Bounding-volume hierarchy (Goldsmith & Salmon insertion construction).

The paper's Cast function traverses a BVH "which builds a hierarchical
representation of 3D objects ... when adding an object to the BVH, it inserts
the bounding volume that contains the object at the optimal place in the
hierarchy using a branch-and-bound algorithm, which minimizes the cost
estimation based on the surface area" [Goldsmith & Salmon 1987].

:class:`BVH` implements exactly that incremental construction:

* each candidate insertion position is scored by the *increase in total
  surface area* it would cause (the inherited-cost bound of the paper);
* branch-and-bound: a subtree is only descended if its local bound is not
  already worse than the best complete candidate found so far;
* leaves hold a single primitive; inserting into a leaf splits it into an
  internal node with two children.

The node tree answers the scalar queries of the ``scalar`` render mode;
the ``fused`` mode traverses its flat compilation
(:class:`~repro.raytracer.flatbvh.FlatBVH`).  A :class:`BruteForceIndex`
with the same query interface serves as the correctness oracle in tests
and as the "no acceleration structure" baseline for the ablation
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.raytracer.geometry.aabb import AABB
from repro.raytracer.geometry.primitives import Primitive
from repro.raytracer.ray import Ray
from repro.raytracer.vec import broadcast_tmax

__all__ = ["BVHNode", "BVH", "BruteForceIndex", "TraversalStats"]


@dataclass
class TraversalStats:
    """Counters collected during intersection queries (for tests/benches)."""

    node_visits: int = 0
    primitive_tests: int = 0

    def reset(self) -> None:
        self.node_visits = 0
        self.primitive_tests = 0


class BVHNode:
    """One node of the hierarchy: a bounding box plus children or a primitive."""

    __slots__ = ("box", "left", "right", "primitive", "parent")

    def __init__(
        self,
        box: AABB,
        primitive: Optional[Primitive] = None,
        left: Optional["BVHNode"] = None,
        right: Optional["BVHNode"] = None,
        parent: Optional["BVHNode"] = None,
    ):
        self.box = box
        self.primitive = primitive
        self.left = left
        self.right = right
        self.parent = parent

    @property
    def is_leaf(self) -> bool:
        return self.primitive is not None

    def depth(self) -> int:
        """Height of the subtree rooted at this node (leaf = 1).

        Iterative: a degenerate insertion order (e.g. collinear spheres
        added in sequence) builds an O(n) chain, and the previous recursive
        formulation blew Python's recursion limit on large scenes.
        """
        best = 0
        stack = [(self, 1)]
        while stack:
            node, level = stack.pop()
            if level > best:
                best = level
            if node.is_leaf:
                continue
            if node.left is not None:
                stack.append((node.left, level + 1))
            if node.right is not None:
                stack.append((node.right, level + 1))
        return best


class BVH:
    """Incrementally built bounding-volume hierarchy."""

    def __init__(self, primitives: Iterable[Primitive] = ()):
        self.root: Optional[BVHNode] = None
        self.size = 0
        self.stats = TraversalStats()
        self._packet_primitives: Optional[List[Primitive]] = None
        self._leaf_by_prim: Optional[Dict[int, BVHNode]] = None
        for primitive in primitives:
            self.insert(primitive)

    # -- pickling ----------------------------------------------------------
    def __getstate__(self):
        # the refit lookup is keyed by id(primitive); those ids do not
        # survive pickling, so ship the tree without the derived caches and
        # let the unpickled copy rebuild them lazily
        state = self.__dict__.copy()
        state["_packet_primitives"] = None
        state["_leaf_by_prim"] = None
        return state

    # -- construction ------------------------------------------------------
    def insert(self, primitive: Primitive) -> None:
        """Insert one primitive at the cheapest position (surface-area cost)."""
        if not primitive.is_bounded:
            raise ValueError(
                f"unbounded primitive {primitive!r} cannot be stored in a BVH; "
                "keep it on the scene's unbounded list"
            )
        leaf_box = primitive.bounding_box()
        new_leaf = BVHNode(leaf_box, primitive=primitive)
        self.size += 1
        self._packet_primitives = None  # invalidate the leaf-order list
        self._leaf_by_prim = None
        if self.root is None:
            self.root = new_leaf
            return
        sibling = self._find_best_sibling(leaf_box)
        self._attach(sibling, new_leaf)

    def _find_best_sibling(self, box: AABB) -> BVHNode:
        """Branch-and-bound search for the node to pair with the new leaf.

        The cost of choosing node ``n`` as sibling is the surface area of the
        merged box plus the *inherited* increase in surface area of all of
        ``n``'s ancestors.  A subtree is pruned when its lower bound (the
        inherited cost plus the raw area of the new box) already exceeds the
        best known candidate.
        """
        assert self.root is not None
        best_node = self.root
        best_cost = box.union(self.root.box).surface_area()
        new_area = box.surface_area()
        # stack of (node, inherited_cost)
        stack: List[Tuple[BVHNode, float]] = [(self.root, 0.0)]
        while stack:
            node, inherited = stack.pop()
            merged_area = box.union(node.box).surface_area()
            direct_cost = merged_area + inherited
            if direct_cost < best_cost:
                best_cost = direct_cost
                best_node = node
            if node.is_leaf:
                continue
            # inherited cost for children: this node's box will grow to
            # include the new leaf no matter where below it ends up
            child_inherited = inherited + (merged_area - node.box.surface_area())
            lower_bound = child_inherited + new_area
            if lower_bound < best_cost:
                if node.left is not None:
                    stack.append((node.left, child_inherited))
                if node.right is not None:
                    stack.append((node.right, child_inherited))
        return best_node

    def _attach(self, sibling: BVHNode, new_leaf: BVHNode) -> None:
        """Splice ``new_leaf`` next to ``sibling`` under a new internal node."""
        old_parent = sibling.parent
        merged = sibling.box.union(new_leaf.box)
        new_internal = BVHNode(merged, left=sibling, right=new_leaf, parent=old_parent)
        sibling.parent = new_internal
        new_leaf.parent = new_internal
        if old_parent is None:
            self.root = new_internal
        else:
            if old_parent.left is sibling:
                old_parent.left = new_internal
            else:
                old_parent.right = new_internal
        # refit ancestor boxes
        node = old_parent
        while node is not None:
            node.box = node.left.box.union(node.right.box)  # type: ignore[union-attr]
            node = node.parent

    def refit(self, primitives: Iterable[Primitive]) -> None:
        """Re-tighten leaf and ancestor boxes after in-place geometry edits.

        ``primitives`` are objects already stored in this BVH whose shape
        changed (a sphere moved, a triangle vertex shifted).  The tree
        *topology* is untouched: every leaf keeps its slot, so
        :attr:`packet_primitives` order — and with it the exact-``t``
        tie-break of the flat traversal — is preserved.  Boxes are
        updated in two phases (all leaf boxes first, then each leaf's
        root path re-unioned bottom-up), which leaves every ancestor equal
        to the union of its final children regardless of how moved leaves
        share ancestors.

        Cost is O(k · depth) for k moved primitives — for the small deltas
        of an animation frame this is far below the O(n log n) rebuild the
        mutation path would otherwise pay every frame.
        """
        if self.root is None:
            return
        leaf_by_prim = self._leaf_by_prim
        if leaf_by_prim is None:
            leaf_by_prim = {id(leaf.primitive): leaf for leaf in self.leaves()}
            self._leaf_by_prim = leaf_by_prim
        touched: List[BVHNode] = []
        for primitive in primitives:
            leaf = leaf_by_prim.get(id(primitive))
            if leaf is None:
                raise KeyError(f"{primitive!r} is not stored in this BVH")
            leaf.box = primitive.bounding_box()
            touched.append(leaf)
        for leaf in touched:
            node = leaf.parent
            while node is not None:
                node.box = node.left.box.union(node.right.box)  # type: ignore[union-attr]
                node = node.parent

    # -- queries -------------------------------------------------------------
    def intersect(
        self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf
    ) -> Tuple[Optional[Primitive], Optional[float]]:
        """Closest primitive hit by the ray, or ``(None, None)``."""
        if self.root is None:
            return None, None
        best_primitive: Optional[Primitive] = None
        best_t = t_max
        stack: List[BVHNode] = [self.root]
        while stack:
            node = stack.pop()
            self.stats.node_visits += 1
            if not node.box.intersects_ray(ray, t_min, best_t):
                continue
            if node.is_leaf:
                self.stats.primitive_tests += 1
                t = node.primitive.intersect(ray, t_min, best_t)  # type: ignore[union-attr]
                if t is not None and t < best_t:
                    best_t = t
                    best_primitive = node.primitive
                continue
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        if best_primitive is None:
            return None, None
        return best_primitive, best_t

    def any_hit(self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf) -> bool:
        """Early-exit occlusion query used for shadow rays."""
        if self.root is None:
            return False
        stack: List[BVHNode] = [self.root]
        while stack:
            node = stack.pop()
            self.stats.node_visits += 1
            if not node.box.intersects_ray(ray, t_min, t_max):
                continue
            if node.is_leaf:
                self.stats.primitive_tests += 1
                if node.primitive.intersect(ray, t_min, t_max) is not None:  # type: ignore[union-attr]
                    return True
                continue
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return False

    @property
    def packet_primitives(self) -> List[Primitive]:
        """Leaf primitives in traversal order (the flat BVH's leaf slots).

        :class:`~repro.raytracer.flatbvh.FlatBVH` compiles its leaves in
        this order, so packet hit indices refer to these rows.  The list
        object is replaced on every :meth:`insert`; the packet caches use
        its identity to detect in-place index growth.
        """
        if self._packet_primitives is None:
            self._packet_primitives = [leaf.primitive for leaf in self.leaves()]
        return self._packet_primitives

    # -- invariants (used by property-based tests) -------------------------------
    def leaves(self) -> List[BVHNode]:
        result: List[BVHNode] = []
        if self.root is None:
            return result
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                result.append(node)
            else:
                if node.left is not None:
                    stack.append(node.left)
                if node.right is not None:
                    stack.append(node.right)
        return result

    def check_invariants(self) -> bool:
        """Every node's box contains its children; every leaf holds one primitive."""
        if self.root is None:
            return self.size == 0
        stack = [self.root]
        count = 0
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
                if not node.box.contains_box(node.primitive.bounding_box()):  # type: ignore[union-attr]
                    return False
            else:
                if node.left is None or node.right is None:
                    return False
                if not node.box.contains_box(node.left.box):
                    return False
                if not node.box.contains_box(node.right.box):
                    return False
                stack.append(node.left)
                stack.append(node.right)
        return count == self.size

    def depth(self) -> int:
        return self.root.depth() if self.root else 0

    def total_surface_area(self) -> float:
        """Sum of internal-node surface areas (the construction cost metric)."""
        total = 0.0
        if self.root is None:
            return total
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                total += node.box.surface_area()
                stack.append(node.left)  # type: ignore[arg-type]
                stack.append(node.right)  # type: ignore[arg-type]
        return total


class BruteForceIndex:
    """Linear scan over all primitives; the oracle/baseline index."""

    def __init__(self, primitives: Iterable[Primitive] = ()):
        self.primitives: List[Primitive] = list(primitives)
        self.stats = TraversalStats()

    def insert(self, primitive: Primitive) -> None:
        self.primitives.append(primitive)

    @property
    def size(self) -> int:
        return len(self.primitives)

    def intersect(
        self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf
    ) -> Tuple[Optional[Primitive], Optional[float]]:
        best_primitive: Optional[Primitive] = None
        best_t = t_max
        for primitive in self.primitives:
            self.stats.primitive_tests += 1
            t = primitive.intersect(ray, t_min, best_t)
            if t is not None and t < best_t:
                best_t = t
                best_primitive = primitive
        if best_primitive is None:
            return None, None
        return best_primitive, best_t

    def any_hit(self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf) -> bool:
        for primitive in self.primitives:
            self.stats.primitive_tests += 1
            if primitive.intersect(ray, t_min, t_max) is not None:
                return True
        return False

    # -- packet queries -----------------------------------------------------
    @property
    def packet_primitives(self) -> List[Primitive]:
        return self.primitives

    def intersect_packet(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = origins.shape[0]
        best_t = np.full(n, np.inf)
        best_index = np.full(n, -1, dtype=np.int64)
        for index, primitive in enumerate(self.primitives):
            self.stats.primitive_tests += n
            t = primitive.intersect_block(origins, directions, t_min, best_t)
            closer = t < best_t
            best_t[closer] = t[closer]
            best_index[closer] = index
        return best_index, best_t

    def any_hit_packet(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6, t_max=np.inf
    ) -> np.ndarray:
        n = origins.shape[0]
        occluded = np.zeros(n, dtype=bool)
        tmax = broadcast_tmax(t_max, n)
        for primitive in self.primitives:
            active = (~occluded).nonzero()[0]
            if active.size == 0:
                break
            self.stats.primitive_tests += int(active.size)
            t = primitive.intersect_block(
                origins[active], directions[active], t_min, tmax[active]
            )
            occluded[active[np.isfinite(t)]] = True
        return occluded
