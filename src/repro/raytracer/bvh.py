"""Traversal counters and the brute-force oracle index.

The paper's Cast function traverses a BVH "which builds a hierarchical
representation of 3D objects ... when adding an object to the BVH, it inserts
the bounding volume that contains the object at the optimal place in the
hierarchy using a branch-and-bound algorithm, which minimizes the cost
estimation based on the surface area" [Goldsmith & Salmon 1987].

This repository keeps that surface-area cost model but not the incremental
insertion: :meth:`FlatBVH.build <repro.raytracer.flatbvh.FlatBVH.build>`
builds the tree top-down with a full-sweep surface-area heuristic over NumPy
box arrays.  Insertion pays one Python branch-and-bound search per
primitive and yields a tree whose quality depends on the insertion order
(the scene seed); the top-down sweep sees every primitive at once, is
deterministic, builds an order of magnitude faster and visits fewer nodes
per ray.  The built tree is the one structure that is traversed (scalar and
packet queries), refit after edits and shipped to workers.

:class:`BruteForceIndex` answers the same queries by a linear scan: it is
the correctness oracle of the tests and the "no acceleration structure"
baseline (``Scene(use_bvh=False)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.raytracer.geometry.primitives import Primitive
from repro.raytracer.ray import Ray
from repro.raytracer.vec import broadcast_tmax

__all__ = ["BruteForceIndex", "TraversalStats"]


@dataclass
class TraversalStats:
    """Counters collected during intersection queries (for tests/benches)."""

    node_visits: int = 0
    primitive_tests: int = 0

    def reset(self) -> None:
        self.node_visits = 0
        self.primitive_tests = 0


class BruteForceIndex:
    """Linear scan over all primitives; the oracle/baseline index."""

    def __init__(self, primitives: Iterable[Primitive] = ()):
        self.primitives: List[Primitive] = list(primitives)
        self.stats = TraversalStats()

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
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6, t_max=np.inf,
        wave: Optional[int] = None, seed: Optional[np.ndarray] = None,  # a scan needs neither
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
