"""Axis-aligned bounding boxes.

Surface area is the cost metric of the BVH builder's split heuristic (which
prices boxes in bulk on arrays); :func:`slab_hit` is the scalar ray/box
test, shared by :meth:`AABB.intersects_ray` and the flat BVH's scalar
traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.raytracer.ray import Ray
from repro.raytracer.vec import Vector

__all__ = ["AABB", "slab_hit"]


def slab_hit(
    minimum: Vector, maximum: Vector, ray: Ray, t_min: float, t_max: float
) -> bool:
    """Slab test of the box ``[minimum, maximum]`` within ``[t_min, t_max]``.

    A direction component below ``1e-15`` counts as parallel to its slab:
    the ray is rejected when its origin lies outside that slab and the
    axis leaves the interval unconstrained otherwise.
    """
    origin = ray.origin
    direction = ray.direction
    for axis in range(3):
        d = direction[axis]
        if abs(d) < 1e-15:
            if origin[axis] < minimum[axis] or origin[axis] > maximum[axis]:
                return False
            continue
        inv = 1.0 / d
        t0 = (minimum[axis] - origin[axis]) * inv
        t1 = (maximum[axis] - origin[axis]) * inv
        if t0 > t1:
            t0, t1 = t1, t0
        t_min = max(t_min, t0)
        t_max = min(t_max, t1)
        if t_min > t_max:
            return False
    return True


@dataclass
class AABB:
    """An axis-aligned box given by its minimum and maximum corners."""

    minimum: Vector
    maximum: Vector

    def __post_init__(self) -> None:
        self.minimum = np.asarray(self.minimum, dtype=np.float64)
        self.maximum = np.asarray(self.maximum, dtype=np.float64)

    # -- constructors ------------------------------------------------------
    @classmethod
    def empty(cls) -> "AABB":
        """The empty box (union identity)."""
        return cls(np.full(3, np.inf), np.full(3, -np.inf))

    # -- queries ------------------------------------------------------------
    @property
    def extent(self) -> Vector:
        return np.maximum(self.maximum - self.minimum, 0.0)

    @property
    def centroid(self) -> Vector:
        return 0.5 * (self.minimum + self.maximum)

    def is_empty(self) -> bool:
        return bool(np.any(self.maximum < self.minimum))

    def surface_area(self) -> float:
        """Total surface area (the cost metric of the BVH's split heuristic)."""
        if self.is_empty():
            return 0.0
        ext = self.extent
        return float(2.0 * (ext[0] * ext[1] + ext[1] * ext[2] + ext[0] * ext[2]))

    def union(self, other: "AABB") -> "AABB":
        return AABB(
            np.minimum(self.minimum, other.minimum),
            np.maximum(self.maximum, other.maximum),
        )

    def contains_point(self, point: Vector) -> bool:
        return bool(np.all(point >= self.minimum - 1e-12) and np.all(point <= self.maximum + 1e-12))

    def contains_box(self, other: "AABB") -> bool:
        if other.is_empty():
            return True
        return bool(
            np.all(other.minimum >= self.minimum - 1e-12)
            and np.all(other.maximum <= self.maximum + 1e-12)
        )

    def intersects_ray(
        self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf
    ) -> bool:
        """Slab test: does the ray hit the box within ``[t_min, t_max]``?"""
        if self.is_empty():
            return False
        return slab_hit(self.minimum, self.maximum, ray, t_min, t_max)

    def __repr__(self) -> str:
        if self.is_empty():
            return "AABB(empty)"
        return f"AABB(min={self.minimum.tolist()}, max={self.maximum.tolist()})"
