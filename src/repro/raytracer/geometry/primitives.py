"""Intersectable primitives: spheres, planes, triangles.

Every primitive answers three questions needed by the tracer and the BVH:

* ``intersect(ray, t_min, t_max)`` — the smallest ray parameter at which the
  ray hits the primitive within the interval, or ``None``;
* ``normal_at(point)`` — the outward surface normal;
* ``bounding_box()`` — an :class:`~repro.raytracer.geometry.aabb.AABB`
  enclosing the primitive with a relative ``1e-9`` margin, so that rounding
  in ``intersect`` cannot accept a point the BVH's box test rejects (a ray
  grazing a triangle edge or a sphere's silhouette parallel to an axis
  would otherwise hit under a linear scan and miss in the BVH); planes are
  unbounded and return a huge box (the
  scene generators therefore never put planes inside the BVH, they are kept
  on a separate "unbounded" list).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.raytracer.geometry.aabb import AABB
from repro.raytracer.materials import Material
from repro.raytracer.ray import Ray
from repro.raytracer.vec import Vector, broadcast_tmax, cross, dot, normalize, row_dot, vec3

__all__ = ["Primitive", "Sphere", "Plane", "Triangle"]

_ids = itertools.count(1)

#: half-extent of the box used for unbounded primitives
_HUGE = 1e9

#: margin of a bounded primitive's box, relative to its largest coordinate
#: magnitude (see the module notes)
_BOX_MARGIN = 1e-9


class Primitive:
    """Base class of all intersectable scene objects."""

    def __init__(self, material: Optional[Material] = None):
        self.material = material or Material()
        self.primitive_id = next(_ids)

    def intersect(self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf) -> Optional[float]:
        raise NotImplementedError

    def intersect_block(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6, t_max=np.inf
    ) -> np.ndarray:
        """Vectorized :meth:`intersect` over an ``(n, 3)`` ray packet.

        ``t_max`` may be a scalar or an ``(n,)`` array of per-ray upper
        bounds.  Returns an ``(n,)`` array of hit parameters with ``np.inf``
        marking misses.  The base implementation is a scalar loop, so custom
        primitives work in packets unchanged (the "scalar fallback per leaf"
        of the packet BVH traversal); the built-in shapes override it with
        NumPy kernels.
        """
        tmax = broadcast_tmax(t_max, origins.shape[0])
        out = np.full(origins.shape[0], np.inf)
        for i in range(origins.shape[0]):
            t = self.intersect(Ray(origins[i], directions[i]), t_min, float(tmax[i]))
            if t is not None:
                out[i] = t
        return out

    def normal_at(self, point: Vector) -> Vector:
        raise NotImplementedError

    def normal_block(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`normal_at` over ``(n, 3)`` surface points."""
        return np.stack([self.normal_at(points[i]) for i in range(points.shape[0])])

    def bounding_box(self) -> AABB:
        raise NotImplementedError

    @property
    def is_bounded(self) -> bool:
        return True


class Sphere(Primitive):
    """A sphere given by centre and radius."""

    def __init__(self, center: Vector, radius: float, material: Optional[Material] = None):
        super().__init__(material)
        if radius <= 0:
            raise ValueError(f"sphere radius must be positive, got {radius}")
        self.center = np.ascontiguousarray(center, dtype=np.float64)
        self.radius = float(radius)

    def intersect(self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf) -> Optional[float]:
        oc = ray.origin - self.center
        half_b = dot(oc, ray.direction)
        c = dot(oc, oc) - self.radius * self.radius
        discriminant = half_b * half_b - c
        if discriminant < 0:
            return None
        sqrt_d = np.sqrt(discriminant)
        for t in (-half_b - sqrt_d, -half_b + sqrt_d):
            if t_min <= t <= t_max:
                return float(t)
        return None

    def intersect_block(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6, t_max=np.inf
    ) -> np.ndarray:
        oc = origins - self.center
        half_b = row_dot(oc, directions)
        c = row_dot(oc, oc) - self.radius * self.radius
        discriminant = half_b * half_b - c
        t = np.full(half_b.shape, np.inf)
        valid = discriminant >= 0.0
        if not valid.any():
            return t
        sqrt_d = np.sqrt(discriminant[valid])
        near = -half_b[valid] - sqrt_d
        far = -half_b[valid] + sqrt_d
        tmax = broadcast_tmax(t_max, origins.shape[0])[valid]
        near_ok = (near >= t_min) & (near <= tmax)
        far_ok = (far >= t_min) & (far <= tmax)
        # same root preference as the scalar path: the near root wins when in
        # range, otherwise the far root (the ray starts inside the sphere)
        t[valid] = np.where(near_ok, near, np.where(far_ok, far, np.inf))
        return t

    def normal_at(self, point: Vector) -> Vector:
        return normalize(point - self.center)

    def normal_block(self, points: np.ndarray) -> np.ndarray:
        offsets = points - self.center
        norms = np.sqrt(row_dot(offsets, offsets))
        return offsets / np.where(norms == 0.0, 1.0, norms)[:, None]

    def bounding_box(self) -> AABB:
        r = self.radius + _BOX_MARGIN * (
            1.0 + self.radius + max(map(abs, self.center.tolist()))
        )
        return AABB(self.center - r, self.center + r)

    def __repr__(self) -> str:
        return f"Sphere(center={self.center.tolist()}, r={self.radius})"


class Plane(Primitive):
    """An infinite plane through ``point`` with normal ``normal``."""

    def __init__(
        self, point: Vector, normal: Vector, material: Optional[Material] = None
    ):
        super().__init__(material)
        self.point = np.ascontiguousarray(point, dtype=np.float64)
        self.normal = normalize(np.asarray(normal, dtype=np.float64))

    def intersect(self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf) -> Optional[float]:
        denom = dot(ray.direction, self.normal)
        if abs(denom) < 1e-12:
            return None
        t = dot(self.point - ray.origin, self.normal) / denom
        if t_min <= t <= t_max:
            return float(t)
        return None

    def intersect_block(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6, t_max=np.inf
    ) -> np.ndarray:
        n = origins.shape[0]
        if n == 1:  # BLAS rounds a one-row `@` apart from a longer one's rows
            return self.intersect_block(origins.repeat(2, 0), directions.repeat(2, 0), t_min,
                                        broadcast_tmax(t_max, 1).repeat(2))[:1]
        denom = directions @ self.normal
        valid = np.abs(denom) >= 1e-12
        candidate = ((self.point - origins) @ self.normal) / np.where(valid, denom, 1.0)
        ok = valid & (candidate >= t_min) & (candidate <= broadcast_tmax(t_max, n))
        return np.where(ok, candidate, np.inf)

    def normal_at(self, point: Vector) -> Vector:
        return self.normal

    def normal_block(self, points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.normal, points.shape)

    def bounding_box(self) -> AABB:
        return AABB(vec3(-_HUGE, -_HUGE, -_HUGE), vec3(_HUGE, _HUGE, _HUGE))

    @property
    def is_bounded(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"Plane(point={self.point.tolist()}, normal={self.normal.tolist()})"


class Triangle(Primitive):
    """A triangle given by three vertices (Möller–Trumbore intersection)."""

    def __init__(
        self,
        v0: Vector,
        v1: Vector,
        v2: Vector,
        material: Optional[Material] = None,
    ):
        super().__init__(material)
        self.v0 = np.ascontiguousarray(v0, dtype=np.float64)
        self.v1 = np.ascontiguousarray(v1, dtype=np.float64)
        self.v2 = np.ascontiguousarray(v2, dtype=np.float64)
        self._normal = normalize(cross(self.v1 - self.v0, self.v2 - self.v0))

    def intersect(self, ray: Ray, t_min: float = 1e-6, t_max: float = np.inf) -> Optional[float]:
        edge1 = self.v1 - self.v0
        edge2 = self.v2 - self.v0
        h = cross(ray.direction, edge2)
        a = dot(edge1, h)
        if abs(a) < 1e-12:
            return None
        f = 1.0 / a
        s = ray.origin - self.v0
        u = f * dot(s, h)
        if u < 0.0 or u > 1.0:
            return None
        q = cross(s, edge1)
        v = f * dot(ray.direction, q)
        if v < 0.0 or u + v > 1.0:
            return None
        t = f * dot(edge2, q)
        if t_min <= t <= t_max:
            return float(t)
        return None

    def intersect_block(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float = 1e-6, t_max=np.inf
    ) -> np.ndarray:
        edge1 = self.v1 - self.v0
        edge2 = self.v2 - self.v0
        h = np.cross(directions, edge2)
        # einsum (not BLAS @) so the reduction order — and therefore every
        # bit of the result — matches the batched flat-BVH triangle kernel
        a = np.einsum("ij,j->i", h, edge1)
        t = np.full(a.shape, np.inf)
        valid = np.abs(a) >= 1e-12
        if not valid.any():
            return t
        f = 1.0 / a[valid]
        s = origins[valid] - self.v0
        u = f * row_dot(s, h[valid])
        q = np.cross(s, edge1)
        v = f * row_dot(directions[valid], q)
        candidate = f * np.einsum("ij,j->i", q, edge2)
        tmax = broadcast_tmax(t_max, origins.shape[0])[valid]
        ok = (
            (u >= 0.0)
            & (u <= 1.0)
            & (v >= 0.0)
            & (u + v <= 1.0)
            & (candidate >= t_min)
            & (candidate <= tmax)
        )
        t[valid] = np.where(ok, candidate, np.inf)
        return t

    def normal_at(self, point: Vector) -> Vector:
        return self._normal

    def normal_block(self, points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self._normal, points.shape)

    def bounding_box(self) -> AABB:
        stacked = np.stack([self.v0, self.v1, self.v2])
        pad = _BOX_MARGIN * (1.0 + max(map(abs, stacked.ravel().tolist())))
        return AABB(stacked.min(axis=0) - pad, stacked.max(axis=0) + pad)

    def __repr__(self) -> str:
        return f"Triangle({self.v0.tolist()}, {self.v1.tolist()}, {self.v2.tolist()})"
