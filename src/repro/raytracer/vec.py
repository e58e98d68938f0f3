"""3-vector helpers on top of numpy.

Vectors are plain ``numpy.ndarray`` of shape ``(3,)`` and dtype float64; the
helpers here keep the geometry code short and allocation-light.
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Iterable, List, Union

import numpy as np

__all__ = [
    "vec3",
    "normalize",
    "normalize_rows",
    "length",
    "dot",
    "row_dot",
    "broadcast_tmax",
    "flat_floats",
    "cross",
    "reflect",
    "refract",
]

Vector = np.ndarray


def vec3(x: float, y: float, z: float) -> Vector:
    """Construct a 3-vector."""
    return np.array([x, y, z], dtype=np.float64)


def length(v: Vector) -> float:
    """Euclidean length."""
    return float(np.sqrt(np.dot(v, v)))


def normalize(v: Vector) -> Vector:
    """Return ``v`` scaled to unit length (zero vectors are returned as-is)."""
    norm = length(v)
    if norm == 0.0:
        return v.copy()
    return v / norm


def dot(a: Vector, b: Vector) -> float:
    """Scalar product."""
    return float(np.dot(a, b))


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise scalar product of two ``(n, 3)`` arrays (packet kernels).

    Accumulates each row in the same x+y+z order as :func:`dot` on a single
    vector, so packet and scalar paths agree to the last ulp wherever the
    inputs do.
    """
    return np.einsum("ij,ij->i", a, b)


def broadcast_tmax(t_max, n: int) -> np.ndarray:
    """Normalize a scalar-or-per-ray ``t_max`` bound to an ``(n,)`` array.

    Shared by every packet intersection kernel: closest-hit traversal passes
    each ray's current best hit as its individual upper bound.
    """
    t_max = np.asarray(t_max, dtype=np.float64)
    return t_max if t_max.shape == (n,) else np.full(n, t_max)


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """Normalize each row of an ``(n, 3)`` array (zero rows pass through).

    The row-wise counterpart of :func:`normalize`, used by the packet path to
    mirror the normalization every scalar :class:`~repro.raytracer.ray.Ray`
    applies to its direction.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    safe = np.where(norms == 0.0, 1.0, norms)
    return v / safe[:, None]


def cross(a: Vector, b: Vector) -> Vector:
    """Vector product."""
    return np.cross(a, b)


def reflect(direction: Vector, normal: Vector) -> Vector:
    """Reflect ``direction`` about ``normal`` (both assumed unit length)."""
    return direction - 2.0 * dot(direction, normal) * normal


def refract(direction: Vector, normal: Vector, ior_ratio: float) -> Union[Vector, None]:
    """Refract ``direction`` through a surface with the given IOR ratio.

    Returns ``None`` for total internal reflection (Snell's law has no
    solution), which the shader turns into a pure reflection.
    """
    cos_incident = -dot(direction, normal)
    sin2_transmitted = ior_ratio * ior_ratio * (1.0 - cos_incident * cos_incident)
    if sin2_transmitted > 1.0:
        return None
    cos_transmitted = np.sqrt(1.0 - sin2_transmitted)
    return ior_ratio * direction + (ior_ratio * cos_incident - cos_transmitted) * normal


def flat_floats(values: List[Any]) -> np.ndarray:
    """``values`` — C-contiguous float64 arrays of one shape, floats, or
    tuples of floats — as one flat float64 array, read at C speed (a gather
    of per-object attributes: ``np.array`` of a list of small arrays is
    several times slower).  The primitive and material constructors and
    the scene editor store their vectors C-contiguous for this."""
    if values and isinstance(values[0], np.ndarray):
        return np.frombuffer(b"".join(values))
    if values and isinstance(values[0], tuple):
        values = list(itertools.chain.from_iterable(values))
    return np.frombuffer(struct.pack(f"{len(values)}d", *values))
