"""Surface materials for Whitted shading."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.raytracer.vec import Vector, flat_floats, vec3

__all__ = ["MATERIAL_FIELDS", "Material", "material_table"]

#: the columns of :func:`material_table`: ``color`` (three) then the scalars
MATERIAL_FIELDS = ("color", "ambient", "diffuse", "specular", "shininess", "reflectivity",
                   "transparency", "ior")
_scalars = operator.attrgetter(*MATERIAL_FIELDS[1:])


def material_table(materials: Sequence["Material"]) -> np.ndarray:
    """The ``(n, 10)`` rows of :data:`MATERIAL_FIELDS` of ``materials``."""
    color = flat_floats([m.color for m in materials]).reshape(-1, 3)
    scalars = flat_floats(list(map(_scalars, materials))).reshape(-1, 7)
    return np.concatenate((color, scalars), axis=1)


@dataclass
class Material:
    """Material parameters of the classic Whitted illumination model.

    Attributes
    ----------
    color:
        Base (diffuse) RGB colour in [0, 1].
    ambient, diffuse, specular:
        Phong coefficients.
    shininess:
        Phong specular exponent.
    reflectivity:
        Fraction of light contributed by the reflected ray (0 disables the
        secondary reflection ray).
    transparency:
        Fraction contributed by the transmitted ray (0 disables refraction).
    ior:
        Index of refraction used for transmitted rays.
    """

    color: Vector = field(default_factory=lambda: vec3(0.8, 0.8, 0.8))
    ambient: float = 0.1
    diffuse: float = 0.7
    specular: float = 0.3
    shininess: float = 32.0
    reflectivity: float = 0.0
    transparency: float = 0.0
    ior: float = 1.5

    def __post_init__(self) -> None:
        self.color = np.ascontiguousarray(self.color, dtype=np.float64)

    @classmethod
    def matte(cls, r: float, g: float, b: float) -> "Material":
        """A purely diffuse material."""
        return cls(color=vec3(r, g, b), reflectivity=0.0, transparency=0.0)

    @classmethod
    def mirror(cls, tint: float = 0.9) -> "Material":
        """A highly reflective material."""
        return cls(color=vec3(tint, tint, tint), diffuse=0.1, reflectivity=0.8)

    @classmethod
    def glass(cls, ior: float = 1.5) -> "Material":
        """A transparent, refracting material."""
        return cls(
            color=vec3(0.95, 0.95, 0.95),
            diffuse=0.05,
            reflectivity=0.1,
            transparency=0.85,
            ior=ior,
        )

    @property
    def casts_secondary_rays(self) -> bool:
        return self.reflectivity > 0.0 or self.transparency > 0.0
