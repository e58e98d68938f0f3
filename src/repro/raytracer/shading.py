"""Whitted shading: local illumination plus reflection/refraction/shadow rays.

This module implements the ``Shader`` step of Algorithm 2 in the paper: given
the closest hit it computes the pixel colour from

* an ambient term,
* Phong diffuse + specular terms per light, attenuated by shadow rays,
* a recursive reflection ray when the material is reflective, and
* a recursive transmission ray when the material is transparent
  (falling back to reflection on total internal reflection).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.raytracer.ray import Ray
from repro.raytracer.vec import (
    Vector,
    dot,
    normalize,
    normalize_rows,
    reflect,
    refract,
    row_dot,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.raytracer.packet import ScenePacketData
    from repro.raytracer.tracer import Hit, RayTracer

__all__ = ["shade", "shade_block"]

#: offset applied along the normal to avoid self-intersection ("shadow acne")
EPSILON = 1e-4


def shade(tracer: "RayTracer", hit: "Hit", ray: Ray) -> Vector:
    """Compute the colour contributed by ``hit`` for ``ray``."""
    material = hit.primitive.material
    normal = hit.normal
    # flip the normal when hitting a surface from the inside (refraction exit)
    inside = dot(ray.direction, normal) > 0
    oriented_normal = -normal if inside else normal
    surface_point = hit.point + oriented_normal * EPSILON

    color = material.ambient * material.color

    for light in tracer.scene.lights:
        to_light = light.position - surface_point
        distance = float(np.linalg.norm(to_light))
        light_dir = to_light / distance if distance > 0 else to_light
        # shadow ray: is the light occluded?
        shadow_ray = Ray(surface_point, light_dir, depth=ray.depth)
        if tracer.occluded(shadow_ray, distance):
            continue
        lambert = max(0.0, dot(oriented_normal, light_dir))
        color = color + material.diffuse * lambert * light.intensity * (
            material.color * light.color
        )
        if material.specular > 0:
            half_vector = normalize(light_dir - ray.direction)
            highlight = max(0.0, dot(oriented_normal, half_vector)) ** material.shininess
            color = color + material.specular * highlight * light.intensity * light.color

    if material.reflectivity > 0:
        reflected_dir = reflect(ray.direction, oriented_normal)
        reflected = tracer.trace(ray.spawn(surface_point, reflected_dir))
        color = color + material.reflectivity * reflected

    if material.transparency > 0:
        ratio = material.ior if inside else 1.0 / material.ior
        refracted_dir = refract(ray.direction, oriented_normal, ratio)
        if refracted_dir is None:
            # total internal reflection
            reflected_dir = reflect(ray.direction, oriented_normal)
            contribution = tracer.trace(ray.spawn(surface_point, reflected_dir))
        else:
            exit_point = hit.point - oriented_normal * EPSILON
            contribution = tracer.trace(ray.spawn(exit_point, refracted_dir))
        color = color + material.transparency * contribution

    return np.clip(color, 0.0, 1.0)


def shade_block(
    tracer: "RayTracer",
    data: "ScenePacketData",
    index: Any,
    origins: np.ndarray,
    directions: np.ndarray,
    indices: np.ndarray,
    t: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Vectorized :func:`shade` for a packet of hits.

    ``indices`` selects each ray's hit primitive in ``data.primitives``; the
    material parameters are gathered from the pre-flattened arrays of
    :class:`~repro.raytracer.packet.ScenePacketData`.  The direct-lighting
    terms (ambient, Phong diffuse/specular, shadow attenuation) are computed
    for the whole packet at once; reflection and refraction gather the rays
    that spawn secondary rays into smaller packets and recurse through
    :func:`~repro.raytracer.packet.trace_packet`; shadow and secondary
    packets traverse the same ``index`` as the primary packet.  The
    arithmetic follows the scalar path operation-for-operation so both
    produce the same pixels.
    """
    from repro.raytracer.packet import occluded_packet, trace_packet

    scene = tracer.scene
    points = origins + t[:, None] * directions

    normals = np.empty_like(points)
    for prim_id in np.unique(indices):
        selected = indices == prim_id
        normals[selected] = data.primitives[prim_id].normal_block(points[selected])

    # flip normals when hitting a surface from the inside (refraction exit)
    inside = row_dot(directions, normals) > 0
    oriented = np.where(inside[:, None], -normals, normals)
    surface = points + oriented * EPSILON

    m_color = data.color[indices]
    color = data.ambient[indices][:, None] * m_color

    for light in scene.lights:
        to_light = light.position - surface
        distance = np.sqrt(row_dot(to_light, to_light))
        positive = distance > 0.0
        light_dir = np.where(
            positive[:, None],
            to_light / np.where(positive, distance, 1.0)[:, None],
            to_light,
        )
        # shadow packet: the scalar path re-normalizes inside Ray.__init__
        lit = ~occluded_packet(
            scene, index, surface, normalize_rows(light_dir), distance
        )
        lambert = np.maximum(0.0, row_dot(oriented, light_dir))
        contribution = (data.diffuse[indices] * lambert * light.intensity)[
            :, None
        ] * (m_color * light.color)
        half_vector = normalize_rows(light_dir - directions)
        highlight = (
            np.maximum(0.0, row_dot(oriented, half_vector)) ** data.shininess[indices]
        )
        contribution += (data.specular[indices] * highlight * light.intensity)[
            :, None
        ] * light.color
        color = color + np.where(lit[:, None], contribution, 0.0)

    reflectivity = data.reflectivity[indices]
    reflecting = (reflectivity > 0.0).nonzero()[0]
    if reflecting.size:
        d = directions[reflecting]
        n = oriented[reflecting]
        reflected_dir = d - 2.0 * row_dot(d, n)[:, None] * n
        reflected = trace_packet(
            tracer,
            index,
            surface[reflecting],
            normalize_rows(reflected_dir),
            depth + 1,
        )
        color[reflecting] += reflectivity[reflecting][:, None] * reflected

    transparency = data.transparency[indices]
    transmitting = (transparency > 0.0).nonzero()[0]
    if transmitting.size:
        d = directions[transmitting]
        n = oriented[transmitting]
        ior = data.ior[indices][transmitting]
        ratio = np.where(inside[transmitting], ior, 1.0 / ior)
        cos_incident = -row_dot(d, n)
        sin2_transmitted = ratio * ratio * (1.0 - cos_incident * cos_incident)
        total_internal = sin2_transmitted > 1.0
        cos_transmitted = np.sqrt(np.maximum(0.0, 1.0 - sin2_transmitted))
        refracted_dir = (
            ratio[:, None] * d + (ratio * cos_incident - cos_transmitted)[:, None] * n
        )
        reflected_dir = d - 2.0 * row_dot(d, n)[:, None] * n
        secondary_dir = np.where(total_internal[:, None], reflected_dir, refracted_dir)
        secondary_origin = np.where(
            total_internal[:, None],
            surface[transmitting],
            points[transmitting] - n * EPSILON,
        )
        contribution = trace_packet(
            tracer, index, secondary_origin, normalize_rows(secondary_dir), depth + 1
        )
        color[transmitting] += transparency[transmitting][:, None] * contribution

    return np.clip(color, 0.0, 1.0)
