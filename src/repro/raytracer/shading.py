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
    """Vectorized :func:`shade` for a packet of hits, one packet per stage.

    ``indices`` selects each ray's hit primitive in ``data.primitives``
    (material rows of :class:`~repro.raytracer.packet.ScenePacketData`;
    sphere normals are one gather of the flat index's centres).  A call
    sends two packets into ``index``, whatever the light count: one any-hit
    packet with the shadow rays of all ``L`` lights, light-major, after
    which the Phong terms are ``(L, n)`` arrays; and one
    :func:`~repro.raytracer.packet.trace_packet` with the reflection rows
    followed by the transmission rows (refraction, or reflection on total
    internal reflection), whose colours are split back.  Each pixel keeps
    the scalar path's arithmetic and summation order — ambient, light ``0``
    … ``L - 1``, reflection, transmission.
    """
    from repro.raytracer.packet import occluded_packet, trace_packet

    scene = tracer.scene
    n = t.shape[0]
    points = origins + t[:, None] * directions
    normals = _hit_normals(data, index, indices, points)

    # flip normals when hitting a surface from the inside (refraction exit)
    inside = row_dot(directions, normals) > 0
    oriented = np.where(inside[:, None], -normals, normals)
    surface = points + oriented * EPSILON

    m_color = data.color[indices]
    color = data.ambient[indices][:, None] * m_color

    lights = scene.lights
    count = len(lights)
    if count:
        position = np.array([light.position for light in lights])
        light_color = np.array([light.color for light in lights])[:, None]
        intensity = np.array([light.intensity for light in lights], dtype=np.float64)[:, None]
        # every (light, hit) row at once, light-major
        to_light = (position[:, None] - surface).reshape(-1, 3)
        distance = np.sqrt(row_dot(to_light, to_light))
        positive = distance > 0.0
        light_dir = np.where(
            positive[:, None],
            to_light / np.where(positive, distance, 1.0)[:, None],
            to_light,
        )
        # shadow packet: the scalar path re-normalizes inside Ray.__init__;
        # each ray first tests its own hit, which occludes a surface facing
        # away from the light
        lit = ~occluded_packet(scene, index, np.concatenate((surface,) * count),
                               normalize_rows(light_dir), distance, wave=n,
                               seed=np.tile(indices, count))
        facing = np.concatenate((oriented,) * count)
        lambert = np.maximum(0.0, row_dot(facing, light_dir)).reshape(count, n)
        diffuse = data.diffuse[indices] * lambert * intensity
        contribution = diffuse[..., None] * (m_color * light_color)
        half_vector = normalize_rows(light_dir - np.concatenate((directions,) * count))
        highlight = np.maximum(0.0, row_dot(facing, half_vector)).reshape(count, n)
        highlight = highlight ** data.shininess[indices]
        contribution += (data.specular[indices] * highlight * intensity)[..., None] * light_color
        contribution = np.where(lit.reshape(count, n, 1), contribution, 0.0)
        for term in contribution:  # light by light, as the scalar path sums
            color = color + term

    reflectivity, transparency = data.reflectivity[indices], data.transparency[indices]
    reflecting = (reflectivity > 0.0).nonzero()[0]
    transmitting = (transparency > 0.0).nonzero()[0]
    if reflecting.size + transmitting.size == 0:
        return np.clip(color, 0.0, 1.0)
    reflected_dir = directions - 2.0 * row_dot(directions, oriented)[:, None] * oriented
    d, nrm = directions[transmitting], oriented[transmitting]
    ior = data.ior[indices][transmitting]
    ratio = np.where(inside[transmitting], ior, 1.0 / ior)
    cos_incident = -row_dot(d, nrm)
    sin2_transmitted = ratio * ratio * (1.0 - cos_incident * cos_incident)
    total_internal = (sin2_transmitted > 1.0)[:, None]
    cos_transmitted = np.sqrt(np.maximum(0.0, 1.0 - sin2_transmitted))
    refracted_dir = ratio[:, None] * d + (ratio * cos_incident - cos_transmitted)[:, None] * nrm
    # one secondary packet: the reflection rows, then the transmission rows
    secondary_origin = np.concatenate((
        surface[reflecting],
        np.where(total_internal, surface[transmitting], points[transmitting] - nrm * EPSILON),
    ))
    secondary_dir = np.concatenate((
        reflected_dir[reflecting],
        np.where(total_internal, reflected_dir[transmitting], refracted_dir),
    ))
    traced = trace_packet(tracer, index, secondary_origin, normalize_rows(secondary_dir), depth + 1)
    color[reflecting] += reflectivity[reflecting][:, None] * traced[: reflecting.size]
    color[transmitting] += transparency[transmitting][:, None] * traced[reflecting.size :]
    return np.clip(color, 0.0, 1.0)


def _hit_normals(
    data: "ScenePacketData", index: Any, indices: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """:meth:`Primitive.normal_block` of every hit row: sphere rows gather
    the flat index's centres (refits keep them current), other rows ask
    their primitive."""
    rows = data.sphere_row[indices]
    normals = np.empty_like(points)
    spheres = (rows >= 0).nonzero()[0]
    if spheres.size:
        offsets = points[spheres] - index.sphere_center[rows[spheres]]
        norms = np.sqrt(row_dot(offsets, offsets))
        normals[spheres] = offsets / np.where(norms == 0.0, 1.0, norms)[:, None]
    others = (rows < 0).nonzero()[0]
    for prim_id in set(indices[others].tolist()):
        selected = others[indices[others] == prim_id]
        normals[selected] = data.primitives[prim_id].normal_block(points[selected])
    return normals
