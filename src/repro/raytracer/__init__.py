"""Whitted ray tracer with a bounding-volume hierarchy.

This is the example application of the paper (Section II): a recursive ray
tracer rendering a 2-D image of a 3-D scene, accelerated by a BVH.  The
paper builds its BVH by Goldsmith–Salmon insertion; this package keeps the
same surface-area cost model but builds one flat structure-of-arrays tree
top-down (:class:`FlatBVH`, see :mod:`bvh` for why).  The tracer is used in
two ways:

* **really** — the S-Net runtimes and the examples render real images
  through the public API (:func:`render`, :func:`render_section`), by
  default with vectorized ray packets over the flat BVH (:mod:`packet`,
  :mod:`flatbvh`) and pixel-by-pixel over the same tree in the ``scalar``
  oracle mode;
* **as a cost model** — the performance experiments (Figs. 5 and 6) need the
  *time* a 3000x3000 render would take on the paper's hardware, not the
  pixels; :mod:`repro.raytracer.cost` estimates per-section work in reference
  CPU seconds from the screen-space distribution of scene objects, which is
  what drives load (im)balance.

Modules: :mod:`vec`, :mod:`ray`, :mod:`camera`, :mod:`materials`,
:mod:`geometry`, :mod:`bvh`, :mod:`flatbvh`, :mod:`packet`, :mod:`shading`,
:mod:`tracer`, :mod:`scene`, :mod:`image`, :mod:`cost`.
"""

from repro.raytracer.vec import normalize, reflect, refract, vec3
from repro.raytracer.ray import Ray
from repro.raytracer.camera import Camera
from repro.raytracer.materials import Material
from repro.raytracer.geometry import AABB, Plane, Sphere, Triangle
from repro.raytracer.bvh import BruteForceIndex
from repro.raytracer.flatbvh import FlatBVH
from repro.raytracer.scene import Light, Scene, paper_scene, random_scene
from repro.raytracer.packet import ScenePacketData, scene_packet_data, trace_packet
from repro.raytracer.tracer import (
    RENDER_MODES,
    Hit,
    RayTracer,
    render,
    render_section,
)
from repro.raytracer.image import ImageChunk, assemble_chunks, to_ppm
from repro.raytracer.cost import SectionCostModel, CostParameters

__all__ = [
    "vec3",
    "normalize",
    "reflect",
    "refract",
    "Ray",
    "Camera",
    "Material",
    "AABB",
    "Sphere",
    "Plane",
    "Triangle",
    "FlatBVH",
    "BruteForceIndex",
    "Light",
    "Scene",
    "paper_scene",
    "random_scene",
    "Hit",
    "RayTracer",
    "RENDER_MODES",
    "render",
    "render_section",
    "ScenePacketData",
    "scene_packet_data",
    "trace_packet",
    "ImageChunk",
    "assemble_chunks",
    "to_ppm",
    "SectionCostModel",
    "CostParameters",
]
