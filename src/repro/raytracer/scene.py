"""Scenes, lights and procedural scene generation.

The paper's evaluation renders a fixed 3000x3000 scene whose objects are
unevenly distributed across the image — that imbalance is precisely what
makes the static fork–join network scale poorly and what the dynamically
scheduled variant fixes.  We do not have the original scene file, so
:func:`paper_scene` builds a procedural stand-in with a controllable degree
of clustering: a floor plane, a few large reflective spheres and a cloud of
small matte spheres concentrated (by ``clustering``) towards the lower part
of the image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.raytracer.bvh import BruteForceIndex
from repro.raytracer.camera import Camera
from repro.raytracer.flatbvh import FlatBVH
from repro.raytracer.geometry.primitives import Plane, Primitive, Sphere
from repro.raytracer.materials import Material
from repro.raytracer.vec import Vector, vec3

__all__ = ["Light", "Scene", "random_scene", "paper_scene"]


@dataclass
class Light:
    """A point light source."""

    position: Vector
    color: Vector = field(default_factory=lambda: vec3(1.0, 1.0, 1.0))
    intensity: float = 1.0

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        self.color = np.asarray(self.color, dtype=np.float64)


class Scene:
    """A collection of primitives and lights plus the acceleration index."""

    def __init__(
        self,
        objects: Sequence[Primitive] = (),
        lights: Sequence[Light] = (),
        background: Optional[Vector] = None,
        max_ray_depth: int = 4,
        use_bvh: bool = True,
        camera: Optional[Camera] = None,
    ):
        self.objects: List[Primitive] = list(objects)
        self.lights: List[Light] = list(lights)
        self.background = (
            np.asarray(background, dtype=np.float64)
            if background is not None
            else vec3(0.05, 0.07, 0.12)
        )
        self.max_ray_depth = max_ray_depth
        self.use_bvh = use_bvh
        #: optional scene-owned camera; ``None`` keeps the render backend's
        #: default viewing geometry (the pre-edit-API behaviour).  Backends
        #: adapt it to their frame resolution via ``Camera.with_resolution``.
        self.camera = camera
        #: monotonically increasing edit counter, bumped by
        #: :meth:`SceneEditor.commit <repro.raytracer.mutation.SceneEditor.commit>`.
        #: ``0`` means "never edited" — incremental render machinery stays
        #: inert for such scenes, preserving exact legacy behaviour.
        self.edit_epoch = 0
        #: the bounded :class:`~repro.raytracer.mutation.MutationJournal`
        #: created on the first committed edit (``None`` until then).
        self.journal = None
        self._index: Optional[Union[FlatBVH, BruteForceIndex]] = None
        self._unbounded: List[Primitive] = []

    # -- construction ------------------------------------------------------
    def add(self, primitive: Primitive) -> None:
        self.objects.append(primitive)
        self._index = None  # invalidate
        self.__dict__.pop("_repro_content_key", None)  # content-key memo

    def invalidate_packet_cache(self) -> None:
        """Drop the acceleration index and the packet material arrays.

        Edits committed through :meth:`begin_edit` keep both current.  What
        no cache can see is an **in-place mutation** of an already-indexed
        primitive outside the journal: changing a ``Material`` field (or a
        sphere's centre/radius) leaves the index object untouched, so the
        render paths would keep using stale material rows, leaf boxes and
        kernel parameters.  Call this after any such mutation; both are
        rebuilt lazily on the next query.
        """
        self._index = None
        self._packet_data = None

    def add_light(self, light: Light) -> None:
        self.lights.append(light)
        # lights live in the settings digest of the content key
        self.__dict__.pop("_repro_content_key", None)
        self.__dict__.pop("_repro_settings_digest", None)

    def begin_edit(self) -> "SceneEditor":
        """Open a staged edit transaction (see :mod:`repro.raytracer.mutation`).

        Returns a :class:`~repro.raytracer.mutation.SceneEditor`; call
        ``commit()`` to apply the staged deltas atomically (bumping
        :attr:`edit_epoch`, refitting the BVH, updating the memoised content
        key incrementally and journaling the deltas for forked workers) or
        ``abort()`` to discard them.
        """
        from repro.raytracer.mutation import SceneEditor

        return SceneEditor(self)

    def build_index(self) -> Union[FlatBVH, BruteForceIndex]:
        """(Re)build the acceleration structure; called lazily by the tracer.

        A :class:`~repro.raytracer.flatbvh.FlatBVH` over the bounded
        objects, or a :class:`~repro.raytracer.bvh.BruteForceIndex` for
        ``use_bvh=False``; unbounded objects are kept on a separate list.
        """
        bounded = [obj for obj in self.objects if obj.is_bounded]
        self._unbounded = [obj for obj in self.objects if not obj.is_bounded]
        if self.use_bvh:
            self._index = FlatBVH.build(bounded)
        else:
            self._index = BruteForceIndex(bounded)
        return self._index

    @property
    def index(self) -> Union[FlatBVH, BruteForceIndex]:
        if self._index is None:
            self.build_index()
        assert self._index is not None
        return self._index

    @property
    def unbounded_objects(self) -> List[Primitive]:
        if self._index is None:
            self.build_index()
        return self._unbounded

    @property
    def bounded_objects(self) -> List[Primitive]:
        return [obj for obj in self.objects if obj.is_bounded]

    def prepare_for_broadcast(self) -> "Scene":
        """Make the scene ready to be shared read-only across forked workers.

        Called by the process runtime just before it registers the scene in
        the fork-shared object registry: building the acceleration index
        *now* means every pool worker inherits the finished BVH through
        fork's copy-on-write pages instead of re-deriving (or re-unpickling)
        it per solver invocation.
        """
        self.index  # builds lazily if absent
        return self

    def payload_size(self) -> int:
        """Approximate in-memory/wire size of the scene description (bytes).

        Used by the distributed runtimes to charge the cost of shipping the
        scene to worker nodes (roughly 100 bytes per primitive: centre,
        radius/vertices and material parameters).
        """
        return 128 * len(self.objects) + 64 * len(self.lights) + 256

    def __repr__(self) -> str:
        return (
            f"<Scene objects={len(self.objects)} lights={len(self.lights)} "
            f"bvh={self.use_bvh}>"
        )


def random_scene(
    num_spheres: int = 60,
    clustering: float = 0.0,
    seed: int = 42,
    use_bvh: bool = True,
    with_floor: bool = True,
) -> Scene:
    """A procedural scene of small spheres plus (optionally) a floor plane.

    Parameters
    ----------
    num_spheres:
        Number of small spheres.
    clustering:
        0.0 distributes sphere image positions uniformly; values towards 1.0
        squeeze them into the lower-right region of the view, producing the
        per-row load imbalance the paper's dynamic scheduler exploits.
    seed:
        RNG seed (scenes are fully deterministic).
    """
    if not 0.0 <= clustering <= 1.0:
        raise ValueError("clustering must be within [0, 1]")
    rng = np.random.default_rng(seed)
    scene = Scene(use_bvh=use_bvh)

    # spheres are positioned through the default viewing geometry so that
    # their *image-space* distribution is controlled: the vertical position
    # follows a power-law density that grows towards the bottom of the image
    # as `clustering` increases, giving the per-row load gradient that the
    # dynamic scheduler exploits
    from repro.raytracer.camera import Camera as _Camera

    view = _Camera(width=256, height=256)

    if with_floor:
        scene.add(
            Plane(vec3(0.0, -6.0, 0.0), vec3(0.0, 1.0, 0.0), Material.matte(0.6, 0.6, 0.65))
        )

    # a few larger feature spheres spread over the lower half of the view
    for fx, fy, depth, radius, material in (
        (0.35, 0.62, 5.5, 0.55, Material.mirror()),
        (0.72, 0.80, 6.5, 0.60, Material.glass()),
        (0.15, 0.88, 7.5, 0.65, Material.matte(0.9, 0.3, 0.25)),
    ):
        ray = view.primary_ray(int(fx * view.width), int(fy * view.height))
        scene.add(Sphere(ray.at(depth), radius, material))

    # the sphere cloud: u uniform across the image, v skewed towards the
    # bottom with exponent p = 1 + 2*clustering (clustering 0 -> uniform)
    exponent = 1.0 + 2.0 * clustering
    for _ in range(num_spheres):
        u = rng.random()
        v = rng.random() ** (1.0 / exponent)
        depth = 3.0 + rng.random() * 6.0
        ray = view.primary_ray(
            min(view.width - 1, int(u * view.width)),
            min(view.height - 1, int(v * view.height)),
        )
        radius = (0.05 + rng.random() * 0.13) * depth / 4.0
        color = 0.25 + 0.75 * rng.random(3)
        reflective = rng.random() < 0.15
        material = (
            Material.mirror(0.85) if reflective else Material.matte(*color.tolist())
        )
        scene.add(Sphere(ray.at(depth), radius, material))

    scene.add_light(Light(vec3(-4.0, 6.0, 4.0), intensity=1.0))
    scene.add_light(Light(vec3(5.0, 3.0, 2.0), vec3(0.9, 0.9, 1.0), intensity=0.6))
    return scene


def paper_scene(
    num_spheres: int = 300,
    clustering: float = 0.45,
    seed: int = 2010,
    use_bvh: bool = True,
) -> Scene:
    """The reference scene used for the Figs. 5/6 reproduction.

    The sphere count and clustering factor are calibrated against the load
    (im)balance implied by the paper's Fig. 6: splitting the image into two
    halves leaves ~63-67 % of the work in the lower half (the paper's MPI
    "2 processes per node" single-node run takes 401.8 s against 651 s
    sequential), and the hottest of 8 / 16 even sections carries roughly
    21 % / 12 % of the total work (the 8-node MPI runs).
    """
    return random_scene(
        num_spheres=num_spheres, clustering=clustering, seed=seed, use_bvh=use_bvh
    )
