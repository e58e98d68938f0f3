"""Scene mutation journal: explicit edits, cheap epochs, incremental hashing.

Scenes used to be immutable job payloads — the S-Net purity contract — and
the warm :class:`~repro.apps.service.RenderService` keyed its slots by a
full-scene content hash.  Animation through that door meant rebuilding a
content-twin :class:`~repro.raytracer.scene.Scene` per keyframe, which
throws away exactly the information an incremental renderer needs: *what
changed*.

This module makes mutation explicit instead of forbidden:

* :meth:`Scene.begin_edit() <repro.raytracer.scene.Scene.begin_edit>`
  returns a :class:`SceneEditor`; edits are staged and applied atomically on
  :meth:`SceneEditor.commit`, which

  - mutates the scene in place (with per-primitive attribute whitelists and
    the same dtype conversions the constructors perform),
  - replaces the scene's flat BVH by its refit for moved bounded
    primitives (O(k · depth) for k of them; topology and leaf order are
    kept, so exact-``t`` tie-breaks cannot flip — see
    :meth:`FlatBVH.refitted <repro.raytracer.flatbvh.FlatBVH.refitted>`)
    and drops exactly the derived caches the edit invalidates otherwise
    (packet material arrays on material, the whole index on add/remove),
  - updates the memoised :func:`scene_content_key` in **O(changed objects)**
    — the key is one SHA-256 over per-object rows gathered into arrays
    (type codes, geometry floats, a material table) plus the settings
    digest; a commit re-reads only the touched objects' rows, then
    re-digests the arrays in microseconds —
  - bumps ``scene.edit_epoch`` and records an :class:`EditEntry` in the
    scene's :class:`MutationJournal`.

* Workers that hold a stale fork-shared copy of the scene replay the journal
  with :func:`apply_edits` — application is idempotent (epoch-gated), so a
  worker may receive entries it has already replayed (every dirty section
  of a frame carries the entries the slowest live worker still lacks).

The journal is the ground truth for the dirty-tile planner in
:mod:`repro.raytracer.coherence` and for the incremental
``scene_content_key`` satellite; both are pinned against from-scratch
recomputation by ``tests/raytracer/test_mutation.py``.

>>> from repro.raytracer.scene import Scene, Light
>>> from repro.raytracer.geometry.primitives import Sphere
>>> from repro.raytracer.materials import Material
>>> from repro.raytracer.vec import vec3
>>> s = Sphere(vec3(0, 0, -5), 1.0)
>>> scene = Scene([s], [Light(vec3(0, 4, 0))])
>>> key0 = scene_content_key(scene)
>>> edit = scene.begin_edit()
>>> edit.update(s, center=vec3(0.5, 0.0, -5.0))
>>> scene.edit_epoch == 0  # nothing applied until commit
True
>>> epoch = edit.commit()
>>> epoch, scene.edit_epoch
(1, 1)
>>> scene_content_key(scene) != key0  # key tracks the edit incrementally
True
>>> len(scene.journal.entries_since(0)[0].ops)
1
"""

from __future__ import annotations

import hashlib
import operator
import pickle
import weakref
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.raytracer.flatbvh import FlatBVH
from repro.raytracer.geometry.primitives import Plane, Primitive, Sphere, Triangle
from repro.raytracer.materials import Material, material_table
from repro.raytracer.vec import cross, flat_floats, normalize

__all__ = [
    "EditOp",
    "EditEntry",
    "MutationJournal",
    "SceneEditor",
    "apply_edits",
    "scene_content_key",
]


# -- scene content hashing ----------------------------------------------------
#
# Moved here from repro.apps.service so the incremental update (commit-time
# row patching) and the from-scratch definition live side by side; the
# service re-exports :func:`scene_content_key` unchanged.

_KEY_ATTR = "_repro_content_key"
#: each keyed scene's :class:`_KeyRows`, held beside the scene rather than
#: on it so that pickling or broadcasting a keyed scene does not ship them
_ROWS: "weakref.WeakKeyDictionary[Any, _KeyRows]" = weakref.WeakKeyDictionary()
_SETTINGS_ATTR = "_repro_settings_digest"
_SCALAR_TYPES = (type(None), bool, int, float, str, bytes)

#: per-type geometry attributes, in key-row order (also the editor's
#: whitelist of geometry edits; material is editable everywhere)
_GEOMETRY_ATTRS = {Sphere: ("center", "radius"), Triangle: ("v0", "v1", "v2"),
                   Plane: ("point", "normal")}


def _canonical(value: Any) -> Any:
    """A picklable, content-deterministic description of one settings value.

    NumPy arrays hash by shape/dtype/bytes; objects with a ``__dict__``
    (lights, cameras) hash by their sorted public attributes.
    """
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, np.ndarray):
        return ("nd", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple([_canonical(item) for item in value])
    if hasattr(value, "__dict__"):
        attrs = sorted((name, attr) for name, attr in vars(value).items() if name[0] != "_")
        return type(value).__name__, tuple([(name, _canonical(attr)) for name, attr in attrs])
    return repr(value)


def _settings_digest(scene: Any) -> bytes:
    """Digest of everything outside the object list that shapes the image."""
    settings = (scene.lights, scene.background, scene.max_ray_depth, scene.use_bvh,
                getattr(scene, "camera", None))
    return hashlib.sha256(pickle.dumps(_canonical(settings), protocol=5)).digest()


def _object_rows(objects: Sequence[Primitive]) -> Tuple[Any, ...]:
    """``(types, codes, geometry, material)`` key rows of ``objects``.

    ``types`` are the distinct object types in first-appearance order and
    ``codes`` each object's position in it.  A geometry row is the
    attributes :data:`_GEOMETRY_ATTRS` lists for the type (or its nearest
    listed base) flattened and zero-padded to nine floats; a material row is
    :data:`~repro.raytracer.materials.MATERIAL_FIELDS`, ten floats.  Each
    column is read for all objects of a type at once.
    """
    classes = list(map(type, objects))
    types = tuple(dict.fromkeys(classes))
    codes = np.fromiter(map(types.index, classes), np.int64, len(classes))
    geometry = np.zeros((len(objects), 9))
    for code, cls in enumerate(types):
        attrs = next((_GEOMETRY_ATTRS[c] for c in cls.__mro__ if c in _GEOMETRY_ATTRS), None)
        if attrs is None:
            raise TypeError(f"scene_content_key has no geometry rows for {cls.__name__}")
        group = [obj for obj, obj_cls in zip(objects, classes) if obj_cls is cls]
        values = [flat_floats(list(map(operator.attrgetter(name), group))) for name in attrs]
        values = np.concatenate([v.reshape(len(group), -1) for v in values], axis=1)
        geometry[codes == code, : values.shape[1]] = values
    return types, codes, geometry, material_table([obj.material for obj in objects])


class _KeyRows:
    """A scene's objects gathered for hashing: one row per object, in order.

    ``prefix`` digests the type header, the codes and the material table, so
    a geometry edit re-hashes only the geometry rows; ``row_of`` maps
    ``primitive_id`` to row and is built by the first patch.
    """

    def __init__(self, objects: Sequence[Primitive]):
        self.types, self.codes, self.geometry, self.material = _object_rows(objects)
        self.row_of: Optional[Dict[int, int]] = None
        self.prefix: Optional[bytes] = None  # stale after a material edit

    def patch(self, objects: List[Any], edited: List[Primitive], material: bool) -> None:
        """Re-read the rows of ``edited``, members of ``objects`` edited in place."""
        if self.row_of is None:
            self.row_of = {obj.primitive_id: row for row, obj in enumerate(objects)}
        at = [self.row_of[obj.primitive_id] for obj in edited]
        _, _, self.geometry[at], self.material[at] = _object_rows(edited)
        self.prefix = None if material else self.prefix

    def key(self, settings: bytes) -> str:
        if self.prefix is None:
            names = [f"{cls.__module__}.{cls.__qualname__}" for cls in self.types]
            blob = repr((names, self.codes.size)).encode() + self.codes.tobytes()
            self.prefix = hashlib.sha256(blob + self.material.tobytes()).digest()
        return hashlib.sha256(self.prefix + self.geometry.tobytes() + settings).hexdigest()[:16]


def scene_content_key(scene: Any) -> str:
    """Content hash of a scene: equal for content-identical scene objects.

    The key covers everything that determines the rendered image — objects
    (type, geometry and material), lights, background, recursion depth,
    camera and the acceleration-structure choice — and deliberately
    excludes derived state (the lazily built BVH) and the process-global
    ``primitive_id`` counters.  The objects enter as per-object rows
    gathered into arrays — type codes, geometry floats and a material
    table — and the key is one SHA-256 over them and the settings digest
    (the type header, codes and material table pre-digested, so a geometry
    edit re-hashes the geometry rows alone).

    The key is memoised on the scene object.  Mutating a scene through
    :meth:`Scene.begin_edit <repro.raytracer.scene.Scene.begin_edit>`
    keeps the rows current in O(changed objects) — only edited objects are
    re-read, then the arrays are re-digested (microseconds); ad-hoc
    mutation outside the editor remains unsupported (the memo would go
    stale).

    >>> from repro.raytracer.scene import random_scene
    >>> a, b = random_scene(num_spheres=3), random_scene(num_spheres=3)
    >>> a is not b and scene_content_key(a) == scene_content_key(b)
    True
    >>> scene_content_key(random_scene(num_spheres=4)) == scene_content_key(a)
    False
    """
    key = getattr(scene, _KEY_ATTR, None)
    if key is None:
        settings = getattr(scene, _SETTINGS_ATTR, None)
        if settings is None:
            settings = _settings_digest(scene)
            setattr(scene, _SETTINGS_ATTR, settings)
        # the key rows: gathered on demand, patched by commits, re-gathered
        # on a length mismatch (an ``add`` outside the editor)
        rows = _ROWS.get(scene)
        if rows is None or rows.codes.size != len(scene.objects):
            rows = _ROWS[scene] = _KeyRows(scene.objects)
        key = rows.key(settings)
        setattr(scene, _KEY_ATTR, key)
    return key


def invalidate_content_key(scene: Any, *, settings: bool = False) -> None:
    """Drop the memoised key (and optionally the settings digest)."""
    scene.__dict__.pop(_KEY_ATTR, None)
    if settings:
        scene.__dict__.pop(_SETTINGS_ATTR, None)


# -- the journal --------------------------------------------------------------

#: ops that invalidate every tile regardless of geometry (see coherence.py)
GLOBAL_KINDS = frozenset({"light", "camera", "background", "max_ray_depth"})
#: ops that change the object list (BVH rebuild — leaf order may change)
STRUCTURAL_KINDS = frozenset({"add", "remove"})

_VECTOR_ATTRS = frozenset({"center", "point", "normal", "v0", "v1", "v2"})
_LIGHT_ATTRS = frozenset({"position", "color", "intensity"})


@dataclass(frozen=True)
class EditOp:
    """One applied delta.  Picklable and self-contained for worker replay.

    ``kind``:

    * ``"update"`` — primitive attribute changes (``target`` = primitive_id,
      ``attrs`` = (name, value) pairs).  ``geometry`` marks shape changes;
      for bounded geometry the pre/post AABBs are captured (as
      ``((min…), (max…))`` tuples) for the dirty-tile planner.
    * ``"add"`` / ``"remove"`` — object-list changes (``payload`` carries the
      added primitive; ``target`` names the removed one).
    * ``"light"`` — light attribute changes (``target`` = light index).
    * ``"camera"`` / ``"background"`` / ``"max_ray_depth"`` — global settings
      (``payload`` carries the new value).
    """

    kind: str
    target: Optional[int] = None
    attrs: Tuple[Tuple[str, Any], ...] = ()
    payload: Any = None
    geometry: bool = False
    unbounded: bool = False
    old_box: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None
    new_box: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None


@dataclass(frozen=True)
class EditEntry:
    """All ops of one ``commit()``, stamped with the epoch it produced."""

    epoch: int
    ops: Tuple[EditOp, ...]

    def for_wire(self) -> "EditEntry":
        """This entry as shipped to fork workers: the captured boxes dropped.

        ``old_box``/``new_box`` feed only the coordinator-side dirty-tile
        planner; replay never reads them, so the worker copy goes without.

        >>> op = EditOp("update", target=1, geometry=True,
        ...             old_box=((0.0,) * 3, (1.0,) * 3), new_box=((1.0,) * 3, (2.0,) * 3))
        >>> EditEntry(4, (op,)).for_wire().ops[0].old_box is None
        True
        """
        if all(op.old_box is None for op in self.ops):
            return self
        return EditEntry(
            self.epoch, tuple(replace(op, old_box=None, new_box=None) for op in self.ops)
        )


class MutationJournal:
    """Bounded log of :class:`EditEntry` objects, ordered by epoch.

    ``entries_since(epoch)`` returns the entries a reader at ``epoch`` must
    replay to catch up — or ``None`` when the bounded log no longer reaches
    back that far (the reader must resynchronise from scratch).

    >>> j = MutationJournal(capacity=2)
    >>> for e in range(1, 4):
    ...     j.record(EditEntry(e, ()))
    >>> [entry.epoch for entry in j.entries_since(1)]
    [2, 3]
    >>> j.entries_since(0) is None  # epoch-1 entry fell off the log
    True
    >>> j.entries_since(3)
    []
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("journal capacity must be >= 1")
        self.capacity = capacity
        self._entries: Deque[EditEntry] = deque(maxlen=capacity)

    def record(self, entry: EditEntry) -> None:
        if self._entries and entry.epoch <= self._entries[-1].epoch:
            raise ValueError(
                f"journal epochs must increase: got {entry.epoch} after "
                f"{self._entries[-1].epoch}"
            )
        self._entries.append(entry)

    @property
    def latest_epoch(self) -> int:
        return self._entries[-1].epoch if self._entries else 0

    def entries_since(self, epoch: int) -> Optional[List[EditEntry]]:
        entries = [entry for entry in self._entries if entry.epoch > epoch]
        if entries and entries[0].epoch != epoch + 1:
            return None  # the log has been trimmed past the reader's epoch
        if not entries and self._entries and self._entries[-1].epoch > epoch:
            return None  # reader is behind but everything newer was trimmed
        return entries

    def __len__(self) -> int:
        return len(self._entries)


# -- applying ops -------------------------------------------------------------


def _prims_by_id(scene: Any) -> Dict[int, Primitive]:
    cached = getattr(scene, "_repro_prims_by_id", None)
    if cached is None or len(cached) != len(scene.objects):
        cached = {obj.primitive_id: obj for obj in scene.objects}
        scene._repro_prims_by_id = cached
    return cached


def _coerce(prim: Primitive, name: str, value: Any) -> Any:
    if name in _VECTOR_ATTRS:
        value = np.ascontiguousarray(value, dtype=np.float64)
        if name == "normal":
            value = normalize(value)
        return value
    if name == "radius":
        value = float(value)
        if value <= 0.0:
            raise ValueError("sphere radius must be positive")
        return value
    if name == "material":
        if not isinstance(value, Material):
            raise TypeError(f"material must be a Material, got {type(value).__name__}")
        return value
    raise ValueError(f"{type(prim).__name__} has no editable attribute {name!r}")


def _apply_update(prim: Primitive, attrs: Sequence[Tuple[str, Any]]) -> None:
    for name, value in attrs:
        setattr(prim, name, _coerce(prim, name, value))
    if isinstance(prim, Triangle) and any(n in ("v0", "v1", "v2") for n, _ in attrs):
        prim._normal = normalize(cross(prim.v1 - prim.v0, prim.v2 - prim.v0))


def _apply_ops(scene: Any, ops: Sequence[EditOp]) -> Dict[str, bool]:
    """Mutate ``scene`` per ``ops``; return which cache classes were hit.

    Shared by the committing editor (parent process) and by worker replay
    (:func:`apply_edits`): both sides must land on byte-identical scene
    state, so every conversion lives here.
    """
    flags = {"geometry": False, "material": False, "structural": False, "settings": False}
    prims = _prims_by_id(scene)
    for op in ops:
        if op.kind == "update":
            prim = prims.get(op.target)
            if prim is None:
                raise KeyError(f"unknown primitive id {op.target} in edit op")
            _apply_update(prim, op.attrs)
            if op.geometry:
                flags["geometry"] = True
            else:
                flags["material"] = True
        elif op.kind == "add":
            scene.objects.append(op.payload)
            prims[op.payload.primitive_id] = op.payload
            flags["structural"] = True
        elif op.kind == "remove":
            prim = prims.pop(op.target, None)
            if prim is None:
                raise KeyError(f"unknown primitive id {op.target} in remove op")
            scene.objects.remove(prim)
            flags["structural"] = True
        elif op.kind == "light":
            light = scene.lights[op.target]
            for name, value in op.attrs:
                if name not in _LIGHT_ATTRS:
                    raise ValueError(f"Light has no editable attribute {name!r}")
                if name == "intensity":
                    setattr(light, name, float(value))
                else:
                    setattr(light, name, np.asarray(value, dtype=np.float64))
            flags["settings"] = True
        elif op.kind == "camera":
            scene.camera = op.payload
            flags["settings"] = True
        elif op.kind == "background":
            scene.background = np.asarray(op.payload, dtype=np.float64)
            flags["settings"] = True
        elif op.kind == "max_ray_depth":
            scene.max_ray_depth = int(op.payload)
            flags["settings"] = True
        else:  # pragma: no cover - guarded by SceneEditor
            raise ValueError(f"unknown edit op kind {op.kind!r}")
    return flags


def _invalidate_caches(scene: Any, flags: Dict[str, bool], ops: Sequence[EditOp]) -> None:
    """Drop exactly the derived state the applied ops made stale."""
    if flags["structural"]:
        scene._index = None  # full rebuild (leaf order may change)
        scene._packet_data = None
        _ROWS.pop(scene, None)  # re-gathered with the next key
    elif flags["geometry"] and isinstance(scene._index, FlatBVH):
        # moved bounded primitives: the flat BVH holds SoA geometry copies,
        # so it is replaced by its refit (leaf order preserved), and the
        # packet rows — aligned with the unchanged leaf slots — follow it
        prims = _prims_by_id(scene)
        moved = [
            prims[op.target]
            for op in ops
            if op.kind == "update" and op.geometry and not op.unbounded
        ]
        if moved:
            index = scene._index
            scene._index = index.refitted(moved)
            data = getattr(scene, "_packet_data", None)
            if data is not None and data.index is index:
                scene._packet_data = replace(data, index=scene._index)
    if flags["material"]:
        scene._packet_data = None  # packet material arrays are stale
    rows = _ROWS.get(scene)
    if rows is not None and not flags["structural"] and (flags["geometry"] or flags["material"]):
        prims = _prims_by_id(scene)
        edited = [prims[op.target] for op in ops if op.kind == "update"]
        rows.patch(scene.objects, edited, flags["material"])
    invalidate_content_key(scene, settings=flags["settings"])


def apply_edits(scene: Any, entries: Sequence[EditEntry]) -> int:
    """Replay journal entries onto a (possibly stale) scene copy.

    Idempotent: entries at or below ``scene.edit_epoch`` are skipped, so a
    forked worker may receive entries it already replayed (with another
    section, or shipped for a slower worker) and applies each exactly once.
    Returns the number of entries applied.
    """
    applied = 0
    for entry in sorted(entries, key=lambda e: e.epoch):
        if entry.epoch <= getattr(scene, "edit_epoch", 0):
            continue
        flags = _apply_ops(scene, entry.ops)
        _invalidate_caches(scene, flags, entry.ops)
        scene.edit_epoch = entry.epoch
        applied += 1
    return applied


# -- the editor ---------------------------------------------------------------


def _corners(box: Any) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """An AABB's corners as plain float tuples (what an :class:`EditOp` keeps)."""
    return tuple(box.minimum.tolist()), tuple(box.maximum.tolist())


class SceneEditor:
    """Staged scene edits, applied atomically by :meth:`commit`.

    Obtained from :meth:`Scene.begin_edit
    <repro.raytracer.scene.Scene.begin_edit>`.  Every mutator validates
    eagerly (unknown attributes, bad radii, foreign primitives raise at call
    time), but nothing touches the scene until :meth:`commit` — an aborted
    editor leaves the scene byte-identical.
    """

    def __init__(self, scene: Any):
        self._scene = scene
        self._intents: List[EditOp] = []
        self._active = True

    # -- staging -----------------------------------------------------------
    def _check_active(self) -> None:
        if not self._active:
            raise RuntimeError("editor already committed or aborted")

    def update(self, primitive: Primitive, **attrs: Any) -> None:
        """Stage attribute changes on one primitive already in the scene."""
        self._check_active()
        if not attrs:
            raise ValueError("update() needs at least one attribute")
        if primitive.primitive_id not in _prims_by_id(self._scene):
            raise KeyError("primitive is not part of this scene")
        allowed = _GEOMETRY_ATTRS.get(type(primitive), ())
        geometry = False
        for name, value in attrs.items():
            if name in allowed:
                geometry = True
                _coerce(primitive, name, value)  # validate only
            elif name != "material":
                raise ValueError(
                    f"{type(primitive).__name__} has no editable attribute {name!r}"
                )
            else:
                _coerce(primitive, name, value)
        self._intents.append(
            EditOp(
                kind="update",
                target=primitive.primitive_id,
                attrs=tuple(sorted(attrs.items())),
                geometry=geometry,
                unbounded=not primitive.is_bounded,
            )
        )

    def add(self, primitive: Primitive) -> None:
        """Stage adding a new primitive (dirties every tile: BVH rebuild)."""
        self._check_active()
        if not isinstance(primitive, Primitive):
            raise TypeError("add() takes a Primitive")
        self._intents.append(EditOp(kind="add", payload=primitive))

    def remove(self, primitive: Primitive) -> None:
        """Stage removing a primitive (dirties every tile: BVH rebuild)."""
        self._check_active()
        if primitive.primitive_id not in _prims_by_id(self._scene):
            raise KeyError("primitive is not part of this scene")
        self._intents.append(EditOp(kind="remove", target=primitive.primitive_id))

    def set_light(self, index: int, **attrs: Any) -> None:
        """Stage light changes (position/color/intensity); dirties everything."""
        self._check_active()
        if not 0 <= index < len(self._scene.lights):
            raise IndexError(f"light index {index} out of range")
        if not attrs:
            raise ValueError("set_light() needs at least one attribute")
        for name in attrs:
            if name not in _LIGHT_ATTRS:
                raise ValueError(f"Light has no editable attribute {name!r}")
        self._intents.append(
            EditOp(kind="light", target=index, attrs=tuple(sorted(attrs.items())))
        )

    def set_camera(self, camera: Any) -> None:
        """Stage a camera change; dirties everything."""
        self._check_active()
        self._intents.append(EditOp(kind="camera", payload=camera))

    def set_background(self, color: Any) -> None:
        self._check_active()
        self._intents.append(EditOp(kind="background", payload=color))

    def set_max_ray_depth(self, depth: int) -> None:
        self._check_active()
        if int(depth) < 0:
            raise ValueError("max_ray_depth must be >= 0")
        self._intents.append(EditOp(kind="max_ray_depth", payload=int(depth)))

    # -- terminal ----------------------------------------------------------
    def abort(self) -> None:
        """Discard every staged intent; the scene is untouched."""
        self._check_active()
        self._active = False
        self._intents = []

    def commit(self) -> int:
        """Apply all staged edits atomically; returns the new edit epoch.

        Captures pre/post AABBs for moved bounded primitives (the dirty-tile
        planner's expansion test), refits/rebuilds the acceleration index,
        updates the content-key memo in O(changed objects) and appends one
        :class:`EditEntry` to ``scene.journal``.
        """
        self._check_active()
        self._active = False
        scene = self._scene
        if not self._intents:
            return scene.edit_epoch
        prims = _prims_by_id(scene)
        # capture pre-edit boxes for bounded geometry updates
        old_boxes: Dict[int, Tuple] = {}
        for op in self._intents:
            if op.kind == "update" and op.geometry and not op.unbounded:
                old_boxes[op.target] = _corners(prims[op.target].bounding_box())
        flags = _apply_ops(scene, self._intents)
        ops: List[EditOp] = []
        for op in self._intents:
            if op.target in old_boxes and op.kind == "update":
                op = replace(
                    op,
                    old_box=old_boxes[op.target],
                    new_box=_corners(prims[op.target].bounding_box()),
                )
            ops.append(op)
        _invalidate_caches(scene, flags, ops)
        scene.edit_epoch += 1
        if scene.journal is None:
            scene.journal = MutationJournal()
        scene.journal.record(EditEntry(scene.edit_epoch, tuple(ops)))
        self._intents = []
        return scene.edit_epoch
