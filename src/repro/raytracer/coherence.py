"""Temporal coherence: per-tile touch capture and dirty-tile planning.

The incremental re-rendering pipeline (PR 10) renders an animation frame by
re-tracing only the image sections ("tiles" — the farm's horizontal row
bands) that the frame's scene edits can possibly affect, and re-emitting the
cached pixels of every other tile.  Correctness rests on a conservative
dirty test: a tile is re-rendered unless *no* ray traced for it last frame
could change colour.  Four rules, checked by
:func:`plan_tiles` against the :class:`TileSummary` captured during the
tile's last render:

(a) **touched-id intersection** — every primitive whose material was read
    while shading the tile (primary *and* secondary hits) is in the tile's
    touched-id set; an edit to any of them dirties the tile.  Since
    geometry-unchanged edits leave every ray path identical, materials are
    only ever read at recorded hit points — rule (a) alone makes
    material-only edits sound.
(b) **secondary flag** — a tile that spawned any reflection/refraction rays
    is dirtied by *any* geometry edit: secondary rays roam the whole scene,
    so no cheap spatial bound applies.
(c) **frustum projection** — a moved primitive can newly appear to (or
    vanish from) a tile's *primary* rays only if its old∪new AABB projects
    into the tile's row band.  The 8 box corners are projected through the
    camera; perspective projection maps convex hulls to convex hulls, so
    the corner rows (±1 row of margin) bound the box's image extent.  A
    corner at or behind the eye plane makes the projection unbounded —
    everything is dirtied.
(d) **shadow cones** — shadow rays go from recorded primary hit points to
    each light.  Hit points are kept as 8 per-column-bucket AABBs; a moved
    box can affect the tile's shadows only if, seen from some light, its
    bounding-sphere cone overlaps a bucket's cone *and* it is not entirely
    farther than the bucket (both tests on old and new boxes, so occluders
    moving away un-shadow correctly).

Edits with no spatial bound — camera, lights, background, recursion depth,
add/remove (the BVH rebuild may reorder leaves and flip exact-``t``
tie-breaks), unbounded-primitive geometry — dirty every tile.  Tiles with
no summary (never rendered under capture) are always dirty.  The planner
never *undirties* anything: the worst case degrades to a full re-render,
keeping output pixel-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.raytracer.mutation import EditEntry, EditOp, GLOBAL_KINDS, STRUCTURAL_KINDS

__all__ = ["TileTouch", "TileSummary", "plan_tiles", "BUCKETS"]

#: number of per-tile column buckets for shadow-region AABBs; full-width row
#: bands would otherwise collapse into one angularly huge hit region and the
#: light-cone test (rule d) would dirty almost everything
BUCKETS = 8

#: absolute inflation applied to old/new AABBs before the dirty tests,
#: absorbing the tracer's own epsilons (shadow-ray offset 1e-4, t_min 1e-6)
BOX_EPSILON = 1e-3


@dataclass(frozen=True)
class TileSummary:
    """Picklable per-tile capture result, stored in the backend tile cache."""

    ids: frozenset
    bucket_min: np.ndarray  # (BUCKETS, 3) — +inf where the bucket is empty
    bucket_max: np.ndarray  # (BUCKETS, 3) — -inf where the bucket is empty
    secondary: bool
    rays: int


class TileTouch:
    """Mutable capture state attached to a :class:`RayTracer` for one tile.

    The packet and scalar tracing paths call :meth:`note_packet` /
    :meth:`note_scalar` as they find hits; :meth:`summary` freezes the
    result.  Capture cost is a set-update and a handful of array
    reductions per packet: under the interpreter lock it competes with
    the other solver threads, so it stays free of per-hit Python work.
    """

    __slots__ = (
        "width", "ids", "secondary", "current_px", "_extent",
        "_bucket_starts", "_bucket_keys",
    )

    def __init__(self, width: int):
        self.width = max(1, int(width))
        self.ids: Set[int] = set()
        self.secondary = False
        self.current_px = 0  # scalar path: set by render_rows before trace()
        # per bucket: the hit points' minimum corner, then their negated
        # maximum corner, so one minimum reduction updates both
        self._extent = np.full((BUCKETS, 6), np.inf)
        self._bucket_starts, self._bucket_keys = _bucket_layout(self.width)

    def note_packet(
        self,
        data: Any,
        origins: np.ndarray,
        directions: np.ndarray,
        indices: np.ndarray,
        t: np.ndarray,
        hits: np.ndarray,
        rays: int,
        depth: int,
    ) -> None:
        """Record one packet's hits.

        ``origins``/``directions``/``indices``/``t`` are the hit rays' rows
        (the shading's own gathered inputs) and ``hits`` their positions in
        the packet of ``rays`` rays.
        """
        self.ids.update(data.primitive_id.take(indices).tolist())
        if depth > 0 or hits.size == 0:
            return
        # primary packets are full-row blocks, so column = ray index % width:
        # reduce the hit points per column, then each bucket's column range
        points = origins + t[:, None] * directions
        grid = np.full((rays, 6), np.inf)  # misses never win
        grid[hits] = np.concatenate((points, -points), axis=1)
        columns = grid.reshape(-1, self.width, 6).min(axis=0)
        per_bucket = np.minimum.reduceat(columns, self._bucket_starts)
        keys = self._bucket_keys
        self._extent[keys] = np.minimum(self._extent[keys], per_bucket)

    def note_scalar(self, primitive: Any, point: np.ndarray, depth: int) -> None:
        """Record one scalar hit (``current_px`` holds the pixel column)."""
        self.ids.add(primitive.primitive_id)
        if depth > 0:
            return
        bucket = self.current_px * BUCKETS // self.width
        np.minimum.at(self._extent, bucket, np.concatenate((point, -point)))

    def summary(self, rays: int) -> TileSummary:
        return TileSummary(
            ids=frozenset(self.ids),
            bucket_min=self._extent[:, :3].copy(),
            bucket_max=-self._extent[:, 3:],
            secondary=self.secondary,
            rays=int(rays),
        )


def _bucket_layout(width: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first column of every bucket that has columns, and its bucket.

    Shared, read-only, by the tiles of one width: a frame creates one
    :class:`TileTouch` per tile, and deriving the layout per tile cost about
    as much as recording the tile's hits.
    """
    layout = _BUCKET_LAYOUTS.get(width)
    if layout is None:
        column_bucket = np.arange(width) * BUCKETS // width
        starts = np.flatnonzero(np.diff(column_bucket, prepend=-1))
        keys = column_bucket[starts]
        starts.flags.writeable = keys.flags.writeable = False
        layout = _BUCKET_LAYOUTS[width] = (starts, keys)
    return layout


_BUCKET_LAYOUTS: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


# -- the planner --------------------------------------------------------------


#: (8, 3) selector of the box corners: True picks the maximum on that axis
_CORNERS = np.array(list(product((False, True), repeat=3)))


def _box_rows(
    camera: Any, minimum: np.ndarray, maximum: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Row ranges the ``(B, 3)`` boxes' projections can cover, or ``None``.

    Projects the 8 corners of every box in one batch; any corner at/behind
    the eye plane makes that image extent unbounded (``None``: all rows).
    The returned ``(lo, hi)`` arrays carry ±1 row of margin for pixel-centre
    rounding.
    """
    corners = np.where(_CORNERS, maximum[:, None, :], minimum[:, None, :])
    rows = camera.rows_of_points(corners.reshape(-1, 3))
    if rows is None:
        return None
    rows = rows.reshape(-1, len(_CORNERS))
    lo = np.maximum(0, rows.min(axis=1) - 1)
    hi = np.minimum(camera.height - 1, rows.max(axis=1) + 1)
    return lo, hi


def _cones_overlap_block(
    light_pos: np.ndarray,
    hit_min: np.ndarray,
    hit_max: np.ndarray,
    box_centers: np.ndarray,
    box_radii: np.ndarray,
) -> bool:
    """Rule (d): can a segment from the light to any hit bucket (U) cross any
    box (B)?  Both tests are necessary conditions: the two bounding-sphere
    cones overlap, and the box is not entirely beyond the hits.  One (U, B)
    grid per (section, light) keeps planning cheap next to the render it
    saves (a 2000-edit frame over 24 sections is ~50k one-pair tests)."""
    hit_centers = 0.5 * (hit_min + hit_max)  # (U, 3)
    hit_radii = 0.5 * np.linalg.norm(hit_max - hit_min, axis=1)  # (U,)
    to_hit = hit_centers - light_pos  # (U, 3)
    to_box = box_centers - light_pos  # (B, 3)
    dist_hit = np.linalg.norm(to_hit, axis=1)  # (U,)
    dist_box = np.linalg.norm(to_box, axis=1)  # (B,)
    inside = (dist_box <= box_radii + 1e-12)[None, :] | (
        dist_hit <= hit_radii + 1e-12
    )[:, None]
    if inside.any():
        return True
    beyond = (dist_box - box_radii)[None, :] > (dist_hit + hit_radii)[:, None]
    cos_axis = (to_hit @ to_box.T) / (dist_hit[:, None] * dist_box[None, :])
    axis_angle = np.arccos(np.clip(cos_axis, -1.0, 1.0))
    half_hit = np.arcsin(np.clip(hit_radii / dist_hit, 0.0, 1.0))
    half_box = np.arcsin(np.clip(box_radii / dist_box, 0.0, 1.0))
    overlap = ~beyond & (axis_angle <= half_hit[:, None] + half_box[None, :])
    return bool(overlap.any())


def plan_tiles(
    entries: Sequence[EditEntry],
    summaries: Dict[int, TileSummary],
    sections: Sequence[Any],
    lights: Sequence[Any],
    camera: Any,
) -> Optional[Set[int]]:
    """Which section indices must re-render after replaying ``entries``?

    Returns the set of dirty section indices, or ``None`` when everything
    must re-render (a global edit, a structural edit, an unbounded-geometry
    edit, or an unbounded projection).  ``summaries`` maps section index to
    the :class:`TileSummary` captured at the cached frame; sections without
    one are always dirty.
    """
    ops: List[EditOp] = [op for entry in entries for op in entry.ops]
    if not ops:
        return set()
    changed_ids: Set[int] = set()
    boxes: List[Tuple[Tuple[float, ...], Tuple[float, ...]]] = []
    for op in ops:
        if op.kind in GLOBAL_KINDS or op.kind in STRUCTURAL_KINDS:
            return None
        if op.kind != "update":  # pragma: no cover - no other kinds exist
            return None
        changed_ids.add(op.target)
        if op.geometry:
            if op.unbounded or op.old_box is None or op.new_box is None:
                return None
            boxes.append(op.old_box)
            boxes.append(op.new_box)

    if boxes:
        # inflated (B, 3) corner arrays and each box's projected row range
        # (rule c), all boxes at once
        box_min = np.array([box[0] for box in boxes], dtype=np.float64) - BOX_EPSILON
        box_max = np.array([box[1] for box in boxes], dtype=np.float64) + BOX_EPSILON
        box_rows = _box_rows(camera, box_min, box_max)
        if box_rows is None:
            return None  # a box reaches the eye plane: projection unbounded
        rows_lo, rows_hi = box_rows
        box_centers = 0.5 * (box_min + box_max)
        box_radii = 0.5 * np.linalg.norm(box_max - box_min, axis=1)
    light_positions = [np.asarray(light.position, dtype=np.float64) for light in lights]

    dirty: Set[int] = set()
    for section in sections:
        index = section.index
        summary = summaries.get(index)
        if summary is None:
            dirty.add(index)
            continue
        if summary.ids & changed_ids:  # rule (a)
            dirty.add(index)
            continue
        if not boxes:
            continue  # material-only edits: rule (a) was the whole test
        if summary.secondary:  # rule (b)
            dirty.add(index)
            continue
        y_lo, y_hi = section.y_start, section.y_end - 1
        if np.any((rows_lo <= y_hi) & (rows_hi >= y_lo)):  # rule (c)
            dirty.add(index)
            continue
        used = np.isfinite(summary.bucket_min[:, 0])
        if not used.any():
            continue  # no primary hits: nothing in the tile casts shadows
        hit_min = summary.bucket_min[used]
        hit_max = summary.bucket_max[used]
        if any(
            _cones_overlap_block(light_pos, hit_min, hit_max, box_centers, box_radii)
            for light_pos in light_positions  # rule (d)
        ):
            dirty.add(index)
    return dirty
