"""Render backends: real pixels or modelled costs.

The S-Net networks and the MPI baseline are written once against the
:class:`RenderBackend` interface:

* :class:`RealRenderBackend` actually traces rays — used by the examples,
  the integration tests and any run where the image itself matters (small
  resolutions);
* :class:`ModelRenderBackend` produces lightweight placeholder chunks whose
  payload sizes match the real ones and exposes per-section costs from the
  :class:`~repro.raytracer.cost.SectionCostModel` — used by the simulated
  performance experiments, where only *when* things happen matters.

This split is the substitution documented in DESIGN.md: the coordination
structures (networks, schedulers, runtimes) are identical in both modes; only
the box bodies differ.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.raytracer.camera import Camera
from repro.raytracer.coherence import plan_tiles
from repro.raytracer.cost import CostParameters, SectionCostModel
from repro.raytracer.image import (
    FrameChunkRef,
    ImageChunk,
    SharedFrameBuffer,
    blank_image,
    merge_chunk_into,
    to_ppm,
)
from repro.raytracer.mutation import EditEntry, apply_edits
from repro.raytracer.scene import Scene
from repro.raytracer.tracer import check_render_mode, render_section
from repro.scheduling.base import Section

__all__ = [
    "RenderBackend",
    "RealRenderBackend",
    "SharedFrameRenderBackend",
    "ModelRenderBackend",
    "ChunkPlaceholder",
    "PicturePlaceholder",
    "SharedFramePicture",
]

#: memory-copy throughput of the reference CPU (bytes/second), used to cost
#: the merger's accumulator copies and the master's image assembly
REFERENCE_COPY_BANDWIDTH = 400e6
#: effective shared-filesystem write throughput (bytes/second)
REFERENCE_WRITE_BANDWIDTH = 8e6
#: effective scene-loading throughput (bytes/second)
REFERENCE_READ_BANDWIDTH = 8e6


@dataclass
class ChunkPlaceholder:
    """Stand-in for an :class:`~repro.raytracer.image.ImageChunk` (model mode)."""

    y_start: int
    rows: int
    width: int
    section_id: int = 0

    @property
    def y_end(self) -> int:
        return self.y_start + self.rows

    def payload_size(self) -> int:
        return self.rows * self.width * 3 + 32


@dataclass
class SharedFramePicture:
    """Bookkeeping token for an accumulator living in a shared frame buffer.

    On the zero-copy data plane the ``pic`` record is pure metadata: the
    pixels already sit in the :class:`~repro.raytracer.image.SharedFrameBuffer`
    the solver workers wrote into, so "merging" degenerates to counting the
    chunks and rows accounted for.
    """

    width: int
    height: int
    merged_chunks: int = 0
    covered_rows: int = 0

    def absorb(self, chunk: FrameChunkRef) -> "SharedFramePicture":
        if self.covered_rows + chunk.rows > self.height:
            raise ValueError(
                f"merging chunk rows [{chunk.y_start}, {chunk.y_end}) exceeds "
                f"frame height {self.height}"
            )
        return SharedFramePicture(
            width=self.width,
            height=self.height,
            merged_chunks=self.merged_chunks + 1,
            covered_rows=self.covered_rows + chunk.rows,
        )

    def payload_size(self) -> int:
        return 32


@dataclass
class PicturePlaceholder:
    """Stand-in for the accumulated result picture (model mode)."""

    width: int
    height: int
    merged_chunks: int = 0
    covered_rows: int = 0

    def payload_size(self) -> int:
        return self.width * self.height * 3 + 32


class RenderBackend:
    """Interface between the coordination code and the rendering substrate.

    A backend may serve many runs (a warm service reuses one backend per
    cached scene); call :meth:`begin_job` before each reuse run.  The
    rendered result of a run is read back with
    :func:`repro.apps.workloads.extract_image` after ``genImg`` fired.

    >>> from repro.raytracer.camera import Camera
    >>> from repro.raytracer.scene import random_scene
    >>> backend = ModelRenderBackend(random_scene(num_spheres=2), Camera(width=8, height=8))
    >>> chunk = backend.render_section(Section(index=0, y_start=0, y_end=4))
    >>> (chunk.rows, chunk.width), backend.section_cost(Section(0, 0, 4)) > 0
    ((4, 8), True)
    """

    def __init__(self, scene: Scene, camera: Camera):
        self.scene = scene
        self.camera = camera
        self.saved_images: List[Any] = []
        self._stats_lock = threading.Lock()
        self.rays_cast = 0
        #: master switch for the temporal tile cache; even when ``True`` the
        #: cache only engages for *journaled* scenes (``edit_epoch > 0``), so
        #: plain one-shot jobs behave exactly as before
        self.incremental = True
        #: set by the warm-runtime builder on fork-based runtimes: returns
        #: the pids of the live workers, which hold fork-time scene copies
        #: that dirty sections must catch up (``None``: the workers share
        #: the coordinator's scene object and nothing is shipped)
        self.fork_workers: Optional[Callable[[], Sequence[int]]] = None
        #: the scene epoch the fork workers were forked at
        self.broadcast_epoch = 0
        #: worker pid -> the highest scene epoch one of its chunks was
        #: rendered at (the journal prefix it is known to have replayed)
        self.watermarks: Dict[int, int] = {}
        #: lifetime count of journal entries attached to dirty sections
        self.edits_shipped = 0
        #: lifetime counters (like ``rays_cast``): sections served from the
        #: tile cache and the rays those sections cost when last rendered
        self.tiles_reused = 0
        self.rays_saved = 0
        # tile cache: section index -> (zero-ray chunk copy, TileSummary);
        # valid only for the (scene object, epoch, section signature) in
        # ``_cache_state`` — any mismatch falls back to a full render
        self._tile_cache: Dict[int, Tuple[Any, Any]] = {}
        self._cache_state: Optional[Dict[str, Any]] = None
        self._pending_tiles: Dict[int, Tuple[Any, Any]] = {}
        self._frame_meta: Optional[Dict[str, Any]] = None
        self._camera_cache: Optional[Tuple[Any, Camera]] = None

    # -- reuse across runs ----------------------------------------------------
    def begin_job(self) -> None:
        """Reset per-job observable state before reusing this backend.

        Long-lived callers (the render service) run many jobs against one
        backend; without this, ``saved_images`` would retain every frame ever
        rendered.  ``rays_cast`` is a lifetime counter and is *not* reset —
        per-job counts are obtained by snapshotting it around the run.
        """
        self.saved_images.clear()

    # -- tracing stats ---------------------------------------------------------
    def add_rays_cast(self, count: int) -> None:
        """Thread-safely accumulate rays cast by one solver invocation.

        Solver replicas share this backend object, and a service may run
        jobs on several threads, hence the lock.
        """
        if count:
            with self._stats_lock:
                self.rays_cast += int(count)

    def absorb_chunk_stats(self, chunk: Any) -> None:
        """Fold a chunk's tracing stats into the backend totals.

        Called by the merger-side boxes (which always execute in the
        coordinating process), so the counts survive even when the solver ran
        in a forked pool worker whose backend copy is unreachable.  On fork
        runtimes the chunk's ``(worker, epoch)`` stamp also raises that
        worker's watermark (see :meth:`pending_edits`).

        When the current job captures tile summaries (incremental mode), the
        chunk is also banked for the next frame's tile cache: a zero-ray
        copy, so a reused tile can be re-emitted any number of times without
        ever double-counting its original rays.
        """
        self.add_rays_cast(getattr(chunk, "rays_cast", 0))
        worker = getattr(chunk, "worker", 0)
        if worker and self.fork_workers is not None:
            if chunk.epoch > self.watermarks.get(worker, -1):
                self.watermarks[worker] = chunk.epoch
        meta = self._frame_meta
        if meta is None or not meta["capture"]:
            return
        summary = getattr(chunk, "summary", None)
        if summary is None:
            return
        cached = chunk if getattr(chunk, "rays_cast", 0) == 0 else replace(chunk, rays_cast=0)
        self._pending_tiles[getattr(chunk, "section_id", 0)] = (cached, summary)

    # -- temporal tile cache ---------------------------------------------------
    def _camera_for(self, scene: Scene) -> Camera:
        """The camera to render ``scene`` with, at this backend's resolution.

        A scene-owned camera (``scene.camera``) overrides the backend default
        view; the resolved copy is cached by camera-object identity, so a
        committed camera edit (which installs a fresh object) re-resolves
        while steady-state frames pay a pointer compare.
        """
        cam = getattr(scene, "camera", None)
        if cam is None:
            return self.camera
        cached = self._camera_cache
        if cached is not None and cached[0] is cam:
            return cached[1]
        resolved = cam.with_resolution(self.camera.width, self.camera.height)
        self._camera_cache = (cam, resolved)
        return resolved

    def pending_edits(self, scene: Scene) -> Optional[List[EditEntry]]:
        """Journal entries the slowest live fork worker has not replayed.

        The floor is the minimum watermark over the runtime's live workers;
        a live worker that has not acknowledged a chunk yet (new, or
        respawned after a death) counts at ``broadcast_epoch``, and dead
        workers' watermarks are dropped, so they cannot pin the floor.
        ``[]`` when nothing needs shipping (shared-memory runtime, scene
        without a journal, no live fork worker); ``None`` when the journal
        has been trimmed past the floor — the slowest worker can no longer
        be caught up, and the render service rebuilds the slot.
        """
        journal = getattr(scene, "journal", None)
        if self.fork_workers is None or journal is None:
            return []
        live = set(self.fork_workers())
        marks = self.watermarks
        for worker in [w for w in marks if w not in live]:
            del marks[worker]
        if not live:
            return []
        floor = min(marks.get(worker, self.broadcast_epoch) for worker in live)
        return journal.entries_since(floor)

    def edits_to_ship(self, scene: Scene) -> Tuple[EditEntry, ...]:
        """Journal entries every dirty section of this frame must carry.

        A worker only sees the sections routed to it, so each dirty section
        carries everything the slowest live worker lacks
        (:meth:`pending_edits`), in wire form (no planner boxes).  Replay
        is epoch-gated and idempotent, so a worker that is ahead skips what
        it already has.  Raises ``RuntimeError`` when the journal no longer
        reaches the floor — rendering with silently stale workers would
        corrupt pixels; the render service rebuilds such slots before
        dispatch, so this fires only on direct misuse of a stale warm
        runtime.
        """
        entries = self.pending_edits(scene)
        if entries is None:
            raise RuntimeError(
                "scene journal no longer covers the slowest live worker's "
                "epoch; rebuild the warm runtime"
            )
        return tuple(entry.for_wire() for entry in entries)

    def plan_job(self, scene: Scene, sections: Sequence[Section]) -> Dict[int, Any]:
        """Decide which sections can be served from the tile cache.

        Called once per job by the splitter (which always runs in the
        coordinating process) with the job's full section list.  Returns
        ``{section index: cached chunk}`` for every section that is provably
        unaffected by the scene edits since the cached frame; the splitter
        short-circuits those records straight to the merger (adjacent ones
        joined, see :meth:`join_chunks`).  Also arms the capture of this
        frame's summaries (see :meth:`absorb_chunk_stats` /
        :meth:`finish_job`); the reused tiles' own entries are banked here,
        so a joined chunk needs to carry none.

        The cache is consulted only when *everything* lines up: incremental
        mode on, the scene is journaled, it is the **same scene object** as
        the cached frame (the warm service guarantees this for in-place
        animation), the section layout is unchanged, and the journal still
        covers the cached epoch.  Any mismatch renders everything — the
        planner can only ever degrade to a full re-render.
        """
        epoch = getattr(scene, "edit_epoch", 0)
        capture = bool(self.incremental and epoch > 0)
        signature = tuple(sorted((s.index, s.y_start, s.y_end) for s in sections))
        reuse: Dict[int, Any] = {}
        state = self._cache_state
        journal = getattr(scene, "journal", None)
        if (
            capture
            and state is not None
            and state["scene_id"] == id(scene)
            and state["signature"] == signature
            and journal is not None
        ):
            entries = journal.entries_since(state["epoch"])
            if entries is not None:
                summaries = {
                    index: entry[1] for index, entry in self._tile_cache.items()
                }
                dirty = plan_tiles(
                    entries, summaries, sections, scene.lights, self._camera_for(scene)
                )
                if dirty is not None:
                    for section in sections:
                        entry = self._tile_cache.get(section.index)
                        if section.index not in dirty and entry is not None:
                            reuse[section.index] = entry[0]
        self._pending_tiles = {index: self._tile_cache[index] for index in reuse}
        self._frame_meta = {
            "capture": capture,
            "scene_id": id(scene),
            "epoch": epoch,
            "signature": signature,
            "expected": len(sections),
        }
        if reuse:
            saved = sum(self._tile_cache[index][1].rays for index in reuse)
            with self._stats_lock:
                self.tiles_reused += len(reuse)
                self.rays_saved += saved
        return reuse

    def finish_job(self) -> None:
        """Promote this frame's captured tiles to the cross-job tile cache.

        Called by the ``genImg`` box after the picture is written — i.e.
        after every section (fresh or reused) passed through the merger.  A
        complete frame becomes the new cache; anything short of complete
        (capture off, a chunk without a summary) clears it, so a stale or
        partial cache can never serve a future frame.
        """
        meta, self._frame_meta = self._frame_meta, None
        pending, self._pending_tiles = self._pending_tiles, {}
        if meta is not None and meta["capture"] and len(pending) == meta["expected"]:
            self._tile_cache = pending
            self._cache_state = {
                "scene_id": meta["scene_id"],
                "epoch": meta["epoch"],
                "signature": meta["signature"],
            }
        else:
            self._tile_cache = {}
            self._cache_state = None

    # -- geometry ------------------------------------------------------------
    @property
    def width(self) -> int:
        return self.camera.width

    @property
    def height(self) -> int:
        return self.camera.height

    # -- box bodies -----------------------------------------------------------
    def render_section(self, section: Section) -> Any:
        """The solver body: render one section, return the chunk."""
        raise NotImplementedError

    def join_chunks(self, chunks: Sequence[Any]) -> Any:
        """One zero-ray chunk covering ``chunks``: cached, row-adjacent, in order.

        The splitter sends each run of adjacent cache-reused sections to the
        merger as one chunk: the merger network unrolls one star level per
        chunk and passes every chunk through all earlier levels, so 24
        sections cost it ~24²/2 stream hops however few were re-traced.
        """
        raise NotImplementedError

    def init_picture(self, chunk: Any) -> Any:
        """The init body: create the accumulator picture from the first chunk."""
        raise NotImplementedError

    def merge(self, picture: Any, chunk: Any) -> Any:
        """The merge body: insert a chunk into (a copy of) the picture."""
        raise NotImplementedError

    def write_image(self, picture: Any) -> None:
        """The genImg body: write the completed picture to the output file."""
        self.saved_images.append(picture)

    # -- cost model (reference seconds; model mode only) ----------------------
    def section_cost(self, section: Section) -> float:
        return 0.0

    def chunk_copy_cost(self, chunk: Any) -> float:
        return 0.0

    def picture_copy_cost(self) -> float:
        return 0.0

    def merge_cost(self, chunk: Any) -> float:
        """Modelled cost of one merge-box invocation.

        The default charges the paper's copy-based merge (one accumulator
        copy plus one chunk copy).  Backends whose merge is O(chunk) —
        in-place accumulators, shared frame buffers — return less.
        """
        return self.picture_copy_cost() + self.chunk_copy_cost(chunk)

    def image_write_cost(self) -> float:
        return 0.0

    def scene_load_cost(self) -> float:
        return 0.0

    def split_cost(self) -> float:
        return 0.0


class RealRenderBackend(RenderBackend):
    """Backend that actually renders pixels (for small resolutions).

    ``render_mode`` selects the execution strategy of the solver body
    (``None`` = the default, see
    :func:`~repro.raytracer.tracer.check_render_mode`): ``"fused"`` renders
    each section as vectorized NumPy ray packets over the flat BVH (see
    :mod:`repro.raytracer.packet`), ``"scalar"`` one pixel at a time (the
    correctness oracle); both produce the same image to within
    ``atol=1e-9``.

    The merge box mutates the single live accumulator in place — O(chunk)
    per merge instead of the paper's O(H·W) copy — which is safe because
    the merger's ``pic`` token is linear in the dataflow.
    """

    def __init__(
        self,
        scene: Scene,
        camera: Camera,
        render_mode: Optional[str] = None,
    ):
        super().__init__(scene, camera)
        self.render_mode = check_render_mode(render_mode)

    def render_section(self, section: Section) -> ImageChunk:
        edits = getattr(section, "edits", ())
        if edits:
            # fork-based worker catching up on journal entries committed in
            # the coordinator after the pool forked (idempotent replay)
            apply_edits(self.scene, edits)
        epoch = getattr(self.scene, "edit_epoch", 0)
        chunk = render_section(
            self.scene,
            self._camera_for(self.scene),
            section.y_start,
            section.y_end,
            section.index,
            mode=self.render_mode,
            touch=bool(self.incremental and epoch > 0),
        )
        # acknowledge how far this worker has replayed the journal
        chunk.worker, chunk.epoch = os.getpid(), epoch
        return chunk

    def join_chunks(self, chunks: Sequence[ImageChunk]) -> ImageChunk:
        return ImageChunk(
            y_start=chunks[0].y_start,
            pixels=np.concatenate([chunk.pixels for chunk in chunks]),
            section_id=chunks[0].section_id,
        )

    def init_picture(self, chunk: ImageChunk) -> np.ndarray:
        self.absorb_chunk_stats(chunk)
        picture = blank_image(self.width, self.height)
        return merge_chunk_into(picture, chunk, copy=False)  # fresh, always safe

    def merge(self, picture: np.ndarray, chunk: ImageChunk) -> np.ndarray:
        self.absorb_chunk_stats(chunk)
        return merge_chunk_into(picture, chunk, copy=False)

    def merge_cost(self, chunk: Any) -> float:
        # the in-place merge writes only the chunk's rows
        return self.chunk_copy_cost(chunk)

    def write_image(self, picture: np.ndarray) -> None:
        # keep both the raw array (for assertions) and the PPM encoding
        self.saved_images.append(picture)
        self.last_ppm = to_ppm(picture)


class SharedFrameRenderBackend(RealRenderBackend):
    """Real pixels rendered straight into a shared-memory frame buffer.

    The zero-copy data plane of the process runtime: the frame is allocated
    in ``multiprocessing.shared_memory`` *before* the worker pool forks, so
    every solver worker inherits the mapping and writes its rendered rows
    directly into the final image.  What crosses the process boundary is
    pure metadata — :class:`~repro.raytracer.image.FrameChunkRef` chunks on
    the way back, a :class:`SharedFramePicture` token between the merger
    boxes — and the merge box degenerates to O(1) bookkeeping.

    Works identically (if pointlessly) on the threaded runtime, where the
    "shared" frame is simply process-local memory; the conformance tests
    use that to pin pixel identity against the record-passing oracle.

    Call :meth:`release` (idempotent) when done with the backend: shared
    segments outlive their creator until unlinked.  Images saved by
    ``genImg`` are snapshots, so they stay valid after release.
    """

    def __init__(
        self,
        scene: Scene,
        camera: Camera,
        render_mode: Optional[str] = None,
    ):
        super().__init__(scene, camera, render_mode=render_mode)
        self.frame = SharedFrameBuffer(camera.width, camera.height)

    def render_section(self, section: Section) -> FrameChunkRef:
        chunk = super().render_section(section)
        ref = self.frame.write_rows(chunk.y_start, chunk.pixels)
        return FrameChunkRef(
            y_start=ref.y_start,
            rows=ref.rows,
            width=ref.width,
            section_id=section.index,
            rays_cast=chunk.rays_cast,
            summary=chunk.summary,
            worker=chunk.worker,
            epoch=chunk.epoch,
        )

    def join_chunks(self, chunks: Sequence[FrameChunkRef]) -> FrameChunkRef:
        # the reused rows are still in the frame from the cached job
        return FrameChunkRef(
            y_start=chunks[0].y_start,
            rows=sum(chunk.rows for chunk in chunks),
            width=chunks[0].width,
            section_id=chunks[0].section_id,
        )

    def init_picture(self, chunk: FrameChunkRef) -> SharedFramePicture:
        self.absorb_chunk_stats(chunk)
        return SharedFramePicture(
            width=self.width, height=self.height, merged_chunks=1,
            covered_rows=chunk.rows,
        )

    def merge(self, picture: SharedFramePicture, chunk: FrameChunkRef) -> SharedFramePicture:
        self.absorb_chunk_stats(chunk)
        return picture.absorb(chunk)

    def merge_cost(self, chunk: Any) -> float:
        return 0.0  # bookkeeping only

    def write_image(self, picture: SharedFramePicture) -> None:
        snapshot = self.frame.snapshot()
        self.saved_images.append(snapshot)
        self.last_ppm = to_ppm(snapshot)

    def release(self) -> None:
        """Unlink the shared frame segment (idempotent)."""
        self.frame.release()


class ModelRenderBackend(RenderBackend):
    """Backend that produces placeholders and costs instead of pixels."""

    def __init__(
        self,
        scene: Scene,
        camera: Camera,
        cost_parameters: Optional[CostParameters] = None,
    ):
        super().__init__(scene, camera)
        self.cost_model = SectionCostModel(scene, camera, cost_parameters)

    # -- box bodies -----------------------------------------------------------
    def render_section(self, section: Section) -> ChunkPlaceholder:
        return ChunkPlaceholder(
            y_start=section.y_start,
            rows=section.rows,
            width=self.width,
            section_id=section.index,
        )

    def init_picture(self, chunk: ChunkPlaceholder) -> PicturePlaceholder:
        return PicturePlaceholder(
            width=self.width,
            height=self.height,
            merged_chunks=1,
            covered_rows=chunk.rows,
        )

    def merge(self, picture: PicturePlaceholder, chunk: ChunkPlaceholder) -> PicturePlaceholder:
        return PicturePlaceholder(
            width=picture.width,
            height=picture.height,
            merged_chunks=picture.merged_chunks + 1,
            covered_rows=picture.covered_rows + chunk.rows,
        )

    # -- costs ------------------------------------------------------------------
    def section_cost(self, section: Section) -> float:
        return self.cost_model.section_cost(section.y_start, section.y_end)

    def chunk_copy_cost(self, chunk: Any) -> float:
        nbytes = chunk.payload_size() if hasattr(chunk, "payload_size") else 0
        return nbytes / REFERENCE_COPY_BANDWIDTH

    def picture_copy_cost(self) -> float:
        return (self.width * self.height * 3) / REFERENCE_COPY_BANDWIDTH

    def image_write_cost(self) -> float:
        return (self.width * self.height * 3) / REFERENCE_WRITE_BANDWIDTH

    def scene_load_cost(self) -> float:
        return self.scene.payload_size() / REFERENCE_READ_BANDWIDTH

    def split_cost(self) -> float:
        return 0.01
