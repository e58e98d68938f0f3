"""Image chunks, assembly, shared frame buffers and PPM output.

The splitter divides the image into horizontal sections; each solver returns
an :class:`ImageChunk` (its rows plus their vertical offset); the merger
re-assembles the chunks into the complete picture which ``genImg`` writes to
disk.  These are the exact data types flowing through the paper's networks.

Two additions support the zero-copy process data plane:

* :class:`SharedFrameBuffer` — the output image allocated in
  ``multiprocessing.shared_memory``; fork-inherited solver workers write
  their rendered rows straight into it;
* :class:`FrameChunkRef` — the metadata-only stand-in for an
  :class:`ImageChunk` that crosses the process boundary once the pixels
  already live in the shared frame (a few tens of bytes instead of
  24 bytes/pixel).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "ImageChunk",
    "FrameChunkRef",
    "SharedFrameBuffer",
    "assemble_chunks",
    "blank_image",
    "merge_chunk_into",
    "to_ppm",
    "image_rms_difference",
]


@dataclass
class ImageChunk:
    """A horizontal band of rendered pixels starting at row ``y_start``.

    ``rays_cast`` records how many rays the section cost to render; it rides
    along with the pixels so the merging side can aggregate tracing stats
    even when the solver executed in a worker process.
    """

    y_start: int
    pixels: np.ndarray  # shape (rows, width, 3), float64 in [0, 1]
    section_id: int = 0
    rays_cast: int = 0
    #: optional :class:`~repro.raytracer.coherence.TileSummary` captured
    #: while rendering (incremental mode); rides along so the coordinating
    #: backend can seed the next frame's dirty-tile plan
    summary: Optional[object] = None
    #: who rendered it: the worker's pid (0 = unstamped) and the scene
    #: ``edit_epoch`` it rendered at — the acknowledgement from which the
    #: coordinator learns how far each fork worker has replayed the journal
    worker: int = 0
    epoch: int = 0

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(
                f"chunk pixels must have shape (rows, width, 3), got {self.pixels.shape}"
            )
        if self.y_start < 0:
            raise ValueError("chunk y_start must be non-negative")

    @property
    def rows(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def y_end(self) -> int:
        return self.y_start + self.rows

    @property
    def nbytes(self) -> int:
        return int(self.pixels.nbytes)

    def payload_size(self) -> int:
        """Wire size: 3 bytes/pixel (the original sends 24-bit RGB chunks)."""
        return self.rows * self.width * 3 + 32


@dataclass
class FrameChunkRef:
    """Metadata-only record of a section already written to a shared frame.

    Carries everything the merger needs for bookkeeping (coverage, section
    identity, tracing stats) and nothing else — the pixels themselves never
    leave the :class:`SharedFrameBuffer` they were rendered into.
    """

    y_start: int
    rows: int
    width: int
    section_id: int = 0
    rays_cast: int = 0
    #: optional :class:`~repro.raytracer.coherence.TileSummary` (see
    #: :attr:`ImageChunk.summary`); small frozen metadata, not pixels
    summary: Optional[object] = None
    #: rendering worker's pid and scene epoch (see :attr:`ImageChunk.worker`)
    worker: int = 0
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.y_start < 0 or self.rows < 0:
            raise ValueError("chunk reference rows must be non-negative")

    @property
    def y_end(self) -> int:
        return self.y_start + self.rows

    def payload_size(self) -> int:
        """Wire size: a few small integers plus envelope."""
        return 40


class SharedFrameBuffer:
    """A float64 RGB frame allocated in POSIX shared memory.

    Created in the coordinating process *before* the worker pool forks, the
    buffer's mapping is inherited by every pool worker, so solver code on
    either side of the process boundary writes pixels through :attr:`array`
    with ordinary NumPy slicing and zero copies or pickling.  Sections are
    disjoint rows (the schedulers validate this), so no locking is needed.

    Call :meth:`release` when done: shared-memory segments outlive their
    creating process until explicitly unlinked.
    """

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("frame dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        nbytes = self.height * self.width * 3 * np.dtype(np.float64).itemsize
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.array: Optional[np.ndarray] = np.ndarray(
            (self.height, self.width, 3), dtype=np.float64, buffer=self._shm.buf
        )
        self.array[:] = 0.0
        self._released = False
        # only the creating process may unlink: a forked pool worker tearing
        # down its inherited copy must not destroy the segment under the
        # parent (and every sibling worker)
        self._owner_pid = os.getpid()

    @property
    def name(self) -> str:
        """OS-level segment name (useful when inspecting ``/dev/shm``)."""
        return self._shm.name

    def _require_open(self) -> np.ndarray:
        if self._released or self.array is None:
            raise ValueError("shared frame buffer has been released")
        return self.array

    def write_rows(self, y_start: int, pixels: np.ndarray) -> FrameChunkRef:
        """Write a band of rows at ``y_start``; returns its metadata ref."""
        frame = self._require_open()
        pixels = np.asarray(pixels, dtype=np.float64)
        rows = int(pixels.shape[0])
        if pixels.ndim != 3 or pixels.shape[1:] != (self.width, 3):
            raise ValueError(
                f"row band must have shape (rows, {self.width}, 3), got {pixels.shape}"
            )
        if not 0 <= y_start <= y_start + rows <= self.height:
            raise ValueError(
                f"rows [{y_start}, {y_start + rows}) outside frame height {self.height}"
            )
        frame[y_start : y_start + rows] = pixels
        return FrameChunkRef(y_start=y_start, rows=rows, width=self.width)

    def snapshot(self) -> np.ndarray:
        """An independent copy of the current frame contents."""
        return self._require_open().copy()

    def release(self) -> None:
        """Close the mapping and unlink the segment (idempotent).

        The ndarray view is dropped first — closing an mmap with exported
        buffers raises ``BufferError``; if an outside reference still pins
        the buffer the close is skipped but the segment is still unlinked,
        so it disappears once the last mapping dies with its process.
        """
        if self._released:
            return
        self._released = True
        self.array = None
        try:
            self._shm.close()
        except BufferError:  # a caller still holds a view; unlink regardless
            pass
        if os.getpid() != self._owner_pid:
            return  # inherited copy in a forked worker: close only
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.release()
        except Exception:
            pass


def blank_image(width: int, height: int) -> np.ndarray:
    """An all-black image of the requested size."""
    return np.zeros((height, width, 3), dtype=np.float64)


def assemble_chunks(
    chunks: Iterable[ImageChunk], width: int, height: int
) -> np.ndarray:
    """Place every chunk at its row offset in a full-size image.

    Raises ``ValueError`` if a chunk lies outside the image or chunks overlap
    (both indicate a scheduling bug).
    """
    image = blank_image(width, height)
    covered = np.zeros(height, dtype=bool)
    for chunk in chunks:
        if chunk.width != width:
            raise ValueError(
                f"chunk width {chunk.width} does not match image width {width}"
            )
        if chunk.y_end > height:
            raise ValueError(
                f"chunk rows [{chunk.y_start}, {chunk.y_end}) outside image height {height}"
            )
        if covered[chunk.y_start : chunk.y_end].any():
            raise ValueError(
                f"chunk rows [{chunk.y_start}, {chunk.y_end}) overlap a previous chunk"
            )
        covered[chunk.y_start : chunk.y_end] = True
        image[chunk.y_start : chunk.y_end] = chunk.pixels
    return image


def merge_chunk_into(
    image: np.ndarray, chunk: ImageChunk, copy: bool = True
) -> np.ndarray:
    """Merge ``chunk`` into ``image`` (the merge box) and return the result.

    With ``copy=True`` (the default, the paper's copy-based merge) the input
    image is left untouched and a full copy is allocated — O(H·W) per merge.
    With ``copy=False`` the live image is mutated in place and returned —
    O(chunk) per merge.  In-place merging is safe whenever the accumulator
    is *linear* in the dataflow (exactly one live reference), which holds
    for the merger network's ``pic`` token: the synchrocell joins it with
    one chunk, the merge box consumes both and emits the sole successor.
    """
    result = image.copy() if copy else image
    result[chunk.y_start : chunk.y_end] = chunk.pixels
    return result


def to_ppm(image: np.ndarray) -> bytes:
    """Encode an image as a binary PPM (P6) byte string."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"image must have shape (height, width, 3), got {image.shape}")
    height, width = image.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    data = (np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8).tobytes()
    return header + data


def image_rms_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square pixel difference between two images (test helper)."""
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))
