"""Pinhole camera: generates the primary ray through each pixel."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.raytracer.ray import Ray
from repro.raytracer.vec import Vector, cross, normalize, vec3

__all__ = ["Camera"]


@dataclass
class Camera:
    """A simple look-at pinhole camera.

    Parameters
    ----------
    position:
        Eye position (the paper's "center of projection").
    look_at:
        Point the camera looks at.
    up:
        Approximate up direction.
    fov_degrees:
        Vertical field of view.
    width, height:
        Image resolution in pixels; the paper's evaluation uses 3000x3000.
    """

    position: Vector = field(default_factory=lambda: vec3(0.0, 1.0, 5.0))
    look_at: Vector = field(default_factory=lambda: vec3(0.0, 0.0, 0.0))
    up: Vector = field(default_factory=lambda: vec3(0.0, 1.0, 0.0))
    fov_degrees: float = 60.0
    width: int = 3000
    height: int = 3000

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        self.position = np.asarray(self.position, dtype=np.float64)
        self.look_at = np.asarray(self.look_at, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)
        self._forward = normalize(self.look_at - self.position)
        self._right = normalize(cross(self._forward, self.up))
        self._true_up = cross(self._right, self._forward)
        self._half_height = float(np.tan(np.radians(self.fov_degrees) / 2.0))
        self._half_width = self._half_height * (self.width / self.height)

    def primary_ray(self, px: int, py: int) -> Ray:
        """The primary ray through the centre of pixel ``(px, py)``.

        Pixel (0, 0) is the top-left corner, matching image-array indexing
        ``pixels[py, px]``.
        """
        u = (px + 0.5) / self.width * 2.0 - 1.0
        v = 1.0 - (py + 0.5) / self.height * 2.0
        direction = (
            self._forward
            + u * self._half_width * self._right
            + v * self._half_height * self._true_up
        )
        return Ray(self.position, direction, depth=0)

    def primary_ray_block_into(
        self,
        y_start: int,
        y_end: int,
        out_directions: np.ndarray,
        out_norms: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All primary rays of rows ``[y_start, y_end)`` as arrays.

        Returns ``(origins, directions)``, both of shape ``(rows * width, 3)``
        in row-major pixel order — ray ``i`` corresponds to the pixel
        ``(px, py) = (i % width, y_start + i // width)`` and matches
        :meth:`primary_ray` for that pixel (same half-pixel centring, same
        normalization).  The directions are written into caller-owned
        scratch arrays: ``out_directions`` must hold at least
        ``rows * width`` rows of 3 and ``out_norms`` ``rows * width``
        values; both are overwritten.  The fused tile renderer reuses one
        scratch pair across frames instead of allocating fresh ``(n, 3)``
        intermediates per tile.
        """
        if not 0 <= y_start <= y_end <= self.height:
            raise ValueError(
                f"row range [{y_start}, {y_end}) outside image of height {self.height}"
            )
        rows = y_end - y_start
        n = rows * self.width
        px = np.arange(self.width, dtype=np.float64)
        py = np.arange(y_start, y_end, dtype=np.float64)
        u = (px + 0.5) / self.width * 2.0 - 1.0
        v = 1.0 - (py + 0.5) / self.height * 2.0
        directions = out_directions[:n]
        grid = directions.reshape(rows, self.width, 3)
        np.multiply((u * self._half_width)[None, :, None], self._right, out=grid)
        grid += self._forward
        grid += (v * self._half_height)[:, None, None] * self._true_up
        norms = out_norms[:n]
        np.einsum("ij,ij->i", directions, directions, out=norms)
        np.sqrt(norms, out=norms)
        directions /= norms[:, None]
        origins = np.broadcast_to(self.position, directions.shape)
        return origins, directions

    def ndc_of_point(self, point: Vector) -> Tuple[float, float, float]:
        """Project a world point; returns (x_ndc, y_ndc, depth).

        Used by the screen-space cost model to find which image rows an
        object covers.  Coordinates are in [-1, 1] with y pointing up; depth
        is the distance along the camera's forward axis (<= 0 means behind
        the camera).
        """
        offset = np.asarray(point, dtype=np.float64) - self.position
        depth = float(np.dot(offset, self._forward))
        if depth <= 1e-9:
            return 0.0, 0.0, depth
        x = float(np.dot(offset, self._right)) / (depth * self._half_width)
        y = float(np.dot(offset, self._true_up)) / (depth * self._half_height)
        return x, y, depth

    def rows_of_points(self, points: np.ndarray) -> Optional[np.ndarray]:
        """Pixel rows of ``(n, 3)`` world points, or ``None`` if any is unprojectable.

        The batched form of :meth:`ndc_of_point` followed by
        :meth:`row_of_ndc_y` (same depth cut-off, same half-to-even
        rounding and clamping); ``None`` means some point lies at or behind
        the eye plane, where the projection is unbounded.
        """
        offset = np.asarray(points, dtype=np.float64) - self.position
        depth = offset @ self._forward
        if np.any(depth <= 1e-9):
            return None
        y_ndc = (offset @ self._true_up) / (depth * self._half_height)
        rows = np.rint((1.0 - y_ndc) / 2.0 * self.height - 0.5)
        return np.clip(rows, 0, self.height - 1).astype(np.int64)

    def row_of_ndc_y(self, y_ndc: float) -> int:
        """Convert an NDC y coordinate into a clamped pixel row index."""
        row = int(round((1.0 - y_ndc) / 2.0 * self.height - 0.5))
        return min(max(row, 0), self.height - 1)

    def with_resolution(self, width: int, height: int) -> "Camera":
        """A copy of this camera at a different resolution (same view)."""
        return Camera(
            position=self.position.copy(),
            look_at=self.look_at.copy(),
            up=self.up.copy(),
            fov_degrees=self.fov_degrees,
            width=width,
            height=height,
        )
