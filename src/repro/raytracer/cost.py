"""Per-section render-cost model for the simulated performance experiments.

The performance figures of the paper depend on *how long* each image section
takes to render on a PIII-class CPU, not on the pixel values.  Rendering a
3000x3000 image in pure Python for every point of Figs. 5 and 6 is
infeasible, so the simulated experiments use this cost model instead:

* every image row gets a relative **weight**: a base cost per pixel (every
  primary ray at least traverses the BVH and misses) plus, for every scene
  object whose screen-space bounding box covers the row, a term proportional
  to the covered width and the object's shading cost (reflective and
  transparent materials spawn secondary rays and are therefore more
  expensive);
* the weights are normalised so that the whole image costs
  ``total_seconds`` reference-CPU seconds — the calibration constant that
  anchors the simulation to the paper's absolute scale (the single-process
  MPI run of Fig. 6 took 651 s, of which ~630 s is rendering);
* the cost of a section ``[y0, y1)`` is the sum of its row weights.

The *shape* of the weights — which rows are expensive — comes from the same
scene description the real tracer uses, so load imbalance in the simulation
mirrors exactly what the real renderer would see.  The model can be
validated against the real tracer at small resolutions
(:meth:`SectionCostModel.measured_row_weights`), which is what the tests do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.raytracer.camera import Camera
from repro.raytracer.scene import Scene
from repro.raytracer.tracer import RayTracer

__all__ = ["CostParameters", "SectionCostModel"]


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost model.

    ``total_seconds`` calibrates the whole-image render time in reference
    CPU seconds (the paper's hardware).  The remaining parameters only shape
    the *relative* distribution of work across rows.
    """

    #: whole-image render time on one reference CPU (seconds)
    total_seconds: float = 630.0
    #: relative cost of a primary ray that hits nothing
    base_pixel_cost: float = 2.5
    #: relative cost added per covered pixel of a matte object
    object_pixel_cost: float = 1.0
    #: extra factor for objects spawning secondary rays (mirror/glass)
    secondary_ray_factor: float = 1.8
    #: additional rows of influence (blur) around an object's screen extent,
    #: modelling shadows/reflections spilling beyond the silhouette
    spill_rows_fraction: float = 0.02


class SectionCostModel:
    """Estimates render cost (reference seconds) for horizontal image sections."""

    def __init__(
        self,
        scene: Scene,
        camera: Camera,
        parameters: Optional[CostParameters] = None,
    ):
        self.scene = scene
        self.camera = camera
        self.parameters = parameters or CostParameters()
        self._row_weights = self._compute_row_weights()
        total_weight = float(self._row_weights.sum())
        if total_weight <= 0:  # pragma: no cover - degenerate scenes
            total_weight = 1.0
        self._seconds_per_weight = self.parameters.total_seconds / total_weight

    # -- model ------------------------------------------------------------
    def _compute_row_weights(self) -> np.ndarray:
        params = self.parameters
        height, width = self.camera.height, self.camera.width
        weights = np.full(height, params.base_pixel_cost * width, dtype=np.float64)
        spill = max(1, int(params.spill_rows_fraction * height))
        for obj in self.scene.bounded_objects:
            box = obj.bounding_box()
            rows, col_fraction = self._screen_rows(box)
            if rows is None:
                continue
            row_start, row_end = rows
            row_start = max(0, row_start - spill)
            row_end = min(height - 1, row_end + spill)
            material = obj.material
            factor = params.object_pixel_cost
            if material.casts_secondary_rays:
                factor *= params.secondary_ray_factor
            weights[row_start : row_end + 1] += factor * col_fraction * width
        return weights

    def _screen_rows(self, box) -> Tuple[Optional[Tuple[int, int]], float]:
        """Rows covered by a bounding box and the fraction of columns covered."""
        corners = [
            np.array([x, y, z])
            for x in (box.minimum[0], box.maximum[0])
            for y in (box.minimum[1], box.maximum[1])
            for z in (box.minimum[2], box.maximum[2])
        ]
        ys: List[float] = []
        xs: List[float] = []
        for corner in corners:
            x_ndc, y_ndc, depth = self.camera.ndc_of_point(corner)
            if depth <= 0:
                continue
            ys.append(y_ndc)
            xs.append(x_ndc)
        if not ys:
            return None, 0.0
        row_min = self.camera.row_of_ndc_y(max(ys))
        row_max = self.camera.row_of_ndc_y(min(ys))
        if row_max < row_min:  # pragma: no cover - defensive
            row_min, row_max = row_max, row_min
        x_lo = max(-1.0, min(xs))
        x_hi = min(1.0, max(xs))
        col_fraction = max(0.0, (x_hi - x_lo) / 2.0)
        return (row_min, row_max), col_fraction

    # -- queries -------------------------------------------------------------
    @property
    def row_weights(self) -> np.ndarray:
        """Relative per-row weights (length = image height)."""
        return self._row_weights.copy()

    def section_cost(self, y_start: int, y_end: int) -> float:
        """Cost of rendering rows ``[y_start, y_end)`` in reference seconds."""
        if not 0 <= y_start <= y_end <= self.camera.height:
            raise ValueError(
                f"section [{y_start}, {y_end}) outside image height {self.camera.height}"
            )
        return float(self._row_weights[y_start:y_end].sum() * self._seconds_per_weight)

    def total_cost(self) -> float:
        """Whole-image cost (equals ``parameters.total_seconds`` by construction)."""
        return float(self._row_weights.sum() * self._seconds_per_weight)

    def imbalance(self, num_sections: int) -> float:
        """Max/mean cost over an even split into ``num_sections`` sections."""
        bounds = np.linspace(0, self.camera.height, num_sections + 1).astype(int)
        costs = [
            self.section_cost(int(bounds[i]), int(bounds[i + 1]))
            for i in range(num_sections)
        ]
        mean = sum(costs) / len(costs)
        return max(costs) / mean if mean > 0 else 0.0

    # -- validation against the real tracer ---------------------------------------
    def measured_row_weights(self, subsample: int = 8) -> np.ndarray:
        """Measure relative per-row cost with the *real* tracer.

        Renders every ``subsample``-th pixel of every ``subsample``-th row and
        uses the number of primitive intersection tests as the cost proxy.
        Only sensible at small camera resolutions (tests use 64x64).
        """
        tracer = RayTracer(self.scene, self.camera)
        height, width = self.camera.height, self.camera.width
        weights = np.zeros(height, dtype=np.float64)
        index = self.scene.index
        for py in range(0, height, subsample):
            before = index.stats.primitive_tests
            for px in range(0, width, subsample):
                tracer.render_pixel(px, py)
            weights[py] = max(1, index.stats.primitive_tests - before)
        # propagate measured rows to the skipped ones
        for py in range(height):
            if weights[py] == 0:
                weights[py] = weights[(py // subsample) * subsample]
        return weights
