"""Geometric traversability estimation from registered 3D terrain points.

Points are binned into grid cells and summarized by incremental moments; a
least-squares plane fit per cell yields slope and roughness, and step height
is measured against the mean elevation of neighboring cells. Scores combine
the three metrics by the minimum so a single hazard dominates.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import (BinaryTraversabilityGrid, BLOCKED, FREE, GridSpec, TraversabilityGrid,
                   UNKNOWN, shift)

MAX_SLOPE = np.deg2rad(30.0)  # rad
MAX_ROUGHNESS = 0.05          # m, RMS residual to the fitted plane
MAX_STEP = 0.15               # m, elevation jump vs. neighbor cells
MIN_POINTS = 5                # plane fit needs >= 3; margin for noise
TRAV_THRESHOLD = 0.3          # lowest score of a Free cell


class TerrainStatsGrid:
    """Per-cell incremental moments of the terrain points seen so far.

    Accumulation is order-independent up to float reassociation, so re-batching
    the same point set yields the same scores.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        # count, sx, sy, sz, sxx, sxy, syy, sxz, syz, szz per cell.
        self.moments = np.zeros((10, spec.height, spec.width))
        self.count = self.moments[0]

    def accumulate(self, points: np.ndarray) -> None:
        """Bin an (N, 3) batch of world-frame points into per-cell moments; a point
        outside the grid lands in no cell."""
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            return
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        self.__dict__.pop("plane", None)
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        i, j, inside = self.spec.world_to_cells(x, y)
        if not inside.any():
            return
        cell = j[inside] * self.spec.width + i[inside]
        x, y, z = x[inside], y[inside], z[inside]
        # One add.at per row on a flat index: one add.at over the whole stack, or a
        # (j, i) index, gives the same sums about four times slower.
        rows = self.moments.reshape(10, -1)
        for row, v in zip(rows, (1.0, x, y, z, x * x, x * y, y * y, x * z, y * z, z * z)):
            np.add.at(row, cell, v)

    @functools.cached_property
    def plane(self):
        """Per-cell plane fit (mean_z, slope, roughness), read-only; `accumulate` drops it."""
        n = np.where(self.count > 0, self.count, 1.0)
        mx, my, mz, exx, exy, eyy, exz, eyz, ezz = self.moments[1:] / n
        # Centered second moments.
        cxx = exx - mx * mx
        cxy = exy - mx * my
        cyy = eyy - my * my
        cxz = exz - mx * mz
        cyz = eyz - my * mz
        czz = ezz - mz * mz
        # Least-squares plane z = a*x + b*y + c from the centered moments.
        det = cxx * cyy - cxy * cxy
        ok = det > 1e-18
        safe_det = np.where(ok, det, 1.0)
        a = np.where(ok, (cxz * cyy - cyz * cxy) / safe_det, 0.0)
        b = np.where(ok, (cyz * cxx - cxz * cxy) / safe_det, 0.0)
        slope = np.arctan(np.hypot(a, b))
        resid_var = np.maximum(czz - a * cxz - b * cyz, 0.0)
        roughness = np.sqrt(resid_var)
        # A copy, so the cache does not keep the whole (9, H, W) quotient alive.
        plane = (mz.copy(), slope, roughness)
        for arr in plane:
            arr.flags.writeable = False
        return plane

    def cell_metrics(self, sensed=None):
        """Per-cell (valid, mean_z, slope, roughness, step) arrays.

        valid is True where the cell holds at least MIN_POINTS points and is in the
        bool `sensed` mask, if one is given. Slope is the angle between the
        fitted-plane normal and vertical; roughness is the RMS residual; step is the
        largest elevation difference to the mean of an 8-neighbor cell that has data
        (a point, and in `sensed`; 0 when no neighbor has data).
        """
        has_data = self.count > 0 if sensed is None else (self.count > 0) & sensed
        valid = (self.count >= MIN_POINTS) & has_data
        mz, slope, roughness = self.plane
        step = np.zeros_like(mz)
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                nb_z = shift(mz, di, dj)
                nb_ok = shift(has_data, di, dj)
                diff = np.where(nb_ok & has_data, np.abs(mz - nb_z), 0.0)
                step = np.maximum(step, diff)
        return valid, mz, slope, roughness, step

    def score_cells(self, sensed=None) -> TraversabilityGrid:
        """Score every cell; cells with too few points, or not in `sensed`, stay Unknown."""
        valid, _, slope, roughness, step = self.cell_metrics(sensed)
        s_slope = np.clip(1.0 - slope / MAX_SLOPE, 0.0, 1.0)
        s_rough = np.clip(1.0 - roughness / MAX_ROUGHNESS, 0.0, 1.0)
        s_step = np.clip(1.0 - step / MAX_STEP, 0.0, 1.0)
        score = np.minimum(np.minimum(s_slope, s_rough), s_step)
        score = np.where(valid, score, np.nan)
        return TraversabilityGrid(self.spec, score)


def threshold(trav: TraversabilityGrid) -> BinaryTraversabilityGrid:
    """Score >= TRAV_THRESHOLD is Free, below is Blocked, Unknown stays Unknown."""
    state = np.where(trav.score >= TRAV_THRESHOLD, FREE, BLOCKED).astype(np.int8)
    state[np.isnan(trav.score)] = UNKNOWN
    return BinaryTraversabilityGrid(trav.spec, state)
