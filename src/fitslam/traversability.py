"""Geometric traversability estimation from registered 3D terrain points.

Points are binned into grid cells and summarized by incremental moments; a
least-squares plane fit per cell yields slope and roughness, and step height
is measured against the mean elevation of neighboring cells. Scores combine
the three metrics by the minimum so a single hazard dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (BinaryTraversabilityGrid, BLOCKED, FREE, GridSpec, TraversabilityGrid,
                   UNKNOWN, shift)


@dataclass
class TraversabilityParams:
    max_slope: float = np.deg2rad(30.0)  # rad
    max_roughness: float = 0.05          # m, RMS residual to the fitted plane
    max_step: float = 0.15               # m, elevation jump vs. neighbor cells
    min_points: int = 5                  # plane fit needs >= 3; margin for noise


class TerrainStatsGrid:
    """Per-cell incremental moments of the terrain points seen so far.

    Accumulation is order-independent up to float reassociation, so re-batching
    the same point set yields the same scores.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        shape = (spec.height, spec.width)
        self.count = np.zeros(shape)
        self.sx = np.zeros(shape)
        self.sy = np.zeros(shape)
        self.sz = np.zeros(shape)
        self.sxx = np.zeros(shape)
        self.sxy = np.zeros(shape)
        self.syy = np.zeros(shape)
        self.sxz = np.zeros(shape)
        self.syz = np.zeros(shape)
        self.szz = np.zeros(shape)
        self.dropped_points = 0  # diagnostics: points outside the grid extent

    def accumulate(self, points: np.ndarray) -> None:
        """Bin an (N, 3) batch of world-frame points into per-cell moments."""
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            return
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        i = np.floor((x - self.spec.origin_x) / self.spec.resolution).astype(int)
        j = np.floor((y - self.spec.origin_y) / self.spec.resolution).astype(int)
        inside = (i >= 0) & (i < self.spec.width) & (j >= 0) & (j < self.spec.height)
        self.dropped_points += int((~inside).sum())
        if not inside.any():
            return
        i, j = i[inside], j[inside]
        x, y, z = x[inside], y[inside], z[inside]
        idx = (j, i)
        np.add.at(self.count, idx, 1.0)
        np.add.at(self.sx, idx, x)
        np.add.at(self.sy, idx, y)
        np.add.at(self.sz, idx, z)
        np.add.at(self.sxx, idx, x * x)
        np.add.at(self.sxy, idx, x * y)
        np.add.at(self.syy, idx, y * y)
        np.add.at(self.sxz, idx, x * z)
        np.add.at(self.syz, idx, y * z)
        np.add.at(self.szz, idx, z * z)

    def cell_metrics(self, min_points: int = 5):
        """Per-cell (valid, mean_z, slope, roughness, step) arrays.

        valid is True where the cell holds at least min_points points. Slope is
        the angle between the fitted-plane normal and vertical; roughness is the
        RMS residual; step is the largest elevation difference to the mean of an
        8-neighbor cell that has data (0 when no neighbor has data).
        """
        valid = self.count >= max(min_points, 1)
        n = np.where(self.count > 0, self.count, 1.0)
        mx, my, mz = self.sx / n, self.sy / n, self.sz / n
        # Centered second moments.
        cxx = self.sxx / n - mx * mx
        cxy = self.sxy / n - mx * my
        cyy = self.syy / n - my * my
        cxz = self.sxz / n - mx * mz
        cyz = self.syz / n - my * mz
        czz = self.szz / n - mz * mz
        # Least-squares plane z = a*x + b*y + c from the centered moments.
        det = cxx * cyy - cxy * cxy
        ok = det > 1e-18
        safe_det = np.where(ok, det, 1.0)
        a = np.where(ok, (cxz * cyy - cyz * cxy) / safe_det, 0.0)
        b = np.where(ok, (cyz * cxx - cxz * cxy) / safe_det, 0.0)
        slope = np.arctan(np.hypot(a, b))
        resid_var = np.maximum(czz - a * cxz - b * cyz, 0.0)
        roughness = np.sqrt(resid_var)

        step = np.zeros_like(mz)
        has_data = self.count > 0
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                nb_z = shift(mz, di, dj)
                nb_ok = shift(has_data, di, dj)
                diff = np.where(nb_ok & has_data, np.abs(mz - nb_z), 0.0)
                step = np.maximum(step, diff)
        return valid, mz, slope, roughness, step

    def score_cells(self, params: TraversabilityParams) -> TraversabilityGrid:
        """Score every cell; cells with too few points stay Unknown."""
        valid, _, slope, roughness, step = self.cell_metrics(params.min_points)
        s_slope = np.clip(1.0 - slope / params.max_slope, 0.0, 1.0)
        s_rough = np.clip(1.0 - roughness / params.max_roughness, 0.0, 1.0)
        s_step = np.clip(1.0 - step / params.max_step, 0.0, 1.0)
        score = np.minimum(np.minimum(s_slope, s_rough), s_step)
        score = np.where(valid, score, np.nan)
        return TraversabilityGrid(self.spec, score)


def threshold(trav: TraversabilityGrid, t: float) -> BinaryTraversabilityGrid:
    """Score >= t is Free, below is Blocked, Unknown stays Unknown."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {t}")
    state = np.where(trav.score >= t, FREE, BLOCKED).astype(np.int8)
    state[np.isnan(trav.score)] = UNKNOWN
    return BinaryTraversabilityGrid(trav.spec, state)


def load_points(path) -> np.ndarray:
    """Read terrain points from a whitespace-separated `x y z` text file."""
    pts = np.loadtxt(path, dtype=float)
    if pts.size == 0:
        return np.zeros((0, 3))
    return np.atleast_2d(pts)
