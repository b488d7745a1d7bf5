"""Geometric traversability estimation from per-cell terrain samples.

Every cell holds the same few lidar returns, seen alike from any pose, so the
terrain is a world table: a least-squares plane fit per cell yields slope and
roughness, and step height is measured against the mean elevation of
neighboring cells. Scores combine the three metrics by the minimum so a single
hazard dominates.
"""

from __future__ import annotations

import numpy as np

from .grid import (BinaryTraversabilityGrid, BLOCKED, FREE, GridSpec, TraversabilityGrid,
                   UNKNOWN)

MAX_SLOPE = np.deg2rad(30.0)  # rad
MAX_ROUGHNESS = 0.05          # m, RMS residual to the fitted plane
MAX_STEP = 0.15               # m, elevation jump vs. neighbor cells
TRAV_THRESHOLD = 0.3          # lowest score of a Free cell
_PRODUCTS = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))  # xx, xy, yy, xz, yz, zz


class ScoreMemo:
    """One mission's previous `score_cells` call, on the grid padded by one cell:
    its data flags, and its scores, NaN for Unknown. A fresh memo holds no data
    and every cell Unknown."""

    def __init__(self, spec: GridSpec):
        shape = (spec.height + 2, spec.width + 2)
        self.data = np.zeros(shape, dtype=bool)
        self.score = np.full(shape, np.nan)


class TerrainStatsGrid:
    """Per-cell plane fit of a world's terrain samples, read-only once `accumulate`
    has built it: `plane` is (mean_z, slope, roughness)."""

    def __init__(self, spec: GridSpec):
        self.spec = spec

    def accumulate(self, points: np.ndarray) -> None:
        """Fit every cell's plane from the world-frame (N, 3) `points`: the same number
        of samples in each cell, cell after cell in row-major order. A cell's sums add
        its samples in order, from zero. The points are dropped before the fit, so a
        caller that passes its only reference to them frees them there."""
        samples = points.reshape(self.spec.n_cells, -1, 3)
        # Per cell, the sums of x, y and z, then of the products xx, xy, yy, xz, yz, zz.
        moments = np.zeros((9, self.spec.n_cells))
        for s in samples.transpose(1, 2, 0):  # (3, n_cells): one sample of every cell
            moments[:3] += s
            for row, (u, v) in zip(moments[3:], _PRODUCTS):
                row += s[u] * s[v]
        moments /= samples.shape[1]
        del points, samples, s
        mx, my, mz, cxx, cxy, cyy, cxz, cyz, czz = moments.reshape(9, self.spec.height,
                                                                    self.spec.width)
        # Centered second moments, in place of the raw ones.
        cxx -= mx * mx
        cxy -= mx * my
        cyy -= my * my
        cxz -= mx * mz
        cyz -= my * mz
        czz -= mz * mz
        # Least-squares plane z = a*x + b*y + c from the centered moments.
        det = cxx * cyy - cxy * cxy
        ok = det > 1e-18
        safe_det = np.where(ok, det, 1.0)
        a = np.where(ok, (cxz * cyy - cyz * cxy) / safe_det, 0.0)
        b = np.where(ok, (cyz * cxx - cxz * cxy) / safe_det, 0.0)
        slope = np.arctan(np.hypot(a, b))
        resid_var = np.maximum(czz - a * cxz - b * cyz, 0.0)
        roughness = np.sqrt(resid_var)
        # A copy, so the table does not keep the whole (9, H, W) moment array alive.
        self.plane = (mz.copy(), slope, roughness)
        s_slope = np.clip(1.0 - slope / MAX_SLOPE, 0.0, 1.0)
        s_rough = np.clip(1.0 - roughness / MAX_ROUGHNESS, 0.0, 1.0)
        # What `score_cells` reads, flat on the grid padded by one cell: the mean z,
        # and min(s_slope, s_rough), NaN in the padding.
        self._mean_z = np.pad(mz, 1).ravel()
        self._static = np.pad(np.minimum(s_slope, s_rough), 1, constant_values=np.nan).ravel()
        for arr in (*self.plane, self._mean_z, self._static):
            arr.flags.writeable = False

    def score_cells(self, sensed: np.ndarray, memo: ScoreMemo) -> TraversabilityGrid:
        """Score every cell in the bool (H, W) `sensed` mask; the others stay Unknown.

        A cell has data when it is sensed. Its score is the minimum of the slope,
        roughness and step scores. Slope is the angle between the fitted-plane normal
        and vertical, roughness the RMS residual, and step the largest elevation
        difference to the mean of an 8-neighbour cell with data (0 when none has). A
        cell's score reads only its own and its neighbours' data flags, so a call
        rescores only the cells whose flag flipped since the `memo`'s call, and their
        neighbours, then leaves its own flags and scores in the memo.
        """
        mz, static, data, score = self._mean_z, self._static, memo.data, memo.score
        width = self.spec.width + 2  # of the padded grid
        flipped = np.flatnonzero(sensed != data[1:-1, 1:-1])
        flipped += width + 1 + 2 * (flipped // self.spec.width)
        data = data.ravel()
        data[flipped] ^= True
        near = [dj * width + di for dj in (-1, 0, 1) for di in (-1, 0, 1)]
        dirty = np.zeros(score.shape, dtype=bool)
        dirty.ravel()[np.add.outer(flipped, near).ravel()] = True
        dirty[[0, -1]] = dirty[:, [0, -1]] = False  # the padding is no cell
        cells = np.flatnonzero(dirty)
        z, ok = mz[cells], data[cells]
        step = np.zeros(len(cells))
        for off in near:
            if off:
                nb = cells + off
                np.maximum(step, np.where(data[nb] & ok, np.abs(z - mz[nb]), 0.0), out=step)
        s_step = np.clip(1.0 - step / MAX_STEP, 0.0, 1.0)
        score.ravel()[cells] = np.where(ok, np.minimum(static[cells], s_step), np.nan)
        return TraversabilityGrid(self.spec, score[1:-1, 1:-1].copy())


def threshold(trav: TraversabilityGrid) -> BinaryTraversabilityGrid:
    """Score >= TRAV_THRESHOLD is Free, below is Blocked, Unknown stays Unknown."""
    state = np.where(trav.score >= TRAV_THRESHOLD, FREE, BLOCKED).astype(np.int8)
    state[np.isnan(trav.score)] = UNKNOWN
    return BinaryTraversabilityGrid(trav.spec, state)
