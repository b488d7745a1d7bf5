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
                   UNKNOWN)

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
        self.__dict__.pop("_memo", None)
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
        """Per-cell plane fit (mean_z, slope, roughness), read-only; `accumulate` drops it,
        and so does `_memo`, which keeps its own copy of the mean z."""
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

    @functools.cached_property
    def _memo(self):
        """What `score_cells` keeps, on the grid padded by one cell: the plane's mean z
        and min(s_slope, s_rough), NaN where a cell holds under MIN_POINTS points,
        both flat; the last call's data flags and scores, updated in place, empty
        meaning no data and every cell Unknown. Then the (H, W) mask of the cells
        that hold a point. `accumulate` drops it."""
        mz, slope, roughness = self.plane
        del self.plane
        s_slope = np.clip(1.0 - slope / MAX_SLOPE, 0.0, 1.0)
        s_rough = np.clip(1.0 - roughness / MAX_ROUGHNESS, 0.0, 1.0)
        static = np.where(self.count >= MIN_POINTS, np.minimum(s_slope, s_rough), np.nan)
        shape = (self.spec.height + 2, self.spec.width + 2)
        return (np.pad(mz, 1).ravel(), np.pad(static, 1, constant_values=np.nan).ravel(),
                np.zeros(shape, dtype=bool), np.full(shape, np.nan), self.count > 0)

    def score_cells(self, sensed: np.ndarray) -> TraversabilityGrid:
        """Score every cell; cells with too few points, or not in `sensed`, stay Unknown.

        A cell has data when it holds a point and is in the bool (H, W) `sensed`
        mask. Its score is the minimum of the slope, roughness and step scores.
        Slope is the angle between the fitted-plane normal and vertical, roughness the
        RMS residual, and step the largest elevation difference to the mean of an
        8-neighbour cell with data (0 when none has). A cell's score reads only its
        own and its neighbours' data flags, so a call rescores only the cells whose
        flag flipped since the last call, and their neighbours.
        """
        mz, static, data, score, has_points = self._memo
        has = has_points & sensed
        width = self.spec.width + 2  # of the padded grid
        flipped = np.flatnonzero(has != data[1:-1, 1:-1])
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
