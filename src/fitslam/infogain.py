"""Ray-cast entropy-gain estimation and arrival-orientation search.

Rays are cast from a candidate goal in discretized directions; unknown cells
along a ray become observable with a probability that decays geometrically
with the number of unknown cells already traversed, and each contributes the
resulting drop in Shannon entropy. The best arrival orientation maximizes the
summed ray gains inside the camera field of view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fisher import DEFAULT_FOV, DEFAULT_MAX_DEPTH
from .grid import OccupancyGrid, OutOfBoundsError, UNKNOWN_P, check_number

DEFAULT_DELTA_THETA_DEG = 8.5
DEFAULT_GAMMA = 0.9

OCCUPIED_THRESHOLD = 0.65  # conventional occupancy cutoff for ray blocking

# Windowed sums within this distance of the maximum count as tied.
ARGMAX_TOL = 1e-9


@dataclass(frozen=True)
class RayCastParams:
    """Entropy-gain model of the scan.

    The camera's field of view and range are not part of it: they belong to
    the sensor, and the scan functions take them as arguments.
    """

    delta_theta: float = math.radians(DEFAULT_DELTA_THETA_DEG)  # ray discretization
    gamma: float = DEFAULT_GAMMA  # observability degradation per unknown cell

    def __post_init__(self):
        check_number("delta_theta", self.delta_theta, lambda v: v > 0, "> 0")
        check_number("gamma", self.gamma, lambda v: 0 < v <= 1, "in (0, 1]")


def _check_max_range(max_range: float) -> None:
    if not max_range > 0:
        raise ValueError("max_range must be > 0")


def cell_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with 0*log2(0) taken as 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass
class RayCell:
    cell: tuple          # (i, j)
    observability: float
    posterior: float
    gain: float          # bits; zero for known cells


@dataclass
class RayCast:
    cells: list          # RayCell per traversed cell, in walk order
    gain: float          # summed per-cell gains along the ray


def cast_ray(occ: OccupancyGrid, origin: tuple, theta: float,
             params: RayCastParams, max_range: float = DEFAULT_MAX_DEPTH) -> RayCast:
    """Walk the grid from origin along theta and tally the entropy gain.

    Uses an Amanatides-Woo traversal so every crossed cell is visited exactly
    once, up to max_range m. A cell above the occupied threshold blocks the
    ray. Only unknown cells carry gain; the degradation count N is the number
    of unknown cells already traversed.
    """
    _check_max_range(max_range)
    spec = occ.spec
    ox, oy = origin
    if not spec.point_in_bounds(ox, oy):
        raise ValueError(f"ray origin {origin} outside grid")
    i, j = spec.world_to_cell(ox, oy)
    dx, dy = math.cos(theta), math.sin(theta)

    step_i = 1 if dx > 0 else -1
    step_j = 1 if dy > 0 else -1
    # Distance along the ray to the next vertical / horizontal cell border.
    if dx != 0:
        nx = spec.origin_x + (i + (1 if dx > 0 else 0)) * spec.resolution
        t_max_x = (nx - ox) / dx
        t_dx = spec.resolution / abs(dx)
    else:
        t_max_x, t_dx = math.inf, math.inf
    if dy != 0:
        ny = spec.origin_y + (j + (1 if dy > 0 else 0)) * spec.resolution
        t_max_y = (ny - oy) / dy
        t_dy = spec.resolution / abs(dy)
    else:
        t_max_y, t_dy = math.inf, math.inf

    cells = []
    total = 0.0
    n_unknown = 0
    t = 0.0
    while t <= max_range and spec.in_bounds(i, j):
        p = float(occ.p[j, i])
        if p > OCCUPIED_THRESHOLD:
            cells.append(RayCell((i, j), 1.0, p, 0.0))
            break
        if p == UNKNOWN_P:
            obs = params.gamma ** n_unknown
            posterior = (1.0 + obs) / 2.0
            gain = 1.0 - cell_entropy(posterior)
            n_unknown += 1
        else:
            obs, posterior, gain = 1.0, p, 0.0
        cells.append(RayCell((i, j), obs, posterior, gain))
        total += gain
        if t_max_x < t_max_y:
            t = t_max_x
            t_max_x += t_dx
            i += step_i
        else:
            t = t_max_y
            t_max_y += t_dy
            j += step_j
    return RayCast(cells, total)


@dataclass
class OrientationScan:
    directions: np.ndarray    # ray directions {0, dtheta, ...} < 2*pi
    ray_gains: np.ndarray     # gain of the single ray per direction
    windowed_gains: np.ndarray  # FOV-windowed sum per direction
    best_theta: float
    best_gain: float


def ray_directions(delta_theta: float) -> np.ndarray:
    n = int(math.ceil(2 * math.pi / delta_theta - 1e-12))
    return np.arange(n) * delta_theta


class _ScanTemplate:
    """Precomputed grid-walk offsets for every scan direction.

    Scan rays always start at a cell center, so the sequence of cell offsets
    each direction visits is fixed for a given resolution; only the occupancy
    values change per goal. A ray only needs two facts per cell, whether it
    is unknown and whether it blocks, so `ray_gains` reads them from an int8
    class grid padded by `reach` known cells on every side: every ray cell of
    every center is one flat gather, and a ray that leaves the grid (it
    cannot come back in) reads only pad cells. Per-cell gains of unknown
    cells depend only on the count of unknown cells traversed so far, so
    they come from a table.
    """

    def __init__(self, params: RayCastParams, fov: float, max_range: float,
                 resolution: float):
        if not 0 < fov <= 2 * math.pi:
            raise ValueError("fov must lie in (0, 2*pi]")
        if params.delta_theta > fov:
            raise ValueError("need delta_theta <= fov")
        _check_max_range(max_range)
        dirs = ray_directions(params.delta_theta)
        offsets = [_walk_offsets(th, resolution, max_range) for th in dirs]
        length = max(len(o) for o in offsets)
        self.directions = dirs
        self.di = np.zeros((len(dirs), length), dtype=int)
        self.dj = np.zeros((len(dirs), length), dtype=int)
        self.keep = np.zeros((len(dirs), length), dtype=np.int8)  # all bits set on a ray's cells
        for k, off in enumerate(offsets):
            self.di[k, :len(off)] = [o[0] for o in off]
            self.dj[k, :len(off)] = [o[1] for o in off]
            self.keep[k, :len(off)] = -1
        self.reach = int(np.abs([self.di, self.dj]).max())
        # gain_table[n] is the entropy drop of the n-th unknown cell; entry 0
        # is the zero gain of every other cell.
        self.gain_table = np.array([0.0] + [
            1.0 - cell_entropy((1.0 + params.gamma ** n) / 2.0) for n in range(length)])
        # Window membership, kept in direction order for reproducible sums.
        diff = np.abs(dirs[:, None] - dirs[None, :])
        ang = np.minimum(diff, 2 * math.pi - diff)
        self.in_window = ang <= fov / 2 + 1e-12

    def ray_gains(self, occ: OccupancyGrid, centers_i: np.ndarray,
                  centers_j: np.ndarray) -> np.ndarray:
        """Per-direction ray gains for a batch of scan centers, shape (C, D).

        All reductions run along the trailing axis, so results are bitwise
        independent of the batch size.
        """
        r = self.reach
        h, w = occ.p.shape
        # 0 known and passable (pad cells too), 1 unknown, 2 blocking.
        cls = np.zeros((h + 2 * r, w + 2 * r), dtype=np.int8)
        cls[r:r + h, r:r + w] = (occ.p == UNKNOWN_P) + 2 * (occ.p > OCCUPIED_THRESHOLD)
        wp = cls.shape[1]
        centers = (centers_j + r) * wp + centers_i + r
        c = cls.ravel()[centers[:, None, None] + (self.di + self.dj * wp)]
        c &= self.keep
        blocked = c == 2
        # A ray reaches no cell past its first blocked cell.
        stop = np.where(blocked.any(axis=2), blocked.argmax(axis=2), c.shape[2])
        unknown = (c == 1) & (np.arange(c.shape[2]) < stop[..., None])
        count = np.cumsum(unknown, axis=2, dtype=np.min_scalar_type(c.shape[2]))
        return self.gain_table[count * unknown].sum(axis=2)

    def windowed_gains(self, ray_gains: np.ndarray) -> np.ndarray:
        """FOV-windowed sums, shape (C, D); trailing-axis reduction only."""
        return np.where(self.in_window[None], ray_gains[:, None, :], 0.0).sum(axis=2)


def _walk_offsets(theta: float, resolution: float, max_range: float) -> list:
    """Cell offsets visited by a ray leaving a cell center, in walk order."""
    dx, dy = math.cos(theta), math.sin(theta)
    i = j = 0
    step_i = 1 if dx > 0 else -1
    step_j = 1 if dy > 0 else -1
    t_max_x = (0.5 * resolution) / abs(dx) if dx != 0 else math.inf
    t_dx = resolution / abs(dx) if dx != 0 else math.inf
    t_max_y = (0.5 * resolution) / abs(dy) if dy != 0 else math.inf
    t_dy = resolution / abs(dy) if dy != 0 else math.inf
    offsets = []
    t = 0.0
    while t <= max_range:
        offsets.append((i, j))
        if t_max_x < t_max_y:
            t = t_max_x
            t_max_x += t_dx
            i += step_i
        else:
            t = t_max_y
            t_max_y += t_dy
            j += step_j
    return offsets


# Scans with the same (params, fov, max_range, resolution) share one template.
_template = functools.cache(_ScanTemplate)


def scan_many(occ: OccupancyGrid, cells: list, params: RayCastParams,
              fov: float = DEFAULT_FOV, max_range: float = DEFAULT_MAX_DEPTH) -> list:
    """Orientation scans from many (i, j) goal cells in one vectorized pass.

    Produces exactly the same numbers as scanning each cell alone: every
    reduction runs along a per-goal axis, so results do not depend on how
    goals are batched. A cell outside the grid raises OutOfBoundsError and a
    non-integer one ValueError, since the padded gather would read past the
    grid's border or wrap around it.
    """
    spec = occ.spec
    tmpl = _template(params, fov, max_range, spec.resolution)
    ij = np.asarray(cells)
    if len(cells) and (ij.dtype.kind not in "iu" or ij.shape != (len(cells), 2)):
        raise ValueError(f"scan cells must be (i, j) integer pairs, not {ij.dtype} {ij.shape}")
    ci, cj = ij.reshape(-1, 2).astype(int).T
    outside = (ci < 0) | (ci >= spec.width) | (cj < 0) | (cj >= spec.height)
    if outside.any():
        raise OutOfBoundsError(f"scan cell {cells[int(outside.argmax())]} outside the grid")
    ray_gains = tmpl.ray_gains(occ, ci, cj)
    windowed = tmpl.windowed_gains(ray_gains)
    # Windows whose real-valued sums tie can differ by float rounding, so the
    # argmax treats anything within the tolerance of the max as tied and takes
    # the smallest angle.
    near_max = windowed >= windowed.max(axis=1, keepdims=True) - ARGMAX_TOL
    best = np.argmax(near_max, axis=1)
    return [OrientationScan(
        directions=tmpl.directions,
        ray_gains=ray_gains[k],
        windowed_gains=windowed[k],
        best_theta=float(tmpl.directions[best[k]]),
        best_gain=float(windowed[k, best[k]]),
    ) for k in range(len(cells))]


def scan_orientations(occ: OccupancyGrid, cell: tuple, params: RayCastParams,
                      fov: float = DEFAULT_FOV,
                      max_range: float = DEFAULT_MAX_DEPTH) -> OrientationScan:
    """Cast one ray per direction from the goal cell and pick the best FOV window.

    A direction d contributes to the window centered at theta_s when the
    wrapped angular distance |d - theta_s| <= fov/2. Rays end after max_range
    m. Ties in the windowed gain go to the smallest orientation angle.
    """
    return scan_many(occ, [cell], params, fov, max_range)[0]
