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
import numbers
from dataclasses import dataclass

import numpy as np

from .fisher import FOV_MARGIN, Camera
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
    the sensor's `Camera`, which the scan functions take as an argument.
    """

    delta_theta: float = math.radians(DEFAULT_DELTA_THETA_DEG)  # ray discretization
    gamma: float = DEFAULT_GAMMA  # observability degradation per unknown cell

    def __post_init__(self):
        check_number("delta_theta", self.delta_theta, lambda v: v > 0, "> 0")
        check_number("gamma", self.gamma, lambda v: 0 < v <= 1, "in (0, 1]")


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
             params: RayCastParams, camera: Camera) -> RayCast:
    """Walk the grid from origin along theta and tally the entropy gain.

    Uses an Amanatides-Woo traversal so every crossed cell is visited exactly
    once, up to the camera's max_depth. A cell above the occupied threshold
    blocks the ray. Only unknown cells carry gain; the degradation count N is
    the number of unknown cells already traversed.
    """
    spec = occ.spec
    ox, oy = origin
    if not spec.point_in_bounds(ox, oy):
        raise ValueError(f"ray origin {origin} outside grid")
    i, j = spec.world_to_cell(ox, oy)
    dx, dy = math.cos(theta), math.sin(theta)
    # Distance along the ray to the first vertical / horizontal cell border.
    t_max_x = t_max_y = math.inf
    if dx != 0:
        t_max_x = ((i + (1 if dx > 0 else 0)) * spec.resolution - ox) / dx
    if dy != 0:
        t_max_y = ((j + (1 if dy > 0 else 0)) * spec.resolution - oy) / dy

    cells = []
    total = 0.0
    n_unknown = 0
    for t, i, j in _grid_walk(i, j, dx, dy, t_max_x, t_max_y, spec.resolution):
        if t > camera.max_depth or not spec.in_bounds(i, j):
            break
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
    is unknown and whether it blocks, so `ray_gains` reads them from the
    int8 class grid of `classify`, padded by `reach` known cells on every
    side: every ray cell of every center is one flat gather, and a ray that
    leaves the grid (it cannot come back in) reads only pad cells. Per-cell
    gains of unknown cells depend only on the count of unknown cells
    traversed so far, so they come from a table.
    """

    def __init__(self, params: RayCastParams, camera: Camera, resolution: float):
        if params.delta_theta > camera.fov:
            raise ValueError("need delta_theta <= fov")
        dirs = ray_directions(params.delta_theta)
        offsets = [_walk_offsets(th, resolution, camera.max_depth) for th in dirs]
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
        self.in_window = ang <= camera.fov / 2 + FOV_MARGIN

    def classify(self, occ: OccupancyGrid) -> np.ndarray:
        """The grid's int8 classes padded by `reach` cells on every side:
        0 known and passable (pad cells too), 1 unknown, 2 blocking."""
        r = self.reach
        h, w = occ.p.shape
        return _classes(occ.p, -r, -r, w + 2 * r, h + 2 * r)

    def ray_gains(self, cls: np.ndarray, centers_i: np.ndarray,
                  centers_j: np.ndarray) -> np.ndarray:
        """Per-direction ray gains for a batch of scan centers, shape (C, D).

        `cls` is the padded class grid of `classify`. All reductions run
        along the trailing axis, so results are bitwise independent of the
        batch size.
        """
        r = self.reach
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


def _classes(p: np.ndarray, i0: int, j0: int, width: int, height: int) -> np.ndarray:
    """The int8 classes of the width x height window of occupancy `p` whose corner
    is cell (i0, j0): 0 known and passable, as is every cell off the grid, 1
    unknown, 2 blocking."""
    cls = np.zeros((height, width), dtype=np.int8)
    a0, a1 = max(j0, 0), min(j0 + height, p.shape[0])
    b0, b1 = max(i0, 0), min(i0 + width, p.shape[1])
    p = p[a0:a1, b0:b1]
    cls[a0 - j0:a1 - j0, b0 - i0:b1 - i0] = (p == UNKNOWN_P) + 2 * (p > OCCUPIED_THRESHOLD)
    return cls


def _grid_walk(i: int, j: int, dx: float, dy: float, t_max_x: float, t_max_y: float,
               resolution: float):
    """Amanatides-Woo traversal: (t, i, j) of every crossed cell in walk order.

    t is the distance at which the ray enters the cell. The caller gives the
    distances to the first vertical and horizontal cell border, inf along an
    axis the ray does not move on.
    """
    step_i = 1 if dx > 0 else -1
    step_j = 1 if dy > 0 else -1
    t_dx = resolution / abs(dx) if dx != 0 else math.inf
    t_dy = resolution / abs(dy) if dy != 0 else math.inf
    t = 0.0
    while True:
        yield t, i, j
        if t_max_x < t_max_y:
            t = t_max_x
            t_max_x += t_dx
            i += step_i
        else:
            t = t_max_y
            t_max_y += t_dy
            j += step_j


def _walk_offsets(theta: float, resolution: float, max_range: float) -> list:
    """Cell offsets visited by a ray leaving a cell center, in walk order."""
    dx, dy = math.cos(theta), math.sin(theta)
    t_max_x = (0.5 * resolution) / abs(dx) if dx != 0 else math.inf
    t_max_y = (0.5 * resolution) / abs(dy) if dy != 0 else math.inf
    offsets = []
    for t, i, j in _grid_walk(0, 0, dx, dy, t_max_x, t_max_y, resolution):
        if t > max_range:
            return offsets
        offsets.append((i, j))


# Scans with the same (params, camera, resolution) share one template.
_template = functools.cache(_ScanTemplate)


def _clean_boxes(changed: np.ndarray, i: np.ndarray, j: np.ndarray, size: int) -> np.ndarray:
    """Whether each size x size box with corner (i, j) holds no set cell of
    `changed`, from one summed-area table over the set cells' bounding box."""
    rows = np.flatnonzero(changed.any(axis=1))
    if not len(rows):
        return np.ones(len(i), dtype=bool)
    cols = np.flatnonzero(changed.any(axis=0))
    sub = changed[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    sat = np.zeros((sub.shape[0] + 1, sub.shape[1] + 1), dtype=np.int32)
    np.cumsum(np.cumsum(sub, axis=0, dtype=np.int32), axis=1, out=sat[1:, 1:])
    j0, j1 = (np.clip(j + d - rows[0], 0, sub.shape[0]) for d in (0, size))
    i0, i1 = (np.clip(i + d - cols[0], 0, sub.shape[1]) for d in (0, size))
    return sat[j1, i1] - sat[j0, i1] - sat[j1, i0] + sat[j0, i0] == 0


def scan_many(occ: OccupancyGrid, cells: np.ndarray, params: RayCastParams, camera: Camera,
              memo: tuple | None) -> tuple:
    """The best windowed gain and its angle, as two float arrays, of each goal
    cell, linear indices `j * width + i`, from one vectorized pass, and the memo
    for the next call.

    Produces exactly the same numbers as scanning each cell alone: every
    reduction runs along a per-goal axis, so results do not depend on how
    goals are batched. `memo` is the one the previous call returned, or None
    before a mission's first scan: that call's key (template and grid shape),
    padded class grid, and per grid cell its best gain and angle, NaN at every
    cell it did not scan. The per-cell arrays are allocated by the first call
    and rewritten in place, so an older memo is spent. A ray from a cell
    center reads only cells within the template's `reach` on both axes, and
    pad cells never change, so a kept pair equals a fresh one, bit for bit,
    until a cell in its (2 reach + 1)^2 box changes class: the memo's cells
    with no such change get the kept pair, and the others are scanned. A memo
    of another key raises ValueError. An index outside [0, n_cells) raises
    OutOfBoundsError and a non-integer one ValueError, since the padded gather
    would read past the grid's border.
    """
    spec = occ.spec
    tmpl = _template(params, camera, spec.resolution)
    if cells.ndim != 1 or cells.dtype.kind not in "iu":
        raise ValueError(f"scan cells must be a 1-D integer array, not {cells.dtype} {cells.shape}")
    outside = (cells < 0) | (cells >= spec.n_cells)
    if outside.any():
        raise OutOfBoundsError(f"scan cell index {cells[outside.argmax()]} outside the grid")
    cj, ci = np.divmod(cells.astype(int), spec.width)
    key = (params, camera, spec.resolution, occ.p.shape)
    memo_key, kept_cls, kept_gain, kept_theta = memo or (key, None,
                                                         *np.full((2, spec.n_cells), np.nan))
    if memo_key != key:
        raise ValueError("scan memo holds scans of another template or grid shape")
    cls = tmpl.classify(occ)
    gain, theta = kept_gain[cells], kept_theta[cells]
    kept = ~np.isnan(gain)
    if kept.any():
        # In padded coordinates the reach box of center (i, j) has its
        # corner at (i, j).
        kept[kept] = _clean_boxes(cls != kept_cls, ci[kept], cj[kept], 2 * tmpl.reach + 1)
    miss = np.flatnonzero(~kept)
    windowed, best = _best_windows(tmpl, tmpl.ray_gains(cls, ci[miss], cj[miss]))
    gain[miss], theta[miss] = windowed[np.arange(len(miss)), best], tmpl.directions[best]
    kept_gain[:] = kept_theta[:] = np.nan
    kept_gain[cells], kept_theta[cells] = gain, theta
    return gain, theta, (key, cls, kept_gain, kept_theta)


def _best_windows(tmpl: _ScanTemplate, ray_gains: np.ndarray) -> tuple:
    """The (C, D) FOV-windowed sums of the ray gains and each row's best direction index."""
    windowed = tmpl.windowed_gains(ray_gains)
    # Windows whose real-valued sums tie can differ by float rounding, so the
    # argmax treats anything within the tolerance of the max as tied and takes
    # the smallest angle.
    near_max = windowed >= windowed.max(axis=1, keepdims=True) - ARGMAX_TOL
    return windowed, np.argmax(near_max, axis=1)


def scan_orientations(occ: OccupancyGrid, cell: tuple, params: RayCastParams,
                      camera: Camera) -> OrientationScan:
    """Cast one ray per direction from the goal cell and pick the best FOV window.

    A direction d contributes to the window centered at theta_s when the
    wrapped angular distance |d - theta_s| <= camera.fov/2. Rays end after the
    camera's max_depth. Ties in the windowed gain go to the smallest
    orientation angle. Only the cell's reach box is classified, and the best
    gain and angle equal `scan_many`'s for the cell, bit for bit. No memo is kept: its
    callers blacklist every goal they scan, so no cell is scanned twice.
    """
    if not occ.spec.in_bounds(*cell):
        raise OutOfBoundsError(f"scan cell {cell} outside the grid")
    if not all(isinstance(v, numbers.Integral) for v in cell):
        raise ValueError(f"scan cell {cell} is not a pair of integers")
    tmpl = _template(params, camera, occ.spec.resolution)
    # The rays read only the cell's (2 reach + 1)^2 box. To `ray_gains` it is a
    # padded grid whose center (0, 0) is the cell.
    r, (i, j) = tmpl.reach, cell
    box = _classes(occ.p, i - r, j - r, 2 * r + 1, 2 * r + 1)
    zero = np.zeros(1, dtype=int)
    rays = tmpl.ray_gains(box, zero, zero)[0]
    windowed, (best,) = _best_windows(tmpl, rays[None])
    return OrientationScan(tmpl.directions, rays, windowed[0], float(tmpl.directions[best]),
                           float(windowed[0, best]))
