"""Reference implementations that more than one test file checks the library
against. Each is coded independently of the code it checks."""

import heapq
import math

import numpy as np

from fitslam.grid import shift
from fitslam.infogain import ARGMAX_TOL, cast_ray, ray_directions
from fitslam.planner import SQRT2
from fitslam.traversability import MAX_ROUGHNESS, MAX_SLOPE, MAX_STEP, MIN_POINTS


def linear(cells, spec):
    """The set of linear indices `j * width + i` of the (i, j) cells: the form of a
    frontier that `detect_frontiers` returns and `cluster_frontiers` takes."""
    return {j * spec.width + i for i, j in cells}


def brute_force_scan(occ, goal, params, camera):
    """Independent windowed-sum evaluation built on cast_ray."""
    spec = occ.spec
    ci, cj = spec.world_to_cell(*goal)
    origin = spec.cell_to_world(ci, cj)
    dirs = ray_directions(params.delta_theta)
    gains = [cast_ray(occ, origin, th, params, camera).gain for th in dirs]
    windowed = []
    for ts in dirs:
        total = 0.0
        for th, g in zip(dirs, gains):
            diff = abs(th - ts)
            if min(diff, 2 * math.pi - diff) <= camera.fov / 2 + 1e-12:
                total += g
        windowed.append(total)
    # Same tie rule as the implementation: smallest angle within tolerance
    # of the maximum, so float rounding cannot flip exact real-valued ties.
    best = int(np.argmax(np.array(windowed) >= max(windowed) - ARGMAX_TOL))
    return np.array(gains), np.array(windowed), float(dirs[best])


def dijkstra_oracle(nav, start, goal):
    """Independent Dijkstra returning (cardinal, diagonal) step counts, or None
    if the goal is cut off.

    Counting steps instead of accumulating floats keeps the comparison exact:
    1 and sqrt(2) are rationally independent, so the optimal count pair is
    unique and the cost can be reconstituted identically on both sides.
    """
    w, h = nav.spec.width, nav.spec.height
    dist = {start: (0, 0)}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == goal:
            return dist[node]
        done.add(node)
        i, j = node
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                ni, nj = i + di, j + dj
                if not (0 <= ni < w and 0 <= nj < h) or not nav.is_free(ni, nj):
                    continue
                if di != 0 and dj != 0:
                    if not nav.is_free(i + di, j) and not nav.is_free(i, j + dj):
                        continue
                card, diag = dist[node]
                cand = (card, diag + 1) if di != 0 and dj != 0 else (card + 1, diag)
                cand_cost = cand[0] + cand[1] * SQRT2
                cur = dist.get((ni, nj))
                if cur is None or cand_cost < cur[0] + cur[1] * SQRT2 - 1e-12:
                    dist[(ni, nj)] = cand
                    heapq.heappush(heap, (cand_cost, (ni, nj)))
    return None


def cell_metrics(stats, sensed=None):
    """Per-cell (valid, mean_z, slope, roughness, step) arrays of a TerrainStatsGrid,
    over the whole grid by shifted copies.

    valid is True where the cell holds at least MIN_POINTS points and is in the
    bool `sensed` mask, if one is given. Slope is the angle between the
    fitted-plane normal and vertical; roughness is the RMS residual; step is the
    largest elevation difference to the mean of an 8-neighbor cell that has data
    (a point, and in `sensed`; 0 when no neighbor has data).
    """
    has_data = stats.count > 0 if sensed is None else (stats.count > 0) & sensed
    valid = (stats.count >= MIN_POINTS) & has_data
    mz, slope, roughness = stats.plane
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


def score_cells(stats, sensed=None):
    """The (H, W) scores `TerrainStatsGrid.score_cells` gives, from `cell_metrics`
    over the whole grid: the minimum of the three metric scores, NaN (Unknown)
    where a cell is not valid."""
    valid, _, slope, roughness, step = cell_metrics(stats, sensed)
    s_slope = np.clip(1.0 - slope / MAX_SLOPE, 0.0, 1.0)
    s_rough = np.clip(1.0 - roughness / MAX_ROUGHNESS, 0.0, 1.0)
    s_step = np.clip(1.0 - step / MAX_STEP, 0.0, 1.0)
    score = np.minimum(np.minimum(s_slope, s_rough), s_step)
    return np.where(valid, score, np.nan)
