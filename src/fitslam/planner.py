"""Shortest paths on the binary traversability grid.

A* with the octile heuristic produces minimum-cost 8-connected paths over
Free cells; it is the reference the tests check the program's solver against.
Unknown cells are treated as non-traversable. The harness plans with
`MultiGoalPlanner`, a single-source solver backed by scipy's Dijkstra on the
same costs: fit and random solve once to every cell, greedy finds which
candidates the robot can reach from the graph's connected components and then
finds the nearest of them with Dijkstra solves bounded at a growing limit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .grid import BinaryTraversabilityGrid, shift

SQRT2 = math.sqrt(2.0)
# Added to the first bound of `MultiGoalPlanner.nearest`, in cells, so that
# float rounding of a path that meets its octile bound cannot leave it unsettled.
# Far below the gap between two distinct path costs on any grid we plan on.
BOUND_SLACK = 1e-6


class NoPathError(RuntimeError):
    """The goal is not Free or not reachable; callers should blacklist it."""


@dataclass
class Path:
    cells: list  # (i, j) from start to goal, consecutive cells 8-adjacent
    length_m: float


@dataclass(frozen=True)
class Waypoint:
    x: float
    y: float
    heading: float


def _neighbors(nav: BinaryTraversabilityGrid, i: int, j: int):
    """Yield (ni, nj, step_cost_cells) honoring bounds and corner cutting.

    A diagonal move is disallowed when both adjacent cardinal cells are
    non-traversable (the robot cannot squeeze through a fully closed corner).
    """
    spec = nav.spec
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, 1), (1, -1), (-1, 1), (-1, -1)):
        ni, nj = i + di, j + dj
        if not spec.in_bounds(ni, nj) or not nav.is_free(ni, nj):
            continue
        if di != 0 and dj != 0:
            if not nav.is_free(i + di, j) and not nav.is_free(i, j + dj):
                continue
            yield ni, nj, SQRT2
        else:
            yield ni, nj, 1.0


def octile(a: tuple, b: tuple) -> float:
    """Octile distance in cell units; admissible for the 8-connected grid."""
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return (dx + dy) + (SQRT2 - 2.0) * min(dx, dy)


def plan(nav: BinaryTraversabilityGrid, start: tuple, goal: tuple) -> Path:
    """A* minimum-cost path from start to goal over Free cells.

    Ties in f are broken by larger g, then by row-major node index, so the
    returned path is deterministic across runs and platforms.
    """
    spec = nav.spec
    if not nav.is_free(*start):
        raise NoPathError(f"start {start} is not Free")
    if not spec.in_bounds(*goal) or not nav.is_free(*goal):
        raise NoPathError(f"goal {goal} is not Free")
    if start == goal:
        return Path([start], 0.0)

    g = {start: 0.0}
    parent = {start: None}
    closed = set()
    h0 = octile(start, goal)
    open_heap = [(h0, -0.0, spec.linear_index(*start), start)]
    while open_heap:
        f, neg_g, _, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        if node == goal:
            return _reconstruct(parent, goal, spec.resolution)
        closed.add(node)
        g_node = -neg_g
        for ni, nj, step in _neighbors(nav, *node):
            nb = (ni, nj)
            if nb in closed:
                continue
            cand = g_node + step
            if cand < g.get(nb, math.inf) - 1e-12:
                g[nb] = cand
                parent[nb] = node
                fn = cand + octile(nb, goal)
                heapq.heappush(open_heap, (fn, -cand, spec.linear_index(ni, nj), nb))
    raise NoPathError(f"goal {goal} unreachable from {start}")


def _reconstruct(parent: dict, goal: tuple, resolution: float) -> Path:
    cells = [goal]
    while parent[cells[-1]] is not None:
        cells.append(parent[cells[-1]])
    cells.reverse()
    length = 0.0
    for a, b in zip(cells, cells[1:]):
        length += resolution * (SQRT2 if a[0] != b[0] and a[1] != b[1] else 1.0)
    return Path(cells, length)


class MultiGoalPlanner:
    """Single-source shortest paths to many goals on one grid snapshot.

    Builds the 8-connected adjacency of the Free cells once and runs scipy's
    Dijkstra; costs equal the A* costs of `plan`. A solve may stop at a
    limit: nodes farther than it are left unsettled, at infinite distance.
    `reachable` answers which goals share the start's connected component
    without any solve, and `nearest` finds the goal with the least
    (distance, row, column) through solves bounded at a growing limit, after
    which `distance_to` and `path_to` serve that goal as after a full solve.
    """

    def __init__(self, nav: BinaryTraversabilityGrid):
        self.nav = nav
        self.spec = nav.spec
        self._graph = _build_graph(nav)
        self._dist = None
        self._pred = None
        self._start = None
        self._limit = None

    def solve(self, start: tuple, limit: float) -> None:
        """Settle every node within `limit` (cell units; `math.inf` for all) of start."""
        src = self._start_index(start)
        self._dist, self._pred = _csgraph_dijkstra(
            self._graph, directed=False, indices=src, return_predecessors=True, limit=limit)
        self._start = start
        self._limit = limit

    def _start_index(self, start: tuple) -> int:
        if not self.nav.is_free(*start):
            raise NoPathError(f"start {start} is not Free")
        return self.spec.linear_index(*start)

    def reachable(self, start: tuple, goals: list) -> np.ndarray:
        """Per goal (i, j), whether any path joins it to start: one bool array.

        A goal that is not Free is a node without edges, so it shares no
        component with the Free start.
        """
        src = self._start_index(start)
        _, labels = connected_components(self._graph, directed=False)
        return labels[self._linear(goals)] == labels[src]

    def nearest(self, start: tuple, goals: list) -> int:
        """Index in `goals` of the goal with the least (distance_to, j, i).

        The first solve is bounded at the least octile distance to a goal,
        which no path undercuts. Every goal a solve leaves unsettled is
        farther than its limit, so once one settles, the least key among the
        settled goals is the least of all goals. The winner must also lie
        strictly inside the limit in meters, since an unsettled goal could
        otherwise tie it by rounding. Until both hold, the limit grows by
        x1.5 + 1 cell; past the longest possible path the solve is a full one.
        Leaves the planner solved at the last limit, which holds the winner's
        whole path.
        """
        src = self._start_index(start)
        lin = self._linear(goals)
        w, res = self.spec.width, self.spec.resolution
        i, j = lin % w, lin // w
        dx, dy = np.abs(i - src % w), np.abs(j - src // w)
        bound = (dx + dy) + (SQRT2 - 2.0) * np.minimum(dx, dy)
        longest = SQRT2 * self.spec.n_cells  # no shortest path is longer
        limit = float(bound.min()) + BOUND_SLACK
        while True:
            self.solve(start, limit)
            rho = self._dist[lin] * res
            settled = np.flatnonzero(np.isfinite(rho))
            if settled.size:
                k = settled[np.lexsort((i[settled], j[settled], rho[settled]))[0]]
                if rho[k] < limit * res:
                    return int(k)
            if limit == math.inf:
                raise NoPathError(f"no goal reachable from {start}")
            limit = limit * 1.5 + 1.0 if limit < longest else math.inf

    def _linear(self, goals: list) -> np.ndarray:
        cells = np.asarray(goals, dtype=np.intp).reshape(-1, 2)
        return cells[:, 1] * self.spec.width + cells[:, 0]

    def distance_to(self, goal: tuple) -> float:
        """Optimal path length in meters without reconstructing the path."""
        return float(self._goal_index(goal)[1]) * self.spec.resolution

    def _goal_index(self, goal: tuple):
        assert self._dist is not None, "call solve() first"
        spec = self.spec
        if not spec.in_bounds(*goal) or not self.nav.is_free(*goal):
            raise NoPathError(f"goal {goal} is not Free")
        gi = spec.linear_index(*goal)
        if not np.isfinite(self._dist[gi]):
            if self._limit < math.inf:
                raise NoPathError(f"goal {goal} not settled within limit "
                                  f"{self._limit:g} cells of {self._start}")
            raise NoPathError(f"goal {goal} unreachable from {self._start}")
        return gi, self._dist[gi]

    def path_to(self, goal: tuple) -> Path:
        gi, _ = self._goal_index(goal)
        spec = self.spec
        nodes = [gi]
        while self._pred[nodes[-1]] >= 0:
            nodes.append(int(self._pred[nodes[-1]]))
        nodes.reverse()
        cells = [(n % spec.width, n // spec.width) for n in nodes]
        return Path(cells, float(self._dist[gi]) * spec.resolution)


def _build_graph(nav: BinaryTraversabilityGrid):
    """Free-cell adjacency as a canonical CSR: sorted columns in each row, no duplicates."""
    spec = nav.spec
    free = nav.free_mask()
    w, n = spec.width, spec.n_cells
    # Half of the 8 directions, dijkstra(directed=False) covers the reverse; in
    # ascending order of the column offset dj * w + di, so rows come out sorted.
    steps = ((1, -1, SQRT2), (1, 0, 1.0), (0, 1, 1.0), (1, 1, SQRT2))
    oks = []
    for di, dj, _ in steps:
        # ok[j, i]: both cell (i, j) and its neighbor (i + di, j + dj) are Free.
        ok = free & shift(free, -di, -dj)
        if di != 0 and dj != 0:
            # No corner cutting: both touched cardinals closed kills the move.
            ok &= shift(free, -di, 0) | shift(free, 0, -dj)
        oks.append(ok.ravel())
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(sum(ok.astype(np.int32) for ok in oks), out=indptr[1:])
    edge = np.flatnonzero(np.stack(oks, axis=1))  # 4 * row + step
    step = edge & 3
    cols = (edge >> 2) + np.array([dj * w + di for di, dj, _ in steps])[step]
    costs = np.array([cost for _, _, cost in steps])[step]
    return csr_matrix((costs, cols.astype(np.int32), indptr), shape=(n, n))


def sample_waypoints(path: Path, spacing_m: float, spec) -> list:
    """Sample the path polyline at arc-length multiples of spacing_m.

    The start and the final cell are always included. Each waypoint's heading
    points toward the next sample; the final waypoint repeats the direction of
    arrival (the caller overrides it with the chosen arrival orientation).
    """
    if spacing_m <= 0:
        raise ValueError("spacing_m must be > 0")
    if not path.cells:
        raise ValueError("path must be nonempty")
    pts = np.array([spec.cell_to_world(i, j) for i, j in path.cells])
    if len(pts) == 1:
        return [Waypoint(pts[0][0], pts[0][1], 0.0)]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    targets = list(np.arange(0.0, total, spacing_m))
    if not targets or total - targets[-1] > 1e-9:
        targets.append(total)
    samples = []
    for s in targets:
        k = int(np.searchsorted(arc, s, side="right")) - 1
        k = min(k, len(seg) - 1)
        frac = (s - arc[k]) / seg[k] if seg[k] > 0 else 0.0
        samples.append(pts[k] + frac * (pts[k + 1] - pts[k]))
    waypoints = []
    for idx, p in enumerate(samples):
        if idx + 1 < len(samples):
            d = samples[idx + 1] - p
            heading = math.atan2(d[1], d[0])
        else:
            heading = waypoints[-1].heading if waypoints else 0.0
        waypoints.append(Waypoint(float(p[0]), float(p[1]), heading))
    return waypoints
