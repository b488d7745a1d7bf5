"""Shortest paths on the binary traversability grid.

A* with the octile heuristic produces minimum-cost 8-connected paths over
Free cells; it is the reference the tests check the program's solver against.
Unknown cells are treated as non-traversable. The harness plans with
`MultiGoalPlanner`, a single-source solver backed by scipy's Dijkstra on the
same costs. Its graph is the mission's `GraphMemo`, which each planner patches
only where the Free mask changed since the previous planner: the map changes
only near the last drive. Every strategy finds which candidates the robot can
reach from one breadth-first search over the row runs of the Free mask, not
the graph, then settles them with bounded solves grown until its choice is
exact: greedy and random as far as their one pick, the nearest or a random
draw, and fit as far as its u1 shortlist can reach.
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .grid import BinaryTraversabilityGrid, GridSpec, shift

SQRT2 = math.sqrt(2.0)
# Added to each octile distance `MultiGoalPlanner.settle` tries as its first limit,
# in cells, so that float rounding of a path that meets its octile bound cannot
# leave it unsettled. Far below the gap between two distinct path costs on any
# grid we plan on.
BOUND_SLACK = 1e-6
# The 4 forward steps (di, dj, cost) in ascending order of the column offset
# dj * width + di. Every cell's graph row lists them, then their reverses in
# the opposite order, which is the order of the reverses' column offsets too.
STEPS = ((1, -1, SQRT2), (1, 0, 1.0), (0, 1, 1.0), (1, 1, SQRT2))


class NoPathError(RuntimeError):
    """The goal is not Free or not reachable; callers should blacklist it."""


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


def plan(nav: BinaryTraversabilityGrid, start: tuple, goal: tuple) -> np.ndarray:
    """A* minimum-cost path from start to goal over Free cells, as the linear
    indices of its cells, start first.

    Ties in f are broken by larger g, then by row-major node index, so the
    returned path is deterministic across runs and platforms.
    """
    spec = nav.spec
    if not nav.is_free(*start):
        raise NoPathError(f"start {start} is not Free")
    if not spec.in_bounds(*goal) or not nav.is_free(*goal):
        raise NoPathError(f"goal {goal} is not Free")
    if start == goal:
        return np.array([spec.linear_index(*start)])

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
            return _reconstruct(parent, goal, spec.width)
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


def _reconstruct(parent: dict, goal: tuple, width: int) -> np.ndarray:
    cells = [goal]
    while parent[cells[-1]] is not None:
        cells.append(parent[cells[-1]])
    return np.array([j * width + i for i, j in reversed(cells)])


class MultiGoalPlanner:
    """Single-source shortest paths to many goals on one grid snapshot.

    Patches the 8-connected adjacency of the Free cells held in `memo` to the
    grid's Free mask and runs scipy's Dijkstra; costs equal the A* costs of
    `plan`. The graph is the memo's, so the planner is valid until the next
    planner is built on the same memo. A bounded solve leaves the nodes past
    its limit at infinite distance. `reachable` answers which goals share the
    start's component from the Free mask's row runs, without the graph or any
    solve. `settle` grows bounded solves until a caller's stop test holds;
    `nearest` uses it to find the goal with the least (distance, row, column),
    or to settle a lone goal, after which `distance_to` and `path_to` serve it
    as after a full solve.
    A set of goals, like a path's cells, is one array of linear indices
    `j * width + i`; one goal, like the start, is an (i, j) pair.
    """

    def __init__(self, nav: BinaryTraversabilityGrid, memo: GraphMemo):
        self.nav = nav
        self.spec = nav.spec
        self._graph = _patch_graph(nav, memo)
        self._dist = None
        self._pred = None
        self._start = None
        self._limit = None

    def solve(self, start: tuple, limit: float) -> None:
        """Settle every node within `limit` (cell units; `math.inf` for all) of start."""
        src = self._start_index(start)
        self._dist, self._pred = _csgraph_dijkstra(
            self._graph, directed=True, indices=src, return_predecessors=True, limit=limit)
        self._start = start
        self._limit = limit

    def _start_index(self, start: tuple) -> int:
        if not self.nav.is_free(*start):
            raise NoPathError(f"start {start} is not Free")
        return self.spec.linear_index(*start)

    def reachable(self, start: tuple, goals: np.ndarray) -> np.ndarray:
        """Per goal, whether any path joins it to start: one bool array.

        With no corner cutting, the graph's components are the Free mask's
        4-connected ones, so this reads only the mask, as row runs: maximal
        horizontal intervals [lo, hi) of Free cells in linear indices, sorted.
        A run joins the runs of the rows above and below it whose columns overlap
        its own, not those it touches only at a corner. A directed breadth-first
        search of that run graph marks the start's component. A goal is reached
        if it lies inside a run of it, so a goal that is not Free never is.
        """
        src = self._start_index(start)
        free = self.nav.free_mask()
        w = free.shape[1]
        padded = np.zeros((free.shape[0], w + 2), dtype=bool)
        padded[:, 1:-1] = free
        # Starts and ends alternate; transition p of row p // (w + 1) is cell p - row.
        edges = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
        edges -= edges // (w + 1)
        lo, hi = edges[0::2], edges[1::2]
        first = np.searchsorted(hi, np.stack([lo - w, lo + w], axis=1).ravel(), side="right")
        last = np.searchsorted(lo, np.stack([hi - w, hi + w], axis=1).ravel(), side="left")
        ptr = np.zeros(2 * lo.size + 1, dtype=np.int32)
        np.cumsum(last - first, out=ptr[1:])
        # Row a lists the runs first[2a + r] ... last[2a + r] - 1, r = 0 above it, 1 below.
        indices = (np.arange(ptr[-1], dtype=np.int32)
                   + np.repeat(first - ptr[:-1], last - first).astype(np.int32))
        runs = csr_matrix((np.ones(indices.size), indices, np.ascontiguousarray(ptr[::2])),
                          shape=(lo.size, lo.size))
        met = np.zeros(lo.size, dtype=bool)
        met[breadth_first_order(runs, np.searchsorted(lo, src, side="right") - 1,
                                directed=True, return_predecessors=False)] = True
        k = np.searchsorted(lo, goals, side="right") - 1
        return (k >= 0) & (goals < hi[k]) & met[k]

    def settle(self, start: tuple, goals: np.ndarray, done) -> np.ndarray:
        """Per goal, its path length in meters from bounded solves grown until
        `done(rho, limit_m)` holds; inf where the last solve left it unsettled.

        Every goal a solve leaves unsettled is farther than its limit,
        `limit_m` meters. The first limit is the least octile distance to a
        goal at which `done` holds on straight paths, each goal at its octile
        distance, which no path undercuts. It is bisected for, so `done` must
        keep holding as the limit grows. Until `done` holds on a solve, the
        limit grows by x1.5 + 1 cell; past the longest possible path the solve
        is a full one, after which `done` is not asked. Leaves the planner
        solved at the last limit.
        """
        src = self._start_index(start)
        w, res = self.spec.width, self.spec.resolution
        dx, dy = np.abs(goals % w - src % w), np.abs(goals // w - src // w)
        bound = (dx + dy) + (SQRT2 - 2.0) * np.minimum(dx, dy)
        levels = np.unique(bound) + BOUND_SLACK

        def holds(k):
            return done(np.where(bound <= levels[k], bound * res, math.inf), levels[k] * res)

        # Gallop, then bisect, for the least level where `done` holds.
        lo = hi = 0
        while hi < len(levels) - 1 and not holds(hi):
            lo, hi = hi + 1, min(2 * hi + 1, len(levels) - 1)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
        limit = float(levels[lo])
        longest = SQRT2 * self.spec.n_cells  # no shortest path is longer
        while True:
            self.solve(start, limit)
            rho = self.distances(goals)
            if limit == math.inf or done(rho, limit * res):
                return rho
            limit = limit * 1.5 + 1.0 if limit < longest else math.inf

    def nearest(self, start: tuple, goals: np.ndarray) -> int:
        """Index in `goals` of the goal with the least (distance_to, j, i), or (distance_to, index).

        Once one goal settles, the least key among the settled goals is the
        least of all goals, provided the winner lies strictly inside the limit
        in meters: an unsettled goal could otherwise tie it by rounding. Leaves
        the planner solved at a limit that holds the winner's whole path.
        """
        rho = self.settle(start, goals, lambda rho, limit_m: rho.min() < limit_m)
        settled = np.flatnonzero(np.isfinite(rho))
        if not settled.size:
            raise NoPathError(f"no goal reachable from {start}")
        return int(settled[np.lexsort((goals[settled], rho[settled]))[0]])

    def distances(self, goals: np.ndarray) -> np.ndarray:
        """Per goal, its path length in meters after the last solve; inf where that
        solve left the goal unsettled or cannot reach it."""
        return self._dist[goals] * self.spec.resolution

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

    def path_to(self, goal: tuple) -> np.ndarray:
        """The optimal path's cells as linear indices, start first, from the last
        solve's predecessors."""
        gi, _ = self._goal_index(goal)
        nodes = [gi]
        while self._pred[nodes[-1]] >= 0:
            nodes.append(int(self._pred[nodes[-1]]))
        return np.array(nodes[::-1])


@functools.lru_cache(maxsize=1)
def _rows(n: int):
    """Step costs and row pointers of the n-cell graph: 8 slots a row, `STEPS`
    then their reverses. A mission plans on one grid, so one is kept."""
    costs = [cost for _, _, cost in STEPS]
    data = np.tile(costs + costs[::-1], n)
    indptr = np.arange(0, 8 * n + 1, 8, dtype=np.int32)
    data.flags.writeable = indptr.flags.writeable = False  # shared by every graph
    return data, indptr


class GraphMemo:
    """One mission's planner graph, kept from decision to decision: the Free mask
    it was built on and its (n, 8) int32 slot columns, row v's 8 slots in row v.

    A fresh memo is the graph of a grid with nothing Free, every slot a
    self-loop, so the first planner built on it patches the whole grid. Each
    planner patches the memo's columns in place and wraps them, so a planner
    is valid until the next planner is built on the same memo. The memo is
    bound to its spec's grid shape; a grid of another shape raises ValueError.
    """

    def __init__(self, spec: GridSpec):
        self.free = np.zeros((spec.height, spec.width), dtype=bool)
        self.cols = np.repeat(np.arange(spec.n_cells, dtype=np.int32)[:, None], 8, axis=1)


def _patch_graph(nav: BinaryTraversabilityGrid, memo: GraphMemo):
    """Free-cell adjacency as a directed CSR that lists both directions of every edge,
    on the memo's slot columns, rewritten where the Free mask changed.

    Each row has 8 slots in a fixed order, the 4 `STEPS` and then their
    reverses. That is the order in which dijkstra(directed=False) relaxes
    the edges of a graph that lists each edge once along `STEPS`: the row,
    then the same row of its transpose. So a directed solve here gives that
    solve's `dist` and `pred` bit for bit, with no transpose built. A slot
    without a move points at its own row; a search has always reached a row
    before it reads it, so the self-loop is never followed.

    A row's slots read only the Free flags of its 3 x 3 neighbourhood. Cells
    flip both ways, so the rows rewritten are the bounding box of the cells
    whose flag differs from the memo's, grown by one cell, and they are
    computed on a slab one cell wider still, whose own edge cells are not kept.
    """
    free = nav.free_mask()
    if free.shape != memo.free.shape:
        raise ValueError(f"graph memo holds a {memo.free.shape} grid, not {free.shape}")
    changed = free != memo.free
    rows = np.flatnonzero(changed.any(axis=1))
    h, w = free.shape
    n = h * w
    if rows.size:
        cols = np.flatnonzero(changed.any(axis=0))
        j0, j1 = max(rows[0] - 1, 0), min(rows[-1] + 2, h)
        i0, i1 = max(cols[0] - 1, 0), min(cols[-1] + 2, w)
        sj, si = max(j0 - 1, 0), max(i0 - 1, 0)
        slab = free[sj:min(j1 + 1, h), si:min(i1 + 1, w)]
        oks = []
        for di, dj, _ in STEPS:
            # ok[j, i]: both cell (i, j) and its neighbor (i + di, j + dj) are Free.
            ok = slab & shift(slab, -di, -dj)
            if di != 0 and dj != 0:
                # No corner cutting: both touched cardinals closed kills the move.
                ok &= shift(slab, -di, 0) | shift(slab, 0, -dj)
            oks.append(ok)
        # The reverse move from (i, j) is the forward one from (i - di, j - dj).
        oks += [shift(ok, di, dj) for (di, dj, _), ok in zip(STEPS[::-1], oks[::-1])]
        offsets = [dj * w + di for di, dj, _ in STEPS]
        offsets += [-o for o in reversed(offsets)]
        # Row v's slot holds v + offset where the move is allowed, else v + 0.
        box = memo.cols.reshape(h, w, 8)[j0:j1, i0:i1]
        np.multiply(np.stack(oks, axis=-1)[j0 - sj:j1 - sj, i0 - si:i1 - si],
                    np.array(offsets, dtype=np.int32), out=box, dtype=np.int32)
        box += (np.arange(j0, j1, dtype=np.int32)[:, None] * w
                + np.arange(i0, i1, dtype=np.int32))[:, :, None]
        memo.free = free
    data, indptr = _rows(n)
    return csr_matrix((data, memo.cols.ravel(), indptr), shape=(n, n))


def sample_waypoints(path: np.ndarray, spacing_m: float, spec) -> np.ndarray:
    """Sample the polyline through the path's cell centres at arc-length multiples
    of spacing_m, as an (S, 3) float64 stack of (x, y, heading) poses.

    The start and the final cell are always included. Each pose's heading points
    toward the next sample; the final pose repeats the direction of arrival (the
    caller overrides it with the chosen arrival orientation). An index off the
    grid raises OutOfBoundsError. One `searchsorted` finds every sample's
    segment. The headings are `math.atan2` per sample pair, since numpy's
    `arctan2` rounds some of them differently.
    """
    if spacing_m <= 0:
        raise ValueError("spacing_m must be > 0")
    if not len(path):
        raise ValueError("path must be nonempty")
    j, i = np.divmod(path, spec.width)
    pts = np.column_stack(spec.cell_to_world(i, j))
    if len(pts) == 1:
        return np.column_stack([pts, [0.0]])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(0.0, arc[-1], spacing_m)
    if not targets.size or arc[-1] - targets[-1] > 1e-9:
        targets = np.append(targets, arc[-1])
    k = np.minimum(np.searchsorted(arc, targets, side="right") - 1, len(seg) - 1)
    # A repeated cell makes a zero-length segment; its samples sit at its start.
    frac = np.divide(targets - arc[k], seg[k], out=np.zeros_like(targets), where=seg[k] > 0)
    xy = pts[k] + frac[:, None] * (pts[k + 1] - pts[k])
    headings = [math.atan2(dy, dx) for dx, dy in np.diff(xy, axis=0).tolist()]
    headings.append(headings[-1] if headings else 0.0)
    return np.column_stack([xy, headings])
