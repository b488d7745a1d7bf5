import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from fitslam.grid import BLOCKED, BinaryTraversabilityGrid, FREE, GridSpec, UNKNOWN, shift
from fitslam.planner import (
    MultiGoalPlanner,
    NoPathError,
    Path,
    SQRT2,
    plan,
    sample_waypoints,
)
from oracles import dijkstra_oracle


def free_grid(w, h, res=0.05):
    spec = GridSpec(res, w, h)
    state = np.full((h, w), FREE, dtype=np.int8)
    return BinaryTraversabilityGrid(spec, state)


def coo_graph(nav):
    """Edge triplets direction by direction, then scipy's sorting COO-to-CSR."""
    free = nav.free_mask()
    w = nav.spec.width
    rows, cols, data = [], [], []
    for di, dj, cost in ((1, 0, 1.0), (0, 1, 1.0), (1, 1, SQRT2), (1, -1, SQRT2)):
        ok = free & shift(free, -di, -dj)
        if di != 0 and dj != 0:
            ok &= shift(free, -di, 0) | shift(free, 0, -dj)
        jj, ii = np.nonzero(ok)
        rows.append(jj * w + ii)
        cols.append((jj + dj) * w + (ii + di))
        data.append(np.full(ii.shape, cost))
    n = nav.spec.n_cells
    return coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()


def path_counts(path):
    card = diag = 0
    for a, b in zip(path.cells, path.cells[1:]):
        if a[0] != b[0] and a[1] != b[1]:
            diag += 1
        else:
            card += 1
    return card, diag


class TestPlan:
    def test_start_equals_goal(self):
        nav = free_grid(5, 5)
        path = plan(nav, (2, 2), (2, 2))
        assert path.cells == [(2, 2)]
        assert path.length_m == 0.0

    def test_straight_corridor_length(self):
        nav = free_grid(10, 10, res=0.05)
        path = plan(nav, (0, 0), (0, 9))
        assert path.cells == [(0, j) for j in range(10)]
        assert path.length_m == pytest.approx(0.45)

    def test_enclosed_goal_unreachable(self):
        nav = free_grid(7, 7)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if (di, dj) != (0, 0):
                    nav.state[3 + dj, 3 + di] = BLOCKED
        with pytest.raises(NoPathError):
            plan(nav, (0, 0), (3, 3))

    def test_blocked_start_or_goal_rejected(self):
        nav = free_grid(5, 5)
        nav.state[0, 0] = BLOCKED
        with pytest.raises(NoPathError):
            plan(nav, (0, 0), (4, 4))
        with pytest.raises(NoPathError):
            plan(nav, (4, 4), (0, 0))

    def test_no_corner_cutting_through_closed_corner(self):
        nav = free_grid(3, 3)
        nav.state[0, 1] = BLOCKED  # cell (1, 0)
        nav.state[1, 0] = BLOCKED  # cell (0, 1)
        # Both cardinals around the corner are closed, so the diagonal move is
        # forbidden and the start cell is completely walled in.
        with pytest.raises(NoPathError):
            plan(nav, (0, 0), (1, 1))

    def test_diagonal_allowed_past_single_blocked_cardinal(self):
        nav = free_grid(3, 3)
        nav.state[0, 1] = BLOCKED  # only one of the two touched cardinals
        path = plan(nav, (0, 0), (1, 1))
        assert path.cells == [(0, 0), (1, 1)]

    def test_consecutive_cells_are_adjacent_and_free(self):
        rng = np.random.default_rng(2)
        nav = free_grid(20, 20)
        nav.state[rng.random((20, 20)) < 0.2] = BLOCKED
        nav.state[0, 0] = FREE
        nav.state[19, 19] = FREE
        try:
            path = plan(nav, (0, 0), (19, 19))
        except NoPathError:
            pytest.skip("random grid disconnected")
        for a, b in zip(path.cells, path.cells[1:]):
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1
            assert nav.is_free(*b)

    def test_matches_dijkstra_oracle_random_grids(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            nav = free_grid(24, 24, res=0.1)
            nav.state[rng.random((24, 24)) < 0.25] = BLOCKED
            free = np.argwhere(nav.state == FREE)
            sj, si = free[rng.integers(len(free))]
            gj, gi = free[rng.integers(len(free))]
            start, goal = (int(si), int(sj)), (int(gi), int(gj))
            oracle = dijkstra_oracle(nav, start, goal)
            if oracle is None:
                with pytest.raises(NoPathError):
                    plan(nav, start, goal)
                continue
            path = plan(nav, start, goal)
            card, diag = path_counts(path)
            assert (card, diag) == oracle or (
                card + diag * SQRT2 == pytest.approx(
                    oracle[0] + oracle[1] * SQRT2, abs=1e-9))
            assert path.length_m == pytest.approx(
                nav.spec.resolution * (oracle[0] + oracle[1] * SQRT2), abs=1e-9)


class TestMultiGoalPlanner:
    def test_costs_match_single_goal_planner(self):
        rng = np.random.default_rng(8)
        nav = free_grid(18, 18, res=0.1)
        nav.state[rng.random((18, 18)) < 0.2] = BLOCKED
        nav.state[0, 0] = FREE
        mgp = MultiGoalPlanner(nav)
        mgp.solve((0, 0))
        free = np.argwhere(nav.state == FREE)
        for gj, gi in free[::5]:
            goal = (int(gi), int(gj))
            try:
                single = plan(nav, (0, 0), goal)
            except NoPathError:
                with pytest.raises(NoPathError):
                    mgp.distance_to(goal)
                continue
            assert mgp.distance_to(goal) == pytest.approx(single.length_m, abs=1e-9)
            batched = mgp.path_to(goal)
            assert batched.length_m == pytest.approx(single.length_m, abs=1e-9)
            assert batched.cells[0] == (0, 0) and batched.cells[-1] == goal

    def test_solve_required_before_queries(self):
        nav = free_grid(4, 4)
        mgp = MultiGoalPlanner(nav)
        with pytest.raises(AssertionError):
            mgp.distance_to((1, 1))

    def test_blocked_goal_raises(self):
        nav = free_grid(4, 4)
        nav.state[2, 2] = BLOCKED
        mgp = MultiGoalPlanner(nav)
        mgp.solve((0, 0))
        with pytest.raises(NoPathError):
            mgp.distance_to((2, 2))


class TestBuildGraph:
    def test_matches_coo_reference(self):
        rng = np.random.default_rng(17)
        shapes = [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (2, 2)]
        shapes += [tuple(int(v) for v in rng.integers(1, 41, size=2)) for _ in range(60)]
        for w, h in shapes:
            nav = free_grid(w, h)
            p_free, p_blocked = rng.dirichlet([2.0, 1.0, 1.0])[:2]
            u = rng.random((h, w))
            nav.state[u >= p_free] = BLOCKED
            nav.state[u >= p_free + p_blocked] = UNKNOWN
            fast = MultiGoalPlanner(nav)
            ref = coo_graph(nav)
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(fast._graph, attr), getattr(ref, attr)
                assert a.dtype == b.dtype and np.array_equal(a, b), (w, h, attr)
            free = np.argwhere(nav.state == FREE)
            if not len(free):
                continue
            sj, si = free[rng.integers(len(free))]
            fast.solve((int(si), int(sj)))
            slow = MultiGoalPlanner(nav)
            slow._graph = ref
            slow.solve((int(si), int(sj)))
            assert np.array_equal(fast._dist, slow._dist)
            assert np.array_equal(fast._pred, slow._pred)


class TestSampleWaypoints:
    def test_single_cell_path(self):
        spec = GridSpec(0.1, 10, 10)
        wps = sample_waypoints(Path([(3, 4)], 0.0), 2.0, spec)
        assert len(wps) == 1
        assert (wps[0].x, wps[0].y) == pytest.approx((0.35, 0.45))

    def test_straight_path_spacing(self):
        spec = GridSpec(1.0, 12, 2)
        cells = [(i, 0) for i in range(11)]  # 10 m of cardinal steps
        wps = sample_waypoints(Path(cells, 10.0), 4.0, spec)
        xs = [wp.x for wp in wps]
        assert xs == pytest.approx([0.5, 4.5, 8.5, 10.5])
        assert all(wp.heading == pytest.approx(0.0) for wp in wps)

    def test_spacing_larger_than_path(self):
        spec = GridSpec(1.0, 5, 2)
        cells = [(0, 0), (1, 0), (2, 0)]
        wps = sample_waypoints(Path(cells, 2.0), 50.0, spec)
        assert len(wps) == 2
        assert (wps[0].x, wps[-1].x) == (0.5, 2.5)

    def test_final_heading_repeats_previous(self):
        spec = GridSpec(1.0, 6, 6)
        cells = [(0, 0), (1, 1), (2, 2)]
        wps = sample_waypoints(Path(cells, 2 * SQRT2), 1.0, spec)
        assert wps[-1].heading == pytest.approx(wps[-2].heading)
        assert wps[0].heading == pytest.approx(math.pi / 4)

    def test_bad_spacing_rejected(self):
        spec = GridSpec(1.0, 3, 3)
        with pytest.raises(ValueError):
            sample_waypoints(Path([(0, 0)], 0.0), 0.0, spec)
