import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from fitslam.grid import BLOCKED, BinaryTraversabilityGrid, FREE, GridSpec, UNKNOWN, shift
from fitslam import planner as planner_module
from fitslam.planner import (
    MultiGoalPlanner,
    NoPathError,
    Path,
    SQRT2,
    octile,
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
        mgp.solve((0, 0), math.inf)
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
        mgp.solve((0, 0), math.inf)
        with pytest.raises(NoPathError):
            mgp.distance_to((2, 2))


def oracle_grids(rng, n):
    """Free/Blocked grids of the shapes the greedy pick must handle, by kind in turn:
    random clutter, checkerboards of closed corners with a few opened, walled pockets,
    and single rows or columns."""
    for trial in range(n):
        kind = trial % 4
        w, h = (int(v) for v in rng.integers(2, 31, size=2))
        if kind == 3:
            w, h = (w, 1) if trial % 8 == 3 else (1, h)
        nav = free_grid(w, h, res=float(rng.choice([0.05, 0.1, 0.15])))
        if kind == 0:
            nav.state[rng.random((h, w)) < rng.uniform(0.0, 0.45)] = BLOCKED
        elif kind == 1:
            # Free cells meet only at diagonals whose two cardinals are both
            # Blocked, so every Free cell is cut off until a cardinal opens.
            jj, ii = np.mgrid[:h, :w]
            nav.state[(ii + jj) % 2 == 1] = BLOCKED
            nav.state[rng.random((h, w)) < rng.uniform(0.0, 0.3)] = FREE
        elif kind == 2:
            for _ in range(int(rng.integers(1, 4))):
                i0, j0 = (int(v) for v in rng.integers(0, [w, h]))
                i1, j1 = i0 + int(rng.integers(2, 8)), j0 + int(rng.integers(2, 8))
                nav.state[j0:j1 + 1, i0:i1 + 1] = BLOCKED
                nav.state[j0 + 1:j1, i0 + 1:i1] = FREE  # an enclosed pocket
        else:
            nav.state[rng.random((h, w)) < 0.15] = BLOCKED
        free = np.argwhere(nav.state == FREE)
        if len(free):
            sj, si = free[rng.integers(len(free))]
            yield nav, (int(si), int(sj))


def full_solve(nav, start):
    planner = MultiGoalPlanner(nav)
    planner.solve(start, math.inf)
    return planner


def counting_solves(planner):
    """Record the limit of every solve the planner runs."""
    limits, solve = [], planner.solve

    def counted(start, limit):
        limits.append(limit)
        solve(start, limit)
    planner.solve = counted
    return limits


class TestGreedyPick:
    def test_reachable_matches_finite_full_solve(self):
        rng = np.random.default_rng(24)
        checked = 0
        for nav, start in oracle_grids(rng, 160):
            every = [(i, j) for j in range(nav.spec.height) for i in range(nav.spec.width)]
            reach = MultiGoalPlanner(nav).reachable(start, every)
            finite = np.isfinite(full_solve(nav, start)._dist)
            free = nav.free_mask().ravel()
            assert np.array_equal(reach[free], finite[free])
            assert not reach[~free].any()
            checked += 1
        assert checked > 150

    def test_bounded_solve_settles_as_the_full_solve(self):
        rng = np.random.default_rng(25)
        for nav, start in oracle_grids(rng, 120):
            full = full_solve(nav, start)
            dists = np.unique(full._dist[np.isfinite(full._dist)])
            limits = list(rng.uniform(0.0, dists[-1] + 1.0, size=3))
            limits += list(rng.choice(dists, size=3))  # exactly at a node's distance
            for limit in limits:
                bounded = MultiGoalPlanner(nav)
                bounded.solve(start, float(limit))
                settled = np.isfinite(bounded._dist)
                assert np.array_equal(settled, full._dist <= limit)
                assert np.array_equal(bounded._dist[settled], full._dist[settled])
                assert np.array_equal(bounded._pred[settled], full._pred[settled])

    def test_nearest_matches_full_solve_and_oracle(self):
        rng = np.random.default_rng(26)
        picked = 0
        for nav, start in oracle_grids(rng, 160):
            free = [(int(i), int(j)) for j, i in np.argwhere(nav.state == FREE)]
            goals = [free[k] for k in rng.permutation(len(free))[:int(rng.integers(1, 12))]]
            if rng.random() < 0.3:
                goals.insert(int(rng.integers(len(goals) + 1)), start)
            planner = MultiGoalPlanner(nav)
            reach = planner.reachable(start, goals)
            goals = [g for g, ok in zip(goals, reach) if ok]
            if not goals:
                continue
            k = planner.nearest(start, goals)
            full = full_solve(nav, start)
            rho, j, i = min((full.distance_to(g), g[1], g[0]) for g in goals)
            assert goals[k] == (i, j)
            assert planner.distance_to((i, j)) == rho
            assert planner.path_to((i, j)).cells == full.path_to((i, j)).cells
            card, diag = dijkstra_oracle(nav, start, (i, j))
            assert rho == pytest.approx(nav.spec.resolution * (card + diag * SQRT2), abs=1e-9)
            picked += 1
        assert picked > 100

    def test_nearest_grows_the_limit_past_a_wall(self):
        # (5, 0) is 5 cells away as the crow flies but 13 around the wall;
        # (0, 9) is 9 away in a straight line, so the first limit settles neither.
        nav = free_grid(7, 10)
        nav.state[0:5, 3] = BLOCKED
        planner = MultiGoalPlanner(nav)
        limits = counting_solves(planner)
        goals = [(5, 0), (0, 9)]
        assert planner.nearest((0, 0), goals) == 1
        assert planner.distance_to((0, 9)) == pytest.approx(0.05 * 9)
        assert len(limits) > 1 and limits[0] < 9 <= limits[-1]

    def test_nearest_breaks_ties_by_row_then_column(self):
        nav = free_grid(9, 9)
        start = (4, 4)
        # All four at 2 cells; the goals' list order is the reverse of the tie-break's.
        goals = [(6, 4), (4, 6), (2, 4), (4, 2)]
        assert MultiGoalPlanner(nav).nearest(start, goals) == 3
        assert MultiGoalPlanner(nav).nearest(start, goals[:3]) == 2
        assert MultiGoalPlanner(nav).nearest(start, [(6, 6), (2, 6)]) == 1

    def test_nearest_solves_once_when_a_path_meets_its_octile_bound(self):
        # Open ground: the least octile bound is a path's exact length.
        nav = free_grid(20, 20)
        for goals in ([(15, 3)], [(17, 17), (3, 12)], [(8, 8), (8, 0)]):
            planner = MultiGoalPlanner(nav)
            limits = counting_solves(planner)
            planner.nearest((8, 4), goals)
            assert len(limits) == 1, goals

    def test_winner_on_the_limit_waits_for_a_rounding_tie(self, monkeypatch):
        # (3, 4) and (4, 3) both cost 1 + 3 sqrt(2), summed in orders that
        # differ by one ulp, and meet as one rho in meters: (4, 3) wins on its row.
        nav = free_grid(5, 5, res=0.1)
        for i, j in ((1, 0), (3, 0), (3, 2)):
            nav.state[j, i] = BLOCKED
        full = full_solve(nav, (0, 0))
        a, b = full._dist[4 * 5 + 3], full._dist[3 * 5 + 4]
        assert a < b and a * 0.1 == b * 0.1
        # A first limit exactly at (3, 4)'s distance settles it and not (4, 3).
        monkeypatch.setattr(planner_module, "BOUND_SLACK", a - octile((0, 0), (3, 4)))
        planner = MultiGoalPlanner(nav)
        limits = counting_solves(planner)
        assert planner.nearest((0, 0), [(3, 4), (4, 3)]) == 1
        assert limits[0] == a and len(limits) == 2

    def test_nearest_picks_the_start_when_it_is_a_goal(self):
        nav = free_grid(5, 5)
        planner = MultiGoalPlanner(nav)
        assert planner.nearest((2, 2), [(4, 4), (2, 2)]) == 1
        assert planner.path_to((2, 2)).cells == [(2, 2)]

    def test_nearest_without_a_reachable_goal_raises(self):
        nav = free_grid(6, 6)
        nav.state[:, 2] = BLOCKED
        with pytest.raises(NoPathError, match="no goal reachable"):
            MultiGoalPlanner(nav).nearest((0, 0), [(4, 4), (5, 0)])

    def test_unsettled_goal_named_as_beyond_the_limit(self):
        nav = free_grid(10, 1)
        planner = MultiGoalPlanner(nav)
        planner.solve((0, 0), 3.0)
        assert planner.distance_to((3, 0)) == pytest.approx(0.15)
        with pytest.raises(NoPathError, match="not settled within limit 3 cells"):
            planner.distance_to((4, 0))
        nav.state[0, 5] = BLOCKED
        cut = MultiGoalPlanner(nav)
        cut.solve((0, 0), math.inf)
        with pytest.raises(NoPathError, match="unreachable"):
            cut.distance_to((8, 0))


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
            fast.solve((int(si), int(sj)), math.inf)
            slow = MultiGoalPlanner(nav)
            slow._graph = ref
            slow.solve((int(si), int(sj)), math.inf)
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
