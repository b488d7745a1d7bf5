import math
from collections import Counter

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy import ndimage
from scipy.sparse.csgraph import connected_components, dijkstra

import fitslam
from fitslam.grid import (BLOCKED, BinaryTraversabilityGrid, FREE, GridSpec, OutOfBoundsError,
                          UNKNOWN, shift)
from fitslam import harness, planner as planner_module
from fitslam.planner import (
    GraphMemo,
    MultiGoalPlanner,
    NoPathError,
    SQRT2,
    octile,
    plan,
    sample_waypoints,
)
from fitslam.simworld import WorldConfig
from fitslam.utility import UtilityParams, compute_u1, shortlist
import test_edge_worlds as edge
from oracles import (build_graph, dijkstra_oracle, linear_array, path_cells, path_length,
                     sample_waypoints_loop)


def free_grid(w, h, res=0.05):
    spec = GridSpec(res, w, h)
    state = np.full((h, w), FREE, dtype=np.int8)
    return BinaryTraversabilityGrid(spec, state)


def new_planner(nav):
    """A planner on a fresh memo, which builds the graph of the whole grid."""
    return MultiGoalPlanner(nav, GraphMemo(nav.spec))


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


def path_counts(path, spec):
    card = diag = 0
    cells = path_cells(path, spec)
    for a, b in zip(cells, cells[1:]):
        if a[0] != b[0] and a[1] != b[1]:
            diag += 1
        else:
            card += 1
    return card, diag


class TestPlan:
    def test_start_equals_goal(self):
        nav = free_grid(5, 5)
        path = plan(nav, (2, 2), (2, 2))
        assert path.tolist() == linear_array([(2, 2)], nav.spec).tolist()
        assert path_length(path, nav.spec) == 0.0

    def test_straight_corridor_length(self):
        nav = free_grid(10, 10, res=0.05)
        path = plan(nav, (0, 0), (0, 9))
        assert path.tolist() == linear_array([(0, j) for j in range(10)], nav.spec).tolist()
        assert path_length(path, nav.spec) == pytest.approx(0.45)

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
        assert path.tolist() == linear_array([(0, 0), (1, 1)], nav.spec).tolist()

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
        cells = path_cells(path, nav.spec)
        for a, b in zip(cells, cells[1:]):
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
            card, diag = path_counts(path, nav.spec)
            assert (card, diag) == oracle or (
                card + diag * SQRT2 == pytest.approx(
                    oracle[0] + oracle[1] * SQRT2, abs=1e-9))
            assert path_length(path, nav.spec) == pytest.approx(
                nav.spec.resolution * (oracle[0] + oracle[1] * SQRT2), abs=1e-9)


class TestMultiGoalPlanner:
    def test_costs_match_single_goal_planner(self):
        rng = np.random.default_rng(8)
        nav = free_grid(18, 18, res=0.1)
        nav.state[rng.random((18, 18)) < 0.2] = BLOCKED
        nav.state[0, 0] = FREE
        mgp = new_planner(nav)
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
            single_m = path_length(single, nav.spec)
            assert mgp.distance_to(goal) == pytest.approx(single_m, abs=1e-9)
            batched = mgp.path_to(goal)
            assert path_length(batched, nav.spec) == pytest.approx(single_m, abs=1e-9)
            cells = path_cells(batched, nav.spec)
            assert cells[0] == (0, 0) and cells[-1] == goal

    def test_solve_required_before_queries(self):
        nav = free_grid(4, 4)
        mgp = new_planner(nav)
        with pytest.raises(AssertionError):
            mgp.distance_to((1, 1))

    def test_blocked_goal_raises(self):
        nav = free_grid(4, 4)
        nav.state[2, 2] = BLOCKED
        mgp = new_planner(nav)
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
    planner = new_planner(nav)
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
            reach = new_planner(nav).reachable(start, linear_array(every, nav.spec))
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
                bounded = new_planner(nav)
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
            planner = new_planner(nav)
            reach = planner.reachable(start, linear_array(goals, nav.spec))
            goals = [g for g, ok in zip(goals, reach) if ok]
            if not goals:
                continue
            k = planner.nearest(start, linear_array(goals, nav.spec))
            full = full_solve(nav, start)
            rho, j, i = min((full.distance_to(g), g[1], g[0]) for g in goals)
            assert goals[k] == (i, j)
            assert planner.distance_to((i, j)) == rho
            assert planner.path_to((i, j)).tolist() == full.path_to((i, j)).tolist()
            card, diag = dijkstra_oracle(nav, start, (i, j))
            assert rho == pytest.approx(nav.spec.resolution * (card + diag * SQRT2), abs=1e-9)
            picked += 1
        assert picked > 100

    def test_nearest_grows_the_limit_past_a_wall(self):
        # (5, 0) is 5 cells away as the crow flies but 13 around the wall;
        # (0, 9) is 9 away in a straight line, so the first limit settles neither.
        nav = free_grid(7, 10)
        nav.state[0:5, 3] = BLOCKED
        planner = new_planner(nav)
        limits = counting_solves(planner)
        goals = linear_array([(5, 0), (0, 9)], nav.spec)
        assert planner.nearest((0, 0), goals) == 1
        assert planner.distance_to((0, 9)) == pytest.approx(0.05 * 9)
        assert len(limits) > 1 and limits[0] < 9 <= limits[-1]

    def test_nearest_breaks_ties_by_row_then_column(self):
        nav = free_grid(9, 9)
        start = (4, 4)
        # All four at 2 cells; the goals' list order is the reverse of the tie-break's.
        goals = linear_array([(6, 4), (4, 6), (2, 4), (4, 2)], nav.spec)
        assert new_planner(nav).nearest(start, goals) == 3
        assert new_planner(nav).nearest(start, goals[:3]) == 2
        assert new_planner(nav).nearest(start, linear_array([(6, 6), (2, 6)], nav.spec)) == 1

    def test_nearest_solves_once_when_a_path_meets_its_octile_bound(self):
        # Open ground: the least octile bound is a path's exact length.
        nav = free_grid(20, 20)
        for goals in ([(15, 3)], [(17, 17), (3, 12)], [(8, 8), (8, 0)]):
            planner = new_planner(nav)
            limits = counting_solves(planner)
            planner.nearest((8, 4), linear_array(goals, nav.spec))
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
        planner = new_planner(nav)
        limits = counting_solves(planner)
        assert planner.nearest((0, 0), linear_array([(3, 4), (4, 3)], nav.spec)) == 1
        assert limits[0] == a and len(limits) == 2

    def test_nearest_picks_the_start_when_it_is_a_goal(self):
        nav = free_grid(5, 5)
        planner = new_planner(nav)
        assert planner.nearest((2, 2), linear_array([(4, 4), (2, 2)], nav.spec)) == 1
        assert planner.path_to((2, 2)).tolist() == linear_array([(2, 2)], nav.spec).tolist()

    def test_nearest_without_a_reachable_goal_raises(self):
        nav = free_grid(6, 6)
        nav.state[:, 2] = BLOCKED
        with pytest.raises(NoPathError, match="no goal reachable"):
            new_planner(nav).nearest((0, 0), linear_array([(4, 4), (5, 0)], nav.spec))

    def test_unsettled_goal_named_as_beyond_the_limit(self):
        nav = free_grid(10, 1)
        planner = new_planner(nav)
        planner.solve((0, 0), 3.0)
        assert planner.distance_to((3, 0)) == pytest.approx(0.15)
        with pytest.raises(NoPathError, match="not settled within limit 3 cells"):
            planner.distance_to((4, 0))
        nav.state[0, 5] = BLOCKED
        cut = new_planner(nav)
        cut.solve((0, 0), math.inf)
        with pytest.raises(NoPathError, match="unreachable"):
            cut.distance_to((8, 0))


def fit_settle(nav, start, goals, gain, params):
    """Fit's bounded settle on a fresh planner against the full solve: the settled
    rho and u1, the shortlist, the settled mask and the limit of every solve."""
    planner = new_planner(nav)
    limits = counting_solves(planner)
    rho = harness._shortlist_rho(planner, start, goals, gain, params)
    res = nav.spec.resolution
    ref_rho = full_solve(nav, start).distances(goals)
    ref_u1 = compute_u1(ref_rho, gain, params, res)
    ref_short = shortlist(ref_u1, ref_rho, goals, params.shortlist_n)
    settled = np.isfinite(rho)
    u1 = compute_u1(rho, gain, params, res)
    assert np.array_equal(rho[settled], ref_rho[settled])
    assert np.array_equal(u1[settled], ref_u1[settled])
    assert shortlist(u1, rho, goals, params.shortlist_n).tolist() == ref_short.tolist()
    assert settled[ref_short].all()
    # Every cell left unsettled lies past the last limit.
    assert (ref_rho[~settled] >= limits[-1] * res).all()
    return ref_u1, ref_short, settled, limits


class TestFitSettle:
    """`harness._shortlist_rho`, fit's bounded settle, against a full solve."""

    GAINS = {
        "ties": lambda rng, n: rng.integers(0, 3, size=n).astype(float),
        "zero": lambda rng, n: np.zeros(n),
        "spread": lambda rng, n: rng.uniform(0.0, 50.0, size=n),
    }

    def test_shortlist_matches_full_solve(self):
        # Every alpha of criterion 8's range with gains that tie, all zero and
        # spread; shortlist_n past the candidate count in about one case in four.
        rng = np.random.default_rng(32)
        cases = partial = tied = longer = 0
        for alpha in (0.0, 0.35, 1.0):
            for kind in ("ties", "zero", "spread"):
                for nav, start in oracle_grids(rng, 40):
                    free = np.argwhere(nav.state == FREE)
                    every = linear_array([(int(i), int(j)) for j, i in free], nav.spec)
                    reachable = every[new_planner(nav).reachable(start, every)]
                    goals = rng.permutation(reachable)[:int(rng.integers(1, 40))]
                    n = int(rng.integers(1, 4 * len(goals) // 3 + 2))
                    gain = self.GAINS[kind](rng, len(goals))
                    ref_u1, ref_short, settled, _ = fit_settle(
                        nav, start, goals, gain, UtilityParams(alpha=alpha, shortlist_n=n))
                    cases += 1
                    partial += not settled.all()
                    rest = np.setdiff1d(np.arange(len(goals)), ref_short)
                    tied += bool(rest.size) and ref_u1[ref_short[-1]] in ref_u1[rest]
                    longer += n > len(goals)
        assert cases == 360 and partial > 60 and tied > 40 and longer > 40, \
            (cases, partial, tied, longer)

    def test_far_goal_of_high_gain_is_waited_for(self):
        # The near goals are cheaper, but the far one's gain could still put it
        # on a shortlist of one, so the first limit already reaches it.
        nav = free_grid(30, 3)
        goals = linear_array([(2, 1), (3, 1), (29, 1)], nav.spec)
        _, ref_short, settled, limits = fit_settle(
            nav, (0, 1), goals, np.array([0.0, 0.0, 10.0]), UtilityParams(shortlist_n=1))
        assert ref_short.tolist() == [2] and settled[2] and limits[0] >= 29

    def test_limit_grows_past_a_wall(self):
        # Straight paths would settle (5, 0) at 5 cells, but it is 13 around the
        # wall; (0, 9) is 9 away. On distance alone neither settles at 5 or 8.5.
        nav = free_grid(7, 10)
        nav.state[0:5, 3] = BLOCKED
        goals = linear_array([(5, 0), (0, 9)], nav.spec)
        _, ref_short, settled, limits = fit_settle(nav, (0, 0), goals, np.zeros(2),
                                                   UtilityParams(alpha=1.0, shortlist_n=1))
        assert ref_short.tolist() == [1] and settled[1]
        assert len(limits) > 1 and limits[0] < 9 <= limits[-1]

    def test_nearest_goal_alone_of_any_gain_settles_once(self):
        # A shortlist of one where distance alone decides: the first limit, at
        # the nearest goal's octile distance, already fixes it.
        nav = free_grid(30, 3)
        goals = linear_array([(29, 1), (2, 1)], nav.spec)
        _, ref_short, settled, limits = fit_settle(nav, (0, 1), goals, np.array([5.0, 0.0]),
                                                   UtilityParams(alpha=1.0, shortlist_n=1))
        assert ref_short.tolist() == [1] and not settled[0] and len(limits) == 1

    def test_shortlist_waits_for_a_rounding_tie(self, monkeypatch):
        # As in `test_winner_on_the_limit_waits_for_a_rounding_tie`: (3, 4) and
        # (4, 3) meet as one rho in meters though (4, 3)'s cost is one ulp more.
        # A first limit exactly at (3, 4)'s settles it alone; with equal gains its
        # u1 equals (4, 3)'s bound, and (4, 3) wins the tie on its row, so the
        # bound must be beaten strictly.
        nav = free_grid(5, 5, res=0.1)
        for i, j in ((1, 0), (3, 0), (3, 2)):
            nav.state[j, i] = BLOCKED
        a = full_solve(nav, (0, 0))._dist[4 * 5 + 3]
        monkeypatch.setattr(planner_module, "BOUND_SLACK", a - octile((0, 0), (3, 4)))
        goals = linear_array([(3, 4), (4, 3)], nav.spec)
        for alpha in (0.35, 1.0):
            _, ref_short, settled, limits = fit_settle(nav, (0, 0), goals, np.ones(2),
                                                       UtilityParams(alpha=alpha, shortlist_n=1))
            assert ref_short.tolist() == [1] and settled.all()
            assert limits[0] == a and len(limits) == 2


class TestBuildGraph:
    def test_matches_coo_reference(self):
        # Both directions of the reference's one-way edges, 8 slots a row, and
        # solves that match dijkstra(directed=False) on the reference bit for bit.
        rng = np.random.default_rng(17)
        shapes = [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (2, 2)]
        shapes += [tuple(int(v) for v in rng.integers(1, 41, size=2)) for _ in range(60)]
        for w, h in shapes:
            nav = free_grid(w, h)
            p_free, p_blocked = rng.dirichlet([2.0, 1.0, 1.0])[:2]
            u = rng.random((h, w))
            nav.state[u >= p_free] = BLOCKED
            nav.state[u >= p_free + p_blocked] = UNKNOWN
            fast = new_planner(nav)
            ref = coo_graph(nav)
            n = w * h
            graph = fast._graph
            for attr in ("indptr", "indices", "data"):  # the dtypes scipy takes uncopied
                assert getattr(graph, attr).dtype == getattr(ref, attr).dtype, (w, h, attr)
            assert np.array_equal(graph.indptr, np.arange(0, 8 * n + 1, 8)), (w, h)
            rows = np.repeat(np.arange(n), 8)
            arc = graph.indices != rows
            arcs = coo_matrix((graph.data[arc], (rows[arc], graph.indices[arc])),
                              shape=(n, n)).tocsr()
            both = (ref + ref.T).tocsr()
            arcs.sort_indices()
            both.sort_indices()
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(arcs, attr), getattr(both, attr)), (w, h, attr)
            free = np.argwhere(nav.state == FREE)
            if not len(free):
                continue
            sj, si = free[rng.integers(len(free))]
            for limit in (math.inf, *rng.uniform(0.0, w + h, size=2)):
                fast.solve((int(si), int(sj)), float(limit))
                dist, pred = dijkstra(ref, directed=False, indices=int(sj) * w + int(si),
                                      return_predecessors=True, limit=float(limit))
                assert np.array_equal(fast._dist, dist), (w, h, limit)
                assert np.array_equal(fast._pred, pred), (w, h, limit)

    def test_row_lists_steps_then_reverses_in_column_order(self):
        # The one-way graph's row, then its transpose's row: each in ascending columns.
        nav = free_grid(5, 4)
        v, w = 2 * 5 + 2, 5
        row = new_planner(nav)._graph.indices[8 * v:8 * v + 8]
        assert list(row) == [v - w + 1, v + 1, v + w, v + w + 1,
                             v - w - 1, v - w, v - 1, v + w - 1]

    def test_reachable_matches_component_labels(self):
        rng = np.random.default_rng(19)
        isolated = 0
        for nav, start in oracle_grids(rng, 160):
            w, h = nav.spec.width, nav.spec.height
            # Unknown cells, like Blocked ones, are goals no path reaches.
            nav.state[(nav.state == BLOCKED) & (rng.random((h, w)) < 0.3)] = UNKNOWN
            every = [(i, j) for j in range(h) for i in range(w)]
            _, labels = connected_components(coo_graph(nav), directed=False)
            src = start[1] * w + start[0]
            reach = new_planner(nav).reachable(start, linear_array(every, nav.spec))
            assert np.array_equal(reach, labels == labels[src])
            # No corner cutting: a diagonal move needs a Free cardinal between
            # its ends, so the components are the Free mask's 4-connected ones.
            labels4 = ndimage.label(nav.free_mask())[0].ravel()
            assert np.array_equal(reach, labels4 == labels4[src])
            isolated += (labels == labels[src]).sum() == 1
        assert isolated > 5  # starts that closed corners cut off on every side


def run_masks(rng):
    """Free masks for the row-run search, by kind in turn: random clutter, checkerboards
    whose runs meet only at corners, and a Blocked prefix of the row-major order, so
    that goals lie below the first run's start. The first shapes are a single cell,
    a single row and a single column."""
    shapes = [(1, 1), (1, 1), (1, 12), (12, 1), (1, 7), (7, 1)]
    shapes += [tuple(int(v) for v in rng.integers(1, 25, size=2)) for _ in range(150)]
    for trial, (h, w) in enumerate(shapes):
        kind = trial % 3
        jj, ii = np.mgrid[:h, :w]
        if kind == 1:
            free = (ii + jj) % 2 == 0
            free |= rng.random((h, w)) < rng.uniform(0.0, 0.2)
        else:
            free = rng.random((h, w)) >= rng.uniform(0.0, 0.5)
            if kind == 2:
                free.ravel()[:int(rng.integers(1, h * w + 1))] = False
        yield free


class TestReachableRuns:
    """`reachable` answers from the Free mask's row runs; the reference is the mask's
    4-connected labels, which are the planner graph's components."""

    def test_matches_four_connected_labels(self):
        rng = np.random.default_rng(38)
        seen = Counter()
        for free in run_masks(rng):
            h, w = free.shape
            nav = free_grid(w, h)
            nav.state[~free] = BLOCKED
            nav.state[~free & (rng.random((h, w)) < 0.3)] = UNKNOWN
            labels = ndimage.label(free)[0].ravel()
            flat = free.ravel()
            cells = np.flatnonzero(flat)
            if not cells.size:
                with pytest.raises(NoPathError):
                    new_planner(nav).reachable((0, 0), np.arange(h * w))
                seen["no Free cell"] += 1
                continue
            # A start run on each edge of the grid that has a Free cell, and one anywhere.
            index = np.arange(h * w).reshape(h, w)
            starts = [int(cells[rng.integers(cells.size)])]
            for edge, line in (("top", index[0]), ("bottom", index[-1]),
                               ("left", index[:, 0]), ("right", index[:, -1])):
                on_edge = line[flat[line]]
                if on_edge.size:
                    starts.append(int(on_edge[rng.integers(on_edge.size)]))
                    seen[f"start on the {edge} edge"] += 1
            every = index.ravel()
            for src in starts:
                planner = new_planner(nav)
                start = (int(src % w), int(src // w))
                for goals in (every, rng.integers(h * w, size=int(rng.integers(1, 9))),
                              np.array([], dtype=np.int64)):
                    reach = planner.reachable(start, goals)
                    assert reach.dtype == bool and reach.shape == goals.shape
                    assert np.array_equal(reach, labels[goals] == labels[src]), (h, w, src)
                seen["empty goal array"] += 1
            # The cases the search must get right, each met by the masks above.
            row_gap = ~free[:, 1:-1] & free[:, :-2] & free[:, 2:]
            seen["goal between two runs of one row"] += bool(row_gap.any())
            seen["goal below the first run's start"] += bool(cells[0] > 0)
            seen["goal that is not Free"] += bool((~flat).any())
            corner = (free[:-1, :-1] & free[1:, 1:] & ~free[:-1, 1:] & ~free[1:, :-1])
            corner |= free[:-1, 1:] & free[1:, :-1] & ~free[:-1, :-1] & ~free[1:, 1:]
            seen["runs that touch only at a corner"] += bool(corner.any())
            seen[f"{h} x {w}" if 1 in (h, w) else "grid"] += 1
            blocked = np.flatnonzero(~flat)
            if blocked.size:
                k = int(blocked[rng.integers(blocked.size)])
                with pytest.raises(NoPathError):
                    new_planner(nav).reachable((k % w, k // w), every)
                seen["start that is not Free"] += 1
        for case in ("start on the top edge", "start on the bottom edge",
                     "start on the left edge", "start on the right edge",
                     "goal between two runs of one row", "goal below the first run's start",
                     "goal that is not Free", "runs that touch only at a corner",
                     "start that is not Free", "empty goal array"):
            assert seen[case] > 5, (case, seen)
        assert seen["1 x 1"] and seen["1 x 12"] and seen["12 x 1"] and seen["no Free cell"], seen

    def test_goal_below_the_first_run_cannot_wrap_to_the_last(self):
        # The first Free cell is (2, 0), and the last run holds the start, so a goal
        # at index 0 or 1 whose run lookup fell to -1 would read the last run.
        nav = free_grid(4, 3)
        nav.state[0, :2] = BLOCKED
        reach = new_planner(nav).reachable((3, 2), np.array([0, 1, 2, 11]))
        assert reach.tolist() == [False, False, True, True]


class TestGraphMemo:
    """`MultiGoalPlanner` patches the memo's graph where the Free mask changed; the
    patched graph is the full build of the same grid."""

    def assert_full_build(self, nav, memo):
        graph = MultiGoalPlanner(nav, memo)._graph
        ref = build_graph(nav)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(graph, attr), getattr(ref, attr)), attr
        assert np.shares_memory(graph.indices, memo.cols)  # patched in place
        assert np.array_equal(memo.free, nav.free_mask())

    @staticmethod
    def step(rng, state, kind):
        """Change `state` in place by one kind of step, as decisions change a map."""
        h, w = state.shape
        if kind == "box":  # a patch of cells set to random states
            j0, i0 = int(rng.integers(h)), int(rng.integers(w))
            box = state[j0:j0 + int(rng.integers(1, 5)), i0:i0 + int(rng.integers(1, 5))]
            box[...] = rng.choice([FREE, BLOCKED, UNKNOWN], size=box.shape)
        elif kind == "flip":  # one cell, on an edge or a corner as often as not
            j = int(rng.choice([0, h - 1, rng.integers(h)]))
            i = int(rng.choice([0, w - 1, rng.integers(w)]))
            state[j, i] = FREE if state[j, i] != FREE else rng.choice([BLOCKED, UNKNOWN])
        elif kind == "robot":  # only the robot's cell, Free whatever its score
            shut = np.argwhere(state != FREE)
            if len(shut):
                state[tuple(shut[rng.integers(len(shut))])] = FREE
        elif kind == "grid":
            state[...] = rng.choice([FREE, BLOCKED, UNKNOWN], size=state.shape, p=[0.6, 0.3, 0.1])
        # "same": no change

    def test_patches_match_full_builds_over_mask_sequences(self):
        rng = np.random.default_rng(35)
        shapes = [(1, 1), (1, 7), (7, 1), (2, 2), (1, 30), (30, 1)]
        shapes += [tuple(int(v) for v in rng.integers(1, 25, size=2)) for _ in range(30)]
        kinds = ("box", "flip", "robot", "same", "grid")
        lost = gained = 0
        for w, h in shapes:
            nav = free_grid(w, h)
            nav.state[rng.random((h, w)) < 0.3] = BLOCKED
            memo = GraphMemo(nav.spec)
            for n in range(16):
                before = nav.free_mask()
                self.step(rng, nav.state, kinds[int(rng.integers(len(kinds)))] if n else "same")
                after = nav.free_mask()
                lost += (before & ~after).sum()
                gained += (after & ~before).sum()
                self.assert_full_build(nav, memo)
        assert lost > 100 and gained > 100

    def test_flips_of_edge_and_corner_cells(self):
        # Every cell of a grid flipped alone, each way, and back: the patch box
        # clipped at every edge and corner.
        for w, h in ((1, 1), (1, 5), (5, 1), (4, 3)):
            nav = free_grid(w, h)
            memo = GraphMemo(nav.spec)
            self.assert_full_build(nav, memo)
            for j in range(h):
                for i in range(w):
                    for value in (BLOCKED, FREE):
                        nav.state[j, i] = value
                        self.assert_full_build(nav, memo)

    def test_free_region_that_moves_away(self):
        # All that was Free goes Blocked while a far corner opens: the cells
        # that left the Free mask lie outside the box of the Free cells now.
        nav = free_grid(12, 9)
        nav.state[...] = BLOCKED
        memo = GraphMemo(nav.spec)
        nav.state[:3, :4] = FREE
        self.assert_full_build(nav, memo)
        nav.state[:3, :4] = BLOCKED
        nav.state[6:, 8:] = FREE
        self.assert_full_build(nav, memo)

    def test_fresh_memo_is_a_grid_with_nothing_free(self):
        nav = free_grid(6, 5)
        nav.state[...] = BLOCKED
        memo = GraphMemo(nav.spec)
        self.assert_full_build(nav, memo)
        assert np.array_equal(memo.cols, np.repeat(np.arange(30)[:, None], 8, axis=1))

    @pytest.mark.parametrize("w, h", [(5, 4), (5, 5), (4, 6)],
                             ids=["transposed", "wider", "taller"])
    def test_memo_of_another_grid_shape_rejected(self, w, h):
        memo = GraphMemo(GridSpec(0.05, 4, 5))
        with pytest.raises(ValueError, match="graph memo"):
            MultiGoalPlanner(free_grid(w, h), memo)


@pytest.mark.slow
@pytest.mark.parametrize("world", [*fitslam.PRESET_WORLDS, *edge.WORLDS])
def test_kept_graph_is_the_full_build_at_every_decision(world, monkeypatch):
    """At every decision of seed 1 of every strategy, the planner's graph, patched
    on the mission's memo, equals the full build of the same grid. The memo carries
    over from decision to decision, so no solve changed the kept columns either."""
    if world in fitslam.PRESET_WORLDS:
        path, max_time = fitslam.preset_world_path(world), harness.DEFAULT_MAX_MISSION_TIME
    else:
        path, max_time = edge.EDGE_WORLDS / f"{world}.json", edge.MAX_MISSION_TIME
    config = WorldConfig.from_json(path)
    next_goal, checked = harness._next_goal, Counter()

    def spy(state, strategy, rng, planner, *args):
        assert np.array_equal(planner._graph.indices, build_graph(planner.nav).indices)
        checked[strategy] += 1
        return next_goal(state, strategy, rng, planner, *args)

    monkeypatch.setattr(harness, "_next_goal", spy)
    for strategy in harness.STRATEGIES:
        log = harness.run_mission(config, strategy, 1, max_mission_time=max_time)
        assert checked[strategy] >= len(log.goal_sequence), strategy
        # steep_ramp makes no decision: no cell but the robot's is Free.
        assert log.goal_sequence or world == "steep_ramp", strategy


def assert_same_poses(wps, loop):
    """`sample_waypoints`' stack holds the loop's list of pose tuples, bit for bit."""
    assert wps.dtype == np.float64
    assert wps.shape == (len(loop), 3)
    assert wps.tobytes() == np.array(loop, dtype=float).tobytes()


class TestSampleWaypoints:
    def test_single_cell_path(self):
        spec = GridSpec(0.1, 10, 10)
        wps = sample_waypoints(linear_array([(3, 4)], spec), 2.0, spec)
        assert len(wps) == 1
        assert wps[0][:2] == pytest.approx((0.35, 0.45))

    def test_straight_path_spacing(self):
        spec = GridSpec(1.0, 12, 2)
        cells = [(i, 0) for i in range(11)]  # 10 m of cardinal steps
        wps = sample_waypoints(linear_array(cells, spec), 4.0, spec)
        xs = [x for x, _, _ in wps]
        assert xs == pytest.approx([0.5, 4.5, 8.5, 10.5])
        assert all(heading == pytest.approx(0.0) for _, _, heading in wps)

    def test_spacing_larger_than_path(self):
        spec = GridSpec(1.0, 5, 2)
        cells = [(0, 0), (1, 0), (2, 0)]
        wps = sample_waypoints(linear_array(cells, spec), 50.0, spec)
        assert len(wps) == 2
        assert (wps[0][0], wps[-1][0]) == (0.5, 2.5)

    def test_final_heading_repeats_previous(self):
        spec = GridSpec(1.0, 6, 6)
        cells = [(0, 0), (1, 1), (2, 2)]
        wps = sample_waypoints(linear_array(cells, spec), 1.0, spec)
        assert wps[-1][2] == pytest.approx(wps[-2][2])
        assert wps[0][2] == pytest.approx(math.pi / 4)

    def test_bad_spacing_rejected(self):
        spec = GridSpec(1.0, 3, 3)
        with pytest.raises(ValueError):
            sample_waypoints(linear_array([(0, 0)], spec), 0.0, spec)

    @pytest.mark.parametrize("off_grid", ["negative", "n_cells"])
    def test_off_grid_index_rejected(self, off_grid):
        # A negative index would wrap to a cell of the last row in a flat gather.
        spec = GridSpec(1.0, 6, 6)
        bad = -1 if off_grid == "negative" else spec.n_cells
        with pytest.raises(OutOfBoundsError):
            sample_waypoints(np.array([0, 1, bad, 2]), 1.0, spec)

    @pytest.mark.parametrize("cells, spacing", [
        ([(3, 4)], 0.3),                                  # one cell
        ([(0, 0), (1, 0), (2, 0)], 0.5),                  # shorter than the spacing
        ([(i, 2) for i in range(11)], 0.5),               # 2 m, four spacings
        ([(i, 2) for i in range(11)], 0.2),               # a sample on every cell
        ([(i, 2) for i in range(4)], 0.3),                # 0.6 m; 2 * 0.3 falls 1e-16 short
        ([(i, i) for i in range(9)], 0.3),                # a diagonal run
        ([(1, 1), (1, 1), (2, 2), (3, 2), (3, 2)], 0.1),  # repeated cells: zero-length segments
    ], ids=["one_cell", "shorter_than_spacing", "exact_multiple", "spacing_is_a_cell",
            "rounding_short_of_the_end", "diagonal_run", "repeated_cells"])
    def test_matches_per_sample_loop(self, cells, spacing):
        """The per-sample loop's (x, y, heading) poses as one (S, 3) float64 stack,
        bit for bit."""
        spec = GridSpec(0.2, 12, 12)
        path = linear_array(cells, spec)
        assert_same_poses(sample_waypoints(path, spacing, spec),
                          sample_waypoints_loop(path, spacing, spec))

    @pytest.mark.slow
    def test_matches_per_sample_loop_on_every_fit_path(self, monkeypatch):
        """Every path fit scores in seed 1 on each preset samples to the per-sample
        loop's poses, bit for bit."""
        paths = []

        def recorded(path, spacing_m, spec):
            paths.append((path, spacing_m, spec))
            return sample_waypoints(path, spacing_m, spec)

        monkeypatch.setattr(harness, "sample_waypoints", recorded)
        for preset in fitslam.PRESET_WORLDS:
            config = WorldConfig.from_json(fitslam.preset_world_path(preset))
            harness.run_mission(config, "fit", 1)
        assert len(paths) > 500
        for path, spacing_m, spec in paths:
            assert_same_poses(sample_waypoints(path, spacing_m, spec),
                              sample_waypoints_loop(path, spacing_m, spec))
