import gc

import numpy as np
import pytest

from fitslam import harness, preset_world_path
from fitslam.frontier import (
    DEFAULT_MAX_CLUSTER_SIZE,
    cluster_frontiers,
    detect_frontiers,
    frontier_components,
    suppress,
)
from fitslam.grid import (
    BLOCKED,
    BinaryTraversabilityGrid,
    FREE,
    GridSpec,
    OccupancyGrid,
    OutOfBoundsError,
    UNKNOWN,
    UNKNOWN_P,
)
from fitslam.simworld import WorldConfig
from oracles import blacklist_cell, linear, linear_array


def build_grids(w, h, res=0.1):
    spec = GridSpec(res, w, h)
    occ = OccupancyGrid.unknown(spec)
    nav = BinaryTraversabilityGrid(spec, np.full((h, w), UNKNOWN, np.int8))
    return spec, occ, nav


def frontier_oracle(occ, nav):
    """Brute-force per-cell evaluation of the frontier predicate."""
    spec = occ.spec
    out = set()
    for i in range(spec.width):
        for j in range(spec.height):
            if nav.state[j, i] != FREE:
                continue
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if spec.in_bounds(ni, nj) and occ.p[nj, ni] == UNKNOWN_P:
                        out.add((i, j))
    return out


# BFS growth order: E, NE, N, NW, W, SW, S, SE in (di, dj) with i along x.
ORACLE_NEIGHBOR_ORDER = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def halo(cells):
    """Every (i, j) within one cell of a blacklisted cell, off-grid ones too."""
    return {(i + di, j + dj) for i, j in cells for di in (-1, 0, 1) for dj in (-1, 0, 1)}


def cluster_oracle(cells, spec, max_cluster_size, blacklisted):
    """Size-capped clustering by a pure-Python BFS over a byte table.

    Returns every chunk's (i, j) cells and the candidates of the chunks whose
    median cell is not within one cell of a blacklisted cell.
    """
    w, h = spec.width, spec.height
    suppressed = halo(blacklisted)
    remaining = bytearray(spec.n_cells)
    for i, j in cells:
        remaining[j * w + i] = 1
    chunks, candidates = [], []
    for seed in sorted(spec.linear_index(*c) for c in cells):
        if not remaining[seed]:
            continue
        order = [seed]
        remaining[seed] = 0
        head = 0
        while head < len(order):
            lin = order[head]
            head += 1
            i, j = lin % w, lin // w
            for di, dj in ORACLE_NEIGHBOR_ORDER:
                ni, nj = i + di, j + dj
                if 0 <= ni < w and 0 <= nj < h and remaining[nj * w + ni]:
                    remaining[nj * w + ni] = 0
                    order.append(nj * w + ni)
        for k in range(0, len(order), max_cluster_size):
            chunk = [(lin % w, lin // w) for lin in order[k:k + max_cluster_size]]
            chunks.append(chunk)
            candidate = chunk[(len(chunk) - 1) // 2]
            if candidate not in suppressed:
                candidates.append(candidate)
    return chunks, candidates


def components(cells, spec):
    """frontier_components of the (i, j) cells, as lists of (i, j) cells in visit order."""
    w = spec.width
    return [[(int(v % w), int(v // w)) for v in order]
            for order in frontier_components(linear(cells, spec), spec)]


def chunks(cells, spec, cap):
    """Every cluster's cells: the components' visit orders cut every `cap` cells."""
    return [order[k:k + cap] for order in components(cells, spec)
            for k in range(0, len(order), cap)]


def blacklist_of(spec, cells):
    """The blacklist mask that `suppress` makes of the (i, j) cells."""
    mask = np.zeros((spec.height, spec.width), dtype=bool)
    suppress(mask, linear_array(cells, spec))
    return mask


class TestDetectFrontiers:
    def test_fully_known_grid_has_none(self):
        _, occ, nav = build_grids(6, 6)
        occ.p[:] = 0.1
        nav.state[:] = FREE
        assert detect_frontiers(occ, nav) == set()

    def test_fully_unknown_grid_has_none(self):
        _, occ, nav = build_grids(6, 6)
        assert detect_frontiers(occ, nav) == set()

    def test_vertical_split_yields_boundary_column(self):
        spec, occ, nav = build_grids(8, 5)
        occ.p[:, :4] = 0.1   # west half known
        nav.state[:, :4] = FREE
        found = detect_frontiers(occ, nav)
        expected = {(3, j) for j in range(5)}
        assert found == linear(expected, spec)

    def test_matches_brute_force_oracle_on_random_grids(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            spec, occ, nav = build_grids(16, 12)
            occ.p[:] = rng.choice([UNKNOWN_P, 0.1, 0.9], size=occ.p.shape,
                                  p=[0.4, 0.45, 0.15])
            nav.state[:] = rng.choice(
                [UNKNOWN, FREE, BLOCKED], size=nav.state.shape,
                p=[0.3, 0.5, 0.2]).astype(np.int8)
            assert detect_frontiers(occ, nav) == linear(frontier_oracle(occ, nav), spec)

    def test_returns_a_set_of_plain_int_linear_indices(self):
        rng = np.random.default_rng(23)
        shapes = [(1, 1), (1, 17), (17, 1), (2, 2)]
        shapes += [tuple(int(v) for v in rng.integers(1, 25, size=2)) for _ in range(40)]
        on_border = 0
        for w, h in shapes:
            spec, occ, nav = build_grids(w, h)
            occ.p[:] = rng.choice([UNKNOWN_P, 0.1], size=occ.p.shape)
            nav.state[:] = rng.choice([UNKNOWN, FREE, BLOCKED], size=nav.state.shape,
                                      p=[0.2, 0.6, 0.2]).astype(np.int8)
            nav.state[[0, -1], :] = nav.state[:, [0, -1]] = FREE  # the border is Free
            found = detect_frontiers(occ, nav)
            assert type(found) is set
            for cell in found:
                assert type(cell) is int  # not a tuple, not a numpy scalar
                assert not gc.is_tracked(cell)
            want = frontier_oracle(occ, nav)
            assert found == linear(want, spec), (w, h)
            on_border += sum(i in (0, w - 1) or j in (0, h - 1) for i, j in want)
        assert on_border > 0

    def test_mismatched_specs_rejected(self):
        _, occ, _ = build_grids(6, 6)
        _, _, other = build_grids(5, 6)
        with pytest.raises(ValueError):
            detect_frontiers(occ, other)


class TestClusterFrontiers:
    def test_five_collinear_cells_single_cluster(self):
        spec = GridSpec(0.1, 10, 10)
        cells = {(i, 4) for i in range(2, 7)}
        assert (cluster_frontiers(linear(cells, spec), spec, blacklist_of(spec, [])).tolist()
                == linear_array([(4, 4)], spec).tolist())  # 3rd of 5

    def test_blacklisted_candidate_dropped(self):
        spec = GridSpec(0.1, 10, 10)
        bl = blacklist_of(spec, [(3, 3)])
        assert cluster_frontiers(linear({(3, 3)}, spec), spec, bl).tolist() == []

    def test_blacklist_suppresses_adjacent_cell(self):
        spec = GridSpec(0.1, 10, 10)
        bl = blacklist_of(spec, [(3, 3)])
        assert cluster_frontiers(linear({(4, 4)}, spec), spec, bl).tolist() == []
        assert len(cluster_frontiers(linear({(5, 3)}, spec), spec, bl)) == 1

    def test_blacklist_of_another_grid_rejected(self):
        spec = GridSpec(0.1, 10, 10)
        with pytest.raises(ValueError):
            cluster_frontiers(linear({(3, 3)}, spec), spec, np.zeros((9, 10), dtype=bool))

    @pytest.mark.parametrize("w, h", [(1, 1), (1, 9), (9, 1), (10, 10)])
    def test_empty_frontier_has_no_components(self, w, h):
        spec = GridSpec(0.1, w, h)
        assert frontier_components(set(), spec) == []
        assert cluster_frontiers(set(), spec, blacklist_of(spec, [])).tolist() == []

    def test_components_partition_matches_connectivity(self):
        rng = np.random.default_rng(33)
        spec = GridSpec(0.1, 20, 20)
        cells = {(int(i), int(j))
                 for i, j in rng.integers(0, 20, size=(120, 2))}
        clusters = components(cells, spec)
        covered = [c for cl in clusters for c in cl]
        assert sorted(covered) == sorted(cells)  # partition, no duplicates
        for cl in clusters:
            group = set(cl)
            # every non-seed cell touches an earlier cell of the same cluster
            for idx, (i, j) in enumerate(cl[1:], start=1):
                earlier = set(cl[:idx])
                assert any((i + di, j + dj) in earlier
                           for di in (-1, 0, 1) for dj in (-1, 0, 1)
                           if (di, dj) != (0, 0))
            # and no cell of another cluster is 8-adjacent to this group
            for other in clusters:
                if other is cl:
                    continue
                for (i, j) in other:
                    assert not any((i + di, j + dj) in group
                                   for di in (-1, 0, 1) for dj in (-1, 0, 1))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        spec = GridSpec(0.1, 30, 30)
        cells = linear({(int(i), int(j)) for i, j in rng.integers(0, 30, size=(200, 2))}, spec)
        a = frontier_components(set(cells), spec)
        b = frontier_components(set(cells), spec)
        assert [c.tolist() for c in a] == [c.tolist() for c in b]
        assert (cluster_frontiers(set(cells), spec, blacklist_of(spec, [])).tolist()
                == cluster_frontiers(set(cells), spec, blacklist_of(spec, [])).tolist())

    def test_chunks_preserve_component_visit_order(self):
        assert DEFAULT_MAX_CLUSTER_SIZE == 30
        spec = GridSpec(0.1, 70, 10)
        cells = {(i, 0) for i in range(68)}
        assert components(cells, spec) == [[(i, 0) for i in range(68)]]
        assert [len(c) for c in chunks(cells, spec, 30)] == [30, 30, 8]
        # chunks [0..29], [30..59], [60..67] of the visit order, medians 14, 44, 63
        assert (cluster_frontiers(linear(cells, spec), spec, blacklist_of(spec, [])).tolist()
                == linear_array([(14, 0), (44, 0), (63, 0)], spec).tolist())

    @pytest.mark.parametrize("n", [1, 29, 30, 31, 32, 59, 60, 61, 62, 89, 90, 91, 92, 150])
    def test_components_spanning_chunks_match_oracle(self, n):
        # Two components: a row of n cells, whose last chunk holds the odd or even
        # remainder of n over 30, and a filled 9 x 7 block, whose breadth-first
        # order turns corners, in chunks of 30, 30 and 3.
        spec = GridSpec(0.1, 160, 12)
        cells = {(i, 0) for i in range(n)} | {(i, j) for i in range(20, 29) for j in range(3, 10)}
        want_chunks, want_candidates = cluster_oracle(cells, spec, 30, [])
        assert chunks(cells, spec, 30) == want_chunks
        assert [len(c) for c in want_chunks] == \
            [30] * (n // 30) + [n % 30] * (n % 30 > 0) + [30, 30, 3]
        assert (cluster_frontiers(linear(cells, spec), spec, blacklist_of(spec, [])).tolist()
                == linear_array(want_candidates, spec).tolist())
        blacklisted = want_candidates[::2]
        assert (cluster_frontiers(linear(cells, spec), spec, blacklist_of(spec, blacklisted))
                .tolist() == linear_array(cluster_oracle(cells, spec, 30, blacklisted)[1],
                                          spec).tolist())

    def test_matches_python_bfs_oracle(self):
        rng = np.random.default_rng(2024)
        shapes = [(1, 1), (1, 60), (60, 1), (2, 2), (60, 60)]
        shapes += [tuple(int(v) for v in rng.integers(1, 61, size=2)) for _ in range(150)]
        for case, (w, h) in enumerate(shapes):
            spec = GridSpec(0.1, w, h)
            density = rng.uniform(0.05, 0.95)
            mask = rng.random((h, w)) < density
            if case % 5 == 1:
                mask[:] = True  # full grid
            elif case % 5 == 2:
                mask[:] = False  # empty set
            elif case % 5 == 3:
                # every grid edge, plus one full row and one full column
                mask[[0, -1], :] = mask[:, [0, -1]] = True
                mask[rng.integers(h), :] = mask[:, rng.integers(w)] = True
            cells = {(int(i), int(j)) for j, i in zip(*np.nonzero(mask))}
            blacklisted = []
            for i, j in zip(rng.integers(0, w, size=3), rng.integers(0, h, size=3)):
                if rng.random() < 0.5:
                    blacklisted.append((int(i), int(j)))
            want_chunks, want_candidates = cluster_oracle(cells, spec, 30, blacklisted)
            assert chunks(cells, spec, 30) == want_chunks, (w, h)
            got = cluster_frontiers(linear(cells, spec), spec, blacklist_of(spec, blacklisted))
            assert got.tolist() == linear_array(want_candidates, spec).tolist(), (w, h)

    @pytest.mark.slow
    @pytest.mark.parametrize("preset, strategy", [("ramp_yard", "greedy"),
                                                  ("obstacle_ring", "fit")])
    def test_mission_snapshots_match_oracle(self, preset, strategy, monkeypatch):
        added, seen = [], []

        def record_suppress(blacklist, cells):
            w = blacklist.shape[1]
            added.extend((k % w, k // w) for k in cells.tolist())
            suppress(blacklist, cells)

        def spy(cells, spec, blacklist):
            got = cluster_frontiers(cells, spec, blacklist)
            seen.append((set(cells), spec, list(added), got))
            return got

        monkeypatch.setattr(harness, "suppress", record_suppress)
        monkeypatch.setattr(harness, "cluster_frontiers", spy)
        harness.run_mission(WorldConfig.from_json(preset_world_path(preset)), strategy, 1)
        assert len(seen) >= 10 and any(blacklisted for _, _, blacklisted, _ in seen)
        for cells, spec, blacklisted, got in seen:
            ij = {(c % spec.width, c // spec.width) for c in cells}
            assert linear(ij, spec) == cells
            want = cluster_oracle(ij, spec, DEFAULT_MAX_CLUSTER_SIZE, blacklisted)[1]
            assert got.tolist() == linear_array(want, spec).tolist()


class TestBlacklist:
    W, H = 7, 5
    CORNERS = [(0, 0), (W - 1, H - 1), (W - 1, 0), (0, H - 1)]
    EDGES = [(3, 0), (3, H - 1), (0, 2), (W - 1, 2)]
    INTERIOR = [(3, 2)]

    @pytest.mark.parametrize("cell", [*CORNERS, *EDGES, *INTERIOR])
    def test_mask_is_in_grid_part_of_halo(self, cell):
        spec = GridSpec(0.1, self.W, self.H)
        want = np.zeros((self.H, self.W), dtype=bool)
        for i, j in halo([cell]):
            if 0 <= i < self.W and 0 <= j < self.H:
                want[j, i] = True
        assert np.array_equal(blacklist_of(spec, [cell]), want)

    @pytest.mark.parametrize("cells", [
        CORNERS, EDGES, INTERIOR, CORNERS + EDGES + INTERIOR,
        [(3, 2), (3, 2), (0, 0), (3, 2)],  # repeated
        [(2, 2), (3, 2), (3, 3), (4, 4), (5, 4), (6, 4)],  # adjacent
        [],
    ], ids=["corners", "edges", "interior", "all", "repeated", "adjacent", "empty"])
    def test_matches_the_per_cell_reference(self, cells):
        spec = GridSpec(0.1, self.W, self.H)
        want = np.zeros((self.H, self.W), dtype=bool)
        for cell in cells:
            blacklist_cell(want, cell)
        assert np.array_equal(blacklist_of(spec, cells), want)

    def test_matches_the_per_cell_reference_on_random_grids(self):
        rng = np.random.default_rng(41)
        shapes = [(1, 1), (1, 9), (9, 1), (2, 2)]
        shapes += [tuple(int(v) for v in rng.integers(1, 30, size=2)) for _ in range(60)]
        for w, h in shapes:
            # A mask that already holds cells, as a mission's does after its first decision.
            got = rng.random((h, w)) < 0.1
            want = got.copy()
            cells = rng.integers(0, w * h, size=int(rng.integers(0, 12)))
            suppress(got, cells)
            for k in cells.tolist():
                blacklist_cell(want, (k % w, k // w))
            assert np.array_equal(got, want), (w, h)

    @pytest.mark.parametrize("index", [-1, -W * H, W * H, 10 * W * H])
    def test_index_off_the_grid_raises(self, index):
        # Unchecked, -1 would divide to (W - 1, -1), and its window would set two
        # cells of row 0.
        mask = np.zeros((self.H, self.W), dtype=bool)
        with pytest.raises(OutOfBoundsError):
            suppress(mask, np.array([3 * self.W + 3, index]))
        assert not mask.any()
