import numpy as np
import pytest

from fitslam.frontier import (
    Blacklist,
    cluster_frontiers,
    detect_frontiers,
)
from fitslam.grid import (
    BLOCKED,
    BinaryTraversabilityGrid,
    FREE,
    GridSpec,
    OccupancyGrid,
    UNKNOWN,
    UNKNOWN_P,
)


def build_grids(w, h, res=0.1):
    spec = GridSpec(0.0, 0.0, res, w, h)
    occ = OccupancyGrid.unknown(spec)
    nav = BinaryTraversabilityGrid.unknown(spec)
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


def cluster_oracle(cells, spec, max_cluster_size, blacklist):
    """Size-capped clustering by a pure-Python BFS over a byte table."""
    w, h = spec.width, spec.height
    remaining = bytearray(spec.n_cells)
    for i, j in cells:
        remaining[j * w + i] = 1
    out = []
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
            candidate = chunk[(len(chunk) - 1) // 2]
            if not blacklist.suppresses(candidate):
                out.append((chunk, candidate))
    return out


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
        _, occ, nav = build_grids(8, 5)
        occ.p[:, :4] = 0.1   # west half known
        nav.state[:, :4] = FREE
        found = detect_frontiers(occ, nav)
        expected = {(3, j) for j in range(5)}
        assert found == expected

    def test_matches_brute_force_oracle_on_random_grids(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            _, occ, nav = build_grids(16, 12)
            occ.p[:] = rng.choice([UNKNOWN_P, 0.1, 0.9], size=occ.p.shape,
                                  p=[0.4, 0.45, 0.15])
            nav.state[:] = rng.choice(
                [UNKNOWN, FREE, BLOCKED], size=nav.state.shape,
                p=[0.3, 0.5, 0.2]).astype(np.int8)
            assert detect_frontiers(occ, nav) == frontier_oracle(occ, nav)

    def test_mismatched_specs_rejected(self):
        _, occ, _ = build_grids(6, 6)
        other = BinaryTraversabilityGrid.unknown(GridSpec(0, 0, 0.1, 5, 6))
        with pytest.raises(ValueError):
            detect_frontiers(occ, other)


class TestClusterFrontiers:
    def test_five_collinear_cells_single_cluster(self):
        spec = GridSpec(0, 0, 0.1, 10, 10)
        cells = {(i, 4) for i in range(2, 7)}
        clusters = cluster_frontiers(cells, spec, max_cluster_size=10)
        assert len(clusters) == 1
        assert clusters[0].candidate == (4, 4)  # 3rd of 5 in visit order

    def test_five_collinear_cells_cap_two(self):
        spec = GridSpec(0, 0, 0.1, 10, 10)
        cells = {(i, 4) for i in range(2, 7)}
        clusters = cluster_frontiers(cells, spec, max_cluster_size=2)
        sizes = sorted(len(c.cells) for c in clusters)
        assert sizes == [1, 2, 2]

    def test_blacklisted_candidate_dropped(self):
        spec = GridSpec(0, 0, 0.1, 10, 10)
        bl = Blacklist()
        bl.add((3, 3))
        assert cluster_frontiers({(3, 3)}, spec, blacklist=bl) == []

    def test_blacklist_suppresses_adjacent_cell(self):
        spec = GridSpec(0, 0, 0.1, 10, 10)
        bl = Blacklist()
        bl.add((3, 3))
        assert cluster_frontiers({(4, 4)}, spec, blacklist=bl) == []
        assert len(cluster_frontiers({(5, 3)}, spec, blacklist=bl)) == 1

    def test_components_partition_matches_connectivity(self):
        rng = np.random.default_rng(33)
        spec = GridSpec(0, 0, 0.1, 20, 20)
        cells = {(int(i), int(j))
                 for i, j in rng.integers(0, 20, size=(120, 2))}
        clusters = cluster_frontiers(cells, spec, max_cluster_size=10 ** 6)
        covered = [c for cl in clusters for c in cl.cells]
        assert sorted(covered) == sorted(cells)  # partition, no duplicates
        for cl in clusters:
            group = set(cl.cells)
            # every non-seed cell touches an earlier cell of the same cluster
            for idx, (i, j) in enumerate(cl.cells[1:], start=1):
                earlier = set(cl.cells[:idx])
                assert any((i + di, j + dj) in earlier
                           for di in (-1, 0, 1) for dj in (-1, 0, 1)
                           if (di, dj) != (0, 0))
            # and no cell of another cluster is 8-adjacent to this group
            for other in clusters:
                if other is cl:
                    continue
                for (i, j) in other.cells:
                    assert not any((i + di, j + dj) in group
                                   for di in (-1, 0, 1) for dj in (-1, 0, 1))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        spec = GridSpec(0, 0, 0.1, 30, 30)
        cells = {(int(i), int(j)) for i, j in rng.integers(0, 30, size=(200, 2))}
        a = cluster_frontiers(set(cells), spec, max_cluster_size=7)
        b = cluster_frontiers(set(cells), spec, max_cluster_size=7)
        assert [c.cells for c in a] == [c.cells for c in b]
        assert [c.candidate for c in a] == [c.candidate for c in b]

    def test_chunks_preserve_component_visit_order(self):
        spec = GridSpec(0, 0, 0.1, 10, 10)
        cells = {(i, 0) for i in range(7)}
        capped = cluster_frontiers(cells, spec, max_cluster_size=3)
        whole = cluster_frontiers(cells, spec, max_cluster_size=100)
        flat = [c for cl in capped for c in cl.cells]
        assert flat == whole[0].cells

    def test_matches_python_bfs_oracle(self):
        rng = np.random.default_rng(2024)
        shapes = [(1, 1), (1, 60), (60, 1), (2, 2), (60, 60)]
        shapes += [tuple(int(v) for v in rng.integers(1, 61, size=2)) for _ in range(150)]
        for case, (w, h) in enumerate(shapes):
            spec = GridSpec(0, 0, 0.1, w, h)
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
            blacklist = Blacklist()
            for i, j in zip(rng.integers(0, w, size=3), rng.integers(0, h, size=3)):
                if rng.random() < 0.5:
                    blacklist.add((int(i), int(j)))
            cap = int(rng.integers(1, 41))
            got = [(cl.cells, cl.candidate)
                   for cl in cluster_frontiers(cells, spec, cap, blacklist)]
            assert got == cluster_oracle(cells, spec, cap, blacklist), (w, h, cap)

    def test_bad_cap_rejected(self):
        spec = GridSpec(0, 0, 0.1, 5, 5)
        with pytest.raises(ValueError):
            cluster_frontiers(set(), spec, max_cluster_size=0)

