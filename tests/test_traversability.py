import math

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

import fitslam
from fitslam import harness, traversability
from fitslam.grid import BLOCKED, FREE, GridSpec, UNKNOWN
from fitslam.simworld import WorldConfig, current_grids, generate_world
from fitslam.traversability import TerrainStatsGrid, threshold
from oracles import all_sensed, cell_metrics, score_cells
from test_harness import tiny_world


def one_cell_spec(res=1.0):
    return GridSpec(res, 1, 1)


def plane_fit_oracle(points):
    """Independent least-squares fit z = a*x + b*y + c on raw points."""
    pts = np.asarray(points, dtype=float)
    a_mat = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    coef, *_ = np.linalg.lstsq(a_mat, pts[:, 2], rcond=None)
    a, b, c = coef
    resid = pts[:, 2] - a_mat @ coef
    slope = math.atan(math.hypot(a, b))
    roughness = math.sqrt(np.mean(resid ** 2))
    return slope, roughness


class TestAccumulate:
    def test_empty_batch_is_identity(self):
        stats = TerrainStatsGrid(one_cell_spec())
        stats.accumulate(np.zeros((0, 3)))
        assert stats.count.sum() == 0

    def test_bad_shape_rejected(self):
        stats = TerrainStatsGrid(one_cell_spec())
        with pytest.raises(ValueError):
            stats.accumulate(np.zeros((4, 2)))

    def test_out_of_grid_points_counted_as_dropped(self):
        stats = TerrainStatsGrid(one_cell_spec())
        stats.accumulate(np.array([[0.5, 0.5, 0.0], [2.0, 0.5, 0.0]]))
        assert stats.count[0, 0] == 1
        assert stats.count.sum() == 1  # the out-of-grid point lands in no cell

    def test_rebatching_gives_same_moments(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 4, size=(200, 3))
        spec = GridSpec(1.0, 4, 4)
        whole = TerrainStatsGrid(spec)
        whole.accumulate(pts)
        split = TerrainStatsGrid(spec)
        split.accumulate(pts[:77])
        split.accumulate(pts[77:])
        assert np.allclose(whole.moments, split.moments)


class TestCellMetrics:
    def test_flat_coplanar_points(self):
        stats = TerrainStatsGrid(one_cell_spec())
        stats.accumulate(np.array([
            [0.1, 0.1, 0.0], [0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.9, 0.9, 0.0],
            [0.5, 0.5, 0.0],
        ]))
        valid, _, slope, roughness, step = cell_metrics(stats)
        assert valid[0, 0]
        assert slope[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert roughness[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert step[0, 0] == 0.0

    def test_slope_matches_plane_fit_oracle(self):
        rng = np.random.default_rng(7)
        xy = rng.uniform(0.0, 1.0, size=(100, 2))
        z = xy[:, 0] * math.tan(math.radians(20.0)) + rng.normal(0, 0.003, 100)
        pts = np.column_stack([xy, z])
        stats = TerrainStatsGrid(one_cell_spec())
        stats.accumulate(pts)
        _, _, slope, roughness, _ = cell_metrics(stats)
        assert abs(math.degrees(slope[0, 0]) - 20.0) < 0.5
        oracle_slope, oracle_rough = plane_fit_oracle(pts)
        assert slope[0, 0] == pytest.approx(oracle_slope, abs=1e-6)
        assert roughness[0, 0] == pytest.approx(oracle_rough, abs=1e-6)

    def test_tilted_plane_oracle_agreement_many_cells(self):
        rng = np.random.default_rng(11)
        spec = GridSpec(1.0, 3, 3)
        stats = TerrainStatsGrid(spec)
        pts = rng.uniform(0, 3, size=(600, 2))
        z = 0.3 * pts[:, 0] - 0.15 * pts[:, 1] + rng.normal(0, 0.01, 600)
        all_pts = np.column_stack([pts, z])
        stats.accumulate(all_pts)
        _, _, slope, roughness, _ = cell_metrics(stats)
        i = np.floor(all_pts[:, 0]).astype(int)
        j = np.floor(all_pts[:, 1]).astype(int)
        for ci in range(3):
            for cj in range(3):
                cell_pts = all_pts[(i == ci) & (j == cj)]
                if len(cell_pts) < 5:
                    continue
                oracle_slope, oracle_rough = plane_fit_oracle(cell_pts)
                assert slope[cj, ci] == pytest.approx(oracle_slope, abs=1e-6)
                assert roughness[cj, ci] == pytest.approx(oracle_rough, abs=1e-6)

    def test_step_height_against_neighbors(self):
        spec = GridSpec(1.0, 3, 1)
        stats = TerrainStatsGrid(spec)
        for ci, zc in ((0, 0.0), (1, 0.0), (2, 0.4)):
            xs = ci + np.array([0.2, 0.4, 0.6, 0.8, 0.5])
            stats.accumulate(np.column_stack([xs, np.full(5, 0.5), np.full(5, zc)]))
        _, _, _, _, step = cell_metrics(stats)
        assert step[0, 0] == pytest.approx(0.0)
        assert step[0, 1] == pytest.approx(0.4)
        assert step[0, 2] == pytest.approx(0.4)
        got = stats.score_cells(all_sensed(stats.spec)).score
        assert got.tobytes() == score_cells(stats).tobytes()

    def test_isolated_cell_has_zero_step(self):
        spec = GridSpec(1.0, 3, 3)
        stats = TerrainStatsGrid(spec)
        stats.accumulate(np.column_stack([
            np.full(5, 1.5), 1.0 + np.linspace(0.1, 0.9, 5), np.full(5, 2.0)]))
        _, _, _, _, step = cell_metrics(stats)
        assert step[1, 1] == 0.0
        got = stats.score_cells(all_sensed(stats.spec)).score
        assert got.tobytes() == score_cells(stats).tobytes()


class TestPlaneCache:
    @staticmethod
    def stats_with(points):
        stats = TerrainStatsGrid(GridSpec(1.0, 6, 5))
        stats.accumulate(points)
        return stats

    def points(self):
        # 16 cells get points and 14 stay empty; the first 40 points leave most
        # cells under MIN_POINTS, all 300 make every cell with points valid.
        rng = np.random.default_rng(11)
        xy = rng.uniform(0, 4, size=(300, 2))
        return np.column_stack([xy, 0.2 * xy[:, 0] + rng.normal(0, 0.03, 300)])

    def test_accumulate_after_metrics_refits_the_plane(self):
        pts = self.points()
        stats = self.stats_with(pts[:40])
        stats.score_cells(all_sensed(stats.spec))
        stats.accumulate(pts[40:])
        fresh = self.stats_with(pts)
        for got, want in zip(cell_metrics(stats), cell_metrics(fresh)):
            assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(stats.score_cells(all_sensed(stats.spec)).score,
                              fresh.score_cells(all_sensed(fresh.spec)).score,
                              equal_nan=True)

    def test_plane_is_computed_once(self):
        stats = self.stats_with(self.points())
        assert stats.plane is stats.plane

    def test_plane_arrays_are_read_only(self):
        for arr in self.stats_with(self.points()).plane:
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_plane_arrays_own_their_memory(self):
        # mean_z is a row of the (9, H, W) moment quotient; a view would keep
        # the whole quotient alive as long as the cache.
        for arr in self.stats_with(self.points()).plane:
            assert arr.base is None


class TestScoreCells:
    def test_no_data_cell_is_unknown(self):
        stats = TerrainStatsGrid(GridSpec(1.0, 2, 1))
        stats.accumulate(np.column_stack([
            np.linspace(0.1, 0.9, 6), np.full(6, 0.5), np.zeros(6)]))
        trav = stats.score_cells(all_sensed(stats.spec))
        assert trav.score[0, 0] == 1.0
        assert np.isnan(trav.score[0, 1])

    def test_too_few_points_is_unknown(self):
        stats = TerrainStatsGrid(one_cell_spec())
        stats.accumulate(np.array([[0.2, 0.2, 0], [0.8, 0.2, 0], [0.5, 0.8, 0]]))
        trav = stats.score_cells(all_sensed(stats.spec))
        assert np.isnan(trav.score[0, 0])

    def test_slope_at_limit_scores_zero(self):
        stats = TerrainStatsGrid(one_cell_spec())
        rng = np.random.default_rng(5)
        xy = rng.uniform(0, 1, size=(50, 2))
        z = xy[:, 0] * math.tan(traversability.MAX_SLOPE)
        stats.accumulate(np.column_stack([xy, z]))
        trav = stats.score_cells(all_sensed(stats.spec))
        assert trav.score[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_minimum_of_metric_scores(self):
        # Rough but flat terrain: the roughness term should dominate.
        stats = TerrainStatsGrid(one_cell_spec())
        rng = np.random.default_rng(9)
        xy = rng.uniform(0, 1, size=(200, 2))
        z = rng.normal(0.0, 0.03, 200)
        stats.accumulate(np.column_stack([xy, z]))
        trav = stats.score_cells(all_sensed(stats.spec))
        _, _, slope, roughness, _ = cell_metrics(stats)
        s_slope = 1.0 - slope[0, 0] / traversability.MAX_SLOPE
        s_rough = 1.0 - roughness[0, 0] / traversability.MAX_ROUGHNESS
        assert s_rough < s_slope
        assert trav.score[0, 0] == pytest.approx(s_rough, abs=1e-9)


class TestThreshold:
    def test_unknown_preserved(self):
        stats = TerrainStatsGrid(GridSpec(1.0, 2, 2))
        trav = stats.score_cells(all_sensed(stats.spec))
        nav = threshold(trav)
        assert np.all(nav.state == UNKNOWN)

    def test_inclusive_boundary(self):
        assert traversability.TRAV_THRESHOLD == 0.3
        spec = GridSpec(1.0, 5, 1)
        from fitslam.grid import TraversabilityGrid
        trav = TraversabilityGrid(spec, np.array([[0.7, 0.3, np.nextafter(0.3, 0.0), 0.0,
                                                   np.nan]]))
        nav = threshold(trav)
        assert nav.state[0, 0] == FREE
        assert nav.state[0, 1] == FREE  # boundary is inclusive
        assert nav.state[0, 2] == BLOCKED
        assert nav.state[0, 3] == BLOCKED
        assert nav.state[0, 4] == UNKNOWN


def sparse_stats():
    """A 23 x 17 grid of 0 to 9 points a cell on rough, tilted terrain: cells
    with no point, under MIN_POINTS points and enough points sit side by side."""
    rng = np.random.default_rng(17)
    spec = GridSpec(0.5, 23, 17)
    counts = rng.integers(0, 10, size=spec.n_cells)
    cell = np.repeat(np.arange(spec.n_cells), counts)
    x = (cell % spec.width + rng.uniform(0.05, 0.95, len(cell))) * spec.resolution
    y = (cell // spec.width + rng.uniform(0.05, 0.95, len(cell))) * spec.resolution
    z = 0.4 * x - 0.1 * y + rng.normal(0.0, 0.04, len(cell)) + 0.3 * (cell % 7 == 0)
    stats = TerrainStatsGrid(spec)
    stats.accumulate(np.column_stack([x, y, z]))
    return stats


def terrain_of(name):
    if name == "sparse_points":
        return sparse_stats()
    cfg = tiny_world() if name == "tiny_world" else \
        WorldConfig.from_json(fitslam.preset_world_path(name))
    return generate_world(cfg).terrain


def mask_sequence(h, w, rng):
    """Sensed masks, in the order a test feeds them to one grid: a disk that
    grows, shrinks and jumps, masks on the border rows and columns, random ones,
    and the full mask (every cell with a point)."""
    jj, ii = np.ogrid[:h, :w]
    full = np.ones((h, w), dtype=bool)

    def disk(cj, ci, r):
        return (jj - cj) ** 2 + (ii - ci) ** 2 <= r * r

    border = np.zeros((h, w), dtype=bool)
    border[[0, -1]] = border[:, [0, -1]] = True
    walk = np.zeros((h, w), dtype=bool)
    masks = [disk(h // 2, w // 2, r) for r in (1, 3, 6, 11)]  # growing
    masks += [disk(h // 2, w // 2, 4), full, disk(h // 2, w // 2, 2)]  # shrinking
    masks += [disk(0, 0, 5), disk(h - 1, w - 1, 5), disk(0, w - 1, 3), disk(h - 1, 0, 0)]
    masks += [border, ~border, full, np.zeros((h, w), dtype=bool), full]
    masks += [rng.random((h, w)) < frac for frac in (0.5, 0.02, 0.9)]
    for cj, ci in zip(rng.integers(0, h, 6), rng.integers(0, w, 6)):
        walk = walk | disk(cj, ci, 4)  # a mission's union of looks
        masks.append(walk)
    masks += [full, walk[::-1].copy(), full]
    return masks


class TestScoreMemo:
    """`score_cells` rescores only the cells near a flipped data flag; after
    every call its scores must equal the whole-grid reference bit for bit."""

    @pytest.mark.parametrize("name", [*fitslam.PRESET_WORLDS, "tiny_world", "sparse_points"])
    def test_mask_sequences_match_reference(self, name):
        stats = terrain_of(name)
        rng = np.random.default_rng(23)
        for k, sensed in enumerate(mask_sequence(stats.spec.height, stats.spec.width, rng)):
            got = stats.score_cells(sensed).score
            assert got.shape == (stats.spec.height, stats.spec.width)
            assert got.tobytes() == score_cells(stats, sensed).tobytes(), k

    def test_accumulate_between_calls_invalidates_memo(self):
        stats = sparse_stats()
        sensed = np.random.default_rng(2).random(stats.count.shape) < 0.7
        before = stats.score_cells(sensed).score
        # Five more points in each cell under MIN_POINTS: under the same mask, the
        # cells that had none gain data, and the others keep their data flag but
        # become valid and refit their planes.
        few = np.flatnonzero(stats.count < traversability.MIN_POINTS)
        cell = np.repeat(few, 5)
        res, w = stats.spec.resolution, stats.spec.width
        x = (cell % w + np.tile([0.1, 0.3, 0.5, 0.7, 0.9], len(few))) * res
        y = (cell // w + np.tile([0.2, 0.8, 0.5, 0.2, 0.8], len(few))) * res
        stats.accumulate(np.column_stack([x, y, 0.05 * x]))
        after = stats.score_cells(sensed).score
        assert after.tobytes() == score_cells(stats, sensed).tobytes()
        assert after.tobytes() != before.tobytes()

    def test_writing_into_a_returned_score_leaves_the_next_result(self):
        stats = sparse_stats()
        rng = np.random.default_rng(4)
        full = all_sensed(stats.spec)
        for sensed in (rng.random(stats.count.shape) < 0.6, full, full):
            trav = stats.score_cells(sensed)
            trav.score[:] = 0.5
            assert stats.score_cells(sensed).score.tobytes() == \
                score_cells(stats, sensed).tobytes()

    def test_memo_never_holds_the_callers_sensed(self):
        # A mission grows its one `sensed` array in place between decisions.
        stats = sparse_stats()
        sensed = np.zeros(stats.count.shape, dtype=bool)
        for rows in (slice(2, 6), slice(0, 12), slice(9, None)):
            sensed[rows, 3:19] = True
            got = stats.score_cells(sensed).score
            assert got.tobytes() == score_cells(stats, sensed).tobytes()
            kept = stats._memo
            assert not any(np.shares_memory(sensed, arr) for arr in kept)
            assert not any(np.shares_memory(got, arr) for arr in kept)


def run_with_score_oracle(monkeypatch, preset, strategy, max_mission_time):
    """Run a mission whose every `current_grids` score is checked against the
    whole-grid reference, bit for bit.

    Returns, per call, the fraction of cells within one cell of a data flag that
    flipped since the previous call: the cells `score_cells` rescores.
    """
    rescored = []
    last = {}

    def spy(state):
        trav, nav = current_grids(state)
        terrain = state.world.terrain
        assert trav.score.tobytes() == score_cells(terrain, state.sensed).tobytes()
        has = (terrain.count > 0) & state.sensed
        flipped = has != last.get(id(terrain), np.zeros_like(has))
        last[id(terrain)] = has
        rescored.append(binary_dilation(flipped, np.ones((3, 3), dtype=bool)).mean())
        return trav, nav

    monkeypatch.setattr(harness, "current_grids", spy)
    harness.run_mission(WorldConfig.from_json(fitslam.preset_world_path(preset)), strategy, 1,
                        max_mission_time=max_mission_time)
    return rescored


SPIED_MISSIONS = [
    *((p, s, harness.DEFAULT_MAX_MISSION_TIME) for p in ("obstacle_ring", "flat_office")
      for s in ("fit", "greedy", "random")),
    ("ramp_yard", "fit", 200.0),
]


@pytest.mark.slow
def test_mission_scores_match_whole_grid_reference(monkeypatch):
    rescored = []
    for preset, strategy, max_mission_time in SPIED_MISSIONS:
        calls = run_with_score_oracle(monkeypatch, preset, strategy, max_mission_time)
        assert len(calls) >= 5, (preset, strategy)
        rescored += calls
    # Most calls rescore under a tenth of the grid, so the memo, not a whole-grid
    # pass, made them. The first call of a mission flips every sensed cell.
    assert np.mean(np.array(rescored) < 0.1) > 0.5
