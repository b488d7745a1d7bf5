import math

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

import fitslam
from fitslam import harness, traversability
from fitslam.grid import BLOCKED, FREE, GridSpec, UNKNOWN
from fitslam.simworld import _CELL_SAMPLES, WorldConfig, current_grids, generate_world
from fitslam.traversability import ScoreMemo, TerrainStatsGrid, threshold
from oracles import all_sensed, cell_metrics, score_cells
from test_harness import tiny_world


def one_cell_spec(res=1.0):
    return GridSpec(res, 1, 1)


def cell_samples(spec, z_of, rng=None):
    """(H * W * 5, 3) terrain samples, five a cell, cell after cell in row-major
    order, as `TerrainStatsGrid.accumulate` takes them: at uniform draws from `rng`
    inside each cell, or at `simworld._CELL_SAMPLES` without one; each at the height
    z_of(x, y) of its (N, 5) coordinate arrays."""
    frac = (rng.uniform(0.05, 0.95, size=(spec.n_cells, 5, 2)) if rng is not None
            else np.broadcast_to(_CELL_SAMPLES, (spec.n_cells, 5, 2)))
    jj, ii = np.divmod(np.arange(spec.n_cells), spec.width)
    x = (ii[:, None] + frac[..., 0]) * spec.resolution
    y = (jj[:, None] + frac[..., 1]) * spec.resolution
    return np.stack([x, y, z_of(x, y)], axis=-1).reshape(-1, 3)


def fitted(spec, points):
    stats = TerrainStatsGrid(spec)
    stats.accumulate(points)
    return stats


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
    def test_bad_shape_rejected(self):
        # The table needs the same number of (x, y, z) samples in every cell.
        with pytest.raises(ValueError):
            TerrainStatsGrid(one_cell_spec()).accumulate(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            TerrainStatsGrid(GridSpec(1.0, 2, 1)).accumulate(np.zeros((9, 3)))


class TestCellMetrics:
    def test_flat_coplanar_points(self):
        stats = fitted(one_cell_spec(), cell_samples(one_cell_spec(), lambda x, y: 0.0 * x))
        valid, _, slope, roughness, step = cell_metrics(stats)
        assert valid[0, 0]
        assert slope[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert roughness[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert step[0, 0] == 0.0

    def test_slope_matches_plane_fit_oracle(self):
        rng = np.random.default_rng(7)
        pts = cell_samples(one_cell_spec(), lambda x, y: x * math.tan(math.radians(20.0))
                           + rng.normal(0, 0.003, x.shape), rng)
        _, _, slope, roughness, _ = cell_metrics(fitted(one_cell_spec(), pts))
        assert abs(math.degrees(slope[0, 0]) - 20.0) < 0.5
        oracle_slope, oracle_rough = plane_fit_oracle(pts)
        assert slope[0, 0] == pytest.approx(oracle_slope, abs=1e-6)
        assert roughness[0, 0] == pytest.approx(oracle_rough, abs=1e-6)

    def test_tilted_plane_oracle_agreement_many_cells(self):
        rng = np.random.default_rng(11)
        spec = GridSpec(1.0, 3, 3)
        pts = cell_samples(spec, lambda x, y: 0.3 * x - 0.15 * y
                           + rng.normal(0, 0.01, x.shape), rng)
        _, _, slope, roughness, _ = cell_metrics(fitted(spec, pts))
        for k, cell_pts in enumerate(pts.reshape(spec.n_cells, 5, 3)):
            cj, ci = divmod(k, spec.width)
            oracle_slope, oracle_rough = plane_fit_oracle(cell_pts)
            assert slope[cj, ci] == pytest.approx(oracle_slope, abs=1e-6)
            assert roughness[cj, ci] == pytest.approx(oracle_rough, abs=1e-6)

    def test_step_height_against_neighbors(self):
        spec = GridSpec(1.0, 3, 1)
        stats = fitted(spec, cell_samples(spec, lambda x, y: np.where(x >= 2.0, 0.4, 0.0)))
        _, _, _, _, step = cell_metrics(stats)
        assert step[0, 0] == pytest.approx(0.0)
        assert step[0, 1] == pytest.approx(0.4)
        assert step[0, 2] == pytest.approx(0.4)
        got = stats.score_cells(all_sensed(spec), ScoreMemo(spec)).score
        assert got.tobytes() == score_cells(stats).tobytes()

    def test_isolated_cell_has_zero_step(self):
        spec = GridSpec(1.0, 3, 3)
        stats = fitted(spec, cell_samples(spec, lambda x, y: np.where(
            (np.floor(x) == 1) & (np.floor(y) == 1), 2.0, 0.0)))
        sensed = np.zeros((3, 3), dtype=bool)
        sensed[1, 1] = True  # no neighbour has data
        _, _, _, _, step = cell_metrics(stats, sensed)
        assert step[1, 1] == 0.0
        got = stats.score_cells(sensed, ScoreMemo(spec)).score
        assert got.tobytes() == score_cells(stats, sensed).tobytes()
        assert got[1, 1] == 1.0 and np.isnan(got[sensed == 0]).all()


class TestPlaneCache:
    @staticmethod
    def stats():
        spec = GridSpec(1.0, 6, 5)
        rng = np.random.default_rng(11)
        return fitted(spec, cell_samples(spec, lambda x, y: 0.2 * x
                                         + rng.normal(0, 0.03, x.shape), rng))

    def test_plane_is_computed_once(self, monkeypatch):
        # A mission fits the table once, at its first decision, and every later
        # decision reads it.
        calls = []
        fit = TerrainStatsGrid.accumulate
        monkeypatch.setattr(TerrainStatsGrid, "accumulate",
                            lambda self, points: calls.append(len(points)) or fit(self, points))
        spied = []
        monkeypatch.setattr(harness, "current_grids",
                            lambda state: spied.append(state) or current_grids(state))
        harness.run_mission(tiny_world(), "greedy", 1, max_mission_time=300.0)
        assert len(spied) >= 3
        assert calls == [5 * spied[0].world.spec.n_cells]

    def test_plane_arrays_are_read_only(self):
        for arr in self.stats().plane:
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_plane_arrays_own_their_memory(self):
        # mean_z is a row of the (9, H, W) moment array; a view would keep the
        # whole array alive as long as the table.
        for arr in self.stats().plane:
            assert arr.base is None


class TestScoreCells:
    def test_no_data_cell_is_unknown(self):
        spec = GridSpec(1.0, 2, 1)
        stats = fitted(spec, cell_samples(spec, lambda x, y: 0.0 * x))
        trav = stats.score_cells(np.array([[True, False]]), ScoreMemo(spec))
        assert trav.score[0, 0] == 1.0
        assert np.isnan(trav.score[0, 1])

    def test_slope_at_limit_scores_zero(self):
        rng = np.random.default_rng(5)
        stats = fitted(one_cell_spec(), cell_samples(
            one_cell_spec(), lambda x, y: x * math.tan(traversability.MAX_SLOPE), rng))
        trav = stats.score_cells(all_sensed(stats.spec), ScoreMemo(stats.spec))
        assert trav.score[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_minimum_of_metric_scores(self):
        # Rough but flat terrain, a saddle no plane fits: the roughness term should
        # dominate.
        stats = fitted(one_cell_spec(), cell_samples(
            one_cell_spec(), lambda x, y: 0.4 * (x - 0.5) * (y - 0.5)))
        trav = stats.score_cells(all_sensed(stats.spec), ScoreMemo(stats.spec))
        _, _, slope, roughness, _ = cell_metrics(stats)
        s_slope = 1.0 - slope[0, 0] / traversability.MAX_SLOPE
        s_rough = 1.0 - roughness[0, 0] / traversability.MAX_ROUGHNESS
        assert s_rough < 0.5 < s_slope
        assert trav.score[0, 0] == pytest.approx(s_rough, abs=1e-9)


class TestThreshold:
    def test_unknown_preserved(self):
        spec = GridSpec(1.0, 2, 2)
        stats = fitted(spec, cell_samples(spec, lambda x, y: 0.0 * x))
        trav = stats.score_cells(np.zeros((2, 2), dtype=bool), ScoreMemo(spec))
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


def rough_stats():
    """A 23 x 17 grid of five jittered samples a cell on rough, tilted terrain with
    steps: Free and Blocked cells, and steps of every size, side by side."""
    rng = np.random.default_rng(17)
    spec = GridSpec(0.5, 23, 17)

    def z_of(x, y):
        cell = np.floor(y / spec.resolution) * spec.width + np.floor(x / spec.resolution)
        return 0.4 * x - 0.1 * y + rng.normal(0.0, 0.04, x.shape) + 0.3 * (cell % 7 == 0)

    return fitted(spec, cell_samples(spec, z_of, rng))


def terrain_of(name):
    if name == "rough_samples":
        return rough_stats()
    cfg = tiny_world() if name == "tiny_world" else \
        WorldConfig.from_json(fitslam.preset_world_path(name))
    return generate_world(cfg).terrain


def mask_sequence(h, w, rng):
    """Sensed masks, in the order a test feeds them to one memo: a disk that
    grows, shrinks and jumps, masks on the border rows and columns, random ones,
    and the full mask."""
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

    @pytest.mark.parametrize("name", [*fitslam.PRESET_WORLDS, "tiny_world", "rough_samples"])
    def test_mask_sequences_match_reference(self, name):
        stats = terrain_of(name)
        memo = ScoreMemo(stats.spec)
        rng = np.random.default_rng(23)
        for k, sensed in enumerate(mask_sequence(stats.spec.height, stats.spec.width, rng)):
            got = stats.score_cells(sensed, memo).score
            assert got.shape == (stats.spec.height, stats.spec.width)
            assert got.tobytes() == score_cells(stats, sensed).tobytes(), k

    def test_memos_on_one_table_are_independent(self):
        # Missions that share a world each hold their own memo: interleaved calls
        # through two memos each score as if the other did not exist.
        stats = rough_stats()
        h, w = stats.spec.height, stats.spec.width
        memos = ScoreMemo(stats.spec), ScoreMemo(stats.spec)
        sequences = (mask_sequence(h, w, np.random.default_rng(23)),
                     mask_sequence(h, w, np.random.default_rng(24))[::-1])
        for k, masks in enumerate(zip(*sequences)):
            for memo, sensed in zip(memos, masks):
                got = stats.score_cells(sensed, memo).score
                assert got.tobytes() == score_cells(stats, sensed).tobytes(), k

    def test_writing_into_a_returned_score_leaves_the_next_result(self):
        stats = rough_stats()
        memo = ScoreMemo(stats.spec)
        rng = np.random.default_rng(4)
        full = all_sensed(stats.spec)
        for sensed in (rng.random(full.shape) < 0.6, full, full):
            trav = stats.score_cells(sensed, memo)
            trav.score[:] = 0.5
            assert stats.score_cells(sensed, memo).score.tobytes() == \
                score_cells(stats, sensed).tobytes()

    def test_memo_never_holds_the_callers_sensed(self):
        # A mission grows its one `sensed` array in place between decisions.
        stats = rough_stats()
        memo = ScoreMemo(stats.spec)
        sensed = np.zeros((stats.spec.height, stats.spec.width), dtype=bool)
        for rows in (slice(2, 6), slice(0, 12), slice(9, None)):
            sensed[rows, 3:19] = True
            got = stats.score_cells(sensed, memo).score
            assert got.tobytes() == score_cells(stats, sensed).tobytes()
            kept = memo.data, memo.score
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
        assert trav.score.tobytes() == score_cells(state.world.terrain, state.sensed).tobytes()
        has = state.sensed.copy()
        flipped = has != last.get(id(state), np.zeros_like(has))
        last[id(state)] = has
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
