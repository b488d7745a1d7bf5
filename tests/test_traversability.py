import math

import numpy as np
import pytest

from fitslam import traversability
from fitslam.grid import BLOCKED, FREE, ConfigError, GridSpec, UNKNOWN
from fitslam.traversability import (
    TerrainStatsGrid,
    load_points,
    threshold,
)


def one_cell_spec(res=1.0):
    return GridSpec(0.0, 0.0, res, 1, 1)


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
        assert stats.dropped_points == 0

    def test_bad_shape_rejected(self):
        stats = TerrainStatsGrid(one_cell_spec())
        with pytest.raises(ValueError):
            stats.accumulate(np.zeros((4, 2)))

    def test_out_of_grid_points_counted_as_dropped(self):
        stats = TerrainStatsGrid(one_cell_spec())
        stats.accumulate(np.array([[0.5, 0.5, 0.0], [2.0, 0.5, 0.0]]))
        assert stats.count[0, 0] == 1
        assert stats.dropped_points == 1

    def test_rebatching_gives_same_moments(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 4, size=(200, 3))
        spec = GridSpec(0, 0, 1.0, 4, 4)
        whole = TerrainStatsGrid(spec)
        whole.accumulate(pts)
        split = TerrainStatsGrid(spec)
        split.accumulate(pts[:77])
        split.accumulate(pts[77:])
        assert np.allclose(whole.sxz, split.sxz)
        assert np.allclose(whole.count, split.count)


class TestCellMetrics:
    def test_flat_coplanar_points(self):
        stats = TerrainStatsGrid(one_cell_spec())
        stats.accumulate(np.array([
            [0.1, 0.1, 0.0], [0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.9, 0.9, 0.0],
            [0.5, 0.5, 0.0],
        ]))
        valid, _, slope, roughness, step = stats.cell_metrics()
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
        _, _, slope, roughness, _ = stats.cell_metrics()
        assert abs(math.degrees(slope[0, 0]) - 20.0) < 0.5
        oracle_slope, oracle_rough = plane_fit_oracle(pts)
        assert slope[0, 0] == pytest.approx(oracle_slope, abs=1e-6)
        assert roughness[0, 0] == pytest.approx(oracle_rough, abs=1e-6)

    def test_tilted_plane_oracle_agreement_many_cells(self):
        rng = np.random.default_rng(11)
        spec = GridSpec(0, 0, 1.0, 3, 3)
        stats = TerrainStatsGrid(spec)
        pts = rng.uniform(0, 3, size=(600, 2))
        z = 0.3 * pts[:, 0] - 0.15 * pts[:, 1] + rng.normal(0, 0.01, 600)
        all_pts = np.column_stack([pts, z])
        stats.accumulate(all_pts)
        _, _, slope, roughness, _ = stats.cell_metrics()
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
        spec = GridSpec(0, 0, 1.0, 3, 1)
        stats = TerrainStatsGrid(spec)
        for ci, zc in ((0, 0.0), (1, 0.0), (2, 0.4)):
            xs = ci + np.array([0.2, 0.4, 0.6, 0.8, 0.5])
            stats.accumulate(np.column_stack([xs, np.full(5, 0.5), np.full(5, zc)]))
        _, _, _, _, step = stats.cell_metrics()
        assert step[0, 0] == pytest.approx(0.0)
        assert step[0, 1] == pytest.approx(0.4)
        assert step[0, 2] == pytest.approx(0.4)

    def test_isolated_cell_has_zero_step(self):
        spec = GridSpec(0, 0, 1.0, 3, 3)
        stats = TerrainStatsGrid(spec)
        stats.accumulate(np.column_stack([
            np.full(5, 1.5), 1.0 + np.linspace(0.1, 0.9, 5), np.full(5, 2.0)]))
        _, _, _, _, step = stats.cell_metrics()
        assert step[1, 1] == 0.0


class TestScoreCells:
    def test_no_data_cell_is_unknown(self):
        stats = TerrainStatsGrid(GridSpec(0, 0, 1.0, 2, 1))
        stats.accumulate(np.column_stack([
            np.linspace(0.1, 0.9, 6), np.full(6, 0.5), np.zeros(6)]))
        trav = stats.score_cells()
        assert trav.score[0, 0] == 1.0
        assert np.isnan(trav.score[0, 1])

    def test_too_few_points_is_unknown(self):
        stats = TerrainStatsGrid(one_cell_spec())
        stats.accumulate(np.array([[0.2, 0.2, 0], [0.8, 0.2, 0], [0.5, 0.8, 0]]))
        trav = stats.score_cells()
        assert np.isnan(trav.score[0, 0])

    def test_slope_at_limit_scores_zero(self):
        stats = TerrainStatsGrid(one_cell_spec())
        rng = np.random.default_rng(5)
        xy = rng.uniform(0, 1, size=(50, 2))
        z = xy[:, 0] * math.tan(traversability.MAX_SLOPE)
        stats.accumulate(np.column_stack([xy, z]))
        trav = stats.score_cells()
        assert trav.score[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_minimum_of_metric_scores(self):
        # Rough but flat terrain: the roughness term should dominate.
        stats = TerrainStatsGrid(one_cell_spec())
        rng = np.random.default_rng(9)
        xy = rng.uniform(0, 1, size=(200, 2))
        z = rng.normal(0.0, 0.03, 200)
        stats.accumulate(np.column_stack([xy, z]))
        trav = stats.score_cells()
        _, _, slope, roughness, _ = stats.cell_metrics()
        s_slope = 1.0 - slope[0, 0] / traversability.MAX_SLOPE
        s_rough = 1.0 - roughness[0, 0] / traversability.MAX_ROUGHNESS
        assert s_rough < s_slope
        assert trav.score[0, 0] == pytest.approx(s_rough, abs=1e-9)


class TestThreshold:
    def test_unknown_preserved(self):
        stats = TerrainStatsGrid(GridSpec(0, 0, 1.0, 2, 2))
        trav = stats.score_cells()
        nav = threshold(trav, 0.5)
        assert np.all(nav.state == UNKNOWN)

    def test_inclusive_boundary(self):
        spec = GridSpec(0, 0, 1.0, 3, 1)
        from fitslam.grid import TraversabilityGrid
        trav = TraversabilityGrid(spec, np.array([[0.7, 0.5, 0.49]]))
        nav = threshold(trav, 0.5)
        assert nav.state[0, 0] == FREE
        assert nav.state[0, 1] == FREE  # boundary is inclusive
        assert nav.state[0, 2] == BLOCKED

    def test_threshold_range_checked(self):
        stats = TerrainStatsGrid(one_cell_spec())
        trav = stats.score_cells()
        with pytest.raises(ValueError):
            threshold(trav, 1.5)


class TestLoadPoints:
    def test_reads_xyz_file(self, tmp_path):
        f = tmp_path / "points.txt"
        f.write_text("0.1 0.2 0.3\n1.0 2.0 3.0\n")
        pts = load_points(f)
        assert pts.shape == (2, 3)
        assert pts[1, 2] == 3.0

    def test_single_row_is_2d(self, tmp_path):
        f = tmp_path / "one.txt"
        f.write_text("0.5 0.5 0.0\n")
        assert load_points(f).shape == (1, 3)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "points.txt"
        f.write_text("# x y z\n\n0.5 0.5 0.0  # first\n")
        assert load_points(f).tolist() == [[0.5, 0.5, 0.0]]

    def test_empty_file_gives_no_points(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing yet\n")
        assert load_points(f).shape == (0, 3)

    @pytest.mark.parametrize("body, line", [
        ("0.1 0.2\n1.0 2.0\n", 1),            # two columns
        ("0.1 0.2 0.3\n1.0 2.0\n", 2),        # a short row
        ("0.1 0.2 0.3\n1 2 3 4\n", 2),        # a long row
        ("0.1 0.2 0.3\n\n1.0 2.0 nan\n", 3),  # nan in z
        ("inf 0.2 0.3\n", 1),
        ("0.1 0.2 z\n", 1),                    # not a number
    ])
    def test_bad_rows_rejected_with_line_number(self, tmp_path, body, line):
        f = tmp_path / "points.txt"
        f.write_text(body)
        with pytest.raises(ConfigError, match=f"points.txt:{line}:"):
            load_points(f)
