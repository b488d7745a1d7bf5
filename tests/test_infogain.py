import math

import numpy as np
import pytest

from fitslam import harness, preset_world_path
from fitslam.fisher import DEFAULT_FOV, DEFAULT_MAX_DEPTH
from fitslam.grid import GridSpec, OccupancyGrid, OutOfBoundsError, UNKNOWN_P
from fitslam.infogain import (
    OCCUPIED_THRESHOLD,
    RayCastParams,
    _template,
    cast_ray,
    cell_entropy,
    ray_directions,
    scan_many,
    scan_orientations,
)
from fitslam.simworld import WorldConfig


def unknown_grid(w=20, h=20, res=0.1):
    return OccupancyGrid.unknown(GridSpec(0.0, 0.0, res, w, h))


class TestCellEntropy:
    def test_fixed_points(self):
        assert cell_entropy(0.5) == 1.0
        assert cell_entropy(0.0) == 0.0
        assert cell_entropy(1.0) == 0.0

    def test_quarter_probability(self):
        assert cell_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)

    def test_symmetry(self):
        for p in (0.1, 0.3, 0.42):
            assert cell_entropy(p) == pytest.approx(cell_entropy(1.0 - p))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cell_entropy(-0.01)
        with pytest.raises(ValueError):
            cell_entropy(1.01)


class TestDegradationChain:
    def test_first_unknown_cell_full_gain(self):
        # N=0: observability 1, posterior 1, entropy drop is the full bit.
        occ = unknown_grid()
        ray = cast_ray(occ, (1.05, 1.05), 0.0, RayCastParams())
        first = ray.cells[0]
        assert first.observability == 1.0
        assert first.posterior == 1.0
        assert first.gain == 1.0

    def test_fourth_unknown_cell(self):
        occ = unknown_grid()
        ray = cast_ray(occ, (0.05, 1.05), 0.0, RayCastParams(gamma=0.9))
        fourth = ray.cells[3]
        assert fourth.observability == pytest.approx(0.729, abs=1e-12)
        assert fourth.posterior == pytest.approx(0.8645, abs=1e-12)
        # Hand evaluation: 1 - H(0.8645) = 0.4277 bits.
        assert fourth.gain == pytest.approx(1.0 - cell_entropy(0.8645), abs=1e-12)
        assert fourth.gain == pytest.approx(0.427669, abs=1e-5)


class TestCastRay:
    def test_known_free_cells_zero_gain(self):
        occ = unknown_grid()
        occ.p[:] = 0.1
        ray = cast_ray(occ, (0.05, 0.55), 0.0, RayCastParams())
        assert ray.gain == 0.0
        assert all(c.gain == 0.0 for c in ray.cells)

    def test_occupied_cell_blocks(self):
        occ = unknown_grid(res=0.1)
        occ.p[5, 8] = 0.9  # wall cell (8, 5)
        ray = cast_ray(occ, (0.05, 0.55), 0.0, RayCastParams(), max_range=5.0)
        assert ray.cells[-1].cell == (8, 5)
        assert ray.cells[-1].gain == 0.0
        assert len(ray.cells) == 9  # cells 0..8 along the row

    def test_threshold_boundary_does_not_block(self):
        occ = unknown_grid()
        occ.p[5, 3] = 0.65  # exactly at the threshold: not blocking
        ray = cast_ray(occ, (0.05, 0.55), 0.0, RayCastParams())
        assert any(c.cell == (4, 5) for c in ray.cells)

    def test_max_range_limits_walk(self):
        occ = unknown_grid(w=60, h=60, res=0.1)
        ray = cast_ray(occ, (0.05, 0.05), 0.0, RayCastParams(), max_range=2.0)
        assert len(ray.cells) <= int(2.0 / 0.1) + 1

    def test_each_cell_visited_once(self):
        occ = unknown_grid(w=40, h=40)
        ray = cast_ray(occ, (0.31, 0.17), 0.9, RayCastParams())
        cells = [c.cell for c in ray.cells]
        assert len(cells) == len(set(cells))

    def test_origin_outside_grid_rejected(self):
        occ = unknown_grid()
        with pytest.raises(ValueError):
            cast_ray(occ, (-1.0, 0.5), 0.0, RayCastParams())


class TestRayDirections:
    def test_count_and_spacing(self):
        dirs = ray_directions(math.radians(8.5))
        assert len(dirs) == 43
        assert dirs[0] == 0.0
        assert np.allclose(np.diff(dirs), math.radians(8.5))
        assert dirs[-1] < 2 * math.pi

    def test_even_divisor(self):
        dirs = ray_directions(math.pi / 2)
        assert len(dirs) == 4


def brute_force_scan(occ, goal, params, fov, max_range):
    """Independent windowed-sum evaluation built on cast_ray."""
    spec = occ.spec
    ci, cj = spec.world_to_cell(*goal)
    origin = spec.cell_to_world(ci, cj)
    dirs = ray_directions(params.delta_theta)
    gains = [cast_ray(occ, origin, th, params, max_range).gain for th in dirs]
    windowed = []
    for ts in dirs:
        total = 0.0
        for th, g in zip(dirs, gains):
            diff = abs(th - ts)
            if min(diff, 2 * math.pi - diff) <= fov / 2 + 1e-12:
                total += g
        windowed.append(total)
    # Same tie rule as the implementation: smallest angle within tolerance
    # of the maximum, so float rounding cannot flip exact real-valued ties.
    best = int(np.argmax(np.array(windowed) >= max(windowed) - 1e-9))
    return np.array(gains), np.array(windowed), float(dirs[best])


class TestScanOrientations:
    def test_unknown_only_east_fov_90(self):
        occ = unknown_grid(w=30, h=30, res=0.1)
        occ.p[:] = 0.1
        gi, gj = 10, 15
        occ.p[:, gi + 1:] = UNKNOWN_P  # everything strictly east is unknown
        params = RayCastParams(delta_theta=math.radians(9.0))
        scan = scan_orientations(occ, (gi, gj), params,
                                 fov=math.radians(90.0), max_range=1.0)
        assert scan.best_theta == 0.0

    def test_fully_known_map_zero_gain_theta_zero(self):
        occ = unknown_grid()
        occ.p[:] = 0.1
        scan = scan_orientations(occ, (10, 10), RayCastParams())
        assert scan.best_gain == 0.0
        assert scan.best_theta == 0.0

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(40)
        params = RayCastParams()
        fov, max_range = math.radians(87.0), 2.0
        for _ in range(20):
            occ = unknown_grid(w=32, h=32, res=0.1)
            known = rng.random((32, 32)) < 0.5
            occ.p[known] = rng.choice([0.1, 0.9], size=int(known.sum()),
                                      p=[0.8, 0.2])
            goal = (rng.uniform(0.4, 2.8), rng.uniform(0.4, 2.8))
            scan = scan_orientations(occ, occ.spec.world_to_cell(*goal), params, fov, max_range)
            gains, windowed, best_theta = brute_force_scan(occ, goal, params, fov, max_range)
            assert np.allclose(scan.ray_gains, gains, atol=1e-12)
            assert np.allclose(scan.windowed_gains, windowed, atol=1e-12)
            assert scan.best_theta == best_theta

    def test_scan_many_bitwise_equals_individual_scans(self):
        rng = np.random.default_rng(41)
        occ = unknown_grid(w=40, h=40, res=0.1)
        known = rng.random((40, 40)) < 0.6
        occ.p[known] = 0.1
        goals = [(rng.uniform(0.5, 3.5), rng.uniform(0.5, 3.5)) for _ in range(12)]
        cells = [occ.spec.world_to_cell(*goal) for goal in goals]
        params = RayCastParams()
        batch = scan_many(occ, cells, params)
        for cell, got in zip(cells, batch):
            single = scan_orientations(occ, cell, params)
            assert np.array_equal(got.ray_gains, single.ray_gains)
            assert np.array_equal(got.windowed_gains, single.windowed_gains)
            assert got.best_theta == single.best_theta
            assert got.best_gain == single.best_gain

    # The origin lies far below zero, so each of these cells, read as a world
    # point, would fall inside the grid.
    OFFSET_SPEC = GridSpec(-120.0, -120.0, 2.4, 100, 100)

    @pytest.mark.parametrize("cell, error", [
        ((-1, 0), OutOfBoundsError),       # would read the gather's pad cells
        ((0, 100), OutOfBoundsError),
        ((-100, -100), OutOfBoundsError),  # past the pad: the flat gather would wrap
        ((1.0, 1.0), ValueError),          # a world point, not a cell
    ], ids=["left-of-grid", "above-grid", "beyond-reach", "float-point"])
    def test_cell_outside_grid_or_not_integer_rejected(self, cell, error):
        occ = OccupancyGrid.unknown(self.OFFSET_SPEC)
        with pytest.raises(error):
            scan_orientations(occ, cell, RayCastParams())
        with pytest.raises(error):
            scan_many(occ, [(50, 50), cell], RayCastParams())

    def test_corner_cells_and_integer_arrays_accepted(self):
        occ = OccupancyGrid.unknown(self.OFFSET_SPEC)
        cells = [(0, 0), (99, 0), (0, 99), (99, 99)]
        scans = scan_many(occ, np.array(cells), RayCastParams())
        for cell, got in zip(cells, scans):
            assert np.array_equal(got.ray_gains,
                                  scan_orientations(occ, cell, RayCastParams()).ray_gains)


class TestRayCastParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RayCastParams(delta_theta=0.0)
        with pytest.raises(ValueError):
            RayCastParams(gamma=0.0)
        with pytest.raises(ValueError):
            RayCastParams(gamma=1.5)
        occ = unknown_grid()
        with pytest.raises(ValueError):
            scan_orientations(occ, (10, 10), RayCastParams(), max_range=-1.0)
        with pytest.raises(ValueError):
            cast_ray(occ, (1.0, 1.0), 0.0, RayCastParams(), max_range=-1.0)
        with pytest.raises(ValueError):
            scan_orientations(occ, (10, 10), RayCastParams(), fov=7.0)
        with pytest.raises(ValueError):
            scan_orientations(occ, (10, 10), RayCastParams(delta_theta=0.5), fov=0.4)


def reference_ray_gains(tmpl, occ, centers_i, centers_j):
    """The int64 ray-gain kernel: clipped (C, D, L) cell coordinates, an
    in-grid mask, and a cumsum mask for the cells past the first block."""
    spec = occ.spec
    valid = tmpl.keep != 0
    gain_table = tmpl.gain_table[1:]  # gain_table[n]: the (n+1)-th unknown cell
    i = centers_i[:, None, None] + tmpl.di[None]
    j = centers_j[:, None, None] + tmpl.dj[None]
    inside = (i >= 0) & (i < spec.width) & (j >= 0) & (j < spec.height)
    alive = valid[None] & inside
    p = occ.p[j.clip(0, spec.height - 1), i.clip(0, spec.width - 1)]
    blocked = (p > OCCUPIED_THRESHOLD) & alive
    # Cells strictly past the first blocked cell are unreachable.
    past_block = np.cumsum(blocked, axis=2) - blocked > 0
    alive &= ~past_block
    unknown = (p == UNKNOWN_P) & alive & ~blocked
    n_before = np.cumsum(unknown, axis=2) - unknown
    gains = np.where(unknown, gain_table[n_before], 0.0)
    return gains.sum(axis=2)


def assert_kernel_matches_reference(tmpl, occ, ci, cj, batch):
    for lo in range(0, len(ci), batch):
        got = tmpl.ray_gains(occ, ci[lo:lo + batch], cj[lo:lo + batch])
        want = reference_ray_gains(tmpl, occ, ci[lo:lo + batch], cj[lo:lo + batch])
        assert got.tobytes() == want.tobytes()


class TestRayGainsKernel:
    """The padded class-grid kernel gives the reference kernel's bytes."""

    # The clamped logistic of 0 and +-1..3 steps of log 4: probabilities
    # between the clamps, which no mission holds but any grid may.
    RUNGS = [0.02, 1 / 17, 0.2, UNKNOWN_P, 0.8, 16 / 17, 0.98]

    @pytest.mark.parametrize("batch", [1, 50])
    @pytest.mark.parametrize("max_range, res", [(2.0, 0.1), (DEFAULT_MAX_DEPTH, 0.15)])
    def test_random_grids_with_edge_centers(self, batch, max_range, res):
        rng = np.random.default_rng(42)
        tmpl = _template(RayCastParams(), DEFAULT_FOV, max_range, res)
        w, h = 37, 23  # not square, so a swapped row stride shows
        # Every edge and corner cell, then random interior cells.
        edge = [(i, j) for i in range(w) for j in range(h) if i in (0, w - 1) or j in (0, h - 1)]
        inner = [(int(rng.integers(1, w - 1)), int(rng.integers(1, h - 1))) for _ in range(60)]
        ci, cj = np.array(edge + inner).T
        values = np.r_[self.RUNGS, OCCUPIED_THRESHOLD]
        for _ in range(4):
            occ = OccupancyGrid(GridSpec(0.0, 0.0, res, w, h),
                                rng.choice(values, size=(h, w), p=[.1, .1, .1, .4, .1, .05, .05, .1]))
            assert set(np.unique(occ.p)) == set(values)
            assert_kernel_matches_reference(tmpl, occ, ci, cj, batch)

    def test_ramp_yard_mission_snapshots(self, monkeypatch):
        seen = []

        def spy(occ, cells, params, fov, max_range):
            seen.append((occ.copy(), np.array(cells),
                         _template(params, fov, max_range, occ.spec.resolution)))
            return scan_many(occ, cells, params, fov, max_range)

        monkeypatch.setattr(harness, "scan_many", spy)
        harness.run_mission(WorldConfig.from_json(preset_world_path("ramp_yard")), "fit", 1,
                            max_mission_time=200.0)
        assert len(seen) >= 10
        for occ, cells, tmpl in seen:
            assert_kernel_matches_reference(tmpl, occ, cells[:, 0], cells[:, 1], len(cells))
