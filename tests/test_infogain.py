import math

import numpy as np
import pytest

from fitslam import harness, preset_world_path
from fitslam.fisher import Camera
from fitslam.grid import GridSpec, OccupancyGrid, OutOfBoundsError, UNKNOWN_P
from fitslam.infogain import (
    OCCUPIED_THRESHOLD,
    RayCastParams,
    _ScanTemplate,
    _clean_boxes,
    _template,
    cast_ray,
    cell_entropy,
    ray_directions,
    scan_many,
    scan_orientations,
)
from fitslam.simworld import WorldConfig
from oracles import brute_force_scan, linear_array


def unknown_grid(w=20, h=20, res=0.1):
    return OccupancyGrid.unknown(GridSpec(res, w, h))


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
        ray = cast_ray(occ, (1.05, 1.05), 0.0, RayCastParams(), Camera())
        first = ray.cells[0]
        assert first.observability == 1.0
        assert first.posterior == 1.0
        assert first.gain == 1.0

    def test_fourth_unknown_cell(self):
        occ = unknown_grid()
        ray = cast_ray(occ, (0.05, 1.05), 0.0, RayCastParams(gamma=0.9), Camera())
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
        ray = cast_ray(occ, (0.05, 0.55), 0.0, RayCastParams(), Camera())
        assert ray.gain == 0.0
        assert all(c.gain == 0.0 for c in ray.cells)

    def test_occupied_cell_blocks(self):
        occ = unknown_grid(res=0.1)
        occ.p[5, 8] = 0.9  # wall cell (8, 5)
        ray = cast_ray(occ, (0.05, 0.55), 0.0, RayCastParams(), Camera(max_depth=5.0))
        assert ray.cells[-1].cell == (8, 5)
        assert ray.cells[-1].gain == 0.0
        assert len(ray.cells) == 9  # cells 0..8 along the row

    def test_threshold_boundary_does_not_block(self):
        occ = unknown_grid()
        occ.p[5, 3] = 0.65  # exactly at the threshold: not blocking
        ray = cast_ray(occ, (0.05, 0.55), 0.0, RayCastParams(), Camera())
        assert any(c.cell == (4, 5) for c in ray.cells)

    def test_max_range_limits_walk(self):
        occ = unknown_grid(w=60, h=60, res=0.1)
        ray = cast_ray(occ, (0.05, 0.05), 0.0, RayCastParams(), Camera(max_depth=2.0))
        assert len(ray.cells) <= int(2.0 / 0.1) + 1

    def test_each_cell_visited_once(self):
        occ = unknown_grid(w=40, h=40)
        ray = cast_ray(occ, (0.31, 0.17), 0.9, RayCastParams(), Camera())
        cells = [c.cell for c in ray.cells]
        assert len(cells) == len(set(cells))

    def test_origin_outside_grid_rejected(self):
        occ = unknown_grid()
        with pytest.raises(ValueError):
            cast_ray(occ, (-1.0, 0.5), 0.0, RayCastParams(), Camera())


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


def assert_single_scans_match(occ, cells, params, camera, batch):
    """Each cell's `scan_orientations` against `scan_many`'s (gain, theta) arrays
    `batch`, and its ray and windowed gains against the kernels run over the
    whole padded grid, bit for bit."""
    gain, theta, _ = batch
    assert gain.dtype == theta.dtype == np.float64
    assert gain.shape == theta.shape == (len(cells),)
    tmpl = _template(params, camera, occ.spec.resolution)
    ci, cj = np.array(cells).T
    rays = tmpl.ray_gains(tmpl.classify(occ), ci, cj)
    windowed = tmpl.windowed_gains(rays)
    for n, cell in enumerate(cells):
        single = scan_orientations(occ, cell, params, camera)
        assert single.directions.tobytes() == tmpl.directions.tobytes(), cell
        assert single.ray_gains.tobytes() == rays[n].tobytes(), cell
        assert single.windowed_gains.tobytes() == windowed[n].tobytes(), cell
        assert (np.float64([single.best_gain, single.best_theta]).tobytes()
                == np.float64([gain[n], theta[n]]).tobytes()), cell


class TestScanOrientations:
    def test_unknown_only_east_fov_90(self):
        occ = unknown_grid(w=30, h=30, res=0.1)
        occ.p[:] = 0.1
        gi, gj = 10, 15
        occ.p[:, gi + 1:] = UNKNOWN_P  # everything strictly east is unknown
        params = RayCastParams(delta_theta=math.radians(9.0))
        scan = scan_orientations(occ, (gi, gj), params, Camera(math.radians(90.0), 1.0))
        assert scan.best_theta == 0.0

    def test_fully_known_map_zero_gain_theta_zero(self):
        occ = unknown_grid()
        occ.p[:] = 0.1
        scan = scan_orientations(occ, (10, 10), RayCastParams(), Camera())
        assert scan.best_gain == 0.0
        assert scan.best_theta == 0.0

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(40)
        params = RayCastParams()
        camera = Camera(math.radians(87.0), 2.0)
        for _ in range(20):
            occ = unknown_grid(w=32, h=32, res=0.1)
            known = rng.random((32, 32)) < 0.5
            occ.p[known] = rng.choice([0.1, 0.9], size=int(known.sum()),
                                      p=[0.8, 0.2])
            goal = (rng.uniform(0.4, 2.8), rng.uniform(0.4, 2.8))
            scan = scan_orientations(occ, occ.spec.world_to_cell(*goal), params, camera)
            gains, windowed, best_theta = brute_force_scan(occ, goal, params, camera)
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
        batch = scan_many(occ, linear_array(cells, occ.spec), params, Camera(), None)
        assert_single_scans_match(occ, cells, params, Camera(), batch)

    @pytest.mark.parametrize("w, h, res", [(60, 45, 0.1), (9, 6, 0.15), (1, 1, 0.15)],
                             ids=["wider_than_reach", "inside_one_reach", "one_cell"])
    def test_reach_box_scan_equals_scan_many_bitwise(self, w, h, res):
        # `scan_orientations` classifies only its cell's reach box; `scan_many` the
        # whole padded grid. Interior, edge and corner cells, on a grid of mixed
        # classes and on grids that every reach box overhangs on all sides.
        rng = np.random.default_rng(43)
        occ = unknown_grid(w=w, h=h, res=res)
        u = rng.random((h, w))
        occ.p[u < 0.5] = 0.1
        occ.p[u > 0.85] = 0.9
        cells = {(i, j) for i in (0, 1, w // 2, w - 2, w - 1) for j in (0, 1, h // 2, h - 2, h - 1)
                 if 0 <= i < w and 0 <= j < h}
        cells = sorted(cells) + [(int(i), int(j)) for i, j in zip(rng.integers(0, w, 8),
                                                                    rng.integers(0, h, 8))]
        params, camera = RayCastParams(), Camera()
        batch = scan_many(occ, linear_array(cells, occ.spec), params, camera, None)
        assert_single_scans_match(occ, cells, params, camera, batch)
        assert (batch[0] > 0).any()

    # Cells 2.4 m wide, so a cell index past the top edge, read as a world point,
    # would fall inside the 240 m grid.
    WIDE_SPEC = GridSpec(2.4, 100, 100)

    @pytest.mark.parametrize("cell, error", [
        ((-1, 0), OutOfBoundsError),       # would read the gather's pad cells
        ((0, 100), OutOfBoundsError),
        ((-100, -100), OutOfBoundsError),  # past the pad: the flat gather would wrap
        ((1.0, 1.0), ValueError),          # a world point, not a cell
    ], ids=["left-of-grid", "above-grid", "beyond-reach", "float-point"])
    def test_cell_outside_grid_or_not_integer_rejected(self, cell, error):
        occ = OccupancyGrid.unknown(self.WIDE_SPEC)
        with pytest.raises(error):
            scan_orientations(occ, cell, RayCastParams(), Camera())
        with pytest.raises(error):
            scan_many(occ, linear_array([(50, 50), cell], occ.spec), RayCastParams(), Camera(),
                      None)

    def test_pairs_in_place_of_linear_indices_rejected(self):
        occ = OccupancyGrid.unknown(self.WIDE_SPEC)
        with pytest.raises(ValueError, match="1-D integer array"):
            scan_many(occ, np.array([(50, 50), (0, 0)]), RayCastParams(), Camera(), None)

    def test_corner_cells_and_integer_arrays_accepted(self):
        occ = OccupancyGrid.unknown(self.WIDE_SPEC)
        cells = [(0, 0), (99, 0), (0, 99), (99, 99)]
        batch = scan_many(occ, linear_array(cells, occ.spec), RayCastParams(), Camera(),
                          None)
        assert_single_scans_match(occ, cells, RayCastParams(), Camera(), batch)


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
            scan_orientations(occ, (10, 10), RayCastParams(), Camera(max_depth=-1.0))
        with pytest.raises(ValueError):
            cast_ray(occ, (1.0, 1.0), 0.0, RayCastParams(), Camera(max_depth=-1.0))
        with pytest.raises(ValueError):
            scan_orientations(occ, (10, 10), RayCastParams(), Camera(fov=7.0))
        with pytest.raises(ValueError):
            scan_orientations(occ, (10, 10), RayCastParams(delta_theta=0.5), Camera(fov=0.4))


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
        got = tmpl.ray_gains(tmpl.classify(occ), ci[lo:lo + batch], cj[lo:lo + batch])
        want = reference_ray_gains(tmpl, occ, ci[lo:lo + batch], cj[lo:lo + batch])
        assert got.tobytes() == want.tobytes()


class TestRayGainsKernel:
    """The padded class-grid kernel gives the reference kernel's bytes."""

    # The clamped logistic of 0 and +-1..3 steps of log 4: probabilities
    # between the clamps, which no mission holds but any grid may.
    RUNGS = [0.02, 1 / 17, 0.2, UNKNOWN_P, 0.8, 16 / 17, 0.98]

    @pytest.mark.parametrize("batch", [1, 50])
    @pytest.mark.parametrize("max_range, res", [(2.0, 0.1), (Camera().max_depth, 0.15)])
    def test_random_grids_with_edge_centers(self, batch, max_range, res):
        rng = np.random.default_rng(42)
        tmpl = _template(RayCastParams(), Camera(max_depth=max_range), res)
        w, h = 37, 23  # not square, so a swapped row stride shows
        # Every edge and corner cell, then random interior cells.
        edge = [(i, j) for i in range(w) for j in range(h) if i in (0, w - 1) or j in (0, h - 1)]
        inner = [(int(rng.integers(1, w - 1)), int(rng.integers(1, h - 1))) for _ in range(60)]
        ci, cj = np.array(edge + inner).T
        values = np.r_[self.RUNGS, OCCUPIED_THRESHOLD]
        for _ in range(4):
            occ = OccupancyGrid(GridSpec(res, w, h),
                                rng.choice(values, size=(h, w), p=[.1, .1, .1, .4, .1, .05, .05, .1]))
            assert set(np.unique(occ.p)) == set(values)
            assert_kernel_matches_reference(tmpl, occ, ci, cj, batch)

    def test_ramp_yard_mission_snapshots(self, monkeypatch):
        seen = run_with_memo_oracle(monkeypatch, "ramp_yard", 200.0)
        assert len(seen) >= 10
        for occ, cells, tmpl in seen:
            j, i = np.divmod(cells, occ.spec.width)
            assert_kernel_matches_reference(tmpl, occ, i, j, len(cells))


def assert_same_pair(got, want):
    """The (gain, theta) arrays of two `scan_many` results, bit for bit."""
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]


def spy_ray_gains(monkeypatch):
    """Record the scan centers of every `_ScanTemplate.ray_gains` call; returns the
    list of (i, j) array pairs the spy appends to."""
    passed = []
    kernel = _ScanTemplate.ray_gains

    def spy(tmpl, cls, centers_i, centers_j):
        passed.append((centers_i.copy(), centers_j.copy()))
        return kernel(tmpl, cls, centers_i, centers_j)

    monkeypatch.setattr(_ScanTemplate, "ray_gains", spy)
    return passed


def rescanned(passed, spec):
    """The linear cells passed to `ray_gains` since the record was last cleared;
    clears it."""
    cells = {int(j) * spec.width + int(i) for ci, cj in passed for i, j in zip(ci, cj)}
    passed.clear()
    return cells


def run_with_memo_oracle(monkeypatch, preset, max_mission_time):
    """Run a fit mission whose every `scan_many` call is checked against a
    fresh-memo scan of the same grid, bit for bit.

    Returns each call's grid, cells and template, and asserts that some cell
    was served from the memo, never passed to `ray_gains`, so the check is not
    vacuous.
    """
    seen = []
    served = 0
    passed = spy_ray_gains(monkeypatch)

    def spy(occ, cells, params, camera, memo):
        nonlocal served
        passed.clear()
        got = scan_many(occ, cells, params, camera, memo)
        served += len(set(cells.tolist()) - rescanned(passed, occ.spec))
        assert_same_pair(got, scan_many(occ, cells, params, camera, None))
        seen.append((OccupancyGrid(occ.spec, occ.p.copy()), np.array(cells),
                     _template(params, camera, occ.spec.resolution)))
        return got

    monkeypatch.setattr(harness, "scan_many", spy)
    harness.run_mission(WorldConfig.from_json(preset_world_path(preset)), "fit", 1,
                        max_mission_time=max_mission_time)
    assert served > 0
    return seen


@pytest.mark.slow
def test_obstacle_ring_mission_memo_matches_fresh_scans(monkeypatch):
    assert len(run_with_memo_oracle(monkeypatch, "obstacle_ring",
                                    harness.DEFAULT_MAX_MISSION_TIME)) >= 10


class TestScanMemo:
    """A kept (gain, theta) pair is bit-identical to a fresh one and its cell is
    not rescanned; a class change within reach of its center evicts it."""

    PARAMS, CAMERA, RES = RayCastParams(), Camera(max_depth=2.0), 0.1

    def scan(self, occ, cells, memo):
        return scan_many(occ, linear_array(cells, occ.spec), self.PARAMS, self.CAMERA, memo)

    def test_reveal_at_reach_evicts_and_past_reach_keeps(self, monkeypatch):
        tmpl = _template(self.PARAMS, self.CAMERA, self.RES)
        r = tmpl.reach
        occ = unknown_grid(w=2 * r + 5, h=2 * r + 5, res=self.RES)
        ci = cj = r + 2
        lin = cj * occ.spec.width + ci
        passed = spy_ray_gains(monkeypatch)
        *_, memo = self.scan(occ, [(ci, cj)], None)
        first = scan_orientations(occ, (ci, cj), self.PARAMS, self.CAMERA)
        passed.clear()

        # Past reach: no ray reads the cell, so the pair is kept.
        occ.p[cj, ci + r + 1] = 0.02
        kept = self.scan(occ, [(ci, cj)], memo)
        memo = kept[2]
        assert lin not in rescanned(passed, occ.spec)
        assert_same_pair(kept, self.scan(occ, [(ci, cj)], None))
        passed.clear()

        # At reach, on a cell a ray visits: the pair goes stale.
        far = (tmpl.keep != 0) & (np.maximum(abs(tmpl.di), abs(tmpl.dj)) == r)
        k, n = np.argwhere(far)[0]
        occ.p[cj + tmpl.dj[k, n], ci + tmpl.di[k, n]] = 0.02
        got = self.scan(occ, [(ci, cj)], memo)
        assert rescanned(passed, occ.spec) == {lin}
        assert_same_pair(got, self.scan(occ, [(ci, cj)], None))
        after = scan_orientations(occ, (ci, cj), self.PARAMS, self.CAMERA)
        assert after.ray_gains[k] < first.ray_gains[k]

    @pytest.mark.parametrize("density", [0.0, 0.001, 0.05])
    def test_clean_boxes_match_brute_force(self, density):
        rng = np.random.default_rng(7)
        changed = np.zeros((40, 50), dtype=bool)
        changed[5:35, 12:30] = rng.random((30, 18)) < density
        i, j = rng.integers(0, 50 - 8, 300), rng.integers(0, 40 - 8, 300)
        want = [not changed[b:b + 9, a:a + 9].any() for a, b in zip(i, j)]
        assert _clean_boxes(changed, i, j, 9).tolist() == want

    def test_memo_keeps_only_the_last_calls_cells(self, monkeypatch):
        occ = unknown_grid(w=30, h=30, res=self.RES)
        a, b = 5 * 30 + 5, 20 * 30 + 20
        passed = spy_ray_gains(monkeypatch)
        first = self.scan(occ, [(5, 5), (20, 20)], None)
        passed.clear()
        second = self.scan(occ, [(20, 20)], first[2])
        assert_same_pair(second, [x[1:] for x in first[:2]])
        assert not rescanned(passed, occ.spec)
        for kept in second[2][2:]:
            assert np.flatnonzero(~np.isnan(kept)).tolist() == [b]
        third = self.scan(occ, [(5, 5)], second[2])
        assert_same_pair(third, [x[:1] for x in first[:2]])
        assert rescanned(passed, occ.spec) == {a}
        for kept in third[2][2:]:
            assert np.flatnonzero(~np.isnan(kept)).tolist() == [a]

    def test_memo_arrays_are_allocated_once(self):
        occ = unknown_grid(w=30, h=30, res=self.RES)
        *_, memo = self.scan(occ, [(5, 5)], None)
        *_, again = self.scan(occ, [(20, 20)], memo)
        assert all(x is y for x, y in zip(memo[2:], again[2:]))

    def test_cell_absent_from_the_last_call_is_rescanned(self, monkeypatch):
        # Call 2 leaves A out after a class in A's reach box changed, and call 3
        # brings the same grid as call 2. So only A's absence from call 2, not
        # the class grids, tells call 3 that A's value from call 1 is stale.
        occ = unknown_grid(w=30, h=30, res=self.RES)
        a = 5 * 30 + 5
        passed = spy_ray_gains(monkeypatch)
        first = self.scan(occ, [(5, 5)], None)
        occ.p[5, 6:8] = 0.9  # a wall just east of A
        *_, memo = self.scan(occ, [(20, 20)], first[2])
        passed.clear()
        got = self.scan(occ, [(5, 5)], memo)
        assert rescanned(passed, occ.spec) == {a}
        assert_same_pair(got, self.scan(occ, [(5, 5)], None))
        assert got[0][0] != first[0][0]

    @pytest.mark.parametrize("change", ["params", "camera", "resolution", "shape"])
    def test_other_template_or_grid_shape_rejected(self, change):
        *_, memo = self.scan(unknown_grid(w=30, h=30, res=self.RES), [(5, 5)], None)
        params, camera = self.PARAMS, self.CAMERA
        w, res = 30, self.RES
        if change == "params":
            params = RayCastParams(gamma=0.8)
        elif change == "camera":
            camera = Camera(max_depth=1.0)
        elif change == "resolution":
            res = 0.2
        else:
            w = 31
        occ = unknown_grid(w=w, h=30, res=res)
        with pytest.raises(ValueError, match="scan memo"):
            scan_many(occ, linear_array([(5, 5)], occ.spec), params, camera, memo)
