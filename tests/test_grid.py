import numpy as np
import pytest

from fitslam.grid import (
    BLOCKED,
    BinaryTraversabilityGrid,
    FREE,
    GridSpec,
    OccupancyGrid,
    OutOfBoundsError,
    TraversabilityGrid,
    UNKNOWN,
    UNKNOWN_P,
    shift,
)


def make_spec(res=0.05, w=100, h=100):
    return GridSpec(res, w, h)


class TestGridSpec:
    def test_origin_corner_maps_to_cell_zero(self):
        spec = make_spec()
        assert spec.world_to_cell(0.0, 0.0) == (0, 0)

    def test_world_to_cell_floor_division(self):
        spec = make_spec()
        assert spec.world_to_cell(0.26, 0.11) == (5, 2)

    def test_point_outside_extent_raises(self):
        spec = make_spec()
        with pytest.raises(OutOfBoundsError):
            spec.world_to_cell(-0.01, 0.0)
        with pytest.raises(OutOfBoundsError):
            spec.world_to_cell(0.0, 5.0)

    def test_cell_to_world_is_center(self):
        spec = make_spec()
        assert spec.cell_to_world(0, 0) == (0.025, 0.025)
        coarse = GridSpec(0.5, 10, 10)
        assert coarse.cell_to_world(4, 0) == (2.25, 0.25)

    def test_cell_to_world_out_of_bounds(self):
        spec = make_spec()
        with pytest.raises(OutOfBoundsError):
            spec.cell_to_world(100, 0)

    def test_cell_to_world_arrays_match_each_cell(self):
        spec = GridSpec(0.13, 17, 9)
        j, i = np.divmod(np.arange(spec.n_cells), spec.width)
        x, y = spec.cell_to_world(i, j)
        assert list(zip(x.tolist(), y.tolist())) == [
            spec.cell_to_world(int(a), int(b)) for a, b in zip(i, j)]
        for bad_i, bad_j in ((-1, 0), (0, -1), (spec.width, 0), (0, spec.height)):
            with pytest.raises(OutOfBoundsError):
                spec.cell_to_world(np.append(i, bad_i), np.append(j, bad_j))

    def test_round_trip_center_returns_same_cell(self):
        spec = GridSpec(0.13, 17, 9)
        for i in range(spec.width):
            for j in range(spec.height):
                x, y = spec.cell_to_world(i, j)
                assert spec.world_to_cell(x, y) == (i, j)

    def test_point_in_bounds_is_half_open(self):
        spec = make_spec(w=10, h=10)
        assert spec.point_in_bounds(0.0, 0.0)
        assert not spec.point_in_bounds(0.5, 0.0)  # right edge excluded
        assert spec.point_in_bounds(0.499999, 0.499999)

    def test_linear_index_row_major(self):
        spec = make_spec(w=7, h=3)
        assert spec.linear_index(0, 0) == 0
        assert spec.linear_index(6, 0) == 6
        assert spec.linear_index(0, 1) == 7
        assert spec.linear_index(2, 2) == 16
        assert spec.n_cells == 21

    def test_cell_centers_shapes_and_values(self):
        spec = GridSpec(0.5, 4, 3)
        xs, ys = spec.cell_centers()
        assert xs.tolist() == [0.25, 0.75, 1.25, 1.75]
        assert ys.tolist() == [0.25, 0.75, 1.25]
        for i in range(spec.width):
            for j in range(spec.height):
                assert (xs[i], ys[j]) == spec.cell_to_world(i, j)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 10, 10)
        with pytest.raises(ValueError):
            GridSpec(0.1, 0, 10)
        with pytest.raises(ValueError):
            GridSpec(float("inf"), 10, 10)


class TestOccupancyGrid:
    def test_unknown_constructor(self):
        spec = make_spec(w=5, h=4)
        occ = OccupancyGrid.unknown(spec)
        assert occ.p.shape == (4, 5)
        assert np.all(occ.p == UNKNOWN_P)
        assert occ.unknown_mask().all()

    def test_shape_mismatch_rejected(self):
        spec = make_spec(w=5, h=4)
        with pytest.raises(ValueError):
            OccupancyGrid(spec, np.zeros((5, 4)))

    def test_text_round_trip(self):
        spec = GridSpec(0.25, 3, 2)
        p = np.array([[0.5, 0.02, 0.98], [0.731059, 0.5, 0.1]])
        assert OccupancyGrid(spec, p).to_text() == \
            "3 2 0.25 0 0\n0.5 0.02 0.98\n0.731059 0.5 0.1\n"

    def test_copy_is_independent(self):
        occ = OccupancyGrid.unknown(make_spec(w=3, h=3))
        dup = OccupancyGrid(occ.spec, occ.p.copy())
        dup.p[0, 0] = 0.9
        assert occ.p[0, 0] == UNKNOWN_P


class TestTraversabilityGrid:
    def test_text_round_trip_with_unknown(self):
        spec = GridSpec(0.1, 3, 2)
        score = np.array([[np.nan, 0.25, 1.0], [0.0, np.nan, 0.333333]])
        assert TraversabilityGrid(spec, score).to_text() == \
            "3 2 0.1 0 0\n? 0.25 1\n0 ? 0.333333\n"


class TestBinaryGrid:
    def test_text_round_trip(self):
        spec = GridSpec(0.1, 3, 3)
        state = np.array([[UNKNOWN, FREE, BLOCKED],
                          [FREE, FREE, FREE],
                          [BLOCKED, UNKNOWN, FREE]], dtype=np.int8)
        assert BinaryTraversabilityGrid(spec, state).to_text() == \
            "3 3 0.1 0 0\n? . #\n. . .\n# ? .\n"

    def test_free_mask_and_is_free(self):
        spec = GridSpec(0.1, 2, 2)
        state = np.array([[FREE, BLOCKED], [UNKNOWN, FREE]], dtype=np.int8)
        grid = BinaryTraversabilityGrid(spec, state)
        assert grid.is_free(0, 0) and grid.is_free(1, 1)
        assert not grid.is_free(1, 0) and not grid.is_free(0, 1)
        assert grid.free_mask().sum() == 2


def pad_shift(arr, di, dj):
    """Oracle: out[j, i] = arr[j - dj, i - di] read from a zero-padded copy."""
    h, w = arr.shape
    padded = np.pad(arr, 1)
    return padded[1 - dj:1 - dj + h, 1 - di:1 - di + w]


class TestShift:
    @pytest.mark.parametrize("di, dj", [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                                        if (di, dj) != (0, 0)])
    def test_matches_pad_oracle(self, di, dj):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(5, 7))
        mask = rng.random((5, 7)) < 0.5
        for arr in (values, mask):
            got = shift(arr, di, dj)
            assert got.dtype == arr.dtype
            assert np.array_equal(got, pad_shift(arr, di, dj))
