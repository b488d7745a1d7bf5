import numpy as np
import pytest

from fitslam import utility
from fitslam.grid import GridSpec
from fitslam.utility import UtilityParams, compute_u1, select_best, shortlist
from oracles import linear_array

SPEC = GridSpec(0.1, 50, 50)


def u1_of(rho, delta_e, alpha):
    return compute_u1(np.array(rho, dtype=float), np.array(delta_e, dtype=float),
                      UtilityParams(alpha=alpha), SPEC.resolution)


def short_of(u1, rho, cells, n):
    return shortlist(np.array(u1, dtype=float), np.array(rho, dtype=float),
                     linear_array(cells, SPEC), n).tolist()


@pytest.fixture
def select(monkeypatch):
    """`select_best` on lists and (i, j) cells, returning the u2 it ranked and the
    index it picked."""
    ranked, scores = utility._ranked, []

    def recorded(score, rho, cells):
        scores.append(score)
        return ranked(score, rho, cells)

    monkeypatch.setattr(utility, "_ranked", recorded)

    def run(u1, info, rho, cells, beta=0.4):
        best = select_best(np.array(u1, dtype=float), np.array(info, dtype=float),
                           np.array(rho, dtype=float), linear_array(cells, SPEC),
                           UtilityParams(beta=beta))
        return scores[-1].tolist(), best
    return run


class TestUtilityParams:
    def test_defaults(self):
        p = UtilityParams()
        assert p.alpha == 0.35 and p.beta == 0.4 and p.shortlist_n == 7

    def test_ranges_checked(self):
        with pytest.raises(ValueError):
            UtilityParams(alpha=1.2)
        with pytest.raises(ValueError):
            UtilityParams(beta=-0.1)
        with pytest.raises(ValueError):
            UtilityParams(shortlist_n=0)


class TestComputeU1:
    def test_hand_example(self):
        # (rho=2, dE=4) and (rho=4, dE=8) at alpha 0.35:
        # u1 = 0.35*1 + 0.65*0.5 = 0.675 and 0.35*0.5 + 0.65*1 = 0.825.
        assert u1_of([2.0, 4.0], [4.0, 8.0], 0.35).tolist() == [pytest.approx(0.675),
                                                                 pytest.approx(0.825)]

    def test_alpha_one_ranks_by_distance(self):
        rho = np.array([5.0, 2.0, 9.0])
        u1 = u1_of(rho, 10.0 - rho, 1.0)
        assert rho[np.argsort(-u1)].tolist() == [2.0, 5.0, 9.0]

    def test_alpha_zero_ranks_by_gain(self):
        gains = np.array([3.0, 9.0, 6.0])
        u1 = u1_of([1.0, 2.0, 3.0], gains, 0.0)
        assert gains[np.argsort(-u1)].tolist() == [9.0, 6.0, 3.0]

    def test_zero_gain_set_contributes_nothing(self):
        assert u1_of([2.0, 4.0], [0.0, 0.0], 0.35).tolist() == [pytest.approx(0.35),
                                                                 pytest.approx(0.175)]

    def test_short_rho_clamped_to_resolution(self):
        u1 = u1_of([0.0, 1.0], [1.0, 1.0], 1.0)
        assert u1[0] == pytest.approx(1.0)  # clamped, not infinite


class TestShortlist:
    def test_fewer_than_n_returns_all(self):
        rho = [1.0, 2.0, 3.0]
        u1 = u1_of(rho, [1.0, 1.0, 1.0], 0.35)
        assert len(short_of(u1, rho, [(i, 0) for i in range(3)], 7)) == 3

    def test_equal_u1_smaller_rho_first(self):
        assert short_of([0.5, 0.5], [3.0, 2.0], [(0, 0), (1, 0)], 2)[0] == 1

    def test_n_one_is_argmax(self):
        gains = [1.0, 5.0, 3.0]
        u1 = u1_of([2.0, 2.0, 2.0], gains, 0.0)
        [best] = short_of(u1, [2.0, 2.0, 2.0], [(i, 0) for i in range(3)], 1)
        assert gains[best] == 5.0

    def test_row_major_tiebreak(self):
        assert short_of([0.7, 0.7], [2.0, 2.0], [(4, 2), (3, 2)], 2)[0] == 1

    def test_row_major_tiebreak_across_rows(self):
        # The lower row wins even with the larger column: j first, then i.
        assert short_of([0.7, 0.7], [2.0, 2.0], [(0, 3), (5, 2)], 2)[0] == 1

    def test_bad_n(self):
        with pytest.raises(ValueError):
            short_of([], [], [], 0)


class TestSelectBest:
    def test_hand_example(self, select):
        # u1 = 0.675 / 0.825 with raw infos 2 / 9, normalized by 1 / (1 + 9)
        # to 0.2 / 0.9, at beta 0.4: u2 = 0.39 vs 0.87, second selected.
        u2, best = select([0.675, 0.825], [2.0, 9.0], [2.0, 4.0], [(1, 1), (2, 2)], beta=0.4)
        assert u2 == [pytest.approx(0.39), pytest.approx(0.87)]
        assert best == 1

    def test_beta_one_equals_u1_argmax(self, select):
        _, best = select([0.9, 0.3], [10.0, 0.0], [2.0, 4.0], [(1, 1), (2, 2)], beta=1.0)
        assert best == 0

    def test_beta_zero_equals_info_argmax(self, select):
        _, best = select([0.9, 0.3], [1.0, 5.0], [2.0, 4.0], [(1, 1), (2, 2)], beta=0.0)
        assert best == 1

    def test_auto_normalizes_raw_infos(self, select):
        # Raw infos 1 / 3 share the scale 1 / (1 + 3): terms 0.25 / 0.75, so
        # u2 = 0.4 * 0.5 + 0.6 * 0.25 = 0.35 and 0.2 + 0.6 * 0.75 = 0.65.
        u2, _ = select([0.5, 0.5], [1.0, 3.0], [2.0, 4.0], [(1, 1), (2, 2)], beta=0.4)
        assert u2 == [pytest.approx(0.35), pytest.approx(0.65)]

    def test_info_terms_share_one_scale(self, select):
        # At beta 0, u2 is the information term alone: raw / (1 + max raw).
        u2, _ = select([0.5] * 3, [1.0, 3.0, 0.0], [2.0] * 3, [(i, 0) for i in range(3)],
                       beta=0.0)
        assert u2 == [pytest.approx(0.25), pytest.approx(0.75), 0.0]

    def test_info_term_below_one(self, select):
        [u2], _ = select([0.0], [1e6], [2.0], [(1, 1)], beta=0.0)
        assert 0.0 <= u2 < 1.0

    def test_row_major_tiebreak_across_rows(self, select):
        _, best = select([0.5, 0.5], [1.0, 1.0], [2.0, 2.0], [(0, 3), (5, 2)])
        assert best == 1

    def test_info_ranking_invariant_under_scaling_at_beta_zero(self):
        # The shared normalizer rescales every candidate by the same factor,
        # so pure information ranking cannot change when raws are scaled.
        rng = np.random.default_rng(4)
        params, rho = UtilityParams(beta=0.0), 1.0 + np.arange(5)
        cells = linear_array([(i, 0) for i in range(5)], SPEC)
        for _ in range(10):
            info, u1 = np.array([(rng.uniform(0.1, 50), rng.uniform(0, 1)) for _ in cells]).T
            first = select_best(u1, info, rho, cells, params)
            assert select_best(u1, info * 7.0, rho, cells, params) == first
