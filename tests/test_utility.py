import numpy as np
import pytest

from fitslam.grid import GridSpec
from fitslam.utility import (
    CandidateGoal,
    EmptyCandidateSetError,
    UtilityParams,
    compute_u1,
    select_best,
    shortlist,
)

SPEC = GridSpec(0.0, 0.0, 0.1, 50, 50)


def make_candidate(cell, rho, delta_e, raw_info=None):
    return CandidateGoal(cell=cell, path=None, rho=rho, delta_e=delta_e,
                         theta_star=0.0, info=raw_info)


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
        a = make_candidate((1, 1), 2.0, 4.0)
        b = make_candidate((2, 2), 4.0, 8.0)
        compute_u1([a, b], UtilityParams(alpha=0.35), SPEC.resolution)
        assert a.u1 == pytest.approx(0.675)
        assert b.u1 == pytest.approx(0.825)

    def test_alpha_one_ranks_by_distance(self):
        cands = [make_candidate((i, 0), rho, 10.0 - rho)
                 for i, rho in enumerate((5.0, 2.0, 9.0))]
        compute_u1(cands, UtilityParams(alpha=1.0), SPEC.resolution)
        order = sorted(cands, key=lambda c: -c.u1)
        assert [c.rho for c in order] == [2.0, 5.0, 9.0]

    def test_alpha_zero_ranks_by_gain(self):
        cands = [make_candidate((i, 0), 1.0 + i, g)
                 for i, g in enumerate((3.0, 9.0, 6.0))]
        compute_u1(cands, UtilityParams(alpha=0.0), SPEC.resolution)
        order = sorted(cands, key=lambda c: -c.u1)
        assert [c.delta_e for c in order] == [9.0, 6.0, 3.0]

    def test_zero_gain_set_contributes_nothing(self):
        cands = [make_candidate((0, 0), 2.0, 0.0), make_candidate((1, 0), 4.0, 0.0)]
        compute_u1(cands, UtilityParams(alpha=0.35), SPEC.resolution)
        assert cands[0].u1 == pytest.approx(0.35)
        assert cands[1].u1 == pytest.approx(0.175)

    def test_short_rho_clamped_to_resolution(self):
        cands = [make_candidate((0, 0), 0.0, 1.0), make_candidate((1, 0), 1.0, 1.0)]
        compute_u1(cands, UtilityParams(alpha=1.0), SPEC.resolution)
        assert cands[0].u1 == pytest.approx(1.0)  # clamped, not infinite

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyCandidateSetError):
            compute_u1([], UtilityParams(), SPEC.resolution)


class TestShortlist:
    def test_fewer_than_n_returns_all(self):
        cands = [make_candidate((i, 0), 1.0 + i, 1.0) for i in range(3)]
        compute_u1(cands, UtilityParams(), SPEC.resolution)
        assert len(shortlist(cands, 7)) == 3

    def test_equal_u1_smaller_rho_first(self):
        a = make_candidate((0, 0), 3.0, 1.0)
        b = make_candidate((1, 0), 2.0, 1.0)
        a.u1 = b.u1 = 0.5
        assert shortlist([a, b], 2)[0] is b

    def test_n_one_is_argmax(self):
        cands = [make_candidate((i, 0), 2.0, g) for i, g in enumerate((1.0, 5.0, 3.0))]
        compute_u1(cands, UtilityParams(alpha=0.0), SPEC.resolution)
        assert shortlist(cands, 1)[0].delta_e == 5.0

    def test_row_major_tiebreak(self):
        a = make_candidate((4, 2), 2.0, 1.0)
        b = make_candidate((3, 2), 2.0, 1.0)
        a.u1 = b.u1 = 0.7
        assert shortlist([a, b], 2)[0] is b

    def test_row_major_tiebreak_across_rows(self):
        # The lower row wins even with the larger column: j first, then i.
        a = make_candidate((0, 3), 2.0, 1.0)
        b = make_candidate((5, 2), 2.0, 1.0)
        a.u1 = b.u1 = 0.7
        assert shortlist([a, b], 2)[0] is b

    def test_bad_n(self):
        with pytest.raises(ValueError):
            shortlist([], 0)


class TestSelectBest:
    def test_hand_example(self):
        # u1 = 0.675 / 0.825 with raw infos 2 / 9, normalized by 1 / (1 + 9)
        # to 0.2 / 0.9, at beta 0.4: u2 = 0.39 vs 0.87, second selected.
        a = make_candidate((1, 1), 2.0, 4.0, raw_info=2.0)
        b = make_candidate((2, 2), 4.0, 8.0, raw_info=9.0)
        a.u1, b.u1 = 0.675, 0.825
        best = select_best([a, b], UtilityParams(beta=0.4))
        assert a.u2 == pytest.approx(0.39)
        assert b.u2 == pytest.approx(0.87)
        assert best is b

    def test_beta_one_equals_u1_argmax(self):
        a = make_candidate((1, 1), 2.0, 4.0, raw_info=10.0)
        b = make_candidate((2, 2), 4.0, 8.0, raw_info=0.0)
        a.u1, b.u1 = 0.9, 0.3
        assert select_best([a, b], UtilityParams(beta=1.0)) is a

    def test_beta_zero_equals_info_argmax(self):
        a = make_candidate((1, 1), 2.0, 4.0, raw_info=1.0)
        b = make_candidate((2, 2), 4.0, 8.0, raw_info=5.0)
        a.u1, b.u1 = 0.9, 0.3
        assert select_best([a, b], UtilityParams(beta=0.0)) is b

    def test_auto_normalizes_raw_infos(self):
        # Raw infos 1 / 3 share the scale 1 / (1 + 3): terms 0.25 / 0.75, so
        # u2 = 0.4 * 0.5 + 0.6 * 0.25 = 0.35 and 0.2 + 0.6 * 0.75 = 0.65.
        a = make_candidate((1, 1), 2.0, 4.0, raw_info=1.0)
        b = make_candidate((2, 2), 4.0, 8.0, raw_info=3.0)
        a.u1 = b.u1 = 0.5
        select_best([a, b], UtilityParams(beta=0.4))
        assert a.u2 == pytest.approx(0.35)
        assert b.u2 == pytest.approx(0.65)

    def test_info_terms_share_one_scale(self):
        # At beta 0, u2 is the information term alone: raw / (1 + max raw).
        cands = [make_candidate((i, 0), 2.0, 1.0, raw_info=raw)
                 for i, raw in enumerate((1.0, 3.0, 0.0))]
        for c in cands:
            c.u1 = 0.5
        select_best(cands, UtilityParams(beta=0.0))
        assert [c.u2 for c in cands] == [pytest.approx(0.25), pytest.approx(0.75), 0.0]

    def test_info_term_below_one(self):
        a = make_candidate((1, 1), 2.0, 4.0, raw_info=1e6)
        a.u1 = 0.0
        select_best([a], UtilityParams(beta=0.0))
        assert 0.0 <= a.u2 < 1.0

    def test_row_major_tiebreak_across_rows(self):
        a = make_candidate((0, 3), 2.0, 1.0, raw_info=1.0)
        b = make_candidate((5, 2), 2.0, 1.0, raw_info=1.0)
        a.u1 = b.u1 = 0.5
        assert select_best([a, b], UtilityParams()) is b

    def test_missing_info_rejected(self):
        a = make_candidate((1, 1), 2.0, 4.0)
        a.u1 = 0.5
        with pytest.raises(ValueError):
            select_best([a], UtilityParams())

    def test_empty_shortlist_rejected(self):
        with pytest.raises(EmptyCandidateSetError):
            select_best([], UtilityParams())

    def test_info_ranking_invariant_under_scaling_at_beta_zero(self):
        # The shared normalizer rescales every candidate by the same factor,
        # so pure information ranking cannot change when raws are scaled.
        rng = np.random.default_rng(4)
        for _ in range(10):
            cands = []
            for i in range(5):
                c = make_candidate((i, 0), 1.0 + i, 1.0,
                                   raw_info=float(rng.uniform(0.1, 50)))
                c.u1 = float(rng.uniform(0, 1))
                cands.append(c)
            first = select_best(list(cands), UtilityParams(beta=0.0))
            for c in cands:
                c.info *= 7.0
            second = select_best(list(cands), UtilityParams(beta=0.0))
            assert first.cell == second.cell
