"""Two-level utility scores and goal selection.

The first level trades path length against the entropy gain at the goal; the
second level trades the first-level score against the Fisher information
collected along the path. Normalizers are reciprocal set maxima so each term
peaks at 1 within the current candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import check_int, check_number
from .planner import Path

DEFAULT_ALPHA = 0.35
DEFAULT_BETA = 0.4
DEFAULT_SHORTLIST_N = 7


class EmptyCandidateSetError(ValueError):
    """No candidates to score or select from."""


@dataclass
class UtilityParams:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    shortlist_n: int = DEFAULT_SHORTLIST_N

    def __post_init__(self):
        check_number("alpha", self.alpha, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        check_number("beta", self.beta, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        check_int("shortlist_n", self.shortlist_n, 1)


@dataclass
class CandidateGoal:
    cell: tuple               # (i, j) goal cell
    rho: float                # path length in meters
    path: Path = None
    delta_e: float = None     # entropy gain at the goal, bits
    theta_star: float = None  # best arrival orientation, rad
    u1: float = None
    info: float = None        # raw path information (fisher.path_information)
    u2: float = None


def compute_u1(candidates: list, params: UtilityParams, resolution: float) -> None:
    """Set u1 on every candidate.

    Path lengths shorter than one cell are clamped to the grid resolution so
    the robot's own cell cannot produce an unbounded inverse-distance spike.
    If every candidate has zero entropy gain, that term contributes 0.
    """
    if not candidates:
        raise EmptyCandidateSetError("no candidates for u1")
    rhos = np.array([max(c.rho, resolution) for c in candidates])
    gains = np.array([c.delta_e for c in candidates])
    n_rho_inv = rhos.min()  # 1 / max(1/rho)
    max_gain = gains.max()
    for c, rho, gain in zip(candidates, rhos, gains):
        dist_term = n_rho_inv / rho
        gain_term = gain / max_gain if max_gain > 0 else 0.0
        c.u1 = params.alpha * dist_term + (1.0 - params.alpha) * gain_term


def _order_key(c: CandidateGoal, score: float):
    return (-score, c.rho, c.cell[1], c.cell[0])


def shortlist(candidates: list, n: int) -> list:
    """Top-n candidates by u1; ties by smaller rho, then row-major cell order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ranked = sorted(candidates, key=lambda c: _order_key(c, c.u1))
    return ranked[:n]


def select_best(shortlisted: list, params: UtilityParams) -> CandidateGoal:
    """Set u2 on the shortlist and return the argmax.

    Path information is rescaled by the shortlist's shared normalizer
    1 / (1 + max raw), so its term lands in [0, 1).
    """
    if not shortlisted:
        raise EmptyCandidateSetError("no shortlisted candidates")
    if any(c.info is None for c in shortlisted):
        raise ValueError("every shortlisted candidate needs path information")
    n_i = 1.0 / (1.0 + max(c.info for c in shortlisted))
    for c in shortlisted:
        c.u2 = params.beta * c.u1 + (1.0 - params.beta) * (c.info * n_i)
    return min(shortlisted, key=lambda c: _order_key(c, c.u2))
