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

DEFAULT_ALPHA = 0.35
DEFAULT_BETA = 0.4
DEFAULT_SHORTLIST_N = 7


@dataclass
class UtilityParams:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    shortlist_n: int = DEFAULT_SHORTLIST_N

    def __post_init__(self):
        check_number("alpha", self.alpha, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        check_number("beta", self.beta, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        check_int("shortlist_n", self.shortlist_n, 1)


@dataclass(frozen=True)
class CandidateGoal:
    """The goal a decision picked, with its path from the robot."""
    cell: tuple         # (i, j) goal cell
    rho: float          # path length in meters
    path: np.ndarray    # the path's cells as linear indices, start first
    theta_star: float   # best arrival orientation, rad


def compute_u1(rho: np.ndarray, delta_e: np.ndarray, params: UtilityParams,
               resolution: float) -> np.ndarray:
    """u1 of every candidate from its path length rho (m) and entropy gain delta_e (bits).

    Path lengths shorter than one cell are clamped to the grid resolution so
    the robot's own cell cannot produce an unbounded inverse-distance spike.
    If every candidate has zero entropy gain, that term contributes 0.
    """
    r = np.maximum(rho, resolution)
    max_gain = delta_e.max()
    gain_term = delta_e / max_gain if max_gain > 0 else 0.0
    return params.alpha * (r.min() / r) + (1.0 - params.alpha) * gain_term


def _ranked(score: np.ndarray, rho: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Indices by score, highest first; ties by smaller rho, then linear (row-major) cell index."""
    return np.lexsort((cells, rho, -score))


def shortlist(u1: np.ndarray, rho: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """Indices of the top-n candidates by u1, best first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _ranked(u1, rho, cells)[:n]


def shortlist_settled(rho: np.ndarray, delta_e: np.ndarray, limit_m: float,
                      params: UtilityParams, resolution: float) -> bool:
    """Whether the u1 shortlist is exact, given rho from a solve bounded at
    limit_m meters: finite where the solve settled the candidate, inf elsewhere.

    An unsettled candidate's path is longer than limit_m, so its u1 is at most
    its u1 at rho = limit_m, in floats too, since each operation of u1 rounds
    monotonically. The shortlist is exact once min(shortlist_n, N) candidates
    have settled, which makes the nearest one and so rho_min final, and the
    n-th best settled u1 beats every unsettled bound strictly: an unsettled rho
    can round to limit_m, tie on u1 and rho, and win on its cell.
    """
    settled = np.isfinite(rho)
    n = min(params.shortlist_n, len(rho))
    if np.count_nonzero(settled) < n:
        return False
    u1 = compute_u1(np.where(settled, rho, limit_m), delta_e, params, resolution)
    return bool(np.partition(u1[settled], -n)[-n] > u1[~settled].max(initial=-np.inf))


def select_best(u1: np.ndarray, info: np.ndarray, rho: np.ndarray, cells: np.ndarray,
                params: UtilityParams) -> int:
    """Index of the shortlisted candidate of highest u2.

    Raw path information (fisher.path_information) is rescaled by the
    shortlist's shared normalizer 1 / (1 + max raw), so its term lands in [0, 1).
    """
    u2 = params.beta * u1 + (1.0 - params.beta) * (info * (1.0 / (1.0 + info.max())))
    return int(_ranked(u2, rho, cells)[0])
