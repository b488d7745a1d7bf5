"""Workload definitions and the mapping from a benchmark seed to mission seeds.

Every workload is a batch: one process, one thread, its missions run one
after another through `fitslam.harness.run_experiment`. A workload names the
preset worlds and strategies; the benchmark seed picks which mission seeds
(and so which generated worlds) the batch explores. Every workload maps a
benchmark seed to the same mission seeds, so fit and greedy explore identical
worlds.
"""

from __future__ import annotations

from dataclasses import dataclass

# Mission seeds 1..DEFAULT_SEED_POOL are what benchmark seeds map onto.
# Fingerprints are recorded for 1..RECORDED_SEEDS; the seeds above the default
# pool are held out, to re-check a claim with `--mission-seeds 21,22`.
DEFAULT_SEED_POOL = 20
RECORDED_SEEDS = 24

# Nominal wall time of two missions of one workload on the reference 2-core
# box; `--seconds` buys one pair of mission seeds per this many seconds.
SECONDS_PER_SEED_PAIR = 25

# Harness functions only the fit strategy calls, and the one it never calls
# (fit gets its arrival orientation from `scan_many` instead).
FIT_ONLY = frozenset({
    "infogain.scan_many", "fisher.path_information", "planner.sample_waypoints",
    "utility.compute_u1", "utility.shortlist", "utility.select_best",
})
NON_FIT_ONLY = frozenset({"infogain.scan_orientations"})


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple
    strategies: tuple

    def idle_layers(self) -> frozenset:
        """Traced functions that must record zero calls on this workload."""
        idle = set()
        if "fit" not in self.strategies:
            idle |= FIT_ONLY
        if set(self.strategies) == {"fit"}:
            idle |= NON_FIT_ONLY
        return frozenset(idle)


WORKLOADS = {
    w.name: w for w in (
        # The full pipeline: scoring, frontiers, planning, orientation scans,
        # path Fisher information, driving and sensing on the 267^2 grid.
        Workload("fit_ramp_yard", ("ramp_yard",), ("fit",)),
        # Same worlds and seeds without scan_many / path_information, so the
        # map side and sensing dominate.
        Workload("greedy_ramp_yard", ("ramp_yard",), ("greedy",)),
        # Short missions on 150-160^2 grids where the lidar disk covers most
        # of the map: per-mission and per-call overheads dominate.
        Workload("small_worlds", ("flat_office", "obstacle_ring"),
                 ("fit", "greedy", "random")),
    )
}


def mission_seeds(seed: int, seconds: float) -> tuple:
    """Consecutive mission seeds from the default pool, chosen by `seed`.

    Two seeds per SECONDS_PER_SEED_PAIR seconds of run time; blocks of that
    size tile the pool, and the benchmark seed picks a block modulo their count.
    """
    per_run = min(DEFAULT_SEED_POOL, 2 * max(1, round(seconds / SECONDS_PER_SEED_PAIR)))
    blocks = DEFAULT_SEED_POOL // per_run
    start = ((seed - 1) % blocks) * per_run + 1
    return tuple(range(start, start + per_run))
