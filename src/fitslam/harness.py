"""Mission loop and three-strategy experiment runner.

Every strategy shares the identical sensing, traversability, frontier and
planning stack; only the goal selection differs. The runner writes one
metrics CSV per (strategy, seed), an aggregate summary, and two SVG line
charts overlaying the covariance trace and the unexplored percentage over
simulated time.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from .fisher import path_information
from .frontier import Blacklist, cluster_frontiers, detect_frontiers
from .grid import check_int
from .infogain import RayCastParams, ScanMemo, scan_many, scan_orientations
from .planner import MultiGoalPlanner, NoPathError, sample_waypoints, Waypoint
from .simworld import (ConfigError, MissionState, PathBlockedError, WorldConfig,
                       check_ray_samples, current_grids, execute_path, generate_world,
                       initial_spin)
from .utility import CandidateGoal, UtilityParams, compute_u1, select_best, shortlist

STRATEGIES = ("fit", "greedy", "random")

# Shared mission time budget: the comparison runs every strategy over the same
# fixed window of simulated time, like for like.
DEFAULT_MAX_MISSION_TIME = 1430.0  # simulated seconds


@dataclass
class MissionLog:
    strategy: str
    seed: int
    samples: list
    goal_sequence: list
    termination: str  # complete | stalled | timeout

    @property
    def final(self):
        return self.samples[-1]

    def time_to_coverage(self, pct_explored: float) -> float:
        """First simulated time at which unexplored drops to 100 - pct_explored."""
        limit = 100.0 - pct_explored
        for s in self.samples:
            if s.pct_unexplored <= limit:
                return s.t
        return math.inf


@dataclass
class ExperimentConfig:
    world: WorldConfig
    strategies: tuple = STRATEGIES
    seeds: tuple = tuple(range(1, 11))
    max_mission_time: float = DEFAULT_MAX_MISSION_TIME
    out_dir: str = "out"
    utility: UtilityParams = field(default_factory=UtilityParams)
    rays: RayCastParams = field(default_factory=RayCastParams)

    def __post_init__(self):
        if not self.strategies or not self.seeds:
            raise ConfigError("need at least one strategy and one seed")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigError(f"unknown strategy {s!r}; pick from {STRATEGIES}")
        _check_mission_settings(self.world, self.seeds, self.max_mission_time, self.rays)
        # A repeated mission would run again, overwrite its CSV and count twice
        # in the summary.
        for what, values in (("strategy", self.strategies), ("seed", self.seeds)):
            repeated = [v for v, n in Counter(values).items() if n > 1]
            if repeated:
                raise ConfigError(f"{what} {repeated[0]} is given more than once")


def _check_mission_settings(world: WorldConfig, seeds: tuple, max_mission_time: float,
                           rays: RayCastParams) -> None:
    """Reject a seed, time budget or scan ray step no mission can run with."""
    for seed in seeds:
        check_int("mission seed", seed, 0)
    if not (math.isfinite(max_mission_time) and max_mission_time > 0):
        raise ConfigError(f"max mission time must be finite and > 0, "
                          f"got {max_mission_time!r}")
    # Every strategy runs the orientation scan, whose window must hold a ray.
    camera = world.sensors.camera
    if rays.delta_theta > camera.fov:
        raise ConfigError(
            f"scan ray step {math.degrees(rays.delta_theta):g} deg is wider "
            f"than the camera field of view {math.degrees(camera.fov):g} deg")
    check_ray_samples(f"the orientation scan ({math.degrees(rays.delta_theta):g} deg ray step)",
                      2 * math.pi / rays.delta_theta, 2 * camera.max_depth / world.resolution)


def _select_fit(candidates, state, world, uparams, rays, spec, planner, memo):
    camera = world.config.sensors.camera
    scans = scan_many(state.occ, [c.cell for c in candidates], rays, camera, memo)
    for c, scan in zip(candidates, scans):
        c.delta_e = scan.best_gain
        c.theta_star = scan.best_theta
    compute_u1(candidates, uparams, spec.resolution)
    short = shortlist(candidates, uparams.shortlist_n)
    for c in short:
        c.path = planner.path_to(c.cell)
        wps = sample_waypoints(c.path, camera.max_depth, spec)
        wps[-1] = Waypoint(wps[-1].x, wps[-1].y, c.theta_star)
        c.info = path_information(wps, *world.voxel_landmarks, camera)
    return select_best(short, uparams)


def _all_candidates(planner, start, cells, blacklist):
    """Fit and random: every reachable cell with its rho, from one full solve."""
    planner.solve(start, math.inf)
    candidates = []
    for cell in cells:
        try:
            rho = planner.distance_to(cell)
        except NoPathError:
            blacklist.add(cell)
            continue
        candidates.append(CandidateGoal(cell, rho))
    return candidates


def _nearest_candidate(planner, start, cells, blacklist):
    """Greedy: its pick alone, the reachable cell with the least (rho, j, i).

    The cells outside the start's connected component are the ones a full
    solve would find unreachable; bounded solves then settle only as far as
    the nearest of the rest.
    """
    goals = []
    for cell, ok in zip(cells, planner.reachable(start, cells)):
        if ok:
            goals.append(cell)
        else:
            blacklist.add(cell)
    if not goals:
        return []
    cell = goals[planner.nearest(start, goals)]
    return [CandidateGoal(cell, planner.distance_to(cell))]


def run_mission(config: WorldConfig, strategy: str, seed: int,
                max_mission_time: float = DEFAULT_MAX_MISSION_TIME,
                utility_params: UtilityParams | None = None,
                ray_params: RayCastParams | None = None) -> MissionLog:
    """Run one exploration mission and return its metric log.

    The world is rebuilt deterministically from `seed`, so the three
    strategies see bit-identical worlds and differ only in goal selection.
    Orientation scans use the field of view and range of the world's camera.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    uparams = utility_params or UtilityParams()
    rays = ray_params or RayCastParams()
    _check_mission_settings(config, (seed,), max_mission_time, rays)
    world = generate_world(dataclasses.replace(config, seed=seed))
    spec = world.spec
    camera = world.config.sensors.camera
    rng = np.random.default_rng(seed * 7919 + 17)  # random strategy's own stream

    state = MissionState.initial(world)
    initial_spin(world, state)
    blacklist = Blacklist(spec)
    memo = ScanMemo()  # fit's scans, reused across decisions
    goal_sequence = []
    termination = "timeout"

    while state.clock < max_mission_time:
        _, nav = current_grids(state)
        frontiers = detect_frontiers(state.occ, nav)
        cells = cluster_frontiers(frontiers, spec, blacklist=blacklist)
        if not cells:
            termination = "stalled" if frontiers else "complete"
            break

        planner = MultiGoalPlanner(nav)
        start = spec.world_to_cell(state.pose[0], state.pose[1])
        select = _nearest_candidate if strategy == "greedy" else _all_candidates
        candidates = select(planner, start, cells, blacklist)
        if not candidates:
            # Nothing reachable this iteration and the robot has not moved,
            # so nothing can change: the mission is stalled.
            termination = "stalled"
            break

        if strategy == "fit":
            best = _select_fit(candidates, state, world, uparams, rays, spec, planner, memo)
        elif strategy == "random":
            best = candidates[int(rng.integers(len(candidates)))]
        else:
            best, = candidates  # greedy's pick
        if best.path is None:
            best.path = planner.path_to(best.cell)
        if best.theta_star is None:
            best.theta_star = scan_orientations(state.occ, best.cell, rays, camera).best_theta

        try:
            execute_path(world, state, best.path, best.theta_star, nav=nav)
        except PathBlockedError:
            blacklist.add(best.cell)
            continue
        goal_sequence.append(best.cell)
        # A visited goal is excluded from re-selection in later iterations.
        blacklist.add(best.cell)

    return MissionLog(strategy, seed, state.samples, goal_sequence, termination)


CSV_HEADER = "t,trace_cov,pct_unexplored,n_loop_closures,distance"


def write_metrics_csv(log: MissionLog, path) -> None:
    lines = [CSV_HEADER]
    for s in log.samples:
        lines.append(f"{s.t:.6f},{s.trace_cov:.9g},{s.pct_unexplored:.6f},"
                     f"{s.n_loop_closures},{s.distance:.6f}")
    FsPath(path).write_text("\n".join(lines) + "\n")


def _median(values):
    return float(np.median(values)) if values else math.nan


def summarize(logs: list) -> list:
    """Per-strategy medians over seeds, in STRATEGIES order."""
    rows = []
    for strat in STRATEGIES:
        group = [lg for lg in logs if lg.strategy == strat]
        if not group:
            continue
        rows.append({
            "strategy": strat,
            "median_final_trace": _median([lg.final.trace_cov for lg in group]),
            "median_time_to_90pct": _median([lg.time_to_coverage(90.0) for lg in group]),
            "median_loop_closures": _median([lg.final.n_loop_closures for lg in group]),
            "n_stalled": sum(lg.termination == "stalled" for lg in group),
        })
    return rows


def write_summary_csv(rows: list, path) -> None:
    lines = ["strategy,median_final_trace,median_time_to_90pct,"
             "median_loop_closures,n_stalled"]
    for r in rows:
        t90 = "inf" if math.isinf(r["median_time_to_90pct"]) else f"{r['median_time_to_90pct']:.6f}"
        lines.append(f"{r['strategy']},{r['median_final_trace']:.9g},{t90},"
                     f"{r['median_loop_closures']:.6g},{r['n_stalled']}")
    FsPath(path).write_text("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run every (strategy, seed) mission and write CSVs and SVG plots."""
    out = FsPath(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise IOError(f"output directory {out} is not writable: {exc}") from exc

    logs = []
    for strategy in cfg.strategies:
        for seed in cfg.seeds:
            log = run_mission(cfg.world, strategy, seed,
                              max_mission_time=cfg.max_mission_time,
                              utility_params=cfg.utility,
                              ray_params=cfg.rays)
            write_metrics_csv(log, out / f"metrics_{strategy}_{seed}.csv")
            logs.append(log)
    write_summary_csv(summarize(logs), out / "summary.csv")
    plot_logs(logs, out)
    return logs


# -- minimal static SVG line charts ------------------------------------------

_COLORS = {"fit": "#1f77b4", "greedy": "#d62728", "random": "#2ca02c"}
_LABELS = {"fit": "FIT", "greedy": "Greedy", "random": "Random"}
_SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN = 720, 480, 60  # px


def plot_logs(logs: list, out_dir) -> None:
    out = FsPath(out_dir)
    _write_svg(out / "trace_vs_time.svg", logs,
               lambda s: s.trace_cov, "Time (s)", "tr(Covariance)")
    _write_svg(out / "unexplored_vs_time.svg", logs,
               lambda s: s.pct_unexplored, "Time (s)", "% unexplored map")


def _write_svg(path, logs, metric, xlabel, ylabel) -> None:
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN
    xs_max = max((lg.final.t for lg in logs), default=1.0) or 1.0
    ys_max = max((max(metric(s) for s in lg.samples) for lg in logs), default=1.0) or 1.0

    def sx(x):
        return margin + (width - 2 * margin) * x / xs_max

    def sy(y):
        return height - margin - (height - 2 * margin) * y / ys_max

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for k in range(5):
        xv = xs_max * k / 4
        yv = ys_max * k / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" font-size="11" '
                     f'text-anchor="middle">{xv:.0f}</text>')
        parts.append(f'<text x="{margin - 8}" y="{sy(yv):.1f}" font-size="11" '
                     f'text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 14}" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {height / 2:.0f})">{ylabel}</text>')

    for lg in logs:
        samples = lg.samples
        step = max(1, len(samples) // 500)
        pts = samples[::step]
        if pts[-1] is not samples[-1]:
            pts.append(samples[-1])
        coords = " ".join(f"{sx(s.t):.1f},{sy(metric(s)):.1f}" for s in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{_COLORS[lg.strategy]}" stroke-width="1.2" opacity="0.8"/>')

    for k, strat in enumerate(s for s in STRATEGIES if any(lg.strategy == s for lg in logs)):
        y = margin + 16 * k
        parts.append(f'<line x1="{width - margin - 120}" y1="{y}" x2="{width - margin - 96}" '
                     f'y2="{y}" stroke="{_COLORS[strat]}" stroke-width="2"/>')
        parts.append(f'<text x="{width - margin - 90}" y="{y + 4}" '
                     f'font-size="12">{_LABELS[strat]}</text>')
    parts.append("</svg>")
    FsPath(path).write_text("\n".join(parts) + "\n")
