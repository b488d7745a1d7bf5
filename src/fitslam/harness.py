"""Mission loop and three-strategy experiment runner.

Every strategy shares the identical sensing, traversability, frontier and
planning stack; only the goal selection differs, and one decision function,
`_next_goal`, makes it for all three from the mission's state. The runner
writes one metrics CSV per (strategy, seed), an aggregate summary, and two SVG
line charts of the covariance trace and unexplored percentage over time.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from .fisher import path_information
from .frontier import cluster_frontiers, detect_frontiers, suppress
from .grid import check_int
from .infogain import RayCastParams, scan_many, scan_orientations
from .planner import MultiGoalPlanner, sample_waypoints
from .simworld import (ConfigError, MissionState, WorldConfig, check_ray_samples,
                       current_grids, execute_path, generate_world, initial_spin)
from .utility import (CandidateGoal, UtilityParams, compute_u1, select_best, shortlist,
                      shortlist_settled)

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


def _check_mission_settings(config: WorldConfig, seeds: tuple, max_mission_time: float,
                           rays: RayCastParams) -> None:
    """Reject a seed, time budget or scan ray step no mission can run with."""
    for seed in seeds:
        check_int("mission seed", seed, 0)
    if not (math.isfinite(max_mission_time) and max_mission_time > 0):
        raise ConfigError(f"max mission time must be finite and > 0, "
                          f"got {max_mission_time!r}")
    # Every strategy runs the orientation scan, whose window must hold a ray.
    camera = config.sensors.camera
    if rays.delta_theta > camera.fov:
        raise ConfigError(
            f"scan ray step {math.degrees(rays.delta_theta):g} deg is wider "
            f"than the camera field of view {math.degrees(camera.fov):g} deg")
    check_ray_samples(f"the orientation scan ({math.degrees(rays.delta_theta):g} deg ray step)",
                      2 * math.pi / rays.delta_theta, 2 * camera.max_depth / config.resolution)


def _next_goal(state, strategy, planner, cells, rays, uparams):
    """The strategy's goal with its path and arrival orientation, or None.

    The robot's cell, map, world and camera are the state's. The search of the
    Free mask's row runs keeps the reachable cells and sets the rest in
    `state.blacklist`; with none kept, this returns before any draw, scan or
    solve. Fit picks by `_fit_pick`. Greedy takes the kept cell with the least
    (rho, j, i), random draws one from `state.rng`, and either scans the
    orientations at its pick. The path is the last bounded solve's, which
    settled only as far as the pick needs.
    """
    start = state.world.spec.world_to_cell(state.pose[0], state.pose[1])
    goals = _keep(state, cells, planner.reachable(start, cells))
    if not goals.size:
        return None
    if strategy == "fit":
        cell, path, theta_star = _fit_pick(state, planner, start, goals, rays, uparams)
    else:
        if strategy == "random":
            goals = goals[[state.rng.integers(len(goals))]]
        cell = divmod(int(goals[planner.nearest(start, goals)]), planner.spec.width)[::-1]
        path = planner.path_to(cell)
        theta_star = scan_orientations(state.occ, cell, rays,
                                       state.world.config.sensors.camera).best_theta
    return CandidateGoal(cell, planner.distance_to(cell), path, theta_star)


def _fit_pick(state, planner, start, cells, rays, uparams):
    """Fit's pick among the reachable cells on the state's map and world, the one
    of best u2, with its path and its best orientation from `scan_many`'s per-cell
    (gain, theta) arrays, which reuses and renews `state.scan_memo`. Bounded
    solves settle only as far as the u1 shortlist can reach, and only the
    shortlist's paths are reconstructed and scored."""
    world, camera = state.world, state.world.config.sensors.camera
    gain, theta, state.scan_memo = scan_many(state.occ, cells, rays, camera, state.scan_memo)
    rho = _shortlist_rho(planner, start, cells, gain, uparams)
    u1 = compute_u1(rho, gain, uparams, world.spec.resolution)
    short = shortlist(u1, rho, cells, uparams.shortlist_n)
    info, paths = np.empty(len(short)), {}
    for n, k in enumerate(short.tolist()):
        paths[k] = planner.path_to(divmod(int(cells[k]), world.spec.width)[::-1])
        wps = sample_waypoints(paths[k], camera.max_depth, world.spec)
        wps[-1, 2] = theta[k]
        info[n] = path_information(wps, *world.voxel_landmarks, camera)
    best = int(short[select_best(u1[short], info, rho[short], cells[short], uparams)])
    return divmod(int(cells[best]), world.spec.width)[::-1], paths[best], float(theta[best])


def _shortlist_rho(planner, start, cells, gain, uparams):
    """Per reachable cell, its rho from bounded solves that settle until the u1
    shortlist is exact; inf where a cell could not make the shortlist."""
    res = planner.spec.resolution
    return planner.settle(start, cells,
                          lambda rho, limit_m: shortlist_settled(rho, gain, limit_m, uparams, res))


def _keep(state, cells, ok):
    """The cells where the bool array `ok` holds, in order; the rest are blacklisted."""
    suppress(state.blacklist, cells[~ok])
    return cells[ok]


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
    state = MissionState.initial(generate_world(dataclasses.replace(config, seed=seed)))
    initial_spin(state)
    goal_sequence = []
    termination = "timeout"

    while state.clock < max_mission_time:
        _, nav = current_grids(state)
        frontiers = detect_frontiers(state.occ, nav)
        cells = cluster_frontiers(frontiers, state.world.spec, state.blacklist)
        if not cells.size:
            termination = "stalled" if frontiers else "complete"
            break

        planner = MultiGoalPlanner(nav, state.graph_memo)
        goal = _next_goal(state, strategy, planner, cells, rays, uparams)
        if goal is None:
            # Nothing reachable this iteration and the robot has not moved,
            # so nothing can change: the mission is stalled.
            termination = "stalled"
            break

        execute_path(state, goal.path, goal.theta_star, nav=nav)
        goal_sequence.append(goal.cell)
        # A visited goal, its path's last cell, is excluded from re-selection.
        suppress(state.blacklist, goal.path[-1:])

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
