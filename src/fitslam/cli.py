"""Command-line entry point.

`fitslam run` executes the strategy-comparison experiment; `fitslam world
preview` dumps a world's grids in the portable text raster format. Exit
codes: 0 success, 2 when any mission stalls on a fully blacklisted frontier
set, 1 on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import PRESET_WORLDS, preset_world_path, simworld, traversability
from .grid import OccupancyGrid
from .harness import DEFAULT_MAX_MISSION_TIME, ExperimentConfig, run_experiment, STRATEGIES
from .infogain import RayCastParams
from .simworld import ConfigError, WorldConfig, generate_world
from .traversability import TerrainStatsGrid
from .utility import UtilityParams


def _parse_seeds(text: str) -> tuple:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(s) for s in text.split(",") if s)


def _load_world(arg: str) -> WorldConfig:
    if arg in PRESET_WORLDS:
        return WorldConfig.from_json(preset_world_path(arg))
    return WorldConfig.from_json(arg)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fitslam")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the exploration experiment")
    run.add_argument("--config", default="ramp_yard",
                     help="world config JSON path or preset name "
                          f"({', '.join(PRESET_WORLDS)})")
    run.add_argument("--strategies", default=",".join(STRATEGIES),
                     help="comma list from fit,greedy,random")
    run.add_argument("--seeds", default="1..10", help="e.g. 1..10 or 3,5,8")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--full-res", action="store_true",
                     help="run at 0.05 m map resolution instead of the config value")
    run.add_argument("--max-time", type=float, default=DEFAULT_MAX_MISSION_TIME,
                     help="simulated mission time cap in seconds")
    run.add_argument("--alpha", type=float, default=None)
    run.add_argument("--beta", type=float, default=None)
    run.add_argument("--n-shortlist", type=int, default=None)
    run.add_argument("--delta-theta-deg", type=float, default=None)
    run.add_argument("--gamma", type=float, default=None)

    world = sub.add_parser("world", help="world utilities")
    wsub = world.add_subparsers(dest="world_command", required=True)
    prev = wsub.add_parser("preview", help="dump the world grids as text rasters")
    prev.add_argument("--config", default="ramp_yard")
    return ap


def _cmd_run(args) -> int:
    world = _load_world(args.config)
    if args.full_res:
        world = dataclasses.replace(world, resolution=0.05)
    uparams = UtilityParams(
        alpha=args.alpha if args.alpha is not None else UtilityParams().alpha,
        beta=args.beta if args.beta is not None else UtilityParams().beta,
        shortlist_n=(args.n_shortlist if args.n_shortlist is not None
                     else UtilityParams().shortlist_n),
    )
    defaults = RayCastParams()
    rays = RayCastParams(
        delta_theta=(math.radians(args.delta_theta_deg)
                     if args.delta_theta_deg is not None else defaults.delta_theta),
        gamma=args.gamma if args.gamma is not None else defaults.gamma,
    )
    cfg = ExperimentConfig(
        world=world,
        strategies=tuple(s.strip() for s in args.strategies.split(",") if s.strip()),
        seeds=_parse_seeds(args.seeds),
        out_dir=args.out,
        utility=uparams,
        rays=rays,
        max_mission_time=args.max_time,
    )
    logs = run_experiment(cfg)
    for lg in logs:
        f = lg.final
        print(f"{lg.strategy:7s} seed={lg.seed:<3d} {lg.termination:9s} "
              f"t={f.t:8.1f}s trace={f.trace_cov:.4g} "
              f"unexplored={f.pct_unexplored:5.1f}% loops={f.n_loop_closures}")
    return 2 if any(lg.termination == "stalled" for lg in logs) else 0


def _cmd_preview(args) -> int:
    config = _load_world(args.config)
    world = generate_world(config)
    spec = world.spec

    occ = OccupancyGrid(spec, np.where(world.occupied, 0.98, 0.02))
    stats = TerrainStatsGrid(spec)
    xs, ys = world.centers
    half = 0.3 * spec.resolution
    for dx, dy in ((0, 0), (-half, -half), (-half, half), (half, -half), (half, half)):
        px, py = (xs + dx).ravel(), (ys + dy).ravel()
        stats.accumulate(np.column_stack([px, py, world.terrain_z(px, py)]))
    trav = stats.score_cells()
    nav = traversability.threshold(trav, simworld.DEFAULT_TRAV_THRESHOLD)

    print("# true occupancy")
    sys.stdout.write(occ.to_text())
    print("# traversability scores (full sensing)")
    sys.stdout.write(trav.to_text())
    print("# binary traversability")
    sys.stdout.write(nav.to_text())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "world":
            return _cmd_preview(args)
    except (ConfigError, OSError, IOError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
