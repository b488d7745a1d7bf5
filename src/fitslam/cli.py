"""Command-line entry point.

`fitslam run` executes the strategy-comparison experiment; `fitslam world
preview` dumps a world's grids in the portable text raster format. Exit
codes: 0 success, 2 when any mission stalls on a fully blacklisted frontier
set, 1 on a malformed command line or on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import PRESET_WORLDS, preset_world_path, simworld, traversability
from .grid import OccupancyGrid
from .harness import DEFAULT_MAX_MISSION_TIME, ExperimentConfig, run_experiment, STRATEGIES
from .infogain import DEFAULT_DELTA_THETA_DEG, DEFAULT_GAMMA, RayCastParams
from .simworld import ConfigError, WorldConfig, generate_world
from .utility import DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_SHORTLIST_N, UtilityParams


# The most seeds a `--seeds` range may name, far more missions than a run can finish;
# it is checked before the range is built.
MAX_SEEDS = 10 ** 6


def _parse_seeds(text: str) -> tuple:
    text = text.strip()
    try:
        if ".." not in text:
            return tuple(int(s) for s in text.split(",") if s)
        lo, hi = (int(s) for s in text.split(".."))
    except ValueError:
        raise ConfigError(f"--seeds must be LO..HI or a comma list of integers, "
                          f"got {text!r}") from None
    if hi - lo + 1 > MAX_SEEDS:
        raise ConfigError(f"--seeds {text} names {hi - lo + 1} seeds; at most {MAX_SEEDS}")
    return tuple(range(lo, hi + 1))


def _load_world(arg: str) -> WorldConfig:
    if arg in PRESET_WORLDS:
        return WorldConfig.from_json(preset_world_path(arg))
    return WorldConfig.from_json(arg)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # A malformed command line is bad input like any other: exit 1, not
        # argparse's 2, which means a mission stalled.
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fitslam")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the exploration experiment")
    run.add_argument("--config", default="ramp_yard",
                     help="world config JSON path or preset name "
                          f"({', '.join(PRESET_WORLDS)})")
    run.add_argument("--strategies", default=",".join(STRATEGIES),
                     help="comma list from fit,greedy,random")
    run.add_argument("--seeds", default="1..10", help="e.g. 1..10 or 3,5,8")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--max-time", type=float, default=DEFAULT_MAX_MISSION_TIME,
                     help="simulated mission time cap in seconds")
    run.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    run.add_argument("--beta", type=float, default=DEFAULT_BETA)
    run.add_argument("--n-shortlist", type=int, default=DEFAULT_SHORTLIST_N)
    run.add_argument("--delta-theta-deg", type=float, default=DEFAULT_DELTA_THETA_DEG)
    run.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)

    world = sub.add_parser("world", help="world utilities")
    wsub = world.add_subparsers(dest="world_command", required=True)
    prev = wsub.add_parser("preview", help="dump the world grids as text rasters")
    prev.add_argument("--config", default="ramp_yard")
    return ap


def _cmd_run(args) -> int:
    cfg = ExperimentConfig(
        world=_load_world(args.config),
        strategies=tuple(s.strip() for s in args.strategies.split(",") if s.strip()),
        seeds=_parse_seeds(args.seeds),
        out_dir=args.out,
        utility=UtilityParams(alpha=args.alpha, beta=args.beta, shortlist_n=args.n_shortlist),
        rays=RayCastParams(delta_theta=math.radians(args.delta_theta_deg), gamma=args.gamma),
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
    occ = OccupancyGrid(world.spec, world.true_p)
    trav = world.terrain.score_cells()
    nav = traversability.threshold(trav, simworld.DEFAULT_TRAV_THRESHOLD)

    print("# true occupancy")
    sys.stdout.write(occ.to_text())
    print("# traversability scores (full sensing)")
    sys.stdout.write(trav.to_text())
    print("# binary traversability")
    sys.stdout.write(nav.to_text())
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
