import hashlib
import json
import math

import numpy as np
import pytest

from fitslam import cli, harness, preset_world_path
from fitslam.cli import main, _parse_seeds
from fitslam.frontier import Blacklist
from fitslam.grid import BLOCKED, FREE, BinaryTraversabilityGrid, GridSpec, OccupancyGrid
from fitslam.harness import (
    ExperimentConfig,
    MissionLog,
    run_experiment,
    run_mission,
    summarize,
    write_summary_csv,
)
from fitslam.infogain import RayCastParams
from fitslam.planner import MultiGoalPlanner, NoPathError
from fitslam.simworld import ConfigError, WorldConfig, generate_world
from fitslam.traversability import threshold
from fitslam.utility import UtilityParams


def tiny_world(**overrides):
    raw = {
        "seed": 3,
        "size_m": 10.0,
        "resolution": 0.2,
        "terrain": {"type": "flat"},
        "obstacles": [],
        "landmarks": {"count": 15, "clusters": 2},
        "robot": {"start_xy_theta": [5.0, 5.0, 0.0], "speed": 0.4},
    }
    raw.update(overrides)
    return WorldConfig.from_dict(raw)


class TestRunMission:
    def test_flat_world_fully_explored(self):
        # A small flat empty world must be driven to zero unexplored space
        # by every strategy.
        for strategy in ("fit", "greedy", "random"):
            log = run_mission(tiny_world(), strategy, seed=1,
                              max_mission_time=600.0)
            assert log.termination == "complete"
            assert log.final.pct_unexplored == 0.0

    def test_obstacle_ring_interior_blacklisted(self):
        raw = json.load(open(__import__("fitslam").preset_world_path("obstacle_ring")))
        config = WorldConfig.from_dict(raw)
        log = run_mission(config, "greedy", seed=1, max_mission_time=1200.0)
        # The walled-off interior can never be entered, so the mission ends
        # with its frontier candidates blacklisted, not in a timeout.
        assert log.termination == "stalled"
        world = generate_world(config)
        blocked_goals = [g for g in log.goal_sequence
                         if 5.0 < world.spec.cell_to_world(*g)[0] < 10.0
                         and 5.0 < world.spec.cell_to_world(*g)[1] < 10.0
                         and not world.occupied[g[1], g[0]]]
        # Reached goals all lie outside the ring interior.
        for g in log.goal_sequence:
            x, y = world.spec.cell_to_world(*g)
            assert not (5.4 < x < 9.6 and 5.8 < y < 9.6), (g, x, y)
        assert blocked_goals == []

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            run_mission(tiny_world(), "swirl", seed=1)

    def test_deterministic_logs(self):
        a = run_mission(tiny_world(), "random", seed=4, max_mission_time=600.0)
        b = run_mission(tiny_world(), "random", seed=4, max_mission_time=600.0)
        assert a.goal_sequence == b.goal_sequence
        assert [(s.t, s.trace_cov) for s in a.samples] == \
               [(s.t, s.trace_cov) for s in b.samples]

    def test_seed_changes_world(self):
        a = run_mission(tiny_world(), "greedy", seed=1, max_mission_time=300.0)
        b = run_mission(tiny_world(), "greedy", seed=2, max_mission_time=300.0)
        assert a.goal_sequence != b.goal_sequence or \
            [s.trace_cov for s in a.samples] != [s.trace_cov for s in b.samples]

    @pytest.mark.parametrize("max_time", [-5.0, math.nan])
    def test_bad_time_budget_rejected(self, max_time):
        with pytest.raises(ConfigError):
            run_mission(tiny_world(), "greedy", seed=1, max_mission_time=max_time)

    def test_fov_narrower_than_ray_step_rejected(self):
        with pytest.raises(ConfigError):
            run_mission(tiny_world(sensors={"fov_deg": 5}), "greedy", seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"],
                             ids=["negative", "float", "bool", "string"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError):
            run_mission(tiny_world(), "greedy", seed=seed)

    def test_time_budget_respected(self):
        log = run_mission(tiny_world(), "random", seed=1, max_mission_time=60.0)
        # The loop stops selecting once the clock passes the budget; only the
        # final in-flight path may run beyond it.
        assert log.termination in ("timeout", "complete")
        if log.termination == "timeout":
            assert log.final.t >= 60.0


def pocket_nav():
    """A 20 x 7 open grid with a walled pocket whose inside is (16..18, 2..4)."""
    state = np.full((7, 20), FREE, dtype=np.int8)
    state[1:6, 15:20] = BLOCKED
    state[2:5, 16:19] = FREE
    return BinaryTraversabilityGrid(GridSpec(0.1, 20, 7), state)


class TestGreedyDecision:
    def test_blacklists_exactly_the_cells_cut_off(self):
        nav = pocket_nav()
        # The far reachable cell lies beyond any limit the pick needs, so only
        # connectivity, not a bounded solve, can tell it from the pocket's cell.
        cells = [(13, 6), (17, 3), (3, 3)]
        blacklist = Blacklist(nav.spec)
        picked = harness._nearest_candidate(MultiGoalPlanner(nav), (1, 3), cells, blacklist)
        assert [(c.cell, c.rho) for c in picked] == [((3, 3), pytest.approx(0.2))]
        expected = Blacklist(nav.spec)
        expected.add((17, 3))
        assert np.array_equal(blacklist.mask, expected.mask)

    def test_nothing_reachable_blacklists_every_cell(self):
        nav = pocket_nav()
        cells = [(16, 2), (18, 4)]
        blacklist = Blacklist(nav.spec)
        assert harness._nearest_candidate(MultiGoalPlanner(nav), (1, 3), cells,
                                          blacklist) == []
        expected = Blacklist(nav.spec)
        for cell in cells:
            expected.add(cell)
        assert np.array_equal(blacklist.mask, expected.mask)


@pytest.mark.slow
@pytest.mark.parametrize("preset, max_time", [
    ("flat_office", harness.DEFAULT_MAX_MISSION_TIME),
    ("obstacle_ring", harness.DEFAULT_MAX_MISSION_TIME),
    ("ramp_yard", 300.0),
], ids=["flat_office", "obstacle_ring", "ramp_yard-300s"])
def test_greedy_decisions_match_a_full_solve(preset, max_time, monkeypatch):
    """Every greedy pick of seed 1 is the full solve's least (rho, j, i), with its
    rho and path, and every node the last bounded solve settled is the full solve's."""
    nearest, decisions = harness._nearest_candidate, []

    def spy(planner, start, cells, blacklist):
        full = MultiGoalPlanner(planner.nav)
        full.solve(start, math.inf)
        expected = Blacklist(planner.spec)
        expected.mask = blacklist.mask.copy()
        keys = []
        for cell in cells:
            try:
                keys.append((full.distance_to(cell), cell[1], cell[0]))
            except NoPathError:
                expected.add(cell)
        picked = nearest(planner, start, cells, blacklist)
        assert np.array_equal(blacklist.mask, expected.mask)
        if not keys:
            assert picked == []
            return picked
        rho, j, i = min(keys)
        assert [(c.cell, c.rho) for c in picked] == [((i, j), rho)]
        assert planner.path_to((i, j)).cells == full.path_to((i, j)).cells
        settled = np.isfinite(planner._dist)
        assert np.array_equal(planner._dist[settled], full._dist[settled])
        assert np.array_equal(planner._pred[settled], full._pred[settled])
        decisions.append((i, j))
        return picked

    monkeypatch.setattr(harness, "_nearest_candidate", spy)
    config = WorldConfig.from_json(preset_world_path(preset))
    log = run_mission(config, "greedy", seed=1, max_mission_time=max_time)
    assert len(decisions) >= len(log.goal_sequence) > 5


class TestMissionLog:
    def log_with(self, pcts):
        samples = [type("S", (), {"t": float(i), "pct_unexplored": p,
                                  "trace_cov": 0.0, "n_loop_closures": 0,
                                  "distance": 0.0})() for i, p in enumerate(pcts)]
        return MissionLog("fit", 1, samples, [], "complete")

    def test_time_to_coverage(self):
        log = self.log_with([80.0, 40.0, 9.0, 2.0])
        assert log.time_to_coverage(90.0) == 2.0
        assert log.time_to_coverage(50.0) == 1.0

    def test_unreached_coverage_is_inf(self):
        log = self.log_with([80.0, 40.0])
        assert log.time_to_coverage(90.0) == math.inf


class TestSummaries:
    def test_summarize_one_row_per_strategy(self):
        logs = [run_mission(tiny_world(), s, seed, max_mission_time=400.0)
                for s in ("fit", "greedy") for seed in (1, 2)]
        rows = summarize(logs)
        assert [r["strategy"] for r in rows] == ["fit", "greedy"]
        for r in rows:
            assert r["median_final_trace"] >= 0.0
            assert r["n_stalled"] in (0, 1, 2)

    def test_inf_time_written_as_inf(self, tmp_path):
        rows = [{"strategy": "fit", "median_final_trace": 0.5,
                 "median_time_to_90pct": math.inf,
                 "median_loop_closures": 3.0, "n_stalled": 1}]
        out = tmp_path / "summary.csv"
        write_summary_csv(rows, out)
        assert "fit,0.5,inf,3,1" in out.read_text()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig(world=tiny_world(), strategies=("greedy", "random"),
                           seeds=(1, 2), max_mission_time=400.0,
                           out_dir=str(out))
    logs = run_experiment(cfg)
    return out, logs


class TestRunExperiment:
    def test_csv_files_and_schema(self, outputs):
        out, logs = outputs
        for strat in ("greedy", "random"):
            for seed in (1, 2):
                path = out / f"metrics_{strat}_{seed}.csv"
                lines = path.read_text().strip().splitlines()
                assert lines[0] == "t,trace_cov,pct_unexplored,n_loop_closures,distance"
                assert len(lines) > 2
                ts = [float(l.split(",")[0]) for l in lines[1:]]
                assert ts == sorted(ts)

    def test_summary_csv(self, outputs):
        out, _ = outputs
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0].startswith("strategy,median_final_trace")
        assert [l.split(",")[0] for l in lines[1:]] == ["greedy", "random"]

    def test_svg_plots_written(self, outputs):
        out, _ = outputs
        for name in ("trace_vs_time.svg", "unexplored_vs_time.svg"):
            text = (out / name).read_text()
            assert text.startswith("<svg")
            assert "polyline" in text

    def test_rerun_byte_identical(self, outputs, tmp_path):
        out, _ = outputs
        cfg = ExperimentConfig(world=tiny_world(), strategies=("greedy", "random"),
                               seeds=(1, 2), max_mission_time=400.0,
                               out_dir=str(tmp_path))
        run_experiment(cfg)
        for f in sorted(out.glob("*.csv")):
            assert (tmp_path / f.name).read_bytes() == f.read_bytes()

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(world=tiny_world(), strategies=("teleport",))

    @pytest.mark.parametrize("seeds", [(1, -1), (1.5,), (True,), (np.float64(2.0),),
                                       (1, 2, 1), (np.int64(3), 3)],
                             ids=["negative", "float", "bool", "numpy-float", "repeated",
                                  "repeated-numpy"])
    def test_bad_seed_rejected(self, seeds):
        with pytest.raises(ConfigError):
            ExperimentConfig(world=tiny_world(), seeds=seeds)

    @pytest.mark.parametrize("shortlist_n", [2.5, True, np.float64(3.0)],
                             ids=["float", "bool", "numpy-float"])
    def test_non_integer_shortlist_rejected(self, shortlist_n):
        # Unchecked, 2.5 fails a fit mission at its first decision (a float
        # slice index) and True runs as a shortlist of one.
        with pytest.raises(ConfigError, match="shortlist_n"):
            ExperimentConfig(world=tiny_world(), utility=UtilityParams(shortlist_n=shortlist_n))

    @pytest.mark.parametrize("params, name", [
        (UtilityParams, "alpha"), (UtilityParams, "beta"),
        (RayCastParams, "gamma"), (RayCastParams, "delta_theta"),
    ], ids=["alpha", "beta", "gamma", "delta-theta"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_weight_rejected(self, params, name, value):
        # Unchecked, True and False would run as 1.0 and 0.0; shortlist_n
        # and every world number already reject a bool.
        with pytest.raises(ConfigError, match=name):
            params(**{name: value})

    def test_repeated_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy greedy is given more than once"):
            ExperimentConfig(world=tiny_world(), strategies=("greedy", "random", "greedy"))

    def test_numpy_integer_seeds_accepted(self):
        assert ExperimentConfig(world=tiny_world(), seeds=(np.int64(2), 0)).seeds[0] == 2

    def test_fov_narrower_than_ray_step_rejected(self):
        # The orientation scan needs delta_theta <= fov; both are known before
        # any world is generated.
        with pytest.raises(ConfigError):
            ExperimentConfig(world=tiny_world(sensors={"fov_deg": 5}))
        with pytest.raises(ConfigError):
            ExperimentConfig(world=tiny_world(),
                             rays=RayCastParams(delta_theta=math.radians(90.0)))
        ExperimentConfig(world=tiny_world(sensors={"fov_deg": 8.5}),
                         rays=RayCastParams(delta_theta=math.radians(8.5)))


class TestCli:
    def test_parse_seeds(self):
        assert _parse_seeds("1..4") == (1, 2, 3, 4)
        assert _parse_seeds("3,5,8") == (3, 5, 8)
        assert _parse_seeds("7") == (7,)

    def test_run_success_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({
            "seed": 3, "size_m": 10.0, "resolution": 0.2,
            "terrain": {"type": "flat"}, "landmarks": {"count": 15, "clusters": 2},
            "robot": {"start_xy_theta": [5.0, 5.0, 0.0], "speed": 0.4},
        }))
        code = main(["run", "--config", str(cfg), "--strategies", "greedy",
                     "--seeds", "1", "--out", str(tmp_path / "out"),
                     "--max-time", "400"])
        assert code == 0
        assert (tmp_path / "out" / "metrics_greedy_1.csv").exists()
        assert "greedy" in capsys.readouterr().out

    def test_run_without_knob_flags_uses_param_defaults(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
        assert main(["run", "--config", "flat_office", "--out", str(tmp_path)]) == 0
        # Dataclass == compares delta_theta bit for bit.
        assert seen[0].utility == UtilityParams()
        assert seen[0].rays == RayCastParams()

    def test_run_stall_exit_two(self, tmp_path):
        code = main(["run", "--config", "obstacle_ring", "--strategies", "greedy",
                     "--seeds", "1", "--out", str(tmp_path / "out"),
                     "--max-time", "1200"])
        assert code == 2

    def test_run_matches_experiment_on_world_sensors(self, tmp_path):
        # A camera unlike the 87 deg / 5 m default: the orientation scan must
        # use the world's values whether the mission runs from the CLI or
        # from run_experiment.
        raw = {"seed": 3, "size_m": 10.0, "resolution": 0.2,
               "terrain": {"type": "flat"}, "landmarks": {"count": 15, "clusters": 2},
               "sensors": {"fov_deg": 60.0, "max_depth_m": 3.0},
               "robot": {"start_xy_theta": [5.0, 5.0, 0.0], "speed": 0.4}}
        cfg_path = tmp_path / "w.json"
        cfg_path.write_text(json.dumps(raw))
        code = main(["run", "--config", str(cfg_path), "--strategies", "fit",
                     "--seeds", "1", "--out", str(tmp_path / "cli"), "--max-time", "400"])
        assert code in (0, 2)
        run_experiment(ExperimentConfig(world=WorldConfig.from_dict(raw), strategies=("fit",),
                                        seeds=(1,), max_mission_time=400.0,
                                        out_dir=str(tmp_path / "exp")))
        name = "metrics_fit_1.csv"
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "exp" / name).read_bytes()

    @pytest.mark.parametrize("world, flags", [
        ({"sensors": {"fov_deg": 5}}, []),
        (None, ["--delta-theta-deg", "90"]),
    ], ids=["fov-5-deg", "ray-step-90-deg"])
    def test_fov_narrower_than_ray_step_exit_one(self, world, flags, tmp_path, capsys):
        config = "ramp_yard"
        if world is not None:
            config = tmp_path / "w.json"
            config.write_text(json.dumps({
                "seed": 3, "size_m": 10.0, "resolution": 0.2,
                "robot": {"start_xy_theta": [5.0, 5.0, 0.0], "speed": 0.4}, **world}))
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--strategies", "fit",
                     "--seeds", "1", "--out", str(out), "--max-time", "10", *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("flags", [
        ["--seeds", "5..1"],
        ["--strategies", ","],
        ["--max-time", "-5"],
        ["--max-time", "nan"],
        ["--seeds", "1,-1"],
        ["--strategies", "greedy,greedy", "--seeds", "1,1"],
        ["--seeds", "1,2,1"],
        ["--delta-theta-deg", "1e-9"],  # a scan template no machine can hold
    ], ids=["seeds-empty-range", "strategies-empty", "max-time-negative", "max-time-nan",
            "seeds-negative", "strategies-and-seeds-repeated", "seeds-repeated",
            "delta-theta-tiny"])
    def test_empty_or_nonpositive_setting_exit_one(self, flags, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", "flat_office", "--strategies", "greedy",
                     "--seeds", "1", "--out", str(out), "--max-time", "10", *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("flag, value", [
        ("--n-shortlist", "2.5"), ("--n-shortlist", "x"), ("--alpha", "x"), ("--beta", "1/2"),
        ("--max-time", "ten"), ("--delta-theta-deg", "8.5deg"), ("--gamma", ""),
        ("--seeds", "1..1000000000000"), ("--seeds", "1..3..5"), ("--seeds", "1,x"),
    ], ids=["n-shortlist-float", "n-shortlist-text", "alpha", "beta", "max-time",
            "delta-theta-deg", "gamma-empty", "seeds-range-huge", "seeds-three-bounds",
            "seeds-not-integer"])
    def test_malformed_flag_exit_one(self, flag, value, tmp_path, capsys):
        # argparse alone would exit 2, the code of a stalled mission.
        out = tmp_path / "out"
        code = main(["run", "--config", "flat_office", "--strategies", "greedy",
                     "--seeds", "1", "--out", str(out), flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and flag in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))

    def test_bad_config_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["run", "--config", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    # sha256 of `fitslam world preview` stdout per preset: the only output that
    # scores every cell of a world.
    PREVIEW_SHA256 = {
        "flat_office": "3c04ceeebd660d3bc06f1ee881b9ed450d5225f20b1f648b5404cd3934d05b4f",
        "obstacle_ring": "d03c29e41f30324231753844d0293e93ca23747c605818ed7c58c45293bfb061",
        "ramp_yard": "de21e5ce89020a14ad08a308e9cce92dc8b53ef0c095084d6d1c9dc5f2dafafe",
    }

    @pytest.mark.parametrize("preset", sorted(PREVIEW_SHA256))
    def test_preview_output_pinned(self, preset, capsys):
        assert main(["world", "preview", "--config", preset]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.PREVIEW_SHA256[preset]

    PREVIEW_SECTIONS = ("true occupancy", "traversability scores (full sensing)",
                        "binary traversability")

    def test_preview_rasters_parse(self, capsys):
        # A binary-raster row whose first cell is Blocked begins "# " too, so
        # split on the three header lines only.
        headers = {f"# {name}": name for name in self.PREVIEW_SECTIONS}
        header_like_rows = 0
        for preset in sorted(self.PREVIEW_SHA256):
            assert main(["world", "preview", "--config", preset]) == 0
            texts = {}
            current = None
            for line in capsys.readouterr().out.splitlines():
                if line in headers:
                    current = headers[line]
                    texts[current] = []
                else:
                    texts.setdefault(current, []).append(line)
            texts = {k: "\n".join(v) + "\n" for k, v in texts.items()}
            world = generate_world(WorldConfig.from_json(preset_world_path(preset)))
            occ = OccupancyGrid(world.spec, world.true_p)
            trav = world.terrain.score_cells()
            nav = threshold(trav)
            assert texts == dict(zip(self.PREVIEW_SECTIONS,
                                     (occ.to_text(), trav.to_text(), nav.to_text())))
            assert np.isfinite(trav.score).all()
            header_like_rows += sum(row.startswith("# ") for row in nav.to_text().splitlines())
            if preset == "obstacle_ring":
                assert occ.spec.width == trav.spec.width == nav.spec.width == 150
                # The ring walls show up as occupied and non-navigable.
                i, j = occ.spec.world_to_cell(7.5, 5.2)
                assert occ.p[j, i] > 0.9
        # Some preset has raster rows a split on any "# " line would cut at.
        assert header_like_rows > 0
