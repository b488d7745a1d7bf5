import functools
import json
import math
import pathlib

import numpy as np
import pytest

import fitslam
from fitslam import fisher, simworld
from fitslam.cli import main
from fitslam.frontier import detect_frontiers
from fitslam.grid import BLOCKED, FREE, UNKNOWN_P, BinaryTraversabilityGrid, OutOfBoundsError
from fitslam.harness import run_mission
from fitslam.infogain import OCCUPIED_THRESHOLD
from fitslam.planner import plan
from fitslam.simworld import (
    ConfigError,
    MissionState,
    PathBlockedError,
    World,
    WorldConfig,
    current_grids,
    execute_path,
    generate_world,
    initial_spin,
    landmark_looks,
    observe,
)
from fitslam.traversability import TerrainStatsGrid
from oracles import (MomentReference, linear, linear_array, look_per_pose, path_cells,
                     path_length, score_cells)
from test_fisher import landmark_fim_reference, visible_reference


EDGE_WORLD_DIR = pathlib.Path(__file__).resolve().parent / "edge_worlds"
EDGE_WORLDS = sorted(p.stem for p in EDGE_WORLD_DIR.glob("*.json"))


def world_arrays(world):
    """(path, array) of every array a World holds: in its fields and in the tables
    it has cached so far, through tuples and fitslam objects."""
    def walk(path, value):
        if isinstance(value, np.ndarray):
            yield path, value
        elif isinstance(value, (tuple, list)):
            for k, item in enumerate(value):
                yield from walk(f"{path}[{k}]", item)
        elif isinstance(value, dict):
            for k, item in value.items():
                yield from walk(f"{path}[{k!r}]", item)
        elif type(value).__module__.startswith("fitslam."):
            for k, item in vars(value).items():
                yield from walk(f"{path}.{k}" if path else k, item)
    return list(walk("", world))


def build_every_table(world):
    """Build each table the World caches (each `functools.cached_property`)."""
    for name, attr in vars(World).items():
        if isinstance(attr, functools.cached_property):
            getattr(world, name)


def tiny_config(**overrides):
    raw = {
        "seed": 42,
        "size_m": 8.0,
        "resolution": 0.2,
        "terrain": {"type": "flat"},
        "obstacles": [],
        "landmarks": {"count": 12, "clusters": 2},
        "robot": {"start_xy_theta": [2.0, 2.0, 0.0], "speed": 0.4},
    }
    raw.update(overrides)
    return WorldConfig.from_dict(raw)


class TestWorldConfig:
    def test_round_trip_via_json(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text(json.dumps({
            "seed": 7, "size_m": 10.0, "resolution": 0.25,
            "sensors": {"fov_deg": 90.0, "max_depth_m": 4.0},
            "surrogate": {"q": 0.002, "kappa": 0.4},
        }))
        cfg = WorldConfig.from_json(path)
        assert cfg.seed == 7
        assert cfg.sensors.camera.fov == pytest.approx(math.radians(90.0))
        assert cfg.sensors.camera.max_depth == 4.0
        assert cfg.surrogate.kappa == 0.4

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            WorldConfig.from_json(path)

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ConfigError):
            WorldConfig.from_json(path)
        assert main(["world", "preview", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_bad_surrogate_key_rejected(self):
        with pytest.raises(ConfigError):
            WorldConfig.from_dict({"surrogate": {"nope": 1.0}})

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigError):
            WorldConfig.from_dict({"size_m": -5.0})

    @pytest.mark.parametrize("override", [
        {"sensor": {"fov_deg": 60.0}},                        # typo of "sensors"
        {"sensors": {"fov": 60.0}},                           # key without its unit
        {"robot": {"start_xy_theta": [2.0, 2.0, 0.0], "speed": 0.0}},
        {"robot": {"start_xy_theta": [2.0, 2.0, 0.0], "speed": -1.0}},
        {"size_m": float("nan")},
        {"resolution": float("nan")},
        {"size_m": float("inf")},
        {"obstacles": [{"x": 3.0, "y": 3.0, "w": 0.0, "h": 1.0}]},
        {"obstacles": [{"x": 3.0, "y": 3.0, "w": 1.0, "h": -0.5}]},
        {"obstacles": [{"x": 3.0, "y": 3.0, "w": "1", "h": 1.0}]},
        # Inside size_m = 8 m but past the 11 x 0.7 = 7.7 m grid.
        {"resolution": 0.7, "robot": {"start_xy_theta": [7.9, 2.0, 0.0]}},
        {"robot": {"start_xy_theta": [99.0, 2.0, 0.0]}},
        {"obstacles": [{"x": 1.5, "y": 1.5, "w": 1.0, "h": 1.0}]},  # covers the start
        {"terrain": {"type": "ramp", "grade": "steep"}},
        {"landmarks": {"count": "many"}},
        # Shorter than the first occupancy ray sample, half a 0.2 m cell out:
        # no sample at all below a quarter cell, one past the range above it.
        {"sensors": {"max_depth_m": 0.02}},
        {"sensors": {"max_depth_m": 0.07}},
        # Integers must be JSON integers: no float, string or bool.
        {"seed": 1.5},
        {"seed": "7"},
        {"seed": True},
        {"landmarks": {"count": 10.7, "clusters": 2}},
        {"terrain": {"type": "bumps", "n_bumps": 2.7}},
        {"surrogate": {"l_min": 2.5}},
        # Every other number must be a JSON number: no string or bool.
        {"size_m": "10"},
        {"sensors": {"fov_deg": "60"}},
        {"sensors": {"fov_deg": True}},
        {"robot": {"start_xy_theta": [2.0, 2.0, 0.0], "speed": "0.4"}},
        {"robot": {"start_xy_theta": [2.0, True, 0.0]}},
        {"obstacles": [{"x": 3.0, "y": 3.0, "w": 1.0, "h": 1.0, "height": True}]},
        {"size_m": 10 ** 400},  # a JSON integer no float can hold
        # Out of range.
        {"seed": -3},
        {"terrain": {"type": "bumps", "n_bumps": -2}},
        {"landmarks": {"count": -5, "clusters": 2}},
        {"landmarks": {"count": 12, "clusters": 0}},
        {"surrogate": {"l_min": 0}},
        {"surrogate": {"kappa": -1}},
        {"surrogate": {"kappa": 0}},
        {"surrogate": {"kappa": 1.5}},
        {"surrogate": {"q": -1}},
        {"surrogate": {"t_lc": -60}},
        {"terrain": {"type": "bumps", "bump_sigma": 0.0}},  # numpy divides by zero
        {"terrain": {"type": "bumps", "bump_sigma": -3.0}},  # acts as 3.0
        # Sizes no machine can hold, rejected before anything is allocated.
        {"size_m": 4.0, "resolution": 1e-5},
        {"resolution": 5e-324},  # size_m / resolution overflows to inf
        {"sensors": {"ray_step_deg": 1e-9}},
        {"sensors": {"max_depth_m": 1e12}},
        # Past 10^3 x size_m; at 1e308 the lidar window's cell bounds overflow.
        {"sensors": {"lidar_radius_m": 8001.0}},
        {"sensors": {"lidar_radius_m": 1e308}},
        # A landmark coordinate past 10^3 x size_m; at 1e200 the norms overflow
        # and the voxel key's cast to int is invalid.
        {"landmarks": {"points": [[2.0, -8001.0, 0.5]]}},
        {"size_m": 14.0, "landmarks": {"points": [[1e200, 1.0, 1.0], [2.0, 2.0, 0.5]]}},
        # The camera's own checks, reached through the world JSON.
        {"sensors": {"fov_deg": 0.0}},
        {"sensors": {"fov_deg": 360.5}},
        {"sensors": {"max_depth_m": -1.0}},
        {"landmarks": {"count": 10 ** 11, "clusters": 2}},
        {"landmarks": {"count": 12, "clusters": 10 ** 11}},
        {"terrain": {"type": "bumps", "n_bumps": 10 ** 11}},
        # Covariance growth the measurement update cannot invert.
        {"surrogate": {"q": 1e50}},
        {"surrogate": {"q": 1e300}},
        # Terrain heights whose squares overflow the plane fit.
        {"terrain": {"type": "ramp", "grade": 1e160}},
        {"terrain": {"type": "bumps", "bump_amp": 1e308}},
        {"obstacles": [{"x": 3.0, "y": 3.0, "w": 1.0, "h": 1.0, "height": 1e308}]},
        # Two rays of 800,000 samples: the kernel casts its minimum of two rays,
        # not the 87 / 360 + 1 a plain quotient would count.
        {"size_m": 1, "resolution": 0.001,
         "sensors": {"max_depth_m": 400, "ray_step_deg": 360},
         "robot": {"start_xy_theta": [0.5, 0.5, 0]}},
    ], ids=["unknown-key", "unknown-sensor-key", "speed-zero", "speed-negative",
            "size-nan", "resolution-nan", "size-inf", "obstacle-w-zero",
            "obstacle-h-negative", "obstacle-w-string", "start-outside-grid",
            "start-outside-boundary", "start-in-obstacle", "terrain-grade-string",
            "landmark-count-string", "depth-below-quarter-cell",
            "depth-below-half-cell", "seed-float", "seed-string", "seed-bool",
            "count-float", "n-bumps-float", "l-min-float", "size-string",
            "fov-string", "fov-bool", "speed-string", "start-bool",
            "obstacle-height-bool", "size-huge-int", "seed-negative",
            "n-bumps-negative", "count-negative", "clusters-zero", "l-min-zero",
            "kappa-negative", "kappa-zero", "kappa-above-one", "q-negative",
            "t-lc-negative", "bump-sigma-zero", "bump-sigma-negative", "grid-cells-huge",
            "resolution-subnormal", "ray-step-tiny", "max-depth-huge",
            "lidar-radius-past-limit", "lidar-radius-huge", "landmark-point-past-limit",
            "landmark-point-huge", "fov-zero", "fov-above-360",
            "max-depth-negative", "count-huge",
            "clusters-huge", "n-bumps-huge", "q-1e50", "q-1e300", "grade-huge",
            "bump-amp-huge", "obstacle-height-huge", "wedge-two-rays-past-limit"])
    def test_bad_world_rejected(self, override, tmp_path, capsys):
        raw = {"seed": 42, "size_m": 8.0, "resolution": 0.2,
               "landmarks": {"count": 12, "clusters": 2},
               "robot": {"start_xy_theta": [2.0, 2.0, 0.0], "speed": 0.4}}
        raw.update(override)
        with pytest.raises(ConfigError):
            WorldConfig.from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code = main(["run", "--config", str(path), "--strategies", "greedy",
                     "--seeds", "1", "--out", str(tmp_path / "out"), "--max-time", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err

    def test_range_limits_accepted(self):
        cfg = tiny_config(seed=0, size_m=8, landmarks={"count": 0, "clusters": 1},
                          terrain={"type": "bumps", "n_bumps": 0},
                          surrogate={"q": 0, "kappa": 1, "t_lc": 0, "l_min": 1})
        assert cfg.seed == 0 and cfg.surrogate.kappa == 1
        assert generate_world(cfg).landmark_positions.shape == (0, 3)
        assert generate_world(tiny_config(seed=np.int64(3))).config.seed == 3

    def test_lidar_radius_limit_accepted(self):
        cfg = tiny_config(sensors={"lidar_radius_m": simworld.MAX_REACH * 8.0})
        assert cfg.sensors.lidar_radius == 8000.0

    @pytest.mark.parametrize("sensors, resolution", [
        ({}, 0.2),
        ({"ray_step_deg": 360}, 0.2),        # fewer than two rays by the quotient
        ({"ray_step_deg": 2.0}, 0.2),        # 43.5 rays: rounds half to even, to 44
        ({"ray_step_deg": 6.0}, 0.2),        # 14.5 rays: rounds half to even, to 14
        ({"fov_deg": 360, "ray_step_deg": 7.0}, 0.2),
        ({"max_depth_m": 0.1}, 0.2),          # one sample, half a cell out
        ({"max_depth_m": 0.37}, 0.2),
        ({"max_depth_m": 3.0}, 0.1),
        ({"max_depth_m": 4.9}, 0.15),
    ])
    def test_wedge_size_counts_the_wedge_a_look_casts(self, sensors, resolution):
        world = generate_world(tiny_config(resolution=resolution, sensors=sensors))
        cfg = world.config.sensors
        cam = cfg.camera
        offsets, ranges, sample = world.wedge
        dr = resolution / 2
        assert simworld.wedge_size(cfg, resolution) == (offsets.size, ranges.size)
        assert offsets.size == max(2, int(round(cam.fov / cfg.ray_step)) + 1)
        assert np.array_equal(ranges, np.arange(dr, cam.max_depth + dr / 2, dr))
        assert np.array_equal(sample, np.arange(ranges.size))

    def test_wedge_bound_counts_the_kernels_rays(self):
        # 2 rays x 800,000 samples; a quotient of 87 / 360 + 1 rays counted 9.9e5.
        with pytest.raises(ConfigError, match=r"1\.6e\+06 ray samples per look \(2 rays"):
            WorldConfig.from_dict({"size_m": 1, "resolution": 0.001,
                                   "sensors": {"max_depth_m": 400, "ray_step_deg": 360},
                                   "robot": {"start_xy_theta": [0.5, 0.5, 0]}})
        # At the bound: 2 rays x 500,000 samples.
        cfg = WorldConfig.from_dict({"size_m": 1, "resolution": 0.001,
                                     "sensors": {"max_depth_m": 250, "ray_step_deg": 360},
                                     "robot": {"start_xy_theta": [0.5, 0.5, 0]}})
        assert simworld.wedge_size(cfg.sensors, cfg.resolution) == (2, 500_000)

    def test_landmark_point_limit_accepted(self):
        points = [[simworld.MAX_REACH * 8.0, -simworld.MAX_REACH * 8.0, 0.5], [2.0, 2.0, 0.5]]
        world = generate_world(tiny_config(landmarks={"points": points}))
        assert np.array_equal(world.landmark_positions, points)

    def test_q_at_bound_runs_a_mission(self):
        cfg = WorldConfig.from_dict({"size_m": 10.0, "resolution": 0.2,
                                     "surrogate": {"q": simworld.MAX_SURROGATE_Q}})
        for strategy in ("fit", "random"):
            log = run_mission(cfg, strategy, 1, max_mission_time=100.0)
            assert log.final.distance > 0 and np.isfinite(log.final.trace_cov)

    @pytest.mark.parametrize("override", [
        {"terrain": {"type": "ramp", "grade": simworld.MAX_TERRAIN_HEIGHT / 10.0}},
        {"terrain": {"type": "bumps", "n_bumps": 5,
                     "bump_amp": -simworld.MAX_TERRAIN_HEIGHT / 5}},
        {"obstacles": [{"x": 5.0, "y": 5.0, "w": 1.0, "h": 1.0,
                        "height": simworld.MAX_TERRAIN_HEIGHT}]},
    ], ids=["grade", "bump-amp", "obstacle-height"])
    def test_terrain_at_height_bound_runs_a_mission(self, override):
        # The suite turns a RuntimeWarning into an error, so this fails if
        # terrain at the bound overflows the plane fit.
        cfg = WorldConfig.from_dict({"size_m": 10.0, "resolution": 0.2, **override})
        for strategy in ("fit", "greedy"):
            log = run_mission(cfg, strategy, 1, max_mission_time=100.0)
            assert log.termination in ("complete", "stalled", "timeout")

    def test_defaults_come_from_dataclasses(self):
        assert WorldConfig.from_dict({}) == WorldConfig()
        # A section's left-out keys take its defaults, once, at construction.
        cfg = WorldConfig.from_dict({"terrain": {"type": "ramp"}, "landmarks": {"count": 7},
                                     "obstacles": [{"x": 5.0, "y": 5.0, "w": 1.0, "h": 1.0}]})
        assert cfg.terrain == {**WorldConfig().terrain, "type": "ramp"}
        assert cfg.landmarks == {**WorldConfig().landmarks, "count": 7}
        assert cfg.obstacles[0]["height"] == 1.5

    def test_presets_all_parse(self):
        for name in fitslam.PRESET_WORLDS:
            cfg = WorldConfig.from_json(fitslam.preset_world_path(name))
            world = generate_world(cfg)
            assert isinstance(world, World)


class TestGenerateWorld:
    def test_same_seed_bit_identical(self):
        a = generate_world(tiny_config())
        b = generate_world(tiny_config())
        for pa, pb in zip(a.terrain.plane, b.terrain.plane, strict=True):
            assert np.array_equal(pa, pb)
        assert np.array_equal(a.occupied, b.occupied)
        assert np.array_equal(a.landmark_positions, b.landmark_positions)
        assert np.array_equal(a.landmark_covariances, b.landmark_covariances)

    def test_different_seed_different_landmarks(self):
        a = generate_world(tiny_config(seed=1))
        b = generate_world(tiny_config(seed=2))
        assert a.landmark_positions.shape == b.landmark_positions.shape
        assert not np.array_equal(a.landmark_positions, b.landmark_positions)

    def test_obstacle_footprint(self):
        cfg = tiny_config(obstacles=[{"x": 3.0, "y": 3.0, "w": 1.0, "h": 0.6,
                                      "height": 1.5}])
        world = generate_world(cfg)
        i, j = world.spec.world_to_cell(3.5, 3.3)
        assert world.occupied[j, i]
        i, j = world.spec.world_to_cell(1.0, 1.0)
        assert not world.occupied[j, i]

    def test_obstacle_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            generate_world(tiny_config(obstacles=[{"x": 1.0, "y": 1.0, "w": 1.0}]))

    def test_start_outside_boundary_rejected(self):
        with pytest.raises(ConfigError):
            generate_world(tiny_config(robot={"start_xy_theta": [99.0, 2.0, 0.0]}))

    def test_landmarks_not_inside_obstacles(self):
        cfg = tiny_config(obstacles=[{"x": 3.0, "y": 3.0, "w": 1.5, "h": 1.5}],
                          landmarks={"count": 40, "clusters": 4})
        world = generate_world(cfg)
        for x, y in world.landmark_positions[:, :2]:
            assert not (3.0 <= x < 4.5 and 3.0 <= y < 4.5)

    def test_unknown_terrain_type_rejected(self):
        with pytest.raises(ConfigError):
            generate_world(tiny_config(terrain={"type": "volcano"}))

    def test_flat_terrain_fully_sensed_scores_one(self):
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        # Sweep the robot across the map so the lidar covers every cell.
        for x in np.arange(1.0, 8.0, 2.0):
            for y in np.arange(1.0, 8.0, 2.0):
                state.pose = (float(x), float(y), 0.0)
                simworld.sense(state)
        trav, _ = current_grids(state)
        known = ~np.isnan(trav.score)
        assert known.all()
        assert np.allclose(trav.score[known], 1.0)

    def test_robot_cell_is_the_only_free_cell_before_sensing(self):
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        i, j = world.spec.world_to_cell(state.pose[0], state.pose[1])
        trav, nav = current_grids(state)
        assert np.isnan(trav.score).all()  # nothing sensed, so nothing scored
        assert [(int(a), int(b)) for a, b in np.argwhere(nav.state == FREE)] == [(j, i)]

    @pytest.mark.parametrize("preset", fitslam.PRESET_WORLDS)
    def test_terrain_holds_five_points_of_every_cell(self, preset, monkeypatch):
        world = generate_world(WorldConfig.from_json(fitslam.preset_world_path(preset)))
        calls = []
        monkeypatch.setattr(TerrainStatsGrid, "accumulate",
                            lambda self, points: calls.append(points.copy()))
        assert world.terrain is world.terrain  # built once per world
        # One call, with the five points of every cell in row-major order.
        assert len(calls) == 1
        x, y, z = calls[0].T
        i, j, inside = world.spec.world_to_cells(x, y)
        assert inside.all()
        assert (j * world.spec.width + i == np.repeat(np.arange(world.spec.n_cells), 5)).all()
        assert z.tobytes() == world.terrain_z(x, y).tobytes()

    @pytest.mark.parametrize("name", [*fitslam.PRESET_WORLDS, *EDGE_WORLDS])
    def test_terrain_equals_moment_reference(self, name):
        # The table sums each cell's samples in order from zero, as the moment
        # accumulator did: its plane and static score are that accumulator's, bit
        # for bit, signs of zero included.
        path = EDGE_WORLD_DIR / f"{name}.json" if name in EDGE_WORLDS else \
            fitslam.preset_world_path(name)
        world = generate_world(WorldConfig.from_json(path))
        ref = MomentReference(world.spec)
        for band in np.array_split(simworld.terrain_points(world), 16):
            ref.accumulate(band)
        assert (ref.count == 5).all()
        for got, want in zip(world.terrain.plane, ref.plane, strict=True):
            assert got.tobytes() == want.tobytes()
        assert world.terrain._static.tobytes() == ref.static.tobytes()

    def test_every_world_array_is_read_only(self):
        world = generate_world(tiny_config(obstacles=[{"x": 4.0, "y": 1.0, "w": 0.6, "h": 2.0}]))
        build_every_table(world)
        arrays = dict(world_arrays(world))
        assert {"occupied", "landmark_positions", "terrain.plane[0]", "terrain._static",
                "true_p", "centers[1]", "wedge[2]", "voxel_landmarks[1]"} <= set(arrays)
        assert not [path for path, arr in arrays.items() if arr.flags.writeable]


class TestSensing:
    def test_wall_cells_reach_high_probability(self):
        cfg = tiny_config(obstacles=[{"x": 3.0, "y": 1.0, "w": 0.4, "h": 2.0,
                                      "height": 1.5}])
        world = generate_world(cfg)
        state = MissionState.initial(world)
        state.pose = (2.0, 2.0, 0.0)  # facing the wall 1 m ahead
        for _ in range(3):
            simworld.sense(state)
        i, j = world.spec.world_to_cell(3.1, 2.0)
        assert state.occ.p[j, i] >= 0.9

    def test_cells_behind_wall_stay_unknown(self):
        cfg = tiny_config(obstacles=[{"x": 3.0, "y": 1.0, "w": 0.4, "h": 2.0,
                                      "height": 1.5}])
        world = generate_world(cfg)
        state = MissionState.initial(world)
        state.pose = (2.0, 2.0, 0.0)
        simworld.sense(state)
        i, j = world.spec.world_to_cell(4.5, 2.0)
        assert state.occ.p[j, i] == UNKNOWN_P

    def test_free_cells_marked_low(self):
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        simworld.sense(state)
        i, j = world.spec.world_to_cell(3.0, 2.0)
        assert state.occ.p[j, i] < 0.5

    def test_no_landmarks_in_fov_returns_empty(self):
        cfg = tiny_config(landmarks={"points": [[7.5, 7.5, 0.5]]})
        world = generate_world(cfg)
        observed, info = landmark_looks(world, [(2.0, 2.0, math.pi)])[0]  # looking away
        assert observed.size == 0 and not info.any()

    def test_landmark_ahead_is_observed(self):
        cfg = tiny_config(landmarks={"points": [[4.0, 2.0, 0.5]]})
        world = generate_world(cfg)
        observed, info = landmark_looks(world, [(2.0, 2.0, 0.0)])[0]
        assert list(observed) == [0] and info.any()

    def test_sense_returns_landmarks_fisher_visible_accepts(self):
        world = generate_world(WorldConfig.from_json(
            fitslam.preset_world_path("flat_office")))
        cfg = world.config.sensors
        rng = np.random.default_rng(9)
        poses = [(*rng.uniform(0.0, world.config.size_m, size=2), rng.uniform(-math.pi, math.pi))
                 for _ in range(60)]
        n_seen = 0
        # The landmarks a look observes come from the stacked kernel's mask.
        for (x, y, theta), (observed, _) in zip(poses, landmark_looks(world, poses)):
            pose = fisher.CameraPose.from_planar((x, y, theta), cfg.camera)
            expected = [k for k, position in enumerate(world.landmark_positions)
                        if visible_reference(pose, position)]
            assert observed.tolist() == expected
            n_seen += len(expected)
        assert n_seen > 0

    def test_observed_cell_never_reads_unknown_again(self):
        world = generate_world(tiny_config(
            obstacles=[{"x": 4.0, "y": 1.0, "w": 0.6, "h": 2.0}]))
        state = MissionState.initial(world)
        simworld.sense(state)
        observed = state.occ.p != UNKNOWN_P
        assert observed.any() and (state.occ.p[observed] > 0.5).any()
        # Later looks reveal more cells; none turns a revealed one back to Unknown.
        for heading in (0.0, 0.0, 0.3, -0.3, 0.0):
            state.pose = (2.0, 2.0, heading)
            simworld.sense(state)
        assert not np.any(state.occ.p[observed] == UNKNOWN_P)

    def test_terrain_points_are_cell_samples_in_order(self):
        world = generate_world(tiny_config(terrain={"type": "ramp", "grade": 0.1}))
        spec = world.spec
        pts = simworld.terrain_points(world)
        assert pts.shape == (5 * spec.n_cells, 3)
        for j, i in ((0, 0), (3, 7), (spec.height - 1, spec.width - 1), (3, 2)):
            k = j * spec.width + i
            for s, (fx, fy) in enumerate(simworld._CELL_SAMPLES):
                x, y, z = pts[5 * k + s]
                assert spec.world_to_cell(x, y) == (i, j)
                assert (x, y) == pytest.approx(((i + fx) * spec.resolution,
                                                (j + fy) * spec.resolution))
                assert z == world.terrain_z(x, y)

    def test_sense_twice_at_a_pose_leaves_sensed_unchanged(self):
        world = generate_world(WorldConfig.from_json(
            fitslam.preset_world_path("obstacle_ring")))
        state = MissionState.initial(world)
        spec = world.spec
        rng = np.random.default_rng(4)
        for _ in range(12):
            x, y = spec.cell_to_world(int(rng.integers(spec.width)),
                                      int(rng.integers(spec.height)))
            state.pose = (x, y, float(rng.uniform(-math.pi, math.pi)))
            simworld.sense(state)
            before = state.sensed.copy()
            simworld.sense(state)
            assert np.array_equal(state.sensed, before)
        assert state.sensed.dtype == bool
        assert state.sensed.any() and not state.sensed.all()


LOG_ODDS_STEP = math.log(0.8 / 0.2)  # +- per free / hit mark of the reference


class OccupancyReference:
    """The float log-odds occupancy update, kept as the oracle of the reveal.

    It holds its own log-odds, probability and observed arrays and its own
    count of unobserved cells.
    """

    def __init__(self, world):
        shape = (world.spec.height, world.spec.width)
        self.log_odds = np.zeros(shape)
        self.p = np.full(shape, UNKNOWN_P)
        self.observed = np.zeros(shape, dtype=bool)
        self.unknown_inside = world.spec.n_cells


def sense_occupancy_sorted(world, pose, ref):
    """Reference occupancy update: the cells of the ray samples by np.unique.

    Returns every sample's linear cell index, out of range off the grid."""
    spec = world.spec
    cfg = world.config.sensors
    cam = cfg.camera
    px, py, theta = pose
    n_rays = max(2, int(round(cam.fov / cfg.ray_step)) + 1)
    angles = theta + np.linspace(-cam.fov / 2, cam.fov / 2, n_rays)
    dr = spec.resolution / 2
    ranges = np.arange(dr, cam.max_depth + dr / 2, dr)
    x = px + np.cos(angles)[:, None] * ranges[None, :]
    y = py + np.sin(angles)[:, None] * ranges[None, :]
    i = np.floor(x / spec.resolution).astype(int)
    j = np.floor(y / spec.resolution).astype(int)
    inside = (i >= 0) & (i < spec.width) & (j >= 0) & (j < spec.height)
    hit = np.zeros_like(inside)
    hit[inside] = world.occupied[j[inside], i[inside]]
    hit &= inside
    first_hit = np.where(hit.any(axis=1), hit.argmax(axis=1), ranges.size)
    sample_idx = np.arange(ranges.size)[None, :]
    before_hit = sample_idx < first_hit[:, None]
    at_hit = sample_idx == first_hit[:, None]

    free_lin = np.unique(j[before_hit & inside] * spec.width + i[before_hit & inside])
    hit_lin = np.unique(j[at_hit & inside] * spec.width + i[at_hit & inside])
    free_lin = np.setdiff1d(free_lin, hit_lin, assume_unique=True)

    lo = ref.log_odds.ravel()
    lo[free_lin] -= LOG_ODDS_STEP
    lo[hit_lin] += LOG_ODDS_STEP
    touched = np.concatenate([free_lin, hit_lin])
    if touched.size:
        p = 1.0 / (1.0 + np.exp(-lo[touched]))
        p = np.clip(p, simworld.P_CLAMP[0], simworld.P_CLAMP[1])
        p = np.where(p == UNKNOWN_P, UNKNOWN_P + 1e-9, p)
        ref.p.ravel()[touched] = p
        obs = ref.observed.ravel()
        new = touched[~obs[touched]]
        obs[new] = True
        ref.unknown_inside -= int(new.size)
    return j * spec.width + i


# Headings of the 8 grid steps, as execute_path computes them.
STEP_HEADINGS = [math.atan2(dj, di) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                 if (di, dj) != (0, 0)]


def occupancy_oracle_poses(world, rng, n_random=200):
    """Random cell-centre poses plus the start, grid-edge and wall-facing ones."""
    spec = world.spec
    poses = [tuple(world.config.robot.start)]
    for k in range(n_random):
        i, j = int(rng.integers(spec.width)), int(rng.integers(spec.height))
        x, y = spec.cell_to_world(i, j)
        heading = (STEP_HEADINGS[k % 8] if k % 2 == 0
                   else float(rng.uniform(-math.pi, math.pi)))
        poses.append((x, y, heading))
    last_i, last_j = spec.width - 1, spec.height - 1
    for i, j, heading in ((0, last_j // 2, math.pi), (last_i, last_j // 2, 0.0),
                          (last_i // 2, 0, -math.pi / 2), (last_i // 2, last_j, math.pi / 2),
                          (0, 0, -3 * math.pi / 4), (last_i, last_j, math.pi / 4),
                          (0, last_j, 3 * math.pi / 4), (last_i, 0, -math.pi / 4)):
        poses.append((*spec.cell_to_world(i, j), heading))
    for ob in world.config.obstacles:
        # Half a metre off each face of the obstacle, looking at its middle.
        cx, cy = ob["x"] + ob["w"] / 2, ob["y"] + ob["h"] / 2
        for x, y, heading in ((ob["x"] - 0.5, cy, 0.0), (ob["x"] + ob["w"] + 0.5, cy, math.pi),
                              (cx, ob["y"] - 0.5, math.pi / 2),
                              (cx, ob["y"] + ob["h"] + 0.5, -math.pi / 2)):
            if spec.point_in_bounds(x, y):
                poses.append((*spec.cell_to_world(*spec.world_to_cell(x, y)), heading))
    return poses


def log_odds_ladder(k_max=8):
    """Clamped logistic of 0 and of k = 1..k_max repeated +-LOG_ODDS_STEP additions."""
    lo = np.zeros(2 * k_max + 1)
    step = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        step[k] = step[k - 1] + LOG_ODDS_STEP
    lo[k_max:] = step
    lo[:k_max + 1] = -step[::-1]
    return np.clip(1.0 / (1.0 + np.exp(-lo)), *simworld.P_CLAMP)


def lidar_window(world, pose):
    """The (j0, j1, i0, i1) bounds of the cells a look at `pose` may sense."""
    spec = world.spec
    px, py, _ = pose
    r = world.config.sensors.lidar_radius
    i0 = max(0, int((px - r) / spec.resolution))
    i1 = min(spec.width, int((px + r) / spec.resolution) + 2)
    j0 = max(0, int((py - r) / spec.resolution))
    j1 = min(spec.height, int((py + r) / spec.resolution) + 2)
    return j0, j1, i0, i1


def lidar_disk(world, pose):
    """The (H, W) mask of the cells whose centre lies within the lidar radius of
    `pose`, over the whole grid."""
    px, py, _ = pose
    r = world.config.sensors.lidar_radius
    xs, ys = world.centers
    return (xs - px) ** 2 + (ys[:, None] - py) ** 2 <= r * r


class TestTerrainOracle:
    """`sensed` is the union of the lidar disks of every look so far, and a
    mission's scores are the whole-grid reference's under it."""

    @pytest.mark.parametrize("preset", fitslam.PRESET_WORLDS)
    def test_scores_match_fresh_cell_accumulate(self, preset):
        world = generate_world(WorldConfig.from_json(fitslam.preset_world_path(preset)))
        state = MissionState.initial(world)
        spec = world.spec
        ref = np.zeros((spec.height, spec.width), dtype=bool)
        rng = np.random.default_rng(5)
        coverage = []
        for _ in range(8):
            x, y = spec.cell_to_world(int(rng.integers(spec.width)),
                                      int(rng.integers(spec.height)))
            state.pose = (x, y, float(rng.uniform(-math.pi, math.pi)))
            simworld.sense(state)
            ref |= lidar_disk(world, state.pose)
            assert np.array_equal(state.sensed, ref), state.pose
            trav, _ = current_grids(state)
            assert trav.score.tobytes() == score_cells(world.terrain, ref).tobytes()
            coverage.append(state.sensed.mean())
        # The first pose leaves cells unsensed, so Unknown cells are compared too.
        assert 0.0 < coverage[0] < 1.0

    @staticmethod
    def look(world, state, ref, pose):
        """One look at `pose` by the kernel and by the reference; returns the
        sensed fraction of the lidar window before it."""
        j0, j1, i0, i1 = lidar_window(world, pose)
        before = state.sensed[j0:j1, i0:i1].mean()
        state.pose = pose
        simworld.sense(state)
        ref |= lidar_disk(world, pose)
        assert np.array_equal(state.sensed, ref), pose
        return before

    # A 4 m world under a 1 m lidar: windows of 22 cells a side, clipped at the edges.
    SMALL_LIDAR = {"size_m": 4.0, "resolution": 0.1, "sensors": {"lidar_radius_m": 1.0},
                   "landmarks": {"count": 0, "clusters": 1},
                   "robot": {"start_xy_theta": [2.05, 2.05, 0.0]}}

    def test_repeated_pose_with_window_fully_sensed(self):
        world = generate_world(WorldConfig.from_dict(self.SMALL_LIDAR))
        state = MissionState.initial(world)
        ref = np.zeros(state.sensed.shape, dtype=bool)
        lattice = [(x, y, 0.0) for y in (0.55, 1.55, 2.55, 3.55) for x in (0.55, 1.55, 2.55, 3.55)]
        for pose in lattice:
            self.look(world, state, ref, pose)
        assert state.sensed.all()
        # Every window is now fully sensed: the look has nothing to add.
        for pose in lattice[::5] + [(1.0, 2.0, 0.0), (3.97, 0.02, 1.0)]:
            assert self.look(world, state, ref, pose) == 1.0

    def test_one_cell_steps_with_window_partly_sensed(self):
        world = generate_world(WorldConfig.from_dict(self.SMALL_LIDAR))
        state = MissionState.initial(world)
        ref = np.zeros(state.sensed.shape, dtype=bool)
        spec = world.spec
        # From the middle to each edge one cell at a time, so each look after
        # the first finds part of its window sensed; the last ones reach the edge.
        mid = spec.width // 2
        arms = [[(mid + s * k, mid) for k in range(mid)] for s in (1, -1)]
        arms += [[(mid, mid + s * k) for k in range(mid)] for s in (1, -1)]
        before = [self.look(world, state, ref, (*spec.cell_to_world(i, j), 0.0))
                  for arm in arms for i, j in arm]
        assert before[0] == 0.0 and all(0.0 < b < 1.0 for b in before[1:])
        assert not state.sensed.all()


def assert_occupancy_matches_sorted_reference(world, poses):
    """Look at each pose with the kernel and the reference; returns the state, the
    reference and every sample's linear cell index."""
    state = MissionState.initial(world)
    ref = OccupancyReference(world)
    samples = []
    for pose in poses:
        state.pose = pose
        samples.append(sense_occupancy_sorted(world, pose, ref))
        simworld._sense_occupancy(state)
        # Every cell the reference has observed shows its truth; the
        # log-odds class agrees with it.
        assert np.array_equal(state.occ.p,
                              np.where(ref.observed, world.true_p, UNKNOWN_P)), pose
        assert np.array_equal(state.occ.p > OCCUPIED_THRESHOLD,
                              ref.p > OCCUPIED_THRESHOLD), pose
        assert state.unknown_inside == ref.unknown_inside, pose
    return state, ref, np.concatenate([lin.ravel() for lin in samples])


class TestOccupancyOracle:
    @pytest.mark.parametrize("preset", fitslam.PRESET_WORLDS)
    def test_matches_sorted_reference(self, preset):
        world = generate_world(WorldConfig.from_json(fitslam.preset_world_path(preset)))
        poses = occupancy_oracle_poses(world, np.random.default_rng(11))
        assert len(poses) > 200
        state, ref, _ = assert_occupancy_matches_sorted_reference(world, poses)
        assert ref.observed.any() and (state.occ.p > 0.9).any()
        # Some cell was marked often enough to hit each clamp.
        assert (np.abs(ref.log_odds) > 3 * LOG_ODDS_STEP).any()
        assert set(np.unique(state.occ.p).tolist()) <= {*simworld.P_CLAMP, UNKNOWN_P}

    @pytest.mark.parametrize("preset", fitslam.PRESET_WORLDS)
    def test_off_centre_poses_match_sorted_reference(self, preset):
        world = generate_world(WorldConfig.from_json(fitslam.preset_world_path(preset)))
        spec = world.spec
        rng = np.random.default_rng(12)
        xy = rng.uniform(0.0, [spec.width * spec.resolution, spec.height * spec.resolution],
                         size=(150, 2))
        poses = [(x, y, float(rng.uniform(-math.pi, math.pi))) for x, y in xy]
        state, _, _ = assert_occupancy_matches_sorted_reference(world, poses)
        assert (state.occ.p > 0.9).any()

    def test_world_smaller_than_camera_range(self):
        # A 3 m world under the 5 m camera, with blocks on every edge and corner:
        # looks sample past every edge, so some samples' linear indices are
        # negative and some past the end. Clipped, or wrapped into the next row,
        # such an index can land on a blocked cell.
        blocks = [(0.0, 0.0, 0.3, 0.3), (2.7, 2.7, 0.3, 0.3), (0.0, 1.0, 0.3, 0.5),
                  (2.7, 2.0, 0.3, 0.6), (1.2, 0.0, 0.5, 0.2), (0.5, 2.8, 0.6, 0.2),
                  (1.8, 1.0, 0.3, 0.3)]
        world = generate_world(WorldConfig.from_dict({
            "size_m": 3.0, "resolution": 0.1, "landmarks": {"count": 0, "clusters": 1},
            "obstacles": [{"x": x, "y": y, "w": w, "h": h} for x, y, w, h in blocks],
            "robot": {"start_xy_theta": [1.5, 1.5, 0.0]}}))
        rng = np.random.default_rng(13)
        poses = [(x, y, float(rng.uniform(-math.pi, math.pi)))
                 for x, y in rng.uniform(0.0, 3.0, size=(120, 2))]
        # A ray from a pose on the grid leaves it once and never comes back, so
        # only a pose off the grid looking in shows whether samples off the grid
        # are kept out of the hit test: half a metre past each edge and corner.
        for t in (0.15, 0.85, 1.5, 2.35, 2.85):
            poses += [(-0.5, t, 0.0), (3.5, t, math.pi), (t, -0.5, math.pi / 2),
                      (t, 3.5, -math.pi / 2)]
        poses += [(-0.5, -0.5, math.pi / 4), (3.5, 3.5, -3 * math.pi / 4)]
        state, _, lin = assert_occupancy_matches_sorted_reference(world, poses)
        assert (lin < 0).any() and (lin >= world.spec.n_cells).any()
        assert (state.occ.p == simworld.P_CLAMP[1]).any()

    def test_ladder_is_clamped_logistic_of_repeated_steps(self):
        # The reference's end rungs are the two values a seen cell can show.
        ladder = np.unique(log_odds_ladder())
        assert ladder.size == 7 and ladder[3] == UNKNOWN_P
        assert np.array_equal(ladder[[0, -1]], simworld.P_CLAMP)
        world = generate_world(WorldConfig.from_json(fitslam.preset_world_path("obstacle_ring")))
        assert np.unique(world.true_p).tolist() == list(simworld.P_CLAMP)


class TestSurrogateCovariance:
    def test_landmark_free_path_trace_increases(self):
        cfg = tiny_config(landmarks={"points": []})
        world = generate_world(cfg)
        state = MissionState.initial(world)
        nav_path = plan_straight_path(world, (2.0, 2.0), (6.0, 2.0))
        trace0 = float(np.trace(state.cov))
        traces = [trace0]
        execute_path(state, nav_path, 0.0, free_nav(world))
        traces.extend(s.trace_cov for s in state.samples)
        assert all(b >= a - 1e-15 for a, b in zip(traces, traces[1:]))
        assert traces[-1] > trace0

    def test_landmarks_lower_final_trace(self):
        lms = [[4.0 + 0.2 * k, 2.4, 0.6] for k in range(10)]
        base = tiny_config(landmarks={"points": []})
        rich = tiny_config(landmarks={"points": lms})
        final = {}
        for name, cfg in (("bare", base), ("rich", rich)):
            world = generate_world(cfg)
            state = MissionState.initial(world)
            path = plan_straight_path(world, (2.0, 2.0), (6.0, 2.0))
            execute_path(state, path, 0.0, free_nav(world))
            final[name] = float(np.trace(state.cov))
        assert final["rich"] < final["bare"]

    def test_covariance_stays_symmetric_psd(self):
        cfg = tiny_config(landmarks={"count": 20, "clusters": 3})
        world = generate_world(cfg)
        state = MissionState.initial(world)
        initial_spin(state)
        path = plan_straight_path(world, (2.0, 2.0), (6.0, 6.0))
        execute_path(state, path, 1.0, free_nav(world))
        assert np.allclose(state.cov, state.cov.T)
        assert np.linalg.eigvalsh(state.cov).min() > 0.0

    def test_loop_closure_requires_mature_landmarks(self):
        lms = [[3.0 + 0.1 * k, 2.0, 0.6] for k in range(8)]
        cfg = tiny_config(landmarks={"points": lms},
                          surrogate={"t_lc": 10.0, "l_min": 5, "kappa": 0.5,
                                     "q": 1e-3})
        world = generate_world(cfg)
        state = MissionState.initial(world)
        state.pose = (2.0, 2.0, 0.0)
        look(world, state)  # first sight registers the landmarks
        assert state.n_loop_closures == 0
        state.clock += 5.0
        look(world, state)  # still younger than t_lc
        assert state.n_loop_closures == 0
        state.clock += 6.0
        trace_before = float(np.trace(state.cov))
        look(world, state)  # now mature: one closure
        assert state.n_loop_closures == 1
        # The contraction multiplies cov by kappa before the measurement
        # update, so the trace drops at least that much.
        assert float(np.trace(state.cov)) < 0.5 * trace_before + 1e-12

    def test_first_seen_keeps_first_sight_clock(self):
        lms = [[3.0 + 0.1 * k, 2.0, 0.6] for k in range(8)] + [[2.0, 7.0, 0.6]]
        world = generate_world(tiny_config(landmarks={"points": lms}))
        state = MissionState.initial(world)
        state.pose = (2.0, 2.0, 0.0)
        state.clock = 3.0
        look(world, state)
        seen = np.isfinite(state.first_seen)
        assert seen[:8].all() and not seen[8]  # the last landmark is behind the robot
        state.clock = 9.0
        look(world, state)
        assert np.array_equal(state.first_seen[:8], np.full(8, 3.0))

    def test_loop_closure_resets_first_seen(self):
        lms = [[3.0 + 0.1 * k, 2.0, 0.6] for k in range(8)]
        cfg = tiny_config(landmarks={"points": lms},
                          surrogate={"t_lc": 10.0, "l_min": 5})
        world = generate_world(cfg)
        state = MissionState.initial(world)
        state.pose = (2.0, 2.0, 0.0)
        look(world, state)
        state.clock += 11.0
        look(world, state)
        assert state.n_loop_closures == 1
        look(world, state)  # immediately again: landmarks are young now
        assert state.n_loop_closures == 1


def look(world, state):
    """`observe` at the current pose, with its landmarks from `landmark_looks`."""
    observe(state, *landmark_looks(world, [state.pose])[0])


def covariance_reference(world, pose, cov, observed):
    """One look's measurement update from the scalar FIMs summed in landmark order."""
    if observed.size == 0:
        return cov
    camera = fisher.CameraPose.from_planar(pose, world.config.sensors.camera)
    info = np.zeros((6, 6))
    for k in observed:
        info += landmark_fim_reference(camera, world.landmark_positions[k],
                                       world.landmark_covariances[k])
    if not info.any():
        return cov
    cov = np.linalg.inv(np.linalg.inv(cov) + info)
    return 0.5 * (cov + cov.T)


def random_drive(world, rng, start, n_legs=12):
    """Legs to random cells, each a run of diagonal steps and then a straight run: the
    first from the cell `start`, each of the others from where the previous one ended."""
    spec = world.spec
    paths, (i, j) = [], start
    for _ in range(n_legs):
        gi, gj = int(rng.integers(spec.width)), int(rng.integers(spec.height))
        cells = [(i, j)]
        while (i, j) != (gi, gj):
            i += (gi > i) - (gi < i)
            j += (gj > j) - (gj < j)
            cells.append((i, j))
        paths.append(linear_array(cells, spec))
    return paths


class TestCovarianceOracle:
    @pytest.mark.parametrize("preset", fitslam.PRESET_WORLDS)
    def test_random_drives_match_per_landmark_reference(self, preset, monkeypatch):
        raw = json.loads(fitslam.preset_world_path(preset).read_text())
        raw["surrogate"]["t_lc"] = 5.0  # loop closures within the drive
        world = generate_world(WorldConfig.from_dict(raw))
        state = MissionState.initial(world)
        kappa = world.config.surrogate.kappa
        looks = []

        def checked_observe(state, observed, info):
            # Each look of the spin and of a drive takes its landmarks and information
            # from one stacked pass; the per-pose form it replaced gives the same bits.
            per_pose = look_per_pose(*state.pose, world.landmark_positions,
                                     world.landmark_covariances, world.config.sensors.camera)
            assert np.array_equal(observed, per_pose[0]), (len(looks), state.pose)
            assert np.array_equal(info, per_pose[1]), (len(looks), state.pose)
            cov, closures = state.cov.copy(), state.n_loop_closures
            simworld_observe(state, observed, info)
            want = covariance_reference(world, state.pose, cov, observed)
            if state.n_loop_closures > closures:
                want = kappa * want
            assert np.array_equal(state.cov, want), (len(looks), state.pose)
            looks.append(observed.size)

        simworld_observe = simworld.observe
        monkeypatch.setattr(simworld, "observe", checked_observe)
        initial_spin(state)
        rng = np.random.default_rng(3)
        for path in random_drive(world, rng, world.spec.world_to_cell(*state.pose[:2])):
            execute_path(state, path, float(rng.uniform(-math.pi, math.pi)),
                         free_nav(world))
        # Many looks stack several landmarks, and some close a loop.
        assert len(looks) > 300 and sum(k > 1 for k in looks) > 40
        assert state.n_loop_closures > 0


class TestRevealInvariant:
    @pytest.mark.parametrize("preset, strategy", [("obstacle_ring", "fit"),
                                                  ("flat_office", "random")])
    def test_every_look_of_a_mission_keeps_count_and_truth(self, preset, strategy,
                                                           monkeypatch):
        # The reveal writes only cells that read Unknown, which is exact only if
        # every known cell already holds its truth and the running count is the
        # number of Unknown cells. Check both after every look of a full mission.
        looks = []

        def checked_observe(state, observed, info):
            simworld_observe(state, observed, info)
            p = state.occ.p
            known = p != UNKNOWN_P
            assert state.unknown_inside == p.size - np.count_nonzero(known), len(looks)
            assert np.array_equal(p[known], state.world.true_p[known]), len(looks)
            looks.append(state.unknown_inside)

        simworld_observe = simworld.observe
        monkeypatch.setattr(simworld, "observe", checked_observe)
        cfg = WorldConfig.from_json(fitslam.preset_world_path(preset))
        log = run_mission(cfg, strategy, 1)
        assert len(looks) > 300 and looks[-1] < looks[0]
        assert log.final.pct_unexplored == 100.0 * looks[-1] / cfg.grid_spec().n_cells


class TestExecutePath:
    def test_blocked_path_aborts_before_moving(self):
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        initial_spin(state)
        i, j = world.spec.world_to_cell(2.0, 2.0)
        cells = [(i, j), (i + 1, j), (i + 2, j), (i + 3, j)]
        nav = free_nav(world)
        nav.state[j, i + 2] = BLOCKED  # the third path cell
        before = (state.pose, state.clock, state.distance, state.cov.copy(),
                  list(state.samples))
        with pytest.raises(PathBlockedError):
            execute_path(state, linear_array(cells, world.spec), 0.0, nav=nav)
        assert (state.pose, state.clock, state.distance) == before[:3]
        assert np.array_equal(state.cov, before[3])
        assert state.samples == before[4]

    @pytest.mark.parametrize("off_grid", ["negative", "n_cells"])
    def test_off_grid_index_aborts_before_moving(self, off_grid):
        # A negative index would wrap in a flat gather and one past the grid would
        # fail it: either must raise OutOfBoundsError before any state changes.
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        initial_spin(state)
        start = world.spec.linear_index(*world.spec.world_to_cell(2.0, 2.0))
        bad = -1 if off_grid == "negative" else world.spec.n_cells
        path = np.array([start, start + 1, bad, start + 2])
        before = (state.pose, state.clock, state.distance, state.cov.copy(),
                  list(state.samples), state.occ.p.copy())
        with pytest.raises(OutOfBoundsError):
            execute_path(state, path, 0.0, nav=free_nav(world))
        assert (state.pose, state.clock, state.distance) == before[:3]
        assert np.array_equal(state.cov, before[3])
        assert state.samples == before[4]
        assert np.array_equal(state.occ.p, before[5])

    @staticmethod
    def assert_aborts_before_moving(cells, match):
        # The robot stands in cell (10, 10). The drive would book each step of a
        # path it cannot follow as a move of 1 or sqrt 2 cells from wherever the
        # robot is, so it must refuse the path before any state changes.
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        initial_spin(state)
        assert world.spec.world_to_cell(*state.pose[:2]) == (10, 10)
        before = (state.pose, state.clock, state.distance, state.cov.copy(),
                  list(state.samples), state.occ.p.copy())
        with pytest.raises(ValueError, match=match):
            execute_path(state, linear_array(cells, world.spec), 0.0, nav=free_nav(world))
        assert (state.pose, state.clock, state.distance) == before[:3]
        assert np.array_equal(state.cov, before[3])
        assert state.samples == before[4]
        assert np.array_equal(state.occ.p, before[5])

    @pytest.mark.parametrize("cells", [[(11, 10), (12, 10), (13, 10)], []],
                             ids=["elsewhere", "empty"])
    def test_path_off_the_robot_cell_aborts_before_moving(self, cells):
        self.assert_aborts_before_moving(cells, r"must start at the robot's cell \(10, 10\)")

    @pytest.mark.parametrize("cells", [[(10, 10), (11, 10), (13, 10), (14, 10)],
                                       [(10, 10), (11, 11), (11, 11), (12, 11)]],
                             ids=["jump", "repeat"])
    def test_step_to_a_non_neighbour_aborts_before_moving(self, cells):
        self.assert_aborts_before_moving(cells, "8 neighbouring cells")

    def test_blocked_cell_aborts(self):
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        _, nav = current_grids(state)
        start = world.spec.world_to_cell(2.0, 2.0)
        cells = [start, (start[0] + 1, start[1])]
        nav.state[cells[1][1], cells[1][0]] = 0  # BLOCKED
        with pytest.raises(PathBlockedError):
            execute_path(state, linear_array(cells, world.spec), 0.0, nav=nav)

    @pytest.mark.parametrize("cardinal", [(1, 0), (0, 1)])
    def test_closed_corner_aborts_before_moving(self, cardinal):
        # A diagonal step needs one of its two cardinal cells Free, as in the planner:
        # with both closed it raises before any state changes, with one open it drives.
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        initial_spin(state)
        i, j = world.spec.world_to_cell(*state.pose[:2])
        path = linear_array([(i, j), (i + 1, j + 1)], world.spec)
        nav = free_nav(world)
        nav.state[j, i + 1] = nav.state[j + 1, i] = BLOCKED
        assert len(plan(nav, (i, j), (i + 1, j + 1))) > 2  # the planner goes round
        before = (state.pose, state.clock, state.distance, state.cov.copy(),
                  list(state.samples), state.occ.p.copy())
        with pytest.raises(PathBlockedError, match="closed corner"):
            execute_path(state, path, 0.0, nav=nav)
        assert (state.pose, state.clock, state.distance) == before[:3]
        assert np.array_equal(state.cov, before[3])
        assert state.samples == before[4]
        assert np.array_equal(state.occ.p, before[5])

        nav.state[j + cardinal[1], i + cardinal[0]] = FREE
        execute_path(state, path, 0.0, nav=nav)
        assert state.pose == world.spec.cell_to_world(i + 1, j + 1) + (0.0,)
        assert state.distance == pytest.approx(before[2] + math.sqrt(2) * world.spec.resolution)

    def test_clock_and_distance_advance(self):
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        path = plan_straight_path(world, (2.0, 2.0), (4.0, 2.0))
        t0, d0 = state.clock, state.distance
        execute_path(state, path, 0.0, free_nav(world))
        length_m = path_length(path, world.spec)
        assert state.distance == pytest.approx(d0 + length_m)
        assert state.clock >= t0 + length_m / world.config.robot.speed

    def test_pose_ends_at_goal_with_theta_star(self):
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        path = plan_straight_path(world, (2.0, 2.0), (4.0, 4.0))
        execute_path(state, path, 1.25, free_nav(world))
        gx, gy = world.spec.cell_to_world(*path_cells(path, world.spec)[-1])
        assert state.pose == pytest.approx((gx, gy, 1.25))


class TestMetrics:
    def test_initial_spin_covers_disk(self):
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        initial_spin(state)
        assert len(state.samples) == 1
        assert state.samples[0].pct_unexplored < 100.0
        assert state.samples[0].t == pytest.approx(2 * math.pi)

    def test_pct_unexplored_monotone(self):
        world = generate_world(tiny_config(seed=5))
        state = MissionState.initial(world)
        initial_spin(state)
        path = plan_straight_path(world, (2.0, 2.0), (6.0, 6.0))
        execute_path(state, path, 2.0, free_nav(world))
        pcts = [s.pct_unexplored for s in state.samples]
        assert all(b <= a for a, b in zip(pcts, pcts[1:]))

    def test_pct_tracks_unknown_inside_boundary(self):
        world = generate_world(tiny_config())
        state = MissionState.initial(world)
        initial_spin(state)
        unknown = state.occ.unknown_mask()
        expected = 100.0 * unknown.sum() / unknown.size
        assert state.samples[-1].pct_unexplored == pytest.approx(expected)

    def test_last_row_and_column_are_explored(self):
        # 3.9 / 0.2 rounds to 20 cells a side, whose last centres lie at
        # 3.9000000000000004 m, one ulp past size_m.
        world = generate_world(tiny_config(size_m=3.9, sensors={"max_depth_m": 1.5},
                                           robot={"start_xy_theta": [3.0, 2.0, 0.0]}))
        state = MissionState.initial(world)
        assert state.unknown_inside == 400
        initial_spin(state)
        unknown = state.occ.unknown_mask()
        assert unknown[:, -1].any() and not unknown[:, -1].all()
        assert state.unknown_inside == unknown.sum()
        _, nav = current_grids(state)
        last_column = linear({(19, j) for j in range(world.spec.height)}, world.spec)
        assert detect_frontiers(state.occ, nav) & last_column


def free_nav(world):
    """A fully-Free grid of the world's shape."""
    spec = world.spec
    return BinaryTraversabilityGrid(spec, np.full((spec.height, spec.width), FREE, np.int8))


def plan_straight_path(world, start_xy, goal_xy):
    """Plan on `free_nav` (flat tiny worlds)."""
    spec = world.spec
    return plan(free_nav(world), spec.world_to_cell(*start_xy), spec.world_to_cell(*goal_xy))
