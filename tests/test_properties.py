"""Property tests: missions on random small worlds keep their invariants, and a
world JSON with one bad value fails as bad input.

Each example of the first test builds a world from a random JSON object.
Building it either raises ConfigError or gives a world on which every strategy
runs a mission under a short time cap, and every such mission ends in a known
state with a clock, odometer and coverage that only move forward and a
covariance that stays symmetric positive semi-definite. Each example of the
second test takes a valid world and one of its keys, sets that key to each edge
value in turn (a bool, a string, null, nan, inf, a negative, zero, a subnormal, a
huge float or integer, a wrong nesting) and runs the command line in-process: it
exits 0 or 2, or 1 with `error:`, and raises no exception and no warning.
"""

import contextlib
import copy
import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from fitslam import simworld
from fitslam.cli import main
from fitslam.harness import STRATEGIES, ExperimentConfig, run_mission
from fitslam.simworld import ConfigError, WorldConfig

pytestmark = pytest.mark.slow

MAX_TIME = 120.0  # simulated seconds per mission


@st.composite
def world_json(draw):
    size = draw(st.floats(4.0, 8.0))
    coord = st.floats(0.0, size)
    extent = st.floats(0.2, 2.0)
    obstacles = [{"x": draw(coord), "y": draw(coord), "w": draw(extent), "h": draw(extent)}
                 for _ in range(draw(st.integers(0, 3)))]
    return {
        "seed": 0,
        "size_m": size,
        # Quarter-millimetre steps: most of these do not divide the size.
        "resolution": draw(st.integers(400, 1000)) / 4000,
        "obstacles": obstacles,
        "landmarks": {"count": draw(st.integers(0, 20)), "clusters": draw(st.integers(1, 3))},
        "sensors": {"fov_deg": draw(st.floats(5.0, 360.0)),
                    "max_depth_m": draw(st.floats(0.02, 6.0)),
                    "ray_step_deg": draw(st.floats(0.5, 10.0))},
        "robot": {"start_xy_theta": [draw(coord), draw(coord), draw(st.floats(-3.2, 3.2))]},
    }


def check_mission(config, strategy, seed):
    def checked_record(state):
        cov = state.cov
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.abs(cov).max()
        return record_metrics(state)

    record_metrics = simworld.record_metrics
    with mock.patch.object(simworld, "record_metrics", checked_record):
        log = run_mission(config, strategy, seed, max_mission_time=MAX_TIME)
    assert log.termination in ("complete", "stalled", "timeout")
    samples = log.samples
    for a, b in zip(samples, samples[1:]):
        assert b.pct_unexplored <= a.pct_unexplored
        assert b.t >= a.t
        assert b.distance >= a.distance


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=world_json(), seed=st.integers(1, 1000))
def test_missions_keep_invariants_or_config_rejected(raw, seed):
    try:
        config = WorldConfig.from_dict(raw)
        ExperimentConfig(world=config, seeds=(seed,), max_mission_time=MAX_TIME)
    except ConfigError as exc:
        event(f"rejected: {str(exc).split(' ')[0]}")
        return
    event("ran")
    for strategy in STRATEGIES:
        check_mission(config, strategy, seed)


# Every key a world JSON accepts, as a path into it; an int indexes a list.
KEYS = [
    ("seed",), ("size_m",), ("resolution",),
    ("terrain",), *(("terrain", k) for k in ("type", "grade", "n_bumps", "bump_amp",
                                              "bump_sigma")),
    ("obstacles",), ("obstacles", 0), *(("obstacles", 0, k) for k in ("x", "y", "w", "h",
                                                                         "height")),
    ("landmarks",), ("landmarks", "count"), ("landmarks", "clusters"), ("landmarks", "points"),
    ("landmarks", "points", 0), *(("landmarks", "points", 0, c) for c in range(3)),
    ("sensors",), *(("sensors", k) for k in ("fov_deg", "max_depth_m", "lidar_radius_m",
                                              "ray_step_deg")),
    ("robot",), ("robot", "start_xy_theta"), *(("robot", "start_xy_theta", c) for c in range(3)),
    ("robot", "speed"),
    ("surrogate",), *(("surrogate", k) for k in ("q", "kappa", "t_lc", "l_min")),
]
# Per edge class, its value; the two wrong nestings wrap the key's value.
EDGES = {"bool": True, "string": "1", "null": None, "nan": math.nan, "inf": math.inf,
         "negative": -1.0, "zero": 0, "subnormal": 5e-324, "huge": 1e308, "huge-int": 10 ** 400,
         "in-list": lambda v: [v], "in-object": lambda v: {"v": v}}


def builds(raw):
    try:
        ExperimentConfig(world=WorldConfig.from_dict(raw))
    except ConfigError:
        return False
    return True


@st.composite
def valid_world(draw):
    raw = draw(world_json())
    # ramp_bumps first: hypothesis's first draws then use every terrain setting.
    raw["terrain"] = {"type": draw(st.sampled_from(["ramp_bumps", "bumps", "ramp", "flat"]))}
    assume(builds(raw))
    return raw


def with_edge_value(raw, path, edge):
    """A copy of `raw` with the key at `path` set to the edge class's value; a missing
    section is empty, and missing landmark points are one point."""
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        if isinstance(node, dict):
            node.setdefault(key, [[1.0, 1.0, 0.5]] if key == "points" else {})
        node = node[key]
    value = EDGES[edge]
    if callable(value):
        value = value(node[path[-1]] if isinstance(node, list) or path[-1] in node else 1.0)
    node[path[-1]] = value
    return raw


# Per key of the world JSON, five valid worlds, and on each every edge class in turn:
# left to draw the key and the class beside a world, hypothesis repeats a few pairs
# and misses most (about 150 of 480 pairs in 1,000 examples).
@pytest.mark.parametrize("path", KEYS, ids=lambda path: ".".join(map(str, path)))
@settings(max_examples=5, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(raw=valid_world())
def test_world_with_an_edge_value_runs_or_exits_one(path, raw, tmp_path):
    assume(path[0] != "obstacles" or raw["obstacles"])
    config = tmp_path / "world.json"
    for edge in EDGES:
        config.write_text(json.dumps(with_edge_value(raw, path, edge)))
        for argv in (["world", "preview", "--config", str(config)],
                     ["run", "--config", str(config), "--max-time", "5", "--seeds", "1",
                      "--strategies", "greedy", "--out", str(tmp_path / "out")]):
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (0, 1, 2), (edge, argv[0])
            assert code != 1 or err.getvalue().startswith("error:"), (edge, argv[0])
            assert not caught, (edge, argv[0], [str(w.message) for w in caught])
