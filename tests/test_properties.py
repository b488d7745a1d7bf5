"""Property tests: missions on random small worlds keep their invariants.

Each example builds a world from a random JSON object. Building it either
raises ConfigError or gives a world on which every strategy runs a mission
under a short time cap, and every such mission ends in a known state with a
clock, odometer and coverage that only move forward and a covariance that
stays symmetric positive semi-definite.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from fitslam import simworld
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
