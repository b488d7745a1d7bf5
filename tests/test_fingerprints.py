"""Missions against the fingerprints the benchmark recorded in perfbench/.

A refactor that claims to change no behaviour must leave every mission's
metric CSV, goal sequence and termination byte-identical; this checks a
mission seed of each preset and strategy the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

from fitslam import harness, preset_world_path
from fitslam.simworld import WorldConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.slow
@pytest.mark.parametrize("preset, strategies", [
    ("flat_office", ("fit", "greedy", "random")),
    ("obstacle_ring", ("fit", "greedy", "random")),
    ("ramp_yard", ("greedy",)),
    ("ramp_yard", ("fit",)),
], ids=["flat_office", "obstacle_ring", "ramp_yard-greedy", "ramp_yard-fit"])
def test_missions_match_recorded_fingerprints(preset, strategies, tmp_path):
    checks = _load_checks()
    recorded = checks.load_recorded()["missions"]
    cfg = harness.ExperimentConfig(world=WorldConfig.from_json(preset_world_path(preset)),
                                   strategies=strategies, seeds=(1,), out_dir=str(tmp_path))
    logs = harness.run_experiment(cfg)
    assert [lg.strategy for lg in logs] == list(strategies)
    for lg in logs:
        csv = (tmp_path / f"metrics_{lg.strategy}_{lg.seed}.csv").read_bytes()
        key = checks.mission_key(preset, lg.strategy, lg.seed)
        assert checks.mission_fingerprint(csv, lg) == recorded[key], key
