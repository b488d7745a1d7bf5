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
from test_simworld import build_every_table, world_arrays

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


@pytest.mark.slow
@pytest.mark.parametrize("preset", ["flat_office", "obstacle_ring"])
def test_strategies_share_one_read_only_world(preset, tmp_path, monkeypatch):
    # Every strategy's mission on a seed runs on the one World built first: the
    # missions still match the recorded fingerprints, and the World's arrays,
    # fields and built tables alike, stay read-only and unchanged.
    worlds, before = {}, {}
    generate = harness.generate_world

    def one_world_per_seed(config):
        if config.seed not in worlds:
            worlds[config.seed] = world = generate(config)
            build_every_table(world)
            before[config.seed] = (set(vars(world)), {path: arr.tobytes()
                                                     for path, arr in world_arrays(world)})
        return worlds[config.seed]

    monkeypatch.setattr(harness, "generate_world", one_world_per_seed)
    checks = _load_checks()
    recorded = checks.load_recorded()["missions"]
    cfg = harness.ExperimentConfig(world=WorldConfig.from_json(preset_world_path(preset)),
                                   strategies=harness.STRATEGIES, seeds=(1,),
                                   out_dir=str(tmp_path))
    logs = harness.run_experiment(cfg)
    assert [lg.strategy for lg in logs] == list(harness.STRATEGIES)
    for lg in logs:
        csv = (tmp_path / f"metrics_{lg.strategy}_{lg.seed}.csv").read_bytes()
        key = checks.mission_key(preset, lg.strategy, lg.seed)
        assert checks.mission_fingerprint(csv, lg) == recorded[key], key
    assert list(worlds) == [1]
    names, arrays = before[1]
    after = world_arrays(worlds[1])
    assert set(vars(worlds[1])) == names
    assert len(after) == len(arrays) >= 10
    assert not [path for path, arr in after if arr.flags.writeable]
    assert not [path for path, arr in after if arrays.get(path) != arr.tobytes()]
