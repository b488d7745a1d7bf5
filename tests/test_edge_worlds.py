"""Missions on edge worlds against their recorded fingerprints.

The presets are 15-40 m worlds with the start well inside the grid. Each world
under `edge_worlds/` targets one shape they never build: a grid of a few cells,
a start on an edge or a corner cell, a 30 deg field of view from a corner,
obstacles on the border, a ring around the start, a resolution that does not
divide `size_m`, no landmarks, a ramp too steep for any cell to be Free, narrow
bumps whose slope, roughness and step each pass their limit somewhere, so Free
and Blocked cells interleave, a world smaller than the camera's range, a 360
deg field of view, a 9 deg one, just above the orientation scan's 8.5 deg
ray step, a camera range just above half a cell, the floor `WorldConfig`
allows, so each occupancy ray has one sample, and a landmark exactly at the
start's camera centre, which the initial spin and the first pose of every path
fit scores meet at range 0.
Every strategy runs seed 1 on each for a short mission; a refactor that claims
to change no behaviour leaves every metric CSV, goal sequence and termination
byte-identical. A blacklist window that is not clipped at the grid's low edges
changes all three missions of `narrow_fov_corner`.

Re-record, only for a deliberate behaviour change, with
`PYTHONPATH=src python tests/test_edge_worlds.py`.
"""

import json
from pathlib import Path

import pytest

from fitslam import harness
from fitslam.simworld import WorldConfig
from test_fingerprints import _load_checks

EDGE_WORLDS = Path(__file__).resolve().parent / "edge_worlds"
EDGE_FINGERPRINTS = Path(__file__).resolve().parent / "edge_fingerprints.json"
MAX_MISSION_TIME = 300.0  # simulated seconds
WORLDS = sorted(p.stem for p in EDGE_WORLDS.glob("*.json"))


def edge_fingerprints(world: str, out: Path) -> dict:
    """`mission_fingerprint` of seed 1 of every strategy on one edge world, by mission key."""
    checks = _load_checks()
    config = WorldConfig.from_json(EDGE_WORLDS / f"{world}.json")
    fingerprints = {}
    for strategy in harness.STRATEGIES:
        log = harness.run_mission(config, strategy, 1, max_mission_time=MAX_MISSION_TIME)
        csv = out / f"metrics_{world}_{strategy}.csv"
        harness.write_metrics_csv(log, csv)
        fingerprints[checks.mission_key(world, strategy, 1)] = \
            checks.mission_fingerprint(csv.read_bytes(), log)
    return fingerprints


@pytest.mark.slow
@pytest.mark.parametrize("world", WORLDS)
def test_edge_world_matches_recorded_fingerprints(world, tmp_path):
    recorded = json.loads(EDGE_FINGERPRINTS.read_text())
    actual = edge_fingerprints(world, tmp_path)
    assert len(actual) == len(harness.STRATEGIES)
    moved = sorted(k for k in actual if recorded.get(k) != actual[k])
    assert not moved, f"missions differ from the recorded fingerprints: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for name in WORLDS:
            table.update(edge_fingerprints(name, Path(tmp)))
    EDGE_FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} missions to {EDGE_FINGERPRINTS}")
