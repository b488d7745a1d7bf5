"""Output checks: behaviour fingerprints and per-mission invariants.

A mission's fingerprint is the sha256 of the bytes `write_metrics_csv` wrote,
followed by its goal sequence and termination. Recorded fingerprints live in
`fingerprints.json` beside this file; `record.py` writes them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

from fitslam.simworld import generate_world

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
TERMINATIONS = ("complete", "stalled", "timeout")
MISMATCH = "fingerprint differs from the recorded one"


def mission_key(preset: str, strategy: str, seed: int) -> str:
    return f"{preset}/{strategy}/{seed}"


def summary_key(workload: str, preset: str, seeds: tuple) -> str:
    return f"{workload}/{preset}/{','.join(map(str, seeds))}"


def mission_fingerprint(csv_bytes: bytes, log) -> str:
    h = hashlib.sha256(csv_bytes)
    h.update(("goals " + " ".join(f"{i},{j}" for i, j in log.goal_sequence)
              + "\n").encode())
    h.update(f"termination {log.termination}\n".encode())
    return h.hexdigest()


def file_fingerprint(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_recorded() -> dict:
    if not FINGERPRINTS.exists():
        return {"missions": {}, "summaries": {}}
    return json.loads(FINGERPRINTS.read_text())


def invariant_violations(log, world_config) -> list:
    """Broken mission invariants, as readable strings; empty when all hold."""
    problems = []
    if log.termination not in TERMINATIONS:
        problems.append(f"termination {log.termination!r} not in {TERMINATIONS}")
    if not log.samples:
        return problems + ["no metric samples"]
    for prev, cur in zip(log.samples, log.samples[1:]):
        for name in ("t", "distance", "n_loop_closures"):
            if getattr(cur, name) < getattr(prev, name):
                problems.append(f"{name} decreased at t={cur.t:.3f}")
        if cur.pct_unexplored > prev.pct_unexplored:
            problems.append(f"pct_unexplored rose at t={cur.t:.3f}")
    for s in log.samples:
        if not (math.isfinite(s.trace_cov) and s.trace_cov > 0):
            problems.append(f"trace_cov {s.trace_cov!r} at t={s.t:.3f}")
            break
    spec = generate_world(dataclasses.replace(world_config, seed=log.seed)).spec
    for goal in log.goal_sequence:
        if not spec.in_bounds(*goal):
            problems.append(f"goal {goal} outside the {spec.width}x{spec.height} grid")
    return problems
