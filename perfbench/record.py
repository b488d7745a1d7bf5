"""Record behaviour fingerprints into `fingerprints.json`.

    python3 perfbench/record.py

Runs every workload untraced over mission seeds 1..RECORDED_SEEDS, in the
consecutive pairs `run.py` uses at its default run length, and stores each
mission's fingerprint and each workload's summary.csv hash. Re-record only
when a change alters behaviour on purpose, and say which hashes moved and why.
A mission that breaks an invariant is never recorded.
"""

import json
import sys

import run

if __name__ == "__main__":
    if not run.import_fitslam():
        sys.exit(2)
    from checks import FINGERPRINTS, MISMATCH
    from workloads import DEFAULT_SEED_POOL, RECORDED_SEEDS, WORKLOADS

    data = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    data.setdefault("missions", {})
    data.setdefault("summaries", {})
    changed = []
    for name, workload in WORKLOADS.items():
        for first in range(1, RECORDED_SEEDS + 1, 2):
            seeds = (first, first + 1)
            batch = run.run_batch(workload, seeds, run.OUT / f"record_{name}_{first}")
            broken = {k: r for k, r in batch.failures.items() if r != MISMATCH}
            if broken:
                for key, reason in broken.items():
                    print(f"not recorded, {key}: {reason}", file=sys.stderr)
                sys.exit(1)
            for table, new in (("missions", batch.fingerprints),
                               ("summaries", batch.summaries)):
                for key, digest in new.items():
                    if data[table].get(key, digest) != digest:
                        changed.append(key)
                    data[table][key] = digest
            print(f"{name} seeds {seeds}: {batch.wall_s:.1f} s", flush=True)
    data["note"] = (f"mission seeds 1..{DEFAULT_SEED_POOL} are the default pool; "
                    f"{DEFAULT_SEED_POOL + 1}..{RECORDED_SEEDS} are held out")
    data["missions"] = dict(sorted(data["missions"].items()))
    data["summaries"] = dict(sorted(data["summaries"].items()))
    FINGERPRINTS.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {FINGERPRINTS}; changed: {', '.join(changed) or 'none'}")
