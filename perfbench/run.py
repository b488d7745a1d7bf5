"""Mission benchmark for fitslam.

    python3 perfbench/run.py --workload fit_ramp_yard --seed 1 --seconds 25 --trace 0

Runs one workload as a batch in this process, one thread: its missions go
one after another through `fitslam.harness.run_experiment`. Prints every
metric with its unit and sample count, checks every mission against its
recorded fingerprint and invariants, and ends with one JSON line
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics: setup_s, wall_s, decide_ms_p50,
decide_ms_p90 and peak_rss_mb, times divided by the run's host slowdown
(`calibrate.py`) with the raw times beside them. `--trace 1` runs the batch untraced, then
again under the layer trace of `spans.py`, and reports the per-layer metrics.
Run records, results and span files go to `perfbench/out/`.
"""

import os

# One thread: numpy's OpenBLAS would otherwise start a thread per core, and
# the numbers must measure the program, not the scheduler. Set before numpy
# loads, and inherited by the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import NOMINAL_MS, HostSpeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
P90_MIN_SAMPLES = 100  # ten decisions must lie beyond the 90th percentile


class DecisionClock:
    """Times how long the robot stands still while choosing each goal.

    A decision runs from the end of the previous drive (or of the initial
    spin) to the next call into `execute_path`. Besides these timestamps, the
    only instrument inside an untraced batch's missions is the calibration
    kernel, run once as each drive (or the spin) ends, before the decision's
    clock starts. `on_sample(start, end)` is told when each kernel ran, so a
    tracer can keep it out of its spans' self times.
    """

    def __init__(self, host, on_sample=None):
        self.decisions_ms = []
        self.host = host
        self._on_sample = on_sample
        self._idle_since = None

    def _drive_ended(self):
        start, end = self.host.sample()
        if self._on_sample is not None:
            self._on_sample(start, end)
        self._idle_since = perf_counter()

    @contextlib.contextmanager
    def installed(self, harness):
        spin, drive = harness.initial_spin, harness.execute_path

        def timed_spin(*args, **kwargs):
            try:
                return spin(*args, **kwargs)
            finally:
                self._drive_ended()

        def timed_drive(*args, **kwargs):
            self.decisions_ms.append(1e3 * (perf_counter() - self._idle_since))
            try:
                return drive(*args, **kwargs)
            finally:
                self._drive_ended()

        harness.initial_spin, harness.execute_path = timed_spin, timed_drive
        try:
            yield self
        finally:
            harness.initial_spin, harness.execute_path = spin, drive


@dataclass
class Batch:
    wall_s: float = 0.0  # raw, excluding the calibration kernel's runs
    decisions_ms: list = field(default_factory=list)  # raw
    host: HostSpeed = field(default_factory=HostSpeed)
    fingerprints: dict = field(default_factory=dict)  # mission key -> sha256
    failures: dict = field(default_factory=dict)      # mission key -> reason
    summaries: dict = field(default_factory=dict)     # summary key -> sha256
    summary_failures: list = field(default_factory=list)
    unchecked: list = field(default_factory=list)     # keys with no recording
    attempted: int = 0

    @property
    def nominal_wall_s(self) -> float:
        return self.wall_s / self.host.slowdown


def run_batch(workload, seeds, out_dir, tracer=None) -> Batch:
    """Run the workload's missions and check every output."""
    from checks import (MISMATCH, file_fingerprint, invariant_violations,
                        load_recorded, mission_fingerprint, mission_key, summary_key)
    from fitslam import harness, preset_world_path
    from fitslam.simworld import WorldConfig

    recorded = load_recorded()
    batch = Batch()
    shutil.rmtree(out_dir, ignore_errors=True)
    host = batch.host
    clock = DecisionClock(host, tracer.calibration if tracer else None)
    for preset in workload.presets:
        world = WorldConfig.from_json(preset_world_path(preset))
        cfg = harness.ExperimentConfig(world=world, strategies=workload.strategies,
                                       seeds=seeds, out_dir=str(out_dir / preset))
        keys = [(s, seed) for s in workload.strategies for seed in seeds]
        batch.attempted += len(keys)
        logs = None
        with contextlib.ExitStack() as stack:
            if tracer:
                stack.enter_context(tracer.installed())
                tracer.preset = preset
            # Installed over the tracer's wrappers, so that the traced batch
            # runs the kernel as often as the untraced one.
            stack.enter_context(clock.installed(harness))
            t0, spent0 = perf_counter(), host.spent_s
            try:
                logs = harness.run_experiment(cfg)
            except Exception:
                traceback.print_exc()
            batch.wall_s += perf_counter() - t0 - (host.spent_s - spent0)
        if logs is None:
            for strategy, seed in keys:
                batch.failures[mission_key(preset, strategy, seed)] = "raised"
            continue

        for log in logs:
            key = mission_key(preset, log.strategy, log.seed)
            csv_path = out_dir / preset / f"metrics_{log.strategy}_{log.seed}.csv"
            batch.fingerprints[key] = mission_fingerprint(csv_path.read_bytes(), log)
            want = recorded["missions"].get(key)
            problems = invariant_violations(log, world)
            if want is None:
                batch.unchecked.append(key)
            elif want != batch.fingerprints[key]:
                problems.insert(0, MISMATCH)
            if problems:
                batch.failures[key] = "; ".join(problems[:5])
        skey = summary_key(workload.name, preset, seeds)
        batch.summaries[skey] = file_fingerprint(out_dir / preset / "summary.csv")
        want = recorded["summaries"].get(skey)
        if want is None:
            batch.unchecked.append(skey)
        elif want != batch.summaries[skey]:
            batch.summary_failures.append(skey)
    batch.decisions_ms = clock.decisions_ms
    return batch


def measure_setup(presets) -> list:
    """Raw set-up times of SETUP_REPEATS fresh processes, in s."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *presets],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        runs.append(float(proc.stdout))
    return runs


def run_record(load_before) -> dict:
    """Machine and program facts written beside every result."""
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "src_fitslam_lines": sum(len(p.read_text().splitlines())
                                 for p in sorted((SRC / "fitslam").rglob("*.py"))),
    }


def report_failures(batch, label) -> None:
    for key, reason in batch.failures.items():
        print(f"FAILED {label} {key}: {reason}", file=sys.stderr)
    for key in batch.summary_failures:
        print(f"FAILED {label} {key}: summary.csv differs from the recorded one",
              file=sys.stderr)
    if batch.failures:
        first = next(iter(batch.failures))
        print(f"first mission that differs or fails ({label}): {first}")


def untraced_metrics(batch, setups) -> tuple:
    """End-to-end metrics, times divided by the run's host slowdown, plus the
    raw times."""
    decisions = np.array(batch.decisions_ms)
    n = len(decisions)
    raw50, raw90 = (float(v) for v in np.percentile(decisions, [50, 90]))
    beyond = int((decisions > raw90).sum())
    factor = batch.host.slowdown
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": batch.wall_s,
        "decide_ms_p50": raw50,
        "decide_ms_p90": raw90,
        "host_slowdown": factor,
    }
    metrics = {
        "setup_s": (raw["setup_s"] / factor, "s"),
        "wall_s": (batch.nominal_wall_s, "s"),
        "decide_ms_p50": (raw50 / factor, "ms"),
        "decide_ms_p90": (raw90 / factor, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"{batch.attempted} missions, CSV, summary and SVG writing included",
        "decide_ms_p50": f"n={n} decisions",
        "decide_ms_p90": f"n={n} decisions, {beyond} beyond it"
                         + ("" if n >= P90_MIN_SAMPLES else
                            f"; UNRESOLVED, needs >= {P90_MIN_SAMPLES}"),
        "peak_rss_mb": "ru_maxrss of the batch process",
    }
    for name, (value, unit) in metrics.items():
        raw_note = f"; raw {raw[name]:.4f}" if name in raw else ""
        print(f"{name:<15} {value:12.4f} {unit:<3}  ({notes[name]}{raw_note})")
    print(f"host_slowdown   {factor:12.4f}      (median of {len(batch.host.samples_ms)} "
          f"calibration kernels over {NOMINAL_MS} ms, one per drive)")
    return metrics, raw


def traced_metrics(workload, untraced, traced, tracer) -> tuple:
    """Per-layer metrics, the trace self-check's problems and the raw times."""
    from spans import LAYER_NAMES

    metrics = tracer.layer_metrics()
    # Each batch's wall time is divided by its own host slowdown, as in the
    # untraced run, so that the difference is not the host's drift between
    # the two batches.
    overhead = traced.nominal_wall_s - untraced.nominal_wall_s
    metrics["trace.wall_s"] = (traced.nominal_wall_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced.nominal_wall_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")

    problems = []
    idle = workload.idle_layers()
    for name in LAYER_NAMES:
        calls = metrics[f"{name}.calls"][0]
        if name in idle and calls:
            problems.append(f"{name} should be idle on {workload.name} "
                            f"but recorded {calls} calls")
        if name not in idle and not calls:
            problems.append(f"{name} recorded no calls on {workload.name}; "
                            "was it renamed, merged or inlined?")
    for key in sorted(set(untraced.fingerprints) | set(traced.fingerprints)):
        if untraced.fingerprints.get(key) != traced.fingerprints.get(key):
            problems.append(f"traced and untraced fingerprints differ for {key}")

    bases = tracer.ratio_bases(metrics)
    for name, (value, unit) in metrics.items():
        base = f"  ({bases[name]})" if name in bases else ""
        print(f"{name:<36} {value:14.6f} {unit}{base}")
    # The slowdown estimate of each batch is itself uncertain; an overhead
    # smaller than the gap between the two estimates is not resolved.
    s_u, s_t = untraced.host.slowdown, traced.host.slowdown
    noise_s = untraced.nominal_wall_s * abs(s_t - s_u) / s_u
    print(f"trace overhead {overhead:.4f} s at nominal speed "
          f"({'UNRESOLVED, ' if abs(overhead) < noise_s else ''}host slowdown "
          f"untraced {s_u:.4f}, traced {s_t:.4f}, worth {noise_s:.4f} s); raw wall "
          f"untraced {untraced.wall_s:.4f} s, traced {traced.wall_s:.4f} s, "
          f"difference {traced.wall_s - untraced.wall_s:.4f} s")
    raw = {"wall_s": {"untraced": untraced.wall_s, "traced": traced.wall_s},
           "host_slowdown": {"untraced": s_u, "traced": s_t},
           "undefined_ratios": [n for n, b in bases.items() if b.startswith("n/a")]}
    print("baseline split (inclusive span times, ROADMAP stage names):")
    for (preset, strategy, seed), total, stages in tracer.baseline_split():
        parts = ", ".join(f"{label} {t:.2f} s ({100 * t / total:.0f} %, {n} calls)"
                          for label, t, n in stages if n)
        print(f"  {preset}/{strategy}/{seed} total {total:.2f} s: {parts}")
    return metrics, problems, raw


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="picks the block of mission seeds (and so the worlds)")
    ap.add_argument("--seconds", type=float, default=25,
                    help="run length; buys two mission seeds per 25 s")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mission-seeds", default=None,
                    help="comma list overriding --seed, e.g. held-out 21,22")
    return ap.parse_args(argv)


def import_fitslam() -> bool:
    """Import fitslam from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "fitslam" / "__init__.py").is_file():
        print(f"error: fitslam sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import fitslam

    if Path(fitslam.__file__).resolve().parent != SRC / "fitslam":
        print(f"error: imported fitslam from {fitslam.__file__}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    if not import_fitslam():
        return 2
    from workloads import WORKLOADS, mission_seeds

    workload = WORKLOADS[args.workload]
    if args.mission_seeds:
        seeds = tuple(int(s) for s in args.mission_seeds.split(","))
    else:
        seeds = mission_seeds(args.seed, args.seconds)
    label = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    print(f"workload {workload.name}: presets {','.join(workload.presets)}, "
          f"strategies {','.join(workload.strategies)}, mission seeds "
          f"{','.join(map(str, seeds))}")
    OUT.mkdir(exist_ok=True)

    raw = {}
    if args.trace:
        from spans import Tracer

        untraced = run_batch(workload, seeds, OUT / f"{label}_untraced")
        tracer = Tracer()
        traced = run_batch(workload, seeds, OUT / f"{label}_traced", tracer)
        batches = [("untraced", untraced), ("traced", traced)]
        metrics, problems, raw = traced_metrics(workload, untraced, traced, tracer)
        tracer.write(OUT / f"spans_{workload.name}_seed{args.seed}.csv.gz")
    else:
        setups = measure_setup(workload.presets)
        batch = run_batch(workload, seeds, OUT / label)
        batches = [("untraced", batch)]
        metrics, raw = untraced_metrics(batch, setups)
        problems = []

    attempted = sum(b.attempted for _, b in batches)
    failed = sum(len(b.failures) for _, b in batches)
    for name, batch in batches:
        report_failures(batch, name)
        if batch.unchecked:
            print(f"no recorded fingerprint ({name}): {', '.join(batch.unchecked)}")
    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}", file=sys.stderr)
    summary_failed = any(b.summary_failures for _, b in batches)
    correct = failed == 0 and not summary_failed and not problems
    print(f"failed_frac     {failed}/{attempted} = {failed / attempted:.3f} missions")
    record = run_record(load_before)
    print("record: " + json.dumps(record))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{label}.json").write_text(json.dumps(
        {**result, "workload": workload.name, "seed": args.seed,
         "mission_seeds": list(seeds), "record": record, "raw_times": raw,
         "fingerprints": {n: b.fingerprints for n, b in batches},
         "failures": {n: b.failures for n, b in batches},
         "trace_problems": problems}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
