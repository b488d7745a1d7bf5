"""End-to-end acceptance gate.

Each test prints one pass/fail line so a plain `pytest -v` run doubles as an
acceptance report. Numeric oracles are coded independently of the library
(finite differences, brute-force scans, a standalone Dijkstra) and tolerance
bands are pinned here.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import fitslam
from fitslam import simworld
from fitslam.fisher import Camera, bearing_jacobian
from fitslam.grid import BLOCKED, BinaryTraversabilityGrid, FREE, GridSpec, OccupancyGrid
from fitslam.harness import ExperimentConfig, run_experiment, run_mission, summarize
from fitslam.infogain import RayCastParams, cast_ray, cell_entropy, scan_orientations
from fitslam.planner import NoPathError, SQRT2, plan
from fitslam.simworld import WorldConfig
from fitslam.utility import UtilityParams
from oracles import brute_force_scan, dijkstra_oracle, fd_jacobian, path_cells, random_pose
from test_fingerprints import _load_checks

EXPERIMENT_FINGERPRINTS = Path(__file__).resolve().parent / "experiment_fingerprints.json"
EXPERIMENT_FILES = ("summary.csv", "trace_vs_time.svg", "unexplored_vs_time.svg")


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- criterion 1: analytic bearing Jacobian vs central finite differences ----

def test_criterion_1_jacobian_vs_finite_differences(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 1000:
        pose = random_pose(rng)
        lm = rng.normal(scale=3.0, size=3)
        if np.linalg.norm(pose.to_camera(lm)) < 0.3:
            continue  # too close to the camera for a stable FD step
        analytic = bearing_jacobian(pose, lm)
        numeric = fd_jacobian(pose, lm)
        err = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    report(capsys, 1, ok,
           f"1000 pose/landmark pairs, max rel err {worst:.2e} (< 1e-5), "
           f"{elapsed:.2f} s (< 5 s)")


# -- criterion 2: orientation scan vs brute-force windowed sums --------------

def test_criterion_2_orientation_scan_oracle(capsys):
    rng = np.random.default_rng(202)
    params = RayCastParams()
    camera = Camera(math.radians(87.0), 3.0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        occ = OccupancyGrid.unknown(GridSpec(0.1, 64, 64))
        known = rng.random((64, 64)) < 0.5
        occ.p[known] = rng.choice([0.1, 0.9], size=int(known.sum()), p=[0.8, 0.2])
        goal = (rng.uniform(0.5, 5.9), rng.uniform(0.5, 5.9))
        scan = scan_orientations(occ, occ.spec.world_to_cell(*goal), params, camera)
        gains, windowed, best_theta = brute_force_scan(occ, goal, params, camera)
        assert scan.best_theta == best_theta, "argmax mismatch vs oracle"
        worst = max(worst,
                    float(np.abs(scan.ray_gains - gains).max()),
                    float(np.abs(scan.windowed_gains - windowed).max()))
        assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(capsys, 2, ok,
           f"100 random 64x64 half-unknown grids, same argmax, "
           f"max gain diff {worst:.1e} (<= 1e-12), {elapsed:.1f} s (< 30 s)")


# -- criterion 3: A* vs standalone Dijkstra, exact cost equality -------------

def test_criterion_3_planner_optimality(capsys):
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    solved = unreachable = 0
    for _ in range(200):
        spec = GridSpec(0.1, 64, 64)
        state = np.full((64, 64), FREE, dtype=np.int8)
        state[rng.random((64, 64)) < 0.2] = BLOCKED
        nav = BinaryTraversabilityGrid(spec, state)
        free = np.argwhere(state == FREE)
        sj, si = free[rng.integers(len(free))]
        gj, gi = free[rng.integers(len(free))]
        start, goal = (int(si), int(sj)), (int(gi), int(gj))
        oracle = dijkstra_oracle(nav, start, goal)
        if oracle is None:
            with pytest.raises(NoPathError):
                plan(nav, start, goal)
            unreachable += 1
            continue
        path = plan(nav, start, goal)
        # Count the path's cardinal/diagonal steps: 1 and sqrt(2) are
        # rationally independent, so the optimal pair is unique and equality
        # of the reconstructed cost is exact.
        card = diag = 0
        cells = path_cells(path, spec)
        for a, b in zip(cells, cells[1:]):
            if a[0] != b[0] and a[1] != b[1]:
                diag += 1
            else:
                card += 1
        want = nav.spec.resolution * (oracle[0] + oracle[1] * SQRT2)
        got = nav.spec.resolution * (card + diag * SQRT2)
        assert got == want, f"cost mismatch {got} vs {want}"
        solved += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(capsys, 3, ok,
           f"200 random 64x64 grids (20% blocked): {solved} exact cost "
           f"matches, {unreachable} agreed unreachable, {elapsed:.1f} s (< 30 s)")


# -- criterion 4: entropy fixed points and the degradation chain -------------

def test_criterion_4_entropy_fixed_points(capsys):
    exact = (cell_entropy(0.5) == 1.0 and cell_entropy(0.0) == 0.0
             and cell_entropy(1.0) == 0.0)

    occ = OccupancyGrid.unknown(GridSpec(0.1, 20, 20))
    ray = cast_ray(occ, (0.05, 1.05), 0.0, RayCastParams(gamma=0.9), Camera())
    fourth = ray.cells[3]  # N = 3 unknown cells already traversed
    posterior_ok = abs(fourth.posterior - 0.8645) < 1e-12
    # Hand evaluation of the stated chain: observability 0.9^3 = 0.729,
    # posterior (1 + 0.729)/2 = 0.8645, gain 1 - H(0.8645) = 0.427669 bits.
    # (An oft-quoted rounded value of 0.425 misses its own formula by 0.0027.)
    gain_ok = abs(fourth.gain - 0.427669) < 1e-3

    ok = exact and posterior_ok and gain_ok
    report(capsys, 4, ok,
           f"entropy(0.5)=1, entropy(0)=entropy(1)=0 exact; N=3 posterior "
           f"{fourth.posterior:.4f} (=0.8645), gain {fourth.gain:.6f} "
           f"(0.427669 ± 1e-3)")


# -- criterion 5: covariance monotonicity across a full mission --------------

@pytest.mark.slow
def test_criterion_5_covariance_monotonicity(capsys, monkeypatch):
    checks = {"measurement": 0, "motion": 0}
    last_exit_trace = [None]
    orig_meas = simworld._measurement_update
    orig_observe = simworld.observe

    def checked_measurement(state, info):
        before = float(np.trace(state.cov))
        orig_meas(state, info)
        after = float(np.trace(state.cov))
        assert after <= before + 1e-12, "measurement update grew the trace"
        checks["measurement"] += 1

    def checked_observe(state, observed, info):
        # Between observes only motion noise touches the covariance, so the
        # trace at entry must not be below the trace at the previous exit.
        entry = float(np.trace(state.cov))
        if last_exit_trace[0] is not None:
            assert entry >= last_exit_trace[0] - 1e-15, \
                "motion update shrank the trace"
            checks["motion"] += 1
        orig_observe(state, observed, info)
        last_exit_trace[0] = float(np.trace(state.cov))

    monkeypatch.setattr(simworld, "_measurement_update", checked_measurement)
    monkeypatch.setattr(simworld, "observe", checked_observe)

    config = WorldConfig.from_json(fitslam.preset_world_path("ramp_yard"))
    log = run_mission(config, "fit", seed=1)
    ok = checks["measurement"] > 100 and checks["motion"] > 100
    report(capsys, 5, ok,
           f"full fit mission ({log.termination}, {log.final.t:.0f} s): "
           f"{checks['measurement']} measurement updates non-increasing, "
           f"{checks['motion']} motion updates non-decreasing")


# -- criteria 6, 7, 9: the default three-strategy experiment -----------------

@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    config = WorldConfig.from_json(fitslam.preset_world_path("ramp_yard"))
    runs = []
    for k in range(2):
        out = tmp_path_factory.mktemp(f"exp{k}")
        t0 = time.perf_counter()
        logs = run_experiment(ExperimentConfig(world=config, out_dir=str(out)))
        runs.append((out, logs, time.perf_counter() - t0))
    return runs


@pytest.mark.slow
def test_criterion_6_strategy_comparison(capsys, experiment):
    _, logs, elapsed = experiment[0]
    rows = {r["strategy"]: r for r in summarize(logs)}
    fit, greedy, random_ = rows["fit"], rows["greedy"], rows["random"]

    trace_ok = (fit["median_final_trace"] < greedy["median_final_trace"]
                and fit["median_final_trace"] < random_["median_final_trace"])
    loops_ok = (fit["median_loop_closures"] >= greedy["median_loop_closures"]
                and fit["median_loop_closures"] >= random_["median_loop_closures"])
    coverage_ok = all(lg.final.pct_unexplored <= 5.0
                      or lg.termination == "stalled" for lg in logs)
    time_ok = elapsed < 300.0

    ok = trace_ok and loops_ok and coverage_ok and time_ok
    report(capsys, 6, ok,
           f"median trace fit {fit['median_final_trace']:.4f} < greedy "
           f"{greedy['median_final_trace']:.4f}, random "
           f"{random_['median_final_trace']:.4f}; median loops fit "
           f"{fit['median_loop_closures']:.1f} >= greedy "
           f"{greedy['median_loop_closures']:.1f}, random "
           f"{random_['median_loop_closures']:.1f}; all runs <=5% unexplored "
           f"or stalled: {coverage_ok}; {elapsed:.0f} s (< 300 s)")


@pytest.mark.slow
def test_criterion_7_greedy_early_coverage(capsys, experiment):
    _, logs, _ = experiment[0]
    t50 = {}
    for strat in ("greedy", "random"):
        t50[strat] = float(np.median(
            [lg.time_to_coverage(50.0) for lg in logs if lg.strategy == strat]))
    ok = t50["greedy"] <= t50["random"]
    report(capsys, 7, ok,
           f"median time to 50% coverage: greedy {t50['greedy']:.0f} s <= "
           f"random {t50['random']:.0f} s")


# -- criterion 8: alpha = beta = 1 collapses fit onto greedy -----------------

@pytest.mark.slow
def test_criterion_8_parameter_collapse(capsys):
    config = WorldConfig.from_json(fitslam.preset_world_path("ramp_yard"))
    collapsed = UtilityParams(alpha=1.0, beta=1.0)
    matched = 0
    for seed in range(1, 6):
        fit_log = run_mission(config, "fit", seed, utility_params=collapsed)
        greedy_log = run_mission(config, "greedy", seed)
        assert fit_log.goal_sequence == greedy_log.goal_sequence, \
            f"goal sequences diverge on seed {seed}"
        matched += 1
    report(capsys, 8, matched == 5,
           f"alpha=beta=1 fit reproduced greedy's goal sequence on "
           f"{matched}/5 seeds")


# -- criterion 9: byte-identical experiment outputs --------------------------

@pytest.mark.slow
def test_criterion_9_determinism(capsys, experiment):
    out_a, _, _ = experiment[0]
    out_b, _, _ = experiment[1]
    files = sorted(p.name for p in out_a.glob("*.csv"))
    assert files, "no CSV outputs found"
    identical = all((out_a / f).read_bytes() == (out_b / f).read_bytes()
                    for f in files)
    report(capsys, 9, identical,
           f"two runs of the default experiment: {len(files)} CSV files "
           f"byte-identical")


# -- the default experiment against its recorded fingerprints -----------------

def experiment_fingerprints(out, logs):
    """Each mission's `mission_fingerprint` and each aggregate file's sha256.

    `experiment_fingerprints.json` holds this for the default experiment; a
    deliberate behaviour change re-records it from a run of that experiment,
    along with `perfbench/fingerprints.json` and for the same stated reason.
    """
    checks = _load_checks()
    missions = {}
    for lg in logs:
        csv = (out / f"metrics_{lg.strategy}_{lg.seed}.csv").read_bytes()
        missions[checks.mission_key("ramp_yard", lg.strategy, lg.seed)] = \
            checks.mission_fingerprint(csv, lg)
    files = {name: checks.file_fingerprint(out / name) for name in EXPERIMENT_FILES}
    return {"missions": missions, "files": files}


@pytest.mark.slow
def test_experiment_matches_recorded_fingerprints(experiment):
    """The 30 missions and the summary and charts of the default experiment are
    byte-identical to the recorded ones, random's on `ramp_yard` included."""
    out, logs, _ = experiment[0]
    recorded = json.loads(EXPERIMENT_FINGERPRINTS.read_text())
    actual = experiment_fingerprints(out, logs)
    assert len(actual["missions"]) == len(recorded["missions"]) == 30
    for table in ("missions", "files"):
        moved = sorted(k for k in recorded[table].keys() | actual[table].keys()
                       if recorded[table].get(k) != actual[table].get(k))
        assert not moved, f"{table} differ from the recorded fingerprints: {moved}"
