"""Outside-in layer trace of fitslam missions.

The tracer wraps the public functions of each `fitslam` module at the names
their callers look up, records one span per call (name, start, end, parent
span, mission, decision index) in memory, and counts the work each layer did
at the same boundary. Nothing under `src/` is changed; the wrappers are
removed when `Tracer.installed()` exits.

`grid` is not wrapped (its mask and coordinate helpers count in their
callers), nor is `cli`, which only parses arguments.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
from collections import Counter
from time import perf_counter

import numpy as np

from fitslam import fisher, harness, simworld, traversability
from fitslam.planner import MultiGoalPlanner
from fitslam.simworld import PathBlockedError
from fitslam.traversability import TerrainStatsGrid

BOOKKEEPING = "trace.bookkeeping"
CALIBRATION = "trace.calibration"


class TraceError(RuntimeError):
    """The trace no longer matches the program's layer structure."""


# (metric name, object holding the name callers look up, attribute). A
# function is patched where it is looked up, so e.g. `infogain.scan_many` is
# timed only when the harness calls it, not inside `scan_orientations`.
LAYERS = (
    ("harness.run_experiment", harness, "run_experiment"),
    ("harness.run_mission", harness, "run_mission"),
    ("harness.write_metrics_csv", harness, "write_metrics_csv"),
    ("harness.write_summary_csv", harness, "write_summary_csv"),
    ("harness.plot_logs", harness, "plot_logs"),
    ("simworld.generate_world", harness, "generate_world"),
    ("simworld.initial_spin", harness, "initial_spin"),
    ("simworld.current_grids", harness, "current_grids"),
    ("simworld.execute_path", harness, "execute_path"),
    ("simworld.observe", simworld, "observe"),
    ("simworld.sense", simworld, "sense"),
    ("simworld.record_metrics", simworld, "record_metrics"),
    ("traversability.accumulate", TerrainStatsGrid, "accumulate"),
    ("traversability.score_cells", TerrainStatsGrid, "score_cells"),
    ("traversability.threshold", traversability, "threshold"),
    ("frontier.detect_frontiers", harness, "detect_frontiers"),
    ("frontier.cluster_frontiers", harness, "cluster_frontiers"),
    ("planner.build_graph", MultiGoalPlanner, "__init__"),
    ("planner.solve", MultiGoalPlanner, "solve"),
    ("planner.distance_to", MultiGoalPlanner, "distance_to"),
    ("planner.path_to", MultiGoalPlanner, "path_to"),
    ("planner.sample_waypoints", harness, "sample_waypoints"),
    ("infogain.scan_many", harness, "scan_many"),
    ("infogain.scan_orientations", harness, "scan_orientations"),
    ("fisher.path_information", harness, "path_information"),
    ("fisher.landmark_fim", fisher, "landmark_fim"),
    ("fisher.visible", fisher, "visible"),
    ("utility.compute_u1", harness, "compute_u1"),
    ("utility.shortlist", harness, "shortlist"),
    ("utility.select_best", harness, "select_best"),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

# Work counts and useful-over-attempted ratios, reported beside the layers.
COUNTS = ("simworld.steps", "traversability.points", "frontier.cells",
          "frontier.clusters", "planner.edges", "infogain.goals_scanned",
          "fisher.waypoints")
# ratio name -> (numerator count, denominator count)
RATIOS = {
    "planner.reachable_frac": ("planner.reachable", "planner.distance_to.calls"),
    "simworld.blocked_frac": ("simworld.blocked", "simworld.execute_path.calls"),
    "fisher.visible_frac": ("fisher.visible_in_path.true", "fisher.visible_in_path"),
    "infogain.shortlisted_frac": ("fisher.path_information.calls",
                                  "infogain.goals_scanned"),
    "traversability.changed_frac": ("traversability.changed", "traversability.scored"),
    "frontier.changed_frac": ("frontier.changed", "frontier.compared"),
    "planner.graph_changed_frac": ("planner.edges_changed", "planner.edges_compared"),
}

# The stage names of the ROADMAP baseline table, as inclusive span times.
BASELINE_STAGES = (
    ("execute_path (sense + covariance)", "simworld.execute_path"),
    ("scan_many", "infogain.scan_many"),
    ("cluster_frontiers", "frontier.cluster_frontiers"),
    ("path_information", "fisher.path_information"),
    ("Dijkstra solve", "planner.solve"),
    ("current_grids (score + threshold)", "simworld.current_grids"),
    ("_build_graph", "planner.build_graph"),
    ("detect_frontiers", "frontier.detect_frontiers"),
)


class Tracer:
    """Span recorder plus the per-layer counters of one traced batch."""

    def __init__(self):
        self.names = list(LAYER_NAMES) + [BOOKKEEPING, CALIBRATION]
        self._ids = {n: k for k, n in enumerate(self.names)}
        self.spans = []      # (name id, start, end, parent span, mission, decision)
        self._stack = []     # (span index, name id) of the open spans
        self.missions = []   # (preset, strategy, seed)
        self.preset = None   # set by the benchmark around each run_experiment
        self._mission = -1
        self._decision = -1
        self._prev = {}      # per-mission previous outputs for changed_frac
        self.counts = Counter()

    # -- span recording -------------------------------------------------------

    def _wrap(self, name, fn, hook=None, heavy=False):
        """Time `fn` as span `name`; run `hook(args, result, exc)` after it.

        A heavy hook runs inside its own bookkeeping span, so its cost is not
        charged to the caller's self time.
        """
        nid = self._ids[name]
        spans, stack = self.spans, self._stack
        book = self._ids[BOOKKEEPING]

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, nid))
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self._mission, self._decision)
                if hook is not None:
                    if heavy:
                        b0 = perf_counter()
                        hook(args, result, exc)
                        spans.append((book, b0, perf_counter(), parent,
                                      self._mission, self._decision))
                    else:
                        hook(args, result, exc)
        return wrapper

    def calibration(self, start, end):
        """Record the benchmark's own host-speed sampling as a span of its own,
        so that it counts in no layer's self time."""
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((self._ids[CALIBRATION], start, end, parent,
                           self._mission, self._decision))

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block."""
        hooks = {
            "harness.run_mission": (self._on_mission, False),
            "simworld.initial_spin": (self._on_spin, False),
            "simworld.execute_path": (self._on_drive, False),
            "simworld.sense": (self._on_sense, False),
            "traversability.accumulate": (self._on_accumulate, False),
            "traversability.score_cells": (self._on_score, True),
            "frontier.detect_frontiers": (self._on_frontiers, True),
            "frontier.cluster_frontiers": (self._on_clusters, False),
            "planner.build_graph": (self._on_graph, True),
            "planner.distance_to": (self._on_distance, False),
            "infogain.scan_many": (self._on_scan_many, False),
            "fisher.path_information": (self._on_path_information, False),
            "fisher.visible": (self._on_visible, False),
        }
        originals = []
        try:
            for name, owner, attr in LAYERS:
                if attr not in vars(owner):
                    raise TraceError(
                        f"{owner.__name__} has no {attr!r} for layer {name}; "
                        "update LAYERS in perfbench/spans.py")
                fn = vars(owner)[attr]
                originals.append((owner, attr, fn))
                hook, heavy = hooks.get(name, (None, False))
                if name == "harness.run_mission":
                    fn = self._mission_scope(fn)
                setattr(owner, attr, self._wrap(name, fn, hook, heavy))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def _mission_scope(self, run_mission):
        """Open a new mission (index, decision -1) before run_mission starts."""
        def scoped(config, strategy, seed, *args, **kwargs):
            self.missions.append((self.preset, strategy, seed))
            self._mission = len(self.missions) - 1
            self._decision = -1
            self._prev = {}
            return run_mission(config, strategy, seed, *args, **kwargs)
        return scoped

    # -- counting hooks ---------------------------------------------------------

    def _on_mission(self, args, result, exc):
        self._mission = -1

    def _on_spin(self, args, result, exc):
        self._decision = 0

    def _on_drive(self, args, result, exc):
        if isinstance(exc, PathBlockedError):
            self.counts["simworld.blocked"] += 1
        self._decision += 1

    def _on_sense(self, args, result, exc):
        self.counts["simworld.steps"] += 1

    def _on_accumulate(self, args, result, exc):
        self.counts["traversability.points"] += len(args[1])

    def _on_score(self, args, result, exc):
        if exc is not None:
            return
        score = result.score
        prev = self._prev.get("score")
        self._prev["score"] = score.copy()
        if prev is None:
            return
        scored = ~np.isnan(score)
        same = (score == prev) | (np.isnan(score) & np.isnan(prev))
        self.counts["traversability.changed"] += int((scored & ~same).sum())
        self.counts["traversability.scored"] += int(scored.sum())

    def _on_frontiers(self, args, result, exc):
        if exc is not None:
            return
        if not isinstance(result, (set, frozenset)):
            raise TraceError(f"detect_frontiers returned {type(result).__name__}, "
                             "not a set of cells; update perfbench/spans.py")
        self.counts["frontier.cells"] += len(result)
        prev = self._prev.get("frontier")
        self._prev["frontier"] = set(result)
        if prev is not None:
            self.counts["frontier.changed"] += len(prev ^ result)
            self.counts["frontier.compared"] += len(prev | result)

    def _on_clusters(self, args, result, exc):
        if exc is not None:
            return
        self.counts["frontier.clusters"] += len(result)

    def _on_graph(self, args, result, exc):
        if exc is not None:
            return
        graph = args[0]._graph.tocsr()
        if not graph.has_sorted_indices:
            graph = graph.sorted_indices()
        self.counts["planner.edges"] += graph.nnz
        # Row-major (row, column) keys of a canonical CSR come out sorted.
        rows = np.repeat(np.arange(graph.shape[0], dtype=np.int64), np.diff(graph.indptr))
        keys = rows * graph.shape[1] + graph.indices
        prev = self._prev.get("edges")
        self._prev["edges"] = keys
        if prev is not None:
            common = 0
            if prev.size:
                pos = np.searchsorted(prev, keys).clip(max=prev.size - 1)
                common = int((prev[pos] == keys).sum())
            union = prev.size + keys.size - common
            self.counts["planner.edges_changed"] += union - common
            self.counts["planner.edges_compared"] += union

    def _on_distance(self, args, result, exc):
        if exc is None:
            self.counts["planner.reachable"] += 1

    def _on_scan_many(self, args, result, exc):
        self.counts["infogain.goals_scanned"] += len(args[1])

    def _on_path_information(self, args, result, exc):
        self.counts["fisher.waypoints"] += len(args[0])

    def _on_visible(self, args, result, exc):
        # The caller is the open span on top of the stack (visible's own span
        # has already been popped).
        if self._stack and self._stack[-1][1] == self._path_info_id:
            self.counts["fisher.visible_in_path"] += 1
            self.counts["fisher.visible_in_path.true"] += bool(result)

    @property
    def _path_info_id(self):
        return self._ids["fisher.path_information"]

    # -- reduction --------------------------------------------------------------

    def _arrays(self):
        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        nid = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        child = np.zeros(len(arr))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return nid, dur, dur - child, arr

    def layer_metrics(self) -> dict:
        """`<layer>.self_s` and `.calls` per layer, counts and ratios."""
        nid, _, self_s, _ = self._arrays()
        calls = np.bincount(nid, minlength=len(self.names))
        self_sum = np.bincount(nid, weights=self_s, minlength=len(self.names))
        out = {}
        for k, name in enumerate(LAYER_NAMES):
            out[f"{name}.self_s"] = (float(self_sum[k]), "s")
            out[f"{name}.calls"] = (int(calls[k]), "count")
        for name in COUNTS:
            out[name] = (int(self.counts[name]), "count")
        for name, (num, den) in self._ratio_terms(out).items():
            out[name] = (num / den if den else 0.0, "ratio")
        out["trace.bookkeeping_s"] = (float(self_sum[self._ids[BOOKKEEPING]]), "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def _ratio_terms(self, layer_metrics: dict) -> dict:
        def count(key):
            return layer_metrics[key][0] if key in layer_metrics else self.counts[key]
        return {name: (count(num), count(den)) for name, (num, den) in RATIOS.items()}

    def ratio_bases(self, layer_metrics: dict) -> dict:
        """Each ratio as `numerator/denominator`, to print beside its value.

        A ratio over nothing (say `fisher.visible_frac` on a workload that
        never calls `path_information`) is undefined; it is printed as n/a,
        and its value reads 0 only because the result must hold every
        per-layer metric as a number.
        """
        terms = self._ratio_terms(layer_metrics)
        return {name: f"{num}/{den}" if den else f"n/a, {num}/{den}: undefined"
                for name, (num, den) in terms.items()}

    def baseline_split(self) -> list:
        """Per mission: (mission, total s, [(stage, inclusive s)]).

        The total leaves out the calibration kernel's runs."""
        nid, dur, _, arr = self._arrays()
        mission = arr[:, 4].astype(int)
        run_id, cal_id = self._ids["harness.run_mission"], self._ids[CALIBRATION]
        rows = []
        for m, key in enumerate(self.missions):
            mine = mission == m
            total = float(dur[mine & (nid == run_id)].sum()
                          - dur[mine & (nid == cal_id)].sum())
            stages = [(label, float(dur[mine & (nid == self._ids[layer])].sum()),
                       int((mine & (nid == self._ids[layer])).sum()))
                      for label, layer in BASELINE_STAGES]
            rows.append((key, total, stages))
        return rows

    def write(self, path) -> None:
        """Write every span as CSV (gzip), times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent",
                          "preset", "strategy", "seed", "decision"])
            for k, (nid, start, end, parent, m, d) in enumerate(self.spans):
                preset, strategy, seed = self.missions[m] if m >= 0 else ("", "", "")
                out.writerow([k, self.names[nid], f"{start - t0:.9f}",
                              f"{end - t0:.9f}", parent, preset, strategy, seed, d])
