"""The program still has the layer structure the benchmark's trace expects.

`perfbench/spans.py` wraps each layer function at the name its callers look up
and raises `TraceError` when one is missing or returns an unexpected type. A
refactor that renames, inlines or stops calling a traced layer would otherwise
show only in a `perfbench/run.py --trace 1` run.
"""

import importlib.util
from pathlib import Path

from fitslam import harness
from test_harness import tiny_world

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_layer_is_called(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    cfg = harness.ExperimentConfig(world=tiny_world(), strategies=("fit", "greedy", "random"),
                                   seeds=(1,), max_mission_time=300.0, out_dir=str(tmp_path))
    with tracer.installed():
        harness.run_experiment(cfg)  # looked up here, as the benchmark does, so it is traced
    metrics = tracer.layer_metrics()
    silent = [name for name in spans.LAYER_NAMES if metrics[f"{name}.calls"][0] == 0]
    assert not silent
