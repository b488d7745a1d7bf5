"""Import direction: the exploration algorithms load no simulator, and the
simulator loads no goal selection. Each import runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALGORITHMS = ("grid", "traversability", "frontier", "planner", "fisher", "infogain", "utility")


def loaded_after(module):
    """The fitslam modules a fresh interpreter holds after importing fitslam.<module>."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = (f"import sys, fitslam.{module}; "
            "print(*(m for m in sys.modules if m.startswith('fitslam.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", ALGORITHMS)
def test_algorithm_loads_no_simulator(module):
    loaded = loaded_after(module)
    assert f"fitslam.{module}" in loaded
    assert not loaded & {"fitslam.simworld", "fitslam.harness"}


def test_goal_selection_loads_no_frontier():
    # A candidate goal is its cell, so utility needs no frontier cluster.
    loaded = loaded_after("utility")
    assert "fitslam.utility" in loaded
    assert "fitslam.frontier" not in loaded


def test_simulator_loads_no_goal_selection():
    loaded = loaded_after("simworld")
    assert "fitslam.simworld" in loaded
    assert not loaded & {"fitslam.frontier", "fitslam.infogain", "fitslam.utility",
                         "fitslam.harness"}
