"""Import direction: the exploration algorithms load no simulator, and the
simulator loads no goal selection. Each import runs in a fresh interpreter.
Also the design rules that only `fisher.Camera` defaults a field of view or range,
that no public signature grows a default beyond the settings listed here, that
the program calls every function, class and method it defines, and that no
function takes a field of the mission state, its `world` say, beside the `state`
that holds it."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fitslam
from fitslam.grid import GridSpec
from fitslam.simworld import MissionState

ROOT = Path(__file__).resolve().parent.parent
ALGORITHMS = ("grid", "traversability", "frontier", "planner", "fisher", "infogain", "utility")


def loaded_after(*modules, prefix="fitslam."):
    """The modules named `prefix`... that a fresh interpreter holds after importing
    fitslam.<module> for each of `modules`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = (f"import sys, {', '.join(f'fitslam.{m}' for m in modules)}; "
            f"print(*(m for m in sys.modules if m.startswith({prefix!r})))")
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
    # A candidate goal is its cell, so utility needs no frontier cluster; its path
    # is an array of linear indices, so utility needs no planner either.
    loaded = loaded_after("utility")
    assert "fitslam.utility" in loaded
    assert "fitslam.frontier" not in loaded
    assert "fitslam.planner" not in loaded


def test_simulator_loads_no_goal_selection():
    loaded = loaded_after("simworld")
    assert "fitslam.simworld" in loaded
    assert not loaded & {"fitslam.frontier", "fitslam.infogain", "fitslam.utility",
                         "fitslam.harness"}


def test_program_loads_no_ndimage():
    # Importing scipy.ndimage took 0.10-0.16 s in a fresh process on a 2-core
    # box, about a third of the benchmark's setup_s: grids are searched as csgraphs.
    loaded = loaded_after("harness", "cli", prefix="scipy.")
    assert "scipy.sparse.csgraph" in loaded
    assert not {m for m in loaded if m == "scipy.ndimage" or m.startswith("scipy.ndimage.")}


CAMERA_PARAMETERS = ("fov", "max_depth", "max_range")


def public_signatures():
    """(qualified name, callable) of every public function, class and method that a
    fitslam module defines; a dataclass's signature lists its fields."""
    for info in pkgutil.iter_modules(fitslam.__path__):
        module = importlib.import_module(f"fitslam.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            qualname = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                yield qualname, obj
            elif inspect.isclass(obj):
                yield qualname, obj
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)  # class and static methods
                    if not attr.startswith("_") and inspect.isfunction(func):
                        yield f"{qualname}.{attr}", func


def test_only_camera_defaults_a_field_of_view_or_range():
    # A default here once scanned every world at the default camera's 87 deg and
    # 5 m, whatever its sensors said: callers pass the world's Camera instead.
    defaulted, checked = [], 0
    for qualname, obj in public_signatures():
        if qualname == "fitslam.fisher.Camera":
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # a builtin base with no signature
            continue
        checked += 1
        defaulted += [f"{qualname}({p.name}={p.default!r})" for p in params
                      if p.name in CAMERA_PARAMETERS and p.default is not p.empty]
    assert checked > 50
    assert defaulted == []


# Every defaulted parameter of a public signature, as module.name.parameter. A
# design constant of the method (the traversability threshold, the cluster size
# cap, the landmark voxel size, the sensor height, the bearing noise) is a module
# constant, not a default: a new entry here is a setting some program caller must vary.
DEFAULTED = {
    # Fields of the world JSON's sections.
    *(f"simworld.WorldConfig.{f}" for f in ("seed", "size_m", "resolution", "terrain",
                                            "obstacles", "landmarks", "sensors", "robot",
                                            "surrogate")),
    "fisher.Camera.fov", "fisher.Camera.max_depth",
    "simworld.SensorConfig.camera", "simworld.SensorConfig.lidar_radius",
    "simworld.SensorConfig.ray_step",
    "simworld.RobotConfig.start", "simworld.RobotConfig.speed",
    *(f"simworld.SurrogateConfig.{f}" for f in ("q", "kappa", "t_lc", "l_min")),
    # What the command line sets, and run_mission's share of it.
    "cli.main.argv",
    *(f"harness.ExperimentConfig.{f}" for f in ("strategies", "seeds", "out_dir",
                                                "utility", "rays", "max_mission_time")),
    "infogain.RayCastParams.delta_theta", "infogain.RayCastParams.gamma",
    "utility.UtilityParams.alpha", "utility.UtilityParams.beta",
    "utility.UtilityParams.shortlist_n",
    "harness.run_mission.max_mission_time", "harness.run_mission.ray_params",
    "harness.run_mission.utility_params",
    # No upper bound on an integer setting.
    "grid.check_int.hi",
    # A mission's counters start at zero.
    *(f"simworld.MissionState.{f}" for f in ("clock", "distance", "n_loop_closures",
                                             "samples")),
}


def test_only_listed_parameters_have_defaults():
    defaulted = set()
    for qualname, obj in public_signatures():
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # a builtin base with no signature
            continue
        name = qualname.removeprefix("fitslam.")
        defaulted |= {f"{name}.{p.name}" for p in params if p.default is not p.empty}
    assert sorted(defaulted) == sorted(DEFAULTED)


def test_grid_spec_is_resolution_and_size():
    # The grid's cell (0, 0) has its corner at the world origin, as the world is
    # [0, size_m]^2: a GridSpec holds no origin.
    assert tuple(f.name for f in dataclasses.fields(GridSpec)) == ("resolution", "width",
                                                                     "height")


# Defined but called by no program code: the A* reference that the tests check the
# Dijkstra planner against, and the hook through which argparse reports a bad flag.
UNCALLED = {"planner.plan", "cli._Parser.error"}


def referenced_names(tree):
    """Every name that `tree` reads or writes as a Name, an Attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


def definitions(node, prefix):
    """(qualified name, node) of every function, class and method under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child
            yield from definitions(child, f"{prefix}.{child.name}")
        else:
            yield from definitions(child, prefix)


def test_program_references_every_definition():
    """A name defined in src/fitslam counts as used when program code in src/, demos/
    or perfbench/ names it outside its own body; tests do not count. Dunder methods,
    which Python calls itself, are exempt.

    The scan matches bare names, so a dead method that shares its name with a live
    one escapes it: `BinaryTraversabilityGrid.unknown`, called only by tests, would
    have passed, because `OccupancyGrid.unknown` is called.
    """
    refs, defs = Counter(), []
    for tree_dir in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            refs.update(referenced_names(tree))
            if tree_dir == "src":
                defs += definitions(tree, path.stem)
    assert len(defs) > 100
    unreferenced = {qualname for qualname, node in defs
                    if not (node.name.startswith("__") and node.name.endswith("__"))
                    and refs[node.name] <= Counter(referenced_names(node))[node.name]}
    assert unreferenced == UNCALLED


def test_no_function_takes_a_world_beside_its_state():
    # A mission's world, map and memory are its state's fields, `state.world` say:
    # a second handle could name another mission's. The harness holds the state,
    # so none of its functions takes a field alone either.
    fields = {f.name for f in dataclasses.fields(MissionState)}
    both = []
    for path in sorted((ROOT / "src" / "fitslam").glob("*.py")):
        for qualname, node in definitions(ast.parse(path.read_text(), str(path)), path.stem):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            names = {a.arg for a in args}
            if names & fields and ("state" in names or path.stem == "harness"):
                both.append(qualname)
    assert both == []
    assert {"world", "occ", "sensed", "pose", "blacklist"} <= fields
