"""Time a fresh process's set-up: import fitslam, load and validate configs.

Run by `run.py` in a child process: `python3 setup_probe.py <src dir>
<preset> [<preset> ...]`. Prints the set-up time in seconds.
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    src, presets = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    t0 = perf_counter()
    from fitslam import preset_world_path
    from fitslam.harness import ExperimentConfig
    from fitslam.simworld import WorldConfig

    for preset in presets:
        ExperimentConfig(world=WorldConfig.from_json(preset_world_path(preset)))
    print(f"{perf_counter() - t0:.9f}")
