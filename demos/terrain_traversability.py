"""Score terrain traversability from simulated lidar points.

Builds the bumpy ramp world, sweeps the robot's lidar over it, fits a plane
per map cell, and prints how slope / roughness / step height combine into the
final per-cell score. Cells on obstacle walls come out near zero; gentle ramp
cells stay close to one.
"""

import numpy as np

import fitslam
from fitslam.simworld import MissionState, WorldConfig, generate_world, sense
from fitslam.simworld import current_grids

config = WorldConfig.from_json(fitslam.preset_world_path("ramp_yard"))
world = generate_world(config)
state = MissionState.initial(world)

print(f"world: {config.size_m:.0f} m square, resolution {config.resolution} m, "
      f"{len(world.landmark_positions)} landmarks")

# Drive a coarse serpentine so the lidar sees most of the map.
xs = np.arange(3.0, config.size_m - 2.0, 6.0)
ys = np.arange(3.0, config.size_m - 2.0, 6.0)
for k, y in enumerate(ys):
    row = xs if k % 2 == 0 else xs[::-1]
    for x in row:
        state.pose = (float(x), float(y), 0.0)
        sense(state)

trav, nav = current_grids(state)
score = trav.score
known = ~np.isnan(score)
print(f"cells scored: {known.sum()} / {score.size} "
      f"({100.0 * known.mean():.1f}% of the map)")
print(f"score range: {np.nanmin(score):.3f} .. {np.nanmax(score):.3f}, "
      f"mean {np.nanmean(score):.3f}")

flat = (score > 0.9) & known
steep = (score < 0.3) & known
print(f"comfortably traversable (>0.9): {100.0 * flat.sum() / known.sum():.1f}%")
print(f"effectively blocked   (<0.3): {100.0 * steep.sum() / known.sum():.1f}%")

# Sample a line from the flat corner up the ramp to show the gradient.
spec = world.spec
print("\nscore along y = 20 m (left edge -> right edge):")
for x in np.arange(2.0, config.size_m - 1.0, 4.0):
    i, j = spec.world_to_cell(float(x), 20.0)
    s = score[j, i]
    z = world.terrain.plane[0][j, i]  # fitted mean height of the cell's lidar returns
    label = "unsensed" if np.isnan(s) else f"{s:.3f}"
    print(f"  x={x:5.1f} m  elevation={z:5.2f} m  score={label}")
