"""Rank arrival orientations at a goal by ray-cast entropy gain.

Builds a map that is known-free to the west of a wall and unknown to the
east, then scans all ray directions from a goal cell near the wall gap. The
camera's field-of-view window pools neighboring rays, so the best arrival
orientation points squarely into unknown space.
"""

import math

import numpy as np

from fitslam.fisher import Camera
from fitslam.grid import GridSpec, OccupancyGrid, UNKNOWN_P
from fitslam.infogain import RayCastParams, cast_ray, scan_orientations

spec = GridSpec(0.1, 60, 60)
occ = OccupancyGrid.unknown(spec)
occ.p[:, :30] = 0.1           # west half explored and free
occ.p[:50, 30] = 0.9          # wall with an open north end
occ.p[:, 31:] = UNKNOWN_P     # east half unknown

# Goal just north of the wall's end: east-facing rays clear the wall and
# plunge into unknown space, west-facing ones see only mapped free cells.
cell = (28, 54)
goal = spec.cell_to_world(*cell)
params = RayCastParams()
camera = Camera(max_depth=4.0)  # the default field of view, a shorter range
scan = scan_orientations(occ, cell, params, camera)

print(f"goal at ({goal[0]:.2f}, {goal[1]:.2f}), "
      f"{len(scan.directions)} ray directions, "
      f"fov {math.degrees(camera.fov):.0f} deg")
print(f"best orientation: {math.degrees(scan.best_theta):6.1f} deg, "
      f"windowed gain {scan.best_gain:.2f} bits")

print("\nper-direction ray gain and FOV-windowed gain:")
step = max(1, len(scan.directions) // 14)
for k in range(0, len(scan.directions), step):
    deg = math.degrees(scan.directions[k])
    bar = "#" * int(round(scan.windowed_gains[k]))
    print(f"  {deg:6.1f} deg  ray {scan.ray_gains[k]:6.2f}  "
          f"window {scan.windowed_gains[k]:6.2f}  {bar}")

# Follow the single best ray and show the degradation chain: deeper unknown
# cells are less likely to be seen, so their expected entropy drop shrinks.
best_ray = cast_ray(occ, goal, scan.best_theta, params, camera)
unknown_cells = [c for c in best_ray.cells if c.gain > 0][:6]
print(f"\nfirst unknown cells along theta* "
      f"({math.degrees(scan.best_theta):.0f} deg):")
for n, c in enumerate(unknown_cells):
    print(f"  N={n}  observability {c.observability:.3f}  "
          f"posterior {c.posterior:.4f}  gain {c.gain:.4f} bits")
total = sum(c.gain for c in best_ray.cells)
print(f"ray total: {total:.3f} bits over {len(best_ray.cells)} cells")
