"""Detect frontier clusters on a freshly-sensed map and plan paths to them.

After the robot's initial look-around, the known free space is a small disk
whose rim is all frontier. The demo shows how the rim breaks into size-capped
clusters with a median candidate cell, and what the A* path to each candidate
costs. It then completes a short mission so the numbers can be compared with
a half-explored map.
"""

import fitslam
from fitslam.frontier import cluster_frontiers, detect_frontiers
from fitslam.grid import FREE
from fitslam.harness import run_mission
from fitslam.planner import MultiGoalPlanner, NoPathError
from fitslam.simworld import (MissionState, WorldConfig, current_grids,
                              generate_world, initial_spin)

config = WorldConfig.from_json(fitslam.preset_world_path("obstacle_ring"))
world = generate_world(config)
spec = world.spec

state = MissionState.initial(world)
initial_spin(world, state)

_, nav = current_grids(state)
ri, rj = spec.world_to_cell(state.pose[0], state.pose[1])
nav.state[rj, ri] = FREE  # the robot stands here, so the cell is navigable
frontiers = detect_frontiers(state.occ, nav)
clusters = cluster_frontiers(frontiers, spec, max_cluster_size=30)
print(f"after the initial spin: {len(frontiers)} frontier cells "
      f"in {len(clusters)} clusters (cap 30)")

planner = MultiGoalPlanner(nav)
planner.solve((ri, rj))
print(f"{'candidate':>14} {'size':>5} {'path cost':>12}")
for cl in sorted(clusters, key=lambda c: len(c.cells), reverse=True)[:8]:
    try:
        cost = f"{planner.distance_to(cl.candidate):10.2f} m"
    except NoPathError:
        cost = "unreachable"
    x, y = spec.cell_to_world(*cl.candidate)
    print(f"  ({x:5.1f},{y:5.1f}) {len(cl.cells):>5} {cost:>12}")

log = run_mission(config, "greedy", seed=1, max_mission_time=250.0)
print(f"\nafter a 250 s greedy mission: {len(log.goal_sequence)} goals "
      f"reached, {log.final.pct_unexplored:.1f}% of the map still unknown")
