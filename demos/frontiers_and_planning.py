"""Detect frontier clusters on a freshly-sensed map and plan paths to them.

After the robot's initial look-around, the known free space is a small disk
whose rim is all frontier. The demo shows how the rim breaks into size-capped
clusters with a median candidate cell, and what the shortest path to each
candidate costs. It then completes a short mission so the numbers can be
compared with a half-explored map.
"""

import math

import fitslam
from fitslam.frontier import (DEFAULT_MAX_CLUSTER_SIZE as CAP, Blacklist, cluster_frontiers,
                              detect_frontiers, frontier_components)
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
frontiers = detect_frontiers(state.occ, nav)
candidates = cluster_frontiers(frontiers, spec, Blacklist(spec))
# An empty blacklist keeps one candidate per chunk, in chunk order.
sizes = [min(CAP, len(order) - k) for order in frontier_components(frontiers, spec)
         for k in range(0, len(order), CAP)]
print(f"after the initial spin: {len(frontiers)} frontier cells "
      f"in {len(candidates)} clusters (cap {CAP})")

planner = MultiGoalPlanner(nav)
planner.solve(spec.world_to_cell(state.pose[0], state.pose[1]), math.inf)
print(f"{'candidate':>14} {'size':>5} {'path cost':>12}")
for size, cell in sorted(zip(sizes, candidates), key=lambda sc: sc[0], reverse=True)[:8]:
    try:
        cost = f"{planner.distance_to(cell):10.2f} m"
    except NoPathError:
        cost = "unreachable"
    x, y = spec.cell_to_world(*cell)
    print(f"  ({x:5.1f},{y:5.1f}) {size:>5} {cost:>12}")

log = run_mission(config, "greedy", seed=1, max_mission_time=250.0)
print(f"\nafter a 250 s greedy mission: {len(log.goal_sequence)} goals "
      f"reached, {log.final.pct_unexplored:.1f}% of the map still unknown")
