"""Compare candidate paths by the Fisher information their views collect.

Two paths of equal length lead to the same goal: one passes a dense landmark
cluster, the other crosses empty ground. Sampling camera poses along each
path and accumulating the bearing-observation Fisher information shows why
the landmark-rich path is preferred for localization quality.
"""

import math

import numpy as np

from fitslam.fisher import (Camera, CameraPose, bearing, bearing_jacobian, default_covariances,
                            landmark_fim, path_information, voxelize)

rng = np.random.default_rng(9)

# A tight cluster of landmarks around (3, 4) and nothing elsewhere.
positions = np.array([3.0, 4.0, 0.8]) + rng.normal(0, 0.4, (25, 3))
covariances = default_covariances(len(positions))

camera = Camera(fov=math.radians(87.0), max_depth=5.0)

# Single-pose anatomy first: one landmark, one camera.
pose = CameraPose.from_planar(2.0, 2.0, math.pi / 4, camera)
lm = positions[0]
print(f"camera at (2,2) heading 45 deg; landmark at "
      f"({lm[0]:.2f}, {lm[1]:.2f}, {lm[2]:.2f})")
seen, fims = landmark_fim(pose, positions[:1], covariances[:1])  # one FIM per visible row
print(f"  visible within fov/depth: {seen[0]}")
b = bearing(pose, lm)
J = bearing_jacobian(pose, lm)
F = fims[0]
print(f"  bearing (camera frame): [{b[0]:.3f} {b[1]:.3f} {b[2]:.3f}]")
print(f"  jacobian is tangent to the bearing: |b^T J| = "
      f"{np.abs(b @ J).max():.2e}")
print(f"  single-landmark FIM trace: {np.trace(F):.3f}")

# Two equal-length candidate paths to (6, 6), as (x, y, heading) poses.
near = [(x, 2.0 + (4.0 / 6.0) * x, math.atan2(2.0, 3.0))
        for x in np.linspace(0.0, 6.0, 7)]           # passes the cluster
far = [(6.0 - 1e-9, y, math.pi / 2)
       for y in np.linspace(0.0, 6.0, 7)]            # hugs the far edge

reps = voxelize(positions)
infos = [path_information(wps, positions[reps], covariances[reps], camera)
         for wps in (near, far)]
print(f"\nvoxel filter: {len(positions)} landmarks -> "
      f"{len(reps)} representatives")
for name, info in zip(("cluster-side", "edge-hugging"), infos):
    print(f"  {name:13s} raw information {info:10.3f}")

# The shared scale select_best puts on a shortlist's information values.
n_i = 1.0 / (1.0 + max(infos))
print("after shared-scale normalization:")
for name, info in zip(("cluster-side", "edge-hugging"), infos):
    print(f"  {name:13s} normalized {info * n_i:.4f}")
ratio = infos[0] / max(infos[1], 1e-12)
print(f"\nthe cluster-side path collects {ratio:.0f}x the information")
