"""Fisher information of bearing observations and path information.

Each landmark seen from a camera pose contributes a 6x6 information matrix
built from the bearing observation model: the unit vector to the landmark in
the camera frame, differentiated with respect to an SE(3) perturbation of the
pose. Traces of these matrices, summed over path waypoints and the voxel
representatives of the landmark set (one landmark per occupied voxel, see
`voxelize`), score how well a path supports localization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SIGMA_BEARING = 0.01   # bearing-noise std (unitless, on the unit sphere)
DEFAULT_SIGMA_LANDMARK = 0.05  # m, default landmark position std
DEFAULT_VOXEL_SIZE = 0.25      # m
DEFAULT_SENSOR_HEIGHT = 0.3    # m above terrain
DEFAULT_FOV = math.radians(87.0)  # rad, horizontal camera field of view
DEFAULT_MAX_DEPTH = 5.0        # m, camera range

_EPS_RANGE = 1e-9
_EYE3 = np.eye(3)


class DegenerateLandmarkError(ValueError):
    """The landmark coincides with the camera center."""


@dataclass
class Landmark:
    position: np.ndarray            # (3,) world frame
    covariance: np.ndarray = None   # (3, 3) symmetric PSD

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        if self.covariance is None:
            self.covariance = (DEFAULT_SIGMA_LANDMARK ** 2) * np.eye(3)
        self.covariance = np.asarray(self.covariance, dtype=float).reshape(3, 3)
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-12):
            raise ValueError("landmark covariance must be symmetric")


@dataclass
class CameraPose:
    """World-to-camera transform plus the sensing frustum.

    rotation maps world vectors into the camera frame; the camera looks along
    its +z axis. v_camera = rotation @ v_world + translation.
    """

    rotation: np.ndarray     # (3, 3) orthonormal, det +1
    translation: np.ndarray  # (3,)
    fov: float = DEFAULT_FOV
    max_depth: float = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)

    @classmethod
    def from_planar(cls, x: float, y: float, heading: float,
                    height: float = DEFAULT_SENSOR_HEIGHT,
                    fov: float = DEFAULT_FOV,
                    max_depth: float = DEFAULT_MAX_DEPTH) -> "CameraPose":
        """Lift a planar robot pose to a camera looking along the heading."""
        c, s = math.cos(heading), math.sin(heading)
        # Camera axes in world coordinates: z forward, x left of travel, y up.
        x_axis = np.array([-s, c, 0.0])
        y_axis = np.array([0.0, 0.0, 1.0])
        z_axis = np.array([c, s, 0.0])
        r_wc = np.column_stack([x_axis, y_axis, z_axis])
        r_cw = r_wc.T
        center = np.array([x, y, height])
        return cls(r_cw, -r_cw @ center, fov=fov, max_depth=max_depth)

    def to_camera(self, v_world: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(v_world, dtype=float) + self.translation


def bearing(pose: CameraPose, landmark: Landmark) -> np.ndarray:
    """Unit vector from the camera to the landmark, in the camera frame."""
    v_c = pose.to_camera(landmark.position)
    norm = np.linalg.norm(v_c)
    if norm <= _EPS_RANGE:
        raise DegenerateLandmarkError("landmark at the camera center")
    return v_c / norm


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _bearing_derivatives(pose: CameraPose, landmark: Landmark) -> tuple:
    """The bearing's derivatives w.r.t. the camera-frame point and the pose.

    The first is the normalization derivative (1/n) I - v v^T / n^3; the
    second, the 3x6 Jacobian, composes it with the point derivative
    R_cw [-I, [v_world]_x] of an SE(3) pose perturbation.
    """
    v_c = pose.to_camera(landmark.position)
    norm = np.linalg.norm(v_c)
    if norm <= _EPS_RANGE:
        raise DegenerateLandmarkError("landmark at the camera center")
    d_b_d_v = _EYE3 / norm - np.outer(v_c, v_c) / norm ** 3
    d_v_d_pose = pose.rotation @ np.hstack([-_EYE3, _skew(landmark.position)])
    return d_b_d_v, d_b_d_v @ d_v_d_pose


def bearing_jacobian(pose: CameraPose, landmark: Landmark) -> np.ndarray:
    """3x6 derivative of the bearing w.r.t. an SE(3) pose perturbation."""
    return _bearing_derivatives(pose, landmark)[1]


def visible(pose: CameraPose, landmark: Landmark) -> bool:
    """True when the landmark sits inside the camera frustum (inclusive)."""
    v_c = pose.to_camera(landmark.position)
    norm = np.linalg.norm(v_c)
    if norm <= _EPS_RANGE or norm > pose.max_depth or v_c[2] <= 0:
        return False
    angle = math.acos(np.clip(v_c[2] / norm, -1.0, 1.0))
    return angle <= pose.fov / 2 + 1e-12


def visible_mask(pose: CameraPose, positions: np.ndarray) -> np.ndarray:
    """`visible` for each row of an (N, 3) array of world positions."""
    v_c = positions @ pose.rotation.T + pose.translation
    norm = np.linalg.norm(v_c, axis=1)
    ok = (norm > _EPS_RANGE) & (norm <= pose.max_depth) & (v_c[:, 2] > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_angle = np.clip(v_c[:, 2] / norm, -1.0, 1.0)
    return ok & (np.arccos(cos_angle) <= pose.fov / 2 + 1e-12)


def landmark_fim(pose: CameraPose, landmark: Landmark,
                 sigma_bearing: float = DEFAULT_SIGMA_BEARING) -> np.ndarray:
    """6x6 information matrix of one bearing observation; zero when unseen.

    Uses the Gauss information form J^T Q~^-1 J where Q~ combines the
    first-order propagation of the landmark covariance through the bearing
    model with isotropic bearing noise. The product form J Q J^T cannot be
    formed here (J is 3x6), so the standard information form is used.
    """
    if not visible(pose, landmark):
        return np.zeros((6, 6))
    d_b_d_v, jac = _bearing_derivatives(pose, landmark)
    d_b_d_w = d_b_d_v @ pose.rotation  # bearing w.r.t. the world-frame point
    q = d_b_d_w @ landmark.covariance @ d_b_d_w.T + sigma_bearing ** 2 * _EYE3
    try:
        q_inv = np.linalg.inv(q)
    except np.linalg.LinAlgError:
        q_inv = np.linalg.inv(q + 1e-9 * _EYE3)
    fim = jac.T @ q_inv @ jac
    return 0.5 * (fim + fim.T)


def voxelize(landmarks: list, voxel_size: float = DEFAULT_VOXEL_SIZE) -> list:
    """One representative landmark per occupied voxel.

    The representative is the landmark nearest the voxel center (ties broken
    by input order), so duplicated landmarks in one voxel count once.
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be > 0")
    best = {}
    for idx, lm in enumerate(landmarks):
        key = tuple(np.floor(lm.position / voxel_size).astype(int))
        center = (np.array(key) + 0.5) * voxel_size
        d = float(np.linalg.norm(lm.position - center))
        if key not in best or (d, idx) < best[key][:2]:
            best[key] = (d, idx, lm)
    return [entry[2] for _, entry in sorted(best.items())]


def path_information(waypoints: list, reps: list,
                     fov: float = DEFAULT_FOV,
                     max_depth: float = DEFAULT_MAX_DEPTH) -> float:
    """Sum FIM traces of the visible voxel representatives over the waypoints.

    `reps` are the landmarks' voxel representatives (`voxelize`); each
    waypoint sums the traces of the ones inside its camera frustum, in `reps`
    order, and the result is the raw sum over all waypoints.
    """
    positions = np.array([lm.position for lm in reps]).reshape(-1, 3)
    total = 0.0
    for wp in waypoints:
        pose = CameraPose.from_planar(wp.x, wp.y, wp.heading, fov=fov, max_depth=max_depth)
        seen = np.nonzero(visible_mask(pose, positions))[0]
        total += sum(float(np.trace(landmark_fim(pose, reps[k]))) for k in seen)
    return total


def load_landmarks(path) -> list:
    """Read landmarks from a text file: `x y z [6 upper-triangular cov entries]`."""
    landmarks = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            vals = [float(v) for v in parts]
            if len(vals) == 3:
                landmarks.append(Landmark(np.array(vals)))
            elif len(vals) == 9:
                a, b, c, d, e, f = vals[3:]
                cov = np.array([[a, b, c], [b, d, e], [c, e, f]])
                landmarks.append(Landmark(np.array(vals[:3]), cov))
            else:
                raise ValueError(f"landmark line needs 3 or 9 numbers, got {len(vals)}")
    return landmarks
