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

from .grid import ConfigError, read_rows

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
    position: np.ndarray            # (3,) world frame, finite
    covariance: np.ndarray = None   # (3, 3) finite, symmetric PSD

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        if self.covariance is None:
            self.covariance = (DEFAULT_SIGMA_LANDMARK ** 2) * np.eye(3)
        self.covariance = cov = np.asarray(self.covariance, dtype=float).reshape(3, 3)
        if not (np.isfinite(self.position).all() and np.isfinite(cov).all()
                and np.allclose(cov, cov.T, rtol=0, atol=1e-12)
                and np.linalg.eigvalsh(cov)[0] >= -1e-12):
            raise ConfigError(f"landmark needs a finite position and a finite symmetric PSD "
                              f"covariance, got {self.position.tolist()}, {cov.tolist()}")


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


def _bearing_derivatives(pose: CameraPose, positions: np.ndarray) -> tuple:
    """Per row of (K, 3) world `positions`, the normalization derivative
    (1/n) I - v v^T / n^3 and the 3x6 Jacobian, its composition with the point
    derivative R_cw [-I, [p]_x] of an SE(3) pose perturbation. Each row gets the
    same operations, so the same bits, as in a one-landmark stack."""
    v_c = (pose.rotation @ positions[:, :, None])[:, :, 0] + pose.translation  # R @ p per row
    norm = np.sqrt((v_c[:, None, :] @ v_c[:, :, None]).ravel())  # as np.linalg.norm(v)
    if (norm <= _EPS_RANGE).any():
        raise DegenerateLandmarkError("landmark at the camera center")
    # A scalar power per row: numpy's array power rounds some cubes differently.
    cube = np.array([n ** 3 for n in norm.tolist()])[:, None, None]
    d_b_d_v = _EYE3 / norm[:, None, None] - v_c[:, :, None] * v_c[:, None, :] / cube
    d_p = np.zeros((len(positions), 3, 6))  # [-I, [p]_x]
    d_p[:, :, :3] = -_EYE3
    d_p[:, [2, 0, 1], [4, 5, 3]] = positions
    d_p[:, [1, 2, 0], [5, 3, 4]] = -positions
    return d_b_d_v, d_b_d_v @ (pose.rotation @ d_p)


def bearing_jacobian(pose: CameraPose, landmark: Landmark) -> np.ndarray:
    """3x6 derivative of the bearing w.r.t. an SE(3) pose perturbation."""
    return _bearing_derivatives(pose, landmark.position[None])[1][0]


def visible(pose: CameraPose, positions: np.ndarray) -> np.ndarray:
    """(K,) bool: the rows of (K, 3) world positions inside the camera frustum (inclusive)."""
    v_c = positions @ pose.rotation.T + pose.translation
    norm = np.linalg.norm(v_c, axis=1)
    ok = (norm > _EPS_RANGE) & (norm <= pose.max_depth) & (v_c[:, 2] > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_angle = np.clip(v_c[:, 2] / norm, -1.0, 1.0)
    return ok & (np.arccos(cos_angle) <= pose.fov / 2 + 1e-12)


def landmark_fim(pose: CameraPose, positions: np.ndarray, covariances: np.ndarray,
                 sigma_bearing: float = DEFAULT_SIGMA_BEARING) -> np.ndarray:
    """(K, 6, 6) information of one bearing observation of each landmark; a row
    that `visible` rejects is zero.

    Uses the Gauss information form J^T Q~^-1 J where Q~ combines the
    first-order propagation of the landmark covariance through the bearing
    model with isotropic bearing noise (J is 3x6, so J Q J^T cannot be formed).
    """
    fims = np.zeros((len(positions), 6, 6))
    seen = visible(pose, positions)
    if not seen.any():
        return fims
    d_b_d_v, jac = _bearing_derivatives(pose, positions[seen])
    d_b_d_w = d_b_d_v @ pose.rotation  # bearing w.r.t. the world-frame point
    q = d_b_d_w @ covariances[seen] @ d_b_d_w.transpose(0, 2, 1) + sigma_bearing ** 2 * _EYE3
    try:
        q_inv = np.linalg.inv(q)
    except np.linalg.LinAlgError:  # regularize only the singular matrices
        q_inv = np.empty_like(q)
        for k, qk in enumerate(q):
            try:
                q_inv[k] = np.linalg.inv(qk)
            except np.linalg.LinAlgError:
                q_inv[k] = np.linalg.inv(qk + 1e-9 * _EYE3)
    fim = jac.transpose(0, 2, 1) @ q_inv @ jac
    fims[seen] = 0.5 * (fim + fim.transpose(0, 2, 1))
    return fims


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
    """Sum FIM traces of the visible voxel representatives (`voxelize`) over the
    waypoints: each waypoint sums its traces in `reps` order, then the waypoints add up."""
    positions = np.array([lm.position for lm in reps]).reshape(-1, 3)
    covariances = np.array([lm.covariance for lm in reps]).reshape(-1, 3, 3)
    total = 0.0
    for wp in waypoints:
        pose = CameraPose.from_planar(wp.x, wp.y, wp.heading, fov=fov, max_depth=max_depth)
        fims = landmark_fim(pose, positions, covariances)
        # An unseen row adds its zero trace, which leaves the sum's bits alone.
        total += sum(np.trace(fims, axis1=1, axis2=2).tolist())
    return total


def load_landmarks(path) -> list:
    """Landmarks from `x y z [6 upper-triangular cov entries]` rows of a text file.

    A bad row or landmark raises ConfigError naming its line.
    """
    landmarks = []
    for lineno, vals in read_rows(path, (3, 9), "landmark"):
        cov = None
        if len(vals) == 9:
            a, b, c, d, e, f = vals[3:]
            cov = np.array([[a, b, c], [b, d, e], [c, e, f]])
        try:
            landmarks.append(Landmark(np.array(vals[:3]), cov))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return landmarks
