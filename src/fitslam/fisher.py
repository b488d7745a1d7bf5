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

from .grid import check_number

SIGMA_BEARING = 0.01           # bearing-noise std (unitless, on the unit sphere)
DEFAULT_SIGMA_LANDMARK = 0.05  # m, default landmark position std
DEFAULT_VOXEL_SIZE = 0.25      # m
DEFAULT_SENSOR_HEIGHT = 0.3    # m above terrain
FOV_MARGIN = 1e-12             # rad: a bearing on the field of view's border is inside it

_EPS_RANGE = 1e-9
_EYE3 = np.eye(3)


class DegenerateLandmarkError(ValueError):
    """The landmark coincides with the camera center."""


@dataclass(frozen=True)
class Camera:
    """The sensing frustum: sensing, the orientation scan and path information
    all read their field of view and range from one camera."""

    fov: float = math.radians(87.0)  # rad, horizontal field of view
    max_depth: float = 5.0           # m, range

    def __post_init__(self):
        check_number("camera fov", self.fov, lambda v: 0 < v <= 2 * math.pi,
                     "in (0, 2*pi] rad")
        check_number("camera max_depth", self.max_depth, lambda v: v > 0, "> 0 m")


@dataclass
class CameraPose:
    """World-to-camera transform of one pose, or of a stack of S poses along a
    leading axis, plus the camera they sense with.

    rotation maps world vectors into the camera frame; the camera looks along
    its +z axis. v_camera = rotation @ v_world + translation.
    """

    rotation: np.ndarray     # (3, 3) or (S, 3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,) or (S, 3)
    camera: Camera

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)

    @classmethod
    def from_planar(cls, poses, camera: Camera) -> "CameraPose":
        """Lift planar robot poses to cameras DEFAULT_SENSOR_HEIGHT above them,
        looking along the heading: one (x, y, heading) pose gives one camera, an
        (S, 3) stack (an array or a list of pose tuples) a stack; else ValueError."""
        stack = np.asarray(poses, dtype=float)
        if stack.ndim not in (1, 2) or stack.shape[-1] != 3:
            raise ValueError(f"planar poses must be (3,) or (S, 3), not {stack.shape}")
        poses = stack.reshape(-1, 3).tolist()
        # Camera axes in world coordinates, the columns of r_wc: z forward, x left of
        # travel, y up. math's cos and sin keep the bits off numpy's SIMD paths.
        r_wc = np.array([[[-s, 0.0, c], [c, 0.0, s], [0.0, 1.0, 0.0]]
                         for c, s in ((math.cos(h), math.sin(h)) for _, _, h in poses)])
        # Transposed views: BLAS reads the same bits in the same order as from r_wc.
        r_cw = r_wc.reshape(-1, 3, 3).transpose(0, 2, 1)
        translation = np.array([-r @ np.array([px, py, DEFAULT_SENSOR_HEIGHT])
                                for r, (px, py, _) in zip(r_cw, poses)]).reshape(-1, 3)
        if stack.ndim == 1:
            return cls(r_cw[0], translation[0], camera)
        return cls(r_cw, translation, camera)

    def to_camera(self, v_world: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(v_world, dtype=float) + self.translation


def default_covariances(n: int) -> np.ndarray:
    """(n, 3, 3): every row the default landmark covariance DEFAULT_SIGMA_LANDMARK^2 I."""
    return np.tile((DEFAULT_SIGMA_LANDMARK ** 2) * _EYE3, (n, 1, 1))


def bearing(pose: CameraPose, position: np.ndarray) -> np.ndarray:
    """Unit vector from the camera to the (3,) world position, in the camera frame."""
    v_c = pose.to_camera(position)
    norm = np.linalg.norm(v_c)
    if norm <= _EPS_RANGE:
        raise DegenerateLandmarkError("landmark at the camera center")
    return v_c / norm


def _bearing_derivatives(rotation: np.ndarray, translation: np.ndarray,
                         positions: np.ndarray) -> tuple:
    """Per row of (n, 3) world `positions`, seen by a camera of `rotation` and
    `translation` (one pose's, or one per row), the normalization derivative
    (1/n) I - v v^T / n^3 and the 3x6 Jacobian, its composition with the point
    derivative R_cw [-I, [p]_x] of an SE(3) pose perturbation. Each row gets the
    same operations, so the same bits, as in a one-landmark stack."""
    v_c = (rotation @ positions[:, :, None])[:, :, 0] + translation  # R @ p per row
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
    return d_b_d_v, d_b_d_v @ (rotation @ d_p)


def bearing_jacobian(pose: CameraPose, position: np.ndarray) -> np.ndarray:
    """3x6 derivative of the bearing to a (3,) position w.r.t. an SE(3) pose perturbation."""
    position = np.asarray(position, dtype=float).reshape(1, 3)
    return _bearing_derivatives(pose.rotation, pose.translation, position)[1][0]


def visible(pose: CameraPose, positions: np.ndarray) -> np.ndarray:
    """Bool mask of the rows of (K, 3) world positions inside the camera frustum
    (inclusive): (K,) for one pose, (S, K) for a stack of S poses."""
    v_c = positions @ pose.rotation.swapaxes(-1, -2) + pose.translation[..., None, :]
    norm = np.linalg.norm(v_c, axis=-1)
    ok = (norm > _EPS_RANGE) & (norm <= pose.camera.max_depth) & (v_c[..., 2] > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_angle = np.clip(v_c[..., 2] / norm, -1.0, 1.0)
    return ok & (np.arccos(cos_angle) <= pose.camera.fov / 2 + FOV_MARGIN)


def landmark_fim(pose: CameraPose, positions: np.ndarray, covariances: np.ndarray) -> tuple:
    """The frustum mask `visible(pose, positions)` of one pose or a stack of them,
    and the (n, 6, 6) information of one bearing observation of each of its n
    visible (pose, landmark) pairs, in the mask's row-major order: a pose's
    landmarks in row order, pose after pose.

    Uses the Gauss information form J^T Q~^-1 J where Q~ combines the
    first-order propagation of the landmark covariance through the bearing
    model with isotropic bearing noise of std SIGMA_BEARING (J is 3x6, so J Q J^T
    cannot be formed).
    """
    seen = visible(pose, positions)
    if not seen.any():
        return seen, np.zeros((0, 6, 6))
    *at, rows = np.nonzero(seen)
    # Gather r_wc and transpose it back, so each pair's rotation keeps the layout,
    # and so the BLAS bits, of its pose's rotation from `CameraPose.from_planar`.
    rotation = pose.rotation.swapaxes(-1, -2)[tuple(at)].swapaxes(-1, -2)
    d_b_d_v, jac = _bearing_derivatives(rotation, pose.translation[tuple(at)], positions[rows])
    d_b_d_w = d_b_d_v @ rotation  # bearing w.r.t. the world-frame point
    q = d_b_d_w @ covariances[rows] @ d_b_d_w.transpose(0, 2, 1) + SIGMA_BEARING ** 2 * _EYE3
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
    return seen, 0.5 * (fim + fim.transpose(0, 2, 1))


def voxelize(positions: np.ndarray) -> np.ndarray:
    """Row indices of one representative of (K, 3) `positions` per occupied voxel
    of side DEFAULT_VOXEL_SIZE, in voxel-key order.

    The representative is the landmark nearest the voxel center (ties broken
    by the lower row), so duplicated landmarks in one voxel count once.
    """
    best = {}
    for idx, position in enumerate(positions):
        key = tuple(np.floor(position / DEFAULT_VOXEL_SIZE).astype(int))
        center = (np.array(key) + 0.5) * DEFAULT_VOXEL_SIZE
        d = float(np.linalg.norm(position - center))
        if key not in best or (d, idx) < best[key]:
            best[key] = (d, idx)
    return np.array([best[key][1] for key in sorted(best)], dtype=int)


def path_information(poses, positions: np.ndarray, covariances: np.ndarray,
                     camera: Camera) -> float:
    """Sum FIM traces of the landmarks (rows of `positions` and `covariances`, the
    voxel representatives when scoring a path) that `camera` sees from the (S, 3)
    stack of planar (x, y, heading) poses: each pose sums its traces in row
    order, then the poses add up; an empty stack gives 0."""
    pose = CameraPose.from_planar(poses, camera)
    seen, fims = landmark_fim(pose, positions, covariances)
    traces = np.trace(fims, axis1=1, axis2=2).tolist()
    total, start = 0.0, 0
    for n in seen.sum(axis=1).tolist():
        total += sum(traces[start:start + n])
        start += n
    return total
