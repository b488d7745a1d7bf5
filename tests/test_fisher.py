import math

import numpy as np
import pytest

import fitslam
from fitslam.fisher import (
    DEFAULT_SIGMA_BEARING,
    CameraPose,
    DegenerateLandmarkError,
    Landmark,
    bearing,
    bearing_jacobian,
    landmark_fim,
    load_landmarks,
    path_information,
    visible,
    voxelize,
)
from fitslam.grid import ConfigError
from fitslam.planner import Waypoint
from fitslam.simworld import WorldConfig, generate_world


def identity_pose(**kw):
    return CameraPose(np.eye(3), np.zeros(3), **kw)


# The scalar one-landmark frustum test and FIM, the references that the
# stacked kernels `visible` and `landmark_fim` are checked against.

def _skew(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def bearing_derivatives_reference(pose, landmark):
    """The normalization derivative (1/n) I - v v^T / n^3 and the 3x6 Jacobian."""
    v_c = pose.to_camera(landmark.position)
    norm = np.linalg.norm(v_c)
    if norm <= 1e-9:
        raise DegenerateLandmarkError("landmark at the camera center")
    d_b_d_v = np.eye(3) / norm - np.outer(v_c, v_c) / norm ** 3
    d_v_d_pose = pose.rotation @ np.hstack([-np.eye(3), _skew(landmark.position)])
    return d_b_d_v, d_b_d_v @ d_v_d_pose


def visible_reference(pose, landmark):
    """True when the landmark sits inside the camera frustum (inclusive)."""
    v_c = pose.to_camera(landmark.position)
    norm = np.linalg.norm(v_c)
    if norm <= 1e-9 or norm > pose.max_depth or v_c[2] <= 0:
        return False
    angle = math.acos(np.clip(v_c[2] / norm, -1.0, 1.0))
    return angle <= pose.fov / 2 + 1e-12


def landmark_fim_reference(pose, landmark, sigma_bearing=DEFAULT_SIGMA_BEARING):
    """6x6 information matrix of one bearing observation; zero when unseen."""
    if not visible_reference(pose, landmark):
        return np.zeros((6, 6))
    d_b_d_v, jac = bearing_derivatives_reference(pose, landmark)
    d_b_d_w = d_b_d_v @ pose.rotation
    q = d_b_d_w @ landmark.covariance @ d_b_d_w.T + sigma_bearing ** 2 * np.eye(3)
    try:
        q_inv = np.linalg.inv(q)
    except np.linalg.LinAlgError:
        q_inv = np.linalg.inv(q + 1e-9 * np.eye(3))
    fim = jac.T @ q_inv @ jac
    return 0.5 * (fim + fim.T)


def stacked_fim(pose, landmarks, sigma_bearing=DEFAULT_SIGMA_BEARING):
    """`landmark_fim` over a list of landmarks."""
    return landmark_fim(pose, np.array([lm.position for lm in landmarks]).reshape(-1, 3),
                        np.array([lm.covariance for lm in landmarks]).reshape(-1, 3, 3),
                        sigma_bearing=sigma_bearing)


def sees(pose, position):
    """`visible` for one world position."""
    return bool(visible(pose, np.array([position], dtype=float))[0])


def random_pose(rng):
    """Random orthonormal camera pose from a QR factorization."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return CameraPose(q, rng.normal(scale=2.0, size=3))


def exp_so3(phi):
    angle = np.linalg.norm(phi)
    if angle < 1e-12:
        return np.eye(3)
    axis = phi / angle
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def perturb_pose(pose, delta):
    """Left/world-frame SE(3) perturbation (rho, phi) of the camera pose."""
    rho, phi = delta[:3], delta[3:]
    r_wc = pose.rotation.T
    center = -r_wc @ pose.translation
    r_wc2 = exp_so3(phi) @ r_wc
    center2 = center + rho + np.cross(phi, center)
    r_cw2 = r_wc2.T
    return CameraPose(r_cw2, -r_cw2 @ center2,
                      fov=pose.fov, max_depth=pose.max_depth)


def fd_jacobian(pose, landmark, step=1e-6):
    cols = []
    for k in range(6):
        delta = np.zeros(6)
        delta[k] = step
        b_plus = bearing(perturb_pose(pose, delta), landmark)
        b_minus = bearing(perturb_pose(pose, -delta), landmark)
        cols.append((b_plus - b_minus) / (2 * step))
    return np.column_stack(cols)


class TestBearing:
    def test_identity_pose_unit_landmark(self):
        b = bearing(identity_pose(), Landmark(np.array([0.0, 0.0, 1.0])))
        assert np.allclose(b, [0, 0, 1])

    def test_normalization(self):
        b = bearing(identity_pose(), Landmark(np.array([3.0, 4.0, 0.0])))
        assert np.allclose(b, [0.6, 0.8, 0.0])

    def test_landmark_at_camera_center_rejected(self):
        with pytest.raises(DegenerateLandmarkError):
            bearing(identity_pose(), Landmark(np.zeros(3)))


class TestBearingJacobian:
    def test_tangency_to_bearing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pose = random_pose(rng)
            lm = Landmark(rng.normal(scale=3.0, size=3))
            b = bearing(pose, lm)
            jac = bearing_jacobian(pose, lm)
            assert np.allclose(b @ jac, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(200):
            pose = random_pose(rng)
            lm = Landmark(rng.normal(scale=3.0, size=3))
            if np.linalg.norm(pose.to_camera(lm.position)) < 0.3:
                continue
            jac = bearing_jacobian(pose, lm)
            num = fd_jacobian(pose, lm)
            err = np.abs(jac - num).max() / max(np.abs(num).max(), 1e-12)
            worst = max(worst, err)
        assert worst < 1e-5

    def test_identity_pose_unit_z_landmark(self):
        pose = identity_pose()
        lm = Landmark(np.array([0.0, 0.0, 1.0]))
        jac = bearing_jacobian(pose, lm)
        # The normalization derivative is diag(1,1,0) here, so the translation
        # block is -diag(1,1,0).
        assert np.allclose(jac[:, :3], -np.diag([1.0, 1.0, 0.0]))

    def test_matches_scalar_reference_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            pose = random_pose(rng)
            lm = Landmark(rng.normal(scale=3.0, size=3))
            assert np.array_equal(bearing_jacobian(pose, lm),
                                  bearing_derivatives_reference(pose, lm)[1])

    def test_landmark_at_camera_center_rejected(self):
        with pytest.raises(DegenerateLandmarkError):
            bearing_jacobian(identity_pose(), Landmark(np.zeros(3)))


class TestVisible:
    def test_straight_ahead_at_half_depth(self):
        pose = identity_pose(max_depth=5.0)
        assert sees(pose, [0.0, 0.0, 2.5])

    def test_behind_camera(self):
        pose = identity_pose()
        assert not sees(pose, [0.0, 0.0, -1.0])

    def test_beyond_max_depth(self):
        pose = identity_pose(max_depth=5.0)
        assert not sees(pose, [0.0, 0.0, 5.01])

    def test_exactly_at_half_fov_inclusive(self):
        fov = math.radians(87.0)
        pose = identity_pose(fov=fov, max_depth=10.0)
        half = fov / 2
        assert sees(pose, [math.sin(half), 0.0, math.cos(half)])

    def test_just_outside_fov(self):
        fov = math.radians(87.0)
        pose = identity_pose(fov=fov, max_depth=10.0)
        ang = fov / 2 + 1e-6
        assert not sees(pose, [math.sin(ang), 0.0, math.cos(ang)])


class TestVisibleMask:
    def check(self, pose, positions):
        expected = [visible_reference(pose, Landmark(p)) for p in positions]
        got = visible(pose, np.asarray(positions, dtype=float))
        assert got.dtype == bool
        assert got.tolist() == expected
        return expected

    def test_matches_scalar_on_random_poses(self):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(200):
            pose = random_pose(rng)
            pose.max_depth = rng.uniform(1.0, 6.0)
            pose.fov = rng.uniform(0.2, 2.0 * math.pi)
            seen.update(self.check(pose, rng.normal(scale=3.0, size=(40, 3))))
        assert seen == {True, False}

    def test_matches_scalar_on_frustum_edges(self):
        fov = math.radians(87.0)
        half = fov / 2
        pose = identity_pose(fov=fov, max_depth=5.0)
        edges = [
            [math.sin(half), 0.0, math.cos(half)],         # exactly at fov / 2
            [0.0, -math.sin(half), math.cos(half)],        # at fov / 2, other axis
            [math.sin(half + 1e-6), 0.0, math.cos(half + 1e-6)],  # just outside
            [0.0, 0.0, 5.0],                                # exactly at max_depth
            [3.0, 0.0, 4.0],                                # at max_depth, off axis
            [0.0, 0.0, 5.0 + 1e-9],                         # just beyond max_depth
            [0.0, 0.0, -1.0],                               # behind the camera
            [1.0, 0.0, 0.0],                                # beside it, depth 0
            [0.0, 0.0, 0.0],                                # at the camera center
        ]
        assert self.check(pose, edges) == [True, True, False, True, True,
                                           False, False, False, False]

    def test_planar_pose_edges(self):
        pose = CameraPose.from_planar(0.0, 0.0, 0.0, height=0.0, max_depth=5.0)
        assert self.check(pose, [[5.0, 0.0, 0.0], [4.0, 3.0, 0.0], [-1.0, 0.0, 0.0]]) \
            == [True, True, False]

    def test_no_positions(self):
        assert visible(identity_pose(), np.zeros((0, 3))).shape == (0,)


def dense_fim_oracle(pose, landmark, sigma_bearing=0.01):
    """Independently coded information matrix for one bearing observation."""
    v_c = pose.rotation @ landmark.position + pose.translation
    n = np.linalg.norm(v_c)
    d_b_d_v = (np.eye(3) * n * n - np.outer(v_c, v_c)) / n ** 3
    d_b_d_w = d_b_d_v @ pose.rotation
    q = d_b_d_w @ landmark.covariance @ d_b_d_w.T + sigma_bearing ** 2 * np.eye(3)
    jac = d_b_d_v @ pose.rotation @ np.hstack([-np.eye(3), np.array([
        [0.0, -landmark.position[2], landmark.position[1]],
        [landmark.position[2], 0.0, -landmark.position[0]],
        [-landmark.position[1], landmark.position[0], 0.0]])])
    return jac.T @ np.linalg.solve(q, jac)


SIGMAS = (DEFAULT_SIGMA_BEARING, 1e-3, 0.05, 0.3)


def random_view(rng, k):
    """A pose (planar or random 3-D) and a landmark that is mostly ahead of it,
    with the default, a zero or a random covariance."""
    if k % 2:
        pose = random_pose(rng)
        pose.max_depth = 10.0
    else:
        x, y = rng.uniform(0.0, 20.0, size=2)
        pose = CameraPose.from_planar(x, y, rng.uniform(-math.pi, math.pi))
    return pose, random_landmark(rng, pose, k)


def random_landmark(rng, pose, k):
    # Mostly ahead of the camera, sometimes anywhere around it.
    ahead = [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 4.5)]
    offset = rng.normal(scale=3.0, size=3) if k % 4 == 3 else pose.rotation.T @ ahead
    center = -pose.rotation.T @ pose.translation
    a = rng.normal(size=(3, 3))
    cov = [None, np.zeros((3, 3)), rng.uniform(1e-4, 0.5) * (a @ a.T)][k % 3]
    return Landmark(center + offset, covariance=cov)


class TestLandmarkFim:
    def test_matches_composed_reference_exactly(self):
        rng = np.random.default_rng(21)
        n_visible = 0
        for k in range(400):
            pose, lm = random_view(rng, k)
            for sigma in SIGMAS:
                got = stacked_fim(pose, [lm], sigma_bearing=sigma)
                assert got.shape == (1, 6, 6)
                assert np.array_equal(got[0], landmark_fim_reference(pose, lm, sigma))
            n_visible += visible_reference(pose, lm)
        assert n_visible > 200

    def test_stacks_match_reference_row_by_row(self):
        rng = np.random.default_rng(8)
        rows = {True: 0, False: 0}
        for k in range(120):
            pose, _ = random_view(rng, k)
            n = (0, 1, 2, 7, 40)[k % 5]
            lms = [random_landmark(rng, pose, k + m) for m in range(n)]
            for sigma in SIGMAS:
                got = stacked_fim(pose, lms, sigma_bearing=sigma)
                assert got.shape == (n, 6, 6)
                info = np.zeros((6, 6))
                for row, lm in zip(got, lms):
                    want = landmark_fim_reference(pose, lm, sigma)
                    assert np.array_equal(row, want)
                    info += want
                # The axis-0 sum that a look's update takes adds the rows in order.
                assert np.array_equal(got.sum(axis=0), info)
            for lm in lms:
                rows[visible_reference(pose, lm)] += 1
        assert min(rows.values()) > 200

    def test_singular_q_regularized_per_matrix(self):
        # With no bearing noise q = D C D^T has rank 2 at most. A zero
        # covariance makes it exactly zero, which only the regularized inverse
        # handles; rounding leaves most random covariances' q invertible as is.
        rng = np.random.default_rng(4)
        pose = random_pose(rng)
        pose.max_depth = 10.0

        def q_of(lm):
            d_b_d_w = bearing_derivatives_reference(pose, lm)[0] @ pose.rotation
            return d_b_d_w @ lm.covariance @ d_b_d_w.T

        def inverts(q):
            try:
                np.linalg.inv(q)
            except np.linalg.LinAlgError:
                return False
            return True

        zero = Landmark(-pose.rotation.T @ (pose.translation - [0.3, -0.2, 3.0]),
                        covariance=np.zeros((3, 3)))
        regular = next(lm for lm in (random_landmark(rng, pose, 2) for _ in range(100))
                       if visible_reference(pose, lm) and inverts(q_of(lm)))
        assert visible_reference(pose, zero) and not inverts(q_of(zero))
        for lms in ([zero, regular], [regular, zero]):
            got = stacked_fim(pose, lms, sigma_bearing=0.0)
            for row, lm in zip(got, lms):
                assert np.array_equal(row, landmark_fim_reference(pose, lm, sigma_bearing=0.0))
        # The regular row would differ if its q were regularized too.
        jac = bearing_derivatives_reference(pose, regular)[1]
        fim = jac.T @ np.linalg.inv(q_of(regular) + 1e-9 * np.eye(3)) @ jac
        assert not np.array_equal(landmark_fim_reference(pose, regular, sigma_bearing=0.0),
                                  0.5 * (fim + fim.T))

    def test_invisible_landmark_contributes_zero(self):
        pose = identity_pose()
        assert np.array_equal(
            stacked_fim(pose, [Landmark(np.array([0.0, 0.0, -2.0]))]),
            np.zeros((1, 6, 6)))

    def test_isotropic_noise_factorization(self):
        pose = identity_pose(max_depth=10.0)
        lm = Landmark(np.array([0.2, -0.1, 3.0]), covariance=np.zeros((3, 3)))
        sigma = 0.05
        fim = stacked_fim(pose, [lm], sigma_bearing=sigma)[0]
        jac = bearing_jacobian(pose, lm)
        assert np.allclose(fim, jac.T @ jac / sigma ** 2, atol=1e-9)

    def test_trace_matches_dense_oracle(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 100:
            pose = random_pose(rng)
            pose.max_depth = 10.0
            lm = Landmark(rng.normal(scale=3.0, size=3))
            if not sees(pose, lm.position):
                continue
            got = float(np.trace(stacked_fim(pose, [lm])[0]))
            want = float(np.trace(dense_fim_oracle(pose, lm)))
            assert got == pytest.approx(want, rel=1e-9)
            checked += 1

    def test_result_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        pose = identity_pose(max_depth=10.0)
        for _ in range(10):
            lm = Landmark(np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                                    rng.uniform(1, 8)]))
            fim = stacked_fim(pose, [lm])[0]
            assert np.allclose(fim, fim.T)
            assert np.linalg.eigvalsh(fim).min() > -1e-9


class TestVoxelize:
    def test_duplicates_in_one_voxel_count_once(self):
        lms = [Landmark(np.array([1.0, 1.0, 0.5])),
               Landmark(np.array([1.01, 1.01, 0.5]))]
        assert len(voxelize(lms, 0.25)) == 1

    def test_separate_voxels_kept(self):
        lms = [Landmark(np.array([1.0, 1.0, 0.5])),
               Landmark(np.array([1.4, 1.0, 0.5]))]
        assert len(voxelize(lms, 0.25)) == 2

    def test_representative_nearest_to_voxel_center(self):
        near_center = Landmark(np.array([0.13, 0.12, 0.12]))
        corner = Landmark(np.array([0.01, 0.01, 0.01]))
        reps = voxelize([corner, near_center], 0.25)
        assert len(reps) == 1
        assert np.array_equal(reps[0].position, near_center.position)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        lms = [Landmark(rng.uniform(0, 2, 3)) for _ in range(60)]
        voxel = 0.25
        reps = voxelize(lms, voxel)
        groups = {}
        for idx, lm in enumerate(lms):
            key = tuple(np.floor(lm.position / voxel).astype(int))
            groups.setdefault(key, []).append((idx, lm))
        assert len(reps) == len(groups)
        for key, members in groups.items():
            center = (np.array(key) + 0.5) * voxel
            best = min(members,
                       key=lambda m: (np.linalg.norm(m[1].position - center), m[0]))
            assert any(np.array_equal(r.position, best[1].position) for r in reps)

    def test_bad_voxel_size(self):
        with pytest.raises(ValueError):
            voxelize([], 0.0)

    def test_world_voxel_landmarks_match_voxelize(self):
        world = generate_world(WorldConfig.from_json(fitslam.preset_world_path("ramp_yard")))
        reps = voxelize(world.landmarks)
        assert 0 < len(reps) < len(world.landmarks)
        assert len(world.voxel_landmarks) == len(reps)
        assert all(a is b for a, b in zip(world.voxel_landmarks, reps))


def path_information_oracle(waypoints, reps, fov=math.radians(87.0), max_depth=5.0):
    """Every representative at every waypoint, through the scalar frustum test."""
    per_waypoint = []
    for wp in waypoints:
        pose = CameraPose.from_planar(wp.x, wp.y, wp.heading, fov=fov, max_depth=max_depth)
        total = 0.0
        for lm in reps:
            if visible_reference(pose, lm):
                total += float(np.trace(landmark_fim_reference(pose, lm)))
        per_waypoint.append(total)
    return float(sum(per_waypoint))


class TestPathInformation:
    def test_no_landmarks_zero(self):
        wps = [Waypoint(0.0, 0.0, 0.0)]
        assert path_information(wps, []) == 0.0

    def test_single_visible_pair(self):
        wp = Waypoint(0.0, 0.0, 0.0)
        lm = Landmark(np.array([2.0, 0.0, 0.5]))
        pose = CameraPose.from_planar(0.0, 0.0, 0.0)
        expected = float(np.trace(landmark_fim_reference(pose, lm)))
        assert expected > 0.0
        assert path_information([wp], [lm]) == expected

    def test_duplicate_landmark_value_unchanged(self):
        wp = Waypoint(0.0, 0.0, 0.0)
        lm = Landmark(np.array([2.0, 0.0, 0.5]))
        dup = Landmark(lm.position.copy())
        single = path_information([wp], voxelize([lm]))
        doubled = path_information([wp], voxelize([lm, dup]))
        assert doubled == single

    def test_landmark_out_of_frustum_ignored(self):
        wp = Waypoint(0.0, 0.0, 0.0)  # looking along +x
        behind = Landmark(np.array([-2.0, 0.0, 0.5]))
        assert path_information([wp], [behind]) == 0.0

    def test_matches_scalar_double_loop(self):
        rng = np.random.default_rng(21)
        values = []
        for _ in range(30):
            lms = [Landmark(p) for p in rng.uniform([0, 0, 0], [8, 8, 1.5], size=(40, 3))]
            wps = [Waypoint(*xy, h) for xy, h in zip(rng.uniform(0, 8, size=(6, 2)),
                                                     rng.uniform(-math.pi, math.pi, 6))]
            fov, depth = rng.uniform(0.3, 2.5), rng.uniform(1.0, 6.0)
            reps = voxelize(lms)
            value = path_information(wps, reps, fov=fov, max_depth=depth)
            assert value == path_information_oracle(wps, reps, fov=fov, max_depth=depth)
            values.append(value)
        assert min(values) == 0.0 < max(values)

    def test_frustum_edges_match_scalar_double_loop(self):
        fov, depth = math.radians(87.0), 5.0
        wps = [Waypoint(1.0, 2.0, h) for h in (0.0, 0.7, math.pi / 2, -2.9)]
        lms = []
        for wp in wps:
            center = np.array([wp.x, wp.y, 0.3])  # the camera of from_planar
            for angle, dist in ((fov / 2, 3.0), (-fov / 2, 3.0), (0.0, depth),
                                (fov / 2, depth), (fov / 2 + 1e-6, 3.0), (0.0, depth + 1e-9)):
                heading = wp.heading + angle
                lms.append(Landmark(center + dist * np.array(
                    [math.cos(heading), math.sin(heading), 0.0])))
        value = path_information(wps, lms, fov=fov, max_depth=depth)
        assert value == path_information_oracle(wps, lms, fov=fov, max_depth=depth)
        assert value > 0.0


class TestLoadLandmarks:
    def test_plain_positions(self, tmp_path):
        f = tmp_path / "lms.txt"
        f.write_text("# comment\n1.0 2.0 0.5\n3.0 4.0 0.8\n")
        lms = load_landmarks(f)
        assert len(lms) == 2
        assert np.array_equal(lms[0].position, [1.0, 2.0, 0.5])
        assert np.allclose(lms[0].covariance, 0.05 ** 2 * np.eye(3))

    def test_with_covariance(self, tmp_path):
        f = tmp_path / "lms.txt"
        f.write_text("1 2 3 0.01 0 0 0.02 0 0.03\n")
        lms = load_landmarks(f)
        assert np.allclose(lms[0].covariance, np.diag([0.01, 0.02, 0.03]))

    def test_bad_column_count(self, tmp_path):
        f = tmp_path / "lms.txt"
        f.write_text("1 2 3 4\n")
        with pytest.raises(ValueError):
            load_landmarks(f)

    @pytest.mark.parametrize("body, line", [
        ("1 2 0.5\n1 2\n", 2),                               # two columns
        ("1 2 0.5\n\n# c\n1 2 3 4 5 6 7 8\n", 4),            # eight columns
        ("inf 2 0.5\n", 1),
        ("1 2 nan\n", 1),
        ("1 2 3 0.01 0 0 0.02 0 inf\n", 1),                   # non-finite covariance
        ("1 2 0.5\n1 2 3 -5 0 0 0.02 0 0.03\n", 2),          # eigenvalue -5
        ("1 2 3 0.01 0.5 0 0.01 0 0.03\n", 1),                # indefinite 2x2 block
        ("1 2 three\n", 1),
    ])
    def test_bad_rows_rejected_with_line_number(self, tmp_path, body, line):
        f = tmp_path / "lms.txt"
        f.write_text(body)
        with pytest.raises(ConfigError, match=f"lms.txt:{line}:"):
            load_landmarks(f)


class TestLandmarkChecks:
    @pytest.mark.parametrize("position, cov", [
        ([np.inf, 0.0, 1.0], None),
        ([0.0, np.nan, 1.0], None),
        ([0.0, 0.0, 1.0], np.diag([-5.0, 0.01, 0.01])),
        ([0.0, 0.0, 1.0], np.diag([0.01, 0.01, np.nan])),
        ([0.0, 0.0, 1.0], [[0.01, 0.0, 0.0], [0.02, 0.01, 0.0], [0.0, 0.0, 0.01]]),
        # Off by 9e-7: inside numpy's default relative tolerance, yet not symmetric.
        ([0.0, 0.0, 1.0], [[1.0, 0.1000009, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ])
    def test_bad_landmark_rejected(self, position, cov):
        with pytest.raises(ConfigError):
            Landmark(np.array(position), cov)

    def test_psd_covariances_accepted(self):
        a = np.random.default_rng(3).normal(size=(3, 3))
        for cov in (np.zeros((3, 3)), a @ a.T, np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])):
            assert np.array_equal(Landmark(np.ones(3), cov).covariance, cov)


class TestCameraPoseFromPlanar:
    def test_looks_along_heading(self):
        pose = CameraPose.from_planar(1.0, 2.0, math.pi / 2)
        ahead = np.array([1.0, 4.0, 0.3])  # 2 m along +y at sensor height
        v_c = pose.to_camera(ahead)
        assert v_c[2] == pytest.approx(2.0)
        assert np.allclose(v_c[:2], 0.0, atol=1e-12)

    def test_rotation_is_orthonormal(self):
        pose = CameraPose.from_planar(0.3, -0.7, 1.2)
        r = pose.rotation
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)
