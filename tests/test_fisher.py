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
    visible_mask,
    voxelize,
)
from fitslam.planner import Waypoint
from fitslam.simworld import WorldConfig, generate_world


def identity_pose(**kw):
    return CameraPose(np.eye(3), np.zeros(3), **kw)


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


class TestVisible:
    def test_straight_ahead_at_half_depth(self):
        pose = identity_pose(max_depth=5.0)
        assert visible(pose, Landmark(np.array([0.0, 0.0, 2.5])))

    def test_behind_camera(self):
        pose = identity_pose()
        assert not visible(pose, Landmark(np.array([0.0, 0.0, -1.0])))

    def test_beyond_max_depth(self):
        pose = identity_pose(max_depth=5.0)
        assert not visible(pose, Landmark(np.array([0.0, 0.0, 5.01])))

    def test_exactly_at_half_fov_inclusive(self):
        fov = math.radians(87.0)
        pose = identity_pose(fov=fov, max_depth=10.0)
        half = fov / 2
        lm = Landmark(np.array([math.sin(half), 0.0, math.cos(half)]))
        assert visible(pose, lm)

    def test_just_outside_fov(self):
        fov = math.radians(87.0)
        pose = identity_pose(fov=fov, max_depth=10.0)
        ang = fov / 2 + 1e-6
        lm = Landmark(np.array([math.sin(ang), 0.0, math.cos(ang)]))
        assert not visible(pose, lm)


class TestVisibleMask:
    def check(self, pose, positions):
        expected = [visible(pose, Landmark(p)) for p in positions]
        got = visible_mask(pose, np.asarray(positions, dtype=float))
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
        assert visible_mask(identity_pose(), np.zeros((0, 3))).shape == (0,)


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


def landmark_fim_composed(pose, landmark, sigma_bearing=DEFAULT_SIGMA_BEARING):
    """Reference FIM that recomputes the bearing derivative via bearing_jacobian."""
    if not visible(pose, landmark):
        return np.zeros((6, 6))
    v_c = pose.to_camera(landmark.position)
    norm = np.linalg.norm(v_c)
    d_b_d_v = np.eye(3) / norm - np.outer(v_c, v_c) / norm ** 3
    d_b_d_w = d_b_d_v @ pose.rotation
    q = d_b_d_w @ landmark.covariance @ d_b_d_w.T + sigma_bearing ** 2 * np.eye(3)
    try:
        q_inv = np.linalg.inv(q)
    except np.linalg.LinAlgError:
        q_inv = np.linalg.inv(q + 1e-9 * np.eye(3))
    jac = bearing_jacobian(pose, landmark)
    fim = jac.T @ q_inv @ jac
    return 0.5 * (fim + fim.T)


class TestLandmarkFim:
    def test_matches_composed_reference_exactly(self):
        rng = np.random.default_rng(21)
        n_visible = 0
        for k in range(400):
            if k % 2:
                pose = random_pose(rng)
                pose.max_depth = 10.0
            else:
                x, y = rng.uniform(0.0, 20.0, size=2)
                pose = CameraPose.from_planar(x, y, rng.uniform(-math.pi, math.pi))
            # Mostly ahead of the camera, sometimes anywhere around it.
            ahead = [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 4.5)]
            offset = rng.normal(scale=3.0, size=3) if k % 4 == 3 else pose.rotation.T @ ahead
            center = -pose.rotation.T @ pose.translation
            a = rng.normal(size=(3, 3))
            cov = [None, np.zeros((3, 3)), rng.uniform(1e-4, 0.5) * (a @ a.T)][k % 3]
            lm = Landmark(center + offset, covariance=cov)
            for sigma in (DEFAULT_SIGMA_BEARING, 1e-3, 0.05, 0.3):
                assert np.array_equal(landmark_fim(pose, lm, sigma_bearing=sigma),
                                      landmark_fim_composed(pose, lm, sigma_bearing=sigma))
            n_visible += visible(pose, lm)
        assert n_visible > 200

    def test_invisible_landmark_contributes_zero(self):
        pose = identity_pose()
        assert np.array_equal(
            landmark_fim(pose, Landmark(np.array([0.0, 0.0, -2.0]))),
            np.zeros((6, 6)))

    def test_isotropic_noise_factorization(self):
        pose = identity_pose(max_depth=10.0)
        lm = Landmark(np.array([0.2, -0.1, 3.0]), covariance=np.zeros((3, 3)))
        sigma = 0.05
        fim = landmark_fim(pose, lm, sigma_bearing=sigma)
        jac = bearing_jacobian(pose, lm)
        assert np.allclose(fim, jac.T @ jac / sigma ** 2, atol=1e-9)

    def test_trace_matches_dense_oracle(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 100:
            pose = random_pose(rng)
            pose.max_depth = 10.0
            lm = Landmark(rng.normal(scale=3.0, size=3))
            if not visible(pose, lm):
                continue
            got = float(np.trace(landmark_fim(pose, lm)))
            want = float(np.trace(dense_fim_oracle(pose, lm)))
            assert got == pytest.approx(want, rel=1e-9)
            checked += 1

    def test_result_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        pose = identity_pose(max_depth=10.0)
        for _ in range(10):
            lm = Landmark(np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                                    rng.uniform(1, 8)]))
            fim = landmark_fim(pose, lm)
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
            if visible(pose, lm):
                total += float(np.trace(landmark_fim(pose, lm)))
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
        expected = float(np.trace(landmark_fim(pose, lm)))
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
