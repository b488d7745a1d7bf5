import math
from collections import Counter

import numpy as np
import pytest

import fitslam
from fitslam import fisher
from fitslam.fisher import (
    DEFAULT_SENSOR_HEIGHT,
    DEFAULT_VOXEL_SIZE,
    SIGMA_BEARING,
    Camera,
    CameraPose,
    DegenerateLandmarkError,
    bearing,
    bearing_jacobian,
    default_covariances,
    landmark_fim,
    path_information,
    visible,
    voxelize,
)
from fitslam.grid import ConfigError
from fitslam.simworld import WorldConfig, generate_world
from oracles import (fd_jacobian, landmark_fim_per_pose, look_per_pose,
                     path_information_per_waypoint, planar_pose, random_pose, visible_per_pose)


DEFAULT_COV = default_covariances(1)[0]


def identity_pose(**kw):
    return CameraPose(np.eye(3), np.zeros(3), Camera(**kw))


# The scalar one-landmark frustum test and FIM, the references that the
# stacked kernels `visible` and `landmark_fim` are checked against. A landmark
# is a (3,) position and a (3, 3) covariance.

def _skew(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def bearing_derivatives_reference(pose, position):
    """The normalization derivative (1/n) I - v v^T / n^3 and the 3x6 Jacobian."""
    v_c = pose.to_camera(position)
    norm = np.linalg.norm(v_c)
    if norm <= 1e-9:
        raise DegenerateLandmarkError("landmark at the camera center")
    d_b_d_v = np.eye(3) / norm - np.outer(v_c, v_c) / norm ** 3
    d_v_d_pose = pose.rotation @ np.hstack([-np.eye(3), _skew(position)])
    return d_b_d_v, d_b_d_v @ d_v_d_pose


def visible_reference(pose, position):
    """True when the position sits inside the camera frustum (inclusive)."""
    v_c = pose.to_camera(position)
    norm = np.linalg.norm(v_c)
    if norm <= 1e-9 or norm > pose.camera.max_depth or v_c[2] <= 0:
        return False
    angle = math.acos(np.clip(v_c[2] / norm, -1.0, 1.0))
    return angle <= pose.camera.fov / 2 + 1e-12


def landmark_fim_reference(pose, position, covariance, sigma_bearing=SIGMA_BEARING):
    """6x6 information matrix of one bearing observation; zero when unseen."""
    if not visible_reference(pose, position):
        return np.zeros((6, 6))
    d_b_d_v, jac = bearing_derivatives_reference(pose, position)
    d_b_d_w = d_b_d_v @ pose.rotation
    q = d_b_d_w @ covariance @ d_b_d_w.T + sigma_bearing ** 2 * np.eye(3)
    try:
        q_inv = np.linalg.inv(q)
    except np.linalg.LinAlgError:
        q_inv = np.linalg.inv(q + 1e-9 * np.eye(3))
    fim = jac.T @ q_inv @ jac
    return 0.5 * (fim + fim.T)


def stacked_fim(pose, landmarks):
    """`landmark_fim` of one pose over a list of (position, covariance) landmarks, as
    one (6, 6) row per landmark: the kernel's row where it is visible, zero elsewhere."""
    seen, fims = landmark_fim(pose, np.array([p for p, _ in landmarks]).reshape(-1, 3),
                              np.array([c for _, c in landmarks]).reshape(-1, 3, 3))
    assert seen.shape == (len(landmarks),) and len(fims) == seen.sum()
    rows = np.zeros((len(landmarks), 6, 6))
    rows[seen] = fims
    return rows


def sees(pose, position):
    """`visible` for one world position."""
    return bool(visible(pose, np.array([position], dtype=float))[0])


class TestBearing:
    def test_identity_pose_unit_landmark(self):
        b = bearing(identity_pose(), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(b, [0, 0, 1])

    def test_normalization(self):
        b = bearing(identity_pose(), np.array([3.0, 4.0, 0.0]))
        assert np.allclose(b, [0.6, 0.8, 0.0])

    def test_landmark_at_camera_center_rejected(self):
        with pytest.raises(DegenerateLandmarkError):
            bearing(identity_pose(), np.zeros(3))


class TestBearingJacobian:
    def test_tangency_to_bearing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pose = random_pose(rng)
            lm = rng.normal(scale=3.0, size=3)
            b = bearing(pose, lm)
            jac = bearing_jacobian(pose, lm)
            assert np.allclose(b @ jac, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(200):
            pose = random_pose(rng)
            lm = rng.normal(scale=3.0, size=3)
            if np.linalg.norm(pose.to_camera(lm)) < 0.3:
                continue
            jac = bearing_jacobian(pose, lm)
            num = fd_jacobian(pose, lm)
            err = np.abs(jac - num).max() / max(np.abs(num).max(), 1e-12)
            worst = max(worst, err)
        assert worst < 1e-5

    def test_identity_pose_unit_z_landmark(self):
        pose = identity_pose()
        jac = bearing_jacobian(pose, np.array([0.0, 0.0, 1.0]))
        # The normalization derivative is diag(1,1,0) here, so the translation
        # block is -diag(1,1,0).
        assert np.allclose(jac[:, :3], -np.diag([1.0, 1.0, 0.0]))

    def test_matches_scalar_reference_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            pose = random_pose(rng)
            lm = rng.normal(scale=3.0, size=3)
            assert np.array_equal(bearing_jacobian(pose, lm),
                                  bearing_derivatives_reference(pose, lm)[1])

    def test_landmark_at_camera_center_rejected(self):
        with pytest.raises(DegenerateLandmarkError):
            bearing_jacobian(identity_pose(), np.zeros(3))


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
        expected = [visible_reference(pose, p) for p in positions]
        got = visible(pose, np.asarray(positions, dtype=float))
        assert got.dtype == bool
        assert got.tolist() == expected
        return expected

    def test_matches_scalar_on_random_poses(self):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(200):
            pose = random_pose(rng)
            depth = rng.uniform(1.0, 6.0)
            pose.camera = Camera(rng.uniform(0.2, 2.0 * math.pi), depth)
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
        pose = CameraPose.from_planar(0.0, 0.0, 0.0, Camera(max_depth=5.0))
        h = DEFAULT_SENSOR_HEIGHT
        # At max_depth ahead and off axis, behind, then at max_depth on the ground,
        # which lies below the camera and so just beyond its range.
        assert self.check(pose, [[5.0, 0.0, h], [4.0, 3.0, h], [-1.0, 0.0, h],
                                 [5.0, 0.0, 0.0]]) == [True, True, False, False]

    def test_no_positions(self):
        assert visible(identity_pose(), np.zeros((0, 3))).shape == (0,)


def dense_fim_oracle(pose, position, covariance, sigma_bearing=0.01):
    """Independently coded information matrix for one bearing observation."""
    v_c = pose.rotation @ position + pose.translation
    n = np.linalg.norm(v_c)
    d_b_d_v = (np.eye(3) * n * n - np.outer(v_c, v_c)) / n ** 3
    d_b_d_w = d_b_d_v @ pose.rotation
    q = d_b_d_w @ covariance @ d_b_d_w.T + sigma_bearing ** 2 * np.eye(3)
    jac = d_b_d_v @ pose.rotation @ np.hstack([-np.eye(3), np.array([
        [0.0, -position[2], position[1]],
        [position[2], 0.0, -position[0]],
        [-position[1], position[0], 0.0]])])
    return jac.T @ np.linalg.solve(q, jac)


# Bearing-noise stds the tests set as `fisher.SIGMA_BEARING`, which `landmark_fim`
# reads at call time.
SIGMAS = (SIGMA_BEARING, 1e-3, 0.05, 0.3)


def random_view(rng, k):
    """A pose (planar or random 3-D) and a landmark that is mostly ahead of it,
    with the default, a zero or a random covariance."""
    if k % 2:
        pose = random_pose(rng)
        pose.camera = Camera(max_depth=10.0)
    else:
        x, y = rng.uniform(0.0, 20.0, size=2)
        pose = CameraPose.from_planar(x, y, rng.uniform(-math.pi, math.pi), Camera())
    return pose, random_landmark(rng, pose, k)


def random_landmark(rng, pose, k):
    # Mostly ahead of the camera, sometimes anywhere around it.
    ahead = [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 4.5)]
    offset = rng.normal(scale=3.0, size=3) if k % 4 == 3 else pose.rotation.T @ ahead
    center = -pose.rotation.T @ pose.translation
    a = rng.normal(size=(3, 3))
    cov = [DEFAULT_COV, np.zeros((3, 3)), rng.uniform(1e-4, 0.5) * (a @ a.T)][k % 3]
    return center + offset, cov


class TestLandmarkFim:
    def test_matches_composed_reference_exactly(self, monkeypatch):
        rng = np.random.default_rng(21)
        n_visible = 0
        for k in range(400):
            pose, lm = random_view(rng, k)
            for sigma in SIGMAS:
                monkeypatch.setattr(fisher, "SIGMA_BEARING", sigma)
                got = stacked_fim(pose, [lm])
                assert got.shape == (1, 6, 6)
                assert np.array_equal(got[0], landmark_fim_reference(pose, *lm, sigma))
            n_visible += visible_reference(pose, lm[0])
        assert n_visible > 200

    def test_stacks_match_reference_row_by_row(self, monkeypatch):
        rng = np.random.default_rng(8)
        rows = {True: 0, False: 0}
        for k in range(120):
            pose, _ = random_view(rng, k)
            n = (0, 1, 2, 7, 40)[k % 5]
            lms = [random_landmark(rng, pose, k + m) for m in range(n)]
            for sigma in SIGMAS:
                monkeypatch.setattr(fisher, "SIGMA_BEARING", sigma)
                got = stacked_fim(pose, lms)
                assert got.shape == (n, 6, 6)
                info = np.zeros((6, 6))
                for row, lm in zip(got, lms):
                    want = landmark_fim_reference(pose, *lm, sigma)
                    assert np.array_equal(row, want)
                    info += want
                # The axis-0 sum that a look's update takes adds the rows in order.
                assert np.array_equal(got.sum(axis=0), info)
            for position, _ in lms:
                rows[visible_reference(pose, position)] += 1
        assert min(rows.values()) > 200

    def test_singular_q_regularized_per_matrix(self, monkeypatch):
        # With no bearing noise q = D C D^T has rank 2 at most. A zero
        # covariance makes it exactly zero, which only the regularized inverse
        # handles; rounding leaves most random covariances' q invertible as is.
        rng = np.random.default_rng(4)
        pose = random_pose(rng)
        pose.camera = Camera(max_depth=10.0)

        def q_of(lm):
            d_b_d_w = bearing_derivatives_reference(pose, lm[0])[0] @ pose.rotation
            return d_b_d_w @ lm[1] @ d_b_d_w.T

        def inverts(q):
            try:
                np.linalg.inv(q)
            except np.linalg.LinAlgError:
                return False
            return True

        zero = (-pose.rotation.T @ (pose.translation - [0.3, -0.2, 3.0]), np.zeros((3, 3)))
        regular = next(lm for lm in (random_landmark(rng, pose, 2) for _ in range(100))
                       if visible_reference(pose, lm[0]) and inverts(q_of(lm)))
        assert visible_reference(pose, zero[0]) and not inverts(q_of(zero))
        monkeypatch.setattr(fisher, "SIGMA_BEARING", 0.0)
        for lms in ([zero, regular], [regular, zero]):
            got = stacked_fim(pose, lms)
            for row, lm in zip(got, lms):
                assert np.array_equal(row, landmark_fim_reference(pose, *lm, sigma_bearing=0.0))
        # The regular row would differ if its q were regularized too.
        jac = bearing_derivatives_reference(pose, regular[0])[1]
        fim = jac.T @ np.linalg.inv(q_of(regular) + 1e-9 * np.eye(3)) @ jac
        assert not np.array_equal(landmark_fim_reference(pose, *regular, sigma_bearing=0.0),
                                  0.5 * (fim + fim.T))

    def test_invisible_landmark_contributes_zero(self):
        pose = identity_pose()
        assert np.array_equal(
            stacked_fim(pose, [(np.array([0.0, 0.0, -2.0]), DEFAULT_COV)]),
            np.zeros((1, 6, 6)))

    def test_isotropic_noise_factorization(self, monkeypatch):
        pose = identity_pose(max_depth=10.0)
        position = np.array([0.2, -0.1, 3.0])
        sigma = 0.05
        monkeypatch.setattr(fisher, "SIGMA_BEARING", sigma)
        fim = stacked_fim(pose, [(position, np.zeros((3, 3)))])[0]
        jac = bearing_jacobian(pose, position)
        assert np.allclose(fim, jac.T @ jac / sigma ** 2, atol=1e-9)

    def test_trace_matches_dense_oracle(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 100:
            pose = random_pose(rng)
            pose.camera = Camera(max_depth=10.0)
            lm = rng.normal(scale=3.0, size=3)
            if not sees(pose, lm):
                continue
            got = float(np.trace(stacked_fim(pose, [(lm, DEFAULT_COV)])[0]))
            want = float(np.trace(dense_fim_oracle(pose, lm, DEFAULT_COV)))
            assert got == pytest.approx(want, rel=1e-9)
            checked += 1

    def test_result_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        pose = identity_pose(max_depth=10.0)
        for _ in range(10):
            position = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 8)])
            fim = stacked_fim(pose, [(position, DEFAULT_COV)])[0]
            assert np.allclose(fim, fim.T)
            assert np.linalg.eigvalsh(fim).min() > -1e-9


def check_stack_against_per_pose(xs, ys, headings, positions, covariances, camera):
    """`landmark_fim` over the stack of planar poses against the per-pose form it
    replaced: the same (S, K) mask, and per pose the same FIM bits pair by pair and
    the same summed information as a look took. Returns the mask."""
    seen, fims = landmark_fim(CameraPose.from_planar(xs, ys, headings, camera),
                              positions, covariances)
    assert seen.shape == (len(xs), len(positions)) and len(fims) == seen.sum()
    start = 0
    for row, x, y, heading in zip(seen, xs, ys, headings):
        single = planar_pose(x, y, heading, camera)
        assert np.array_equal(row, visible_per_pose(single, positions))
        mine = fims[start:start + row.sum()]
        start += row.sum()
        assert np.array_equal(mine, landmark_fim_per_pose(single, positions[row],
                                                          covariances[row]))
        observed, info = look_per_pose(x, y, heading, positions, covariances, camera)
        assert np.array_equal(np.flatnonzero(row), observed)
        assert np.array_equal(mine.sum(axis=0), info)
    return seen


class TestStackedKernel:
    def test_random_stacks_match_per_pose_form(self, monkeypatch):
        rng = np.random.default_rng(28)
        pairs = Counter()
        for k in range(60):
            n_poses = (1, 2, 7, 30)[k % 4]
            xs, ys = rng.uniform(0.0, 8.0, size=(2, n_poses))
            headings = rng.uniform(-math.pi, math.pi, n_poses)
            headings[::5] = (0.0, math.pi / 2, -math.pi, math.pi, 2.5)[k % 5]
            positions = rng.uniform([0, 0, 0], [8, 8, 1.5], size=(40, 3))
            a = rng.normal(size=(40, 3, 3))
            covariances = [default_covariances(40), np.zeros((40, 3, 3)),
                           rng.uniform(1e-4, 0.5) * (a @ a.transpose(0, 2, 1))][k % 3]
            camera = Camera(rng.uniform(0.3, 2 * math.pi), rng.uniform(1.0, 6.0))
            monkeypatch.setattr(fisher, "SIGMA_BEARING", SIGMAS[k % len(SIGMAS)])
            seen = check_stack_against_per_pose(xs, ys, headings, positions, covariances,
                                                camera)
            pairs[n_poses] += int(seen.sum())
        assert min(pairs.values()) > 20 and pairs[30] > 1000

    def test_singular_q_inside_a_stack_of_poses(self, monkeypatch):
        # With no bearing noise a zero covariance makes q exactly zero, so the
        # stack's inverse fails and each pair is inverted alone, only that one
        # regularized; the poses that do not see it must keep their plain inverse.
        target = np.array([4.0, 4.0, DEFAULT_SENSOR_HEIGHT])
        xs, ys = np.array([2.0, 6.0, 4.0, 1.0, 7.0]), np.array([4.0, 4.5, 2.0, 1.0, 7.5])
        headings = np.arctan2(target[1] - ys, target[0] - xs)
        headings[3] += math.pi  # looks away from the target
        rng = np.random.default_rng(6)
        positions = np.vstack([target, target + rng.uniform(-1.0, 1.0, size=(12, 3))])
        a = rng.normal(size=(12, 3, 3))
        covariances = np.concatenate([np.zeros((1, 3, 3)), 0.01 * (a @ a.transpose(0, 2, 1))])
        monkeypatch.setattr(fisher, "SIGMA_BEARING", 0.0)
        failed = []  # the shapes of the stacks whose inverse raised
        inv = np.linalg.inv

        def spied_inv(a):
            try:
                return inv(a)
            except np.linalg.LinAlgError:
                failed.append(np.shape(a))
                raise

        monkeypatch.setattr(np.linalg, "inv", spied_inv)
        seen = check_stack_against_per_pose(xs, ys, headings, positions, covariances, Camera())
        assert seen[:, 0].sum() == 4 and not seen[3, 0]
        assert seen[[0, 1, 2, 4], 1:].sum(axis=1).min() > 0
        # The whole stack's inverse raised, then the one singular matrix per seeing pose.
        assert (int(seen.sum()), 3, 3) in failed and failed.count((3, 3)) >= 8


class TestVoxelize:
    def test_duplicates_in_one_voxel_count_once(self):
        positions = np.array([[1.0, 1.0, 0.5], [1.01, 1.01, 0.5]])
        assert len(voxelize(positions)) == 1

    def test_separate_voxels_kept(self):
        positions = np.array([[1.0, 1.0, 0.5], [1.4, 1.0, 0.5]])
        assert len(voxelize(positions)) == 2

    def test_representative_nearest_to_voxel_center(self):
        corner, near_center = [0.01, 0.01, 0.01], [0.13, 0.12, 0.12]
        assert voxelize(np.array([corner, near_center])).tolist() == [1]

    def test_equidistant_tie_goes_to_lower_row(self):
        # 1/16 m either side of the voxel center at 1/8 m: exactly equal distances.
        left, right = [0.0625, 0.125, 0.125], [0.1875, 0.125, 0.125]
        other_voxel = [1.1, 0.1, 0.1]
        assert voxelize(np.array([other_voxel, left, right])).tolist() == [1, 0]
        assert voxelize(np.array([other_voxel, right, left])).tolist() == [1, 0]

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        positions = rng.uniform(0, 2, (60, 3))
        voxel = DEFAULT_VOXEL_SIZE
        reps = voxelize(positions)
        groups = {}
        for idx, position in enumerate(positions):
            groups.setdefault(tuple(np.floor(position / voxel).astype(int)), []).append(idx)
        best = []
        for key in sorted(groups):
            center = (np.array(key) + 0.5) * voxel
            best.append(min(groups[key],
                            key=lambda idx: (np.linalg.norm(positions[idx] - center), idx)))
        # One row per voxel, in voxel-key order.
        assert reps.tolist() == best

    def test_world_voxel_landmarks_match_voxelize(self):
        world = generate_world(WorldConfig.from_json(fitslam.preset_world_path("ramp_yard")))
        reps = voxelize(world.landmark_positions)
        assert 0 < len(reps) < len(world.landmark_positions)
        positions, covariances = world.voxel_landmarks
        assert np.array_equal(positions, world.landmark_positions[reps])
        assert np.array_equal(covariances, world.landmark_covariances[reps])


def path_information_oracle(poses, positions, covariances, camera):
    """Every landmark row at every (x, y, heading) pose, through the scalar frustum test."""
    per_waypoint = []
    for x, y, heading in poses:
        pose = CameraPose.from_planar(x, y, heading, camera)
        total = 0.0
        for position, covariance in zip(positions, covariances):
            if visible_reference(pose, position):
                total += float(np.trace(landmark_fim_reference(pose, position, covariance)))
        per_waypoint.append(total)
    return float(sum(per_waypoint))


def path_information_checked(poses, positions, covariances, camera):
    """`path_information`, asserted equal to the per-pose loop it replaced."""
    value = path_information(poses, positions, covariances, camera)
    assert value == path_information_per_waypoint(poses, positions, covariances, camera)
    return value


class TestPathInformation:
    def test_no_landmarks_zero(self):
        wps = [(0.0, 0.0, 0.0)]
        assert path_information_checked(wps, np.zeros((0, 3)), np.zeros((0, 3, 3)),
                                        Camera()) == 0.0
        assert path_information_checked([], np.zeros((0, 3)), np.zeros((0, 3, 3)),
                                        Camera()) == 0.0

    def test_single_visible_pair(self):
        wp = (0.0, 0.0, 0.0)
        position = np.array([2.0, 0.0, 0.5])
        pose = CameraPose.from_planar(0.0, 0.0, 0.0, Camera())
        expected = float(np.trace(landmark_fim_reference(pose, position, DEFAULT_COV)))
        assert expected > 0.0
        assert path_information_checked([wp], position[None], default_covariances(1),
                                        Camera()) == expected

    def test_duplicate_landmark_value_unchanged(self):
        wp = (0.0, 0.0, 0.0)
        positions = np.array([[2.0, 0.0, 0.5], [2.0, 0.0, 0.5]])
        covariances = default_covariances(2)
        values = []
        for n in (1, 2):
            reps = voxelize(positions[:n])
            values.append(path_information_checked([wp], positions[reps], covariances[reps],
                                                   Camera()))
        assert values[1] == values[0]

    def test_landmark_out_of_frustum_ignored(self):
        wp = (0.0, 0.0, 0.0)  # looking along +x
        behind = np.array([[-2.0, 0.0, 0.5]])
        assert path_information_checked([wp], behind, default_covariances(1), Camera()) == 0.0

    def test_matches_scalar_double_loop(self):
        rng = np.random.default_rng(21)
        values = []
        for _ in range(30):
            positions = rng.uniform([0, 0, 0], [8, 8, 1.5], size=(40, 3))
            wps = [(*xy, h) for xy, h in zip(rng.uniform(0, 8, size=(6, 2)),
                                                     rng.uniform(-math.pi, math.pi, 6))]
            camera = Camera(rng.uniform(0.3, 2.5), rng.uniform(1.0, 6.0))
            reps = voxelize(positions)
            covariances = default_covariances(len(reps))
            value = path_information_checked(wps, positions[reps], covariances, camera)
            assert value == path_information_oracle(wps, positions[reps], covariances, camera)
            values.append(value)
        assert min(values) == 0.0 < max(values)

    def test_frustum_edges_match_scalar_double_loop(self):
        fov, depth = math.radians(87.0), 5.0
        wps = [(1.0, 2.0, h) for h in (0.0, 0.7, math.pi / 2, -2.9)]
        positions = []
        for x, y, wp_heading in wps:
            center = np.array([x, y, DEFAULT_SENSOR_HEIGHT])  # the camera of from_planar
            for angle, dist in ((fov / 2, 3.0), (-fov / 2, 3.0), (0.0, depth),
                                (fov / 2, depth), (fov / 2 + 1e-6, 3.0), (0.0, depth + 1e-9)):
                heading = wp_heading + angle
                positions.append(center + dist * np.array(
                    [math.cos(heading), math.sin(heading), 0.0]))
        positions = np.array(positions)
        covariances = default_covariances(len(positions))
        value = path_information_checked(wps, positions, covariances, Camera(fov, depth))
        assert value == path_information_oracle(wps, positions, covariances, Camera(fov, depth))
        assert value > 0.0


class TestCameraPoseFromPlanar:
    def test_looks_along_heading(self):
        pose = CameraPose.from_planar(1.0, 2.0, math.pi / 2, Camera())
        ahead = np.array([1.0, 4.0, 0.3])  # 2 m along +y at sensor height
        v_c = pose.to_camera(ahead)
        assert v_c[2] == pytest.approx(2.0)
        assert np.allclose(v_c[:2], 0.0, atol=1e-12)

    def test_rotation_is_orthonormal(self):
        pose = CameraPose.from_planar(0.3, -0.7, 1.2, Camera())
        r = pose.rotation
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


class TestCamera:
    def test_defaults(self):
        assert Camera() == Camera(math.radians(87.0), 5.0)

    @pytest.mark.parametrize("fov, max_depth", [
        (0.0, 5.0), (-0.1, 5.0), (2 * math.pi + 1e-9, 5.0), (math.nan, 5.0), (math.inf, 5.0),
        (True, 5.0), ("1.5", 5.0),
        (1.5, 0.0), (1.5, -1.0), (1.5, math.nan), (1.5, math.inf), (1.5, "5"),
    ])
    def test_bad_values_rejected(self, fov, max_depth):
        with pytest.raises(ConfigError):
            Camera(fov, max_depth)

    def test_full_circle_accepted(self):
        assert Camera(2 * math.pi, 1e-3).fov == 2 * math.pi

    def test_frozen_and_hashable(self):
        camera = Camera()
        with pytest.raises(AttributeError):
            camera.fov = 1.0
        assert hash(camera) == hash(Camera())

    def test_rotation_keeps_values_and_memory_order_of_stacked_axes(self):
        # The camera axes stacked as columns, then transposed: a rotation with other
        # bits, or another memory order, would send other bits through the BLAS
        # calls of `visible` and `_bearing_derivatives`.
        rng = np.random.default_rng(13)
        for heading in [0.0, math.pi / 2, -math.pi, *rng.uniform(-7.0, 7.0, 200)]:
            x, y = rng.uniform(-20.0, 20.0, size=2)
            c, s = math.cos(heading), math.sin(heading)
            r_cw = np.column_stack([[-s, c, 0.0], [0.0, 0.0, 1.0], [c, s, 0.0]]).T
            center = np.array([x, y, DEFAULT_SENSOR_HEIGHT])
            pose = CameraPose.from_planar(x, y, heading, Camera())
            assert pose.rotation.tobytes(order="A") == r_cw.tobytes(order="A")
            assert pose.rotation.strides == r_cw.strides
            assert pose.translation.tobytes() == (-r_cw @ center).tobytes()

    def test_stacked_planar_poses_keep_each_poses_bits_and_layout(self):
        rng = np.random.default_rng(14)
        xs, ys = rng.uniform(-20.0, 20.0, size=(2, 200))
        headings = [0.0, math.pi / 2, -math.pi, *rng.uniform(-7.0, 7.0, 197)]
        stack = CameraPose.from_planar(xs, ys, headings, Camera())
        assert stack.rotation.shape == (200, 3, 3) and stack.translation.shape == (200, 3)
        for k, (x, y, heading) in enumerate(zip(xs, ys, headings)):
            pose = planar_pose(x, y, heading, Camera())
            assert stack.rotation[k].tobytes(order="A") == pose.rotation.tobytes(order="A")
            assert stack.rotation[k].strides == pose.rotation.strides
            assert stack.translation[k].tobytes() == pose.translation.tobytes()
        empty = CameraPose.from_planar([], [], [], Camera())
        assert empty.rotation.shape == (0, 3, 3) and empty.translation.shape == (0, 3)
