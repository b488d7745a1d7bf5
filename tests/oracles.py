"""Reference implementations that more than one test file checks the library
against. Each is coded independently of the code it checks."""

import heapq
import math
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix

from fitslam import fisher
from fitslam.fisher import (DEFAULT_SENSOR_HEIGHT, Camera, CameraPose, DegenerateLandmarkError,
                            bearing)
from fitslam.grid import shift
from fitslam.infogain import ARGMAX_TOL, cast_ray, ray_directions, scan_orientations
from fitslam.planner import SQRT2, STEPS, NoPathError
from fitslam.traversability import MAX_ROUGHNESS, MAX_SLOPE, MAX_STEP


def linear(cells, spec):
    """The set of linear indices `j * width + i` of the (i, j) cells: the form of a
    frontier that `detect_frontiers` returns and `cluster_frontiers` takes."""
    return {j * spec.width + i for i, j in cells}


def linear_array(cells, spec):
    """The (i, j) cells as one array of linear indices `j * width + i`, in order: the
    form of a candidate set. Integer pairs give an integer array, an empty list too;
    float pairs give a float one."""
    lin = [j * spec.width + i for i, j in cells]
    return np.array(lin) if lin else np.empty(0, dtype=np.intp)


def path_cells(path, spec):
    """The (i, j) cells of a path given as linear indices, in order, one at a time."""
    return [(k % spec.width, k // spec.width) for k in path.tolist()]


def path_length(path, spec):
    """A path's length in meters, summed step by step: one resolution per cardinal
    step and sqrt(2) resolutions per diagonal one."""
    cells = path_cells(path, spec)
    length = 0.0
    for a, b in zip(cells, cells[1:]):
        length += spec.resolution * (SQRT2 if a[0] != b[0] and a[1] != b[1] else 1.0)
    return length


def blacklist_cell(blacklist, cell):
    """Set the 3x3 window around the (i, j) cell in the (H, W) bool mask `blacklist`,
    clipped to the grid, as one slice: the per-cell reference for `suppress`."""
    i, j = cell
    # Both bounds are clipped at 0: a negative one would count from the far edge
    # of the grid.
    blacklist[max(j - 1, 0):max(j + 2, 0), max(i - 1, 0):max(i + 2, 0)] = True


def all_sensed(spec):
    """The `sensed` mask of a grid whose every cell the lidar has reached."""
    return np.ones((spec.height, spec.width), dtype=bool)


def brute_force_scan(occ, goal, params, camera):
    """Independent windowed-sum evaluation built on cast_ray."""
    spec = occ.spec
    ci, cj = spec.world_to_cell(*goal)
    origin = spec.cell_to_world(ci, cj)
    dirs = ray_directions(params.delta_theta)
    gains = [cast_ray(occ, origin, th, params, camera).gain for th in dirs]
    windowed = []
    for ts in dirs:
        total = 0.0
        for th, g in zip(dirs, gains):
            diff = abs(th - ts)
            if min(diff, 2 * math.pi - diff) <= camera.fov / 2 + 1e-12:
                total += g
        windowed.append(total)
    # Same tie rule as the implementation: smallest angle within tolerance
    # of the maximum, so float rounding cannot flip exact real-valued ties.
    best = int(np.argmax(np.array(windowed) >= max(windowed) - ARGMAX_TOL))
    return np.array(gains), np.array(windowed), float(dirs[best])


def dijkstra_oracle(nav, start, goal):
    """Independent Dijkstra returning (cardinal, diagonal) step counts, or None
    if the goal is cut off.

    Counting steps instead of accumulating floats keeps the comparison exact:
    1 and sqrt(2) are rationally independent, so the optimal count pair is
    unique and the cost can be reconstituted identically on both sides.
    """
    w, h = nav.spec.width, nav.spec.height
    dist = {start: (0, 0)}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == goal:
            return dist[node]
        done.add(node)
        i, j = node
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                ni, nj = i + di, j + dj
                if not (0 <= ni < w and 0 <= nj < h) or not nav.is_free(ni, nj):
                    continue
                if di != 0 and dj != 0:
                    if not nav.is_free(i + di, j) and not nav.is_free(i, j + dj):
                        continue
                card, diag = dist[node]
                cand = (card, diag + 1) if di != 0 and dj != 0 else (card + 1, diag)
                cand_cost = cand[0] + cand[1] * SQRT2
                cur = dist.get((ni, nj))
                if cur is None or cand_cost < cur[0] + cur[1] * SQRT2 - 1e-12:
                    dist[(ni, nj)] = cand
                    heapq.heappush(heap, (cand_cost, (ni, nj)))
    return None


def build_graph(nav):
    """The planner's graph of `nav` built whole: 8 slots a row, the `STEPS` and then
    their reverses, each the column of its move or, with no move, of the row itself."""
    free = nav.free_mask()
    w, n = nav.spec.width, nav.spec.n_cells
    oks = []
    for di, dj, _ in STEPS:
        # ok[j, i]: both cell (i, j) and its neighbor (i + di, j + dj) are Free.
        ok = free & shift(free, -di, -dj)
        if di != 0 and dj != 0:
            # No corner cutting: both touched cardinals closed kills the move.
            ok &= shift(free, -di, 0) | shift(free, 0, -dj)
        oks.append(ok)
    # The reverse move from (i, j) is the forward one from (i - di, j - dj).
    oks += [shift(ok, di, dj) for (di, dj, _), ok in zip(STEPS[::-1], oks[::-1])]
    offsets = [dj * w + di for di, dj, _ in STEPS]
    offsets += [-o for o in reversed(offsets)]
    cols = np.multiply(np.stack(oks, axis=-1).reshape(n, 8),
                       np.array(offsets, dtype=np.int32), dtype=np.int32)
    cols += np.arange(n, dtype=np.int32)[:, None]
    costs = [cost for _, _, cost in STEPS]
    data = np.tile(costs + costs[::-1], n)
    indptr = np.arange(0, 8 * n + 1, 8, dtype=np.int32)
    return csr_matrix((data, cols.ravel(), indptr), shape=(n, n))


def cell_metrics(stats, sensed=None):
    """Per-cell (valid, mean_z, slope, roughness, step) arrays of a TerrainStatsGrid,
    over the whole grid by shifted copies.

    valid is the bool `sensed` mask, every cell if none is given: a cell has data
    once sensed. Slope is the angle between the fitted-plane normal and vertical;
    roughness is the RMS residual; step is the largest elevation difference to the
    mean of an 8-neighbor cell that has data (0 when no neighbor has data).
    """
    mz, slope, roughness = stats.plane
    valid = np.ones(mz.shape, dtype=bool) if sensed is None else sensed
    step = np.zeros_like(mz)
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            nb_z = shift(mz, di, dj)
            nb_ok = shift(valid, di, dj)
            diff = np.where(nb_ok & valid, np.abs(mz - nb_z), 0.0)
            step = np.maximum(step, diff)
    return valid, mz, slope, roughness, step


def score_cells(stats, sensed=None):
    """The (H, W) scores `TerrainStatsGrid.score_cells` gives, from `cell_metrics`
    over the whole grid: the minimum of the three metric scores, NaN (Unknown)
    where a cell is not valid."""
    valid, _, slope, roughness, step = cell_metrics(stats, sensed)
    s_slope = np.clip(1.0 - slope / MAX_SLOPE, 0.0, 1.0)
    s_rough = np.clip(1.0 - roughness / MAX_ROUGHNESS, 0.0, 1.0)
    s_step = np.clip(1.0 - step / MAX_STEP, 0.0, 1.0)
    score = np.minimum(np.minimum(s_slope, s_rough), s_step)
    return np.where(valid, score, np.nan)


class MomentReference:
    """The per-cell moment accumulator that `TerrainStatsGrid` replaced, kept as its
    bit-exact reference: any (N, 3) points, in any number of `accumulate` calls, are
    binned by `np.add.at` into (count, the three sums, the six sums of products of x,
    y, z), each cell's in order from zero. A point outside the grid lands in no cell,
    and a cell with under MIN_POINTS points has no plane and no score."""

    MIN_POINTS = 5

    def __init__(self, spec):
        self.spec = spec
        self.moments = np.zeros((10, spec.height, spec.width))
        self.count = self.moments[0]

    def accumulate(self, points):
        x, y, z = np.asarray(points, dtype=float).T
        i, j, inside = self.spec.world_to_cells(x, y)
        cell = j[inside] * self.spec.width + i[inside]
        x, y, z = x[inside], y[inside], z[inside]
        rows = self.moments.reshape(10, -1)
        for row, v in zip(rows, (1.0, x, y, z, x * x, x * y, y * y, x * z, y * z, z * z)):
            np.add.at(row, cell, v)

    @property
    def plane(self):
        """Per-cell (mean_z, slope, roughness) from the moments."""
        n = np.where(self.count > 0, self.count, 1.0)
        mx, my, mz, exx, exy, eyy, exz, eyz, ezz = self.moments[1:] / n
        cxx = exx - mx * mx
        cxy = exy - mx * my
        cyy = eyy - my * my
        cxz = exz - mx * mz
        cyz = eyz - my * mz
        czz = ezz - mz * mz
        det = cxx * cyy - cxy * cxy
        ok = det > 1e-18
        safe_det = np.where(ok, det, 1.0)
        a = np.where(ok, (cxz * cyy - cyz * cxy) / safe_det, 0.0)
        b = np.where(ok, (cyz * cxx - cxz * cxy) / safe_det, 0.0)
        return mz, np.arctan(np.hypot(a, b)), np.sqrt(np.maximum(czz - a * cxz - b * cyz, 0.0))

    @property
    def static(self):
        """min(s_slope, s_rough) on the grid padded by one cell, flat: NaN in the
        padding and where a cell holds under MIN_POINTS points."""
        _, slope, roughness = self.plane
        s_slope = np.clip(1.0 - slope / MAX_SLOPE, 0.0, 1.0)
        s_rough = np.clip(1.0 - roughness / MAX_ROUGHNESS, 0.0, 1.0)
        static = np.where(self.count >= self.MIN_POINTS, np.minimum(s_slope, s_rough), np.nan)
        return np.pad(static, 1, constant_values=np.nan).ravel()


# The per-pose frustum test and FIM that the stacked kernel `fisher.landmark_fim`
# replaced: one camera pose at a time, each look re-checking the frustum on the
# rows it was given. The stacked kernel must give the same bits.

_EYE3 = np.eye(3)


def planar_pose(x, y, heading, camera):
    """One camera pose built as `CameraPose.from_planar` does, from an array literal
    and its transposed view."""
    c, s = math.cos(heading), math.sin(heading)
    r_wc = np.array([[-s, 0.0, c],
                     [c, 0.0, s],
                     [0.0, 1.0, 0.0]])
    r_cw = r_wc.T
    return CameraPose(r_cw, -r_cw @ np.array([x, y, DEFAULT_SENSOR_HEIGHT]), camera)


def visible_per_pose(pose, positions):
    """(K,) bool: the rows of (K, 3) world positions inside one pose's frustum."""
    v_c = positions @ pose.rotation.T + pose.translation
    norm = np.linalg.norm(v_c, axis=1)
    ok = (norm > 1e-9) & (norm <= pose.camera.max_depth) & (v_c[:, 2] > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_angle = np.clip(v_c[:, 2] / norm, -1.0, 1.0)
    return ok & (np.arccos(cos_angle) <= pose.camera.fov / 2 + 1e-12)


def _bearing_derivatives_per_pose(pose, positions):
    v_c = (pose.rotation @ positions[:, :, None])[:, :, 0] + pose.translation
    norm = np.sqrt((v_c[:, None, :] @ v_c[:, :, None]).ravel())
    if (norm <= 1e-9).any():
        raise DegenerateLandmarkError("landmark at the camera center")
    cube = np.array([n ** 3 for n in norm.tolist()])[:, None, None]
    d_b_d_v = _EYE3 / norm[:, None, None] - v_c[:, :, None] * v_c[:, None, :] / cube
    d_p = np.zeros((len(positions), 3, 6))
    d_p[:, :, :3] = -_EYE3
    d_p[:, [2, 0, 1], [4, 5, 3]] = positions
    d_p[:, [1, 2, 0], [5, 3, 4]] = -positions
    return d_b_d_v, d_b_d_v @ (pose.rotation @ d_p)


def landmark_fim_per_pose(pose, positions, covariances):
    """(K, 6, 6) information of one pose's bearing observation of each row; zero
    where `visible_per_pose` rejects the row. Reads `fisher.SIGMA_BEARING` at call
    time, as the kernel does."""
    fims = np.zeros((len(positions), 6, 6))
    seen = visible_per_pose(pose, positions)
    if not seen.any():
        return fims
    d_b_d_v, jac = _bearing_derivatives_per_pose(pose, positions[seen])
    d_b_d_w = d_b_d_v @ pose.rotation
    q = (d_b_d_w @ covariances[seen] @ d_b_d_w.transpose(0, 2, 1)
         + fisher.SIGMA_BEARING ** 2 * _EYE3)
    try:
        q_inv = np.linalg.inv(q)
    except np.linalg.LinAlgError:
        q_inv = np.empty_like(q)
        for k, qk in enumerate(q):
            try:
                q_inv[k] = np.linalg.inv(qk)
            except np.linalg.LinAlgError:
                q_inv[k] = np.linalg.inv(qk + 1e-9 * _EYE3)
    fim = jac.transpose(0, 2, 1) @ q_inv @ jac
    fims[seen] = 0.5 * (fim + fim.transpose(0, 2, 1))
    return fims


def look_per_pose(x, y, heading, positions, covariances, camera):
    """One look's landmarks and information as a look took them one pose at a time:
    the observed rows' indices, then their FIMs, frustum re-checked, summed in row order."""
    pose = planar_pose(x, y, heading, camera)
    observed = np.nonzero(visible_per_pose(pose, positions))[0]
    info = landmark_fim_per_pose(pose, positions[observed], covariances[observed]).sum(axis=0)
    return observed, info


def path_information_per_waypoint(poses, positions, covariances, camera):
    """`fisher.path_information` one (x, y, heading) pose at a time: each pose sums
    its traces in row order, unseen rows adding zero, then the poses add up."""
    total = 0.0
    for x, y, heading in poses:
        fims = landmark_fim_per_pose(planar_pose(x, y, heading, camera), positions, covariances)
        total += sum(np.trace(fims, axis1=1, axis2=2).tolist())
    return total


def sample_waypoints_loop(path, spacing_m, spec):
    """`planner.sample_waypoints` one sample at a time, as it sampled before it
    found every segment with one `searchsorted`: the same (x, y, heading) poses,
    bit for bit, are asserted."""
    if spacing_m <= 0:
        raise ValueError("spacing_m must be > 0")
    if not len(path):
        raise ValueError("path must be nonempty")
    pts = np.array([spec.cell_to_world(i, j) for i, j in path_cells(path, spec)])
    if len(pts) == 1:
        return [(float(pts[0][0]), float(pts[0][1]), 0.0)]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    targets = list(np.arange(0.0, total, spacing_m))
    if not targets or total - targets[-1] > 1e-9:
        targets.append(total)
    samples = []
    for s in targets:
        k = int(np.searchsorted(arc, s, side="right")) - 1
        k = min(k, len(seg) - 1)
        frac = (s - arc[k]) / seg[k] if seg[k] > 0 else 0.0
        samples.append(pts[k] + frac * (pts[k + 1] - pts[k]))
    poses = []
    for idx, p in enumerate(samples):
        if idx + 1 < len(samples):
            d = samples[idx + 1] - p
            heading = math.atan2(d[1], d[0])
        else:
            heading = poses[-1][2] if poses else 0.0
        poses.append((float(p[0]), float(p[1]), heading))
    return poses


# Fit's decision one candidate at a time, as the harness made it before it
# scored candidates as arrays: a checked `distance_to` per cell with
# `NoPathError` as the unreachable branch, a one-cell `scan_orientations` per
# kept cell, scalar u1 and u2, and Python sorts on (-score, rho, j, i). The
# array form must give the same bits.

def fit_decision_per_candidate(state, planner, start, cells, rays, uparams):
    """Fit's decision on a fresh planner, candidate by candidate, from the linear
    indices `cells`, on the state's map and world; blacklists the unreachable cells
    in `state.blacklist`, one `blacklist_cell` at a time. Returns the kept (i, j)
    cells and their rho, u1, the shortlisted cells best first with their u2, and the
    pick as (cell, rho, the path's linear indices as a list, theta_star), which is
    None when no cell is kept."""
    occ, world = state.occ, state.world
    camera = world.config.sensors.camera
    planner.solve(start, math.inf)
    kept, rho = [], []
    for k in cells.tolist():
        cell = (k % world.spec.width, k // world.spec.width)
        try:
            rho.append(planner.distance_to(cell))
        except NoPathError:
            blacklist_cell(state.blacklist, cell)
            continue
        kept.append(cell)
    ref = SimpleNamespace(cells=kept, rho=rho, u1=[], shortlist=[], u2=[], pick=None)
    if not kept:
        return ref
    scans = [scan_orientations(occ, cell, rays, camera) for cell in kept]
    clamped = [max(r, world.spec.resolution) for r in rho]
    gains = [scan.best_gain for scan in scans]
    n_rho_inv, max_gain = min(clamped), max(gains)
    ref.u1 = [uparams.alpha * (n_rho_inv / r)
              + (1.0 - uparams.alpha) * (gain / max_gain if max_gain > 0 else 0.0)
              for r, gain in zip(clamped, gains)]

    def key(score, k):
        return (-score, rho[k], kept[k][1], kept[k][0])

    short = sorted(range(len(kept)), key=lambda k: key(ref.u1[k], k))[:uparams.shortlist_n]
    paths, infos = [], []
    for k in short:
        paths.append(planner.path_to(kept[k]))
        wps = sample_waypoints_loop(paths[-1], camera.max_depth, world.spec)
        wps[-1] = (wps[-1][0], wps[-1][1], scans[k].best_theta)
        infos.append(fisher.path_information(wps, *world.voxel_landmarks, camera))
    n_i = 1.0 / (1.0 + max(infos))
    ref.shortlist = [kept[k] for k in short]
    ref.u2 = [uparams.beta * ref.u1[k] + (1.0 - uparams.beta) * (info * n_i)
              for k, info in zip(short, infos)]
    best = min(range(len(short)), key=lambda n: key(ref.u2[n], short[n]))
    k = short[best]
    ref.pick = (kept[k], rho[k], paths[best].tolist(), scans[k].best_theta)
    return ref


# Finite-difference check of the analytic bearing Jacobian: a world-frame SE(3)
# perturbation of a camera pose and central differences of `fisher.bearing`.

def random_pose(rng):
    """Random orthonormal camera pose from a QR factorization."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return CameraPose(q, rng.normal(scale=2.0, size=3), Camera())


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
    return CameraPose(r_cw2, -r_cw2 @ center2, pose.camera)


def fd_jacobian(pose, position, step=1e-6):
    cols = []
    for k in range(6):
        delta = np.zeros(6)
        delta[k] = step
        b_plus = bearing(perturb_pose(pose, delta), position)
        b_minus = bearing(perturb_pose(pose, -delta), position)
        cols.append((b_plus - b_minus) / (2 * step))
    return np.column_stack(cols)
