"""Synthetic world, robot motion, sensing and the surrogate localization model.

The simulator replaces a full SLAM backend with a covariance surrogate:
dead-reckoning noise grows the 6x6 pose covariance with distance, bearing
observations of landmarks shrink it through their Fisher information, and
re-observing long-known landmarks triggers a loop-closure contraction. The
true pose drives sensing, so the strategy comparison is not confounded by
map corruption.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import fisher, traversability
from .fisher import CameraPose, Landmark
from .frontier import Blacklist, ExplorationBoundary
from .grid import ConfigError, GridSpec, OccupancyGrid, UNKNOWN_P
from .planner import Path
from .traversability import TerrainStatsGrid

LOG_ODDS_STEP = math.log(0.8 / 0.2)  # +- per hit / miss observation
P_CLAMP = (0.02, 0.98)
ROTATION_RATE = 1.0  # rad/s

# The occupancy probabilities a cell can hold. A cell gets only free or only hit
# marks (see _sense_occupancy), so its log-odds is k repeated +-LOG_ODDS_STEP
# additions, and P_CLAMP binds from |k| = 3 on: seven rungs, Unknown in the middle.
_STEPS = np.cumsum(np.full(3, LOG_ODDS_STEP))
_P_LADDER = np.clip(1.0 / (1.0 + np.exp(-np.r_[-_STEPS[::-1], 0.0, _STEPS])), *P_CLAMP)


class PathBlockedError(RuntimeError):
    """A path cell turned out non-traversable during execution."""


@dataclass
class SensorConfig:
    fov: float = fisher.DEFAULT_FOV
    max_depth: float = fisher.DEFAULT_MAX_DEPTH
    lidar_radius: float = 8.0
    ray_step: float = math.radians(1.5)  # angular spacing of sensing rays


@dataclass
class SurrogateConfig:
    q: float = 1e-3        # covariance growth per meter traveled
    kappa: float = 0.5     # loop-closure contraction factor
    t_lc: float = 60.0     # s; landmark age before it can close a loop
    l_min: int = 5         # landmarks required to close a loop


@dataclass
class RobotConfig:
    start: tuple = (2.0, 2.0, 0.0)  # x, y, theta
    speed: float = 0.4              # m/s


# World JSON key -> (dataclass field, conversion), per section. Keys of
# `terrain`, `obstacles` and `landmarks` are checked by WorldConfig itself.
_TOP_KEYS = {"seed": int, "size_m": float, "resolution": float,
             "terrain": dict, "obstacles": list, "landmarks": dict}
_SENSOR_KEYS = {"fov_deg": ("fov", lambda v: math.radians(float(v))),
                "max_depth_m": ("max_depth", float),
                "lidar_radius_m": ("lidar_radius", float),
                "ray_step_deg": ("ray_step", lambda v: math.radians(float(v)))}
_ROBOT_KEYS = {"start_xy_theta": ("start", tuple), "speed": ("speed", float)}
_TERRAIN_KEYS = ("type", "grade", "n_bumps", "bump_amp", "bump_sigma")
_TERRAIN_TYPES = ("flat", "ramp", "bumps", "ramp_bumps")
_OBSTACLE_KEYS = ("x", "y", "w", "h", "height")
_LANDMARK_KEYS = ("count", "clusters", "points")


@dataclass
class WorldConfig:
    """A world the simulator can run; construction raises ConfigError otherwise."""

    seed: int = 0
    size_m: float = 20.0
    resolution: float = 0.1
    terrain: dict = field(default_factory=lambda: {"type": "flat"})
    obstacles: list = field(default_factory=list)
    landmarks: dict = field(default_factory=lambda: {"count": 60, "clusters": 5})
    sensors: SensorConfig = field(default_factory=SensorConfig)
    robot: RobotConfig = field(default_factory=RobotConfig)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)

    def __post_init__(self):
        s = self.sensors
        for name, value in (("size_m", self.size_m), ("resolution", self.resolution),
                            ("sensors.fov", s.fov), ("sensors.max_depth", s.max_depth),
                            ("sensors.lidar_radius", s.lidar_radius),
                            ("sensors.ray_step", s.ray_step), ("robot.speed", self.robot.speed)):
            _check_positive(name, value)
        if s.fov > 2 * math.pi:
            raise ConfigError("sensors.fov must be at most 360 degrees")
        # Occupancy rays sample every half cell, the first one half a cell out.
        if s.max_depth < self.resolution / 2:
            raise ConfigError(f"sensors.max_depth {s.max_depth!r} is shorter than half "
                              f"a cell ({self.resolution / 2!r} m)")
        if round(self.size_m / self.resolution) < 1:
            raise ConfigError("size_m must hold at least one cell of the resolution")
        _check_keys(self.terrain, _TERRAIN_KEYS, "terrain")
        if self.terrain.get("type", "flat") not in _TERRAIN_TYPES:
            raise ConfigError(f"unknown terrain type {self.terrain['type']!r}")
        shape = [v for k, v in self.terrain.items() if k != "type"]
        _check_numbers(shape, len(shape), "terrain")
        _check_keys(self.landmarks, _LANDMARK_KEYS, "landmarks")
        counts = [v for k, v in self.landmarks.items() if k != "points"]
        _check_numbers(counts, len(counts), "landmarks")
        for p in _check_list(self.landmarks.get("points", []), "landmarks.points"):
            _check_numbers(p, 3, "landmark point")
        for ob in _check_list(self.obstacles, "obstacles"):
            _check_keys(ob, _OBSTACLE_KEYS, "obstacle")
            missing = [k for k in ("x", "y", "w", "h") if k not in ob]
            if missing:
                raise ConfigError(f"obstacle missing {missing[0]!r}: {ob}")
            _check_numbers(list(ob.values()), len(ob), "obstacle")
            if ob["w"] <= 0 or ob["h"] <= 0:
                raise ConfigError(f"obstacle w and h must be > 0: {ob}")
        sur = self.surrogate
        _check_numbers([sur.q, sur.kappa, sur.t_lc, sur.l_min], 4, "surrogate")
        _check_numbers(self.robot.start, 3, "robot.start_xy_theta")
        sx, sy, _ = self.robot.start
        if not (self.grid_spec().point_in_bounds(sx, sy) and self.boundary().contains(sx, sy)):
            raise ConfigError("robot start must lie inside the grid and the exploration boundary")
        if any(_footprint(ob, sx, sy) for ob in self.obstacles):
            raise ConfigError("robot start lies inside an obstacle")

    def grid_spec(self) -> GridSpec:
        n = int(round(self.size_m / self.resolution))
        return GridSpec(0.0, 0.0, self.resolution, n, n)

    def boundary(self) -> ExplorationBoundary:
        return ExplorationBoundary(0.0, 0.0, self.size_m, self.size_m)

    @classmethod
    def from_dict(cls, raw: dict) -> "WorldConfig":
        """Parse a world JSON object; any unknown key or bad value is a ConfigError.

        Keys left out take the dataclass defaults.
        """
        try:
            _check_keys(raw, (*_TOP_KEYS, "sensors", "robot", "surrogate"), "world")
            kwargs = {k: conv(raw[k]) for k, conv in _TOP_KEYS.items() if k in raw}
            kwargs["sensors"] = SensorConfig(**_fields(raw.get("sensors", {}),
                                                       _SENSOR_KEYS, "sensors"))
            kwargs["robot"] = RobotConfig(**_fields(raw.get("robot", {}), _ROBOT_KEYS, "robot"))
            kwargs["surrogate"] = SurrogateConfig(**raw.get("surrogate", {}))
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"bad world config: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "WorldConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)


def _check_keys(raw, allowed, where: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}; accepted: {list(allowed)}")


def _fields(raw, keys: dict, where: str) -> dict:
    """Dataclass keyword arguments from a JSON section whose keys carry units."""
    _check_keys(raw, keys, where)
    return {keys[k][0]: keys[k][1](v) for k, v in raw.items()}


def _check_positive(name: str, value) -> None:
    _check_numbers([value], 1, name)
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")


def _check_list(values, what: str):
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {values!r}")
    return values


def _check_numbers(values, n: int, what: str) -> None:
    if not (len(_check_list(values, what)) == n
            and all(isinstance(v, numbers.Real) and math.isfinite(v) for v in values)):
        raise ConfigError(f"{what} needs {n} finite numbers, got {values!r}")


@dataclass
class World:
    config: WorldConfig
    spec: GridSpec
    elevation: np.ndarray      # per-cell terrain height at the cell center
    occupied: np.ndarray       # bool, true-obstacle footprint
    landmarks: list            # Landmark
    boundary: ExplorationBoundary

    def terrain_z(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _terrain_z(self.config, np.asarray(x, float), np.asarray(y, float))

    @functools.cached_property
    def landmark_positions(self) -> np.ndarray:
        return np.array([lm.position for lm in self.landmarks]).reshape(-1, 3)

    @functools.cached_property
    def voxel_landmarks(self) -> list:
        """One representative landmark per occupied voxel (`fisher.voxelize`)."""
        return fisher.voxelize(self.landmarks)

    @functools.cached_property
    def centers(self) -> tuple:
        return self.spec.cell_centers()

    @functools.cached_property
    def boundary_mask(self) -> np.ndarray:
        return self.boundary.mask(self.spec)

    @functools.cached_property
    def boundary_cells(self) -> int:
        return int(self.boundary_mask.sum())


def _terrain_z(config: WorldConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic terrain height plus obstacle tops, deterministic in the seed."""
    t = config.terrain
    kind = t.get("type", "flat")
    z = np.zeros_like(x, dtype=float)
    if kind in ("ramp", "ramp_bumps"):
        z = z + float(t.get("grade", 0.05)) * x
    if kind in ("bumps", "ramp_bumps"):
        rng = np.random.default_rng(config.seed ^ 0x5EED)
        n = int(t.get("n_bumps", 5))
        amp = float(t.get("bump_amp", 0.3))
        sigma = float(t.get("bump_sigma", 2.5))
        centers = rng.uniform(0.0, config.size_m, size=(n, 2))
        for cx, cy in centers:
            z = z + amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma ** 2))
    for ob in config.obstacles:
        # Rough tops keep thresholding from declaring obstacle roofs navigable.
        rough = 0.08 * np.sin(37.0 * x + 1.3) * np.sin(41.0 * y + 0.7)
        z = np.where(_footprint(ob, x, y), float(ob.get("height", 1.5)) + rough, z)
    return z


def _footprint(ob: dict, x, y):
    """Whether (x, y), scalars or arrays, lies on the obstacle's half-open rectangle."""
    return (x >= ob["x"]) & (x < ob["x"] + ob["w"]) & (y >= ob["y"]) & (y < ob["y"] + ob["h"])


def generate_world(config: WorldConfig) -> World:
    """Build the deterministic world implied by the config and its seed."""
    spec = config.grid_spec()
    xs, ys = spec.cell_centers()
    elevation = _terrain_z(config, xs, ys)

    occupied = np.zeros((spec.height, spec.width), dtype=bool)
    for ob in config.obstacles:
        occupied |= _footprint(ob, xs, ys)

    landmarks = _place_landmarks(config)
    return World(config, spec, elevation, occupied, landmarks, config.boundary())


def _place_landmarks(config: WorldConfig) -> list:
    lm_cfg = config.landmarks
    if "points" in lm_cfg:
        return [Landmark(np.asarray(p, float)) for p in lm_cfg["points"]]
    rng = np.random.default_rng(config.seed ^ 0x1A4D)
    count = int(lm_cfg.get("count", 60))
    n_clusters = max(1, int(lm_cfg.get("clusters", 5)))

    centers = []
    for ob in config.obstacles:
        # Midpoints of the four faces are natural feature-rich spots.
        cx, cy = ob["x"] + ob["w"] / 2, ob["y"] + ob["h"] / 2
        centers.extend([(ob["x"] - 0.3, cy), (ob["x"] + ob["w"] + 0.3, cy),
                        (cx, ob["y"] - 0.3), (cx, ob["y"] + ob["h"] + 0.3)])
    while len(centers) < n_clusters:
        centers.append(tuple(rng.uniform(0.1 * config.size_m, 0.9 * config.size_m, 2)))
    idx = rng.choice(len(centers), size=n_clusters, replace=False)
    chosen = [centers[k] for k in idx]

    landmarks = []
    per = count // n_clusters
    extra = count - per * n_clusters
    for k, (cx, cy) in enumerate(chosen):
        m = per + (1 if k < extra else 0)
        for _ in range(m):
            for _attempt in range(20):
                x = cx + rng.normal(0.0, 0.6)
                y = cy + rng.normal(0.0, 0.6)
                x = float(np.clip(x, 0.05, config.size_m - 0.05))
                y = float(np.clip(y, 0.05, config.size_m - 0.05))
                if not any(_footprint(ob, x, y) for ob in config.obstacles):
                    break
            z = float(_terrain_z(config, np.array(x), np.array(y))) + rng.uniform(0.2, 1.0)
            landmarks.append(Landmark(np.array([x, y, z])))
    return landmarks


@dataclass
class MetricSample:
    t: float
    trace_cov: float
    pct_unexplored: float
    n_loop_closures: int
    distance: float


@dataclass
class MissionState:
    world: World
    occ: OccupancyGrid           # p holds a _P_LADDER rung per cell
    stats: TerrainStatsGrid      # count > 0 marks the cells whose terrain is in
    unknown_inside: int          # running count of unobserved cells in-boundary
    pose: tuple                  # (x, y, theta) true pose
    cov: np.ndarray              # 6x6 localization covariance
    blacklist: Blacklist = field(default_factory=Blacklist)
    clock: float = 0.0
    distance: float = 0.0
    n_loop_closures: int = 0
    first_seen: dict = field(default_factory=dict)  # landmark idx -> first obs time
    samples: list = field(default_factory=list)

    @classmethod
    def initial(cls, world: World) -> "MissionState":
        return cls(
            world=world,
            occ=OccupancyGrid.unknown(world.spec),
            stats=TerrainStatsGrid(world.spec),
            unknown_inside=world.boundary_cells,
            pose=tuple(world.config.robot.start),
            cov=1e-4 * np.eye(6),
        )


# Fractions of a cell at which synthetic terrain points are sampled; five
# points satisfy the plane-fit minimum in one pass.
_CELL_SAMPLES = np.array([[0.5, 0.5], [0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]])


def sense(world: World, state: MissionState) -> np.ndarray:
    """One sensing step at the current pose.

    Terrain points inside the lidar radius feed the traversability statistics,
    the camera wedge updates occupancy by ray casting against the true
    obstacles, and the indices of landmarks inside the camera frustum are
    returned.
    """
    _sense_terrain(world, state)
    _sense_occupancy(world, state)
    pose = _camera_pose(world, state.pose)
    return np.nonzero(fisher.visible_mask(pose, world.landmark_positions))[0]


def _sense_terrain(world: World, state: MissionState) -> None:
    spec = world.spec
    px, py, _ = state.pose
    r = world.config.sensors.lidar_radius
    i0 = max(0, int((px - r - spec.origin_x) / spec.resolution))
    i1 = min(spec.width, int((px + r - spec.origin_x) / spec.resolution) + 2)
    j0 = max(0, int((py - r - spec.origin_y) / spec.resolution))
    j1 = min(spec.height, int((py + r - spec.origin_y) / spec.resolution) + 2)
    xs, ys = world.centers
    win = np.s_[j0:j1, i0:i1]
    # xs and ys come from meshgrid: one row and one column hold every value.
    in_range = (xs[0, i0:i1] - px) ** 2 + (ys[j0:j1, 0, None] - py) ** 2 <= r * r
    fresh = in_range & (state.stats.count[win] == 0)
    if not fresh.any():
        return
    jj, ii = np.nonzero(fresh)
    corner_x = xs[win][jj, ii] - 0.5 * spec.resolution
    corner_y = ys[win][jj, ii] - 0.5 * spec.resolution
    pts_x = (corner_x[:, None] + _CELL_SAMPLES[None, :, 0] * spec.resolution).ravel()
    pts_y = (corner_y[:, None] + _CELL_SAMPLES[None, :, 1] * spec.resolution).ravel()
    pts_z = world.terrain_z(pts_x, pts_y)
    state.stats.accumulate(np.column_stack([pts_x, pts_y, pts_z]))


def _sense_occupancy(world: World, state: MissionState) -> None:
    spec = world.spec
    cfg = world.config.sensors
    px, py, theta = state.pose
    n_rays = max(2, int(round(cfg.fov / cfg.ray_step)) + 1)
    angles = theta + np.linspace(-cfg.fov / 2, cfg.fov / 2, n_rays)
    dr = spec.resolution / 2
    ranges = np.arange(dr, cfg.max_depth + dr / 2, dr)
    x = px + np.cos(angles)[:, None] * ranges[None, :]
    y = py + np.sin(angles)[:, None] * ranges[None, :]
    i = np.floor((x - spec.origin_x) / spec.resolution).astype(int)
    j = np.floor((y - spec.origin_y) / spec.resolution).astype(int)
    inside = (i >= 0) & (i < spec.width) & (j >= 0) & (j < spec.height)
    i = np.clip(i, 0, spec.width - 1)
    j = np.clip(j, 0, spec.height - 1)
    hit = world.occupied[j, i] & inside
    # Index of the first hit sample per ray; past it the ray is blocked.
    first_hit = np.where(hit.any(axis=1), hit.argmax(axis=1), ranges.size)
    sample_idx = np.arange(ranges.size)[None, :]
    before_hit = sample_idx < first_hit[:, None]
    at_hit = sample_idx == first_hit[:, None]

    # Mark the cells in the samples' bounding window, -1 free and +1 hit, and
    # move each marked cell one rung. Free cells are never occupied and hit
    # cells always are, so a cell's marks all point the same way.
    i0, j0 = i.min(), j.min()
    mark = np.zeros((j.max() - j0 + 1, i.max() - i0 + 1), dtype=np.int8)
    mark[j[before_hit & inside] - j0, i[before_hit & inside] - i0] = -1
    mark[j[at_hit & inside] - j0, i[at_hit & inside] - i0] = 1
    win = np.s_[j0:j0 + mark.shape[0], i0:i0 + mark.shape[1]]
    p = state.occ.p[win]
    touched = mark != 0
    state.unknown_inside -= int((touched & (p == UNKNOWN_P) & world.boundary_mask[win]).sum())
    rung = np.searchsorted(_P_LADDER, p[touched]) + mark[touched]
    p[touched] = _P_LADDER[rung.clip(0, _P_LADDER.size - 1)]


def _camera_pose(world: World, pose: tuple) -> CameraPose:
    cfg = world.config.sensors
    return CameraPose.from_planar(pose[0], pose[1], pose[2],
                                  fov=cfg.fov, max_depth=cfg.max_depth)


_MOTION_DIRS = np.diag([1.0, 1.0, 0.1, 0.1, 0.1, 1.0])  # translation-dominant noise


def _measurement_update(world: World, state: MissionState, observed: np.ndarray) -> None:
    if observed.size == 0:
        return
    pose = _camera_pose(world, state.pose)
    info = np.zeros((6, 6))
    for k in observed:
        info += fisher.landmark_fim(pose, world.landmarks[int(k)])
    if not info.any():
        return
    cov = np.linalg.inv(np.linalg.inv(state.cov) + info)
    state.cov = 0.5 * (cov + cov.T)


def _loop_closure_check(state: MissionState, observed: np.ndarray) -> None:
    sur = state.world.config.surrogate
    mature = [int(k) for k in observed
              if state.first_seen.get(int(k), math.inf) <= state.clock - sur.t_lc]
    for k in observed:
        state.first_seen.setdefault(int(k), state.clock)
    if len(mature) >= sur.l_min:
        state.cov = sur.kappa * state.cov
        state.n_loop_closures += 1
        # Reset the triggering landmarks so one revisit closes one loop.
        for k in mature:
            state.first_seen[k] = state.clock


def observe(world: World, state: MissionState) -> None:
    """Sense, apply the measurement update and check for loop closures."""
    observed = sense(world, state)
    _measurement_update(world, state, observed)
    _loop_closure_check(state, observed)


def initial_spin(world: World, state: MissionState) -> None:
    """Turn in place once so the robot starts with a full disk of terrain data."""
    x, y, theta0 = state.pose
    n = int(math.ceil(2 * math.pi / (world.config.sensors.fov / 2)))
    for k in range(n):
        state.pose = (x, y, theta0 + k * 2 * math.pi / n)
        observe(world, state)
    state.pose = (x, y, theta0)
    state.clock += 2 * math.pi / ROTATION_RATE
    record_metrics(state)


def execute_path(world: World, state: MissionState, path: Path, theta_star: float,
                 nav=None) -> None:
    """Drive the path cell by cell, then rotate to the arrival orientation.

    Each step grows the covariance with distance, senses, folds observed
    landmark information back into the covariance and checks loop closures.
    A cell found non-traversable in `nav` aborts with PathBlockedError.
    """
    spec = world.spec
    sur = world.config.surrogate
    speed = world.config.robot.speed
    cells = path.cells
    for prev, cell in zip(cells, cells[1:]):
        if nav is not None and not nav.is_free(*cell):
            raise PathBlockedError(f"path cell {cell} is not traversable")
        diagonal = prev[0] != cell[0] and prev[1] != cell[1]
        dd = spec.resolution * (math.sqrt(2.0) if diagonal else 1.0)
        state.cov = state.cov + sur.q * dd * _MOTION_DIRS
        x, y = spec.cell_to_world(*cell)
        state.pose = (x, y, math.atan2(cell[1] - prev[1], cell[0] - prev[0]))
        state.distance += dd
        state.clock += dd / speed
        observe(world, state)
        record_metrics(state)
    # Arrival: turn toward the chosen orientation and take a final look.
    x, y, theta = state.pose
    dth = abs(_wrap(theta_star - theta))
    state.clock += dth / ROTATION_RATE
    state.pose = (x, y, theta_star)
    observe(world, state)
    record_metrics(state)


def _wrap(a: float) -> float:
    return (a + math.pi) % (2 * math.pi) - math.pi


def record_metrics(state: MissionState) -> MetricSample:
    """Append the current (time, covariance trace, coverage) sample."""
    world = state.world
    pct = 100.0 * state.unknown_inside / world.boundary_cells
    sample = MetricSample(
        t=state.clock,
        trace_cov=float(np.trace(state.cov)),
        pct_unexplored=float(pct),
        n_loop_closures=state.n_loop_closures,
        distance=state.distance,
    )
    state.samples.append(sample)
    return sample


DEFAULT_TRAV_THRESHOLD = 0.3


def current_grids(state: MissionState):
    """Score and threshold the traversability seen so far."""
    trav = state.stats.score_cells()
    nav = traversability.threshold(trav, DEFAULT_TRAV_THRESHOLD)
    return trav, nav
