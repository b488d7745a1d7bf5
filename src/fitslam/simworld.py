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
from dataclasses import dataclass, field

import numpy as np

from . import fisher, traversability
from .fisher import CameraPose, Landmark
from .grid import (FREE, ConfigError, GridSpec, OccupancyGrid, UNKNOWN_P, _is_number,
                   check_int, check_number)
from .planner import Path
from .traversability import TerrainStatsGrid

P_CLAMP = (0.02, 0.98)  # occupancy of a cell seen free / seen occupied
ROTATION_RATE = 1.0  # rad/s

# Bounds on the sizes a world config implies, each over 100x what any preset
# or the defaults use: a config past one fails before anything is allocated.
MAX_GRID_CELLS = 10 ** 7
MAX_RAY_SAMPLES = 10 ** 6  # rays x samples of one look, sensing wedge or orientation scan
MAX_LANDMARKS = 10 ** 4    # bounds landmarks.count and landmarks.clusters
MAX_BUMPS = 10 ** 3
# Bounds |grade| x size_m, |bump_amp| x n_bumps and each obstacle |height|, in m;
# the tallest preset terrain is 3.8 m. Far taller terrain overflows the plane fit.
MAX_TERRAIN_HEIGHT = 10 ** 3
# Covariance growth per meter, 1000x the presets'. At 1e14 a mission on a 10 m
# world already grows the covariance too ill-conditioned for the measurement
# update to invert.
MAX_SURROGATE_Q = 1.0


class PathBlockedError(RuntimeError):
    """A path cell is not traversable in the grid the path is driven on."""


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


# Top-level world JSON keys, and per key of the sections whose keys carry
# units, its (dataclass field, conversion). WorldConfig checks every value.
_TOP_KEYS = ("seed", "size_m", "resolution", "terrain", "obstacles", "landmarks")
_SENSOR_KEYS = {"fov_deg": ("fov", math.radians), "max_depth_m": ("max_depth", float),
                "lidar_radius_m": ("lidar_radius", float),
                "ray_step_deg": ("ray_step", math.radians)}
_ROBOT_KEYS = {"start_xy_theta": ("start", tuple), "speed": ("speed", float)}
_TERRAIN_KEYS = ("type", "grade", "n_bumps", "bump_amp", "bump_sigma")
_TERRAIN_TYPES = ("flat", "ramp", "bumps", "ramp_bumps")
_TERRAIN_DEFAULTS = {"grade": 0.05, "n_bumps": 5, "bump_amp": 0.3, "bump_sigma": 2.5}
_OBSTACLE_HEIGHT = 1.5
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
        check_int("seed", self.seed, 0)
        for name, value in (("size_m", self.size_m), ("resolution", self.resolution),
                            ("sensors.fov", s.fov), ("sensors.max_depth", s.max_depth),
                            ("sensors.lidar_radius", s.lidar_radius),
                            ("sensors.ray_step", s.ray_step), ("robot.speed", self.robot.speed)):
            check_number(name, value, lambda v: v > 0, "> 0")
        if s.fov > 2 * math.pi:
            raise ConfigError("sensors.fov must be at most 360 degrees")
        # Occupancy rays sample every half cell, the first one half a cell out.
        if s.max_depth < self.resolution / 2:
            raise ConfigError(f"sensors.max_depth {s.max_depth!r} is shorter than half "
                              f"a cell ({self.resolution / 2!r} m)")
        side = self.size_m / self.resolution  # inf if the quotient overflows
        if side * side > MAX_GRID_CELLS:
            raise ConfigError(f"size_m / resolution makes a grid of {side:.3g} x {side:.3g} "
                              f"cells; at most {MAX_GRID_CELLS} cells fit")
        if round(side) < 1:
            raise ConfigError("size_m must hold at least one cell of the resolution")
        check_ray_samples(f"the sensing wedge ({math.degrees(s.ray_step):g} deg ray step)",
                          s.fov / s.ray_step + 1, s.max_depth, self.resolution)
        _check_keys(self.terrain, _TERRAIN_KEYS, "terrain")
        if self.terrain.get("type", "flat") not in _TERRAIN_TYPES:
            raise ConfigError(f"unknown terrain type {self.terrain['type']!r}")
        shape = [v for k, v in self.terrain.items() if k != "type"]
        _check_numbers(shape, len(shape), "terrain")
        if "n_bumps" in self.terrain:
            check_int("terrain.n_bumps", self.terrain["n_bumps"], 0, MAX_BUMPS)
        if "bump_sigma" in self.terrain:
            check_number("terrain.bump_sigma", self.terrain["bump_sigma"], lambda v: v > 0, "> 0")
        _check_keys(self.landmarks, _LANDMARK_KEYS, "landmarks")
        for key, lo in (("count", 0), ("clusters", 1)):
            if key in self.landmarks:
                check_int(f"landmarks.{key}", self.landmarks[key], lo, MAX_LANDMARKS)
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
        t = {**_TERRAIN_DEFAULTS, **self.terrain}
        heights = {"|terrain.grade| x size_m": abs(t["grade"]) * self.size_m,
                   "|terrain.bump_amp| x n_bumps": abs(t["bump_amp"]) * t["n_bumps"],
                   **{f"|obstacles[{k}].height|": abs(ob.get("height", _OBSTACLE_HEIGHT))
                      for k, ob in enumerate(self.obstacles)}}
        for what, height in heights.items():
            if height > MAX_TERRAIN_HEIGHT:
                raise ConfigError(f"{what} is {height:.3g} m; the limit is {MAX_TERRAIN_HEIGHT} m")
        sur = self.surrogate
        check_number("surrogate.q", sur.q, lambda v: 0 <= v <= MAX_SURROGATE_Q,
                     f"in [0, {MAX_SURROGATE_Q:g}]")
        check_number("surrogate.kappa", sur.kappa, lambda v: 0 < v <= 1, "in (0, 1]")
        check_number("surrogate.t_lc", sur.t_lc, lambda v: v >= 0, ">= 0")
        check_int("surrogate.l_min", sur.l_min, 1)
        _check_numbers(self.robot.start, 3, "robot.start_xy_theta")
        sx, sy, _ = self.robot.start
        if not self.grid_spec().point_in_bounds(sx, sy):
            raise ConfigError("robot start must lie inside the grid")
        if any(_footprint(ob, sx, sy) for ob in self.obstacles):
            raise ConfigError("robot start lies inside an obstacle")

    def grid_spec(self) -> GridSpec:
        n = int(round(self.size_m / self.resolution))
        return GridSpec(0.0, 0.0, self.resolution, n, n)

    @classmethod
    def from_dict(cls, raw: dict) -> "WorldConfig":
        """Parse a world JSON object; any unknown key or bad value is a ConfigError.

        Keys left out take the dataclass defaults.
        """
        try:
            _check_keys(raw, (*_TOP_KEYS, "sensors", "robot", "surrogate"), "world")
            kwargs = {k: raw[k] for k in _TOP_KEYS if k in raw}
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
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)


def _check_keys(raw, allowed, where: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}; accepted: {list(allowed)}")


def _fields(raw, keys: dict, where: str) -> dict:
    """Dataclass keyword arguments from a JSON section whose keys carry units.

    A value that is not a list must be a JSON number before it is converted.
    """
    _check_keys(raw, keys, where)
    for k, v in raw.items():
        if not isinstance(v, list):
            _check_numbers([v], 1, f"{where}.{k}")
    return {keys[k][0]: keys[k][1](v) for k, v in raw.items()}


def check_ray_samples(what: str, n_rays: float, max_depth: float, resolution: float) -> None:
    """Raise ConfigError if n_rays rays sampled every half cell out to max_depth, as
    one look casts them, take more than MAX_RAY_SAMPLES samples."""
    n = n_rays * 2 * max_depth / resolution
    if n > MAX_RAY_SAMPLES:
        raise ConfigError(f"{what} casts {n:.3g} ray samples per look over a {max_depth:g} m "
                          f"range at {resolution:g} m cells; at most {MAX_RAY_SAMPLES} fit")


def _check_list(values, what: str):
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {values!r}")
    return values


def _check_numbers(values, n: int, what: str) -> None:
    if not (len(_check_list(values, what)) == n
            and all(map(_is_number, values))):
        raise ConfigError(f"{what} needs {n} finite numbers, got {values!r}")


@dataclass
class World:
    config: WorldConfig
    spec: GridSpec
    occupied: np.ndarray       # bool, true-obstacle footprint
    landmarks: list            # Landmark

    def terrain_z(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _terrain_z(self.config, np.asarray(x, float), np.asarray(y, float))

    @functools.cached_property
    def landmark_positions(self) -> np.ndarray:
        return np.array([lm.position for lm in self.landmarks]).reshape(-1, 3)

    @functools.cached_property
    def landmark_covariances(self) -> np.ndarray:
        return np.array([lm.covariance for lm in self.landmarks]).reshape(-1, 3, 3)

    @functools.cached_property
    def voxel_landmarks(self) -> list:
        """One representative landmark per occupied voxel (`fisher.voxelize`)."""
        return fisher.voxelize(self.landmarks)

    @functools.cached_property
    def terrain(self) -> TerrainStatsGrid:
        """Every cell's moments of its `terrain_points`, the same from any pose. Built in
        bands to bound the temporaries; a cell's sums add only its own points, in order."""
        stats = TerrainStatsGrid(self.spec)
        for band in np.array_split(np.arange(self.spec.height * self.spec.width), 16):
            stats.accumulate(terrain_points(self, *np.divmod(band, self.spec.width)))
        return stats

    @functools.cached_property
    def true_p(self) -> np.ndarray:
        """The occupancy probability every cell shows once seen: P_CLAMP[1] on an obstacle."""
        return np.where(self.occupied, P_CLAMP[1], P_CLAMP[0])

    @functools.cached_property
    def centers(self) -> tuple:
        return self.spec.cell_centers()


def _terrain_z(config: WorldConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic terrain height plus obstacle tops, deterministic in the seed."""
    t = {**_TERRAIN_DEFAULTS, **config.terrain}
    kind = t.get("type", "flat")
    z = np.zeros_like(x, dtype=float)
    if kind in ("ramp", "ramp_bumps"):
        z = z + float(t["grade"]) * x
    if kind in ("bumps", "ramp_bumps"):
        rng = np.random.default_rng(config.seed ^ 0x5EED)
        n = t["n_bumps"]
        amp = float(t["bump_amp"])
        sigma = float(t["bump_sigma"])
        centers = rng.uniform(0.0, config.size_m, size=(n, 2))
        for cx, cy in centers:
            z = z + amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma ** 2))
    for ob in config.obstacles:
        # Rough tops keep thresholding from declaring obstacle roofs navigable.
        rough = 0.08 * np.sin(37.0 * x + 1.3) * np.sin(41.0 * y + 0.7)
        z = np.where(_footprint(ob, x, y), float(ob.get("height", _OBSTACLE_HEIGHT)) + rough, z)
    return z


def _footprint(ob: dict, x, y):
    """Whether (x, y), scalars or arrays, lies on the obstacle's half-open rectangle."""
    return (x >= ob["x"]) & (x < ob["x"] + ob["w"]) & (y >= ob["y"]) & (y < ob["y"] + ob["h"])


def generate_world(config: WorldConfig) -> World:
    """Build the deterministic world implied by the config and its seed."""
    spec = config.grid_spec()
    xs, ys = spec.cell_centers()
    occupied = np.zeros((spec.height, spec.width), dtype=bool)
    for ob in config.obstacles:
        occupied |= _footprint(ob, xs, ys)

    landmarks = _place_landmarks(config)
    return World(config, spec, occupied, landmarks)


def _place_landmarks(config: WorldConfig) -> list:
    lm_cfg = config.landmarks
    if "points" in lm_cfg:
        return [Landmark(np.asarray(p, float)) for p in lm_cfg["points"]]
    rng = np.random.default_rng(config.seed ^ 0x1A4D)
    count = lm_cfg.get("count", 60)
    n_clusters = lm_cfg.get("clusters", 5)

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
    occ: OccupancyGrid           # p is world.true_p where seen, UNKNOWN_P elsewhere
    sensed: np.ndarray           # bool, the cells the lidar has reached
    unknown_inside: int          # running count of the grid's unobserved cells
    pose: tuple                  # (x, y, theta) true pose
    cov: np.ndarray              # 6x6 localization covariance
    first_seen: np.ndarray       # per landmark, the clock at first sight; inf if never seen
    clock: float = 0.0
    distance: float = 0.0
    n_loop_closures: int = 0
    samples: list = field(default_factory=list)

    @classmethod
    def initial(cls, world: World) -> "MissionState":
        return cls(
            world=world,
            occ=OccupancyGrid.unknown(world.spec),
            sensed=np.zeros((world.spec.height, world.spec.width), dtype=bool),
            unknown_inside=world.spec.n_cells,
            pose=tuple(world.config.robot.start),
            cov=1e-4 * np.eye(6),
            first_seen=np.full(len(world.landmarks), np.inf),
        )


# Fractions of a cell at which synthetic terrain points are sampled; five
# points satisfy the plane-fit minimum in one pass.
_CELL_SAMPLES = np.array([[0.5, 0.5], [0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]])


def sense(world: World, state: MissionState) -> np.ndarray:
    """One sensing step at the current pose.

    Cells inside the lidar radius join the sensed terrain, the camera wedge
    updates occupancy by ray casting against the true obstacles, and the
    indices of landmarks inside the camera frustum are returned.
    """
    _sense_terrain(world, state)
    _sense_occupancy(world, state)
    pose = _camera_pose(world, state.pose)
    return np.nonzero(fisher.visible(pose, world.landmark_positions))[0]


def _sense_terrain(world: World, state: MissionState) -> None:
    spec = world.spec
    px, py, _ = state.pose
    r = world.config.sensors.lidar_radius
    i0 = max(0, int((px - r - spec.origin_x) / spec.resolution))
    i1 = min(spec.width, int((px + r - spec.origin_x) / spec.resolution) + 2)
    j0 = max(0, int((py - r - spec.origin_y) / spec.resolution))
    j1 = min(spec.height, int((py + r - spec.origin_y) / spec.resolution) + 2)
    xs, ys = world.centers
    # xs and ys come from meshgrid: one row and one column hold every value.
    in_range = (xs[0, i0:i1] - px) ** 2 + (ys[j0:j1, 0, None] - py) ** 2 <= r * r
    state.sensed[j0:j1, i0:i1] |= in_range


def terrain_points(world: World, jj: np.ndarray, ii: np.ndarray) -> np.ndarray:
    """The (5N, 3) lidar returns from cells (ii, jj): per cell, its _CELL_SAMPLES in order."""
    res = world.spec.resolution
    xs, ys = world.centers
    px = ((xs[jj, ii] - 0.5 * res)[:, None] + _CELL_SAMPLES[:, 0] * res).ravel()
    py = ((ys[jj, ii] - 0.5 * res)[:, None] + _CELL_SAMPLES[:, 1] * res).ravel()
    return np.column_stack([px, py, world.terrain_z(px, py)])


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
    seen = (np.arange(ranges.size)[None, :] <= first_hit[:, None]) & inside

    # The world is static and the sensor noise-free, so one sight of a cell
    # shows its truth. Reveal it in every cell a ray reached, through the
    # samples' bounding window; that is idempotent and order-free.
    i0, j0 = i.min(), j.min()
    mark = np.zeros((j.max() - j0 + 1, i.max() - i0 + 1), dtype=bool)
    mark[j[seen] - j0, i[seen] - i0] = True
    win = np.s_[j0:j0 + mark.shape[0], i0:i0 + mark.shape[1]]
    p = state.occ.p[win]
    state.unknown_inside -= int((mark & (p == UNKNOWN_P)).sum())
    np.copyto(p, world.true_p[win], where=mark)


def _camera_pose(world: World, pose: tuple) -> CameraPose:
    cfg = world.config.sensors
    return CameraPose.from_planar(pose[0], pose[1], pose[2],
                                  fov=cfg.fov, max_depth=cfg.max_depth)


_MOTION_DIRS = np.diag([1.0, 1.0, 0.1, 0.1, 0.1, 1.0])  # translation-dominant noise


def _measurement_update(world: World, state: MissionState, observed: np.ndarray) -> None:
    if observed.size == 0:
        return
    pose = _camera_pose(world, state.pose)
    # numpy sums axis 0 of the stack row by row from zero, in landmark order.
    info = fisher.landmark_fim(pose, world.landmark_positions[observed],
                               world.landmark_covariances[observed]).sum(axis=0)
    if not info.any():
        return
    cov = np.linalg.inv(np.linalg.inv(state.cov) + info)
    state.cov = 0.5 * (cov + cov.T)


def _loop_closure_check(state: MissionState, observed: np.ndarray) -> None:
    sur = state.world.config.surrogate
    seen = state.first_seen
    mature = observed[seen[observed] <= state.clock - sur.t_lc]
    # The clock never runs backwards, so this keeps the first sight.
    seen[observed] = np.minimum(seen[observed], state.clock)
    if mature.size >= sur.l_min:
        state.cov = sur.kappa * state.cov
        state.n_loop_closures += 1
        # Reset the triggering landmarks so one revisit closes one loop.
        seen[mature] = state.clock


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
    If a cell the path enters is not Free in `nav`, PathBlockedError is raised
    before the robot moves.
    """
    spec = world.spec
    sur = world.config.surrogate
    speed = world.config.robot.speed
    cells = path.cells
    blocked = [cell for cell in cells[1:] if nav is not None and not nav.is_free(*cell)]
    if blocked:
        raise PathBlockedError(f"path cell {blocked[0]} is not traversable")
    for prev, cell in zip(cells, cells[1:]):
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
    pct = 100.0 * state.unknown_inside / state.world.spec.n_cells
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
    """Score and threshold the traversability seen so far.

    The robot's own cell is Free whatever its score: the robot stands on it.
    """
    trav = state.world.terrain.score_cells(state.sensed)
    nav = traversability.threshold(trav, DEFAULT_TRAV_THRESHOLD)
    i, j = state.world.spec.world_to_cell(state.pose[0], state.pose[1])
    nav.state[j, i] = FREE
    return trav, nav
