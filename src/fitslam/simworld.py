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
from .fisher import Camera, CameraPose
from .grid import (FREE, BinaryTraversabilityGrid, ConfigError, GridSpec, OccupancyGrid,
                   UNKNOWN_P, _is_number, check_int, check_number)
from .planner import SQRT2, GraphMemo
from .traversability import ScoreMemo, TerrainStatsGrid

P_CLAMP = (0.02, 0.98)  # occupancy of a cell seen free / seen occupied
ROTATION_RATE = 1.0  # rad/s

# Bounds on the sizes a world config implies, each over 100x what any preset
# or the defaults use: a config past one fails before anything is allocated.
MAX_GRID_CELLS = 10 ** 7
MAX_RAY_SAMPLES = 10 ** 6  # rays x samples of one look, sensing wedge or orientation scan
MAX_LANDMARKS = 10 ** 4    # bounds landmarks.count and landmarks.clusters
MAX_BUMPS = 10 ** 3
# Bounds sensors.lidar_radius and each |coordinate| of landmarks.points as a multiple
# of size_m: a length past the grid's extent adds nothing, and one near the float
# maximum overflows the lidar window's cell bounds or a landmark's norms and voxel key.
MAX_REACH = 10 ** 3
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
    camera: Camera = Camera()
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
# units, its (dataclass field, conversion). WorldConfig checks every value;
# the _CAMERA_FIELDS fill the sensors' Camera, which checks its own.
_TOP_KEYS = ("seed", "size_m", "resolution", "terrain", "obstacles", "landmarks")
_SENSOR_KEYS = {"fov_deg": ("fov", math.radians), "max_depth_m": ("max_depth", float),
                "lidar_radius_m": ("lidar_radius", float),
                "ray_step_deg": ("ray_step", math.radians)}
_CAMERA_FIELDS = ("fov", "max_depth")
_ROBOT_KEYS = {"start_xy_theta": ("start", tuple), "speed": ("speed", float)}
_TERRAIN_KEYS = ("type", "grade", "n_bumps", "bump_amp", "bump_sigma")
_TERRAIN_TYPES = ("flat", "ramp", "bumps", "ramp_bumps")
_TERRAIN_DEFAULTS = {"type": "flat", "grade": 0.05, "n_bumps": 5, "bump_amp": 0.3,
                     "bump_sigma": 2.5}
_OBSTACLE_KEYS = ("x", "y", "w", "h", "height")
_OBSTACLE_DEFAULTS = {"height": 1.5}
_LANDMARK_KEYS = ("count", "clusters", "points")
_LANDMARK_DEFAULTS = {"count": 60, "clusters": 5}


@dataclass
class WorldConfig:
    """A world the simulator can run; construction raises ConfigError otherwise,
    and fills each terrain, obstacle and landmark section's left-out keys."""

    seed: int = 0
    size_m: float = 20.0
    resolution: float = 0.1
    terrain: dict = field(default_factory=dict)
    obstacles: list = field(default_factory=list)
    landmarks: dict = field(default_factory=dict)
    sensors: SensorConfig = field(default_factory=SensorConfig)
    robot: RobotConfig = field(default_factory=RobotConfig)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)

    def __post_init__(self):
        s = self.sensors
        cam = s.camera
        check_int("seed", self.seed, 0)
        for name, value in (("size_m", self.size_m), ("resolution", self.resolution),
                            ("sensors.ray_step", s.ray_step), ("robot.speed", self.robot.speed)):
            check_number(name, value, lambda v: v > 0, "> 0")
        check_number("sensors.lidar_radius", s.lidar_radius,
                     lambda v: 0 < v <= MAX_REACH * self.size_m,
                     f"> 0 and at most {MAX_REACH} x size_m")
        # Occupancy rays sample every half cell, the first one half a cell out.
        if cam.max_depth < self.resolution / 2:
            raise ConfigError(f"sensors.max_depth {cam.max_depth!r} is shorter than half "
                              f"a cell ({self.resolution / 2!r} m)")
        side = self.size_m / self.resolution  # inf if the quotient overflows
        if side * side > MAX_GRID_CELLS:
            raise ConfigError(f"size_m / resolution makes a grid of {side:.3g} x {side:.3g} "
                              f"cells; at most {MAX_GRID_CELLS} cells fit")
        if round(side) < 1:
            raise ConfigError("size_m must hold at least one cell of the resolution")
        check_ray_samples(f"the sensing wedge ({math.degrees(s.ray_step):g} deg ray step)",
                          *wedge_size(s, self.resolution))
        _check_keys(self.terrain, _TERRAIN_KEYS, "terrain")
        self.terrain = t = {**_TERRAIN_DEFAULTS, **self.terrain}
        if t["type"] not in _TERRAIN_TYPES:
            raise ConfigError(f"unknown terrain type {t['type']!r}")
        shape = [v for k, v in t.items() if k != "type"]
        _check_numbers(shape, len(shape), "terrain")
        check_int("terrain.n_bumps", t["n_bumps"], 0, MAX_BUMPS)
        check_number("terrain.bump_sigma", t["bump_sigma"], lambda v: v > 0, "> 0")
        _check_keys(self.landmarks, _LANDMARK_KEYS, "landmarks")
        self.landmarks = {**_LANDMARK_DEFAULTS, **self.landmarks}
        for key, lo in (("count", 0), ("clusters", 1)):
            check_int(f"landmarks.{key}", self.landmarks[key], lo, MAX_LANDMARKS)
        reach = MAX_REACH * self.size_m
        for p in _check_list(self.landmarks.get("points", []), "landmarks.points"):
            _check_numbers(p, 3, "landmark point")
            if max(map(abs, p)) > reach:
                raise ConfigError(f"landmark point {p!r} has a coordinate past "
                                  f"{MAX_REACH} x size_m ({reach:g} m)")
        for ob in _check_list(self.obstacles, "obstacles"):
            _check_keys(ob, _OBSTACLE_KEYS, "obstacle")
            missing = [k for k in ("x", "y", "w", "h") if k not in ob]
            if missing:
                raise ConfigError(f"obstacle missing {missing[0]!r}: {ob}")
            _check_numbers(list(ob.values()), len(ob), "obstacle")
            if ob["w"] <= 0 or ob["h"] <= 0:
                raise ConfigError(f"obstacle w and h must be > 0: {ob}")
        self.obstacles = [{**_OBSTACLE_DEFAULTS, **ob} for ob in self.obstacles]
        heights = {"|terrain.grade| x size_m": abs(t["grade"]) * self.size_m,
                   "|terrain.bump_amp| x n_bumps": abs(t["bump_amp"]) * t["n_bumps"],
                   **{f"|obstacles[{k}].height|": abs(ob["height"])
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
        return GridSpec(self.resolution, n, n)

    @classmethod
    def from_dict(cls, raw: dict) -> "WorldConfig":
        """Parse a world JSON object; any unknown key or bad value is a ConfigError.

        Keys left out take the dataclass defaults.
        """
        try:
            _check_keys(raw, (*_TOP_KEYS, "sensors", "robot", "surrogate"), "world")
            kwargs = {k: raw[k] for k in _TOP_KEYS if k in raw}
            sensors = _fields(raw.get("sensors", {}), _SENSOR_KEYS, "sensors")
            camera = Camera(**{k: sensors.pop(k) for k in _CAMERA_FIELDS if k in sensors})
            kwargs["sensors"] = SensorConfig(camera, **sensors)
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


def wedge_size(sensors: SensorConfig, resolution: float) -> tuple:
    """(rays, samples per ray) of the sensing wedge, as floats that overflow to inf
    rather than raise. Rays run every ray_step across the field of view, at least
    two; each is sampled every half cell, from half a cell out to max_depth, as
    `World.wedge`'s np.arange counts the samples."""
    cam = sensors.camera
    dr = resolution / 2
    return (max(2.0, float(np.round(cam.fov / sensors.ray_step)) + 1),
            float(np.ceil((cam.max_depth + dr / 2 - dr) / dr)))


def check_ray_samples(what: str, n_rays: float, n_samples: float) -> None:
    """Raise ConfigError if n_rays rays of n_samples samples each, as one look casts
    them, take more than MAX_RAY_SAMPLES samples."""
    n = n_rays * n_samples
    if n > MAX_RAY_SAMPLES:
        raise ConfigError(f"{what} casts {n:.3g} ray samples per look ({n_rays:.3g} rays "
                          f"of {n_samples:.3g}); at most {MAX_RAY_SAMPLES} fit")


def _check_list(values, what: str):
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {values!r}")
    return values


def _check_numbers(values, n: int, what: str) -> None:
    if not (len(_check_list(values, what)) == n
            and all(map(_is_number, values))):
        raise ConfigError(f"{what} needs {n} finite numbers, got {values!r}")


@dataclass(frozen=True)
class World:
    """A generated world: read-only tables that any number of missions may share."""

    config: WorldConfig
    spec: GridSpec
    occupied: np.ndarray              # bool, true-obstacle footprint
    landmark_positions: np.ndarray    # (K, 3) world frame
    landmark_covariances: np.ndarray  # (K, 3, 3)

    def terrain_z(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _terrain_z(self.config, np.asarray(x, float), np.asarray(y, float))

    @functools.cached_property
    def voxel_landmarks(self) -> tuple:
        """The positions and covariances of one representative landmark per
        occupied voxel (`fisher.voxelize`)."""
        reps = fisher.voxelize(self.landmark_positions)
        return tuple(map(_frozen, (self.landmark_positions[reps],
                                   self.landmark_covariances[reps])))

    @functools.cached_property
    def terrain(self) -> TerrainStatsGrid:
        """Every cell's plane fit of its `terrain_points`, the same from any pose, from
        one `accumulate` call, which frees the points before it fits."""
        stats = TerrainStatsGrid(self.spec)
        stats.accumulate(terrain_points(self))
        return stats

    @functools.cached_property
    def true_p(self) -> np.ndarray:
        """The occupancy probability every cell shows once seen: P_CLAMP[1] on an obstacle."""
        return _frozen(np.where(self.occupied, P_CLAMP[1], P_CLAMP[0]))

    @functools.cached_property
    def centers(self) -> tuple:
        """The cell centers' x per column and y per row (`GridSpec.cell_centers`)."""
        return tuple(map(_frozen, self.spec.cell_centers()))

    @functools.cached_property
    def wedge(self) -> tuple:
        """The sensing wedge's ray angles about the heading, its sample ranges and
        the ranges' indices; `wedge_size` counts them."""
        cam = self.config.sensors.camera
        n_rays, _ = wedge_size(self.config.sensors, self.spec.resolution)
        dr = self.spec.resolution / 2
        ranges = np.arange(dr, cam.max_depth + dr / 2, dr)
        return tuple(map(_frozen, (np.linspace(-cam.fov / 2, cam.fov / 2, int(n_rays)),
                                   ranges, np.arange(ranges.size))))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """`arr`, marked read-only."""
    arr.flags.writeable = False
    return arr


def _terrain_z(config: WorldConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic terrain height plus obstacle tops, deterministic in the seed."""
    t = config.terrain
    kind = t["type"]
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
    # Rough tops keep thresholding from declaring obstacle roofs navigable.
    rough = 0.08 * np.sin(37.0 * x + 1.3) * np.sin(41.0 * y + 0.7)
    for ob in config.obstacles:
        z = np.where(_footprint(ob, x, y), float(ob["height"]) + rough, z)
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
        occupied |= _footprint(ob, xs, ys[:, None])

    positions = _place_landmarks(config)
    return World(config, spec, *map(_frozen, (occupied, positions,
                                               fisher.default_covariances(len(positions)))))


def _place_landmarks(config: WorldConfig) -> np.ndarray:
    """(K, 3) landmark positions: the config's points, or clusters drawn from the seed."""
    lm_cfg = config.landmarks
    if "points" in lm_cfg:
        return np.array(lm_cfg["points"], dtype=float).reshape(-1, 3)
    rng = np.random.default_rng(config.seed ^ 0x1A4D)
    count = lm_cfg["count"]
    n_clusters = lm_cfg["clusters"]

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
            landmarks.append([x, y, z])
    return np.array(landmarks).reshape(-1, 3)


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
    score_memo: ScoreMemo        # the last `current_grids` call's data flags and scores
    graph_memo: GraphMemo        # the last planner's Free mask and graph slots
    blacklist: np.ndarray        # bool, the 3x3 windows of unreachable and visited goals
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
            first_seen=np.full(len(world.landmark_positions), np.inf),
            score_memo=ScoreMemo(world.spec),
            graph_memo=GraphMemo(world.spec),
            blacklist=np.zeros((world.spec.height, world.spec.width), dtype=bool),
        )


# Fractions of a cell at which synthetic terrain points are sampled: five points,
# not on one line, so every cell's plane fit is determined.
_CELL_SAMPLES = np.array([[0.5, 0.5], [0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]])


def sense(state: MissionState) -> None:
    """One sensing step of the map at the current pose, in the state's world.

    Cells inside the lidar radius join the sensed terrain, and the camera wedge
    updates occupancy by ray casting against the world's true obstacles.
    """
    _sense_terrain(state)
    _sense_occupancy(state)


def landmark_looks(world: World, poses) -> list:
    """Per pose of an (S, 3) stack, the indices of the landmarks its camera sees and
    their summed 6x6 information, from one stacked frustum-and-FIM pass."""
    pose = CameraPose.from_planar(poses, world.config.sensors.camera)
    seen, fims = fisher.landmark_fim(pose, world.landmark_positions,
                                     world.landmark_covariances)
    ends = np.cumsum(seen.sum(axis=1)).tolist()
    # numpy sums axis 0 of a pose's slice row by row from zero, in landmark order.
    return [(np.flatnonzero(row), fims[start:end].sum(axis=0))
            for row, start, end in zip(seen, [0] + ends, ends)]


def _sense_terrain(state: MissionState) -> None:
    spec = state.world.spec
    px, py, _ = state.pose
    r = state.world.config.sensors.lidar_radius
    i0 = max(0, int((px - r) / spec.resolution))
    i1 = min(spec.width, int((px + r) / spec.resolution) + 2)
    j0 = max(0, int((py - r) / spec.resolution))
    j1 = min(spec.height, int((py + r) / spec.resolution) + 2)
    # Only cells not yet sensed can change: shrink the window to their bounding
    # rows and columns, or stop if the lidar window holds none.
    rows = np.flatnonzero(~state.sensed[j0:j1, i0:i1].all(axis=1))
    if rows.size == 0:
        return
    j0, j1 = j0 + rows[0], j0 + rows[-1] + 1
    cols = np.flatnonzero(~state.sensed[j0:j1, i0:i1].all(axis=0))
    i0, i1 = i0 + cols[0], i0 + cols[-1] + 1
    xs, ys = state.world.centers
    in_range = (xs[i0:i1] - px) ** 2 + (ys[j0:j1, None] - py) ** 2 <= r * r
    state.sensed[j0:j1, i0:i1] |= in_range


def terrain_points(world: World) -> np.ndarray:
    """The (5 H W, 3) lidar returns of every cell, cell after cell in row-major order:
    per cell, its _CELL_SAMPLES in order. Made in bands, to bound the temporaries."""
    res = world.spec.resolution
    xs, ys = world.centers
    points = np.empty((world.spec.n_cells, len(_CELL_SAMPLES), 3))
    for band, out in zip(np.array_split(np.arange(world.spec.n_cells), 16),
                         np.array_split(points, 16)):
        jj, ii = np.divmod(band, world.spec.width)
        px = (xs[ii] - 0.5 * res)[:, None] + _CELL_SAMPLES[:, 0] * res
        py = (ys[jj] - 0.5 * res)[:, None] + _CELL_SAMPLES[:, 1] * res
        out[...] = np.stack([px, py, world.terrain_z(px, py)], axis=-1)
    return points.reshape(-1, 3)


def _sense_occupancy(state: MissionState) -> None:
    spec = state.world.spec
    px, py, theta = state.pose
    offsets, ranges, sample = state.world.wedge
    angles = theta + offsets
    x = px + np.cos(angles)[:, None] * ranges
    y = py + np.sin(angles)[:, None] * ranges
    i, j, inside = spec.world_to_cells(x, y)
    # Each sample's linear cell index; out of range where the sample is not inside.
    lin = j * spec.width + i
    hit = state.world.occupied.take(lin, mode="clip") & inside
    # Index of the first hit sample per ray; past it the ray is blocked.
    first_hit = np.where(hit.any(axis=1), hit.argmax(axis=1), ranges.size)
    seen = lin[(sample <= first_hit[:, None]) & inside]

    # The world is static and the sensor noise-free, so one sight of a cell
    # shows its truth, and a known cell already holds it. Reveal only the
    # distinct unknown cells a ray reached; that is idempotent and order-free.
    p = state.occ.p
    new = np.unique(seen[p.take(seen) == UNKNOWN_P])
    state.unknown_inside -= new.size
    p.put(new, state.world.true_p.take(new))


_MOTION_DIRS = np.diag([1.0, 1.0, 0.1, 0.1, 0.1, 1.0])  # translation-dominant noise


def _measurement_update(state: MissionState, info: np.ndarray) -> None:
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


def observe(state: MissionState, observed: np.ndarray, info: np.ndarray) -> None:
    """Sense the state's world, apply the look's landmark information
    (`landmark_looks` of `state.world`) and check for loop closures."""
    sense(state)
    _measurement_update(state, info)
    _loop_closure_check(state, observed)


def initial_spin(state: MissionState) -> None:
    """Turn in place once so the robot starts with a full disk of its world's terrain."""
    x, y, theta0 = state.pose
    n = int(math.ceil(2 * math.pi / (state.world.config.sensors.camera.fov / 2)))
    poses = [(x, y, theta0 + k * 2 * math.pi / n) for k in range(n)]
    for pose, look in zip(poses, landmark_looks(state.world, poses)):
        state.pose = pose
        observe(state, *look)
    state.pose = (x, y, theta0)
    state.clock += 2 * math.pi / ROTATION_RATE
    record_metrics(state)


def execute_path(state: MissionState, path: np.ndarray, theta_star: float,
                 nav: BinaryTraversabilityGrid) -> None:
    """Drive the path, its cells' linear indices, cell by cell, then rotate to the
    arrival orientation.

    Each step grows the covariance with distance, senses, folds observed
    landmark information back into the covariance and checks loop closures.
    Before the robot moves, an index off the grid raises OutOfBoundsError, a
    path that is empty, does not start at the robot's cell or has a step that
    does not join 8-neighbours raises ValueError, and a cell the path enters
    that is not Free in `nav`, or a diagonal step through a closed corner (both
    cardinal cells not Free, as the planner rules), raises PathBlockedError.
    """
    spec = state.world.spec
    sur = state.world.config.surrogate
    speed = state.world.config.robot.speed
    j, i = np.divmod(path, spec.width)
    xs, ys = spec.cell_to_world(i, j)  # checks every index before a gather could wrap
    here = spec.world_to_cell(*state.pose[:2])
    if not len(path) or (int(i[0]), int(j[0])) != here:
        raise ValueError(f"path must start at the robot's cell {here}")
    step_i, step_j = np.diff(i), np.diff(j)
    if (np.maximum(np.abs(step_i), np.abs(step_j)) != 1).any():
        raise ValueError("every path step must move to one of the 8 neighbouring cells")
    blocked = np.flatnonzero(nav.state.take(path[1:]) != FREE) + 1
    if blocked.size:
        raise PathBlockedError(f"path cell {(int(i[blocked[0]]), int(j[blocked[0]]))} "
                               "is not traversable")
    # A straight step's two cardinal cells are its own, the entered one Free by now.
    if ((nav.state.take(path[:-1] + step_i) != FREE)
            & (nav.state.take(path[:-1] + step_j * spec.width) != FREE)).any():
        raise PathBlockedError("a diagonal path step cuts a closed corner")
    # Every pose of the drive, the arrival turn's last, so one pass senses their landmarks.
    steps = list(zip(step_i.tolist(), step_j.tolist()))
    poses = [(x, y, math.atan2(dj, di))
             for x, y, (di, dj) in zip(xs[1:].tolist(), ys[1:].tolist(), steps)]
    x, y, theta = poses[-1] if poses else state.pose
    poses.append((x, y, theta_star))
    looks = landmark_looks(state.world, poses)
    for (di, dj), pose, look in zip(steps, poses, looks):
        dd = spec.resolution * (SQRT2 if di != 0 and dj != 0 else 1.0)
        state.cov = state.cov + sur.q * dd * _MOTION_DIRS
        state.pose = pose
        state.distance += dd
        state.clock += dd / speed
        observe(state, *look)
        record_metrics(state)
    # Arrival: turn toward the chosen orientation and take a final look.
    state.clock += abs(_wrap(theta_star - theta)) / ROTATION_RATE
    state.pose = poses[-1]
    observe(state, *looks[-1])
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


def current_grids(state: MissionState):
    """Score and threshold the traversability seen so far.

    The robot's own cell is Free whatever its score: the robot stands on it.
    """
    trav = state.world.terrain.score_cells(state.sensed, state.score_memo)
    nav = traversability.threshold(trav)
    i, j = state.world.spec.world_to_cell(state.pose[0], state.pose[1])
    nav.state[j, i] = FREE
    return trav, nav
