"""Dense 2D grid containers, world <-> cell coordinate transforms, text I/O and
the number checks every config shares.

Cell indices are (i, j) with i along world x and j along world y. Arrays are
stored row-major with shape (height, width) and accessed as values[j, i];
the row-major linear index of a cell is j * width + i.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Occupancy probability that encodes "never observed".
UNKNOWN_P = 0.5

# Cell states of the binary traversability grid.
UNKNOWN = -1
BLOCKED = 0
FREE = 1


class ConfigError(ValueError):
    """Malformed world or experiment configuration, or a bad input file."""


class OutOfBoundsError(ValueError):
    """A world point or cell index lies outside the grid extent."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a dense 2D grid.

    (origin_x, origin_y) is the world position of the corner of cell (0, 0).
    Cell membership uses half-open intervals [corner, corner + resolution) so
    every point maps to exactly one cell.
    """

    origin_x: float
    origin_y: float
    resolution: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.resolution > 0 and math.isfinite(self.resolution)):
            raise ValueError(f"resolution must be finite and > 0, got {self.resolution}")
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise ValueError(f"origin must be finite, got ({self.origin_x}, {self.origin_y})")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def in_bounds(self, i: int, j: int) -> bool:
        return 0 <= i < self.width and 0 <= j < self.height

    def point_in_bounds(self, x: float, y: float) -> bool:
        return (
            self.origin_x <= x < self.origin_x + self.width * self.resolution
            and self.origin_y <= y < self.origin_y + self.height * self.resolution
        )

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """Map a world point to its containing cell, or raise OutOfBoundsError."""
        i = math.floor((x - self.origin_x) / self.resolution)
        j = math.floor((y - self.origin_y) / self.resolution)
        if not self.in_bounds(i, j):
            raise OutOfBoundsError(f"point ({x}, {y}) outside grid extent")
        return i, j

    def cell_to_world(self, i: int, j: int) -> tuple[float, float]:
        """World coordinates of the center of cell (i, j)."""
        if not self.in_bounds(i, j):
            raise OutOfBoundsError(f"cell ({i}, {j}) outside {self.width}x{self.height} grid")
        return (
            self.origin_x + (i + 0.5) * self.resolution,
            self.origin_y + (j + 0.5) * self.resolution,
        )

    def linear_index(self, i: int, j: int) -> int:
        return j * self.width + i

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of shape (height, width) with the world x and y of every cell center."""
        xs = self.origin_x + (np.arange(self.width) + 0.5) * self.resolution
        ys = self.origin_y + (np.arange(self.height) + 0.5) * self.resolution
        return np.meshgrid(xs, ys)


def shift(arr: np.ndarray, di: int, dj: int) -> np.ndarray:
    """Copy of a (height, width) array moved by (di, dj) cells, di along x.

    out[j + dj, i + di] = arr[j, i]; cells shifted in from outside the grid
    are zero (False for a mask).
    """
    out = np.zeros_like(arr)
    h, w = arr.shape
    out[max(0, dj):h - max(0, -dj), max(0, di):w - max(0, -di)] = \
        arr[max(0, -dj):h - max(0, dj), max(0, -di):w - max(0, di)]
    return out


def _check_shape(spec: GridSpec, values: np.ndarray) -> None:
    if values.shape != (spec.height, spec.width):
        raise ValueError(f"values shape {values.shape} does not match spec "
                         f"({spec.height}, {spec.width})")


@dataclass
class OccupancyGrid:
    """Per-cell occupancy probability in [0, 1]; Unknown is exactly 0.5."""

    spec: GridSpec
    p: np.ndarray  # float64, shape (height, width)

    def __post_init__(self):
        _check_shape(self.spec, self.p)

    @classmethod
    def unknown(cls, spec: GridSpec) -> "OccupancyGrid":
        return cls(spec, np.full((spec.height, spec.width), UNKNOWN_P))

    def copy(self) -> "OccupancyGrid":
        return OccupancyGrid(self.spec, self.p.copy())

    def unknown_mask(self) -> np.ndarray:
        return self.p == UNKNOWN_P

    def to_text(self) -> str:
        return _raster_text(self.spec, self.p, "{:.6g}".format)

    @classmethod
    def from_text(cls, text: str) -> "OccupancyGrid":
        return cls(*_parse_raster(text, _unit_value, float))


@dataclass
class TraversabilityGrid:
    """Per-cell traversability score in [0, 1]; NaN encodes Unknown."""

    spec: GridSpec
    score: np.ndarray  # float64, NaN = unknown

    def __post_init__(self):
        _check_shape(self.spec, self.score)

    def to_text(self) -> str:
        return _raster_text(self.spec, self.score, lambda v: "?" if np.isnan(v) else f"{v:.6g}")

    @classmethod
    def from_text(cls, text: str) -> "TraversabilityGrid":
        return cls(*_parse_raster(text, lambda v: np.nan if v == "?" else _unit_value(v), float))


_BINARY_CHARS = {UNKNOWN: "?", FREE: ".", BLOCKED: "#"}
_BINARY_STATES = {v: k for k, v in _BINARY_CHARS.items()}


@dataclass
class BinaryTraversabilityGrid:
    """Thresholded traversability: each cell is Unknown, Free or Blocked."""

    spec: GridSpec
    state: np.ndarray  # int8, values in {UNKNOWN, BLOCKED, FREE}

    def __post_init__(self):
        _check_shape(self.spec, self.state)

    @classmethod
    def unknown(cls, spec: GridSpec) -> "BinaryTraversabilityGrid":
        return cls(spec, np.full((spec.height, spec.width), UNKNOWN, dtype=np.int8))

    def free_mask(self) -> np.ndarray:
        return self.state == FREE

    def is_free(self, i: int, j: int) -> bool:
        return bool(self.state[j, i] == FREE)

    def to_text(self) -> str:
        return _raster_text(self.spec, self.state, lambda v: _BINARY_CHARS[int(v)])

    @classmethod
    def from_text(cls, text: str) -> "BinaryTraversabilityGrid":
        return cls(*_parse_raster(text, _binary_state, np.int8))


def _unit_value(token: str) -> float:
    """A raster value in [0, 1]; NaN, an infinity or any other number is a ValueError."""
    v = float(token)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"raster value {token!r} is not in [0, 1]")
    return v


def _binary_state(token: str) -> int:
    if token not in _BINARY_STATES:
        raise ValueError(f"binary raster cell {token!r} is not one of ?, . or #")
    return _BINARY_STATES[token]


def _raster_text(spec: GridSpec, values: np.ndarray, cell) -> str:
    """A `width height resolution origin_x origin_y` header line, then one line per
    row of values, each value written by `cell`."""
    lines = [f"{spec.width} {spec.height} {spec.resolution:.6g} {spec.origin_x:.6g} "
             f"{spec.origin_y:.6g}", *(" ".join(map(cell, row)) for row in values)]
    return "\n".join(lines) + "\n"


def _parse_raster(text: str, cell, dtype) -> tuple[GridSpec, np.ndarray]:
    """(spec, values) of a text raster; `cell` parses each value."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty raster")
    w, h, res, ox, oy = lines[0].split()
    spec = GridSpec(float(ox), float(oy), float(res), int(w), int(h))
    rows = [ln.split() for ln in lines[1:]]
    if len(rows) != spec.height or any(len(r) != spec.width for r in rows):
        raise ValueError("raster body does not match header dimensions")
    return spec, np.array([[cell(v) for v in row] for row in rows], dtype=dtype)


def read_rows(path, widths: tuple, what: str) -> list:
    """(line number, values) of each row of a whitespace-separated number file.

    Text after `#` is skipped. A row that is not `widths` finite numbers long
    raises ConfigError naming its line.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                vals = [float(v) for v in parts]
            except ValueError:
                vals = []
            if len(vals) not in widths or not all(map(math.isfinite, vals)):
                raise ConfigError(f"{path}:{lineno}: a {what} needs {' or '.join(map(str, widths))}"
                                  f" finite numbers, got {line.strip()!r}")
            rows.append((lineno, vals))
    return rows


def _is_number(v) -> bool:
    """Whether v is a finite number a float can hold; a bool or a string is not."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def check_number(name: str, value, ok, need: str) -> None:
    """Raise ConfigError unless value is a number (see _is_number) that passes ok."""
    if not (_is_number(value) and ok(value)):
        raise ConfigError(f"{name} must be {need}, got {value!r}")


def check_int(name: str, value, lo: int, hi=math.inf) -> None:
    """Raise ConfigError unless value is an integer in [lo, hi]; a bool, float or string is not."""
    check_number(name, value, lambda v: isinstance(v, numbers.Integral) and lo <= v <= hi,
                 f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]")
