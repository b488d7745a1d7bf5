"""Dense 2D grid containers, world <-> cell coordinate transforms, text output
and the number checks every config shares.

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
    """Malformed world or experiment configuration."""


class OutOfBoundsError(ValueError):
    """A world point or cell index lies outside the grid extent."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a dense 2D grid whose cell (0, 0) has its corner at the world
    origin.

    Cell membership uses half-open intervals [corner, corner + resolution) so
    every point maps to exactly one cell.
    """

    resolution: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.resolution > 0 and math.isfinite(self.resolution)):
            raise ValueError(f"resolution must be finite and > 0, got {self.resolution}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def in_bounds(self, i: int, j: int) -> bool:
        return 0 <= i < self.width and 0 <= j < self.height

    def point_in_bounds(self, x: float, y: float) -> bool:
        return 0 <= x < self.width * self.resolution and 0 <= y < self.height * self.resolution

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """Map a world point to its containing cell, or raise OutOfBoundsError."""
        i = math.floor(x / self.resolution)
        j = math.floor(y / self.resolution)
        if not self.in_bounds(i, j):
            raise OutOfBoundsError(f"point ({x}, {y}) outside grid extent")
        return i, j

    def world_to_cells(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """(i, j, inside) arrays of the cells that world points (x, y) fall in;
        `inside` is False where a point lies outside the grid, whose i, j are then
        out of range."""
        i = np.floor(x / self.resolution).astype(np.intp)
        j = np.floor(y / self.resolution).astype(np.intp)
        # Read as unsigned, a negative index is past every bound: one compare per axis.
        return i, j, (i.view(np.uintp) < self.width) & (j.view(np.uintp) < self.height)

    def cell_to_world(self, i, j) -> tuple:
        """World coordinates of the center of cell (i, j): floats for ints, or float
        arrays for integer arrays i and j, whose cells are checked all at once."""
        if not np.all((0 <= i) & (i < self.width) & (0 <= j) & (j < self.height)):
            raise OutOfBoundsError(f"cell ({i}, {j}) outside {self.width}x{self.height} grid")
        return (i + 0.5) * self.resolution, (j + 0.5) * self.resolution

    def linear_index(self, i: int, j: int) -> int:
        return j * self.width + i

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """The world x of every column's cell centers, shape (width,), and the world
        y of every row's, shape (height,)."""
        return ((np.arange(self.width) + 0.5) * self.resolution,
                (np.arange(self.height) + 0.5) * self.resolution)


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

    def unknown_mask(self) -> np.ndarray:
        return self.p == UNKNOWN_P

    def to_text(self) -> str:
        return _raster_text(self.spec, self.p, "{:.6g}".format)


@dataclass
class TraversabilityGrid:
    """Per-cell traversability score in [0, 1]; NaN encodes Unknown."""

    spec: GridSpec
    score: np.ndarray  # float64, NaN = unknown

    def __post_init__(self):
        _check_shape(self.spec, self.score)

    def to_text(self) -> str:
        return _raster_text(self.spec, self.score, lambda v: "?" if np.isnan(v) else f"{v:.6g}")


_BINARY_CHARS = {UNKNOWN: "?", FREE: ".", BLOCKED: "#"}


@dataclass
class BinaryTraversabilityGrid:
    """Thresholded traversability: each cell is Unknown, Free or Blocked."""

    spec: GridSpec
    state: np.ndarray  # int8, values in {UNKNOWN, BLOCKED, FREE}

    def __post_init__(self):
        _check_shape(self.spec, self.state)

    def free_mask(self) -> np.ndarray:
        return self.state == FREE

    def is_free(self, i: int, j: int) -> bool:
        return bool(self.state[j, i] == FREE)

    def to_text(self) -> str:
        return _raster_text(self.spec, self.state, lambda v: _BINARY_CHARS[int(v)])


def _raster_text(spec: GridSpec, values: np.ndarray, cell) -> str:
    """A `width height resolution origin_x origin_y` header line, its origin always
    `0 0`, then one line per row of values, each value written by `cell`."""
    lines = [f"{spec.width} {spec.height} {spec.resolution:.6g} 0 0",
             *(" ".join(map(cell, row)) for row in values)]
    return "\n".join(lines) + "\n"


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
