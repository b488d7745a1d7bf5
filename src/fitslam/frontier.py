"""Frontier detection and size-capped clustering on the exploration grids.

A frontier cell is known-navigable and 8-adjacent to at least one unknown
occupancy cell; a frontier is the set of its cells' linear indices. Connected
components grow breadth-first in a fixed neighbor order and split into chunks
of at most the cluster size cap; each chunk's median-order cell is a candidate.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .grid import BinaryTraversabilityGrid, GridSpec, OccupancyGrid, OutOfBoundsError, shift

# BFS growth order: E, NE, N, NW, W, SW, S, SE in (di, dj) with i along x.
_NEIGHBOR_ORDER = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]

DEFAULT_MAX_CLUSTER_SIZE = 30


def suppress(blacklist: np.ndarray, cells: np.ndarray) -> None:
    """Set the 3x3 window, clipped to the grid, around each linear index of `cells`
    in the (H, W) bool mask `blacklist`, so grid jitter cannot re-emit an adjacent
    copy of a failed goal. An index outside [0, n_cells) raises OutOfBoundsError:
    it would wrap to a cell of another row."""
    h, w = blacklist.shape
    outside = (cells < 0) | (cells >= h * w)
    if outside.any():
        raise OutOfBoundsError(f"blacklist cell index {cells[outside.argmax()]} outside the grid")
    j, i = np.divmod(cells, w)
    steps = np.array([-1, 0, 1])  # a window's off-grid rows and columns clip onto its edge
    blacklist[np.clip(j[:, None, None] + steps[:, None], 0, h - 1),
              np.clip(i[:, None, None] + steps, 0, w - 1)] = True


def detect_frontiers(occ: OccupancyGrid, nav: BinaryTraversabilityGrid) -> set[int]:
    """Linear indices `j * width + i`, as ints, of the Free cells that touch unknown occupancy."""
    if occ.spec != nav.spec:
        raise ValueError("occupancy and traversability grids must share one GridSpec")
    unknown = occ.unknown_mask()
    near_unknown = np.zeros_like(unknown)
    for di, dj in _NEIGHBOR_ORDER:
        near_unknown |= shift(unknown, di, dj)
    return set(np.flatnonzero(nav.free_mask() & near_unknown).tolist())


def frontier_components(cells: set[int], spec: GridSpec) -> list:
    """Connected components of the frontier cells' linear indices, as index arrays.

    Components are seeded in row-major order and grown breadth-first with the
    fixed neighbor order; each array holds its cells' `j * width + i` in visit
    order.
    """
    w, h, n = spec.width, spec.height, len(cells)
    lin = np.sort(np.fromiter(cells, np.intp, n))  # node k is the k-th cell in row-major order
    # Node of every cell on a grid padded by one ring, so neighbors of edge
    # cells need no bounds test; node n stands for every cell off the frontier.
    pw = w + 2
    padded = lin + 2 * (lin // w) + pw + 1
    node = np.full((h + 2) * pw, n, dtype=np.int32)
    node[padded] = np.arange(n, dtype=np.int32)
    nbr = node[np.add.outer(padded, [dj * pw + di for di, dj in _NEIGHBOR_ORDER])].ravel()
    # Row k lists cell k's 8 neighbors in _NEIGHBOR_ORDER. scipy's BFS marks a
    # node when it pushes it and scans a row in stored order, so it visits the
    # cells in the order of a BFS that tries the neighbors in that order; node
    # n has an empty row, so its visit delays no cell.
    indptr = np.append(np.arange(0, nbr.size + 1, 8, dtype=np.int32), nbr.size)
    graph = csr_matrix((np.ones(nbr.size), nbr, indptr), shape=(n + 1, n + 1))
    todo = np.arange(n + 1) < n  # node n seeds no component
    components = []
    while todo.any():
        order = breadth_first_order(graph, int(todo.argmax()), directed=True,
                                    return_predecessors=False)
        todo[order] = False
        components.append(lin[order[order < n]])
    return components


def cluster_frontiers(cells: set[int], spec: GridSpec, blacklist: np.ndarray) -> np.ndarray:
    """Linear indices of the candidate goal cells of the frontier's size-capped clusters.

    Each component's visit order is cut into consecutive chunks of at most
    DEFAULT_MAX_CLUSTER_SIZE cells, and each chunk nominates its median-order
    cell. Candidates come in component order, then chunk order; those set in
    the (H, W) bool mask `blacklist` are dropped.
    """
    m = DEFAULT_MAX_CLUSTER_SIZE
    if blacklist.shape != (spec.height, spec.width):
        raise ValueError("blacklist and frontier cells must share one GridSpec")
    picks = [np.empty(0, dtype=np.intp)]
    for order in frontier_components(cells, spec):
        start = np.arange(0, len(order), m)
        picks.append(order[start + (np.minimum(m, len(order) - start) - 1) // 2])
    candidates = np.concatenate(picks)
    return candidates[~blacklist.ravel()[candidates]]
