"""Frontier detection and size-capped clustering on the exploration grids.

A frontier cell is known-navigable and 8-adjacent to at least one unknown
occupancy cell. Connected components are grown breadth-first in a fixed
neighbor order, split into chunks no larger than the cluster size cap, and
each chunk nominates its median-order cell as a candidate goal.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .grid import BinaryTraversabilityGrid, GridSpec, OccupancyGrid, shift

# BFS growth order: E, NE, N, NW, W, SW, S, SE in (di, dj) with i along x.
_NEIGHBOR_ORDER = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]

DEFAULT_MAX_CLUSTER_SIZE = 30


class Blacklist:
    """Cells designated unreachable, as an (H, W) mask of suppressed cells.

    Suppression extends one cell around each entry so grid jitter cannot
    re-emit an adjacent copy of a failed goal.
    """

    def __init__(self, spec: GridSpec):
        self.mask = np.zeros((spec.height, spec.width), dtype=bool)

    def add(self, cell: tuple) -> None:
        """Suppress the 3x3 window around cell, clipped to the grid."""
        i, j = cell
        # Both bounds are clipped at 0: a negative one would count from the
        # far edge of the grid.
        self.mask[max(j - 1, 0):max(j + 2, 0), max(i - 1, 0):max(i + 2, 0)] = True


def detect_frontiers(occ: OccupancyGrid, nav: BinaryTraversabilityGrid) -> set:
    """Cells of the grid that are Free and touch unknown occupancy."""
    if occ.spec != nav.spec:
        raise ValueError("occupancy and traversability grids must share one GridSpec")
    unknown = occ.unknown_mask()
    near_unknown = np.zeros_like(unknown)
    for di, dj in _NEIGHBOR_ORDER:
        near_unknown |= shift(unknown, di, dj)
    mask = nav.free_mask() & near_unknown
    jj, ii = np.nonzero(mask)
    return set(zip(ii.tolist(), jj.tolist()))


def frontier_components(cells: set, spec: GridSpec) -> list:
    """Connected components of the frontier cells, as linear-index arrays.

    Components are seeded in row-major order and grown breadth-first with the
    fixed neighbor order; each array holds its cells' `j * width + i` in visit
    order.
    """
    w, h, n = spec.width, spec.height, len(cells)
    lin = np.fromiter((j * w + i for i, j in cells), dtype=np.intp, count=n)
    lin.sort()  # node k is the k-th cell in row-major order
    # Node of every cell on a grid padded by a ring of -1, so neighbors of
    # edge cells need no bounds test.
    pw = w + 2
    padded = (lin // w + 1) * pw + lin % w + 1
    node = np.full((h + 2) * pw, -1, dtype=np.int32)
    node[padded] = np.arange(n, dtype=np.int32)
    nbr = np.stack([node[padded + dj * pw + di] for di, dj in _NEIGHBOR_ORDER], axis=1)
    # Each row lists its neighbors in _NEIGHBOR_ORDER. scipy's BFS marks a node
    # when it pushes it and scans a row in stored order, so it visits the
    # cells in the order of a BFS that tries the neighbors in that order.
    has = nbr >= 0
    indptr = np.r_[0, np.cumsum(has.sum(axis=1))]
    graph = csr_matrix((np.ones(indptr[-1]), nbr[has], indptr), shape=(n, n))
    todo = np.ones(n, dtype=bool)
    components = []
    while todo.any():
        order = breadth_first_order(graph, int(todo.argmax()), directed=True,
                                    return_predecessors=False)
        todo[order] = False
        components.append(lin[order])
    return components


def cluster_frontiers(cells: set, spec: GridSpec, blacklist: Blacklist) -> list:
    """Candidate goal cells (i, j) of the deterministic, size-capped clusters.

    Each component's visit order is cut into consecutive chunks of at most
    DEFAULT_MAX_CLUSTER_SIZE cells, and each chunk nominates its median-order
    cell. Candidates come in component order, then chunk order; those the
    blacklist suppresses are dropped.
    """
    m, w = DEFAULT_MAX_CLUSTER_SIZE, spec.width
    if blacklist.mask.shape != (spec.height, w):
        raise ValueError("blacklist and frontier cells must share one GridSpec")
    picks = [np.empty(0, dtype=np.intp)]
    for order in frontier_components(cells, spec):
        start = np.arange(0, len(order), m)
        picks.append(order[start + (np.minimum(m, len(order) - start) - 1) // 2])
    candidates = np.concatenate(picks)
    candidates = candidates[~blacklist.mask.ravel()[candidates]]
    return list(zip((candidates % w).tolist(), (candidates // w).tolist()))
