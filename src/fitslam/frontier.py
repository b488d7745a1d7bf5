"""Frontier detection and size-capped clustering on the exploration grids.

A frontier cell is known-navigable and 8-adjacent to at least one unknown
occupancy cell. Connected components are grown breadth-first in a fixed
neighbor order, split into chunks no larger than the cluster size cap, and
each chunk nominates its median-order cell as a candidate goal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .grid import BinaryTraversabilityGrid, GridSpec, OccupancyGrid, shift

# BFS growth order: E, NE, N, NW, W, SW, S, SE in (di, dj) with i along x.
_NEIGHBOR_ORDER = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]

DEFAULT_MAX_CLUSTER_SIZE = 30


@dataclass
class FrontierCluster:
    cells: list  # BFS-ordered (i, j) indices, all satisfying the frontier predicate
    candidate: tuple  # median-order cell of the list

    def __post_init__(self):
        assert self.cells, "cluster must be nonempty"
        assert self.candidate in self.cells


@dataclass
class Blacklist:
    """Cells designated unreachable; nearby candidates are suppressed too.

    Suppression extends one cell around each entry so grid jitter cannot
    re-emit an adjacent copy of a failed goal.
    """

    _halo: set = field(default_factory=set)

    def add(self, cell: tuple) -> None:
        i, j = cell
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                self._halo.add((i + di, j + dj))

    def suppresses(self, cell: tuple) -> bool:
        return cell in self._halo


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


def cluster_frontiers(cells: set, spec: GridSpec,
                      max_cluster_size: int = DEFAULT_MAX_CLUSTER_SIZE,
                      blacklist: Blacklist | None = None) -> list:
    """Group frontier cells into deterministic, size-capped clusters.

    Components are seeded in row-major order and grown breadth-first with the
    fixed neighbor order; oversized components are split into consecutive
    chunks of the BFS visitation order. Clusters whose candidate is suppressed
    by the blacklist are dropped.
    """
    if max_cluster_size < 1:
        raise ValueError("max_cluster_size must be >= 1")
    blacklist = blacklist or Blacklist()
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
    clusters = []
    while todo.any():
        order = breadth_first_order(graph, int(todo.argmax()), directed=True,
                                    return_predecessors=False)
        todo[order] = False
        visited = lin[order]
        component = list(zip((visited % w).tolist(), (visited // w).tolist()))
        for k in range(0, len(component), max_cluster_size):
            chunk = component[k:k + max_cluster_size]
            candidate = chunk[(len(chunk) - 1) // 2]
            if not blacklist.suppresses(candidate):
                clusters.append(FrontierCluster(cells=chunk, candidate=candidate))
    return clusters
