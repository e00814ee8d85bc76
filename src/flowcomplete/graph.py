"""Bipartite observation graph with canonical vertex and edge orderings.

Rows of the data matrix map to left vertices ``u_0 .. u_{n-1}`` and columns
to right vertices ``v_0 .. v_{m-1}``; an observed entry ``(i, j)`` becomes
the undirected edge ``{u_i, v_j}``.  Every module in the package relies on
the orderings fixed here: vertices are numbered ``0 .. n-1`` for rows
followed by ``n .. n+m-1`` for columns, and edges are listed in row-major
order of the observed entries.  Paths are written as alternating index
sequences ``(x_1, x_2, ..., x_{l+1})`` where odd positions are row indices
and even positions are column indices (0-based internally).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidPathError


@dataclass(frozen=True)
class ObservationMask:
    """Binary observation pattern on an ``n_rows x n_cols`` matrix."""

    n_rows: int
    n_cols: int
    observed: frozenset

    def __post_init__(self) -> None:
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise ValueError("mask dimensions must be positive")
        pairs = frozenset((int(i), int(j)) for i, j in self.observed)
        for i, j in pairs:
            if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
                raise ValueError(f"observed entry {(i, j)} out of bounds")
        object.__setattr__(self, "observed", pairs)

    @classmethod
    def from_pairs(cls, n_rows: int, n_cols: int,
                   pairs: Iterable[tuple[int, int]]) -> "ObservationMask":
        """Build a mask from (row, col) pairs; duplicates collapse to one."""
        return cls(n_rows, n_cols, frozenset(pairs))

    @classmethod
    def from_dense(cls, pattern) -> "ObservationMask":
        """Build a mask from a binary matrix (nonzero means observed)."""
        arr = np.asarray(pattern)
        rows, cols = np.nonzero(arr)
        return cls(arr.shape[0], arr.shape[1],
                   frozenset(zip(rows.tolist(), cols.tolist())))

    @classmethod
    def from_data(cls, data) -> "ObservationMask":
        """Infer a mask from a data matrix: finite cells are observed."""
        arr = np.asarray(data, dtype=float)
        rows, cols = np.nonzero(np.isfinite(arr))
        return cls(arr.shape[0], arr.shape[1],
                   frozenset(zip(rows.tolist(), cols.tolist())))

    @cached_property
    def pairs_row_major(self) -> tuple:
        return tuple(sorted(self.observed))

    @cached_property
    def index_arrays(self) -> tuple:
        """(rows, cols) integer arrays in row-major edge order."""
        if not self.observed:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        arr = np.array(self.pairs_row_major, dtype=np.intp)
        return arr[:, 0], arr[:, 1]

    @property
    def n_observed(self) -> int:
        return len(self.observed)

    def is_observed(self, i: int, j: int) -> bool:
        return (i, j) in self.observed

    def to_dense(self) -> np.ndarray:
        """0/1 float matrix of the pattern."""
        dense = np.zeros((self.n_rows, self.n_cols))
        rows, cols = self.index_arrays
        dense[rows, cols] = 1.0
        return dense


@dataclass(frozen=True)
class BipartiteGraph:
    """Observation graph; ``edges`` holds (row, col) pairs row-major."""

    n_left: int
    n_right: int
    edges: tuple

    @property
    def n_vertices(self) -> int:
        return self.n_left + self.n_right

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_rows(self) -> np.ndarray:
        if not self.edges:
            return np.empty(0, dtype=np.intp)
        return np.array([e[0] for e in self.edges], dtype=np.intp)

    @cached_property
    def edge_cols(self) -> np.ndarray:
        if not self.edges:
            return np.empty(0, dtype=np.intp)
        return np.array([e[1] for e in self.edges], dtype=np.intp)

    @cached_property
    def adjacency(self) -> tuple:
        """Per vertex, ``(neighbor, edge index)`` pairs in ascending neighbor
        order; vertices use the global numbering."""
        neighbors = [[] for _ in range(self.n_vertices)]
        for e, (i, j) in enumerate(self.edges):
            neighbors[i].append((self.n_left + j, e))
            neighbors[self.n_left + j].append((i, e))
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    def degree(self, vertex: int) -> int:
        return len(self.adjacency[vertex])


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component ids per vertex; labels are 0-based ascending."""

    component_id: tuple
    component_count: int

    def together(self, u: int, v: int) -> bool:
        return self.component_id[u] == self.component_id[v]

    def vertices_of(self, cid: int) -> tuple:
        return tuple(v for v, c in enumerate(self.component_id) if c == cid)


def build_graph(mask: ObservationMask) -> BipartiteGraph:
    """Construct the observation graph for a mask.

    Edge ``(u_i, v_j)`` is present exactly when ``(i, j)`` is observed, and
    the edge list is row-major so it lines up with :func:`vec_omega`.
    """
    return BipartiteGraph(mask.n_rows, mask.n_cols, mask.pairs_row_major)


def connected_components(graph: BipartiteGraph) -> ComponentLabeling:
    """BFS labeling; the component containing the smallest unvisited vertex
    gets the next id, so labels are deterministic."""
    labels = [-1] * graph.n_vertices
    count = 0
    for start in range(graph.n_vertices):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            for neighbor, _ in graph.adjacency[vertex]:
                if labels[neighbor] < 0:
                    labels[neighbor] = count
                    queue.append(neighbor)
        count += 1
    return ComponentLabeling(tuple(labels), count)


def incidence_matrix(graph: BipartiteGraph) -> np.ndarray:
    """Oriented incidence matrix, one row per edge in canonical order.

    Orientation runs rows -> columns: +1 at the left endpoint and -1 at the
    right endpoint, so positive flow values mean row-to-column transport.
    """
    b = np.zeros((graph.n_edges, graph.n_vertices))
    if graph.n_edges:
        positions = np.arange(graph.n_edges)
        b[positions, graph.edge_rows] = 1.0
        b[positions, graph.n_left + graph.edge_cols] = -1.0
    return b


def laplacian(graph: BipartiteGraph) -> np.ndarray:
    """Graph Laplacian (degree matrix minus adjacency); row sums are zero."""
    n_v = graph.n_vertices
    lap = np.zeros((n_v, n_v))
    for i, j in graph.edges:
        right = graph.n_left + j
        lap[i, i] += 1.0
        lap[right, right] += 1.0
        lap[i, right] -= 1.0
        lap[right, i] -= 1.0
    return lap


def vec_omega(mask: ObservationMask, data) -> np.ndarray:
    """Observed entries of ``data`` in canonical (row-major) edge order."""
    arr = np.asarray(data, dtype=float)
    if arr.shape != (mask.n_rows, mask.n_cols):
        raise ValueError(
            f"data shape {arr.shape} does not match mask "
            f"({mask.n_rows}, {mask.n_cols})")
    rows, cols = mask.index_arrays
    return arr[rows, cols]


def checked_vec_omega(mask: ObservationMask, data) -> np.ndarray:
    """:func:`vec_omega`, also requiring every observed value to be finite.

    A ``ValueError`` names the first observed cell (row-major) that is not.
    """
    observations = vec_omega(mask, data)
    bad = np.flatnonzero(~np.isfinite(observations))
    if bad.size:
        raise ValueError("data is not finite at observed cell "
                         f"{mask.pairs_row_major[bad[0]]}")
    return observations


def validate_path(path: Sequence[int], mask: ObservationMask) -> None:
    """Check that ``path`` is a simple, observed, alternating walk.

    ``path`` is an index sequence ``(x_1, ..., x_{l+1})`` with row indices at
    odd positions and column indices at even positions (so it always starts
    at a row vertex and, having even length, ends at a column vertex).
    Raises :class:`InvalidPathError` on any violation.
    """
    if len(path) < 2 or len(path) % 2 != 0:
        raise InvalidPathError(
            "path must alternate row, col, ... with an odd number of edges")
    row_positions = [int(x) for x in path[0::2]]
    col_positions = [int(x) for x in path[1::2]]
    for i in row_positions:
        if not 0 <= i < mask.n_rows:
            raise InvalidPathError(f"row index {i} out of bounds")
    for j in col_positions:
        if not 0 <= j < mask.n_cols:
            raise InvalidPathError(f"column index {j} out of bounds")
    if len(set(row_positions)) != len(row_positions):
        raise InvalidPathError("path revisits a row vertex")
    if len(set(col_positions)) != len(col_positions):
        raise InvalidPathError("path revisits a column vertex")
    for s in range(len(path) - 1):
        if s % 2 == 0:
            edge = (int(path[s]), int(path[s + 1]))
        else:
            edge = (int(path[s + 1]), int(path[s]))
        if not mask.is_observed(*edge):
            raise InvalidPathError(f"path uses unobserved entry {edge}")
