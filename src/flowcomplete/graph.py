"""Observation pattern, which is also the bipartite observation graph.

Rows of the data matrix map to vertices ``u_0 .. u_{n-1}`` and columns to
vertices ``v_0 .. v_{m-1}``; an observed entry ``(i, j)`` is the undirected
edge ``{u_i, v_j}``.  Every module in the package relies on the orderings
fixed here: vertices are numbered ``0 .. n-1`` for rows followed by
``n .. n+m-1`` for columns, and edges are the observed entries in
row-major order, the order of :attr:`ObservationMask.rows` and ``cols``.
Paths are written as alternating index sequences ``(x_1, x_2, ..., x_{l+1})``
where odd positions are row indices and even positions are column indices
(0-based internally).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidPathError


@dataclass(frozen=True, eq=False)
class ObservationMask:
    """Binary observation pattern on an ``n_rows x n_cols`` matrix, and its
    bipartite graph: edge ``k`` joins ``u_rows[k]`` and ``v_cols[k]``.

    Observed cells are ``(rows[k], cols[k])``, each once, row-major, in
    read-only ``intp`` arrays; any integer index arrays passed in are
    bounds-checked, sorted and deduplicated.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self) -> None:
        n_rows, n_cols = operator.index(self.n_rows), operator.index(self.n_cols)
        if n_rows <= 0 or n_cols <= 0:
            raise ValueError("mask dimensions must be positive")
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be 1-D arrays of equal length")
        if rows.size and not all(np.issubdtype(a.dtype, np.integer)
                                 for a in (rows, cols)):
            raise ValueError("mask indices must be integers")
        outside = np.flatnonzero((rows < 0) | (rows >= n_rows)
                                 | (cols < 0) | (cols >= n_cols))
        if outside.size:
            cell = (int(rows[outside[0]]), int(cols[outside[0]]))
            raise ValueError(f"observed entry {cell} out of bounds")
        # sorted flat keys give the row-major order; a key equal to its
        # predecessor is a duplicate (np.unique would import numpy.ma).  A
        # stable sort is one linear pass over already row-major input.
        keys = rows.astype(np.intp) * n_cols + cols.astype(np.intp)
        keys = np.sort(keys, kind="stable")
        rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n_cols)
        rows.flags.writeable = cols.flags.writeable = False
        for name, value in (("n_rows", n_rows), ("n_cols", n_cols),
                            ("rows", rows), ("cols", cols)):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ObservationMask)
                and (self.n_rows, self.n_cols) == (other.n_rows, other.n_cols)
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols))

    def __hash__(self) -> int:
        return hash((self.n_rows, self.n_cols, self.rows.tobytes(),
                     self.cols.tobytes()))

    @classmethod
    def from_pairs(cls, n_rows: int, n_cols: int,
                   pairs: Iterable[tuple[int, int]]) -> "ObservationMask":
        """Build a mask from (row, col) pairs; duplicates collapse to one."""
        rows, cols = np.array(list(pairs) or np.empty((0, 2), np.intp)).T
        return cls(n_rows, n_cols, rows, cols)

    @classmethod
    def from_dense(cls, pattern) -> "ObservationMask":
        """Build a mask from a binary matrix (nonzero means observed)."""
        arr = np.asarray(pattern)
        return cls(arr.shape[0], arr.shape[1], *np.nonzero(arr))

    @classmethod
    def from_data(cls, data) -> "ObservationMask":
        """Infer a mask from a data matrix: finite cells are observed."""
        arr = np.asarray(data, dtype=float)
        return cls(arr.shape[0], arr.shape[1], *np.nonzero(np.isfinite(arr)))

    @property
    def n_observed(self) -> int:
        return self.rows.size

    @property
    def n_vertices(self) -> int:
        return self.n_rows + self.n_cols

    @cached_property
    def adjacency(self) -> tuple:
        """Per vertex, ``(neighbor, edge index)`` pairs of Python ints in
        ascending neighbor order (edges are row-major); global numbering."""
        neighbors = [[] for _ in range(self.n_vertices)]
        rights = (self.n_rows + self.cols).tolist()
        for e, (i, right) in enumerate(zip(self.rows.tolist(), rights)):
            neighbors[i].append((right, e))
            neighbors[right].append((i, e))
        return tuple(tuple(ns) for ns in neighbors)

    def degree(self, vertex: int) -> int:
        return len(self.adjacency[vertex])

    @cached_property
    def grid(self) -> np.ndarray:
        """Read-only boolean ``n_rows x n_cols`` grid of the pattern, built on
        first use; also the observed-cell lookup of :func:`validate_path`."""
        grid = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        grid[self.rows, self.cols] = True
        grid.setflags(write=False)
        return grid

    def is_observed(self, i: int, j: int) -> bool:
        return (0 <= i < self.n_rows and 0 <= j < self.n_cols
                and bool(self.grid[i, j]))


@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    """Component id per vertex (read-only array); labels 0-based ascending."""

    component_id: np.ndarray
    component_count: int


def connected_components(mask: ObservationMask) -> ComponentLabeling:
    """Label components from the edge arrays by min-label hooking and
    pointer jumping; ids ascend with each component's smallest vertex, so
    labels are deterministic."""
    a, b = mask.rows, mask.n_rows + mask.cols
    root = np.arange(mask.n_vertices)  # root[v] <= v; a star after jumping
    while True:
        root_a, root_b = root[a], root[b]
        if np.array_equal(root_a, root_b):
            break
        low = np.minimum(root_a, root_b)
        np.minimum.at(root, root_a, low)  # hook roots onto smaller roots
        np.minimum.at(root, root_b, low)
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
    is_root = root == np.arange(mask.n_vertices)
    ids = (np.cumsum(is_root, dtype=np.intp) - 1)[root]
    ids.setflags(write=False)
    return ComponentLabeling(ids, int(np.count_nonzero(is_root)))


def incidence_matrix(mask: ObservationMask) -> np.ndarray:
    """Oriented incidence matrix, one row per edge in canonical order.

    Orientation runs rows -> columns: +1 at the row endpoint and -1 at the
    column endpoint, so positive flow values mean row-to-column transport.
    """
    b = np.zeros((mask.n_observed, mask.n_vertices))
    positions = np.arange(mask.n_observed)
    b[positions, mask.rows] = 1.0
    b[positions, mask.n_rows + mask.cols] = -1.0
    return b


def laplacian(mask: ObservationMask) -> np.ndarray:
    """Graph Laplacian (degree matrix minus adjacency); row sums are zero."""
    lap = np.zeros((mask.n_vertices, mask.n_vertices))
    a, b = mask.rows, mask.n_rows + mask.cols
    lap[a, b] = lap[b, a] = -1.0
    lap[np.diag_indices(mask.n_vertices)] = np.bincount(
        np.concatenate([a, b]), minlength=mask.n_vertices)
    return lap


def divergence(mask: ObservationMask, values) -> np.ndarray:
    """``B^T values`` (net out-flow per vertex) for ``(n_observed,)`` or
    ``(n_observed, k)`` edge values: one flat ``bincount`` per side, in edge
    order."""
    values = np.asarray(values, dtype=float)
    columns = values[:, None] if values.ndim == 1 else values
    width = columns.shape[1]

    def sums(ends: np.ndarray, size: int) -> np.ndarray:
        flat = (ends[:, None] * width + np.arange(width)).ravel()
        return np.bincount(flat, columns.ravel(), minlength=size * width)

    totals = np.concatenate([sums(mask.rows, mask.n_rows),
                             -sums(mask.cols, mask.n_cols)])
    return totals.reshape((mask.n_vertices,) + values.shape[1:])


def vec_omega(mask: ObservationMask, data) -> np.ndarray:
    """Observed entries of ``data`` in canonical (row-major) edge order."""
    arr = np.asarray(data, dtype=float)
    if arr.shape != (mask.n_rows, mask.n_cols):
        raise ValueError(
            f"data shape {arr.shape} does not match mask "
            f"({mask.n_rows}, {mask.n_cols})")
    return arr[mask.rows, mask.cols]


def checked_vec_omega(mask: ObservationMask, data) -> np.ndarray:
    """:func:`vec_omega`, also requiring every observed value to be finite.

    A ``ValueError`` names the first observed cell (row-major) that is not.
    """
    observations = vec_omega(mask, data)
    bad = np.flatnonzero(~np.isfinite(observations))
    if bad.size:
        cell = (int(mask.rows[bad[0]]), int(mask.cols[bad[0]]))
        raise ValueError(f"data is not finite at observed cell {cell}")
    return observations


def check_noise(sigma: float | None, delta: float | None) -> None:
    """Reject a given noise ``sigma`` that is negative or NaN and a given
    confidence ``delta`` outside (0, 1)."""
    if sigma is not None and not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    if delta is not None and not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


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
    grid = mask.grid
    for s in range(len(path) - 1):
        i, j = row_positions[(s + 1) // 2], col_positions[s // 2]
        if not grid[i, j]:
            raise InvalidPathError(f"path uses unobserved entry {(i, j)}")
