"""Observation pattern, which is also the bipartite observation graph.

Rows of the data matrix map to vertices ``u_0 .. u_{n-1}`` and columns to
vertices ``v_0 .. v_{m-1}``; an observed entry ``(i, j)`` is the undirected
edge ``{u_i, v_j}``.  Every module in the package relies on the orderings
fixed here: vertices are numbered ``0 .. n-1`` for rows followed by
``n .. n+m-1`` for columns, and edges are the observed entries in
row-major order, the order of :attr:`ObservationMask.rows` and ``cols``.
Edges point from row to column: the oriented incidence ``B`` (``+1`` at
an edge's row end, ``-1`` at its column end) exists only as :func:`gradient`
(``B x``) and :func:`divergence` (``B^T y``).  Paths are written as
alternating index sequences ``(x_1, ..., x_{l+1})`` with row indices at odd
and column indices at even positions (0-based internally).
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidPathError

_PLAN_CHUNK = 64  # path sets checked per numpy pass, as sim._TRIAL_CHUNK


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
        pairs = np.array(list(pairs) or np.empty((0, 2), np.intp))
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pair {pairs[0].tolist()} is not (row, col)")
        return cls(n_rows, n_cols, *pairs.T)

    @classmethod
    def from_dense(cls, pattern) -> "ObservationMask":
        """Build a mask from a binary matrix (nonzero means observed)."""
        arr = np.asarray(pattern)
        if arr.ndim != 2:
            raise ValueError(f"a mask pattern must be 2-D, not of shape {arr.shape}")
        return cls(*arr.shape, *np.nonzero(arr))

    @classmethod
    def from_data(cls, data) -> "ObservationMask":
        """Infer a mask from a data matrix: finite cells are observed."""
        return cls.from_dense(np.isfinite(np.asarray(data, dtype=float)))

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
    def edge_ids(self) -> np.ndarray:
        """Read-only ``intc`` grid of each cell's edge index, ``-1`` if unobserved."""
        ids = np.full((self.n_rows, self.n_cols), -1, dtype=np.intc)
        ids[self.rows, self.cols] = np.arange(self.n_observed)
        ids.setflags(write=False)
        return ids

    @property
    def grid(self) -> np.ndarray:
        """Boolean ``n_rows x n_cols`` grid of the pattern (a new array)."""
        return self.edge_ids >= 0


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


def gradient(mask: ObservationMask, values) -> np.ndarray:
    """``B values`` (row-end value minus column-end value per edge) for
    ``(n_vertices,)`` or ``(n_vertices, k)`` vertex values."""
    values = np.asarray(values, dtype=float)
    return values[mask.rows] - values[mask.n_rows + mask.cols]


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
    """Reject a given noise ``sigma`` that is negative, infinite or NaN and a
    given confidence ``delta`` outside (0, 1)."""
    if sigma is not None and not 0 <= sigma < math.inf:
        raise ValueError("sigma must be non-negative and finite")
    if delta is not None and not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


def check_entry(mask: ObservationMask, i: int, j: int) -> None:
    """Reject an entry ``(i, j)`` (0-based) outside ``mask``'s pattern."""
    if not (0 <= i < mask.n_rows and 0 <= j < mask.n_cols):
        raise ValueError(f"entry {(i, j)} outside the "
                         f"{mask.n_rows}x{mask.n_cols} pattern")


def validate_path(path: Sequence[int], mask: ObservationMask) -> np.ndarray:
    """Check that ``path`` is a simple, observed, alternating walk; return the
    edge id of each of its steps in walk order (row to column at even steps).

    ``path`` is an index sequence ``(x_1, ..., x_{l+1})`` with row indices at
    odd positions and column indices at even positions (so it always starts
    at a row vertex and, having even length, ends at a column vertex).
    Raises :class:`InvalidPathError` on any violation, by the check of a set
    of this one path that joins its own ends.
    """
    return _path_set_cells(mask, (path,))[4]


def _path_set_cells(mask: ObservationMask, paths, entry=None) -> tuple:
    """:func:`_path_cells` of one set of index sequences joining ``entry`` (by
    default the ends of its only path).  A path with an index that is not an
    integer is rejected first: ``array`` takes no float, where numpy would
    truncate it."""
    vertices = array("i")
    for path in paths:
        try:
            vertices.extend(path)
        except TypeError:
            raise InvalidPathError(f"path {path} has a non-integer index") from None
        except OverflowError:  # beyond ``intc``, so beyond any pattern
            raise InvalidPathError(f"path {path} has an index out of bounds") from None
    entry = array("q", entry or vertices[:1] + vertices[-1:] or (0, 0))  # ints
    lengths = np.array([len(path) for path in paths], dtype=np.intc)
    sets = np.array([[*entry, len(paths), max(lengths, default=1) - 1]],
                    dtype=np.int64)
    return _path_cells(mask, sets, lengths, np.frombuffer(vertices, dtype=np.intc))


def _path_cells(mask: ObservationMask, sets: np.ndarray, lengths: np.ndarray,
                vertices: np.ndarray) -> tuple:
    """Gather plan of path sets, checked ``_PLAN_CHUNK`` sets at a time.

    ``sets`` holds a ``(source, sink, path count, longest path)`` row per set,
    ``lengths`` each path's vertex count and ``vertices`` the joined index
    sequences (``intc``).  The plan holds per set its flat entry, path count
    and longest path; per path its edge count; and the edge ids
    (:attr:`ObservationMask.edge_ids`) of every step of every path, in walk
    order: step ``s`` of a path joins its places ``s`` and ``s + 1``.
    """
    path_at = np.concatenate([[0], np.cumsum(sets[:, 2])])  # each set's first
    vertex_at = np.concatenate([[0], np.cumsum(lengths)])  # each path's first
    runs = [np.empty(0, dtype=np.intc)]
    for start in range(0, len(sets), _PLAN_CHUNK):
        first, end = path_at[start], path_at[min(start + _PLAN_CHUNK, len(sets))]
        runs.append(_check_paths(mask, sets[start:start + _PLAN_CHUNK],
                                 lengths[first:end],
                                 vertices[vertex_at[first]:vertex_at[end]]))
    return (sets[:, 0] * mask.n_cols + sets[:, 1], sets[:, 2], sets[:, 3],
            lengths - 1, np.concatenate(runs))


def _check_paths(mask: ObservationMask, sets: np.ndarray, lengths: np.ndarray,
                 vertices: np.ndarray) -> np.ndarray:
    """Check path sets, laid out as for :func:`_path_cells`, in one numpy pass,
    and return the edge id of each step in walk order.

    A place's side is its parity within its path: rows at even places,
    columns at odd ones.  :class:`InvalidPathError` names the first path that
    fails, and the first check it fails of: an even length of at least 2,
    indices within bounds, no vertex repeated, every cell observed, ends at
    its set's entry, and no cell shared with an earlier path of its set.
    """
    n, m = mask.n_rows, mask.n_cols
    sources, sinks, counts = sets[:, :3].T
    starts = np.cumsum(lengths) - lengths
    set_of = np.repeat(np.arange(len(counts)), counts)
    path_of = np.repeat(np.arange(len(lengths)), lengths)
    place = np.arange(len(vertices)) - starts[path_of]
    left = lengths[path_of] - 1 - place  # places after this one on its path
    side = place % 2  # 0 at a row, 1 at a column
    outside = (vertices < 0) | (vertices >= np.where(side, m, n))
    # an outside index fails its path before any lookup; 0 keeps lookups in range
    inside = np.where(outside, 0, vertices.astype(np.intp))
    visits = np.sort(path_of * (n + m) + inside + n * side)
    steps = np.flatnonzero(left > 0)  # each place but a path's last, to the next
    here, there = inside[steps], inside[steps + 1]
    cells = np.where(side[steps], there * m + here, here * m + there)
    ids = mask.edge_ids.ravel()[cells]
    owners = path_of[steps]
    uses = set_of[owners] * (n * m) + cells  # (set, cell) keys
    order = np.lexsort((owners, uses))  # each cell's earliest path first
    ends = (place == 0) | (left == 0)  # at its set's source, then its sink
    flags = np.zeros((6, len(lengths)), dtype=bool)
    flags[0] = (lengths < 2) | (lengths % 2 == 1)
    flags[1, path_of[outside]] = True
    flags[2, visits[1:][np.diff(visits) == 0] // (n + m)] = True
    flags[3, owners[ids < 0]] = True
    flags[4, path_of[ends & (vertices != sets[set_of[path_of], side])]] = True
    flags[5, owners[order[1:][np.diff(uses[order]) == 0]]] = True
    failing = np.flatnonzero(flags.any(axis=0))
    if failing.size:
        p, s = failing[0], set_of[failing[0]]
        path = tuple(vertices[starts[p]:starts[p] + lengths[p]].tolist())
        raise InvalidPathError(f"path {path} " + (
            "must alternate row, col, ... with an odd number of edges",
            "has an index out of bounds", "revisits a vertex",
            "uses an unobserved entry",
            f"does not join entry {(int(sources[s]), int(sinks[s]))}",
            "shares an edge with another")[np.argmax(flags[:, p])])
    return ids
