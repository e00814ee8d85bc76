"""Unit-capacity max flow, edge-disjoint paths, and minimum cuts.

Each undirected edge has unit capacity in either direction and carries one
signed net flow.  Max flow is found with shortest-path (BFS) augmentation,
neighbors scanned in ascending vertex order, which makes the returned path
set deterministic and biased toward short paths.  The paths are read off by
walking the flow from the source, zeroing any cycles encountered; the
vertices the last, failing search reaches form the minimum cut's side.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPathError
from .graph import ObservationMask, validate_path


@dataclass(frozen=True)
class PathSet:
    """Maximal collection of edge-disjoint ``u_source -> v_sink`` paths.

    ``paths`` holds alternating index sequences (row, col, row, ...), each
    checked against ``mask``, the endpoints and the edges of earlier paths
    when the set is built; ``k`` equals the minimum edge cut separating the
    pair (Menger); ``max_len`` is the largest edge count of a path (0 if none).
    """

    paths: tuple
    source: int
    sink: int
    mask: ObservationMask

    def __post_init__(self) -> None:
        used: set = set()  # (row, col) cells: the edges of earlier paths
        for path in self.paths:
            validate_path(path, self.mask)
            if (path[0], path[-1]) != (self.source, self.sink):
                raise InvalidPathError(
                    f"path {path} does not join entry {(self.source, self.sink)}")
            edges = {*zip(path[0::2], path[1::2]), *zip(path[2::2], path[1::2])}
            if not used.isdisjoint(edges):
                raise InvalidPathError(f"path {path} shares an edge with another")
            used |= edges

    @property
    def k(self) -> int:
        return len(self.paths)

    @property
    def max_len(self) -> int:
        return max((len(p) - 1 for p in self.paths), default=0)


@dataclass(frozen=True)
class CutCertificate:
    """Minimum edge cut: residual-reachable side and the crossing edges."""

    left_side: frozenset
    cut_edges: tuple


def _unit_max_flow(mask: ObservationMask, i: int, j: int):
    """Max flow from ``u_i`` to ``v_j``.

    Returns the net flow per edge (+1 row->col, -1 col->row, 0 none), the
    flow value, and the vertices reached by the final search, which is the
    source side of a minimum cut.  Traversing an edge from a row vertex has
    direction ``d = +1``, from a column vertex ``d = -1``; its residual is
    ``1 - d * net``.  Arcs into the source or out of the sink never carry
    flow, since the search neither re-enters the source nor leaves the sink.
    """
    if not (0 <= i < mask.n_rows and 0 <= j < mask.n_cols):
        raise ValueError(f"entry {(i, j)} outside the "
                         f"{mask.n_rows}x{mask.n_cols} pattern")
    source, sink = i, mask.n_rows + j
    net = [0] * mask.n_observed
    value = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            d = 1 if u < mask.n_rows else -1
            for v, e in mask.adjacency[u]:
                if v not in parent and d * net[e] < 1:
                    parent[v] = (u, e, d)
                    if v == sink:
                        break
                    queue.append(v)
        if sink not in parent:
            return net, value, parent.keys()
        v = sink
        while v != source:
            v, e, d = parent[v]
            net[e] += d
        value += 1


def _walk_paths(mask: ObservationMask, net: list, source: int, sink: int, k: int):
    """Decompose the net flow into k paths, zeroing cycles along the way
    (two augmenting paths can cross two equally long routes oppositely)."""

    def next_with_flow(u: int):
        d = 1 if u < mask.n_rows else -1
        for v, e in mask.adjacency[u]:
            if d * net[e] > 0:
                return v, e, d
        return None

    paths = []
    for _ in range(k):
        # steps[s] is the (edge, direction) taken from walk[s] to walk[s + 1]
        walk, steps = [source], []
        position = {source: 0}
        while walk[-1] != sink:
            step = next_with_flow(walk[-1])
            if step is None:
                raise RuntimeError("flow conservation violated during walk")
            v, e, d = step
            walk.append(v)
            steps.append((e, d))
            if v in position:
                # cycle: zero its flow and resume the walk from v
                start = position[v]
                for e, d in steps[start:]:
                    net[e] -= d
                for w in walk[start + 1:-1]:
                    del position[w]
                del walk[start + 1:], steps[start:]
            else:
                position[v] = len(walk) - 1
        for e, d in steps:
            net[e] -= d
        paths.append(walk)
    return paths


def _path_set(mask: ObservationMask, net: list, value: int, i: int, j: int) -> PathSet:
    walks = _walk_paths(mask, net, i, mask.n_rows + j, value)
    # global vertex ids -> alternating (row, col, row, ...) indices
    paths = tuple(tuple(v - mask.n_rows * (s % 2) for s, v in enumerate(w))
                  for w in walks)
    return PathSet(paths=paths, source=i, sink=j, mask=mask)


def _cut(mask: ObservationMask, value: int, reached) -> CutCertificate:
    side = np.zeros(mask.n_vertices, dtype=bool)
    side[list(reached)] = True
    crossing = np.flatnonzero(side[mask.rows] != side[mask.n_rows + mask.cols])
    if crossing.size != value:
        raise RuntimeError(
            f"cut size {crossing.size} disagrees with flow value {value}")
    cut_edges = zip(mask.rows[crossing].tolist(), mask.cols[crossing].tolist())
    return CutCertificate(left_side=frozenset(reached),
                          cut_edges=tuple(cut_edges))


def max_disjoint_paths(mask: ObservationMask, i: int, j: int) -> PathSet:
    """Maximum set of edge-disjoint paths from ``u_i`` to ``v_j``.

    Returns an empty set (k=0) when the pair is disconnected; raises
    ``ValueError`` for an entry outside the pattern.
    """
    net, value, _ = _unit_max_flow(mask, i, j)
    return _path_set(mask, net, value, i, j)


def min_cut(mask: ObservationMask, i: int, j: int) -> CutCertificate:
    """Minimum edge cut separating ``u_i`` from ``v_j``.

    The left side is the set of vertices reachable from ``u_i`` in the
    residual graph of a maximum flow; the crossing edges, row-major, are
    saturated and their count equals the max number of edge-disjoint paths.
    """
    _, value, reached = _unit_max_flow(mask, i, j)
    return _cut(mask, value, reached)


def paths_and_cut(mask: ObservationMask, i: int,
                  j: int) -> tuple[PathSet, CutCertificate]:
    """:func:`max_disjoint_paths` and :func:`min_cut` from one max flow; every
    maximum flow leaves the same residual-reachable set."""
    net, value, reached = _unit_max_flow(mask, i, j)
    return _path_set(mask, net, value, i, j), _cut(mask, value, reached)
