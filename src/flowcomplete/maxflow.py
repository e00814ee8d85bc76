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

from .graph import BipartiteGraph


@dataclass(frozen=True)
class PathSet:
    """Maximal collection of edge-disjoint source->sink paths.

    ``paths`` holds alternating index sequences (row, col, row, ...); ``k``
    equals the minimum edge cut separating the pair (Menger), and
    ``max_len`` is the largest edge count over the set (0 when empty).
    """

    paths: tuple
    k: int
    max_len: int
    source: int
    sink: int


@dataclass(frozen=True)
class CutCertificate:
    """Minimum edge cut: residual-reachable side and the crossing edges."""

    left_side: frozenset
    cut_edges: tuple


def _unit_max_flow(graph: BipartiteGraph, i: int, j: int):
    """Max flow from ``u_i`` to ``v_j``.

    Returns the net flow per edge (+1 row->col, -1 col->row, 0 none), the
    flow value, and the vertices reached by the final search, which is the
    source side of a minimum cut.  Traversing an edge from a row vertex has
    direction ``d = +1``, from a column vertex ``d = -1``; its residual is
    ``1 - d * net``.  Arcs into the source or out of the sink never carry
    flow, since the search neither re-enters the source nor leaves the sink.
    """
    if not (0 <= i < graph.n_left and 0 <= j < graph.n_right):
        raise ValueError(f"entry {(i, j)} outside the "
                         f"{graph.n_left}x{graph.n_right} pattern")
    source, sink = i, graph.n_left + j
    net = [0] * graph.n_edges
    value = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            d = 1 if u < graph.n_left else -1
            for v, e in graph.adjacency[u]:
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


def _walk_paths(graph: BipartiteGraph, net: list, source: int, sink: int, k: int):
    """Decompose the net flow into k paths, zeroing cycles along the way
    (two augmenting paths can cross two equally long routes oppositely)."""

    def next_with_flow(u: int):
        d = 1 if u < graph.n_left else -1
        for v, e in graph.adjacency[u]:
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


def _path_set(graph: BipartiteGraph, net: list, value: int, i: int,
              j: int) -> PathSet:
    walks = _walk_paths(graph, net, i, graph.n_left + j, value)
    # global vertex ids -> alternating (row, col, row, ...) indices
    paths = tuple(tuple(v - graph.n_left * (s % 2) for s, v in enumerate(w))
                  for w in walks)
    max_len = max((len(p) - 1 for p in paths), default=0)
    return PathSet(paths=paths, k=value, max_len=max_len, source=i, sink=j)


def _cut(graph: BipartiteGraph, value: int, reached) -> CutCertificate:
    side = np.zeros(graph.n_vertices, dtype=bool)
    side[list(reached)] = True
    crossing = np.flatnonzero(side[graph.edge_rows]
                              != side[graph.n_left + graph.edge_cols])
    if crossing.size != value:
        raise RuntimeError(
            f"cut size {crossing.size} disagrees with flow value {value}")
    cut_edges = zip(graph.edge_rows[crossing].tolist(),
                    graph.edge_cols[crossing].tolist())
    return CutCertificate(left_side=frozenset(reached),
                          cut_edges=tuple(cut_edges))


def max_disjoint_paths(graph: BipartiteGraph, i: int, j: int) -> PathSet:
    """Maximum set of edge-disjoint paths from ``u_i`` to ``v_j``.

    Returns an empty set (k=0) when the pair is disconnected; raises
    ``ValueError`` for an entry outside the pattern.
    """
    net, value, _ = _unit_max_flow(graph, i, j)
    return _path_set(graph, net, value, i, j)


def min_cut(graph: BipartiteGraph, i: int, j: int) -> CutCertificate:
    """Minimum edge cut separating ``u_i`` from ``v_j``.

    The left side is the set of vertices reachable from ``u_i`` in the
    residual graph of a maximum flow; the crossing edges, row-major, are
    saturated and their count equals the max number of edge-disjoint paths.
    """
    _, value, reached = _unit_max_flow(graph, i, j)
    return _cut(graph, value, reached)


def paths_and_cut(graph: BipartiteGraph, i: int,
                  j: int) -> tuple[PathSet, CutCertificate]:
    """:func:`max_disjoint_paths` and :func:`min_cut` from one max flow; every
    maximum flow leaves the same residual-reachable set."""
    net, value, reached = _unit_max_flow(graph, i, j)
    return _path_set(graph, net, value, i, j), _cut(graph, value, reached)
