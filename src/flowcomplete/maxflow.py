"""Unit-capacity max flow, edge-disjoint paths, and minimum cuts.

Each undirected edge has unit capacity in either direction and carries one
signed net flow.  Max flow is found by shortest-path augmentation, a BFS run
a level at a time with neighbors in ascending order that finds a queue BFS's
paths: deterministic and biased toward short paths.  They are read off by
walking the flow from the source, cutting out cycles; the vertices a search
of the final residual graph reaches form the minimum cut's side.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .forkjoin import fork_join
from .graph import ObservationMask, _path_cells, _path_set_cells, check_entry

_FLOW_FLOOR = 512  # entries that pay for a forked part of _flow_plan


@dataclass(frozen=True)
class PathSet:
    """Maximal collection of edge-disjoint ``u_source -> v_sink`` paths.

    ``paths`` holds alternating index sequences (row, col, row, ...), checked
    against ``mask``, the endpoints and each other once, when the set is built,
    by the one path check of :func:`~flowcomplete.graph._path_cells`, whose
    gather plan the set keeps for :func:`~flowcomplete.rank1.rank1_entry`;
    an entry outside the pattern is a ``ValueError``, with or without paths;
    ``k`` equals the minimum edge cut separating the pair (Menger);
    ``max_len`` is the largest edge count of a path (0 if none).
    """

    paths: tuple
    source: int
    sink: int
    mask: ObservationMask

    def __post_init__(self) -> None:
        check_entry(self.mask, self.source, self.sink)
        object.__setattr__(self, "_cells", _path_set_cells(
            self.mask, self.paths, (self.source, self.sink)))

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


def _augmenting_path(adjacency: tuple, net: list, source: int, to_sink: dict):
    """One BFS of the residual graph, a level of rows or columns at a time:
    each vertex's parent (-1 if undiscovered) and edge from it, and the last
    row of a shortest augmenting path (``None`` if none is left).  Arcs out of
    a row level saturate at ``net == 1``, out of a column level at -1.  A queue
    BFS sets the same parents and reaches the sink from the earliest queued row
    with a residual arc into it (``to_sink``): the first one discovered here."""
    parent, via = [-1] * len(adjacency), [0] * len(adjacency)
    parent[source] = source
    if source in to_sink and net[to_sink[source]] != 1:
        return parent, via, source
    rows = [source]
    while rows:
        columns = []
        for u in rows:  # arcs out of a row saturate at net == 1
            for v, e in adjacency[u]:
                if parent[v] < 0 and net[e] != 1:
                    parent[v], via[v] = u, e
                    columns.append(v)
        rows = []
        for u in columns:  # and out of a column at net == -1
            for v, e in adjacency[u]:
                if parent[v] < 0 and net[e] != -1:
                    parent[v], via[v] = u, e
                    rows.append(v)
                    if v in to_sink and net[to_sink[v]] != 1:
                        return parent, via, v
    return parent, via, None


def _unit_max_flow(mask: ObservationMask, i: int, j: int):
    """Max flow from ``u_i`` to ``v_j``: the net flow per edge (+1 row->col,
    -1 col->row, 0 none) and the value.  Traversing an edge from a row vertex
    has direction ``d = +1``, from a column vertex ``d = -1``; its residual
    is ``1 - d * net``.  Arcs into the source or out of the sink never carry
    flow, since the search neither re-enters the source nor leaves the sink.
    The value cannot pass ``min(deg u_i, deg v_j)``, so the flow stops there
    without the search that must fail; only a cut needs what it reaches."""
    check_entry(mask, i, j)
    adjacency, to_sink = mask.adjacency, dict(mask.adjacency[mask.n_rows + j])
    net, value = [0] * mask.n_observed, 0
    cap = min(mask.degree(i), mask.degree(mask.n_rows + j))
    while value < cap:
        parent, via, u = _augmenting_path(adjacency, net, i, to_sink)
        if u is None:
            break
        net[to_sink[u]] += 1
        while u != i:
            net[via[u]] += 1 if parent[u] < mask.n_rows else -1
            u = parent[u]
        value += 1
    return net, value


def _walk_paths(mask: ObservationMask, net: list, source: int, sink: int, k: int):
    """Decompose the net flow into k paths, consuming it as each walk goes and
    cutting out cycles (two augmenting paths can cross two routes oppositely)."""
    adjacency, n_rows, paths = mask.adjacency, mask.n_rows, []
    for _ in range(k):
        walk, position = [source], {source: 0}
        while (u := walk[-1]) != sink:
            d = 1 if u < n_rows else -1
            for v, e in adjacency[u]:
                if d * net[e] > 0:
                    break
            else:
                raise RuntimeError("flow conservation violated during walk")
            net[e] -= d
            if v in position:  # a cycle, its flow consumed: resume from v
                for w in walk[position[v] + 1:]:
                    del position[w]
                del walk[position[v] + 1:]
            else:
                position[v] = len(walk)
                walk.append(v)
        paths.append(walk)
    return paths


def _path_set(mask: ObservationMask, net: list, value: int, i: int, j: int) -> PathSet:
    walks = _walk_paths(mask, net, i, mask.n_rows + j, value)
    # global vertex ids -> alternating (row, col, row, ...) indices
    paths = tuple(tuple(v - mask.n_rows * (s % 2) for s, v in enumerate(w))
                  for w in walks)
    return PathSet(paths=paths, source=i, sink=j, mask=mask)


def _flow_buffers(mask: ObservationMask, entries) -> tuple:
    sets, lengths, vertices = array("q"), array("i"), array("i")  # no objects
    for i, j in entries:
        net, value = _unit_max_flow(mask, i, j)
        walks = _walk_paths(mask, net, i, mask.n_rows + j, value)
        sets.extend((i, j, value, max(map(len, walks), default=1) - 1))
        lengths.extend(map(len, walks))
        vertices.extend(chain.from_iterable(walks))
    return sets, lengths, vertices


def _flow_plan(mask: ObservationMask, entries) -> tuple:
    """:func:`~flowcomplete.graph._path_cells` plan of the max-flow paths of
    ``entries``, built straight from the walks, in parts of at least
    ``_FLOW_FLOOR`` entries (:func:`~.forkjoin.fork_join`) once all are checked."""
    entries = np.fromiter(chain.from_iterable(entries), np.intp).reshape(-1, 2)
    outside = (entries < 0) | (entries >= (mask.n_rows, mask.n_cols))
    for i, j in entries[outside.any(axis=1)][:1].tolist():
        check_entry(mask, i, j)  # the first, as a loop of max flows meets it

    def part(start, stop):
        return _flow_buffers(mask, zip(*entries[start:stop].T.tolist()))
    with fork_join(lambda start, stop: pickle.dumps(part(start, stop)),
                   np.ones(len(entries)), _FLOW_FLOOR) as ((start, stop), tails):
        buffers = part(start, stop)
        for chunks in tails:  # a child's three buffers, pickled
            for buffer, more in zip(buffers, pickle.loads(b"".join(chunks))):
                buffer.extend(more)
    sets, lengths, vertices = buffers
    vertices = np.frombuffer(vertices, dtype=np.intc)
    vertices[1::2] -= mask.n_rows  # global vertex ids -> column indices
    return _path_cells(mask, np.frombuffer(sets, dtype=np.int64).reshape(-1, 4),
                       np.frombuffer(lengths, dtype=np.intc), vertices)


def _cut(mask: ObservationMask, net: list, value: int, i: int) -> CutCertificate:
    side = np.array(_augmenting_path(mask.adjacency, net, i, {})[0]) >= 0
    crossing = np.flatnonzero(side[mask.rows] != side[mask.n_rows + mask.cols])
    if crossing.size != value:
        raise RuntimeError(
            f"cut size {crossing.size} disagrees with flow value {value}")
    cut_edges = zip(mask.rows[crossing].tolist(), mask.cols[crossing].tolist())
    return CutCertificate(left_side=frozenset(np.flatnonzero(side).tolist()),
                          cut_edges=tuple(cut_edges))


def max_disjoint_paths(mask: ObservationMask, i: int, j: int) -> PathSet:
    """Maximum set of edge-disjoint paths from ``u_i`` to ``v_j``.

    Returns an empty set (k=0) when the pair is disconnected; raises
    ``ValueError`` for an entry outside the pattern.
    """
    return _path_set(mask, *_unit_max_flow(mask, i, j), i, j)


def min_cut(mask: ObservationMask, i: int, j: int) -> CutCertificate:
    """Minimum edge cut separating ``u_i`` from ``v_j``.

    The left side is the set of vertices reachable from ``u_i`` in the
    residual graph of a maximum flow; the crossing edges, row-major, are
    saturated and their count equals the max number of edge-disjoint paths.
    """
    return _cut(mask, *_unit_max_flow(mask, i, j), i)


def paths_and_cut(mask: ObservationMask, i: int,
                  j: int) -> tuple[PathSet, CutCertificate]:
    """:func:`max_disjoint_paths` and :func:`min_cut` from one max flow; every
    maximum flow leaves the same residual-reachable set."""
    net, value = _unit_max_flow(mask, i, j)
    cut = _cut(mask, net, value, i)  # before the walk, which empties net
    return _path_set(mask, net, value, i, j), cut
