"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np

from flowcomplete import (
    NO_LENGTH_THREE_PATH,
    CutCertificate,
    ObservationMask,
    PanelData,
    PathSet,
    SpectralCore,
    split_masks,
)


def cells(rows: np.ndarray, cols: np.ndarray) -> list:
    """(row, col) tuples of Python ints from parallel index arrays."""
    return list(zip(rows.tolist(), cols.tolist()))


def random_connected_mask(rng: np.random.Generator, n_rows: int, n_cols: int,
                          extra: float = 0.3) -> ObservationMask:
    """Random pattern whose graph is connected.

    A zig-zag chain over shuffled rows and columns guarantees connectivity;
    Bernoulli extras add cycles.
    """
    rows = rng.permutation(n_rows).tolist()
    cols = rng.permutation(n_cols).tolist()
    pairs = set()
    k = min(n_rows, n_cols)
    for s in range(k):
        pairs.add((rows[s], cols[s]))
        if s + 1 < k:
            pairs.add((rows[s + 1], cols[s]))
    for r in rows[k:]:
        pairs.add((r, cols[0]))
    for c in cols[k:]:
        pairs.add((rows[0], c))
    dense = rng.random((n_rows, n_cols)) < extra
    extra_rows, extra_cols = np.nonzero(dense)
    pairs.update(zip(extra_rows.tolist(), extra_cols.tolist()))
    return ObservationMask.from_pairs(n_rows, n_cols, pairs)


def random_mask(rng: np.random.Generator, n_rows: int, n_cols: int,
                p: float) -> ObservationMask:
    """Plain Bernoulli pattern; may be empty or disconnected."""
    dense = rng.random((n_rows, n_cols)) < p
    return ObservationMask.from_dense(dense)


def permuted(mask: ObservationMask, p: np.ndarray, q: np.ndarray):
    """The mask whose cell ``(a, b)`` is the mask's ``(p[a], q[b])``.

    Built from the relabelled, no longer row-major index arrays, so the
    constructor has to restore the canonical order.
    """
    return ObservationMask(mask.n_rows, mask.n_cols,
                           np.argsort(p)[mask.rows], np.argsort(q)[mask.cols])


def random_additive(rng: np.random.Generator, n_rows: int, n_cols: int):
    """Random factors and their induced additive matrix."""
    a = rng.normal(0.0, 1.0, n_rows)
    b = rng.normal(0.0, 1.0, n_cols)
    return a, b, a[:, None] + b[None, :]


def complete_mask(n_rows: int, n_cols: int) -> ObservationMask:
    return ObservationMask.from_dense(np.ones((n_rows, n_cols)))


def chain_mask(n_cols: int) -> ObservationMask:
    """Path graph u_0 - v_0 - u_1 - v_1 - ... - u_n_cols with 2 * n_cols edges."""
    pairs = [(t, t) for t in range(n_cols)] + [(t + 1, t) for t in range(n_cols)]
    return ObservationMask.from_pairs(n_cols + 1, n_cols, pairs)


def did_loop(panel: PanelData, i: int, t: int):
    """Difference-in-differences by scanning ``(t', j)`` over the split masks.

    The per-cell reference for ``did_estimate``/``did_grid``: both arms are
    built as masks and donors are tried in lexicographic order.
    """
    anchored_on_treated = panel.treatment[i, t] == 1
    control, treated = split_masks(panel)
    donor_mask = control if anchored_on_treated else treated
    outcomes = panel.outcomes
    for t_prime in range(panel.n_periods):
        if t_prime == t:
            continue
        if not donor_mask.is_observed(i, t_prime):
            continue
        for j in range(panel.n_units):
            if j == i:
                continue
            if donor_mask.is_observed(j, t_prime) and donor_mask.is_observed(j, t):
                contrast = ((outcomes[i, t] - outcomes[j, t])
                            - (outcomes[i, t_prime] - outcomes[j, t_prime]))
                return float(contrast if anchored_on_treated else -contrast)
    return NO_LENGTH_THREE_PATH


def did_loop_grid(panel: PanelData) -> np.ndarray:
    """:func:`did_loop` over every cell; NaN where unobserved or no donor."""
    grid = np.full(panel.outcomes.shape, np.nan)
    for i in range(panel.n_units):
        for t in range(panel.n_periods):
            if panel.observed[i, t] != 0:
                value = did_loop(panel, i, t)
                if value is not NO_LENGTH_THREE_PATH:
                    grid[i, t] = value
    return grid


def brute_force_min_cut(mask: ObservationMask, i: int, j: int) -> int:
    """Smallest number of edges whose removal disconnects u_i from v_j.

    Exhaustive over subsets in increasing size; only for tiny graphs.
    """
    edges = cells(mask.rows, mask.cols)
    target = mask.n_rows + j

    def connected_without(removed) -> bool:
        adjacency = [[] for _ in range(mask.n_vertices)]
        for edge in edges:
            if edge in removed:
                continue
            u, v = edge[0], mask.n_rows + edge[1]
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = {i}
        stack = [i]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return target in seen

    if not connected_without(frozenset()):
        return 0
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            if not connected_without(frozenset(subset)):
                return size
    raise AssertionError("removing all edges must disconnect the pair")


def _sorted_neighbors(mask: ObservationMask) -> list:
    neighbors = [[] for _ in range(mask.n_vertices)]
    for i, j in cells(mask.rows, mask.cols):
        neighbors[i].append(mask.n_rows + j)
        neighbors[mask.n_rows + j].append(i)
    return [sorted(ns) for ns in neighbors]


def dict_unit_max_flow(mask: ObservationMask, i: int, j: int):
    """Reference max flow with flow kept per arc in a dict.

    Each undirected edge becomes two opposite unit arcs, arcs into the
    source and out of the sink are dropped, and BFS augmentation scans
    neighbors in ascending order; antiparallel flow is cancelled at the end.
    Returns (flow dict on arcs, value).
    """
    source = i
    sink = mask.n_rows + j
    adjacency = _sorted_neighbors(mask)
    flow: dict = {}

    def residual(u: int, v: int) -> int:
        capacity = 0 if (v == source or u == sink) else 1
        return capacity - flow.get((u, v), 0) + flow.get((v, u), 0)

    value = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        reached = False
        while queue and not reached:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent and residual(u, v) > 0:
                    parent[v] = u
                    if v == sink:
                        reached = True
                        break
                    queue.append(v)
        if not reached:
            break
        v = sink
        while parent[v] is not None:
            u = parent[v]
            if flow.get((v, u), 0) > 0:
                flow[(v, u)] -= 1
            else:
                flow[(u, v)] = flow.get((u, v), 0) + 1
            v = u
        value += 1

    for row, col in cells(mask.rows, mask.cols):
        u, v = row, mask.n_rows + col
        delta = min(flow.get((u, v), 0), flow.get((v, u), 0))
        if delta:
            flow[(u, v)] -= delta
            flow[(v, u)] -= delta
    return flow, value


def dict_max_disjoint_paths(mask: ObservationMask, i: int, j: int) -> PathSet:
    """Reference for ``max_disjoint_paths``: walk the dict flow from the
    source, zeroing cycles, and read off ``k`` paths."""
    source, sink = i, mask.n_rows + j
    adjacency = _sorted_neighbors(mask)
    flow, value = dict_unit_max_flow(mask, i, j)
    walks = []
    for _ in range(value):
        walk = [source]
        position = {source: 0}
        while walk[-1] != sink:
            v = next(w for w in adjacency[walk[-1]]
                     if flow.get((walk[-1], w), 0) > 0)
            if v in position:
                start = position[v]
                cycle = walk[start:] + [v]
                for a, b in zip(cycle, cycle[1:]):
                    flow[(a, b)] -= 1
                for w in walk[start + 1:]:
                    del position[w]
                walk = walk[:start + 1]
            else:
                walk.append(v)
                position[v] = len(walk) - 1
        for a, b in zip(walk, walk[1:]):
            flow[(a, b)] -= 1
        walks.append(walk)
    paths = tuple(tuple(v if s % 2 == 0 else v - mask.n_rows
                        for s, v in enumerate(walk)) for walk in walks)
    max_len = max((len(p) - 1 for p in paths), default=0)
    return PathSet(paths=paths, k=value, max_len=max_len, source=i, sink=j)


def dict_min_cut(mask: ObservationMask, i: int, j: int) -> CutCertificate:
    """Reference for ``min_cut``: a second BFS over the dict residual."""
    source, sink = i, mask.n_rows + j
    adjacency = _sorted_neighbors(mask)
    flow, _ = dict_unit_max_flow(mask, i, j)

    def residual(u: int, v: int) -> int:
        capacity = 0 if (v == source or u == sink) else 1
        return capacity - flow.get((u, v), 0) + flow.get((v, u), 0)

    reachable = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in reachable and residual(u, v) > 0:
                reachable.add(v)
                queue.append(v)
    edges = cells(mask.rows, mask.cols)
    cut_edges = [(row, col) for row, col in edges
                 if (row in reachable) != (mask.n_rows + col in reachable)]
    return CutCertificate(left_side=frozenset(reachable),
                          cut_edges=tuple(sorted(cut_edges)))


def bfs_component_ids(mask: ObservationMask) -> tuple[list, int]:
    """Reference for ``connected_components``: BFS from the smallest
    unlabelled vertex; returns (component id per vertex, count)."""
    adjacency = _sorted_neighbors(mask)
    labels = [-1] * mask.n_vertices
    count = 0
    for start in range(mask.n_vertices):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            for v in adjacency[queue.popleft()]:
                if labels[v] < 0:
                    labels[v] = count
                    queue.append(v)
        count += 1
    return labels, count


def pseudo_inverse(core: SpectralCore) -> np.ndarray:
    """The full ``L^+`` of a core, materialised by solving for the identity."""
    return core.solve(np.eye(core.n_vertices))
