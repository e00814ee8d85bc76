"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import errno
import math
import operator
import os
from array import array
from collections import deque
from itertools import combinations, count

import numpy as np
import pytest

from flowcomplete import (
    CutCertificate,
    ObservationMask,
    PanelData,
    PathSet,
    SpectralCore,
    max_disjoint_paths,
    split_masks,
)
from flowcomplete.additive import _scaled, _unscaled
from flowcomplete.rank1 import DENOMINATOR_FLOOR


def laplacian(mask: ObservationMask) -> np.ndarray:
    """Dense graph Laplacian (degree matrix minus adjacency); row sums are
    zero.  The V x V reference for the Kron-block core."""
    lap = np.zeros((mask.n_vertices, mask.n_vertices))
    a, b = mask.rows, mask.n_rows + mask.cols
    lap[a, b] = lap[b, a] = -1.0
    lap[np.diag_indices(mask.n_vertices)] = np.bincount(
        np.concatenate([a, b]), minlength=mask.n_vertices)
    return lap


def incidence_matrix(mask: ObservationMask) -> np.ndarray:
    """Dense oriented incidence, one row per edge in canonical order: +1 at
    the row endpoint, -1 at the column endpoint.  The reference for the
    matrix-free ``gradient`` and ``divergence``."""
    b = np.zeros((mask.n_observed, mask.n_vertices))
    positions = np.arange(mask.n_observed)
    b[positions, mask.rows] = 1.0
    b[positions, mask.n_rows + mask.cols] = -1.0
    return b


def is_observed(mask: ObservationMask, i: int, j: int) -> bool:
    """Whether ``(i, j)`` lies inside the pattern's shape and is observed."""
    return (0 <= i < mask.n_rows and 0 <= j < mask.n_cols
            and bool(mask.grid[i, j]))


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

    The per-cell reference for ``did_grid``: both arms are built as masks
    and donors are tried in lexicographic order.  ``None`` where no donor
    exists.
    """
    anchored_on_treated = panel.treatment[i, t] == 1
    control, treated = split_masks(panel)
    donor_mask = control if anchored_on_treated else treated
    outcomes = panel.outcomes
    for t_prime in range(panel.n_periods):
        if t_prime == t:
            continue
        if not is_observed(donor_mask, i, t_prime):
            continue
        for j in range(panel.n_units):
            if j == i:
                continue
            if (is_observed(donor_mask, j, t_prime)
                    and is_observed(donor_mask, j, t)):
                contrast = ((outcomes[i, t] - outcomes[j, t])
                            - (outcomes[i, t_prime] - outcomes[j, t_prime]))
                return float(contrast if anchored_on_treated else -contrast)
    return None


def did_loop_grid(panel: PanelData) -> np.ndarray:
    """:func:`did_loop` over every cell; NaN where unobserved or no donor."""
    grid = np.full(panel.outcomes.shape, np.nan)
    for i in range(panel.n_units):
        for t in range(panel.n_periods):
            if panel.observed[i, t] != 0:
                value = did_loop(panel, i, t)
                if value is not None:
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
    return PathSet(paths=paths, source=i, sink=j, mask=mask)


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


def path_walk(arr: np.ndarray, path) -> tuple[list, list]:
    """The observations of ``path`` read off the grid ``arr`` by its indices:
    its forward (row->col) steps, then its backward (col->row) ones, each in
    walk order, as numpy scalars.  The reference for the edge-id run."""
    forward = [arr[path[s], path[s + 1]] for s in range(0, len(path) - 1, 2)]
    backward = [arr[path[s], path[s - 1]] for s in range(2, len(path) - 1, 2)]
    return forward, backward


def path_products(arr: np.ndarray, path) -> tuple[float, float]:
    """Reference for ``path_alpha_beta``: the forward and backward products
    of :func:`path_walk`, each from 1.0, left to right, in numpy scalars (so
    an overflow warns unless an ``errstate`` guards it)."""
    alpha = beta = np.float64(1.0)
    forward, backward = path_walk(arr, path)
    for value in forward:
        alpha *= value
    for value in backward:
        beta *= value
    return float(alpha), float(beta)


def path_sum(arr: np.ndarray, path) -> float:
    """Reference for ``path_estimate_additive``: the forward observations of
    :func:`path_walk`, then its backward ones negated, added left to right
    in the units of ``additive._scaled``."""
    forward, backward = path_walk(arr, path)
    values, shift = _scaled(np.array(forward + [-value for value in backward]))
    total = 0.0
    for value in values:
        total += value
    return float(_unscaled(total, shift))


def scalar_ratio(arr: np.ndarray, path_set: PathSet) -> float:
    """Reference for the gathered rank-1 ratio: the per-path loop over
    :func:`path_products`, terms added left to right, ``beta ** 2`` as the
    scalar power; ``nan`` where the set is empty or degenerate."""
    numerator = denominator = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for path in path_set.paths:
            alpha, beta = path_products(arr, path)
            numerator += alpha * beta
            try:
                denominator += beta ** 2
            except OverflowError:
                denominator = math.inf
    if path_set.k == 0:
        return math.nan
    numerator /= path_set.k
    denominator /= path_set.k
    if denominator < DENOMINATOR_FLOOR:
        return math.nan
    estimate = numerator / denominator
    if not (math.isfinite(estimate) and math.isfinite(denominator)):
        return math.nan
    return estimate


def first_bad_path(paths, source: int, sink: int, mask: ObservationMask):
    """Reference for the path check: the per-path loop that ``PathSet`` ran
    before paths were checked a set at a time.  Returns ``(index, check)`` of
    the first failing path, the check named as in its message, or ``None``."""
    used: set = set()  # (row, col) cells: the edges of earlier paths
    for index, path in enumerate(paths):
        if len(path) < 2 or len(path) % 2 != 0:
            return index, "odd number of edges"
        try:
            rows = list(map(operator.index, path[0::2]))
            cols = list(map(operator.index, path[1::2]))
        except TypeError:
            return index, "non-integer index"
        if not (all(0 <= i < mask.n_rows for i in rows)
                and all(0 <= j < mask.n_cols for j in cols)):
            return index, "out of bounds"
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            return index, "revisits"
        edges = {*zip(rows, cols), *zip(rows[1:], cols)}
        if not all(mask.grid[edge] for edge in edges):
            return index, "unobserved"
        if (rows[0], cols[-1]) != (source, sink):
            return index, "does not join entry"
        if not used.isdisjoint(edges):
            return index, "shares an edge"
        used |= edges
    return None


def tuple_path_cells(path_sets, mask: ObservationMask) -> tuple:
    """Reference for the gather plan: read from path sets one at a time, each
    also checked by :func:`first_bad_path`; per set its flat entry, path count
    and longest path; per path its edge count; and the edge ids (by a cell
    dictionary) of every step of every path, in walk order."""
    per_set, sizes, run = array("q"), array("i"), array("i")
    edge_of = {cell: e for e, cell in enumerate(zip(mask.rows.tolist(),
                                                    mask.cols.tolist()))}
    for path_set in path_sets:
        assert first_bad_path(path_set.paths, path_set.source, path_set.sink,
                              path_set.mask) is None
        per_set.extend((path_set.source * mask.n_cols + path_set.sink,
                        path_set.k, path_set.max_len))
        for path in path_set.paths:
            sizes.append(len(path) - 1)
            for s in range(len(path) - 1):  # a row at every even place
                step = path[s:s + 2]
                run.append(edge_of[step if s % 2 == 0 else step[::-1]])
    return (*np.frombuffer(per_set, dtype=np.int64).reshape(-1, 3).T,
            np.frombuffer(sizes, dtype=np.intc), np.frombuffer(run, dtype=np.intc))


def path_set_plan(mask: ObservationMask, entries) -> tuple:
    """The gather plan of ``entries`` by way of one checked ``PathSet`` each."""
    return tuple_path_cells((max_disjoint_paths(mask, i, j) for i, j in entries),
                            mask)


def forked_parts(monkeypatch, cpus: int, fail_at: int | None = None) -> list:
    """Make ``cpus`` CPUs usable to ``fork_join``; returns the list that
    collects the pid of every child forked from then on.  The ``fail_at``-th
    call of ``os.fork`` from then on (1-based) raises ``EAGAIN``, as when no
    process can be spared.  Skips the test where parts are never forked (no
    ``os.sched_getaffinity``)."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("forked parts need Linux")
    forks, fork, calls = [], os.fork, count(1)

    def counted():
        if next(calls) == fail_at:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return forks


def assert_no_child_left():
    """Every forked child is reaped: there is none left to wait for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process is left")


def benchmark_mask(seed: int, n: int = 56, cells: int = 384) -> ObservationMask:
    """``cells`` distinct uniform cells of an ``n x n`` pattern, as the
    benchmark's rank-1 input draws them."""
    flat = np.sort(np.random.default_rng(seed).choice(n * n, cells, replace=False))
    return ObservationMask.from_pairs(n, n, list(zip((flat // n).tolist(),
                                                     (flat % n).tolist())))
