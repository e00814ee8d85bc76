"""Independent reference answers and output checks.

Nothing here imports ``flowcomplete``: every expected value is recomputed
from the benchmark's own inputs with numpy and scipy, so a defect in the
program cannot hide in its own reference.  Checks compare with tolerances,
never byte for byte, so a change in the last bits of a float still passes.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_flow, shortest_path

# Estimates and resistances must match masked least squares this closely.
FLOAT_TOL = 1e-8


@dataclass(frozen=True)
class Additive:
    """Masked least-squares fit of ``a[i] + b[j]`` on one observation pattern.

    ``estimates`` is NaN and ``resistance`` inf where row and column lie in
    different components.
    """

    estimates: np.ndarray
    resistance: np.ndarray
    identifiable: np.ndarray
    components: int
    largest: int


def _bipartite(n: int, m: int, rows, cols) -> csr_matrix:
    """Adjacency of the row/column graph; rows are 0..n-1, columns n..n+m-1."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64) + n
    ones = np.ones(2 * rows.size, dtype=np.int32)
    return coo_matrix((ones, (np.concatenate([rows, cols]),
                              np.concatenate([cols, rows]))),
                      shape=(n + m, n + m)).tocsr()


def additive(n: int, m: int, rows, cols, values) -> Additive:
    """Least squares per component through the grounded Laplacian inverse.

    For a connected component with vertex set ``c`` the pseudoinverse of its
    Laplacian is ``inv(L_c + 11'/|c|) - 11'/|c|``; the minimum-norm solution
    of ``L z = B'y`` then gives ``estimate(i, j) = z_i - z_{n+j}`` and the
    effective resistance ``P_ii + P_jj - 2 P_ij``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    count, labels = connected_components(_bipartite(n, m, rows, cols),
                                         directed=False)
    degree = np.bincount(rows, minlength=n).astype(float)
    degree = np.concatenate([degree, np.bincount(cols, minlength=m)])
    rhs = np.concatenate([np.bincount(rows, values, minlength=n),
                          -np.bincount(cols, values, minlength=m)])
    estimates = np.full((n, m), np.nan)
    resistance = np.full((n, m), np.inf)
    for cid in range(count):
        members = np.flatnonzero(labels == cid)
        row_members = members[members < n]
        col_members = members[members >= n]
        if not row_members.size or not col_members.size:
            continue
        local = np.full(n + m, -1)
        local[members] = np.arange(members.size)
        inside = labels[rows] == cid
        u, v = local[rows[inside]], local[cols[inside] + n]
        size = members.size
        lap = np.full((size, size), 1.0 / size)
        lap[np.diag_indices(size)] += degree[members]
        np.subtract.at(lap, (u, v), 1.0)
        np.subtract.at(lap, (v, u), 1.0)
        pinv = np.linalg.inv(lap) - 1.0 / size
        z = pinv @ rhs[members]
        r_loc, c_loc = local[row_members], local[col_members]
        block = np.ix_(row_members, col_members - n)
        estimates[block] = z[r_loc][:, None] - z[c_loc][None, :]
        diag = np.diag(pinv)
        resistance[block] = (diag[r_loc][:, None] + diag[c_loc][None, :]
                             - 2.0 * pinv[np.ix_(r_loc, c_loc)])
    sizes = np.bincount(labels)
    return Additive(estimates=estimates, resistance=resistance,
                    identifiable=np.isfinite(resistance), components=count,
                    largest=int(sizes.max()))


@dataclass(frozen=True)
class RankOne:
    """Connectivity, max-flow path counts and shortest path lengths."""

    identifiable: np.ndarray
    k: np.ndarray
    distance: np.ndarray
    components: int
    largest: int


def rank_one(n: int, m: int, rows, cols) -> RankOne:
    """Max-flow value between every row and column, by scipy's max flow.

    Each observed cell is an undirected unit-capacity edge, i.e. two
    opposite unit arcs, so the flow value is the number of edge-disjoint
    row-to-column paths (Menger).
    """
    graph = _bipartite(n, m, rows, cols)
    count, labels = connected_components(graph, directed=False)
    identifiable = labels[:n, None] == labels[None, n:]
    hops = shortest_path(graph, unweighted=True, indices=np.arange(n))[:, n:]
    k = np.zeros((n, m), dtype=int)
    for i, j in zip(*np.nonzero(identifiable)):
        k[i, j] = maximum_flow(graph, int(i), int(n + j)).flow_value
    return RankOne(identifiable=identifiable, k=k, distance=hops,
                   components=count, largest=int(np.bincount(labels).max()))


def did(outcomes, treatment, observed):
    """Difference-in-differences with the smallest ``(t', j)`` donor.

    For a target ``(i, t)`` the donor arm is the one the target is not in;
    the donor is the lexicographically smallest ``(t', j)`` with ``t' != t``,
    ``j != i`` and ``(i, t')``, ``(j, t')``, ``(j, t)`` all in the donor
    arm.  Returns NaN where the cell is unobserved or has no donor.
    """
    y = np.asarray(outcomes, dtype=float)
    treated = (np.asarray(observed) != 0) & (np.asarray(treatment) == 1)
    control = (np.asarray(observed) != 0) & (np.asarray(treatment) == 0)
    n_units, n_periods = y.shape
    result = np.full(y.shape, np.nan)
    units = np.arange(n_units)
    # a treated target takes its donors from the control arm and the reverse
    for target_arm, arm, sign in ((treated, control, 1.0),
                                  (control, treated, -1.0)):
        # shared[t, t', j]: unit j is in the donor arm at both t and t'
        shared = arm.T[:, None, :] & arm.T[None, :, :]
        for t in range(n_periods):
            for i in units[target_arm[:, t]]:
                donors = shared[t] & (units != i)[None, :] & arm[i][:, None]
                donors[t] = False
                hit = np.flatnonzero(donors.any(axis=1))
                if not hit.size:
                    continue
                tp = hit[0]
                j = np.flatnonzero(donors[tp])[0]
                contrast = (y[i, t] - y[j, t]) - (y[i, tp] - y[j, tp])
                result[i, t] = sign * contrast
    return result


def grid(payload_rows) -> np.ndarray:
    """JSON nested list (``None`` for missing) to a float array with NaN."""
    return np.array([[math.nan if v is None else v for v in row]
                     for row in payload_rows], dtype=float)


def compare(name: str, got, want, tol: float = FLOAT_TOL) -> list[str]:
    """Missing cells (NaN) must coincide; the rest must agree within ``tol``
    absolutely or relative to ``want``."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    present = ~np.isnan(want)
    wrong = np.flatnonzero((~np.isnan(got)) != present)
    if wrong.size:
        cell = np.unravel_index(wrong[0], want.shape)
        return [f"{name}: {wrong.size} cells present/missing wrongly, "
                f"first {tuple(int(c) for c in cell)}"]
    diff = np.abs(got[present] - want[present])
    limit = tol * np.maximum(1.0, np.abs(want[present]))
    if np.any(diff > limit):
        return [f"{name}: max deviation {float(diff.max()):.3e} > {tol:g}"]
    return []


def compare_exact(name: str, got, want) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    wrong = np.argwhere(got != want)
    if wrong.size:
        return [f"{name}: {len(wrong)} cells differ, first "
                f"{tuple(int(c) for c in wrong[0])}"]
    return []


def load_json(path) -> dict:
    with open(path) as handle:
        return json.load(handle)
