"""Ratio-on-path estimation for rank-1 matrices.

Along a connecting path, the product of row-to-column observations divided
by the product of column-to-row observations telescopes to the target
product of factors.  Multiple edge-disjoint paths are combined by a
stabilized ratio of averages: the numerator collects ``alpha * beta`` per
path and the denominator ``beta**2``, which keeps the denominator bounded
away from zero with high probability once enough paths are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DisconnectedPairError,
    InvalidPathError,
    NoPathError,
)
from .graph import ObservationMask, build_graph, checked_vec_omega, validate_path
from .maxflow import PathSet, max_disjoint_paths, min_cut

DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class RankOneModel:
    """Latent factors of a rank-1 matrix: ``M[i, j] = a[i] * b[j]``."""

    row_factors: np.ndarray
    col_factors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_factors",
                           np.asarray(self.row_factors, dtype=float))
        object.__setattr__(self, "col_factors",
                           np.asarray(self.col_factors, dtype=float))

    def matrix(self) -> np.ndarray:
        return np.outer(self.row_factors, self.col_factors)

    def entry(self, i: int, j: int) -> float:
        return float(self.row_factors[i] * self.col_factors[j])


@dataclass(frozen=True)
class PathStatistics:
    """Forward and backward observation products along one path."""

    alpha: float
    beta: float
    length: int


@dataclass(frozen=True)
class Rank1Report:
    """Per-entry ratio estimates with path-count certificates.

    ``estimates`` is ``nan`` where the entry is unidentifiable (no path) or
    where the denominator collapsed; the two cases are told apart by
    ``identifiable`` and ``degenerate``.
    """

    estimates: np.ndarray
    identifiable: np.ndarray
    path_counts: np.ndarray
    max_lens: np.ndarray
    degenerate: np.ndarray


def _path_products(arr: np.ndarray, path) -> tuple[float, float]:
    """Forward (row->col) and backward (col->row) products along ``path``."""
    alpha = 1.0
    for s in range(0, len(path) - 1, 2):
        alpha *= arr[path[s], path[s + 1]]
    beta = 1.0
    for s in range(2, len(path) - 1, 2):
        beta *= arr[path[s], path[s - 1]]
    return float(alpha), float(beta)


def path_alpha_beta(path, data, mask: ObservationMask | None = None) -> PathStatistics:
    """Products of forward (row->col) and backward (col->row) observations.

    A length-1 path has an empty backward product, so ``beta == 1``.
    """
    if mask is not None:
        validate_path(path, mask)
    elif len(path) < 2 or len(path) % 2 != 0:
        raise InvalidPathError("path must have an odd number of edges")
    alpha, beta = _path_products(np.asarray(data, dtype=float), path)
    return PathStatistics(alpha=alpha, beta=beta, length=len(path) - 1)


def _ratio(arr: np.ndarray, path_set: PathSet) -> float:
    """Stabilized ratio over a non-empty set of already validated paths."""
    with np.errstate(over="ignore", invalid="ignore"):
        products = [_path_products(arr, path) for path in path_set.paths]
    numerator = sum(alpha * beta for alpha, beta in products) / path_set.k
    try:
        denominator = sum(beta ** 2 for _, beta in products) / path_set.k
    except OverflowError:
        denominator = math.inf
    entry = (path_set.source, path_set.sink)
    if not (math.isfinite(numerator) and math.isfinite(denominator)):
        raise DegenerateDenominatorError(
            f"path products overflow for entry {entry}")
    if denominator < DENOMINATOR_FLOOR:
        raise DegenerateDenominatorError(
            f"denominator {denominator:.3e} below {DENOMINATOR_FLOOR} "
            f"for entry {entry}")
    return float(numerator / denominator)


def _validated(mask: ObservationMask, path_set: PathSet) -> PathSet:
    for path in path_set.paths:
        validate_path(path, mask)
    return path_set


def _path_sets(mask: ObservationMask, entries) -> dict:
    """Entry -> its maximum edge-disjoint path set, each path validated."""
    graph = build_graph(mask)
    return {(i, j): _validated(mask, max_disjoint_paths(graph, i, j))
            for i, j in entries}


def rank1_entry(mask: ObservationMask, data, i: int, j: int,
                path_set: PathSet) -> float:
    """Stabilized multi-path ratio estimate of entry ``(i, j)``.

    Raises :class:`NoPathError` when the path set is empty and
    :class:`DegenerateDenominatorError` when the averaged squared backward
    product falls below ``DENOMINATOR_FLOOR`` or a path product overflows.
    """
    if path_set.k == 0:
        raise NoPathError(f"no connecting path for entry {(i, j)}")
    if path_set.source != i or path_set.sink != j:
        raise ValueError("path set endpoints do not match the requested entry")
    return _ratio(np.asarray(data, dtype=float), _validated(mask, path_set))


def rank1_full(mask: ObservationMask, data) -> Rank1Report:
    """Ratio estimates of every entry, with per-entry (k, max_len) recorded.

    ``data`` must have the mask's shape and be finite at every observed cell
    (a ``ValueError`` names the first cell that is not); values at
    unobserved cells are ignored.  Path sets are computed independently per
    entry from the same graph.
    """
    arr = np.asarray(data, dtype=float)
    checked_vec_omega(mask, arr)
    n, m = mask.n_rows, mask.n_cols
    estimates = np.full((n, m), np.nan)
    identifiable = np.zeros((n, m), dtype=bool)
    path_counts = np.zeros((n, m), dtype=int)
    max_lens = np.zeros((n, m), dtype=int)
    degenerate = np.zeros((n, m), dtype=bool)
    entries = [(i, j) for i in range(n) for j in range(m)]
    for (i, j), path_set in _path_sets(mask, entries).items():
        path_counts[i, j] = path_set.k
        max_lens[i, j] = path_set.max_len
        if path_set.k == 0:
            continue
        identifiable[i, j] = True
        try:
            estimates[i, j] = _ratio(arr, path_set)
        except DegenerateDenominatorError:
            degenerate[i, j] = True
    return Rank1Report(estimates=estimates, identifiable=identifiable,
                       path_counts=path_counts, max_lens=max_lens,
                       degenerate=degenerate)


def rank1_error_bound(k: int, max_len: int, sigma: float, m_inf: float,
                      n_rows: int, n_cols: int, delta: float,
                      constant: float = 1.0) -> float:
    """High-probability error bound for the multi-path ratio estimate.

    Evaluates ``C * sigma**L * (1 + m_inf**L) * sqrt(2**L *
    log(nm/delta)**(L+1) / K)``; the leading constant is caller-supplied.
    A bound beyond the floating-point range is returned as ``inf``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    log_term = math.log(n_rows * n_cols / delta)
    try:
        return float(constant * sigma ** max_len * (1.0 + m_inf ** max_len)
                     * math.sqrt(2.0 ** max_len * log_term ** (max_len + 1) / k))
    except OverflowError:  # a float power beyond the double range
        return math.inf


def hard_instance_rank1(mask: ObservationMask, i: int, j: int,
                        epsilon: float) -> tuple[RankOneModel, RankOneModel]:
    """Pair of rank-1 models separated only across a minimum cut.

    The first model has all factors ``epsilon``; the second flips the sign
    of every factor on the far side of a minimum (i, j) edge cut.  The two
    models agree on every observed entry except the cut edges (one per
    disjoint path) and still differ at the target entry.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    graph = build_graph(mask)
    certificate = min_cut(graph, i, j)
    if not certificate.cut_edges:
        raise DisconnectedPairError(
            f"row {i} and column {j} are not connected")
    n, m = mask.n_rows, mask.n_cols
    base = RankOneModel(row_factors=np.full(n, epsilon),
                        col_factors=np.full(m, epsilon))
    signs = np.full(n + m, -1.0)
    signs[list(certificate.left_side)] = 1.0
    flipped = RankOneModel(row_factors=epsilon * signs[:n],
                           col_factors=epsilon * signs[n:])
    return base, flipped
