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

from .errors import DegenerateDenominatorError, DisconnectedPairError, NoPathError
from .graph import (ObservationMask, check_noise, checked_vec_omega,
                    validate_path, vec_omega)
from .maxflow import PathSet, _flow_plan, min_cut

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


def path_alpha_beta(path, data, mask: ObservationMask) -> PathStatistics:
    """Products of forward (row->col) and backward (col->row) observations.

    A length-1 path has an empty backward product, so ``beta == 1``.  The
    path must be observed in ``mask`` and ``data`` have its shape.  Each
    product is taken left to right in Python floats, so one beyond the
    double range is ``inf``, with no warning.
    """
    run = validate_path(path, mask)
    observations = vec_omega(mask, data)[run].tolist()  # y_Ω in walk order
    return PathStatistics(alpha=math.prod(observations[0::2], start=1.0),
                          beta=math.prod(observations[1::2], start=1.0),
                          length=len(run))


def _estimates(observations: np.ndarray, plan) -> tuple[np.ndarray, np.ndarray]:
    """Ratio estimates (``nan`` where degenerate) and mean denominators,
    ``(sets, data sets)``, of the path sets of a gather plan
    (:func:`~flowcomplete.graph._path_cells`) from ``(edges, data sets)``
    observations in edge order: bit for bit the scalar loop over
    :func:`path_alpha_beta` per data set (products and sums in path order,
    ``beta ** 2`` as libm's ``pow``), the ``rank``-th paths of all sets at
    once, each along its run of steps (even ones into alpha, odd into beta)."""
    _, counts, _, sizes, run = plan
    path_at = np.cumsum(counts) - counts  # each set's first path
    edge_at = np.cumsum(sizes) - sizes  # each path's first step in the run
    numerator, denominator = np.zeros((2, len(counts), observations.shape[1]))
    buffer = np.empty((2, np.count_nonzero(counts), observations.shape[1]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rank in range(counts.max(initial=0)):
            paths = path_at[counts > rank] + rank  # the rank-th of each set
            alpha, beta = products = buffer[:, :len(paths)]
            products.fill(1.0)
            steps, at = sizes[paths], edge_at[paths]
            for position in range(steps.max(initial=0)):  # in place, ended paths kept
                factor = products[position % 2]
                np.multiply(factor, observations[run.take(at + position, mode="clip")],
                            out=factor, where=(steps > position)[:, None])
            numerator[counts > rank] += np.multiply(alpha, beta, out=alpha)
            denominator[counts > rank] += np.float_power(beta, 2, out=beta)
        buffer = products = alpha = beta = factor = None  # freed before the quotient
        denominator /= counts[:, None]
        quotient = numerator / counts[:, None] / denominator
    degenerate = ~(np.isfinite(quotient) & (denominator >= DENOMINATOR_FLOOR)
                   & np.isfinite(denominator))
    return np.where(degenerate, np.nan, quotient), denominator


def rank1_entry(path_set: PathSet, data) -> float:
    """Stabilized multi-path ratio estimate of the path set's entry.

    Raises :class:`NoPathError` when the path set is empty and
    :class:`DegenerateDenominatorError` when the averaged squared backward
    product falls below ``DENOMINATOR_FLOOR`` or a path product or the
    ratio overflows.  ``data`` is checked against ``path_set.mask`` as in
    :func:`rank1_full`.
    """
    entry = (path_set.source, path_set.sink)
    if path_set.k == 0:
        raise NoPathError(f"no connecting path for entry {entry}")
    observations = checked_vec_omega(path_set.mask, data)[:, None]
    ((estimate,),), ((denominator,),) = _estimates(observations, path_set._cells)
    if math.isnan(estimate):
        reason = ("path products overflow" if denominator >= DENOMINATOR_FLOOR
                  else f"denominator {denominator:.3e} below {DENOMINATOR_FLOOR}")
        raise DegenerateDenominatorError(f"{reason} for entry {entry}")
    return float(estimate)


def rank1_full(mask: ObservationMask, data) -> Rank1Report:
    """Ratio estimates of every entry, with per-entry (k, max_len) recorded.

    ``data`` must have the mask's shape and be finite at every observed cell
    (a ``ValueError`` names the first cell that is not); values at
    unobserved cells are ignored.  Path sets are computed independently per
    entry from the same graph.
    """
    observations = checked_vec_omega(mask, data)
    shape = (mask.n_rows, mask.n_cols)
    plan = _flow_plan(mask, np.ndindex(shape))  # row-major: set s is entry s
    estimates, path_counts, max_lens = (per_set.reshape(shape) for per_set in (
        _estimates(observations[:, None], plan)[0], plan[1], plan[2]))
    return Rank1Report(estimates=estimates, identifiable=path_counts > 0,
                       path_counts=path_counts, max_lens=max_lens,
                       degenerate=(path_counts > 0) & np.isnan(estimates))


def rank1_error_bound(k, max_len, sigma: float, m_inf: float,
                      n_rows: int, n_cols: int, delta: float,
                      constant: float = 1.0):
    """High-probability error bound for the multi-path ratio estimate.

    Evaluates ``C * sigma**L * (1 + m_inf**L) * sqrt(2**L *
    log(nm/delta)**(L+1) / K)``; the leading constant is caller-supplied.
    ``k`` and ``max_len`` may be arrays of one shape, one bound per entry;
    a bound beyond the double range is ``inf`` (``nan`` at ``0 * inf``).
    """
    if np.any(k < 1):
        raise ValueError("k must be at least 1")
    check_noise(sigma, delta)
    log_term = math.log(n_rows * n_cols / delta)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (constant * np.float_power(sigma, max_len)
                 * (1.0 + np.float_power(m_inf, max_len))
                 * np.sqrt(np.float_power(2.0, max_len)
                           * np.float_power(log_term, max_len + 1) / k))
    return bound if bound.ndim else float(bound)


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
    certificate = min_cut(mask, i, j)
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
