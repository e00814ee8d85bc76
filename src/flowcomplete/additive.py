"""Estimators for additive matrices (entry = row effect + column effect).

Two equivalent routes are implemented and kept separate so each can check
the other: the per-entry flow route weighs observations by the unit
electrical current between ``u_i`` and ``v_j``, while the factor route
solves the masked least-squares problem in closed form with one product
with the Laplacian pseudoinverse (a Kron-reduced block per component).  Both
are exactly unbiased under zero-mean noise, and the per-entry variance
certificate is the effective resistance.  Every function that reads the
pseudoinverse takes the pattern's :class:`SpectralCore`, which carries its
mask and is built once per pattern and reused across data sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .electrical import electrical_flow, verify_unit_flow, voltage_vector
from .errors import InvalidFlowError
from .graph import (
    ObservationMask,
    check_noise,
    checked_vec_omega,
    divergence,
    incidence_matrix,
    validate_path,
    vec_omega,
)
from .spectral import SpectralCore


@dataclass(frozen=True)
class AdditiveModel:
    """Latent factors of an additive matrix: ``M[i, j] = a[i] + b[j]``."""

    row_effects: np.ndarray
    col_effects: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_effects",
                           np.asarray(self.row_effects, dtype=float))
        object.__setattr__(self, "col_effects",
                           np.asarray(self.col_effects, dtype=float))

    def matrix(self) -> np.ndarray:
        return self.row_effects[:, None] + self.col_effects[None, :]

    def entry(self, i: int, j: int) -> float:
        return float(self.row_effects[i] + self.col_effects[j])


@dataclass(frozen=True)
class EstimateReport:
    """Per-entry estimates with identifiability and error certificates.

    Unidentifiable entries (row and column in different components) carry
    ``nan`` in ``estimates``, ``inf`` in ``effective_resistances``, and
    ``False`` in ``identifiable``.  The bound matrices are present only
    when the caller supplied the noise scale (and confidence level).
    """

    estimates: np.ndarray
    effective_resistances: np.ndarray
    identifiable: np.ndarray
    variance_bounds: np.ndarray | None = None
    high_prob_bounds: np.ndarray | None = None


def path_estimate_additive(path, data, mask: ObservationMask) -> float:
    """Alternating sum of observations along a connecting path.

    Observations on row-to-column steps are added and those on
    column-to-row steps subtracted, so intermediate factors cancel.
    ``data`` must have the mask's shape.
    """
    validate_path(path, mask)
    arr = np.asarray(data, dtype=float)
    vec_omega(mask, arr)  # rejects a grid of another shape
    total = 0.0
    for s in range(0, len(path) - 1, 2):
        total += arr[path[s], path[s + 1]]
    for s in range(2, len(path) - 1, 2):
        total -= arr[path[s], path[s - 1]]
    return float(total)


def unit_flow_estimate(flow, data, mask: ObservationMask) -> float:
    """Inner product of a valid unit flow with the observation vector."""
    if not verify_unit_flow(flow, mask, flow.source, flow.sink):
        raise InvalidFlowError("flow violates unit-flow constraints")
    observations = vec_omega(mask, data)
    support = np.abs(flow.values) > 0
    if not np.all(np.isfinite(observations[support])):
        raise InvalidFlowError("data missing on the support of the flow")
    return float(np.dot(flow.values, np.where(support, observations, 0.0)))


def efe_entry(core: SpectralCore, data, i: int, j: int) -> float:
    """Electrical-flow estimate of a single entry (per-edge inner product).

    ``data`` must have the pattern's shape and be finite at every observed
    cell, as for :func:`lse_factors`.
    """
    flow = electrical_flow(core, i, j)
    return float(np.dot(flow.values, checked_vec_omega(core.mask, data)))


def observation_factors(core: SpectralCore,
                        observations) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares factors of observations in canonical edge order.

    ``(n_observed,)`` observations give ``(n,)`` and ``(m,)`` factors;
    ``(n_observed, k)`` ones, one data set per column, give ``(n, k)`` and
    ``(m, k)`` factors from one solve with the pseudoinverse, which is what
    makes Monte-Carlo loops over fresh noise cheap.  Values are not checked
    here.
    """
    n = core.mask.n_rows
    stacked = core.solve(divergence(core.mask, observations))  # [a; -b]
    return stacked[:n], -stacked[n:]


def lse_factors(core: SpectralCore, data) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-Euclidean-norm least-squares factors for the observed data.

    ``data`` must have the pattern's shape and be finite at every observed
    cell (a ``ValueError`` names the first cell that is not); values at
    unobserved cells are ignored.  Only the sums ``a[i] + b[j]`` within a
    connected component are identified; the returned gauge is the min-norm
    one.
    """
    return observation_factors(core, checked_vec_omega(core.mask, data))


def efe_full(core: SpectralCore, data, sigma: float | None = None,
             delta: float | None = None) -> EstimateReport:
    """Estimate every entry of ``core``'s pattern per connected component.

    The variance bounds need ``sigma`` and the high-probability bounds also
    ``delta``; each is checked whenever it is given.
    """
    check_noise(sigma, delta)
    a_hat, b_hat = lse_factors(core, data)
    resist = core.resistances
    identifiable = np.isfinite(resist)
    variance = high_prob = None
    if sigma is not None:
        variance = sigma ** 2 * resist
        if delta is not None:
            n, m = core.mask.n_rows, core.mask.n_cols
            high_prob = 2.0 * sigma ** 2 * resist * math.log(2 * n * m / delta)
    return EstimateReport(
        estimates=np.where(identifiable, a_hat[:, None] + b_hat[None, :], np.nan),
        effective_resistances=resist, identifiable=identifiable,
        variance_bounds=variance, high_prob_bounds=high_prob)


def verify_equivalence(core: SpectralCore, data, tol: float = 1e-8) -> bool:
    """Check the flow route against the factor route on all connected pairs.

    The flow side materializes the per-edge electrical current of each
    entry and dots it with the observations; the factor side sums the
    closed-form least-squares factors.
    """
    mask = core.mask
    observations = checked_vec_omega(mask, data)
    a_hat, b_hat = observation_factors(core, observations)
    # B L^+: column v holds every edge's current for a unit injection at v
    currents = core.solve(incidence_matrix(mask).T).T
    for i, j in zip(*np.nonzero(np.isfinite(core.resistances))):
        flow_values = currents[:, i] - currents[:, mask.n_rows + j]
        flow_est = float(np.dot(flow_values, observations))
        if abs(flow_est - (a_hat[i] + b_hat[j])) > tol:
            return False
    return True


def hard_instance_additive(base: AdditiveModel, core: SpectralCore,
                           i: int, j: int, epsilon: float) -> AdditiveModel:
    """Alternative additive model that is hard to tell apart from ``base``.

    Shifts the factors along the voltage vector of the (i, j) unit current:
    the two models then differ by ``epsilon * R(u_i, v_j)`` at the target
    entry while their squared difference over the observed entries is only
    ``epsilon**2 * R(u_i, v_j)``.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    voltage = voltage_vector(core, i, j)
    n = core.mask.n_rows
    return AdditiveModel(
        row_effects=base.row_effects + epsilon * voltage.potentials[:n],
        col_effects=base.col_effects - epsilon * voltage.potentials[n:])


def estimate_noise_variance(core: SpectralCore, data) -> float:
    """Residual-based noise variance with degrees-of-freedom correction.

    A convenience beyond the estimator itself: divides the least-squares
    residual sum of squares by ``n_e - (n + m - n_components)``.
    """
    mask = core.mask
    observations = checked_vec_omega(mask, data)
    a_hat, b_hat = observation_factors(core, observations)
    residuals = observations - (a_hat[mask.rows] + b_hat[mask.cols])
    dof = mask.n_observed - (mask.n_rows + mask.n_cols
                             - core.components.component_count)
    if dof <= 0:
        raise ValueError("no residual degrees of freedom on this pattern")
    return float(np.sum(residuals ** 2) / dof)
