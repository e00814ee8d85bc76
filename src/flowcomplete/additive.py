"""Estimators for additive matrices (entry = row effect + column effect).

Two equivalent routes are implemented and kept separate so each can check
the other: the per-entry flow route weighs observations by the unit
electrical current between ``u_i`` and ``v_j``, while the factor route
solves the masked least-squares problem in closed form with one product
with the Laplacian pseudoinverse (a Kron-reduced block per component).  Both
are exactly unbiased under zero-mean noise, and the per-entry variance
certificate is the effective resistance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .electrical import (
    electrical_flow,
    resistance_matrix,
    verify_unit_flow,
    voltage_vector,
)
from .errors import InvalidFlowError
from .graph import (
    BipartiteGraph,
    ObservationMask,
    build_graph,
    checked_vec_omega,
    divergence,
    incidence_matrix,
    validate_path,
    vec_omega,
)
from .spectral import SpectralCore, build_core


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


class EfeSolver:
    """Closed-form solver for one observation pattern, reusable across data.

    Building the solver costs one Kron reduction per connected component:
    a grounded inverse of the Schur complement on the component's shorter
    side.  Each subsequent estimate is one :meth:`SpectralCore.solve` of
    the divergence ``B^T y``, and :meth:`observation_factors` solves many
    data sets in one call, which is what makes Monte-Carlo loops over
    fresh noise cheap.
    """

    def __init__(self, mask: ObservationMask):
        self.mask = mask
        self.graph: BipartiteGraph = build_graph(mask)
        self.core: SpectralCore = build_core(self.graph)

    @cached_property
    def resistances(self) -> np.ndarray:
        return resistance_matrix(self.core)

    @cached_property
    def identifiable(self) -> np.ndarray:
        return np.isfinite(self.resistances)

    def factors(self, data) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-norm least-squares factors (a, b) for the observed data.

        ``data`` must have the mask's shape and be finite at every observed
        cell (a ``ValueError`` names the first cell that is not); values at
        unobserved cells are ignored.
        """
        observations = checked_vec_omega(self.mask, data)
        a_hat, b_hat = self.observation_factors(observations[:, None])
        return a_hat[:, 0], b_hat[:, 0]

    def observation_factors(self, observations) -> tuple[np.ndarray, np.ndarray]:
        """Factors for ``(n_edges, k)`` observations in canonical edge order.

        Each column is one data set; the ``(n, k)`` and ``(m, k)`` factors
        come from one solve with the pseudoinverse.  Values are not
        checked here.
        """
        n = self.mask.n_rows
        stacked = self.core.solve(divergence(self.graph, observations))  # [a; -b]
        return stacked[:n], -stacked[n:]

    def estimates(self, data) -> np.ndarray:
        """Estimated matrix; ``nan`` on unidentifiable entries."""
        a_hat, b_hat = self.factors(data)
        est = a_hat[:, None] + b_hat[None, :]
        return np.where(self.identifiable, est, np.nan)

    def report(self, data, sigma: float | None = None,
               delta: float | None = None) -> EstimateReport:
        resist = self.resistances
        variance = high_prob = None
        if sigma is not None:
            if sigma < 0:
                raise ValueError("sigma must be non-negative")
            variance = sigma ** 2 * resist
            if delta is not None:
                if not 0 < delta < 1:
                    raise ValueError("delta must lie in (0, 1)")
                n, m = self.mask.n_rows, self.mask.n_cols
                high_prob = 2.0 * sigma ** 2 * resist * math.log(2 * n * m / delta)
        return EstimateReport(estimates=self.estimates(data),
                              effective_resistances=resist,
                              identifiable=self.identifiable.copy(),
                              variance_bounds=variance,
                              high_prob_bounds=high_prob)


def path_estimate_additive(path, data, mask: ObservationMask) -> float:
    """Alternating sum of observations along a connecting path.

    Observations on row-to-column steps are added and those on
    column-to-row steps subtracted, so intermediate factors cancel.
    """
    validate_path(path, mask)
    arr = np.asarray(data, dtype=float)
    total = 0.0
    for s in range(0, len(path) - 1, 2):
        total += arr[path[s], path[s + 1]]
    for s in range(2, len(path) - 1, 2):
        total -= arr[path[s], path[s - 1]]
    return float(total)


def unit_flow_estimate(flow, data, mask: ObservationMask) -> float:
    """Inner product of a valid unit flow with the observation vector."""
    graph = build_graph(mask)
    if not verify_unit_flow(flow, graph, flow.source, flow.sink):
        raise InvalidFlowError("flow violates unit-flow constraints")
    observations = vec_omega(mask, data)
    support = np.abs(flow.values) > 0
    if not np.all(np.isfinite(observations[support])):
        raise InvalidFlowError("data missing on the support of the flow")
    return float(np.dot(flow.values, np.where(support, observations, 0.0)))


def efe_entry(mask: ObservationMask, data, core: SpectralCore,
              i: int, j: int) -> float:
    """Electrical-flow estimate of a single entry (per-edge inner product)."""
    graph = build_graph(mask)
    flow = electrical_flow(graph, core, i, j)
    return float(np.dot(flow.values, vec_omega(mask, data)))


def lse_factors(mask: ObservationMask, data) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-Euclidean-norm least-squares factors for the observed data.

    Unobserved cells of ``data`` are ignored (treated as zero in the row
    and column sums).  Only the sums ``a[i] + b[j]`` within a connected
    component are identified; the returned gauge is the min-norm one.
    """
    return EfeSolver(mask).factors(data)


def efe_full(mask: ObservationMask, data, sigma: float | None = None,
             delta: float | None = None) -> EstimateReport:
    """Estimate every entry per connected component of the pattern."""
    return EfeSolver(mask).report(data, sigma=sigma, delta=delta)


def verify_equivalence(mask: ObservationMask, data, tol: float = 1e-8) -> bool:
    """Check the flow route against the factor route on all connected pairs.

    The flow side materializes the per-edge electrical current of each
    entry and dots it with the observations; the factor side sums the
    closed-form least-squares factors.
    """
    solver = EfeSolver(mask)
    a_hat, b_hat = solver.factors(data)
    observations = vec_omega(mask, data)
    # B L^+: column v holds every edge's current for a unit injection at v
    currents = solver.core.solve(incidence_matrix(solver.graph).T).T
    for i in range(mask.n_rows):
        for j in range(mask.n_cols):
            if not solver.identifiable[i, j]:
                continue
            flow_values = currents[:, i] - currents[:, mask.n_rows + j]
            flow_est = float(np.dot(flow_values, observations))
            if abs(flow_est - (a_hat[i] + b_hat[j])) > tol:
                return False
    return True


def hard_instance_additive(base: AdditiveModel, mask: ObservationMask,
                           i: int, j: int, epsilon: float) -> AdditiveModel:
    """Alternative additive model that is hard to tell apart from ``base``.

    Shifts the factors along the voltage vector of the (i, j) unit current:
    the two models then differ by ``epsilon * R(u_i, v_j)`` at the target
    entry while their squared difference over the observed entries is only
    ``epsilon**2 * R(u_i, v_j)``.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    voltage = voltage_vector(build_core(build_graph(mask)), i, j)
    n = mask.n_rows
    return AdditiveModel(
        row_effects=base.row_effects + epsilon * voltage.potentials[:n],
        col_effects=base.col_effects - epsilon * voltage.potentials[n:])


def estimate_noise_variance(mask: ObservationMask, data) -> float:
    """Residual-based noise variance with degrees-of-freedom correction.

    A convenience beyond the estimator itself: divides the least-squares
    residual sum of squares by ``n_e - (n + m - n_components)``.
    """
    solver = EfeSolver(mask)
    a_hat, b_hat = solver.factors(data)
    residuals = (vec_omega(mask, data)
                 - (a_hat[mask.rows] + b_hat[mask.cols]))
    dof = mask.n_observed - (mask.n_rows + mask.n_cols
                             - solver.core.components.component_count)
    if dof <= 0:
        raise ValueError("no residual degrees of freedom on this pattern")
    return float(np.sum(residuals ** 2) / dof)
