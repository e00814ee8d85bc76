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
    gradient,
    validate_path,
    vec_omega,
)
from .spectral import SpectralCore

_VERTEX_CHUNK = 64  # unit injections per solve in verify_equivalence


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
    ``data`` must have the mask's shape.  The sum runs in the units of
    :func:`_scaled`, and one beyond the double range is ``±inf``.
    """
    run = validate_path(path, mask)
    observations = vec_omega(mask, data)[run]  # y_Ω in walk order
    values, shift = _scaled(np.concatenate([observations[0::2], -observations[1::2]]))
    total = 0.0
    for value in values:  # left to right; sum() rounds differently since 3.12
        total += value
    return float(_unscaled(total, shift))


def unit_flow_estimate(flow, data, mask: ObservationMask) -> float:
    """Inner product of a valid unit flow with the observation vector, in
    the units of :func:`_scaled`."""
    if not verify_unit_flow(flow, mask, flow.source, flow.sink):
        raise InvalidFlowError("flow violates unit-flow constraints")
    observations = vec_omega(mask, data)
    support = np.abs(flow.values) > 0
    if not np.all(np.isfinite(observations[support])):
        raise InvalidFlowError("data missing on the support of the flow")
    values, shift = _scaled(np.where(support, observations, 0.0))
    return float(_unscaled(np.dot(flow.values, values), shift))


def efe_entry(core: SpectralCore, data, i: int, j: int) -> float:
    """Electrical-flow estimate of a single entry (per-edge inner product).

    ``data`` must have the pattern's shape and be finite at every observed
    cell, as for :func:`lse_factors`; the product is taken in the units of
    :func:`_scaled`.
    """
    flow = electrical_flow(core, i, j)
    values, shift = _scaled(checked_vec_omega(core.mask, data))
    return float(_unscaled(np.dot(flow.values, values), shift))


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


def _scaled(observations: np.ndarray) -> tuple[np.ndarray, int]:
    """``observations * 2**-shift`` and ``shift``: 0 unless the largest
    magnitude is beyond ``2**±500``, else the power of two that takes it to
    below 1, so that no sum of the observations overflows and no product
    underflows.  The scale is exact."""
    peak = np.max(np.abs(observations), initial=0.0)
    shift = 0 if 2.0 ** -500 < peak < 2.0 ** 500 else int(np.frexp(peak)[1])
    return np.ldexp(observations, -shift), shift


def _unscaled(values, shift: int):
    """Values found in the units of :func:`_scaled` (``values * 2**shift``),
    scaled back: ``±inf`` beyond the double range, with no warning."""
    with np.errstate(over="ignore"):
        return np.ldexp(values, shift)


def lse_factors(core: SpectralCore, data) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-Euclidean-norm least-squares factors for the observed data.

    ``data`` must have the pattern's shape and be finite at every observed
    cell (a ``ValueError`` names the first cell that is not); values at
    unobserved cells are ignored.  Only the sums ``a[i] + b[j]`` within a
    connected component are identified; the returned gauge is the min-norm
    one.  Observations whose largest magnitude is beyond ``2**±500`` are
    solved scaled by a power of two (:func:`_scaled`), and a factor beyond
    the double range is ``±inf``.
    """
    observations, shift = _scaled(checked_vec_omega(core.mask, data))
    a_hat, b_hat = observation_factors(core, observations)
    return _unscaled(a_hat, shift), _unscaled(b_hat, shift)


def efe_full(core: SpectralCore, data, sigma: float | None = None,
             delta: float | None = None) -> EstimateReport:
    """Estimate every entry of ``core``'s pattern per connected component.

    The variance bounds need ``sigma`` and the high-probability bounds also
    ``delta``; each is checked whenever it is given.  The estimates are
    summed in the units of :func:`_scaled`; one beyond the double range is ``±inf``.
    """
    check_noise(sigma, delta)
    observations, shift = _scaled(checked_vec_omega(core.mask, data))
    a_hat, b_hat = observation_factors(core, observations)
    resist = core.resistances
    identifiable = np.isfinite(resist)
    variance = high_prob = None
    with np.errstate(over="ignore", invalid="ignore"):  # inf; nan at 0 * inf
        estimates = np.ldexp(a_hat[:, None] + b_hat[None, :], shift)
        if sigma is not None:
            variance = np.float_power(sigma, 2) * resist
            if delta is not None:
                log_term = math.log(2 * core.mask.n_rows * core.mask.n_cols / delta)
                high_prob = 2.0 * np.float_power(sigma, 2) * resist * log_term
    return EstimateReport(
        estimates=np.where(identifiable, estimates, np.nan),
        effective_resistances=resist, identifiable=identifiable,
        variance_bounds=variance, high_prob_bounds=high_prob)


def verify_equivalence(core: SpectralCore, data, tol: float = 1e-8) -> bool:
    """Check the flow route against the factor route on all connected pairs.

    The flow side dots the observations with the Ohm's-law edge currents
    of a unit injection at each vertex, a chunk of vertices per
    ``core.solve``; by linearity ``g[i] - g[n + j]`` is the flow estimate of
    ``(i, j)``.  The factor side sums the closed-form least-squares factors.
    Both run on the observations scaled as in :func:`lse_factors`, and their
    gaps are compared in those units: beyond ``2**±500`` the tolerance is
    relative to ``2**shift``, and otherwise absolute, as given.
    """
    mask = core.mask
    observations, _ = _scaled(checked_vec_omega(mask, data))
    a_hat, b_hat = observation_factors(core, observations)
    g = np.empty(mask.n_vertices)
    for start in range(0, mask.n_vertices, _VERTEX_CHUNK):
        chunk = np.arange(start, min(start + _VERTEX_CHUNK, mask.n_vertices))
        units = np.zeros((mask.n_vertices, chunk.size))
        units[chunk, np.arange(chunk.size)] = 1.0
        g[chunk] = observations @ gradient(mask, core.solve(units))
    n = mask.n_rows
    gap = np.abs(g[:n, None] - g[None, n:] - (a_hat[:, None] + b_hat[None, :]))
    return bool(np.all(gap[np.isfinite(core.resistances)] <= tol))


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
    residual sum of squares by ``n_e - (n + m - n_components)``.  The
    residuals are taken of the observations scaled as in :func:`lse_factors`,
    and the variance is scaled back by ``4**shift``.
    """
    mask = core.mask
    observations, shift = _scaled(checked_vec_omega(mask, data))
    a_hat, b_hat = observation_factors(core, observations)
    residuals = observations - (a_hat[mask.rows] + b_hat[mask.cols])
    dof = mask.n_observed - (mask.n_rows + mask.n_cols
                             - core.components.component_count)
    if dof <= 0:
        raise ValueError("no residual degrees of freedom on this pattern")
    return float(_unscaled(np.sum(residuals ** 2) / dof, 2 * shift))
