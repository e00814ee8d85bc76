"""Heterogeneous two-way fixed-effects estimation from panel data.

Observed cells split by treatment status into a control pattern and a
treatment pattern; the closed-form flow estimator runs on each, and the
per-entry effect estimate is the difference of the two predictions.  The
classical difference-in-differences contrast is the special case of a
single length-3 donor path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .additive import efe_full
from .graph import ObservationMask, check_noise
from .patterns import staggered_exposure_pattern
from .spectral import build_core


@dataclass(frozen=True)
class PanelData:
    """Outcomes with binary treatment and observation indicators.

    The grids are 2-D and of one shape; ``observed`` must be binary
    everywhere; treatment must be binary and outcomes finite at every
    observed cell.  A ``ValueError`` names the first cell that breaks a
    rule; other values at unobserved cells are ignored, and treatment is
    stored as 0 there.
    """

    outcomes: np.ndarray
    treatment: np.ndarray
    observed: np.ndarray | None = None

    def __post_init__(self) -> None:
        outcomes = np.asarray(self.outcomes, dtype=float)
        treatment = np.asarray(self.treatment)
        observed = (np.ones_like(treatment, dtype=np.int8)
                    if self.observed is None
                    else np.asarray(self.observed))
        if treatment.shape != outcomes.shape or observed.shape != outcomes.shape:
            raise ValueError("outcomes, treatment and observed shapes differ")
        if outcomes.ndim != 2:
            raise ValueError(f"panel grids must be 2-D, not of shape {outcomes.shape}")
        checks = (("observed is not binary at cell", ~np.isin(observed, (0, 1))),
                  ("treatment is not binary at observed cell",
                   (observed != 0) & ~np.isin(treatment, (0, 1))),
                  ("outcomes are not finite at observed cell",
                   (observed != 0) & ~np.isfinite(outcomes)))
        for message, failed in checks:
            bad = np.argwhere(failed)
            if bad.size:
                raise ValueError(f"{message} {tuple(bad[0].tolist())}")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "treatment",
                           np.where(observed != 0, treatment, 0).astype(np.int8))
        object.__setattr__(self, "observed", observed.astype(np.int8))

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_periods(self) -> int:
        return self.outcomes.shape[1]


@dataclass(frozen=True)
class CausalReport:
    """Per-entry effect estimates with identifiability and certificates."""

    beta_hat: np.ndarray
    control_estimates: np.ndarray
    treatment_estimates: np.ndarray
    resistance_sum: np.ndarray
    identifiable: np.ndarray
    high_prob_bounds: np.ndarray | None = None


@dataclass(frozen=True)
class StaggeredExposureCertificate:
    """Exact effective resistances against their closed-form bounds."""

    r1_exact: float
    r1_bound: float
    r0_exact: float
    r0_bound: float
    degenerate: bool


def _arms(panel: PanelData) -> tuple[np.ndarray, np.ndarray]:
    """Dense boolean control and treatment arms of the observed cells."""
    observed = panel.observed != 0
    treated = observed & (panel.treatment == 1)
    return observed & ~treated, treated


def split_masks(panel: PanelData) -> tuple[ObservationMask, ObservationMask]:
    """Disjoint control and treatment patterns partitioning the observed cells."""
    control, treated = _arms(panel)
    return ObservationMask.from_dense(control), ObservationMask.from_dense(treated)


def estimate_effects(panel: PanelData, sigma: float | None = None,
                     delta: float | None = None) -> CausalReport:
    """Per-entry treatment effects from the control and treatment graphs.

    An entry is identifiable exactly when its row and column are connected
    in both graphs.  With ``sigma`` and ``delta`` supplied, the report
    carries ``2 * sigma**2 * (R0 + R1) * log(N*T/delta)``; the factor 2
    covers the two single-graph bounds combined.  Each of ``sigma`` and
    ``delta`` is checked whenever it is given.
    """
    check_noise(sigma, delta)
    control, treated = (efe_full(build_core(mask), panel.outcomes)
                        for mask in split_masks(panel))
    resistance_sum = control.effective_resistances + treated.effective_resistances
    high_prob = None
    with np.errstate(over="ignore", invalid="ignore"):  # as in efe_full
        if sigma is not None and delta is not None:
            log_term = math.log(panel.n_units * panel.n_periods / delta)
            high_prob = 2.0 * np.float_power(sigma, 2) * resistance_sum * log_term
        beta_hat = treated.estimates - control.estimates
    return CausalReport(beta_hat=beta_hat,
                        control_estimates=control.estimates,
                        treatment_estimates=treated.estimates,
                        resistance_sum=resistance_sum,
                        identifiable=np.isfinite(resistance_sum),
                        high_prob_bounds=high_prob)


def _did_period(outcomes: np.ndarray, donor: np.ndarray, t: int,
                units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DiD contrasts at period ``t`` for target ``units`` outside the donor arm.

    A target ``(i, t)`` takes the smallest donor period ``t'`` with
    ``(i, t')`` in the donor arm and some unit in that arm at both ``t'``
    and ``t``, then the smallest such unit ``j``.  As ``(i, t)`` is not in
    the donor arm, ``t' != t`` and ``j != i`` hold without a check.
    Returns the targets that have a donor and their contrasts
    ``(y[i,t] - y[j,t]) - (y[i,t'] - y[j,t'])``; a contrast beyond the double
    range is ``±inf``, or ``nan`` where both differences overflow one way.
    """
    shared = donor & donor[:, t, None]  # unit j in the arm at both t' and t
    candidates = donor[units] & shared.any(axis=0)
    found = candidates.any(axis=1)
    units = units[found]
    t_prime = candidates[found].argmax(axis=1)
    j = shared.argmax(axis=0)[t_prime]
    y = outcomes
    with np.errstate(over="ignore", invalid="ignore"):  # as in estimate_effects
        return units, (y[units, t] - y[j, t]) - (y[units, t_prime] - y[j, t_prime])


def did_grid(panel: PanelData) -> np.ndarray:
    """Difference-in-differences estimate of the effect at every cell.

    The observed arm of cell ``(i, t)`` anchors the contrast; the other arm
    is predicted through a length-3 path ``u_i -> v_t' -> u_j -> v_t`` in
    that arm's graph, with the lexicographically smallest donor ``(t', j)``.
    The sign makes every value a treated-minus-control effect.  NaN where
    the cell is unobserved or has no length-3 donor path.  The arms are
    split once and each period's donors are found for all of its targets
    at a time, in O(N*T) memory.
    """
    control, treated = _arms(panel)
    grid = np.full(panel.outcomes.shape, np.nan)
    for t in range(panel.n_periods):
        # a treated target takes its donors from the control arm and the reverse
        for anchor, donor, sign in ((treated, control, 1.0),
                                    (control, treated, -1.0)):
            units, contrast = _did_period(panel.outcomes, donor, t,
                                          np.flatnonzero(anchor[:, t]))
            grid[units, t] = sign * contrast
    return grid


def staggered_exposure_certificate(n_units: int, n_groups: int) -> StaggeredExposureCertificate:
    """Exact (1, T) resistances of the staggered pattern against their bounds.

    The treatment-graph bound ``2 * G**2 / N`` comes from routing the unit
    current over the group-size many disjoint chain paths; the control
    bound ``6 / (N - H)`` comes from the dense control block around (1, T).
    With fewer than three groups the control side is empty or disconnects
    the pair, so the certificate is returned as degenerate (no bound check).
    """
    treatment = staggered_exposure_pattern(n_units, n_groups)
    panel = PanelData(outcomes=np.zeros(treatment.shape), treatment=treatment)
    control_mask, treated_mask = split_masks(panel)
    target = (0, n_units - 1)
    r1_exact, r0_exact = (
        build_core(mask).resistance(*target)
        for mask in (treated_mask, control_mask))
    group_size = n_units // n_groups
    r1_bound = 2.0 * n_groups ** 2 / n_units
    degenerate = n_groups < 3
    r0_bound = math.inf if n_units == group_size else 6.0 / (n_units - group_size)
    if not degenerate:
        if r1_exact > r1_bound + 1e-9:
            raise ArithmeticError(
                f"treatment-graph resistance {r1_exact} exceeds bound {r1_bound}")
        if r0_exact > r0_bound + 1e-9:
            raise ArithmeticError(
                f"control-graph resistance {r0_exact} exceeds bound {r0_bound}")
    return StaggeredExposureCertificate(r1_exact=r1_exact, r1_bound=r1_bound,
                                        r0_exact=r0_exact, r0_bound=r0_bound,
                                        degenerate=degenerate)
