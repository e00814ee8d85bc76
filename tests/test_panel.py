import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowcomplete import (
    connected_components,
    PanelData,
    build_core,
    did_grid,
    estimate_effects,
    split_masks,
    staggered_exposure_certificate,
)
from flowcomplete.patterns import staggered_exposure_pattern, staircase_pattern
from helpers import did_loop_grid


def _random_panel(rng, n_units, n_periods, sigma=0.0):
    """Panel whose control and treatment graphs are both connected.

    Needs room for two edge-disjoint spanning structures, so keep
    ``n_units * n_periods`` well above ``2 * (n_units + n_periods - 1)``.
    """
    shape = (n_units, n_periods)
    while True:
        treatment = (rng.random(shape) < 0.5).astype(int)
        control, treated = split_masks(
            PanelData(outcomes=np.zeros(shape), treatment=treatment))
        if (connected_components(control).component_count == 1
                and connected_components(treated).component_count == 1):
            break
    alpha = rng.normal(size=n_units)
    gamma = rng.normal(size=n_periods)
    beta = rng.normal(size=n_units)[:, None] + rng.normal(size=n_periods)[None, :]
    outcomes = (alpha[:, None] + gamma[None, :] + beta * treatment
                + rng.normal(0.0, sigma, shape))
    return PanelData(outcomes=outcomes, treatment=treatment), beta


def _twfe_lstsq_oracle(panel):
    """Direct min-norm least squares on the two-way regression design."""
    n, t = panel.n_units, panel.n_periods
    n_params = 2 * (n + t)
    rows, rhs = [], []
    for i in range(n):
        for s in range(t):
            if panel.observed[i, s] == 0:
                continue
            row = np.zeros(n_params)
            row[i] = 1.0
            row[n + s] = 1.0
            if panel.treatment[i, s] == 1:
                row[n + t + i] = 1.0
                row[n + t + n + s] = 1.0
            rows.append(row)
            rhs.append(panel.outcomes[i, s])
    solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    mu = solution[n + t:n + t + n]
    nu = solution[n + t + n:]
    return mu[:, None] + nu[None, :]


def test_split_masks_partition():
    rng = np.random.default_rng(0)
    panel, _ = _random_panel(rng, 4, 5)
    control, treated = split_masks(panel)
    assert control.n_observed + treated.n_observed == int(panel.observed.sum())
    assert not (control.grid & treated.grid).any()


def test_split_masks_all_control():
    panel = PanelData(outcomes=np.zeros((3, 3)), treatment=np.zeros((3, 3), int))
    control, treated = split_masks(panel)
    assert treated.n_observed == 0
    assert control.n_observed == 9


def test_estimate_effects_noiseless_exact():
    rng = np.random.default_rng(1)
    panel, beta = _random_panel(rng, 5, 6)
    report = estimate_effects(panel)
    assert report.identifiable.all()
    assert np.max(np.abs(report.beta_hat - beta)) < 1e-8


def test_estimate_effects_homogeneous():
    rng = np.random.default_rng(2)
    panel, _ = _random_panel(rng, 5, 5)
    beta = 1.7
    outcomes = (rng.normal(size=5)[:, None] + rng.normal(size=5)[None, :]
                + beta * panel.treatment)
    report = estimate_effects(PanelData(outcomes=outcomes,
                                        treatment=panel.treatment))
    assert np.max(np.abs(report.beta_hat - beta)) < 1e-8


def test_estimate_effects_bound_and_identifiability():
    # unit 0 is always treated: no control observations in its row
    treatment = np.zeros((4, 4), int)
    treatment[0, :] = 1
    treatment[1, 0] = 1  # keep the treated graph connected beyond row 0
    outcomes = np.zeros((4, 4))
    report = estimate_effects(PanelData(outcomes=outcomes, treatment=treatment),
                              sigma=0.1, delta=0.05)
    assert not report.identifiable[0, :].any()
    assert report.identifiable[1, 0]
    assert np.isinf(report.resistance_sum[0, 0])
    finite = report.identifiable
    expected = 2.0 * 0.01 * report.resistance_sum[finite] * math.log(16 / 0.05)
    assert np.allclose(report.high_prob_bounds[finite], expected)
    # unidentifiable exactly where the effect estimate is missing
    assert np.array_equal(np.isnan(report.beta_hat), ~report.identifiable)
    assert np.array_equal(np.isinf(report.resistance_sum), ~report.identifiable)


@pytest.mark.parametrize("noise, message", [
    ({"sigma": -1.0}, "sigma must be non-negative"),
    ({"sigma": math.nan, "delta": 0.05}, "sigma must be non-negative"),
    ({"delta": 5.0}, r"delta must lie in \(0, 1\)"),
])
def test_estimate_effects_checks_noise_parameters_whenever_given(noise, message):
    panel, _ = _random_panel(np.random.default_rng(3), 5, 5)
    with pytest.raises(ValueError, match=message):
        estimate_effects(panel, **noise)


def test_did_worked_instance():
    # unit i treated at time 2; donor j stays in control
    outcomes = np.array([[1.0, 4.0], [0.5, 2.0]])
    treatment = np.array([[0, 1], [0, 0]])
    panel = PanelData(outcomes=outcomes, treatment=treatment)
    expected = (outcomes[0, 1] - outcomes[1, 1]) - (outcomes[0, 0] - outcomes[1, 0])
    assert abs(did_grid(panel)[0, 1] - expected) < 1e-12


def test_did_noiseless_matches_beta():
    rng = np.random.default_rng(3)
    panel, beta = _random_panel(rng, 5, 5)
    grid = did_grid(panel)
    found = 0
    for i in range(5):
        for t in range(5):
            if panel.treatment[i, t] != 1:
                continue
            value = grid[i, t]
            if np.isnan(value):
                continue
            assert abs(value - beta[i, t]) < 1e-9
            found += 1
    assert found > 0


def test_did_control_anchor_uses_treatment_graph():
    rng = np.random.default_rng(4)
    panel, beta = _random_panel(rng, 5, 5)
    grid = did_grid(panel)
    fitted = 0
    for i in range(5):
        for t in range(5):
            if panel.treatment[i, t] != 0:
                continue
            value = grid[i, t]
            if np.isnan(value):
                continue
            assert abs(value - beta[i, t]) < 1e-9
            fitted += 1
    assert fitted > 0


def test_did_no_length_three_path_on_staggered_pattern():
    panel = PanelData(outcomes=np.zeros((16, 16)),
                      treatment=staggered_exposure_pattern(16, 4))
    # (0, 15) is observed under control; its treated counterpart has no
    # length-3 donor path, while the flow estimator still identifies it
    assert np.isnan(did_grid(panel)[0, 15])
    report = estimate_effects(panel)
    assert report.identifiable[0, 15]
    assert np.isfinite(report.beta_hat[0, 15])


def test_did_fails_for_most_staircase_entries():
    rng = np.random.default_rng(8)
    panel = PanelData(outcomes=np.zeros((30, 30)),
                      treatment=staircase_pattern(30, 30, 10, rng))
    blocked = np.isnan(did_grid(panel)).sum()
    assert blocked > 30 * 30 / 2


@given(seed=st.integers(0, 2**32 - 1), n_units=st.integers(1, 7),
       n_periods=st.integers(1, 7),
       p_treated=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
       p_observed=st.sampled_from([1.0, 0.8, 0.5]))
@example(seed=0, n_units=1, n_periods=6, p_treated=0.5, p_observed=1.0)
@example(seed=1, n_units=6, n_periods=1, p_treated=0.5, p_observed=1.0)
@example(seed=2, n_units=5, n_periods=5, p_treated=0.0, p_observed=0.8)
@example(seed=3, n_units=5, n_periods=5, p_treated=1.0, p_observed=0.8)
@settings(max_examples=60, deadline=None)
def test_did_grid_equals_cell_loop_bitwise(seed, n_units, n_periods,
                                           p_treated, p_observed):
    rng = np.random.default_rng(seed)
    shape = (n_units, n_periods)
    treatment = (rng.random(shape) < p_treated).astype(int)
    observed = (rng.random(shape) < p_observed).astype(int)
    outcomes = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    outcomes[observed == 0] = np.nan  # never read
    panel = PanelData(outcomes=outcomes, treatment=treatment, observed=observed)
    assert did_grid(panel).tobytes() == did_loop_grid(panel).tobytes()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_estimate_effects_commutes_with_unit_and_period_permutations(seed):
    # did_grid is left out: it takes the lexicographically smallest donor
    # (t', j), so a permutation can move a cell onto another donor
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    observed = (rng.random(shape) < 0.8).astype(int)  # may disconnect an arm
    outcomes = rng.normal(size=shape)
    outcomes[observed == 0] = np.nan  # never read
    panel = PanelData(outcomes=outcomes, observed=observed,
                      treatment=(rng.random(shape) < 0.5).astype(int))
    p, q = rng.permutation(shape[0]), rng.permutation(shape[1])
    perm = np.ix_(p, q)
    base = estimate_effects(panel)
    moved = estimate_effects(PanelData(outcomes=panel.outcomes[perm],
                                       treatment=panel.treatment[perm],
                                       observed=panel.observed[perm]))
    assert np.array_equal(moved.identifiable, base.identifiable[perm])
    for field in ("resistance_sum", "beta_hat"):
        np.testing.assert_allclose(getattr(moved, field),
                                   getattr(base, field)[perm],
                                   rtol=0, atol=1e-10, err_msg=field)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_twfe_equals_direct_least_squares(seed):
    rng = np.random.default_rng(seed)
    n_units = int(rng.integers(5, 8))
    n_periods = int(rng.integers(5, 8))
    panel, _ = _random_panel(rng, n_units, n_periods, sigma=0.5)
    flow_beta = estimate_effects(panel).beta_hat
    oracle_beta = _twfe_lstsq_oracle(panel)
    keep = np.isfinite(flow_beta)
    assert np.max(np.abs(flow_beta[keep] - oracle_beta[keep])) < 1e-8


def test_twfe_agrees_with_did_noiseless():
    rng = np.random.default_rng(5)
    panel, beta = _random_panel(rng, 5, 5)
    flow_beta = estimate_effects(panel).beta_hat
    did = did_grid(panel)
    assert np.isfinite(did).any()
    for i, t in np.argwhere(np.isfinite(did)):
        assert abs(flow_beta[i, t] - did[i, t]) < 1e-8


def test_variance_matches_resistance_sum():
    rng = np.random.default_rng(6)
    base_panel, beta = _random_panel(rng, 5, 5)
    control, treated = split_masks(base_panel)
    r0 = build_core(control).resistance(1, 2)
    r1 = build_core(treated).resistance(1, 2)
    sigma, trials = 0.2, 1500
    signal = base_panel.outcomes
    estimates = np.empty(trials)
    for trial in range(trials):
        noisy = PanelData(outcomes=signal + rng.normal(0.0, sigma, (5, 5)),
                          treatment=base_panel.treatment)
        estimates[trial] = estimate_effects(noisy).beta_hat[1, 2]
    variance = estimates.var(ddof=1)
    expected = sigma ** 2 * (r0 + r1)
    assert abs(variance - expected) < 0.2 * expected
    assert abs(estimates.mean() - beta[1, 2]) < 5 * estimates.std() / math.sqrt(trials)


def test_did_variance_dominates_flow_variance():
    rng = np.random.default_rng(7)
    base_panel, beta = _random_panel(rng, 5, 5)
    i, t = np.argwhere((base_panel.treatment == 1)
                       & np.isfinite(did_grid(base_panel)))[0]
    control, treated = split_masks(base_panel)
    r_sum = (build_core(control).resistance(i, t)
             + build_core(treated).resistance(i, t))
    sigma, trials = 0.2, 2000
    did_draws = np.empty(trials)
    for trial in range(trials):
        noisy = PanelData(
            outcomes=base_panel.outcomes + rng.normal(0.0, sigma, (5, 5)),
            treatment=base_panel.treatment)
        did_draws[trial] = did_grid(noisy)[i, t]
    se = did_draws.std(ddof=1) / math.sqrt(trials)
    assert abs(did_draws.mean() - beta[i, t]) < 4 * se
    did_variance = did_draws.var(ddof=1)
    # four observations with unit weights: variance 4 sigma^2, never better
    # than the flow estimator's sigma^2 (R0 + R1)
    assert abs(did_variance - 4 * sigma ** 2) < 0.15 * 4 * sigma ** 2
    assert did_variance >= sigma ** 2 * r_sum


def test_staggered_certificate_small():
    certificate = staggered_exposure_certificate(16, 4)
    assert not certificate.degenerate
    assert certificate.r1_bound == pytest.approx(2.0 * 16 / 16)
    assert certificate.r0_bound == pytest.approx(6.0 / 12)
    assert certificate.r1_exact <= certificate.r1_bound
    assert certificate.r0_exact <= certificate.r0_bound
    assert certificate.r1_exact > 0 and certificate.r0_exact > 0


def test_staggered_certificate_degenerate_cases():
    full = staggered_exposure_certificate(4, 1)
    assert full.degenerate
    assert math.isinf(full.r0_exact)  # everything treated, no control graph
    assert np.isfinite(full.r1_exact)
    near_full = staggered_exposure_certificate(8, 2)
    assert near_full.degenerate
    assert math.isinf(near_full.r0_exact)  # first unit group has no control cells
    with pytest.raises(ValueError):
        staggered_exposure_certificate(10, 4)  # G must divide N


@pytest.mark.parametrize("groups", [0, -2])
def test_staggered_pattern_rejects_non_positive_groups(groups):
    with pytest.raises(ValueError, match="n_groups must be positive"):
        staggered_exposure_pattern(8, groups)
    with pytest.raises(ValueError, match="n_groups must be positive"):
        staggered_exposure_certificate(8, groups)


@pytest.mark.parametrize("shape", [(3, 3, 5), (5, 3, 4), (3, 5, 4)])
def test_staircase_pattern_rejects_more_groups_than_rows_or_columns(shape):
    # a group with no row or no column has no spine to keep
    with pytest.raises(ValueError, match=re.escape("at most min(n_rows, n_cols)")):
        staircase_pattern(*shape, np.random.default_rng(0))
    treatment = staircase_pattern(*shape[:2], min(shape[:2]),
                                  np.random.default_rng(0))
    assert treatment.shape == shape[:2]


def test_panel_rejects_non_finite_observed_outcomes():
    treatment = np.zeros((3, 3), int)
    for bad in (np.nan, np.inf, -np.inf):
        outcomes = np.zeros((3, 3))
        outcomes[1, 2] = outcomes[2, 0] = bad
        with pytest.raises(ValueError, match=re.escape("observed cell (1, 2)")):
            PanelData(outcomes=outcomes, treatment=treatment)
        observed = np.ones((3, 3), int)
        observed[1, 2] = observed[2, 0] = 0
        # unobserved cells are never read, so any value is accepted there
        PanelData(outcomes=outcomes, treatment=treatment, observed=observed)


def test_panel_rejects_non_binary_grids():
    outcomes, treatment = np.zeros((2, 2)), np.zeros((2, 2))
    observed = np.array([[1.0, 0.5], [1.0, 1.0]])
    with pytest.raises(ValueError, match=re.escape("observed is not binary "
                                                   "at cell (0, 1)")):
        PanelData(outcomes=outcomes, treatment=treatment, observed=observed)
    treatment[0, 1] = 0.5
    with pytest.raises(ValueError, match=re.escape("treatment is not binary "
                                                   "at observed cell (0, 1)")):
        PanelData(outcomes=outcomes, treatment=treatment)
    # treatment at an unobserved cell is never read
    PanelData(outcomes=outcomes, treatment=treatment,
              observed=np.array([[1, 0], [1, 1]]))


@pytest.mark.parametrize("value, dtype", [(np.nan, float), (1e10, float),
                                          (257, float), (257, int),
                                          (-1, float), (-1, int)])
def test_treatment_at_unobserved_cells_is_ignored_and_stored_as_zero(value, dtype):
    # an int8 cast of the whole grid used to warn (NaN, 1e10) or wrap
    # (257 to 1) at unobserved cells
    treatment = staggered_exposure_pattern(8, 4)
    observed = np.ones_like(treatment)
    observed[2, 5] = observed[6, 1] = 0  # one treated cell, one control cell
    outcomes = np.random.default_rng(3).normal(size=observed.shape)
    want = PanelData(outcomes=outcomes, treatment=treatment, observed=observed)
    noisy = treatment.astype(dtype)
    noisy[2, 5] = noisy[6, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = PanelData(outcomes=outcomes, treatment=noisy, observed=observed)
        got_report, got_did = estimate_effects(got, 0.1, 0.05), did_grid(got)
    assert got.treatment.dtype == np.int8
    assert got.treatment.tobytes() == want.treatment.tobytes()
    assert got_did.tobytes() == did_grid(want).tobytes()
    want_report = estimate_effects(want, 0.1, 0.05)
    for field in dataclasses.fields(want_report):
        assert (getattr(got_report, field.name).tobytes()
                == getattr(want_report, field.name).tobytes()), field.name


def test_estimate_effects_beyond_the_double_maximum_is_inf_per_entry():
    # the arms predict 1e308 and -1e308 at (1, 1); their difference is
    # beyond the double range: inf there, with no warning
    panel = PanelData(outcomes=np.array([[0.0, 0.0], [-1e308, 1e308]]),
                      treatment=np.array([[0, 0], [0, 1]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_effects(panel, 0.1, 0.05)
    np.testing.assert_allclose([report.treatment_estimates[1, 1],
                                report.control_estimates[1, 1]],
                               [1e308, -1e308], rtol=1e-15)
    assert report.beta_hat[1, 1] == math.inf
    assert report.identifiable.tolist() == [[False, False], [False, True]]


def test_did_beyond_the_double_maximum_is_inf_without_a_warning():
    # (1, 1) against donor (0, 0): (1e308 - 0) - (-1e308 - 0) is beyond the
    # double range, so inf there; no other cell has a donor
    panel = PanelData(outcomes=np.array([[0.0, 0.0], [-1e308, 1e308]]),
                      treatment=np.array([[0, 0], [0, 1]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = did_grid(panel)
    assert grid[1, 1] == math.inf
    assert np.isnan(grid).tolist() == [[True, True], [True, False]]


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_panel_rejects_grids_that_are_not_2d(shape):
    # such a panel used to build, and estimate_effects then raised
    # IndexError (1-D) or TypeError (3-D)
    with pytest.raises(ValueError, match=re.escape(f"not of shape {shape}")):
        PanelData(outcomes=np.zeros(shape), treatment=np.zeros(shape, int))


def test_panel_validation():
    with pytest.raises(ValueError):
        PanelData(outcomes=np.zeros((2, 2)), treatment=np.zeros((3, 2), int))
    with pytest.raises(ValueError):
        PanelData(outcomes=np.zeros((2, 2)),
                  treatment=np.array([[2, 0], [0, 0]]))
