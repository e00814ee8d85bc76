import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcomplete import (
    AdditiveModel,
    DisconnectedPairError,
    InvalidFlowError,
    ObservationMask,
    UnitFlow,
    build_core,
    connected_components,
    efe_entry,
    efe_full,
    electrical_flow,
    estimate_noise_variance,
    hard_instance_additive,
    lse_factors,
    max_disjoint_paths,
    path_estimate_additive,
    perturbed_unit_flow,
    unit_flow_estimate,
    vec_omega,
    verify_equivalence,
)
from helpers import (
    cells,
    complete_mask,
    permuted,
    random_additive,
    random_connected_mask,
    random_mask,
)

FIG_PATH_MASK = ObservationMask.from_pairs(
    3, 3, [(0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
FIG_PATH = (0, 1, 1, 2, 2, 0)
# three disjoint length-3 routes from u_0 to v_0
THREE_ROUTES = ObservationMask.from_pairs(
    4, 4, [(0, 1), (1, 1), (1, 0), (0, 2), (2, 2), (2, 0), (0, 3), (3, 3), (3, 0)])


def test_path_estimate_figure_formula():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(3, 3))
    expected = data[0, 1] - data[1, 1] + data[1, 2] - data[2, 2] + data[2, 0]
    assert abs(path_estimate_additive(FIG_PATH, data, FIG_PATH_MASK) - expected) < 1e-12


def test_path_estimate_direct_observation():
    mask = ObservationMask.from_pairs(2, 2, [(0, 1)])
    data = np.array([[0.0, 7.5], [0.0, 0.0]])
    assert path_estimate_additive((0, 1), data, mask) == 7.5


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_path_estimate_telescopes_on_additive_data(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    mask = random_connected_mask(rng, n, m)
    a, b, truth = random_additive(rng, n, m)
    i, j = int(rng.integers(n)), int(rng.integers(m))
    paths = max_disjoint_paths(mask, i, j)
    for path in paths.paths:
        estimate = path_estimate_additive(path, truth, mask)
        assert abs(estimate - (a[i] + b[j])) < 1e-9


def test_path_estimate_rejects_grid_of_another_shape():
    with pytest.raises(ValueError,
                       match=r"data shape \(3, 4\) does not match mask \(3, 3\)"):
        path_estimate_additive(FIG_PATH, np.ones((3, 4)), FIG_PATH_MASK)


def test_unit_flow_estimate_path_flow_matches_path_estimate():
    values = np.zeros(FIG_PATH_MASK.n_observed)
    for edge, value in [((0, 1), 1.0), ((1, 1), -1.0), ((1, 2), 1.0),
                        ((2, 2), -1.0), ((2, 0), 1.0)]:
        values[cells(FIG_PATH_MASK.rows, FIG_PATH_MASK.cols).index(edge)] = value
    flow = UnitFlow(values=values, source=0, sink=0)
    rng = np.random.default_rng(1)
    data = rng.normal(size=(3, 3))
    assert abs(unit_flow_estimate(flow, data, FIG_PATH_MASK)
               - path_estimate_additive(FIG_PATH, data, FIG_PATH_MASK)) < 1e-12


def test_unit_flow_estimate_is_linear_in_the_flow():
    core = build_core(THREE_ROUTES)
    rng = np.random.default_rng(2)
    data = rng.normal(size=(4, 4))
    flow_a = perturbed_unit_flow(core, 0, 0, rng, scale=0.4)
    flow_b = perturbed_unit_flow(core, 0, 0, rng, scale=0.4)
    lam = 0.3
    mixed = UnitFlow(values=lam * flow_a.values + (1 - lam) * flow_b.values,
                     source=0, sink=0)
    expected = (lam * unit_flow_estimate(flow_a, data, THREE_ROUTES)
                + (1 - lam) * unit_flow_estimate(flow_b, data, THREE_ROUTES))
    assert abs(unit_flow_estimate(mixed, data, THREE_ROUTES) - expected) < 1e-12


def test_unit_flow_estimate_rejects_invalid_flow():
    bad = UnitFlow(values=np.zeros(FIG_PATH_MASK.n_observed), source=0, sink=0)
    with pytest.raises(InvalidFlowError):
        unit_flow_estimate(bad, np.zeros((3, 3)), FIG_PATH_MASK)


def test_efe_entry_single_edge_returns_observation():
    mask = ObservationMask.from_pairs(1, 1, [(0, 0)])
    core = build_core(mask)
    assert abs(efe_entry(core, [[3.25]], 0, 0) - 3.25) < 1e-12


def test_efe_entry_noiseless_is_exact():
    rng = np.random.default_rng(3)
    mask = random_connected_mask(rng, 6, 5)
    a, b, truth = random_additive(rng, 6, 5)
    core = build_core(mask)
    for i in range(6):
        for j in range(5):
            assert abs(efe_entry(core, truth, i, j) - truth[i, j]) < 1e-9


def test_efe_entry_equals_electrical_unit_flow_estimate():
    rng = np.random.default_rng(4)
    mask = random_connected_mask(rng, 5, 6)
    data = rng.normal(size=(5, 6))
    core = build_core(mask)
    flow = electrical_flow(core, 2, 3)
    assert abs(unit_flow_estimate(flow, data, mask)
               - efe_entry(core, data, 2, 3)) < 1e-12


def test_efe_entry_three_routes_averages_path_estimates():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(4, 4))
    core = build_core(THREE_ROUTES)
    path_estimates = [
        path_estimate_additive((0, k, k, 0), data, THREE_ROUTES)
        for k in (1, 2, 3)]
    assert abs(efe_entry(core, data, 0, 0)
               - np.mean(path_estimates)) < 1e-10


def test_efe_entry_disconnected_raises():
    mask = ObservationMask.from_dense(np.eye(2))
    core = build_core(mask)
    with pytest.raises(DisconnectedPairError):
        efe_entry(core, np.eye(2), 0, 1)


def test_efe_entry_rejects_non_finite_observed_cell():
    # a defect in one component must not leak into another component's entry
    core = build_core(ObservationMask.from_dense(np.eye(2)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError,
                           match=r"not finite at observed cell \(1, 1\)"):
            efe_entry(core, np.diag([4.0, bad]), 0, 0)
    # unobserved cells are ignored, whatever they hold
    data = np.array([[4.0, math.nan], [math.inf, 6.0]])
    assert efe_entry(core, data, 0, 0) == pytest.approx(4.0)


def test_lse_min_norm_split_single_observation():
    mask = ObservationMask.from_pairs(1, 1, [(0, 0)])
    a_hat, b_hat = lse_factors(build_core(mask), [[4.0]])
    assert abs(a_hat[0] - 2.0) < 1e-12
    assert abs(b_hat[0] - 2.0) < 1e-12


def test_lse_recovers_fully_observed_up_to_shift():
    rng = np.random.default_rng(6)
    a, b, truth = random_additive(rng, 5, 7)
    mask = complete_mask(5, 7)
    a_hat, b_hat = lse_factors(build_core(mask), truth)
    sums = a_hat[:, None] + b_hat[None, :]
    assert np.max(np.abs(sums - truth)) < 1e-9
    shift = a_hat - a
    assert np.max(np.abs(shift - shift[0])) < 1e-9
    assert np.max(np.abs((b_hat - b) + shift[0])) < 1e-9


def test_lse_matches_design_matrix_least_squares():
    # independent oracle: numpy's SVD-based lstsq on the explicit design
    # matrix (one row per observed cell, indicators for its row and column)
    rng = np.random.default_rng(55)
    for _ in range(10):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        mask = random_connected_mask(rng, n, m)
        data = rng.normal(size=(n, m))
        design = np.zeros((mask.n_observed, n + m))
        rhs = np.empty(mask.n_observed)
        for pos, (i, j) in enumerate(cells(mask.rows, mask.cols)):
            design[pos, i] = 1.0
            design[pos, n + j] = 1.0
            rhs[pos] = data[i, j]
        oracle, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        a_hat, b_hat = lse_factors(build_core(mask), data)
        # lstsq returns the same minimum-norm solution
        assert np.max(np.abs(np.concatenate([a_hat, b_hat]) - oracle)) < 1e-8


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_lse_first_order_conditions(seed):
    # oracle for the least-squares solution: all residual gradients vanish
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    mask = random_connected_mask(rng, n, m)
    data = rng.normal(size=(n, m))
    a_hat, b_hat = lse_factors(build_core(mask), data)
    residual = np.where(mask.grid, a_hat[:, None] + b_hat[None, :] - data, 0.0)
    assert np.max(np.abs(residual.sum(axis=1))) < 1e-8
    assert np.max(np.abs(residual.sum(axis=0))) < 1e-8


def test_efe_full_noiseless_exact_and_connected():
    rng = np.random.default_rng(7)
    mask = random_connected_mask(rng, 8, 6)
    _, _, truth = random_additive(rng, 8, 6)
    report = efe_full(build_core(mask), truth)
    assert report.identifiable.all()
    assert np.max(np.abs(report.estimates - truth)) < 1e-8


def test_efe_full_marks_cross_component_entries():
    mask = ObservationMask.from_dense(np.eye(2))
    report = efe_full(build_core(mask), np.diag([4.0, 6.0]))
    assert np.isnan(report.estimates[0, 1]) and np.isnan(report.estimates[1, 0])
    assert report.effective_resistances[0, 1] == math.inf
    assert abs(report.estimates[0, 0] - 4.0) < 1e-12
    assert abs(report.estimates[1, 1] - 6.0) < 1e-12
    # unidentifiable exactly where resistance is infinite
    assert np.array_equal(~report.identifiable,
                          np.isinf(report.effective_resistances))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_efe_full_commutes_with_row_and_column_permutations(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    mask = random_mask(rng, n, m, 0.4)  # may be empty or disconnected
    data = rng.normal(size=(n, m))
    p, q = rng.permutation(n), rng.permutation(m)
    perm = np.ix_(p, q)
    base = efe_full(build_core(mask), data)
    moved = efe_full(build_core(permuted(mask, p, q)), data[perm])
    assert np.array_equal(moved.identifiable, base.identifiable[perm])
    np.testing.assert_allclose(moved.estimates, base.estimates[perm],
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(moved.effective_resistances,
                               base.effective_resistances[perm],
                               rtol=0, atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_disjoint_component_leaves_old_entries_bit_identical(seed):
    # a new row and column observed only at their shared cell form a
    # component of their own; nothing about the old entries may move
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 25)), int(rng.integers(1, 25))
    mask = random_mask(rng, n, m, float(rng.uniform(0.05, 0.5)))
    data = rng.normal(size=(n, m))
    grown = ObservationMask(n + 1, m + 1, np.append(mask.rows, n),
                            np.append(mask.cols, m))
    grown_data = np.pad(data, ((0, 1), (0, 1)), constant_values=rng.normal())
    base = efe_full(build_core(mask), data)
    wide = efe_full(build_core(grown), grown_data)
    assert np.array_equal(wide.estimates[:n, :m], base.estimates,
                          equal_nan=True)
    assert np.array_equal(wide.effective_resistances[:n, :m],
                          base.effective_resistances)
    assert wide.estimates[n, m] == pytest.approx(grown_data[n, m])
    assert wide.effective_resistances[n, m] == pytest.approx(1.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_per_component_gauge_shift_leaves_estimates_unchanged(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    mask = random_mask(rng, n, m, 0.3)
    a, b, truth = random_additive(rng, n, m)
    ids = connected_components(mask).component_id
    shift = rng.normal(0.0, 5.0, int(ids.max()) + 1)
    shifted = AdditiveModel(a + shift[ids[:n]], b - shift[ids[n:]]).matrix()
    core = build_core(mask)
    np.testing.assert_allclose(efe_full(core, shifted).estimates,
                               efe_full(core, truth).estimates, rtol=0, atol=1e-9)


def test_efe_full_does_not_build_the_adjacency_lists(monkeypatch):
    def refuse(mask):
        raise AssertionError("adjacency lists built")

    monkeypatch.setattr(ObservationMask, "adjacency", property(refuse))
    rng = np.random.default_rng(2)
    report = efe_full(build_core(random_mask(rng, 8, 6, 0.3)),
                      rng.normal(size=(8, 6)))
    assert report.identifiable.shape == (8, 6)


def test_factors_reject_shape_mismatch():
    core = build_core(FIG_PATH_MASK)
    with pytest.raises(ValueError,
                       match=r"data shape \(3, 4\) does not match mask \(3, 3\)"):
        lse_factors(core, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="does not match mask"):
        efe_full(core, np.zeros(9))


def test_factors_reject_non_finite_observed_cell():
    # two components: a NaN in one must not silently turn the other into NaN
    mask = ObservationMask.from_dense(np.eye(2))
    for bad in (math.nan, math.inf, -math.inf):
        data = np.diag([4.0, bad])
        with pytest.raises(ValueError,
                           match=r"not finite at observed cell \(1, 1\)"):
            efe_full(build_core(mask), data)
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            lse_factors(build_core(mask), data)
    # unobserved cells are ignored, whatever they hold
    data = np.array([[4.0, math.nan], [math.inf, 6.0]])
    report = efe_full(build_core(mask), data)
    assert report.estimates[0, 0] == pytest.approx(4.0)
    assert report.estimates[1, 1] == pytest.approx(6.0)


def test_efe_full_bound_matrices():
    mask = complete_mask(3, 3)
    report = efe_full(build_core(mask), np.zeros((3, 3)), sigma=0.5, delta=0.1)
    resist = report.effective_resistances
    assert np.allclose(report.variance_bounds, 0.25 * resist)
    assert np.allclose(report.high_prob_bounds,
                       2 * 0.25 * resist * math.log(2 * 9 / 0.1))


@pytest.mark.parametrize("noise, message", [
    ({"sigma": -0.1}, "sigma must be non-negative"),
    ({"sigma": math.nan, "delta": 0.05}, "sigma must be non-negative"),
    ({"delta": 5.0}, r"delta must lie in \(0, 1\)"),
    ({"sigma": 0.1, "delta": 0.0}, r"delta must lie in \(0, 1\)"),
])
def test_efe_full_checks_noise_parameters_whenever_given(noise, message):
    with pytest.raises(ValueError, match=message):
        efe_full(build_core(complete_mask(2, 2)), np.zeros((2, 2)), **noise)


def test_verify_equivalence_cases():
    rng = np.random.default_rng(8)
    # single edge
    assert verify_equivalence(build_core(ObservationMask.from_pairs(1, 1, [(0, 0)])),
                              [[2.0]], tol=1e-10)
    # figure pattern
    assert verify_equivalence(build_core(FIG_PATH_MASK), rng.normal(size=(3, 3)),
                              tol=1e-8)
    # random masks, random data
    for _ in range(20):
        n, m = int(rng.integers(2, 16)), int(rng.integers(2, 13))
        mask = random_connected_mask(rng, n, m)
        assert verify_equivalence(build_core(mask), rng.normal(size=(n, m)),
                                  tol=1e-8)


@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-5, 5))
@settings(max_examples=20, deadline=None)
def test_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    mask = random_connected_mask(rng, n, m)
    a, b, _ = random_additive(rng, n, m)
    original = AdditiveModel(a, b).matrix()
    shifted = AdditiveModel(a + shift, b - shift).matrix()
    assert np.max(np.abs(original - shifted)) < 1e-9
    core = build_core(mask)
    assert np.max(np.abs(efe_full(core, original).estimates
                         - efe_full(core, shifted).estimates)) < 1e-9


def _monte_carlo_estimates(flow_values, mask, truth, noise_draws):
    base = float(np.dot(flow_values, vec_omega(mask, truth)))
    return base + noise_draws @ flow_values


def test_unbiasedness_across_noise_families():
    rng = np.random.default_rng(9)
    mask = random_connected_mask(rng, 6, 6, extra=0.4)
    core = build_core(mask)
    a, b, truth = random_additive(rng, 6, 6)
    i, j = 2, 4
    sigma, trials = 0.5, 20_000
    flows = [electrical_flow(core, i, j)]
    flows += [perturbed_unit_flow(core, i, j, rng, scale=0.5)
              for _ in range(3)]
    draws = {
        "gaussian": rng.normal(0.0, sigma, (trials, mask.n_observed)),
        "rademacher": sigma * rng.choice([-1.0, 1.0], (trials, mask.n_observed)),
        "uniform": rng.uniform(-sigma * math.sqrt(3), sigma * math.sqrt(3),
                               (trials, mask.n_observed)),
    }
    for flow in flows:
        for noise in draws.values():
            estimates = _monte_carlo_estimates(flow.values, mask, truth, noise)
            se = estimates.std(ddof=1) / math.sqrt(trials)
            assert abs(estimates.mean() - truth[i, j]) < 4 * se


def test_variance_identity_and_thomson_dominance():
    rng = np.random.default_rng(10)
    mask = random_connected_mask(rng, 6, 6, extra=0.4)
    core = build_core(mask)
    _, _, truth = random_additive(rng, 6, 6)
    i, j = 1, 3
    sigma, trials = 0.3, 20_000
    resistance = core.resistance(i, j)
    noise = rng.normal(0.0, sigma, (trials, mask.n_observed))
    efe_flow = electrical_flow(core, i, j)
    efe_estimates = _monte_carlo_estimates(efe_flow.values, mask, truth, noise)
    efe_variance = efe_estimates.var(ddof=1)
    assert abs(efe_variance - sigma ** 2 * resistance) < 0.15 * sigma ** 2 * resistance
    for _ in range(10):
        flow = perturbed_unit_flow(core, i, j, rng, scale=0.5)
        estimates = _monte_carlo_estimates(flow.values, mask, truth, noise)
        assert estimates.var(ddof=1) >= efe_variance
    # minimax sanity: the lower-bound constant is below the attained MSE
    mse = np.mean((efe_estimates - truth[i, j]) ** 2)
    assert 2 * sigma ** 2 * resistance / 27 <= mse


def test_hard_instance_single_edge():
    mask = ObservationMask.from_pairs(1, 1, [(0, 0)])
    base = AdditiveModel(np.zeros(1), np.zeros(1))
    alt = hard_instance_additive(base, build_core(mask), 0, 0, epsilon=0.5)
    diff = alt.matrix() - base.matrix()
    assert abs(diff[0, 0] - 0.5) < 1e-12  # epsilon * R with R = 1
    kl = float(np.sum(diff[mask.grid] ** 2)) / (2 * 1.0 ** 2)
    assert abs(kl - 0.125) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hard_instance_certificates(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    mask = random_connected_mask(rng, n, m)
    core = build_core(mask)
    i, j = int(rng.integers(n)), int(rng.integers(m))
    epsilon = float(rng.uniform(0.05, 0.95))
    a, b, _ = random_additive(rng, n, m)
    base = AdditiveModel(a, b)
    alt = hard_instance_additive(base, core, i, j, epsilon)
    resistance = core.resistance(i, j)
    diff = alt.matrix() - base.matrix()
    observed_mass = float(np.sum(diff[mask.grid] ** 2))
    assert abs(observed_mass - epsilon ** 2 * resistance) < 1e-9
    assert abs(diff[i, j] - epsilon * resistance) < 1e-9


def test_hard_instance_rejects_bad_epsilon_and_disconnected():
    mask = ObservationMask.from_dense(np.eye(2))
    base = AdditiveModel(np.zeros(2), np.zeros(2))
    core = build_core(mask)
    with pytest.raises(ValueError):
        hard_instance_additive(base, core, 0, 0, epsilon=1.5)
    with pytest.raises(DisconnectedPairError):
        hard_instance_additive(base, core, 0, 1, epsilon=0.5)


def test_estimate_noise_variance():
    rng = np.random.default_rng(11)
    mask = random_connected_mask(rng, 20, 20, extra=0.5)
    _, _, truth = random_additive(rng, 20, 20)
    sigma = 0.4
    data = truth + rng.normal(0.0, sigma, truth.shape)
    estimate = estimate_noise_variance(build_core(mask), data)
    assert abs(estimate - sigma ** 2) < 0.25 * sigma ** 2
    with pytest.raises(ValueError):
        estimate_noise_variance(build_core(ObservationMask.from_pairs(1, 1, [(0, 0)])),
                                [[1.0]])
