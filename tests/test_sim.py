import numpy as np
import pytest
from scipy import stats

from flowcomplete import (
    ObservationMask,
    PanelData,
    SimConfig,
    connected_components,
    efe_full,
    export_result,
    generate_pattern,
    max_disjoint_paths,
    run_experiment,
    split_masks,
)
from flowcomplete.rank1 import DENOMINATOR_FLOOR, _path_products
from flowcomplete.spectral import build_core
from flowcomplete.patterns import (
    extreme_sparsity_mask,
    staggered_exposure_pattern,
    staircase_pattern,
    uniform_bernoulli_mask,
)


def test_extreme_sparsity_count():
    mask = extreme_sparsity_mask(5)
    assert mask.n_observed == 12  # 3 * (n - 1)
    assert not mask.is_observed(0, 0)
    for k in range(1, 5):
        assert mask.is_observed(0, k)
        assert mask.is_observed(k, 0)
        assert mask.is_observed(k, k)


def test_staggered_exposure_counts():
    observed, treatment = staggered_exposure_pattern(8, 2)
    assert observed.sum() == 64
    # truncated window: every group but the last is treated in two column
    # groups, the last in one, giving H^2 * (2G - 1) treated cells
    assert treatment.sum() == 16 * 3
    assert treatment[:4].sum() == 4 * 8  # first group: both column groups
    assert treatment[4:, :4].sum() == 0  # last group: own columns only
    assert treatment[4:, 4:].sum() == 16


def test_staggered_exposure_full_treatment_edge_case():
    _, treatment = staggered_exposure_pattern(4, 1)
    assert treatment.sum() == 16


def test_uniform_bernoulli_extremes():
    rng = np.random.default_rng(0)
    assert uniform_bernoulli_mask(4, 4, 1.0, rng).n_observed == 16
    assert uniform_bernoulli_mask(4, 4, 0.0, rng).n_observed == 0


def test_staircase_treatment_graph_connected():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        _, treatment = staircase_pattern(30, 30, 6, rng)
        mask = ObservationMask.from_dense(treatment)
        assert connected_components(mask).component_count == 1


def test_generate_pattern_deterministic():
    config = SimConfig(pattern="staircase", model="panel", n_rows=12,
                       n_cols=12, noise_sigma=0.1, trials=2, seed=99, groups=3)
    first = generate_pattern(config)
    second = generate_pattern(config)
    assert first.mask == second.mask
    assert np.array_equal(first.treatment, second.treatment)
    assert first.metadata == second.metadata


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(pattern="staircase", model="additive", n_rows=4, n_cols=4,
                  noise_sigma=0.1, trials=1, seed=0, groups=2)
    with pytest.raises(ValueError):
        SimConfig(pattern="uniform_bernoulli", model="panel", n_rows=4,
                  n_cols=4, noise_sigma=0.1, trials=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(pattern="nonsense", model="additive", n_rows=4, n_cols=4,
                  noise_sigma=0.1, trials=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(pattern="extreme_sparsity", model="additive", n_rows=4,
                  n_cols=4, noise_sigma=0.1, trials=0, seed=0)
    for target in ((-1, 0), (0, 4), (4, 0)):
        with pytest.raises(ValueError, match="outside the 4x4 grid"):
            SimConfig(pattern="extreme_sparsity", model="rank1", n_rows=4,
                      n_cols=4, noise_sigma=0.1, trials=1, seed=0,
                      target_row=target[0], target_col=target[1])


def test_zero_noise_gives_zero_mse():
    config = SimConfig(pattern="uniform_bernoulli", model="additive",
                       n_rows=5, n_cols=5, noise_sigma=0.0, trials=3, seed=3,
                       bernoulli_p=0.8)
    result = run_experiment(config)
    finite = result.per_entry_mse[result.identifiable]
    assert np.max(np.abs(finite)) < 1e-16


def test_missing_entry_mse_matches_resistance():
    # 2x2 block fully observed except the target: R(0,0) = 3 (length-3 path)
    config = SimConfig(pattern="dense_submatrix", model="additive", n_rows=2,
                       n_cols=2, noise_sigma=0.1, trials=3000, seed=17,
                       block_rows=1, block_cols=1)
    result = run_experiment(config)
    assert abs(result.resistance_reference[0, 0] - 3.0) < 1e-9
    expected = 0.01 * 3.0
    assert abs(result.per_entry_mse[0, 0] - expected) < 0.15 * expected


def test_run_experiment_deterministic_and_export(tmp_path):
    config = SimConfig(pattern="staircase", model="panel", n_rows=10,
                       n_cols=10, noise_sigma=0.1, trials=5, seed=7, groups=2)
    first = run_experiment(config)
    second = run_experiment(config)
    assert np.array_equal(first.per_entry_mse, second.per_entry_mse,
                          equal_nan=True)
    assert np.array_equal(first.histogram_counts, second.histogram_counts)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    export_result(first, dir_a)
    export_result(second, dir_b)
    for name in ("mse.csv", "resistance.csv", "ratio.csv", "histogram.csv",
                 "metadata.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def _per_trial_mse(config):
    """Trial-by-trial reference: estimate truth + noise, square the error."""
    children = np.random.SeedSequence(config.seed).spawn(2 + config.trials)
    effects_rng = np.random.default_rng(children[1])
    realized = generate_pattern(config)
    shape = (config.n_rows, config.n_cols)
    if config.model == "additive":
        core = build_core(realized.mask)
        arms = [(core, 1.0)]
        identifiable = np.isfinite(core.resistances)
        signal = truth = (effects_rng.standard_normal(shape[0])[:, None]
                          + effects_rng.standard_normal(shape[1])[None, :])
    else:
        panel = PanelData(outcomes=np.zeros(shape), treatment=realized.treatment,
                          observed=realized.mask.grid.astype(np.int8))
        control, treated = (build_core(mask) for mask in split_masks(panel))
        arms = [(control, -1.0), (treated, 1.0)]
        identifiable = np.isfinite(control.resistances + treated.resistances)
        control_truth = (effects_rng.standard_normal(shape[0])[:, None]
                         + effects_rng.standard_normal(shape[1])[None, :])
        truth = (effects_rng.standard_normal(shape[0])[:, None]
                 + effects_rng.standard_normal(shape[1])[None, :])
        signal = np.where(realized.treatment == 1, control_truth + truth,
                          control_truth)
    accum = np.zeros(shape)
    for child in children[2:]:
        rng = np.random.default_rng(child)
        data = signal + rng.normal(0.0, config.noise_sigma, shape)
        estimate = sum(sign * efe_full(core, data).estimates for core, sign in arms)
        accum += np.where(identifiable, estimate - truth, 0.0) ** 2
    return np.where(identifiable, accum / config.trials, np.nan)


@pytest.mark.parametrize("trials", [5, 150])
@pytest.mark.parametrize("pattern, model, extra", [
    ("uniform_bernoulli", "additive", {"bernoulli_p": 0.25}),
    ("staircase", "panel", {"groups": 3}),
    ("staggered_exposure", "panel", {"groups": 3}),
])
def test_batched_loop_matches_per_trial_loop(pattern, model, extra, trials):
    # 150 trials are two full chunks and a partial one
    config = SimConfig(pattern=pattern, model=model, n_rows=9, n_cols=9,
                       noise_sigma=0.3, trials=trials, seed=41, **extra)
    result = run_experiment(config)
    expected = _per_trial_mse(config)
    assert np.array_equal(np.isnan(result.per_entry_mse), np.isnan(expected))
    assert (~np.isnan(expected)).any()
    assert np.allclose(result.per_entry_mse, expected, rtol=1e-10, atol=0.0,
                       equal_nan=True)


def _per_trial_rank1_mse(config):
    """Trial-by-trial rank-1 reference: unit factors plus
    ``rng.normal(0, sigma)`` noise, each ratio rebuilt from the path
    products; degenerate trials are skipped."""
    children = np.random.SeedSequence(config.seed).spawn(2 + config.trials)
    mask = generate_pattern(config).mask
    shape = (config.n_rows, config.n_cols)
    path_sets = [max_disjoint_paths(mask, i, j) for i, j in np.ndindex(shape)]
    accum, counts = np.zeros(shape), np.zeros(shape)
    for child in children[2:]:
        data = 1.0 + np.random.default_rng(child).normal(0.0, config.noise_sigma,
                                                         shape)
        for path_set in path_sets:
            if path_set.k == 0:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                products = [_path_products(data, path) for path in path_set.paths]
            numerator = sum(alpha * beta for alpha, beta in products) / path_set.k
            denominator = sum(beta ** 2 for _, beta in products) / path_set.k
            if not (np.isfinite([numerator, denominator]).all()
                    and denominator >= DENOMINATOR_FLOOR):
                continue
            entry = path_set.source, path_set.sink
            accum[entry] += (numerator / denominator - 1.0) ** 2
            counts[entry] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, accum / counts, np.nan)


def test_rank1_loop_matches_per_trial_oracle():
    # exact equality pins the rank-1 noise stream and the ratio arithmetic
    config = SimConfig(pattern="uniform_bernoulli", model="rank1", n_rows=7,
                       n_cols=6, noise_sigma=0.3, trials=40, seed=17,
                       bernoulli_p=0.3)
    result = run_experiment(config)
    expected = _per_trial_rank1_mse(config)
    assert np.isfinite(expected).any() and np.isnan(expected).any()
    assert np.array_equal(result.per_entry_mse, expected, equal_nan=True)
    resistances = build_core(generate_pattern(config).mask).resistances
    assert np.array_equal(result.resistance_reference, resistances)


def test_histogram_counts_sum_to_identifiable():
    config = SimConfig(pattern="uniform_bernoulli", model="additive",
                       n_rows=8, n_cols=8, noise_sigma=0.1, trials=10,
                       seed=21, bernoulli_p=0.45)
    result = run_experiment(config)
    finite_ratios = int(np.isfinite(result.ratio).sum())
    assert result.histogram_counts.sum() == finite_ratios
    assert finite_ratios == int(result.identifiable.sum())


def test_heatmap_csv_shape_and_inf(tmp_path):
    config = SimConfig(pattern="uniform_bernoulli", model="additive",
                       n_rows=6, n_cols=4, noise_sigma=0.1, trials=3,
                       seed=5, bernoulli_p=0.35)
    result = run_experiment(config)
    export_result(result, tmp_path)
    lines = (tmp_path / "mse.csv").read_text().strip().split("\n")
    assert len(lines) == 6
    assert all(len(line.split(",")) == 4 for line in lines)
    if (~result.identifiable).any():
        assert "inf" in (tmp_path / "mse.csv").read_text()


def test_squared_error_distribution_is_resistance_scaled_chi_square():
    # standardized squared errors at one entry follow chi-square with 1 dof
    rng = np.random.default_rng(31)
    mask = uniform_bernoulli_mask(8, 8, 0.4, rng)
    core = build_core(mask)
    identifiable = np.argwhere(np.isfinite(core.resistances))
    i, j = identifiable[len(identifiable) // 2]
    sigma, trials = 0.2, 4000
    truth = np.zeros((8, 8))
    draws = np.empty(trials)
    for trial in range(trials):
        estimate = efe_full(core, rng.normal(0.0, sigma, (8, 8))).estimates
        draws[trial] = estimate[i, j] ** 2
    standardized = draws / (sigma ** 2 * core.resistances[i, j])
    n_bins = 10
    edges = stats.chi2.ppf(np.linspace(0.0, 1.0, n_bins + 1), df=1)
    observed, _ = np.histogram(standardized, bins=edges)
    expected = trials / n_bins
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    assert statistic < stats.chi2.ppf(0.99, df=n_bins - 1)


def test_rank1_target_mode():
    config = SimConfig(pattern="extreme_sparsity", model="rank1", n_rows=9,
                       n_cols=9, noise_sigma=0.05, trials=300, seed=13,
                       target_row=0, target_col=0)
    result = run_experiment(config)
    assert result.identifiable[0, 0]
    assert np.isfinite(result.per_entry_mse[0, 0])
    assert result.per_entry_mse[0, 0] < 0.01  # K = 8 short paths, tiny noise
    assert np.isnan(result.per_entry_mse[1, 1])  # not computed in target mode


def test_rank1_paths_are_validated_once_per_experiment(monkeypatch):
    import flowcomplete.rank1 as rank1

    calls = []
    original = rank1.validate_path

    def counting(path, mask):
        calls.append(path)
        return original(path, mask)

    monkeypatch.setattr(rank1, "validate_path", counting)
    counts = []
    for trials in (1, 7):
        calls.clear()
        run_experiment(SimConfig(pattern="uniform_bernoulli", model="rank1",
                                 n_rows=6, n_cols=5, noise_sigma=0.1,
                                 trials=trials, seed=3, bernoulli_p=0.5))
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1]


def test_additive_experiment_builds_its_mask_once(monkeypatch):
    calls = []
    original = ObservationMask.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(ObservationMask, "__post_init__", counting)
    run_experiment(SimConfig(pattern="uniform_bernoulli", model="additive",
                             n_rows=30, n_cols=30, noise_sigma=1.0, trials=3,
                             seed=5, bernoulli_p=0.2))
    assert len(calls) == 1
