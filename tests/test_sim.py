import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
from flowcomplete import sim
from flowcomplete.rank1 import DENOMINATOR_FLOOR
from flowcomplete.spectral import build_core
from flowcomplete.patterns import (
    extreme_sparsity_mask,
    staggered_exposure_pattern,
    staircase_pattern,
    uniform_bernoulli_mask,
)
from helpers import assert_no_child_left, forked_parts, is_observed, path_products


def test_extreme_sparsity_count():
    mask = extreme_sparsity_mask(5)
    assert mask.n_observed == 12  # 3 * (n - 1)
    assert not is_observed(mask, 0, 0)
    for k in range(1, 5):
        assert is_observed(mask, 0, k)
        assert is_observed(mask, k, 0)
        assert is_observed(mask, k, k)


def test_staggered_exposure_counts():
    treatment = staggered_exposure_pattern(8, 2)
    assert treatment.shape == (8, 8)
    # truncated window: every group but the last is treated in two column
    # groups, the last in one, giving H^2 * (2G - 1) treated cells
    assert treatment.sum() == 16 * 3
    assert treatment[:4].sum() == 4 * 8  # first group: both column groups
    assert treatment[4:, :4].sum() == 0  # last group: own columns only
    assert treatment[4:, 4:].sum() == 16


def test_staggered_exposure_full_treatment_edge_case():
    treatment = staggered_exposure_pattern(4, 1)
    assert treatment.sum() == 16


def test_uniform_bernoulli_extremes():
    rng = np.random.default_rng(0)
    assert uniform_bernoulli_mask(4, 4, 1.0, rng).n_observed == 16
    assert uniform_bernoulli_mask(4, 4, 0.0, rng).n_observed == 0


def test_staircase_treatment_graph_connected():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        treatment = staircase_pattern(30, 30, 6, rng)
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


def test_dense_submatrix_rejects_zero_block_dimensions():
    # an explicit 0 used to fall back to the default block of n - 1
    for blocks in ({"block_rows": 0}, {"block_cols": 0}):
        config = SimConfig(pattern="dense_submatrix", model="additive",
                           n_rows=5, n_cols=5, noise_sigma=0.1, trials=1,
                           seed=0, **blocks)
        for run in (generate_pattern, run_experiment):
            with pytest.raises(ValueError, match="block dimensions must be positive"):
                run(config)


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
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be non-negative and finite"):
            SimConfig(pattern="extreme_sparsity", model="rank1", n_rows=4,
                      n_cols=4, noise_sigma=sigma, trials=1, seed=0)
    for bins in (0, -1):
        with pytest.raises(ValueError, match="histogram_bins must be at least 1"):
            SimConfig(pattern="uniform_bernoulli", model="additive", n_rows=4,
                      n_cols=4, noise_sigma=0.1, trials=1, seed=0,
                      bernoulli_p=0.5, histogram_bins=bins)
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
    edges = first.histogram_bin_edges.tolist()
    assert (dir_a / "histogram.csv").read_text() == "bin_left,bin_right,count\n" + "".join(
        f"{edges[k]:.17g},{edges[k + 1]:.17g},{int(count)}\n"
        for k, count in enumerate(first.histogram_counts))


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
            numerator = denominator = 0.0  # summed left to right
            with np.errstate(over="ignore", invalid="ignore"):
                for path in path_set.paths:
                    alpha, beta = path_products(data, path)
                    numerator += alpha * beta
                    denominator += beta ** 2
            numerator, denominator = numerator / path_set.k, denominator / path_set.k
            if not (np.isfinite([numerator, denominator]).all()
                    and denominator >= DENOMINATOR_FLOOR
                    and np.isfinite(numerator / denominator)):
                continue
            entry = path_set.source, path_set.sink
            accum[entry] += (numerator / denominator - 1.0) ** 2
            counts[entry] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, accum / counts, np.nan)


@pytest.mark.parametrize("trials", [40, 70])
def test_rank1_loop_matches_per_trial_oracle(trials):
    # exact equality pins the rank-1 noise stream and the ratio arithmetic;
    # 70 trials cross a chunk boundary
    config = SimConfig(pattern="uniform_bernoulli", model="rank1", n_rows=7,
                       n_cols=6, noise_sigma=0.3, trials=trials, seed=17,
                       bernoulli_p=0.3)
    result = run_experiment(config)
    expected = _per_trial_rank1_mse(config)
    assert np.isfinite(expected).any() and np.isnan(expected).any()
    assert np.array_equal(result.per_entry_mse, expected, equal_nan=True)
    resistances = build_core(generate_pattern(config).mask).resistances
    assert np.array_equal(result.resistance_reference, resistances)


@pytest.mark.parametrize("trials", [60, 130])
def test_rank1_squared_errors_round_as_the_scalar_power(trials):
    # with this seed and 60 trials, squaring the errors as x * x instead of
    # the scalar ``error ** 2`` moves one mean squared error by 5.6e-17;
    # 130 trials are two full chunks and a partial one
    config = SimConfig(pattern="uniform_bernoulli", model="rank1", n_rows=8,
                       n_cols=8, noise_sigma=0.3, trials=trials, seed=24,
                       bernoulli_p=0.35)
    assert np.array_equal(run_experiment(config).per_entry_mse,
                          _per_trial_rank1_mse(config))


@pytest.mark.parametrize("model,pattern", [("additive", "uniform_bernoulli"),
                                           ("panel", "staircase"),
                                           ("rank1", "uniform_bernoulli")])
@pytest.mark.parametrize("sigma", [1e300, np.finfo(float).max])
def test_overflowing_noise_gives_inf_mse_without_a_warning(model, pattern, sigma):
    # squared errors beyond the double range are inf per entry (warnings are
    # errors in this suite); a rank-1 entry with no usable trial stays NaN
    config = SimConfig(pattern=pattern, model=model, n_rows=6, n_cols=6,
                       noise_sigma=sigma, trials=20, seed=1, bernoulli_p=0.5,
                       groups=2)
    result = run_experiment(config)
    mse = result.per_entry_mse[result.identifiable]
    assert mse.size and not np.isfinite(mse).any()
    if model == "rank1":
        assert (mse[~np.isnan(mse)] == np.inf).any()
    else:
        assert (mse == np.inf).all()


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


def test_rank1_target_mode_reads_the_full_run_at_its_entry():
    # one entry's errors are scattered back to that entry, and the trials
    # see the same noise as a run over every entry
    config = SimConfig(pattern="uniform_bernoulli", model="rank1", n_rows=7,
                       n_cols=6, noise_sigma=0.3, trials=70, seed=17,
                       bernoulli_p=0.4)
    full = run_experiment(config)
    for target in ((4, 2), (6, 5)):
        assert full.identifiable[target]
        one = run_experiment(dataclasses.replace(
            config, target_row=target[0], target_col=target[1]))
        assert np.array_equal(np.argwhere(one.identifiable), [target])
        assert np.array_equal(np.argwhere(np.isfinite(one.per_entry_mse)), [target])
        assert one.per_entry_mse[target] == full.per_entry_mse[target]


def test_rank1_paths_are_validated_once_per_experiment(monkeypatch):
    import flowcomplete.maxflow as maxflow

    calls = []
    original = maxflow._path_cells

    def counting(mask, sets, lengths, vertices):  # one call per chunk of sets
        calls.append(len(sets))
        return original(mask, sets, lengths, vertices)

    monkeypatch.setattr(maxflow, "_path_cells", counting)
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


def _noise_masks(config):
    """The masks whose noise a run of ``config`` draws: the pattern's, or
    the control and treated arms of a panel."""
    realized = generate_pattern(config)
    if config.model != "panel":
        return [realized.mask]
    return list(split_masks(PanelData(
        outcomes=np.zeros((config.n_rows, config.n_cols)),
        treatment=realized.treatment, observed=realized.mask.grid.astype(np.int8))))


def _drawn(config, masks):
    """Every chunk of ``_observed_noise``, copied as it is yielded: the chunks
    share one buffer, so a chunk's arrays hold only until the next is drawn."""
    chunks, previous = [], None
    for chunk in sim._observed_noise(config, masks):
        assert previous is None or np.shares_memory(previous, chunk[0])
        previous = chunk[0]
        chunks.append([values.copy() for values in chunk])
    return chunks


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("trials, last", [(150, 22), (129, 1)])
@pytest.mark.parametrize("pattern, model, extra", [
    ("uniform_bernoulli", "additive", {"bernoulli_p": 0.5}),
    ("staggered_exposure", "panel", {"groups": 4}),
])
def test_forked_noise_draws_are_the_serial_draws(monkeypatch, cpus, trials, last,
                                                 pattern, model, extra):
    # a floor below one trial's normals forks every chunk of at least ``cpus``
    # trials, but never into a part with no trial: two full chunks, then a
    # partial one of 22 trials, which forks, or of 1, which does not
    config = SimConfig(pattern=pattern, model=model, n_rows=40, n_cols=40,
                       noise_sigma=0.3, trials=trials, seed=41, **extra)
    masks = _noise_masks(config)
    assert len(masks) == (2 if model == "panel" else 1)
    monkeypatch.setattr(sim, "_NOISE_FLOOR", 1)
    forks = forked_parts(monkeypatch, 1)
    serial = _drawn(config, masks)
    assert forks == [] and [len(chunk) for chunk in serial] == [len(masks)] * 3
    assert serial[-1][0].shape[1] == last
    forks = forked_parts(monkeypatch, cpus)
    forked = _drawn(config, masks)
    assert len(forks) == (2 + (last >= cpus)) * (cpus - 1)
    assert_no_child_left()
    for got_chunk, want_chunk in zip(forked, serial, strict=True):
        for got, want, mask in zip(got_chunk, want_chunk, masks, strict=True):
            assert got.flags.c_contiguous and got.shape == want.shape
            assert got.shape[0] == mask.n_observed
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fail_at", [1, 2])
def test_noise_draws_run_here_when_a_fork_fails(monkeypatch, fail_at):
    # with 3 CPUs each full chunk forks twice; from the failed fork on, the
    # chunk's parts left are drawn in the calling process, and the next chunk
    # forks again
    config = SimConfig(pattern="staggered_exposure", model="panel", n_rows=40,
                       n_cols=40, noise_sigma=0.3, trials=150, seed=41, groups=4)
    masks = _noise_masks(config)
    monkeypatch.setattr(sim, "_NOISE_FLOOR", 1)
    forked_parts(monkeypatch, 1)
    serial = _drawn(config, masks)
    forks = forked_parts(monkeypatch, 3, fail_at=fail_at)
    drawn = _drawn(config, masks)
    assert len(forks) == 6 - 1 - (fail_at == 1)
    assert_no_child_left()
    for got_chunk, want_chunk in zip(drawn, serial, strict=True):
        for got, want in zip(got_chunk, want_chunk, strict=True):
            assert got.tobytes() == want.tobytes()


def test_noise_draws_fork_only_past_their_floor(monkeypatch):
    # a full chunk of 64 x cols grids is two parts of exactly the floor, one
    # column less is not; timed serial against forked, a chunk of 88x88
    # grids drew faster forked and one of 84x84 broke even.  The staircase
    # config's 30x30 panel stays in one part
    cols = 2 * sim._NOISE_FLOOR // (64 * sim._TRIAL_CHUNK)
    forks = forked_parts(monkeypatch, 2)
    for n_rows, n_cols, expected in ((64, cols, 1), (64, cols - 1, 0),
                                     (88, 88, 1), (84, 84, 0)):
        forks.clear()
        config = SimConfig(pattern="uniform_bernoulli", model="additive",
                           n_rows=n_rows, n_cols=n_cols, noise_sigma=0.1,
                           trials=sim._TRIAL_CHUNK, seed=7, bernoulli_p=0.1)
        run_experiment(config)
        assert len(forks) == expected
    forks.clear()
    run_experiment(SimConfig(pattern="staircase", model="panel", n_rows=30,
                             n_cols=30, noise_sigma=0.1, trials=130, seed=1,
                             groups=6))
    assert forks == []


def test_a_failing_noise_child_raises_in_the_parent(monkeypatch):
    parent, child_rng = os.getpid(), sim._child_rng

    def fail_in_child(config, child):
        if os.getpid() != parent:
            raise MemoryError("in the child")
        return child_rng(config, child)
    monkeypatch.setattr(sim, "_child_rng", fail_in_child)
    config = SimConfig(pattern="uniform_bernoulli", model="additive", n_rows=128,
                       n_cols=128, noise_sigma=0.1, trials=70, seed=3,
                       bernoulli_p=0.05)
    forks = forked_parts(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="exited with 1"):
        run_experiment(config)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts OS threads in /proc/self/stat")
def test_forked_noise_draws_fork_with_one_os_thread():
    # each chunk forks right after the previous chunk's BLAS solves; numpy's
    # OpenBLAS joins its workers in its fork handler, so the parent has one
    # OS thread at every fork (Python 3.12+ warns in os.fork() otherwise)
    code = textwrap.dedent("""\
        import os
        from flowcomplete.sim import SimConfig, run_experiment

        def threads():
            with open("/proc/self/stat") as stat:
                return int(stat.read().rsplit(")", 1)[1].split()[17])
        counts = []
        os.register_at_fork(after_in_parent=lambda: counts.append(threads()))
        os.sched_getaffinity = lambda pid: {0, 1}
        for model, pattern in (("additive", "uniform_bernoulli"),
                               ("panel", "staggered_exposure")):
            run_experiment(SimConfig(pattern=pattern, model=model, n_rows=128,
                                     n_cols=128, noise_sigma=0.1, trials=130,
                                     seed=5, bernoulli_p=0.05, groups=4))
        assert counts == [1, 1, 1, 1], counts
        """)
    path = [str(Path(sim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0 and child.stderr == "", child.stderr
