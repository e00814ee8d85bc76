"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is fixed here; the seeds make each criterion deterministic.
"""

import math
import time

import numpy as np
from scipy import stats

from flowcomplete import (
    NO_LENGTH_THREE_PATH,
    AdditiveModel,
    ObservationMask,
    PanelData,
    RankOneModel,
    SimConfig,
    build_core,
    did_estimate,
    efe_full,
    estimate_effects,
    hard_instance_additive,
    hard_instance_rank1,
    max_disjoint_paths,
    min_cut,
    perturbed_unit_flow,
    rank1_entry,
    run_experiment,
    staggered_exposure_certificate,
    vec_omega,
    verify_equivalence,
)
from flowcomplete.patterns import extreme_sparsity_mask, staggered_exposure_pattern
from helpers import (
    brute_force_min_cut,
    cells,
    random_connected_mask,
    random_mask,
)


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{detail}]")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_efe_equals_lse():
    started = time.perf_counter()
    rng = np.random.default_rng(20240810)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 51))
        mask = random_connected_mask(rng, n, m, extra=float(rng.uniform(0.05, 0.4)))
        data = rng.normal(size=(n, m))
        if not verify_equivalence(build_core(mask), data, tol=1e-8):
            _report(1, "EFE=LSE", False, f"disagreement on a {n}x{m} mask")
    elapsed = time.perf_counter() - started
    _report(1, "EFE=LSE", elapsed < 30.0,
            f"100 random masks agree at 1e-8; {elapsed:.1f}s")


def _fixed_10x10():
    rng = np.random.default_rng(424242)
    mask = random_connected_mask(rng, 10, 10, extra=0.25)
    return mask, rng


def test_criterion_2_variance_law_and_thomson_dominance():
    started = time.perf_counter()
    mask, rng = _fixed_10x10()
    core = build_core(mask)
    assert np.isfinite(core.resistances).all()
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    truth = a[:, None] + b[None, :]
    sigma, trials = 0.1, 10_000
    estimates = np.empty((trials, 10, 10))
    noise_store = np.empty((trials, core.mask.n_observed))
    rows, cols = mask.rows, mask.cols
    for trial in range(trials):
        noise = rng.normal(0.0, sigma, (10, 10))
        noise_store[trial] = noise[rows, cols]
        estimates[trial] = efe_full(core, truth + noise).estimates
    sample_variance = estimates.var(axis=0, ddof=1)
    target = sigma ** 2 * core.resistances
    relative = np.abs(sample_variance - target) / target
    variance_ok = bool(np.max(relative) < 0.15)

    # Thomson dominance at the hardest entry
    i, j = np.unravel_index(np.argmax(core.resistances), (10, 10))
    efe_variance = sample_variance[i, j]
    dominated = True
    for _ in range(20):
        flow = perturbed_unit_flow(core, int(i), int(j), rng, scale=0.5)
        flow_estimates = noise_store @ flow.values
        dominated &= bool(flow_estimates.var(ddof=1) >= efe_variance)
    elapsed = time.perf_counter() - started
    _report(2, "variance law",
            variance_ok and dominated and elapsed < 120.0,
            f"max relative deviation {np.max(relative):.3f} over 100 entries; "
            f"20/20 flows dominated={dominated}; {elapsed:.1f}s")


def test_criterion_3_staircase_simulation():
    started = time.perf_counter()
    config = SimConfig(pattern="staircase", model="panel", n_rows=30,
                       n_cols=30, noise_sigma=0.1, trials=1000, seed=20240810,
                       groups=6)
    result = run_experiment(config)
    identifiable = int(result.identifiable.sum())
    ratios = result.ratio[result.identifiable]
    grand_mean = float(np.mean(ratios))
    finite = result.identifiable
    rho, _ = stats.spearmanr(result.per_entry_mse[finite],
                             result.resistance_reference[finite])
    elapsed = time.perf_counter() - started
    ok = (identifiable >= 400 and 0.0094 <= grand_mean <= 0.0106
          and rho >= 0.95 and elapsed < 300.0)
    _report(3, "staircase simulation", ok,
            f"grand mean {grand_mean:.5f} in [0.0094, 0.0106], "
            f"spearman {rho:.3f}, {identifiable} identifiable entries; "
            f"{elapsed:.1f}s")


def test_criterion_4_menger_min_cut():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        mask = random_mask(rng, n, m, float(rng.uniform(0.2, 0.7)))
        if mask.n_observed > 12:
            continue
        i, j = int(rng.integers(n)), int(rng.integers(m))
        oracle = brute_force_min_cut(mask, i, j)
        if max_disjoint_paths(mask, i, j).k != oracle:
            _report(4, "Menger/min-cut", False,
                    f"k != brute-force cut on mask {cells(mask.rows, mask.cols)}")
        if len(min_cut(mask, i, j).cut_edges) != oracle:
            _report(4, "Menger/min-cut", False, "cut certificate size mismatch")
        checked += 1
    elapsed = time.perf_counter() - started
    _report(4, "Menger/min-cut", elapsed < 60.0,
            f"200 graphs match the exhaustive oracle; {elapsed:.1f}s")


def test_criterion_5_rank1_recovery_and_scaling():
    started = time.perf_counter()
    rng = np.random.default_rng(52)
    # noiseless exact recovery
    for _ in range(10):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        mask = random_connected_mask(rng, n, m)
        model = RankOneModel(rng.uniform(1.0, 10.0, n), rng.uniform(1.0, 10.0, m))
        i, j = int(rng.integers(n)), int(rng.integers(m))
        path_set = max_disjoint_paths(mask, i, j)
        estimate = rank1_entry(mask, model.matrix(), i, j, path_set)
        if abs(estimate - model.entry(i, j)) > 1e-10 * max(abs(model.entry(i, j)), 1.0):
            _report(5, "rank-1 recovery/scaling", False, "noiseless recovery failed")

    sizes = (9, 17, 33, 65)
    rmse = []
    for n in sizes:
        config = SimConfig(pattern="extreme_sparsity", model="rank1",
                           n_rows=n, n_cols=n, noise_sigma=0.05, trials=2000,
                           seed=20240810 + n, target_row=0, target_col=0)
        result = run_experiment(config)
        rmse.append(math.sqrt(result.per_entry_mse[0, 0]))
    ks = np.array([n - 1 for n in sizes], dtype=float)
    slope = float(np.polyfit(np.log(ks), np.log(rmse), 1)[0])
    elapsed = time.perf_counter() - started
    ok = abs(slope + 0.5) <= 0.1 and elapsed < 180.0
    _report(5, "rank-1 recovery/scaling", ok,
            f"exact recovery at 1e-10; RMSE-vs-K slope {slope:.3f} "
            f"within -0.5 +/- 0.1; {elapsed:.1f}s")


def test_criterion_6_hard_instance_certificates():
    started = time.perf_counter()
    rng = np.random.default_rng(66)
    for _ in range(10):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        mask = random_connected_mask(rng, n, m)
        core = build_core(mask)
        i, j = int(rng.integers(n)), int(rng.integers(m))
        epsilon = float(rng.uniform(0.1, 0.9))
        resistance = core.resistance(i, j)
        # additive construction
        base = AdditiveModel(rng.normal(size=n), rng.normal(size=m))
        alt = hard_instance_additive(base, core, i, j, epsilon)
        diff = alt.matrix() - base.matrix()
        observed_mass = float(np.sum(diff[mask.grid] ** 2))
        if abs(observed_mass - epsilon ** 2 * resistance) > 1e-9:
            _report(6, "hard instances", False, "observed mass != eps^2 R")
        if abs(diff[i, j] - epsilon * resistance) > 1e-9:
            _report(6, "hard instances", False, "target gap != eps R")
        # rank-1 construction
        first, second = hard_instance_rank1(mask, i, j, epsilon)
        cut = min_cut(mask, i, j)
        pair_diff = first.matrix() - second.matrix()
        differing = {(r, c) for r, c in cells(mask.rows, mask.cols)
                     if abs(pair_diff[r, c]) > 1e-15}
        if differing != set(cut.cut_edges):
            _report(6, "hard instances", False,
                    "rank-1 difference support is not the min cut")
        if len(differing) != max_disjoint_paths(mask, i, j).k:
            _report(6, "hard instances", False, "cut count != K")
    elapsed = time.perf_counter() - started
    _report(6, "hard instances", elapsed < 10.0,
            f"10 random instances certified at 1e-9; {elapsed:.1f}s")


def test_criterion_7_staggered_exposure():
    started = time.perf_counter()
    details = []
    ok = True
    for n_units, groups in ((64, 4), (64, 8), (128, 8)):
        certificate = staggered_exposure_certificate(n_units, groups)
        ok &= certificate.r1_exact <= certificate.r1_bound
        ok &= certificate.r0_exact <= certificate.r0_bound
        details.append(f"N={n_units},G={groups}: "
                       f"R1 {certificate.r1_exact:.4f}<={certificate.r1_bound:.4f}, "
                       f"R0 {certificate.r0_exact:.4f}<={certificate.r0_bound:.4f}")
        observed, treatment = staggered_exposure_pattern(n_units, groups)
        panel = PanelData(outcomes=np.zeros((n_units, n_units)),
                          treatment=treatment, observed=observed)
        ok &= did_estimate(panel, 0, n_units - 1) is NO_LENGTH_THREE_PATH
        report = estimate_effects(panel)
        ok &= bool(report.identifiable[0, n_units - 1])
        ok &= bool(np.isfinite(report.beta_hat[0, n_units - 1]))
    elapsed = time.perf_counter() - started
    _report(7, "staggered exposure", ok and elapsed < 30.0,
            "; ".join(details) + f"; DiD blocked, flow estimate exists; "
            f"{elapsed:.1f}s")


def test_criterion_8_high_probability_bound():
    started = time.perf_counter()
    mask, rng = _fixed_10x10()
    core = build_core(mask)
    truth = rng.normal(size=10)[:, None] + rng.normal(size=10)[None, :]
    sigma, delta, trials = 0.1, 0.05, 10_000
    bound = 2.0 * sigma ** 2 * core.resistances * math.log(2 * 100 / delta)
    exceedances = np.zeros((10, 10))
    for _ in range(trials):
        estimate = efe_full(core, truth + rng.normal(0.0, sigma, (10, 10))).estimates
        exceedances += ((estimate - truth) ** 2 > bound)
    frequency = exceedances / trials
    worst = float(np.max(frequency))
    elapsed = time.perf_counter() - started
    _report(8, "high-probability bound", worst < delta and elapsed < 120.0,
            f"worst per-entry exceedance {worst:.5f} < {delta}; {elapsed:.1f}s")
