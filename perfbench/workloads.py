"""Seeded inputs, command lines and output checks of the four workloads.

Inputs are drawn with the benchmark's own numpy code from the run seed and
written as files; the program sees only those files.  The one exception is
``simulate``, whose config names a pattern that the program draws itself
from the config seed.  Each workload also computes its reference answer
here, once per seed, before any timing starts.

A smoke size runs the same code paths on inputs small enough to finish in
about a second; it is used by the self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

SIGMA = 0.1
DELTA = 0.05
RANK1_SIGMA = 0.05


@dataclass
class Case:
    """One workload instance: a CLI command plus how to judge its output.

    ``units`` is the work one command does: output-grid cells for the
    estimate commands, Monte-Carlo trials for ``simulate``.  ``check``
    returns the problems found in the output the last command wrote;
    ``corrupt`` damages that output in a way ``check`` must reject.
    ``outputs`` are hashed after every command when ``repeat_identical``
    demands byte-identical results from repeated commands.
    """

    argv: list[str]
    units: int
    facts: dict
    check: Callable[[], list[str]]
    corrupt: Callable[[], str]
    outputs: list[Path] = field(default_factory=list)
    repeat_identical: bool = False

    def digest(self) -> str:
        sha = hashlib.sha256()
        for path in self.outputs:
            sha.update(path.read_bytes())
        return sha.hexdigest()


def _cells(rng, n: int, m: int, count: int):
    """Exactly ``count`` distinct cells, uniformly; row-major order."""
    flat = np.sort(rng.choice(n * m, size=count, replace=False))
    return flat // m, flat % m


def _write_grid(path: Path, values: np.ndarray) -> None:
    """CSV grid; NaN is written as an empty cell, floats round-trip."""
    with open(path, "w") as handle:
        for row in values.tolist():
            handle.write(",".join("" if v != v else repr(v) for v in row))
            handle.write("\n")


def _write_mask(path: Path, rows, cols) -> None:
    with open(path, "w") as handle:
        handle.write("row,col\n")
        handle.writelines(f"{i + 1},{j + 1}\n" for i, j in zip(rows, cols))


def _sparse_grid(n: int, m: int, rows, cols, values) -> np.ndarray:
    dense = np.full((n, m), np.nan)
    dense[rows, cols] = values
    return dense


def _first(cells: np.ndarray) -> tuple[int, int]:
    i, j = np.argwhere(cells)[0]
    return int(i), int(j)


def _rewrite_json(path: Path, edit: Callable[[dict], str]) -> str:
    payload = ref.load_json(path)
    what = edit(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return what


def additive_tall(seed: int, work: Path, smoke: bool) -> Case:
    """``estimate-additive`` on a tall, sparse uniform mask."""
    n, m, count = (200, 20, 200) if smoke else (2000, 100, 10_000)
    rng = np.random.default_rng(seed)
    rows, cols = _cells(rng, n, m, count)
    a, b = rng.standard_normal(n), rng.standard_normal(m)
    y = a[rows] + b[cols] + SIGMA * rng.standard_normal(count)
    data, mask, out = work / "data.csv", work / "mask.csv", work / "out.json"
    _write_grid(data, _sparse_grid(n, m, rows, cols, y))
    _write_mask(mask, rows, cols)
    want = ref.additive(n, m, rows, cols, y)
    resistance = np.where(want.identifiable, want.resistance, np.nan)
    log_term = math.log(2 * n * m / DELTA)

    def check() -> list[str]:
        got = ref.load_json(out)
        problems = ref.compare_exact(
            "identifiable", np.array(got["identifiable"]), want.identifiable)
        problems += ref.compare("estimates", ref.grid(got["estimates"]),
                                want.estimates)
        problems += ref.compare("resistance", ref.grid(got["resistance"]),
                                resistance)
        problems += ref.compare("variance_bound",
                                ref.grid(got["variance_bound"]),
                                SIGMA ** 2 * resistance)
        problems += ref.compare("high_prob_bound",
                                ref.grid(got["high_prob_bound"]),
                                2 * SIGMA ** 2 * resistance * log_term)
        return problems

    def corrupt() -> str:
        def edit(payload):
            i, j = _first(want.identifiable)
            payload["estimates"][i][j] += 1e-6
            return f"estimate ({i}, {j}) off by 1e-6"
        return _rewrite_json(out, edit)

    return Case(
        argv=["estimate-additive", "--data", str(data), "--mask", str(mask),
              "--sigma", str(SIGMA), "--delta", str(DELTA), "--out", str(out)],
        units=n * m,
        facts=dict(rows=n, cols=m, observed=count, components=want.components,
                   largest_component=want.largest),
        check=check, corrupt=corrupt)


def rank1_paths(seed: int, work: Path, smoke: bool) -> Case:
    """``estimate-rank1``: one max-flow per entry of a sparse square mask."""
    n, m, count = (12, 12, 36) if smoke else (56, 56, 384)
    rng = np.random.default_rng(seed)
    rows, cols = _cells(rng, n, m, count)
    a, b = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m)
    y = a[rows] * b[cols] + RANK1_SIGMA * rng.standard_normal(count)
    data, mask, out = work / "data.csv", work / "mask.csv", work / "out.json"
    _write_grid(data, _sparse_grid(n, m, rows, cols, y))
    _write_mask(mask, rows, cols)
    want = ref.rank_one(n, m, rows, cols)
    truth = np.outer(a, b)

    def check() -> list[str]:
        got = ref.load_json(out)
        k = np.array(got["k"])
        max_len = np.array(got["max_len"])
        identifiable = np.array(got["identifiable"])
        degenerate = np.array(got["degenerate"])
        problems = ref.compare_exact("identifiable", identifiable,
                                     want.identifiable)
        problems += ref.compare_exact("k", k, want.k)
        problems += ref.compare_exact("degenerate outside identifiable",
                                      degenerate & ~want.identifiable,
                                      np.zeros_like(degenerate))
        # the longest path is odd, no shorter than a shortest path and simple
        lengths_ok = np.where(want.k > 0,
                              (max_len % 2 == 1)
                              & (max_len >= want.distance)
                              & (max_len < n + m),
                              max_len == 0)
        problems += ref.compare_exact("max_len range", lengths_ok,
                                      np.ones_like(lengths_ok))
        estimates = ref.grid(got["estimates"])
        usable = want.identifiable & ~degenerate
        problems += ref.compare_exact("estimates present", ~np.isnan(estimates),
                                      usable)
        # The ratio estimate is noisy: over many seeds the relative error has
        # median ~0.035 and 99th percentile ~0.2.  All data are positive, so
        # every estimate is; a wrong path or product breaks these limits.
        found, true = estimates[usable], truth[usable]
        error = np.abs(found - true) / true
        if error.size and (np.any(found <= 0) or np.median(error) > 0.1
                           or np.quantile(error, 0.99) > 0.5):
            problems.append(f"estimates: relative error median "
                            f"{np.median(error):.3f}, 99th percentile "
                            f"{np.quantile(error, 0.99):.3f}")
        finite = np.abs(estimates[~np.isnan(estimates)])
        m_inf = float(finite.max()) if finite.size else 0.0
        if abs(got.get("error_bound_m_inf", math.nan) - m_inf) > 1e-12 * m_inf:
            problems.append("error_bound_m_inf is not max |estimate|")
        log_term = math.log(n * m / DELTA)
        length = max_len.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (RANK1_SIGMA ** length * (1.0 + m_inf ** length)
                     * np.sqrt(2.0 ** length * log_term ** (length + 1) / k))
        problems += ref.compare("error_bound", ref.grid(got["error_bound"]),
                                np.where(want.identifiable, bound, np.nan))
        return problems

    def corrupt() -> str:
        def edit(payload):
            i, j = _first(want.identifiable)
            payload["k"][i][j] += 1
            return f"k ({i}, {j}) off by one"
        return _rewrite_json(out, edit)

    return Case(
        argv=["estimate-rank1", "--data", str(data), "--mask", str(mask),
              "--sigma", str(RANK1_SIGMA), "--delta", str(DELTA),
              "--out", str(out)],
        units=n * m,
        facts=dict(rows=n, cols=m, observed=count, components=want.components,
                   largest_component=want.largest),
        check=check, corrupt=corrupt)


def panel_did(seed: int, work: Path, smoke: bool) -> Case:
    """``panel --did`` on a staggered-exposure panel.

    Units and periods form ``groups`` equal groups; group ``g`` is treated
    in period groups ``g`` and ``g + 1`` (truncated at the end).  Every cell
    is observed; the outcome is unit + period effect, plus an additive
    heterogeneous effect on treated cells, plus noise.
    """
    units, groups = (12, 4) if smoke else (48, 4)
    size = units // groups
    treatment = np.zeros((units, units), dtype=int)
    for g in range(groups):
        treatment[g * size:(g + 1) * size, g * size:(g + 2) * size] = 1
    observed = np.ones_like(treatment)
    rng = np.random.default_rng(seed)
    effect = rng.standard_normal(units)[:, None] + rng.standard_normal(units)
    outcomes = (rng.standard_normal(units)[:, None] + rng.standard_normal(units)
                + treatment * effect
                + SIGMA * rng.standard_normal((units, units)))
    paths = {name: work / f"{name}.csv"
             for name in ("outcomes", "treatment", "observed")}
    _write_grid(paths["outcomes"], outcomes)
    _write_grid(paths["treatment"], treatment.astype(float))
    _write_grid(paths["observed"], observed.astype(float))
    out = work / "out.json"
    arms = {}
    for name, in_arm in (("control", treatment == 0), ("treated", treatment == 1)):
        rows, cols = np.nonzero(in_arm)
        arms[name] = ref.additive(units, units, rows, cols, outcomes[rows, cols])
    control, treated = arms["control"], arms["treated"]
    identifiable = control.identifiable & treated.identifiable
    resistance_sum = np.where(identifiable,
                              control.resistance + treated.resistance, np.nan)
    want_did = ref.did(outcomes, treatment, observed)
    log_term = math.log(units * units / DELTA)

    def check() -> list[str]:
        got = ref.load_json(out)
        problems = ref.compare_exact("identifiable",
                                     np.array(got["identifiable"]), identifiable)
        problems += ref.compare("beta_hat", ref.grid(got["beta_hat"]),
                                np.where(identifiable, treated.estimates
                                         - control.estimates, np.nan))
        problems += ref.compare("control_estimates",
                                ref.grid(got["control_estimates"]),
                                control.estimates)
        problems += ref.compare("treatment_estimates",
                                ref.grid(got["treatment_estimates"]),
                                treated.estimates)
        problems += ref.compare("resistance_sum",
                                ref.grid(got["resistance_sum"]), resistance_sum)
        problems += ref.compare("high_prob_bound",
                                ref.grid(got["high_prob_bound"]),
                                2 * SIGMA ** 2 * resistance_sum * log_term)
        problems += ref.compare("did", ref.grid(got["did"]), want_did)
        return problems

    def corrupt() -> str:
        def edit(payload):
            cells = np.argwhere(~np.isnan(want_did))
            (i, t), (p, q) = cells[0], cells[-1]
            did = payload["did"]
            did[i][t], did[p][q] = did[p][q], did[i][t]
            return f"did ({i}, {t}) swapped with ({p}, {q})"
        return _rewrite_json(out, edit)

    return Case(
        argv=["panel", "--outcomes", str(paths["outcomes"]),
              "--treatment", str(paths["treatment"]),
              "--observed", str(paths["observed"]), "--did",
              "--sigma", str(SIGMA), "--delta", str(DELTA), "--out", str(out)],
        units=units * units,
        facts=dict(rows=units, cols=units, observed=units * units,
                   groups=groups, treated=int(treatment.sum()),
                   components=control.components + treated.components,
                   largest_component=max(control.largest, treated.largest)),
        check=check, corrupt=corrupt)


def simulate_additive(seed: int, work: Path, smoke: bool) -> Case:
    """``simulate``: Monte-Carlo trials of the additive estimator.

    The program draws the uniform pattern from the config seed; the
    reference redraws it from the same seed, using the first spawned child
    of ``SeedSequence(seed)`` as the program documents, and checks the
    observed-cell count in the exported metadata against it.
    """
    n, p, trials = (40, 0.15, 50) if smoke else (300, 0.05, 1000)
    config, out_dir = work / "sim.cfg", work / "sim"
    config.write_text(
        "pattern = uniform_bernoulli\nmodel = additive\n"
        f"n_rows = {n}\nn_cols = {n}\nbernoulli_p = {p}\n"
        f"noise_sigma = {SIGMA}\ntrials = {trials}\nseed = {seed}\n")
    pattern_rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                               spawn_key=(0,)))
    rows, cols = np.nonzero(pattern_rng.random((n, n)) < p)
    want = ref.additive(n, n, rows, cols, np.zeros(rows.size))
    resistance = np.where(want.identifiable, want.resistance, np.inf)
    files = [out_dir / name for name in ("mse.csv", "resistance.csv",
                                         "ratio.csv", "histogram.csv",
                                         "metadata.json")]
    # per-entry MSE / resistance has relative spread sqrt(2 / trials); the
    # median over all entries is far tighter than this
    ratio_tol = 1.5 * math.sqrt(2.0 / trials)

    def check() -> list[str]:
        got = {name: np.loadtxt(out_dir / f"{name}.csv", delimiter=",", ndmin=2)
               for name in ("mse", "resistance", "ratio")}
        problems = ref.compare("resistance",
                               np.where(np.isinf(got["resistance"]), np.nan,
                                        got["resistance"]),
                               np.where(want.identifiable, resistance, np.nan))
        for name in ("mse", "ratio"):
            problems += ref.compare_exact(f"{name} identifiable",
                                          np.isfinite(got[name]),
                                          want.identifiable)
        usable = want.identifiable
        problems += ref.compare("ratio", got["ratio"][usable],
                                got["mse"][usable] / got["resistance"][usable],
                                tol=1e-12)
        median = float(np.median(got["ratio"][usable]))
        if abs(median / SIGMA ** 2 - 1.0) > ratio_tol:
            problems.append(f"median mse/resistance {median:.5g} is not "
                            f"sigma^2 = {SIGMA ** 2:g}")
        counts = np.loadtxt(out_dir / "histogram.csv", delimiter=",",
                            skiprows=1, ndmin=2)[:, 2]
        if counts.sum() != usable.sum():
            problems.append("histogram does not count every identifiable entry")
        observed = ref.load_json(out_dir / "metadata.json")["pattern"]
        if observed.get("observed_cells") != rows.size:
            problems.append("metadata observed_cells differs from the pattern")
        return problems

    def corrupt() -> str:
        path = out_dir / "resistance.csv"
        values = np.loadtxt(path, delimiter=",", ndmin=2)
        i, j = _first(want.identifiable)
        values[i, j] += 1e-6
        np.savetxt(path, values, fmt="%.17g", delimiter=",")
        return f"resistance ({i}, {j}) off by 1e-6"

    return Case(
        argv=["simulate", "--config", str(config), "--out-dir", str(out_dir)],
        units=trials,
        facts=dict(rows=n, cols=n, observed=int(rows.size),
                   components=want.components,
                   largest_component=want.largest, trials=trials),
        check=check, corrupt=corrupt, outputs=files, repeat_identical=True)


WORKLOADS = {
    "additive-tall": additive_tall,
    "rank1-paths": rank1_paths,
    "panel-did": panel_did,
    "simulate-additive": simulate_additive,
}
