"""Monte-Carlo harness: seeded noise trials over a fixed observation pattern.

One experiment fixes the pattern, redraws the noise per trial, runs the
configured estimator, and accumulates per-entry squared errors.  The
additive and panel estimators are linear and exact on their models, so
their errors are computed from the noise alone, many trials per matrix
product; the rank-1 estimator runs per trial on unit factors plus noise.
The per-entry mean squared error is compared against the effective
resistance (or the control+treatment sum for panels): their ratio should
concentrate at the noise variance.  A seed fully determines the experiment;
trials draw from spawned substreams so results are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import patterns
from .additive import observation_factors
from .errors import DegenerateDenominatorError
from .graph import ObservationMask
from .io_utils import write_grid_csv
from .panel import PanelData, split_masks
from .rank1 import _path_sets, _ratio
from .spectral import build_core

PATTERNS = ("staircase", "staggered_exposure", "uniform_bernoulli",
            "extreme_sparsity", "dense_submatrix")
MODELS = ("additive", "rank1", "panel")
_PANEL_PATTERNS = ("staircase", "staggered_exposure")
# trials solved together; bounds the (observed cells x trials) noise buffer
_TRIAL_CHUNK = 64


@dataclass(frozen=True)
class SimConfig:
    """Experiment description; the seed pins all randomness."""

    pattern: str
    model: str
    n_rows: int
    n_cols: int
    noise_sigma: float
    trials: int
    seed: int
    groups: int | None = None
    bernoulli_p: float | None = None
    block_rows: int | None = None
    block_cols: int | None = None
    base_density: float = 1.0
    thinning: float = 0.5
    target_row: int | None = None
    target_col: int | None = None
    histogram_bins: int = 40

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if (self.model == "panel") != (self.pattern in _PANEL_PATTERNS):
            raise ValueError(
                "panel model pairs exactly with the staircase and "
                "staggered_exposure patterns")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("dimensions must be positive")
        if (self.target_row is None) != (self.target_col is None):
            raise ValueError("target_row and target_col go together")
        if self.target is not None and not (0 <= self.target_row < self.n_rows
                                            and 0 <= self.target_col < self.n_cols):
            raise ValueError(f"target {self.target} (0-based) outside the "
                             f"{self.n_rows}x{self.n_cols} grid")

    @property
    def target(self) -> tuple[int, int] | None:
        if self.target_row is None:
            return None
        return self.target_row, self.target_col


@dataclass(frozen=True)
class GeneratedPattern:
    """Pattern realization: observation mask, optional treatment, parameters."""

    mask: ObservationMask
    treatment: np.ndarray | None
    metadata: dict


@dataclass(frozen=True)
class SimResult:
    """Per-entry error summary of one experiment."""

    per_entry_mse: np.ndarray
    resistance_reference: np.ndarray
    ratio: np.ndarray
    identifiable: np.ndarray
    histogram_bin_edges: np.ndarray
    histogram_counts: np.ndarray
    config: SimConfig
    metadata: dict
    runtime_stats: dict = field(repr=False, default_factory=dict)


def _substreams(config: SimConfig):
    # child 1 is unused (errors do not depend on latent effects); it stays
    # spawned so that trial t keeps child t + 2
    children = np.random.SeedSequence(config.seed).spawn(2 + config.trials)
    pattern_rng = np.random.default_rng(children[0])
    trial_rngs = [np.random.default_rng(c) for c in children[2:]]
    return pattern_rng, trial_rngs


def generate_pattern(config: SimConfig) -> GeneratedPattern:
    """Realize the configured pattern (deterministic given the seed)."""
    pattern_rng, _ = _substreams(config)
    meta: dict = {"pattern": config.pattern}
    treatment = None
    if config.pattern == "extreme_sparsity":
        if config.n_rows != config.n_cols:
            raise ValueError("extreme_sparsity is a square pattern")
        mask = patterns.extreme_sparsity_mask(config.n_rows)
    elif config.pattern == "dense_submatrix":
        block_rows = config.block_rows or max(1, config.n_rows - 1)
        block_cols = config.block_cols or max(1, config.n_cols - 1)
        mask = patterns.dense_submatrix_mask(
            config.n_rows, config.n_cols, block_rows, block_cols)
        meta.update(block_rows=block_rows, block_cols=block_cols)
    elif config.pattern == "uniform_bernoulli":
        if config.bernoulli_p is None:
            raise ValueError("uniform_bernoulli needs bernoulli_p")
        mask = patterns.uniform_bernoulli_mask(
            config.n_rows, config.n_cols, config.bernoulli_p, pattern_rng)
        meta.update(bernoulli_p=config.bernoulli_p)
    elif config.pattern == "staggered_exposure":
        if config.groups is None:
            raise ValueError("staggered_exposure needs groups")
        if config.n_rows != config.n_cols:
            raise ValueError("staggered_exposure is a square pattern")
        observed, treatment = patterns.staggered_exposure_pattern(
            config.n_rows, config.groups)
        meta.update(groups=config.groups)
    else:  # staircase
        if config.groups is None:
            raise ValueError("staircase needs groups")
        observed, treatment = patterns.staircase_pattern(
            config.n_rows, config.n_cols, config.groups, pattern_rng,
            base_density=config.base_density, thinning=config.thinning)
        meta.update(groups=config.groups, base_density=config.base_density,
                    thinning=config.thinning)
    if treatment is not None:
        meta["treated_cells"] = int(np.sum(treatment))
        mask = ObservationMask.from_dense(observed)
    meta["observed_cells"] = mask.n_observed
    return GeneratedPattern(mask=mask, treatment=treatment, metadata=meta)


def run_experiment(config: SimConfig) -> SimResult:
    """Run the configured Monte-Carlo experiment."""
    started = time.perf_counter()
    _, trial_rngs = _substreams(config)
    realized = generate_pattern(config)
    run = {"additive": _run_additive, "panel": _run_panel,
           "rank1": _run_rank1}[config.model]
    mse, reference, identifiable = run(config, realized, trial_rngs)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(identifiable, mse / reference, np.nan)
    finite = ratio[np.isfinite(ratio)]
    if finite.size:
        counts, edges = np.histogram(finite, bins=config.histogram_bins)
    else:
        counts, edges = np.histogram([], bins=config.histogram_bins,
                                     range=(0.0, 1.0))
    elapsed = time.perf_counter() - started
    runtime = {"seconds": elapsed,
               "trials_per_second": config.trials / elapsed if elapsed else None}
    return SimResult(per_entry_mse=mse, resistance_reference=reference,
                     ratio=ratio, identifiable=identifiable,
                     histogram_bin_edges=edges, histogram_counts=counts,
                     config=config, metadata=realized.metadata,
                     runtime_stats=runtime)


def _run_additive(config, realized, trial_rngs):
    return _run_linear(config, trial_rngs, [(build_core(realized.mask), 1.0)])


def _run_panel(config, realized, trial_rngs):
    base_panel = PanelData(outcomes=np.zeros((config.n_rows, config.n_cols)),
                           treatment=realized.treatment,
                           observed=realized.mask.grid.astype(np.int8))
    control_mask, treated_mask = split_masks(base_panel)
    # the effect estimate is the treated fit minus the control fit
    arms = [(build_core(control_mask), -1.0), (build_core(treated_mask), 1.0)]
    return _run_linear(config, trial_rngs, arms)


def _run_linear(config, trial_rngs, arms):
    """Per-entry mean squared error of a signed sum of additive estimators.

    ``arms`` pairs each :class:`SpectralCore` with its sign; the reference
    is the sum of the arms' resistances.  The estimators are linear and exact
    on additive matrices, so on identifiable entries a trial's error is the
    estimate from its noise alone: ``da[i] + db[j]``.  Noise is drawn per
    trial as a full standard-normal grid; the observed cells of
    ``_TRIAL_CHUNK`` trials are scaled by sigma (bit for bit the values of
    ``rng.normal(0, sigma, shape)``) and solved together, and the squared
    errors summed as ``sum da[i]^2 + sum db[j]^2 + 2 (da db^T)[i, j]``.
    """
    reference = sum(core.resistances for core, _ in arms)
    identifiable = np.isfinite(reference)
    shape = (config.n_rows, config.n_cols)
    row_squares, col_squares = np.zeros(shape[0]), np.zeros(shape[1])
    cross, noise = np.zeros(shape), np.empty(shape)
    for start in range(0, config.trials, _TRIAL_CHUNK):
        rngs = trial_rngs[start:start + _TRIAL_CHUNK]
        observed = [np.empty((core.mask.n_observed, len(rngs)))
                    for core, _ in arms]
        for t, rng in enumerate(rngs):
            rng.standard_normal(out=noise)
            for (core, _), values in zip(arms, observed):
                values[:, t] = noise[core.mask.rows, core.mask.cols]
        da, db = 0.0, 0.0
        for (core, sign), values in zip(arms, observed):
            a_hat, b_hat = observation_factors(core, config.noise_sigma * values)
            da, db = da + sign * a_hat, db + sign * b_hat
        row_squares += np.sum(da ** 2, axis=1)
        col_squares += np.sum(db ** 2, axis=1)
        cross += da @ db.T
    accum = row_squares[:, None] + col_squares[None, :] + 2.0 * cross
    mse = np.where(identifiable, accum / config.trials, np.nan)
    return mse, reference, identifiable


def _run_rank1(config, realized, trial_rngs):
    mask = realized.mask
    truth = np.ones((config.n_rows, config.n_cols))  # unit factors
    if config.target is not None:
        entries = [config.target]
    else:
        entries = [(i, j) for i in range(config.n_rows)
                   for j in range(config.n_cols)]
    path_sets = _path_sets(mask, entries)
    accum = np.zeros_like(truth)
    counts = np.zeros_like(truth)
    noise = np.empty_like(truth)
    for rng in trial_rngs:  # the stream of rng.normal(0, sigma), bit for bit
        data = truth + config.noise_sigma * rng.standard_normal(out=noise)
        for (i, j), path_set in path_sets.items():
            if path_set.k == 0:
                continue
            try:
                estimate = _ratio(data, path_set)
            except DegenerateDenominatorError:
                continue
            accum[i, j] += (estimate - truth[i, j]) ** 2
            counts[i, j] += 1
    identifiable = np.zeros(truth.shape, dtype=bool)
    for (i, j), path_set in path_sets.items():
        identifiable[i, j] = path_set.k > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        mse = np.where(counts > 0, accum / counts, np.nan)
    return mse, build_core(mask).resistances, identifiable


def export_result(result: SimResult, out_dir) -> list[Path]:
    """Write heatmap and histogram CSVs plus a metadata JSON.

    Heatmaps are full grids with ``inf`` on unidentifiable entries; the
    histogram rows are ``bin_left, bin_right, count``.  Output bytes depend
    only on the configuration (runtime statistics are not exported).
    """
    import json

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def grid(values):
        return np.where(result.identifiable, values, np.inf)

    for name, values in (("mse", grid(result.per_entry_mse)),
                         ("resistance", grid(result.resistance_reference)),
                         ("ratio", grid(result.ratio))):
        path = out / f"{name}.csv"
        write_grid_csv(path, values)
        written.append(path)

    histogram_path = out / "histogram.csv"
    with open(histogram_path, "w") as handle:
        handle.write("bin_left,bin_right,count\n")
        edges = result.histogram_bin_edges
        for k, count in enumerate(result.histogram_counts):
            handle.write(f"{edges[k]:.17g},{edges[k + 1]:.17g},{int(count)}\n")
    written.append(histogram_path)

    metadata_path = out / "metadata.json"
    payload = {"config": asdict(result.config), "pattern": result.metadata}
    with open(metadata_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(metadata_path)
    return written
