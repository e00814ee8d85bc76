"""Monte-Carlo harness: seeded noise trials over a fixed observation pattern.

One experiment fixes the pattern, redraws the noise per trial, runs the
configured estimator, and accumulates per-entry squared errors.  The
additive and panel estimators are linear and exact on their models, so
their errors are computed from the noise alone, many trials per matrix
product; the rank-1 ratio runs on unit factors plus noise, a chunk per call.
The per-entry mean squared error is compared against the effective
resistance (or the control+treatment sum for panels): their ratio should
concentrate at the noise variance.  A seed fully determines the experiment:
the pattern and each trial draw from their own spawned child of it.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import patterns
from .additive import observation_factors
from .forkjoin import fork_join
from .graph import ObservationMask, check_noise
from .io_utils import write_grid_csv, write_histogram_csv
from .maxflow import _flow_plan
from .panel import PanelData, split_masks
from .rank1 import _estimates
from .spectral import build_core

PATTERNS = ("staircase", "staggered_exposure", "uniform_bernoulli",
            "extreme_sparsity", "dense_submatrix")
MODELS = ("additive", "rank1", "panel")
_PANEL_PATTERNS = ("staircase", "staggered_exposure")
# trials solved together; bounds the (observed cells x trials) noise buffer
_TRIAL_CHUNK = 64
_NOISE_FLOOR = 15 << 14  # normals that pay for a forked part of a chunk's draws


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
        if self.histogram_bins < 1:
            raise ValueError("histogram_bins must be at least 1")
        check_noise(self.noise_sigma, None)
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


def _child_rng(config: SimConfig, child: int) -> np.random.Generator:
    # child 0 draws the pattern, t + 2 trial t; 1 (latent effects) is unused
    return np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(child,)))


def generate_pattern(config: SimConfig) -> GeneratedPattern:
    """Realize the configured pattern (deterministic given the seed)."""
    pattern_rng = _child_rng(config, 0)
    meta: dict = {"pattern": config.pattern}
    treatment = None
    if config.pattern == "extreme_sparsity":
        if config.n_rows != config.n_cols:
            raise ValueError("extreme_sparsity is a square pattern")
        mask = patterns.extreme_sparsity_mask(config.n_rows)
    elif config.pattern == "dense_submatrix":
        block_rows, block_cols = (
            max(1, size - 1) if block is None else block
            for block, size in ((config.block_rows, config.n_rows),
                                (config.block_cols, config.n_cols)))
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
        treatment = patterns.staggered_exposure_pattern(
            config.n_rows, config.groups)
        meta.update(groups=config.groups)
    else:  # staircase
        if config.groups is None:
            raise ValueError("staircase needs groups")
        treatment = patterns.staircase_pattern(
            config.n_rows, config.n_cols, config.groups, pattern_rng,
            base_density=config.base_density, thinning=config.thinning)
        meta.update(groups=config.groups, base_density=config.base_density,
                    thinning=config.thinning)
    if treatment is not None:
        meta["treated_cells"] = int(np.sum(treatment))
        mask = ObservationMask.from_dense(np.ones_like(treatment))
    meta["observed_cells"] = mask.n_observed
    return GeneratedPattern(mask=mask, treatment=treatment, metadata=meta)


def run_experiment(config: SimConfig) -> SimResult:
    """Run the configured Monte-Carlo experiment."""
    realized = generate_pattern(config)
    run = {"additive": _run_additive, "panel": _run_panel,
           "rank1": _run_rank1}[config.model]
    mse, reference, identifiable = run(config, realized)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(identifiable, mse / reference, np.nan)
    # with no finite ratio, numpy spans the bins over [0, 1]
    counts, edges = np.histogram(ratio[np.isfinite(ratio)],
                                 bins=config.histogram_bins)
    return SimResult(per_entry_mse=mse, resistance_reference=reference,
                     ratio=ratio, identifiable=identifiable,
                     histogram_bin_edges=edges, histogram_counts=counts,
                     config=config, metadata=realized.metadata)


def _observed_noise(config, masks):
    """Every model's trial noise, ``_TRIAL_CHUNK`` trials at a time: for each
    mask a ``(observed cells, trials)`` array gathered from each trial's full
    standard-normal grid, drawn by a generator made only when its trial comes
    (times sigma, bit for bit ``rng.normal(0, sigma, shape)``), row blocks of
    one chunk buffer, valid only until the next chunk is drawn.  The buffer
    is a shared anonymous mapping, made once per call; the calling process
    and forked children draw their parts of at least ``_NOISE_FLOOR`` normals
    and one trial (:func:`~.forkjoin.fork_join`) into its columns in place."""
    grid = np.empty((config.n_rows, config.n_cols))
    rows, cols = np.hstack([(mask.rows, mask.cols) for mask in masks])
    shared = mmap.mmap(-1, max(1, 8 * len(rows) * min(_TRIAL_CHUNK, config.trials)))

    def draw(start, stop):  # trials first + start..stop, into buffer's columns
        for t in range(start, stop):
            _child_rng(config, first + t + 2).standard_normal(out=grid)
            buffer[:, t] = grid[rows, cols]
    for first in range(0, config.trials, _TRIAL_CHUNK):
        size = min(_TRIAL_CHUNK, config.trials - first)
        buffer = np.frombuffer(shared, count=len(rows) * size).reshape(-1, size)
        with fork_join(draw, np.full(size, grid.size),
                       max(_NOISE_FLOOR, grid.size)) as ((start, stop), tails):
            draw(start, stop)
            for chunks in tails:  # no bytes: reading reaps the child, or raises
                list(chunks)
        yield np.split(buffer, np.cumsum([mask.n_observed for mask in masks[:-1]]))


def _run_additive(config, realized):
    return _run_linear(config, [(build_core(realized.mask), 1.0)])


def _run_panel(config, realized):
    base_panel = PanelData(outcomes=np.zeros((config.n_rows, config.n_cols)),
                           treatment=realized.treatment)
    control_mask, treated_mask = split_masks(base_panel)
    # the effect estimate is the treated fit minus the control fit
    arms = [(build_core(control_mask), -1.0), (build_core(treated_mask), 1.0)]
    return _run_linear(config, arms)


def _run_linear(config, arms):
    """Per-entry mean squared error of a signed sum of additive estimators.

    ``arms`` pairs each :class:`SpectralCore` with its sign; the reference
    is the sum of the arms' resistances.  The estimators are linear and exact
    on additive matrices, so on identifiable entries a trial's error is the
    estimate from its noise alone: ``da[i] + db[j]``.  Each chunk of
    :func:`_observed_noise` is scaled by sigma and solved at once, and the
    squared errors summed as ``sum da[i]^2 + sum db[j]^2 + 2 (da db^T)[i, j]``.
    """
    reference = sum(core.resistances for core, _ in arms)
    identifiable = np.isfinite(reference)
    row_squares, col_squares = np.zeros(config.n_rows), np.zeros(config.n_cols)
    cross = np.zeros((config.n_rows, config.n_cols))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: inf per entry
        for chunk in _observed_noise(config, [core.mask for core, _ in arms]):
            da, db = 0.0, 0.0
            for (core, sign), values in zip(arms, chunk):
                a_hat, b_hat = observation_factors(core, config.noise_sigma * values)
                da, db = da + sign * a_hat, db + sign * b_hat
            row_squares += np.sum(da ** 2, axis=1)
            col_squares += np.sum(db ** 2, axis=1)
            cross += da @ db.T
        accum = row_squares[:, None] + col_squares[None, :] + 2.0 * cross
    accum[np.isnan(accum)] = np.inf  # a sum of squares is NaN only by overflow
    mse = np.where(identifiable, accum / config.trials, np.nan)
    return mse, reference, identifiable


def _run_rank1(config, realized):
    """Ratio errors on unit factors plus noise, a chunk of trials per call."""
    shape = (config.n_rows, config.n_cols)
    entries = [config.target] if config.target is not None else np.ndindex(shape)
    plan = _flow_plan(realized.mask, entries)
    accum, counts = np.zeros((2, len(plan[0])))
    with np.errstate(over="ignore"):  # an overflowing squared error is inf
        for (values,) in _observed_noise(config, [realized.mask]):
            errors = _estimates(1.0 + config.noise_sigma * values, plan)[0] - 1.0
            counts += np.sum(~np.isnan(errors), axis=1)
            # squares as the scalar ``error ** 2`` rounds, nan (unusable) as 0
            np.fmax(np.float_power(errors, 2, out=errors), 0.0, out=errors)
            for column in errors.T:  # in trial order, as a trial loop adds
                accum += column
    mse, identifiable = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        mse.flat[plan[0]] = np.where(counts > 0, accum / counts, np.nan)
    identifiable.flat[plan[0]] = plan[1] > 0
    return mse, build_core(realized.mask).resistances, identifiable


def export_result(result: SimResult, out_dir) -> list[Path]:
    """Write heatmap and histogram CSVs plus a metadata JSON.

    Heatmaps are full grids with ``inf`` on unidentifiable entries; the
    histogram rows are ``bin_left, bin_right, count``.  Output bytes depend
    only on the configuration.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / name for name in ("mse.csv", "resistance.csv", "ratio.csv",
                                       "histogram.csv", "metadata.json")]
    for path, values in zip(written, (result.per_entry_mse,
                                      result.resistance_reference, result.ratio)):
        write_grid_csv(path, np.where(result.identifiable, values, np.inf))
    write_histogram_csv(written[3], result.histogram_bin_edges,
                        result.histogram_counts)
    with open(written[4], "w") as handle:
        json.dump({"config": asdict(result.config), "pattern": result.metadata},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    return written
