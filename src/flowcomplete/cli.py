"""Command-line front end.

Exit codes: 0 on success, 1 on validation or usage errors, 2 when
estimation is impossible (every entry unidentifiable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .additive import efe_full
from .errors import FlowCompleteError
from .graph import ObservationMask, check_noise, vec_omega
from .io_utils import (
    matrix_to_jsonable,
    read_config_file,
    read_grid_csv,
    read_mask_csv,
    resistance_csv_text,
    write_grid_csv,
    write_json,
    write_mask_csv,
)
from .maxflow import paths_and_cut
from .panel import PanelData, did_grid, estimate_effects
from .rank1 import rank1_error_bound, rank1_full
from .sim import SimConfig, export_result, generate_pattern, run_experiment
from .spectral import build_core

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_IMPOSSIBLE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowcomplete",
                     description="Entry-specific matrix estimation from "
                                 "arbitrary observation patterns")
    parser.add_argument("--version", action="version",
                        version=f"flowcomplete {__version__} "
                                f"(python {sys.version.split()[0]}, "
                                f"numpy {np.__version__})")
    sub = parser.add_subparsers(dest="command", required=True)

    additive = sub.add_parser("estimate-additive",
                              help="closed-form flow estimates of an additive matrix")
    additive.add_argument("--data", required=True)
    additive.add_argument("--mask")
    additive.add_argument("--mask-from-data", action="store_true",
                          help="infer the mask from non-empty data cells")
    additive.add_argument("--sigma", type=float)
    additive.add_argument("--delta", type=float)
    additive.add_argument("--out", required=True)
    additive.set_defaults(run=_cmd_estimate_additive)

    rank1 = sub.add_parser("estimate-rank1",
                           help="multi-path ratio estimates of a rank-1 matrix")
    rank1.add_argument("--data", required=True)
    rank1.add_argument("--mask")
    rank1.add_argument("--mask-from-data", action="store_true")
    rank1.add_argument("--sigma", type=float)
    rank1.add_argument("--delta", type=float)
    rank1.add_argument("--out", required=True)
    rank1.set_defaults(run=_cmd_estimate_rank1)

    resistance = sub.add_parser("resistance",
                                help="effective resistances of an observation pattern")
    resistance.add_argument("--mask", required=True)
    resistance.add_argument("--rows", type=int)
    resistance.add_argument("--cols", type=int)
    group = resistance.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", help="1-based 'i,j'")
    group.add_argument("--all", action="store_true")
    resistance.add_argument("--out", help="output CSV (default: stdout)")
    resistance.set_defaults(run=_cmd_resistance)

    paths = sub.add_parser("paths",
                           help="edge-disjoint paths and the minimum cut for one entry")
    paths.add_argument("--mask", required=True)
    paths.add_argument("--rows", type=int)
    paths.add_argument("--cols", type=int)
    paths.add_argument("--pair", required=True, help="1-based 'i,j'")
    paths.add_argument("--out", help="output JSON (default: stdout)")
    paths.set_defaults(run=_cmd_paths)

    panel = sub.add_parser("panel",
                           help="per-entry treatment effects from panel data")
    panel.add_argument("--outcomes", required=True)
    panel.add_argument("--treatment", required=True)
    panel.add_argument("--observed")
    panel.add_argument("--sigma", type=float)
    panel.add_argument("--delta", type=float)
    panel.add_argument("--did", action="store_true",
                       help="also report difference-in-differences estimates")
    panel.add_argument("--out", required=True)
    panel.set_defaults(run=_cmd_panel)

    simulate = sub.add_parser("simulate", help="run a Monte-Carlo experiment")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out-dir", required=True)
    simulate.set_defaults(run=_cmd_simulate)

    generate = sub.add_parser("generate-pattern",
                              help="write a synthetic observation/treatment pattern")
    generate.add_argument("--pattern", required=True)
    generate.add_argument("--rows", type=int, required=True)
    generate.add_argument("--cols", type=int)
    generate.add_argument("--groups", type=int)
    generate.add_argument("--p", type=float)
    generate.add_argument("--block-rows", type=int)
    generate.add_argument("--block-cols", type=int)
    generate.add_argument("--base-density", type=float, default=1.0)
    generate.add_argument("--thinning", type=float, default=0.5)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out-dir", required=True)
    generate.set_defaults(run=_cmd_generate_pattern)
    return parser


def _read_mask(path, n_rows: int | None, n_cols: int | None) -> ObservationMask:
    mask, duplicates = read_mask_csv(path, n_rows=n_rows, n_cols=n_cols)
    if duplicates:
        print(f"warning: {duplicates} duplicate mask entries collapsed",
              file=sys.stderr)
    return mask


def _load_mask_and_data(args):
    data = read_grid_csv(args.data)
    if args.mask:
        mask = _read_mask(args.mask, *data.shape)
        empty = np.flatnonzero(~np.isfinite(vec_omega(mask, data)))
        if empty.size:
            cell = (int(mask.rows[empty[0]]) + 1, int(mask.cols[empty[0]]) + 1)
            raise _UsageError(f"data is empty at observed cells, e.g. {cell}")
    elif args.mask_from_data:
        mask = ObservationMask.from_data(data)
    else:
        raise _UsageError("provide --mask or pass --mask-from-data")
    return mask, np.nan_to_num(data, nan=0.0)


def _parse_pair(text: str, n_rows: int, n_cols: int) -> tuple[int, int]:
    try:
        i_text, j_text = text.split(",")
        i, j = int(i_text), int(j_text)
    except ValueError as exc:
        raise _UsageError(f"bad --pair {text!r}; expected 'i,j'") from exc
    if not (1 <= i <= n_rows and 1 <= j <= n_cols):
        raise _UsageError(f"--pair {text!r} out of range for "
                          f"{n_rows}x{n_cols} pattern")
    return i - 1, j - 1


def _cmd_estimate_additive(args) -> int:
    mask, data = _load_mask_and_data(args)
    report = efe_full(build_core(mask), data, sigma=args.sigma, delta=args.delta)
    keep = report.identifiable
    payload = {
        "n_rows": mask.n_rows,
        "n_cols": mask.n_cols,
        "estimates": matrix_to_jsonable(report.estimates, keep),
        "resistance": matrix_to_jsonable(report.effective_resistances, keep),
        "variance_bound": (matrix_to_jsonable(report.variance_bounds, keep)
                           if report.variance_bounds is not None else None),
        "high_prob_bound": (matrix_to_jsonable(report.high_prob_bounds, keep)
                            if report.high_prob_bounds is not None else None),
        "identifiable": keep.tolist(),
    }
    write_json(args.out, payload)
    if not keep.any():
        print("no identifiable entries", file=sys.stderr)
        return _EXIT_IMPOSSIBLE
    return _EXIT_OK


def _cmd_estimate_rank1(args) -> int:
    check_noise(args.sigma, args.delta)  # also when no bound is computed
    mask, data = _load_mask_and_data(args)
    report = rank1_full(mask, data)
    keep = report.identifiable & ~report.degenerate
    payload = {
        "n_rows": mask.n_rows,
        "n_cols": mask.n_cols,
        "estimates": matrix_to_jsonable(report.estimates, keep),
        "identifiable": report.identifiable.tolist(),
        "degenerate": report.degenerate.tolist(),
        "k": report.path_counts.tolist(),
        "max_len": report.max_lens.tolist(),
    }
    if args.sigma is not None and args.delta is not None:
        finite = report.estimates[np.isfinite(report.estimates)]
        m_inf = float(np.max(np.abs(finite))) if finite.size else 0.0
        bounds = np.full(report.estimates.shape, np.nan)
        for i, j in zip(*np.nonzero(report.path_counts)):
            bounds[i, j] = rank1_error_bound(
                int(report.path_counts[i, j]), int(report.max_lens[i, j]),
                args.sigma, m_inf, mask.n_rows, mask.n_cols, args.delta)
        payload["error_bound"] = matrix_to_jsonable(bounds, report.identifiable)
        payload["error_bound_m_inf"] = m_inf
    write_json(args.out, payload)
    if not report.identifiable.any():
        print("no identifiable entries", file=sys.stderr)
        return _EXIT_IMPOSSIBLE
    return _EXIT_OK


def _cmd_resistance(args) -> int:
    mask = _read_mask(args.mask, args.rows, args.cols)
    core = build_core(mask)
    if args.all:
        text = resistance_csv_text(core.resistances)
    else:
        i, j = _parse_pair(args.pair, mask.n_rows, mask.n_cols)
        value = core.resistance(i, j)
        text = ("row,col,effective_resistance\n"
                f"{i + 1},{j + 1},{value:.17g}\n")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _cmd_paths(args) -> int:
    mask = _read_mask(args.mask, args.rows, args.cols)
    i, j = _parse_pair(args.pair, mask.n_rows, mask.n_cols)
    path_set, cut = paths_and_cut(mask, i, j)
    payload = {
        "k": path_set.k,
        "max_len": path_set.max_len,
        "paths": [[x + 1 for x in path] for path in path_set.paths],
        "cut_edges": [[r + 1, c + 1] for r, c in cut.cut_edges],
    }
    if args.out:
        write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2))
    return _EXIT_OK


def _cmd_panel(args) -> int:
    outcomes = read_grid_csv(args.outcomes)
    treatment = read_grid_csv(args.treatment)
    observed = read_grid_csv(args.observed) if args.observed else None
    if np.isnan(treatment).any():
        raise _UsageError("treatment grid must not contain empty cells")
    if observed is not None and np.isnan(observed).any():
        raise _UsageError("observed grid must not contain empty cells")
    if observed is not None:
        outcomes = np.where(observed != 0, outcomes, 0.0)
    panel = PanelData(outcomes=outcomes, treatment=treatment, observed=observed)
    report = estimate_effects(panel, sigma=args.sigma, delta=args.delta)
    keep = report.identifiable
    payload = {
        "n_units": panel.n_units,
        "n_periods": panel.n_periods,
        "beta_hat": matrix_to_jsonable(report.beta_hat, keep),
        "control_estimates": matrix_to_jsonable(report.control_estimates),
        "treatment_estimates": matrix_to_jsonable(report.treatment_estimates),
        "resistance_sum": matrix_to_jsonable(report.resistance_sum, keep),
        "high_prob_bound": (matrix_to_jsonable(report.high_prob_bounds, keep)
                            if report.high_prob_bounds is not None else None),
        "identifiable": keep.tolist(),
    }
    if args.did:
        payload["did"] = matrix_to_jsonable(did_grid(panel))
    write_json(args.out, payload)
    if not keep.any():
        print("no identifiable entries", file=sys.stderr)
        return _EXIT_IMPOSSIBLE
    return _EXIT_OK


_CONFIG_INTS = {"n_rows", "n_cols", "trials", "seed", "groups", "block_rows",
                "block_cols", "target_row", "target_col", "histogram_bins"}
_CONFIG_FLOATS = {"noise_sigma", "bernoulli_p", "base_density", "thinning"}


def sim_config_from_mapping(mapping: dict[str, str]) -> SimConfig:
    """Interpret a flat key/value mapping as a simulation configuration."""
    kwargs: dict = {}
    for key, value in mapping.items():
        if key in ("pattern", "model"):
            kwargs[key] = value
        elif key in _CONFIG_INTS:
            kwargs[key] = int(value)
        elif key in _CONFIG_FLOATS:
            kwargs[key] = float(value)
        else:
            raise ValueError(f"unknown configuration key {key!r}")
    # CLI target indices are 1-based
    for key in ("target_row", "target_col"):
        if kwargs.get(key) is not None:
            kwargs[key] = kwargs[key] - 1
    return SimConfig(**kwargs)


def _cmd_simulate(args) -> int:
    mapping = read_config_file(args.config)
    config = sim_config_from_mapping(mapping)
    result = run_experiment(config)
    written = export_result(result, args.out_dir)
    for path in written:
        print(path)
    return _EXIT_OK


def _cmd_generate_pattern(args) -> int:
    cols = args.cols or args.rows
    config = SimConfig(pattern=args.pattern,
                       model="panel" if args.pattern in ("staircase",
                                                         "staggered_exposure")
                       else "additive",
                       n_rows=args.rows, n_cols=cols, noise_sigma=0.0,
                       trials=1, seed=args.seed, groups=args.groups,
                       bernoulli_p=args.p, block_rows=args.block_rows,
                       block_cols=args.block_cols,
                       base_density=args.base_density, thinning=args.thinning)
    realized = generate_pattern(config)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if realized.treatment is None:
        mask_path = os.path.join(out_dir, "mask.csv")
        write_mask_csv(mask_path, realized.mask)
        written.append(mask_path)
    else:
        treatment_path = os.path.join(out_dir, "treatment.csv")
        observed_path = os.path.join(out_dir, "observed.csv")
        write_grid_csv(treatment_path, realized.treatment)
        write_grid_csv(observed_path, realized.mask.grid)
        written.extend([treatment_path, observed_path])
    for path in written:
        print(path)
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (_UsageError, FlowCompleteError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
