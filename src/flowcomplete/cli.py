"""Command-line front end.

Exit codes: 0 on success, 1 on validation or usage errors, 2 when
estimation is impossible (every entry unidentifiable).
"""

from __future__ import annotations

import argparse
import os
import sys
import typing

import numpy as np

from . import __version__
from .additive import efe_full
from .errors import FlowCompleteError
from .graph import ObservationMask, check_noise, vec_omega
from .io_utils import (
    read_config_file,
    read_grid_csv,
    read_mask_csv,
    write_grid_csv,
    write_json,
    write_mask_csv,
    write_resistance_csv,
)
from .maxflow import paths_and_cut
from .panel import PanelData, did_grid, estimate_effects
from .rank1 import rank1_error_bound, rank1_full
from .sim import (_PANEL_PATTERNS, SimConfig, export_result, generate_pattern,
                  run_experiment)
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

    def command(name, run, text):
        cmd = sub.add_parser(name, help=text)
        cmd.set_defaults(run=run)
        return cmd

    def noise_and_report(cmd):  # the flags of every JSON report command
        cmd.add_argument("--sigma", type=float)
        cmd.add_argument("--delta", type=float)
        cmd.add_argument("--out", required=True)

    for name, run, text in (
            ("estimate-additive", _cmd_estimate_additive,
             "closed-form flow estimates of an additive matrix"),
            ("estimate-rank1", _cmd_estimate_rank1,
             "multi-path ratio estimates of a rank-1 matrix")):
        estimate = command(name, run, text)
        estimate.add_argument("--data", required=True)
        estimate.add_argument("--mask")
        estimate.add_argument("--mask-from-data", action="store_true",
                              help="infer the mask from the finite data cells")
        noise_and_report(estimate)

    for name, run, text, kind in (
            ("resistance", _cmd_resistance,
             "effective resistances of an observation pattern", "CSV"),
            ("paths", _cmd_paths,
             "edge-disjoint paths and the minimum cut for one entry", "JSON")):
        pattern = command(name, run, text)
        pattern.add_argument("--mask", required=True)
        pattern.add_argument("--rows", type=int)
        pattern.add_argument("--cols", type=int)
        if name == "paths":
            pattern.add_argument("--pair", required=True, help="1-based 'i,j'")
        else:
            group = pattern.add_mutually_exclusive_group(required=True)
            group.add_argument("--pair", help="1-based 'i,j'")
            group.add_argument("--all", action="store_true")
        pattern.add_argument("--out", help=f"output {kind} (default: stdout)")

    panel = command("panel", _cmd_panel,
                    "per-entry treatment effects from panel data")
    panel.add_argument("--outcomes", required=True)
    panel.add_argument("--treatment", required=True)
    panel.add_argument("--observed")
    panel.add_argument("--did", action="store_true",
                       help="also report difference-in-differences estimates")
    noise_and_report(panel)

    simulate = command("simulate", _cmd_simulate, "run a Monte-Carlo experiment")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out-dir", required=True)

    generate = command("generate-pattern", _cmd_generate_pattern,
                       "write a synthetic observation/treatment pattern")
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
    return parser


def _read_mask(path, n_rows: int | None, n_cols: int | None) -> ObservationMask:
    mask, duplicates = read_mask_csv(path, n_rows=n_rows, n_cols=n_cols)
    if duplicates:
        print(f"warning: {duplicates} duplicate mask entries collapsed",
              file=sys.stderr)
    return mask


def _load_mask_and_data(args):
    # the estimators read ``data`` only at observed cells
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
    return mask, data


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


def _report(path, payload: dict, identifiable: np.ndarray) -> int:
    """Write a JSON report; estimation is impossible with nothing identifiable.

    Every report grid is NaN or inf already wherever its entry is not kept,
    so it is written as ``null`` there.
    """
    write_json(path, payload)
    if not identifiable.any():
        print("no identifiable entries", file=sys.stderr)
        return _EXIT_IMPOSSIBLE
    return _EXIT_OK


def _cmd_estimate_additive(args) -> int:
    mask, data = _load_mask_and_data(args)
    report = efe_full(build_core(mask), data, sigma=args.sigma, delta=args.delta)
    return _report(args.out, {
        "n_rows": mask.n_rows,
        "n_cols": mask.n_cols,
        "estimates": report.estimates,
        "resistance": report.effective_resistances,
        "variance_bound": report.variance_bounds,
        "high_prob_bound": report.high_prob_bounds,
        "identifiable": report.identifiable,
    }, report.identifiable)


def _cmd_estimate_rank1(args) -> int:
    check_noise(args.sigma, args.delta)  # also when no bound is computed
    mask, data = _load_mask_and_data(args)
    report = rank1_full(mask, data)
    payload = {
        "n_rows": mask.n_rows,
        "n_cols": mask.n_cols,
        "estimates": report.estimates,
        "identifiable": report.identifiable,
        "degenerate": report.degenerate,
        "k": report.path_counts,
        "max_len": report.max_lens,
    }
    if args.sigma is not None and args.delta is not None:
        finite = report.estimates[np.isfinite(report.estimates)]
        m_inf = float(np.max(np.abs(finite))) if finite.size else 0.0
        bounds = np.full(report.estimates.shape, np.nan)
        known = report.identifiable
        bounds[known] = rank1_error_bound(
            report.path_counts[known], report.max_lens[known], args.sigma,
            m_inf, mask.n_rows, mask.n_cols, args.delta)
        payload["error_bound"] = bounds  # NaN where unidentifiable
        payload["error_bound_m_inf"] = m_inf
    return _report(args.out, payload, report.identifiable)


def _cmd_resistance(args) -> int:
    mask = _read_mask(args.mask, args.rows, args.cols)
    core = build_core(mask)
    if args.all:
        rows, cols = np.indices(core.resistances.shape, sparse=True)
        values = core.resistances
    else:
        rows, cols = _parse_pair(args.pair, mask.n_rows, mask.n_cols)
        values = core.resistance(rows, cols)
    write_resistance_csv(args.out, rows, cols, values)
    return _EXIT_OK


def _cmd_paths(args) -> int:
    mask = _read_mask(args.mask, args.rows, args.cols)
    i, j = _parse_pair(args.pair, mask.n_rows, mask.n_cols)
    path_set, cut = paths_and_cut(mask, i, j)
    write_json(args.out, {
        "k": path_set.k,
        "max_len": path_set.max_len,
        "paths": [[x + 1 for x in path] for path in path_set.paths],
        "cut_edges": [[r + 1, c + 1] for r, c in cut.cut_edges],
    })
    return _EXIT_OK


def _cmd_panel(args) -> int:
    # ``PanelData`` reads outcomes and treatment only at observed cells and
    # names the first observed cell where one of them is empty
    outcomes = read_grid_csv(args.outcomes)
    treatment = read_grid_csv(args.treatment)
    observed = read_grid_csv(args.observed) if args.observed else None
    if observed is not None and np.isnan(observed).any():
        raise _UsageError("observed grid must not contain empty cells")
    panel = PanelData(outcomes=outcomes, treatment=treatment, observed=observed)
    report = estimate_effects(panel, sigma=args.sigma, delta=args.delta)
    payload = {
        "n_units": panel.n_units,
        "n_periods": panel.n_periods,
        "beta_hat": report.beta_hat,
        "control_estimates": report.control_estimates,
        "treatment_estimates": report.treatment_estimates,
        "resistance_sum": report.resistance_sum,
        "high_prob_bound": report.high_prob_bounds,
        "identifiable": report.identifiable,
    }
    if args.did:
        payload["did"] = did_grid(panel)
    return _report(args.out, payload, report.identifiable)


def sim_config_from_mapping(mapping: dict[str, str]) -> SimConfig:
    """Interpret a flat key/value mapping as a simulation configuration.

    Each value is parsed by the type of its :class:`SimConfig` field (``X``
    for an optional ``X | None``); target indices are 1-based here.
    """
    hints = typing.get_type_hints(SimConfig)
    kwargs: dict = {}
    for key, value in mapping.items():
        if key not in hints:
            raise ValueError(f"unknown configuration key {key!r}")
        kind = (typing.get_args(hints[key]) or (hints[key],))[0]
        kwargs[key] = kind(value)
    for key in ("target_row", "target_col"):
        if key in kwargs:
            kwargs[key] -= 1
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
    cols = args.rows if args.cols is None else args.cols
    config = SimConfig(pattern=args.pattern,
                       model="panel" if args.pattern in _PANEL_PATTERNS
                       else "additive",
                       n_rows=args.rows, n_cols=cols, noise_sigma=0.0,
                       trials=1, seed=args.seed, groups=args.groups,
                       bernoulli_p=args.p, block_rows=args.block_rows,
                       block_cols=args.block_cols,
                       base_density=args.base_density, thinning=args.thinning)
    realized = generate_pattern(config)
    if realized.treatment is None:
        files = [("mask.csv", write_mask_csv, realized.mask)]
    else:
        files = [("treatment.csv", write_grid_csv, realized.treatment),
                 ("observed.csv", write_grid_csv, realized.mask.grid)]
    os.makedirs(args.out_dir, exist_ok=True)
    for name, write, value in files:
        path = os.path.join(args.out_dir, name)
        write(path, value)
        print(path)
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (_UsageError, FlowCompleteError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
