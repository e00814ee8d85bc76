import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import flowcomplete
from flowcomplete import PanelData, maxflow
from flowcomplete.cli import main, sim_config_from_mapping
from flowcomplete.io_utils import read_config_file
from flowcomplete.sim import SimConfig
from helpers import cells, chain_mask, did_loop_grid


def _write(path, text):
    path.write_text(text)
    return str(path)


def _write_grid(path, values, holes, fill):
    """CSV grid of ``values`` with the text ``fill`` at ``holes``."""
    text = [[fill if hole else repr(float(v)) for v, hole in zip(*row)]
            for row in zip(values, holes)]
    return _write(path, "".join(",".join(row) + "\n" for row in text))


def test_help_and_version(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "flowcomplete" in out and "numpy" in out


def test_every_subcommand_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    names = re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out)[1].split(",")
    assert {"estimate-additive", "estimate-rank1", "resistance", "paths",
            "panel", "simulate", "generate-pattern"} <= set(names)
    for name in names:
        assert main([name, "--help"]) == 0
        assert f"usage: flowcomplete {name}" in capsys.readouterr().out


def test_cli_import_loads_neither_scipy_nor_numpy_ma():
    # every command pays for the import in its start-up time
    code = ("import sys, flowcomplete.cli; print(sorted("
            "m for m in ('scipy', 'numpy.ma') if m in sys.modules))")
    path = [str(Path(flowcomplete.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=120, check=True)
    assert child.stdout.strip() == "[]"


def test_estimate_additive_end_to_end(tmp_path, capsys):
    data = _write(tmp_path / "data.csv", "0,1,2\n3,4,5\n6,7,8\n")
    mask = _write(tmp_path / "mask.csv", "row,col\n1,2\n2,2\n2,3\n3,3\n3,1\n")
    out = tmp_path / "report.json"
    assert main(["estimate-additive", "--data", data, "--mask", mask,
                 "--sigma", "0.1", "--delta", "0.05", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_rows"] == 3 and payload["n_cols"] == 3
    assert all(payload["identifiable"][i][j] for i in range(3) for j in range(3))
    assert abs(payload["estimates"][1][1] - 4.0) < 1e-8
    assert payload["variance_bound"] is not None
    assert payload["high_prob_bound"] is not None
    # resistance of the entry at the end of the length-5 path
    assert abs(payload["resistance"][0][0] - 5.0) < 1e-8


def test_estimate_additive_mask_from_data(tmp_path):
    data = _write(tmp_path / "data.csv", "1,,\n,2,\n,,3\n")
    out = tmp_path / "report.json"
    assert main(["estimate-additive", "--data", data, "--mask-from-data",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["estimates"][0][0] - 1.0) < 1e-9
    assert payload["estimates"][0][1] is None
    assert payload["identifiable"][0][1] is False


def test_report_grids_are_null_exactly_outside_kept_cells(tmp_path):
    # the CLI writes report grids unmasked: each must already be NaN or inf
    # wherever an entry is unidentifiable (or, for rank-1, degenerate)
    def nulls(grid):
        return [[v is None for v in row] for row in grid]

    def run(*argv):
        out = tmp_path / "report.json"
        main([*argv, "--out", str(out)])
        return json.loads(out.read_text())

    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n1,2\n2,1\n3,3\n")
    data = _write(tmp_path / "data.csv", "0,2,\n3,,\n,,5\n")
    noise = ["--sigma", "0.1", "--delta", "0.05"]
    additive = run("estimate-additive", "--data", data, "--mask", mask, *noise)
    unknown = [[not v for v in row] for row in additive["identifiable"]]
    assert any(map(any, unknown)) and not all(map(all, unknown))
    for key in ("estimates", "resistance", "variance_bound", "high_prob_bound"):
        assert nulls(additive[key]) == unknown, key
    rank1 = run("estimate-rank1", "--data", data, "--mask", mask, *noise)
    assert rank1["degenerate"][1][1]  # the backward product d[0, 0] is 0
    assert nulls(rank1["estimates"]) == [
        [not k or d for k, d in zip(*rows)]
        for rows in zip(rank1["identifiable"], rank1["degenerate"])]
    assert nulls(rank1["error_bound"]) == unknown
    outcomes = _write(tmp_path / "y.csv", "1,2,3\n4,5,6\n7,8,9\n")
    treatment = _write(tmp_path / "x.csv", "0,0,0\n0,1,1\n0,0,1\n")
    observed = _write(tmp_path / "o.csv", "1,1,0\n1,1,1\n0,1,1\n")
    panel = run("panel", "--outcomes", outcomes, "--treatment", treatment,
                "--observed", observed, *noise)
    unknown = [[not v for v in row] for row in panel["identifiable"]]
    assert any(map(any, unknown)) and not all(map(all, unknown))
    for key in ("beta_hat", "resistance_sum", "high_prob_bound"):
        assert nulls(panel[key]) == unknown, key


def test_zero_sigma_bounds_raise_no_runtime_warning(tmp_path, capsys):
    # sigma = 0 times an unidentifiable entry's infinite resistance is nan,
    # written null; computing it must not warn (as under -W error)
    def run(*argv):
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--sigma", "0", "--delta", "0.05",
                         "--out", str(out)]) == 0
        return json.loads(out.read_text())

    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n1,2\n2,1\n3,3\n")
    data = _write(tmp_path / "data.csv", "0,2,\n3,,\n,,5\n")
    additive = run("estimate-additive", "--data", data, "--mask", mask)
    known = additive["identifiable"]
    assert not all(map(all, known))
    for key in ("variance_bound", "high_prob_bound"):
        assert additive[key] == [[0.0 if k else None for k in row]
                                 for row in known], key
    outcomes = _write(tmp_path / "y.csv", "1,2,3\n4,5,6\n7,8,9\n")
    treatment = _write(tmp_path / "x.csv", "0,0,0\n0,1,1\n0,0,1\n")
    observed = _write(tmp_path / "o.csv", "1,1,0\n1,1,1\n0,1,1\n")
    panel = run("panel", "--outcomes", outcomes, "--treatment", treatment,
                "--observed", observed)
    known = panel["identifiable"]
    assert not all(map(all, known))
    assert panel["high_prob_bound"] == [[0.0 if k else None for k in row]
                                        for row in known]
    assert capsys.readouterr().err == ""


def _report_runs(tmp_path):
    """Each report command on a small pattern with unidentifiable entries,
    as a function of the noise flags that returns the exit code and JSON."""
    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n1,2\n2,1\n3,3\n")
    data = _write(tmp_path / "data.csv", "1,2,\n3,,\n,,5\n")
    outcomes = _write(tmp_path / "y.csv", "1,2,3\n4,5,6\n7,8,9\n")
    treatment = _write(tmp_path / "x.csv", "0,0,0\n0,1,1\n0,0,1\n")
    observed = _write(tmp_path / "o.csv", "1,1,0\n1,1,1\n0,1,1\n")
    commands = {
        "estimate-additive": ["--data", data, "--mask", mask],
        "estimate-rank1": ["--data", data, "--mask", mask],
        "panel": ["--outcomes", outcomes, "--treatment", treatment,
                  "--observed", observed, "--did"]}

    def run(command, *noise):
        out = tmp_path / f"{command}.json"
        code = main([command, *commands[command], *noise, "--out", str(out)])
        return code, json.loads(out.read_text())
    return {command: partial(run, command) for command in commands}


def test_overflowing_sigma_squared_bounds_are_null(tmp_path, capsys):
    # sigma**2 beyond the double range is inf at every entry, written null,
    # not an OverflowError traceback (warnings are errors in this suite)
    runs = _report_runs(tmp_path)
    for command, keys in (("estimate-additive", ("variance_bound", "high_prob_bound")),
                          ("panel", ("high_prob_bound",))):
        code, report = runs[command]("--sigma", "1e300", "--delta", "0.1")
        assert code == 0, command
        assert any(map(any, report["identifiable"]))
        for key in keys:
            assert all(v is None for row in report[key] for v in row), key
    assert capsys.readouterr().err == ""


def test_estimate_additive_near_the_double_maximum(tmp_path, capsys):
    # observations of 1e308 sum beyond the double range; the estimates are
    # still the representable entries, not null, and nothing warns
    out = tmp_path / "report.json"
    for rows, want in (("1e308,1e308,1e308\n" * 3, [[1e308] * 3] * 3),
                       ("1e308,5e307,0\n0,-5e307,-1e308\n",
                        [[1e308, 5e307, 0.0], [0.0, -5e307, -1e308]])):
        data = _write(tmp_path / "data.csv", rows)
        assert main(["estimate-additive", "--data", data, "--mask-from-data",
                     "--sigma", "1", "--delta", "0.1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        np.testing.assert_allclose(report["estimates"], want, rtol=1e-12,
                                   atol=1e-12 * 1e308)
    assert capsys.readouterr().err == ""


def test_estimates_beyond_the_double_maximum_are_null_without_a_warning(tmp_path,
                                                                     capsys):
    # an estimate or an effect beyond the double range is null; the observed
    # cells keep their values, and no warning turns into a traceback
    data = _write(tmp_path / "data.csv", "1.7e308,\n-1.7e308,1.7e308\n")
    outcomes = _write(tmp_path / "outcomes.csv", "0,0\n-1e308,1e308\n")
    treatment = _write(tmp_path / "treatment.csv", "0,0\n0,1\n")
    additive, panel = tmp_path / "additive.json", tmp_path / "panel.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate-additive", "--data", data, "--mask-from-data",
                     "--out", str(additive)]) == 0
        assert main(["panel", "--outcomes", outcomes, "--treatment", treatment,
                     "--out", str(panel)]) == 0
    estimates = json.loads(additive.read_text())["estimates"]
    assert estimates[0][1] is None
    np.testing.assert_allclose([estimates[0][0], estimates[1][0], estimates[1][1]],
                               [1.7e308, -1.7e308, 1.7e308], rtol=1e-15)
    effects = json.loads(panel.read_text())
    assert effects["beta_hat"] == [[None, None], [None, None]]
    assert effects["identifiable"] == [[False, False], [False, True]]
    assert capsys.readouterr().err == ""


def test_did_beyond_the_double_maximum_is_null_without_a_warning(tmp_path, capsys):
    # the contrast at (2, 2), 2e308, is null, as beta_hat is; the other
    # cells have no donor
    outcomes = _write(tmp_path / "outcomes.csv", "0,0\n-1e308,1e308\n")
    treatment = _write(tmp_path / "treatment.csv", "0,0\n0,1\n")
    out = tmp_path / "panel.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["panel", "--outcomes", outcomes, "--treatment", treatment,
                     "--did", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["did"] == report["beta_hat"] == [[None, None], [None, None]]
    assert capsys.readouterr().err == ""


@given(sigma=st.floats(0.0, sys.float_info.max))
@example(sigma=sys.float_info.max)
@example(sigma=1.3e154)  # sigma**2 just beyond the double range
@example(sigma=5e-324)
@settings(max_examples=30, deadline=None)
def test_report_commands_take_any_finite_sigma(sigma):
    # every bound is a finite non-negative number or null, with no warning
    with tempfile.TemporaryDirectory() as work:
        runs = _report_runs(Path(work))
        for command, run in runs.items():
            code, report = run("--sigma", repr(sigma), "--delta", "0.1")
            assert code == 0, command
            bounds = [v for key in ("variance_bound", "high_prob_bound",
                                    "error_bound") if key in report
                      for row in report[key] for v in row]
            assert bounds and all(v is None or 0 <= v < math.inf
                                  for v in bounds), command
            _, plain = run()
            assert report["identifiable"] == plain["identifiable"]


@pytest.mark.parametrize("command", ["estimate-additive", "estimate-rank1"])
def test_estimates_ignore_values_at_unobserved_cells(tmp_path, command):
    # the estimators read data only at observed cells; nothing scrubs the rest
    rng = np.random.default_rng(5)
    holes = rng.random((7, 6)) < 0.4
    holes[-1] = True  # an unobserved row: its entries are unidentifiable
    rows, cols = np.nonzero(~holes)
    mask = _write(tmp_path / "mask.csv", "row,col\n" + "".join(
        f"{i + 1},{j + 1}\n" for i, j in zip(rows, cols)))
    values = np.exp(rng.normal(size=holes.shape))  # positive, as for rank-1
    written = []
    for n, fill in enumerate(["0", "", "nan", "inf", "-inf", "1e308"]):
        data = _write_grid(tmp_path / f"data{n}.csv", values, holes, fill)
        out = tmp_path / f"report{n}.json"
        assert main([command, "--data", data, "--mask", mask, "--sigma", "0.1",
                     "--delta", "0.05", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert all(report == written[0] for report in written)
    assert b"null" in written[0] and b"true" in written[0]


def test_panel_ignores_values_at_unobserved_cells(tmp_path):
    # outcomes and treatment are read only where --observed is 1
    rng = np.random.default_rng(6)
    holes = rng.random((8, 8)) < 0.2
    outcomes = rng.normal(size=holes.shape)
    treatment = np.zeros(holes.shape)
    treatment[:4, 4:] = treatment[4:, 6:] = 1
    observed = _write_grid(tmp_path / "o.csv", ~holes, holes, "0")
    written = []
    for n, (y_fill, x_fill) in enumerate([("0", "0"), ("", "1e10"),
                                          ("nan", "257"), ("inf", "-1"),
                                          ("-1e300", "0.5")]):
        out = tmp_path / f"panel{n}.json"
        assert main(["panel", "--outcomes",
                     _write_grid(tmp_path / f"y{n}.csv", outcomes, holes, y_fill),
                     "--treatment",
                     _write_grid(tmp_path / f"x{n}.csv", treatment, holes, x_fill),
                     "--observed", observed, "--did", "--sigma", "0.1",
                     "--delta", "0.05", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert all(report == written[0] for report in written)
    did = json.loads(written[0])["did"]
    assert any(v is not None for row in did for v in row)


def test_estimate_additive_requires_mask_source(tmp_path, capsys):
    data = _write(tmp_path / "data.csv", "1,2\n3,4\n")
    code = main(["estimate-additive", "--data", data,
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "mask" in capsys.readouterr().err


def test_estimate_additive_all_unidentifiable_exit_code(tmp_path, capsys):
    data = _write(tmp_path / "data.csv", ",\n,\n")
    out = tmp_path / "report.json"
    code = main(["estimate-additive", "--data", data, "--mask-from-data",
                 "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert all(v is None for row in payload["estimates"] for v in row)


def test_estimate_additive_rejects_nan_at_observed(tmp_path, capsys):
    data = _write(tmp_path / "data.csv", "1,\n,4\n")
    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n1,2\n")
    code = main(["estimate-additive", "--data", data, "--mask", mask,
                 "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_duplicate_mask_rows_warn(tmp_path, capsys):
    data = _write(tmp_path / "data.csv", "1,2\n3,4\n")
    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n1,1\n2,2\n")
    assert main(["estimate-additive", "--data", data, "--mask", mask,
                 "--out", str(tmp_path / "r.json")]) == 0
    assert "duplicate" in capsys.readouterr().err


def test_resistance_all_and_pair(tmp_path, capsys):
    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n2,2\n")
    assert main(["resistance", "--mask", mask, "--all"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "row,col,effective_resistance"
    assert len(lines) == 5
    table = {(row.split(",")[0], row.split(",")[1]): row.split(",")[2]
             for row in lines[1:]}
    assert abs(float(table[("1", "1")]) - 1.0) < 1e-9
    assert table[("1", "2")] == "inf"

    assert main(["resistance", "--mask", mask, "--pair", "1,2"]) == 0
    out = capsys.readouterr().out
    assert out.strip().split("\n")[1] == "1,2,inf"


def test_resistance_pair_writes_17_digits_to_file_and_stdout(tmp_path, capsys):
    # the --pair line is the entry's --all line, byte for byte, wherever it goes
    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n1,2\n2,2\n3,2\n3,3\n2,4\n")
    want = "row,col,effective_resistance\n1,2,0.99999999999999989\n"
    assert main(["resistance", "--mask", mask, "--pair", "1,2"]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "pair.csv"
    assert main(["resistance", "--mask", mask, "--pair", "1,2", "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    everything = tmp_path / "all.csv"
    assert main(["resistance", "--mask", mask, "--all", "--out", str(everything)]) == 0
    assert want.split("\n")[1] in everything.read_text().split("\n")
    assert capsys.readouterr().out == ""


def test_resistance_bad_pair(tmp_path, capsys):
    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n")
    assert main(["resistance", "--mask", mask, "--pair", "9,9"]) == 1


def test_paths_json(tmp_path, capsys):
    mask = _write(tmp_path / "mask.csv",
                  "row,col\n1,2\n2,2\n2,1\n1,3\n3,3\n3,1\n")
    assert main(["paths", "--mask", mask, "--pair", "1,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 2
    assert payload["max_len"] == 3
    assert sorted(payload["paths"]) == [[1, 2, 2, 1], [1, 3, 3, 1]]
    assert len(payload["cut_edges"]) == 2


def test_paths_runs_one_max_flow(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return unit_max_flow(*args)

    unit_max_flow = maxflow._unit_max_flow
    monkeypatch.setattr(maxflow, "_unit_max_flow", counted)
    mask = _write(tmp_path / "mask.csv",
                  "row,col\n1,2\n2,2\n2,1\n1,3\n3,3\n3,1\n")
    assert main(["paths", "--mask", mask, "--pair", "1,1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["cut_edges"]) == 2
    assert len(calls) == 1


def test_explicit_zero_dimensions_are_rejected(tmp_path, capsys):
    # 0 is an explicit size, not "infer from the file"
    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n2,2\n")
    assert main(["resistance", "--mask", mask, "--rows", "0", "--cols", "0",
                 "--all"]) == 1
    assert "dimensions must be positive" in capsys.readouterr().err


def test_estimate_rank1_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    model = np.outer(np.full(4, 2.0), np.full(4, 1.5))
    rows = []
    mask_rows = ["row,col"]
    for i in range(4):
        cells = []
        for j in range(4):
            observed = (i == 0 or j == 0 or i == j) and not (i == 0 and j == 0)
            if observed:
                cells.append(f"{model[i, j]}")
                mask_rows.append(f"{i + 1},{j + 1}")
            else:
                cells.append("")
        rows.append(",".join(cells))
    data = _write(tmp_path / "data.csv", "\n".join(rows) + "\n")
    mask = _write(tmp_path / "mask.csv", "\n".join(mask_rows) + "\n")
    out = tmp_path / "rank1.json"
    assert main(["estimate-rank1", "--data", data, "--mask", mask,
                 "--sigma", "0.05", "--delta", "0.05", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["k"][0][0] == 3
    assert payload["max_len"][0][0] == 3
    assert abs(payload["estimates"][0][0] - 3.0) < 1e-9
    assert payload["error_bound"][0][0] > 0


@pytest.mark.parametrize("noise", [["--sigma", "-0.1", "--delta", "0.05"],
                                   ["--sigma", "-0.1"]])
def test_estimate_rank1_rejects_negative_sigma(tmp_path, capsys, noise):
    grid = np.outer(np.arange(1.0, 7.0), np.arange(2.0, 8.0))
    data_path = tmp_path / "data.csv"
    np.savetxt(data_path, grid, fmt="%.17g", delimiter=",")
    out = tmp_path / "rank1.json"
    assert main(["estimate-rank1", "--data", str(data_path), "--mask-from-data",
                 *noise, "--out", str(out)]) == 1
    assert "sigma must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_rank1_overflowing_bound_is_null(tmp_path):
    # every observation is 1e8, so m_inf ~ 1e8 and m_inf ** L overflows for
    # the paths of L >= 39 edges on the 40-edge chain
    mask = chain_mask(20)
    data = np.full((mask.n_rows, mask.n_cols), np.nan)
    mask_lines = ["row,col"]
    for i, j in cells(mask.rows, mask.cols):
        data[i, j] = 1e8
        mask_lines.append(f"{i + 1},{j + 1}")
    data_path = tmp_path / "data.csv"
    np.savetxt(data_path, data, fmt="%.17g", delimiter=",")
    mask_path = _write(tmp_path / "mask.csv", "\n".join(mask_lines) + "\n")
    out = tmp_path / "rank1.json"
    assert main(["estimate-rank1", "--data", str(data_path), "--mask", mask_path,
                 "--sigma", "0.05", "--delta", "0.05", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    bounds = np.array(payload["error_bound"], dtype=float)
    max_len = np.array(payload["max_len"])
    assert payload["error_bound_m_inf"] == pytest.approx(1e8)
    assert np.isnan(bounds[max_len == 39]).all()
    assert np.isfinite(bounds[max_len <= 37]).all()


def test_panel_with_did(tmp_path):
    from flowcomplete.patterns import staggered_exposure_pattern

    treatment = staggered_exposure_pattern(16, 4)
    rng = np.random.default_rng(1)
    outcomes = rng.normal(size=(16, 16))
    outcomes_path = tmp_path / "outcomes.csv"
    treatment_path = tmp_path / "treatment.csv"
    np.savetxt(outcomes_path, outcomes, fmt="%.17g", delimiter=",")
    np.savetxt(treatment_path, treatment, fmt="%d", delimiter=",")
    out = tmp_path / "panel.json"
    assert main(["panel", "--outcomes", str(outcomes_path),
                 "--treatment", str(treatment_path), "--sigma", "0.1",
                 "--delta", "0.05", "--did", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_units"] == 16
    # flow estimate exists at (1, T) even though DiD finds no donor path
    assert payload["beta_hat"][0][15] is not None
    assert payload["did"][0][15] is None
    assert payload["high_prob_bound"][0][15] > 0
    # the whole grid equals the per-cell donor scan, bit for bit
    want = did_loop_grid(PanelData(outcomes=outcomes, treatment=treatment))
    got = np.array(payload["did"], dtype=float)
    assert got.tobytes() == want.tobytes()


def test_panel_rejects_empty_observed_outcome(tmp_path, capsys):
    outcomes = _write(tmp_path / "outcomes.csv", "1,2,3\n4,,6\n7,8,9\n")
    treatment = _write(tmp_path / "treatment.csv", "0,0,0\n0,1,1\n0,1,1\n")
    out = str(tmp_path / "panel.json")
    assert main(["panel", "--outcomes", outcomes, "--treatment", treatment,
                 "--out", out]) == 1
    assert "observed cell (1, 1)" in capsys.readouterr().err
    # the same empty cell is fine once it is declared unobserved
    observed = _write(tmp_path / "observed.csv", "1,1,1\n1,0,1\n1,1,1\n")
    assert main(["panel", "--outcomes", outcomes, "--treatment", treatment,
                 "--observed", observed, "--did", "--out", out]) == 0
    payload = json.loads((tmp_path / "panel.json").read_text())
    assert payload["did"][1][1] is None


def test_panel_rejects_non_binary_grids(tmp_path, capsys):
    # non-integer cells used to be truncated toward 0 before any check
    outcomes = _write(tmp_path / "outcomes.csv", "1,2\n3,4\n")
    binary = _write(tmp_path / "binary.csv", "1,1\n1,1\n")
    fractional = _write(tmp_path / "fractional.csv", "1,0.5\n1,1\n")
    out = str(tmp_path / "panel.json")
    for grids, message in (((binary, fractional), "observed is not binary"),
                           ((fractional, binary), "treatment is not binary")):
        treatment, observed = grids
        assert main(["panel", "--outcomes", outcomes, "--treatment", treatment,
                     "--observed", observed, "--out", out]) == 1
        assert f"{message} at" in capsys.readouterr().err
    assert not (tmp_path / "panel.json").exists()


def test_panel_reads_treatment_only_at_observed_cells(tmp_path, capsys):
    # an empty treatment cell used to fail even where --observed is 0
    outcomes = _write(tmp_path / "y.csv", "1,2,3\n4,5,6\n7,8,9\n")
    observed = _write(tmp_path / "o.csv", "1,1,1\n1,1,1\n1,1,0\n")
    written = []
    for n, fill in enumerate(["0", ""]):
        treatment = _write(tmp_path / f"x{n}.csv", f"0,0,0\n0,1,1\n0,1,{fill}\n")
        out = tmp_path / f"panel{n}.json"
        assert main(["panel", "--outcomes", outcomes, "--treatment", treatment,
                     "--observed", observed, "--did", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    # without --observed every cell is observed, so the empty cell is read
    out = tmp_path / "all.json"
    assert main(["panel", "--outcomes", outcomes, "--treatment", treatment,
                 "--out", str(out)]) == 1
    assert "treatment is not binary at observed cell (2, 2)" in capsys.readouterr().err
    assert not out.exists()


def test_generate_pattern_rejects_zero_columns(tmp_path, capsys):
    # an explicit --cols 0 used to mean "as many as --rows"
    out_dir = tmp_path / "pattern"
    assert main(["generate-pattern", "--pattern", "uniform_bernoulli",
                 "--rows", "4", "--cols", "0", "--p", "0.5",
                 "--out-dir", str(out_dir)]) == 1
    assert "dimensions must be positive" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["block_rows", "block_cols"])
def test_zero_block_dimensions_are_rejected(tmp_path, capsys, key):
    # an explicit 0 used to fall back to the default block of n - 1
    out_dir = tmp_path / "pattern"
    assert main(["generate-pattern", "--pattern", "dense_submatrix", "--rows", "5",
                 "--" + key.replace("_", "-"), "0", "--out-dir", str(out_dir)]) == 1
    assert "block dimensions must be positive" in capsys.readouterr().err
    config = _write(tmp_path / "sim.cfg",
                    "pattern = dense_submatrix\nmodel = additive\nn_rows = 5\n"
                    f"n_cols = 5\nnoise_sigma = 0.1\ntrials = 2\nseed = 0\n{key} = 0\n")
    assert main(["simulate", "--config", config, "--out-dir", str(out_dir)]) == 1
    assert "block dimensions must be positive" in capsys.readouterr().err
    assert not out_dir.exists()


def test_mask_entry_beyond_given_dimensions_is_named_1_based(tmp_path, capsys):
    # it used to be reported 0-based, as "observed entry (4, 1) out of bounds"
    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n2,2\n5,2\n")
    data = _write(tmp_path / "data.csv", "1,2\n3,4\n")
    assert main(["paths", "--mask", mask, "--rows", "3", "--pair", "1,1"]) == 1
    assert "mask.csv:4: entry (5, 2) out of bounds for 3 rows" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert main(["estimate-rank1", "--data", data, "--mask", mask,
                 "--out", str(out)]) == 1
    assert "mask.csv:4: entry (5, 2) out of bounds for 2 rows" in capsys.readouterr().err
    assert not out.exists()


def test_generate_pattern_round_trip_mask(tmp_path, capsys):
    out_dir = tmp_path / "pattern"
    assert main(["generate-pattern", "--pattern", "extreme_sparsity",
                 "--rows", "5", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    mask_path = out_dir / "mask.csv"
    assert mask_path.exists()
    # the generated mask file feeds every mask-consuming subcommand unchanged
    assert main(["resistance", "--mask", str(mask_path), "--all"]) == 0
    capsys.readouterr()
    assert main(["paths", "--mask", str(mask_path), "--pair", "1,1"]) == 0
    capsys.readouterr()
    data = _write(tmp_path / "data.csv",
                  "\n".join(",".join("1" for _ in range(5)) for _ in range(5)) + "\n")
    assert main(["estimate-additive", "--data", data, "--mask", str(mask_path),
                 "--out", str(tmp_path / "add.json")]) == 0
    assert main(["estimate-rank1", "--data", data, "--mask", str(mask_path),
                 "--out", str(tmp_path / "r1.json")]) == 0


def test_generate_pattern_round_trip_panel(tmp_path, capsys):
    out_dir = tmp_path / "pattern"
    assert main(["generate-pattern", "--pattern", "staircase", "--rows", "12",
                 "--groups", "3", "--seed", "4", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    treatment_path = out_dir / "treatment.csv"
    observed_path = out_dir / "observed.csv"
    assert treatment_path.exists() and observed_path.exists()
    outcomes = _write(tmp_path / "outcomes.csv",
                      "\n".join(",".join("0" for _ in range(12))
                                for _ in range(12)) + "\n")
    assert main(["panel", "--outcomes", outcomes,
                 "--treatment", str(treatment_path),
                 "--observed", str(observed_path),
                 "--out", str(tmp_path / "panel.json")]) == 0


_GENERATED = {  # flags and the bytes of each file written, in printed order
    "staircase": (["--rows", "4", "--cols", "5", "--groups", "2",
                   "--base-density", "0.6", "--seed", "4"],
                  {"treatment.csv": "1,1,1,1,1\n1,0,1,1,1\n0,0,0,1,1\n0,0,0,1,0\n",
                   "observed.csv": "1,1,1,1,1\n" * 4}),
    "staggered_exposure": (["--rows", "4", "--groups", "2"],
                           {"treatment.csv": "1,1,1,1\n" * 2 + "0,0,1,1\n" * 2,
                            "observed.csv": "1,1,1,1\n" * 4}),
    "uniform_bernoulli": (["--rows", "3", "--cols", "4", "--p", "0.5", "--seed", "3"],
                          {"mask.csv": "row,col\n1,2\n2,1\n2,2\n2,3\n3,4\n"}),
    "extreme_sparsity": (["--rows", "3"],
                         {"mask.csv": "row,col\n1,2\n1,3\n2,1\n2,2\n3,1\n3,3\n"}),
    "dense_submatrix": (["--rows", "3", "--cols", "4"],
                        {"mask.csv": "row,col\n1,2\n1,3\n1,4\n2,1\n2,2\n2,3\n"
                                     "2,4\n3,1\n3,2\n3,3\n3,4\n"}),
}


@pytest.mark.parametrize("pattern", sorted(_GENERATED))
def test_generate_pattern_writes_pinned_bytes(tmp_path, capsys, pattern):
    flags, files = _GENERATED[pattern]
    out_dir = tmp_path / pattern
    assert main(["generate-pattern", "--pattern", pattern, *flags,
                 "--out-dir", str(out_dir)]) == 0
    assert capsys.readouterr().out == "".join(f"{out_dir / name}\n" for name in files)
    for name, text in files.items():
        assert (out_dir / name).read_bytes() == text.encode(), name


def test_simulate_from_config(tmp_path, capsys):
    config = _write(tmp_path / "sim.cfg", """
# staircase panel experiment
pattern = staircase
model = panel
n_rows = 10
n_cols = 10
groups = 2
noise_sigma = 0.1
trials = 5
seed = 11
""".lstrip())
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    assert main(["simulate", "--config", config, "--out-dir", str(out_a)]) == 0
    assert main(["simulate", "--config", config, "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("mse.csv", "resistance.csv", "ratio.csv", "histogram.csv",
                 "metadata.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    metadata = json.loads((out_a / "metadata.json").read_text())
    assert metadata["config"]["seed"] == 11
    assert metadata["pattern"]["groups"] == 2


@pytest.mark.parametrize("model", ["additive", "rank1"])
def test_simulate_with_no_observed_cell(tmp_path, capsys, model):
    # an empty pattern draws into an empty noise buffer: every entry is
    # unidentifiable (inf) and the histogram, over numpy's [0, 1], is empty
    config = _write(tmp_path / "sim.cfg",
                    "pattern = uniform_bernoulli\nmodel = %s\nn_rows = 3\n"
                    "n_cols = 2\nbernoulli_p = 0\nnoise_sigma = 0.1\n"
                    "trials = 70\nseed = 2\n" % model)
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for name in ("mse.csv", "resistance.csv", "ratio.csv"):
        assert (out / name).read_text() == "inf,inf\n" * 3
    histogram = (out / "histogram.csv").read_text().splitlines()
    assert histogram[0] == "bin_left,bin_right,count" and len(histogram) == 41
    assert histogram[1] == "0,0.025000000000000001,0"
    assert all(line.endswith(",0") for line in histogram[1:])
    metadata = json.loads((out / "metadata.json").read_text())
    assert metadata["pattern"]["observed_cells"] == 0


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    config = _write(tmp_path / "sim.cfg",
                    "pattern = staircase\nmodel = panel\nn_rows = 4\n"
                    "n_cols = 4\ngroups = 2\nnoise_sigma = 0.1\ntrials = 1\n"
                    "seed = 0\nwhat = 3\n")
    assert main(["simulate", "--config", config,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "what" in capsys.readouterr().err


def test_simulate_config_sets_every_sim_config_field(tmp_path, capsys):
    want = SimConfig(pattern="uniform_bernoulli", model="rank1", n_rows=6,
                     n_cols=7, noise_sigma=0.25, trials=2, seed=9, groups=3,
                     bernoulli_p=0.6, block_rows=2, block_cols=3,
                     base_density=0.75, thinning=0.4, target_row=2,
                     target_col=4, histogram_bins=5)
    values = dataclasses.asdict(want)
    assert None not in values.values()  # the file sets every field
    values["target_row"] += 1  # targets are 1-based in the file
    values["target_col"] += 1
    config = _write(tmp_path / "sim.cfg",
                    "".join(f"{key} = {value}\n" for key, value in values.items()))
    got = sim_config_from_mapping(read_config_file(config))
    assert got == want
    for key, value in dataclasses.asdict(got).items():
        assert type(value) is type(getattr(want, key)), key
    assert main(["simulate", "--config", config,
                 "--out-dir", str(tmp_path / "out")]) == 0
    metadata = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert metadata["config"] == dataclasses.asdict(want)


@pytest.mark.parametrize("line, message", [
    ("what = 3", "unknown configuration key 'what'"),
    ("trials = 2.5", "'2.5'"),
    ("bernoulli_p = often", "'often'"),
])
def test_simulate_rejects_badly_typed_or_unknown_keys(tmp_path, capsys, line,
                                                       message):
    config = _write(tmp_path / "sim.cfg",
                    "pattern = uniform_bernoulli\nmodel = additive\n"
                    "n_rows = 5\nn_cols = 5\nbernoulli_p = 0.5\n"
                    "noise_sigma = 0.1\ntrials = 2\nseed = 0\n" + line + "\n")
    assert main(["simulate", "--config", config,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_nan_sigma(tmp_path, capsys):
    config = _write(tmp_path / "sim.cfg",
                    "pattern = uniform_bernoulli\nmodel = rank1\nn_rows = 10\n"
                    "n_cols = 10\nbernoulli_p = 0.4\nnoise_sigma = nan\n"
                    "trials = 3\nseed = 0\n")
    assert main(["simulate", "--config", config,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "sigma must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_non_positive_histogram_bins(tmp_path, capsys):
    config = _write(tmp_path / "sim.cfg",
                    "pattern = uniform_bernoulli\nmodel = additive\n"
                    "n_rows = 10\nn_cols = 10\nbernoulli_p = 0.4\n"
                    "noise_sigma = 0.1\ntrials = 3\nseed = 0\n"
                    "histogram_bins = 0\n")
    assert main(["simulate", "--config", config,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "histogram_bins" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("groups", ["0", "-2"])
def test_generate_pattern_rejects_non_positive_groups(tmp_path, capsys, groups):
    out_dir = tmp_path / "pattern"
    assert main(["generate-pattern", "--pattern", "staggered_exposure",
                 "--rows", "8", "--groups", groups,
                 "--out-dir", str(out_dir)]) == 1
    assert "n_groups must be positive" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("rows, cols", [("5", "3"), ("3", "5")])
def test_generate_pattern_rejects_more_staircase_groups_than_rows_or_columns(
        tmp_path, capsys, rows, cols):
    out_dir = tmp_path / "pattern"
    assert main(["generate-pattern", "--pattern", "staircase", "--rows", rows,
                 "--cols", cols, "--groups", "4", "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at most min(n_rows, n_cols)" in err
    assert "Traceback" not in err and not out_dir.exists()
    config = _write(tmp_path / "sim.cfg",
                    "pattern = staircase\nmodel = panel\nn_rows = 3\n"
                    "n_cols = 3\ngroups = 5\nnoise_sigma = 0.1\ntrials = 3\n"
                    "seed = 1\n")
    assert main(["simulate", "--config", config,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "at most min(n_rows, n_cols)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_target_outside_grid(tmp_path, capsys):
    # targets are 1-based on the command line, so 0 lies outside
    config = _write(tmp_path / "sim.cfg",
                    "pattern = extreme_sparsity\nmodel = rank1\nn_rows = 4\n"
                    "n_cols = 4\nnoise_sigma = 0.1\ntrials = 1\nseed = 0\n"
                    "target_row = 0\ntarget_col = 1\n")
    assert main(["simulate", "--config", config,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "outside the 4x4 grid" in capsys.readouterr().err


def test_json_full_precision_round_trip(tmp_path):
    from flowcomplete import ObservationMask, build_core, efe_full

    value = 1.0 / 3.0 + 1e-13
    data = _write(tmp_path / "data.csv", f"{value!r}\n")
    mask = _write(tmp_path / "mask.csv", "row,col\n1,1\n")
    out = tmp_path / "r.json"
    assert main(["estimate-additive", "--data", data, "--mask", mask,
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    expected = efe_full(build_core(ObservationMask.from_pairs(1, 1, [(0, 0)])),
                        [[value]]).estimates[0, 0]
    # bit-exact round trip through the JSON text
    assert payload["estimates"][0][0] == expected
