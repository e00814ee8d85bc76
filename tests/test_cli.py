import json

import numpy as np
import pytest

from flowcomplete import PanelData, maxflow
from flowcomplete.cli import main
from helpers import cells, chain_mask, did_loop_grid


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_help_and_version(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "flowcomplete" in out and "numpy" in out


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

    observed, treatment = staggered_exposure_pattern(16, 4)
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


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    config = _write(tmp_path / "sim.cfg",
                    "pattern = staircase\nmodel = panel\nn_rows = 4\n"
                    "n_cols = 4\ngroups = 2\nnoise_sigma = 0.1\ntrials = 1\n"
                    "seed = 0\nwhat = 3\n")
    assert main(["simulate", "--config", config,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "what" in capsys.readouterr().err


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
