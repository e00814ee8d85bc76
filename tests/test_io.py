import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from flowcomplete import io_utils
from flowcomplete.io_utils import (
    read_grid_csv,
    read_mask_csv,
    write_grid_csv,
    write_json,
    write_mask_csv,
    write_resistance_csv,
)
from flowcomplete import ObservationMask
from helpers import assert_no_child_left, forked_parts


def test_grid_csv_specials(tmp_path):
    path = tmp_path / "grid.csv"
    write_grid_csv(path, [[math.inf, -math.inf, math.nan, 1 / 3]])
    text = path.read_text()
    assert text == "inf,-inf,nan,0.33333333333333331\n"
    assert float(text.split(",")[-1]) == 1 / 3


def test_grid_writers_match_cell_by_cell_reference(tmp_path):
    # the templates print what a per-cell ``f"{v:.17g}"`` and ``np.savetxt``
    # printed, on doubles across the whole exponent range and the specials
    rng = np.random.default_rng(5)
    grid = rng.standard_normal((9, 7)) * 10.0 ** rng.integers(-300, 300, (9, 7))
    grid[0, :5] = math.nan, math.inf, -math.inf, -0.0, 0.0
    grid[1, :3] = 1.0, 5e-324, 1.7976931348623157e308
    path, saved = tmp_path / "grid.csv", tmp_path / "saved.csv"
    write_grid_csv(path, grid)
    np.savetxt(saved, grid, fmt="%.17g", delimiter=",")
    cells = [[f"{v:.17g}" for v in row] for row in grid.tolist()]
    assert path.read_text() == "".join(",".join(row) + "\n" for row in cells)
    assert path.read_bytes() == saved.read_bytes()
    expected = "row,col,effective_resistance\n" + "".join(
        f"{i + 1},{j + 1},{value}\n"
        for i, row in enumerate(cells) for j, value in enumerate(row))
    write_resistance_csv(path, *np.indices(grid.shape, sparse=True), grid)
    assert path.read_text() == expected


def test_mask_round_trip(tmp_path):
    mask = ObservationMask.from_pairs(3, 4, [(0, 1), (2, 3), (1, 0)])
    path = tmp_path / "mask.csv"
    write_mask_csv(path, mask)
    assert path.read_bytes() == b"row,col\n1,2\n2,1\n3,4\n"  # row-major, 1-based
    loaded, duplicates = read_mask_csv(path, n_rows=3, n_cols=4)
    assert duplicates == 0
    assert loaded == mask


def test_mask_requires_header_and_one_based_indices(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("i,j\n1,1\n")
    with pytest.raises(ValueError):
        read_mask_csv(bad_header)
    zero_based = tmp_path / "b.csv"
    zero_based.write_text("row,col\n0,1\n")
    with pytest.raises(ValueError):
        read_mask_csv(zero_based)


def test_mask_entry_beyond_given_dimensions_names_its_line(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("row,col\n1,1\n\n5,3\n")
    with pytest.raises(ValueError, match=r"mask\.csv:4: entry \(5, 3\) "
                                         r"out of bounds for 4 rows$"):
        read_mask_csv(path, n_rows=4)
    with pytest.raises(ValueError, match=r":4: entry \(5, 3\) out of bounds "
                                         r"for 2 columns$"):
        read_mask_csv(path, n_rows=6, n_cols=2)
    # within the given dimensions, or with none given, the entry is read
    for dims in ({"n_rows": 5, "n_cols": 3}, {"n_cols": 4}, {}):
        mask, _ = read_mask_csv(path, **dims)
        assert (mask.rows.tolist(), mask.cols.tolist()) == ([0, 4], [0, 2])


def test_grid_round_trip(tmp_path):
    grid = np.array([[1.5, math.nan], [math.inf, -2.25]])
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    with open(path, "a") as handle:  # nan and inf in any case, signed too
        handle.write("NaN, -INF \n+Infinity,nan\n")
    loaded = read_grid_csv(path)
    assert loaded[0, 0] == 1.5 and loaded[1, 1] == -2.25
    assert math.isnan(loaded[0, 1]) and math.isinf(loaded[1, 0])
    assert np.array_equal(loaded[2:], [[math.nan, -math.inf], [math.inf, math.nan]],
                          equal_nan=True)


def test_grid_rejects_ragged_rows(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        read_grid_csv(path)


def _jsonable_loop(matrix, keep=None):
    """Cell-by-cell reference for the JSON of a grid: ``null`` where ``keep``
    is False or the value is not finite."""
    arr = np.asarray(matrix, dtype=float)
    result = []
    for i in range(arr.shape[0]):
        row = []
        for j in range(arr.shape[1]):
            value = arr[i, j]
            masked = keep is not None and not keep[i, j]
            row.append(None if masked or not math.isfinite(value) else float(value))
        result.append(row)
    return result


def test_write_json_nulls_masked_grid_like_cell_loop(tmp_path):
    rng = np.random.default_rng(8)
    grid = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    grid[0, 0], grid[1, 2], grid[3, 4] = math.nan, math.inf, -math.inf
    grid[6, 1], grid[2, 3] = -0.0, 1 / 3
    keep = rng.random((7, 5)) < 0.7
    keep[0, 0] = keep[1, 2] = keep[6, 1] = keep[2, 3] = True
    path = tmp_path / "grid.json"
    for mask, written in ((None, grid), (keep, np.where(keep, grid, np.nan))):
        expected = json.dumps({"grid": _jsonable_loop(grid, mask)}, indent=2)
        write_json(path, {"grid": written})
        assert path.read_text() == expected + "\n"


def test_write_json_matches_indented_dump(tmp_path):
    rng = np.random.default_rng(9)
    grid = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-300, 300, (4, 3))
    grid[0, 0], grid[1, 1], grid[2, 2] = math.nan, math.inf, -math.inf
    keep = rng.random((4, 3)) < 0.6
    payloads = [
        {"n_rows": 4, "n_cols": 3,
         "estimates": np.where(keep, grid, np.nan),     # masked cells
         "resistance": grid,                            # NaN/+-inf -> null
         "variance_bound": None,
         "identifiable": keep.tolist(),
         "k": rng.integers(0, 5, (4, 3)).tolist(),
         "error_bound_m_inf": 2.5},
        {"k": 0, "max_len": 0, "paths": [], "cut_edges": []},
        {"paths": [[1, 2, 3, 4], [1]], "cut_edges": [[1, 2]], "label": "a, b"},
        {},
    ]
    path = tmp_path / "out.json"
    for payload in payloads:
        write_json(path, payload)
        assert path.read_text() == _dumps(payload) + "\n"


def _nulled(arr: np.ndarray):
    """Nested lists of an array, ``None`` at each non-finite float cell."""
    if arr.ndim > 1:
        return [_nulled(row) for row in arr]
    return [None if isinstance(v, float) and not math.isfinite(v) else v
            for v in arr.tolist()]


def _dumps(payload) -> str:
    """``json.dumps(indent=2)`` with each array as its nulled nested lists."""
    return json.dumps(payload, indent=2, default=_nulled)


def test_write_json_streams_arrays_as_nulled_lists(tmp_path):
    rng = np.random.default_rng(10)
    grid = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
    grid[0, :5] = math.nan, math.inf, -math.inf, -0.0, 0.0
    grid[1, :5] = 5e-324, -2.5e-310, 1e300, -1e-300, 1 / 3
    grids = [grid, grid[:1], grid[:, :1], grid[2:3, 4:5], grid[:, :0],
             grid[:0], grid[:0, :0],
             grid > 0, rng.integers(-9, 9, (4, 3)), np.array([[True], [False]])]
    payloads = [{"grid": g} for g in grids] + [
        {"n_rows": 6, "grid": grid, "empty": grid[:0], "columns": grid[:, :0],
         "keep": grid > 0, "k": rng.integers(0, 5, (6, 5)), "bound": None,
         "m_inf": 2.5, "label": "a, b"},
    ]
    path = tmp_path / "out.json"
    for payload in payloads:
        write_json(path, payload)
        assert path.read_text() == _dumps(payload) + "\n"
    write_json(path, {"grid": grid})
    assert np.array_equal(
        np.array(json.loads(path.read_text())["grid"], dtype=float),
        np.where(np.isfinite(grid), grid, np.nan), equal_nan=True)


def test_write_json_streams_a_grid_in_little_memory(tmp_path):
    # the nested lists of this grid take ~6.5 MB; its rows stream in far less
    grid = np.random.default_rng(11).standard_normal((2000, 100))
    grid[::7, ::3], grid[1::5, 2::9] = math.nan, math.inf
    tracemalloc.start()
    try:
        write_json(tmp_path / "grid.json", {"grid": grid})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _forking_payloads():
    """Reports past the writer's floor for three parts: parts split inside a
    grid, and (three grids of equal float cells) at grid boundaries."""
    rng = np.random.default_rng(13)
    grid = rng.standard_normal((600, 100)) * 10.0 ** rng.integers(-300, 300, (600, 100))
    grid[::7, ::3], grid[1::5, 2::9], grid[2::11, 1::4] = math.nan, math.inf, -math.inf
    wide = rng.standard_normal((400, 120))
    return [
        {"n_rows": 600, "estimates": grid, "empty": grid[:0], "label": "a, b",
         "identifiable": grid > 0, "k": rng.integers(0, 5, (3, 4)).tolist(),
         "wide": wide, "paths": [[1, 2], []], "m_inf": None},
        {"first": wide[:, :100], "second": grid[:400], "n": 2, "third": -wide[:, 20:]},
    ]


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_write_json_writes_the_serial_bytes(tmp_path, capsys, monkeypatch,
                                                   cpus):
    path = tmp_path / "out.json"
    for payload in _forking_payloads():
        forks = forked_parts(monkeypatch, 1)
        write_json(path, payload)
        serial = path.read_bytes()
        assert forks == [] and serial.decode() == _dumps(payload) + "\n"
        forks = forked_parts(monkeypatch, cpus)
        write_json(path, payload)
        write_json(None, payload)  # to stdout
        assert len(forks) == 2 * (cpus - 1)
        assert path.read_bytes() == serial
        assert capsys.readouterr().out == serial.decode()
    assert_no_child_left()


@pytest.mark.parametrize("fail_at", [1, 2])
def test_write_json_writes_here_when_a_fork_fails(tmp_path, monkeypatch, fail_at):
    # of three parts, the one whose fork fails and the one after it are
    # formatted in the calling process, in order
    path = tmp_path / "out.json"
    for payload in _forking_payloads():
        forked_parts(monkeypatch, 1)
        write_json(path, payload)
        serial = path.read_bytes()
        forks = forked_parts(monkeypatch, 3, fail_at=fail_at)
        write_json(path, payload)
        assert len(forks) == fail_at - 1
        assert path.read_bytes() == serial
    assert_no_child_left()


def test_write_json_forks_only_past_its_floor(tmp_path, monkeypatch):
    forks = forked_parts(monkeypatch, 2)
    grid = np.ones((2 * io_utils._JSON_FLOOR // 64, 64))  # two parts' worth
    write_json(tmp_path / "small.json", {"grid": grid[1:], "flags": grid > 0})
    assert forks == []
    write_json(tmp_path / "large.json", {"grid": grid})
    assert len(forks) == 1


def test_write_json_kills_its_child_when_the_output_cannot_open(tmp_path,
                                                                 monkeypatch):
    # the child is forked before the file is opened; the open fails
    forks = forked_parts(monkeypatch, 2)
    with pytest.raises(IsADirectoryError):
        write_json(tmp_path, _forking_payloads()[0])
    assert len(forks) == 1
    assert_no_child_left()


def test_csv_writers_stream_row_blocks_in_little_memory(tmp_path):
    # one template over a whole 1000x100 grid held ~6 MB of cell lists and
    # text; row blocks write the same bytes in far less, also when a row is
    # wider than a block or the last block is short
    rng = np.random.default_rng(12)
    for shape in ((1000, 100), (3, 5000), (41, 100), (1, 1)):
        grid = rng.standard_normal(shape)
        grid[::7, ::3], grid[1::5, 2::9] = math.inf, math.nan
        cells = [[f"{v:.17g}" for v in row] for row in grid.tolist()]
        grid_path, resistance_path = tmp_path / "grid.csv", tmp_path / "r.csv"
        tracemalloc.start()
        try:
            write_grid_csv(grid_path, grid)
            grid_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            write_resistance_csv(resistance_path,
                                 *np.indices(grid.shape, sparse=True), grid)
            resistance_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # line lists, whose mismatch pytest reports without a text diff
        assert grid_path.read_text().split("\n") == [
            ",".join(row) for row in cells] + [""]
        assert resistance_path.read_text().split("\n") == [
            "row,col,effective_resistance"] + [
            f"{i + 1},{j + 1},{value}"
            for i, row in enumerate(cells) for j, value in enumerate(row)] + [""]
        if shape == (1000, 100):
            assert grid_peak < 1_000_000 and resistance_peak < 1_000_000
