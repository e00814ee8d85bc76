import json
import math

import numpy as np
import pytest

from flowcomplete.io_utils import (
    matrix_to_jsonable,
    read_grid_csv,
    read_mask_csv,
    resistance_csv_text,
    write_grid_csv,
    write_json,
    write_mask_csv,
)
from flowcomplete import ObservationMask


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
    assert resistance_csv_text(grid) == expected


def test_mask_round_trip(tmp_path):
    mask = ObservationMask.from_pairs(3, 4, [(0, 1), (2, 3), (1, 0)])
    path = tmp_path / "mask.csv"
    write_mask_csv(path, mask)
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


def test_grid_round_trip(tmp_path):
    grid = np.array([[1.5, math.nan], [math.inf, -2.25]])
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    loaded = read_grid_csv(path)
    assert loaded[0, 0] == 1.5 and loaded[1, 1] == -2.25
    assert math.isnan(loaded[0, 1]) and math.isinf(loaded[1, 0])


def test_grid_rejects_ragged_rows(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        read_grid_csv(path)


def _jsonable_loop(matrix, keep=None):
    """Cell-by-cell reference for ``matrix_to_jsonable``."""
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


def test_matrix_to_jsonable_matches_cell_loop():
    rng = np.random.default_rng(8)
    grid = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    grid[0, 0], grid[1, 2], grid[3, 4] = math.nan, math.inf, -math.inf
    grid[6, 1], grid[2, 3] = -0.0, 1 / 3
    keep = rng.random((7, 5)) < 0.7
    keep[0, 0] = keep[1, 2] = keep[6, 1] = keep[2, 3] = True
    for mask in (None, keep):
        expected = json.dumps(_jsonable_loop(grid, mask), indent=2)
        assert json.dumps(matrix_to_jsonable(grid, mask), indent=2) == expected
    assert matrix_to_jsonable(grid)[1][2] is None


def test_write_json_matches_indented_dump(tmp_path):
    rng = np.random.default_rng(9)
    grid = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-300, 300, (4, 3))
    grid[0, 0], grid[1, 1], grid[2, 2] = math.nan, math.inf, -math.inf
    keep = rng.random((4, 3)) < 0.6
    payloads = [
        {"n_rows": 4, "n_cols": 3,
         "estimates": matrix_to_jsonable(grid, keep),   # masked cells
         "resistance": matrix_to_jsonable(grid),        # NaN/+-inf -> null
         "variance_bound": None,
         "identifiable": keep.tolist(),
         "k": rng.integers(0, 5, (4, 3)).tolist(),
         "error_bound_m_inf": 2.5},
        {"k": 0, "max_len": 0, "paths": [], "cut_edges": []},
        {"paths": [[1, 2, 3, 4], [1]], "nested": {"a": {}, "b": [[], [[]]],
                                                   "c": {"d": [True, False, None]}}},
        {"text": ["a, b", "c\u00e9\"", 1], "mixed": [1, [2, 3], {"x": -0.0}],
         "tuple": (1.5, (2, 3)), "specials": [math.nan, math.inf, -math.inf]},
        [], {}, [[]], 3, None, "plain", {1: "int key", None: [2.0], True: {}},
    ]
    path = tmp_path / "out.json"
    for payload in payloads:
        write_json(path, payload)
        assert path.read_text() == json.dumps(payload, indent=2) + "\n"
