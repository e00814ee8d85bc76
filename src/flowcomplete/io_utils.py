"""File formats: mask lists, matrix grids, reports.

Indices in files are 1-based (matching the usual matrix notation); they are
shifted to the 0-based internal convention on read.  Matrix grids are plain
comma-separated values where an empty cell or ``NaN`` means unobserved.
Numeric text output uses 17 significant digits so values round-trip.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .graph import ObservationMask


def read_mask_csv(path, n_rows: int | None = None,
                  n_cols: int | None = None) -> tuple[ObservationMask, int]:
    """Read a ``row,col`` mask file; returns (mask, duplicate count).

    Dimensions default to the largest index seen; pass ``n_rows``/``n_cols``
    to pad with trailing unobserved rows or columns.
    """
    pairs: list[tuple[int, int]] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["row", "col"]:
            raise ValueError(f"{path}: expected header 'row,col'")
        for line_no, fields in enumerate(reader, start=2):
            if not fields or all(not f.strip() for f in fields):
                continue
            try:
                row, col = int(fields[0]), int(fields[1])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed mask row") from exc
            if row < 1 or col < 1:
                raise ValueError(f"{path}:{line_no}: indices are 1-based")
            pairs.append((row - 1, col - 1))
    if not pairs and (n_rows is None or n_cols is None):
        raise ValueError(f"{path}: empty mask needs explicit dimensions")
    if n_rows is None:
        n_rows = max(i for i, _ in pairs) + 1
    if n_cols is None:
        n_cols = max(j for _, j in pairs) + 1
    mask = ObservationMask.from_pairs(n_rows, n_cols, pairs)
    return mask, len(pairs) - mask.n_observed


def write_mask_csv(path, mask: ObservationMask) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["row", "col"])
        writer.writerows(zip((mask.rows + 1).tolist(),
                             (mask.cols + 1).tolist()))


def read_grid_csv(path) -> np.ndarray:
    """Comma-separated matrix; empty cells and ``nan`` become NaN."""
    rows: list[list[float]] = []
    with open(path, newline="") as handle:
        for line_no, fields in enumerate(csv.reader(handle), start=1):
            # skip blank lines but keep rows of genuinely empty cells
            if not fields or (len(fields) == 1 and not fields[0].strip()):
                continue
            values = []
            for field in fields:
                text = field.strip()
                if not text or text.lower() == "nan":
                    values.append(math.nan)
                elif text.lower() in ("inf", "+inf", "infinity"):
                    values.append(math.inf)
                else:
                    try:
                        values.append(float(text))
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}:{line_no}: bad cell {text!r}") from exc
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty grid")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.array(rows, dtype=float)


def write_grid_csv(path, matrix) -> None:
    """One CSV line per row of a 2-D grid, each value ``%.17g`` (which
    spells ``inf``, ``-inf`` and ``nan``), formatted by one template."""
    arr = np.asarray(matrix, dtype=float)
    line = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w", newline="") as handle:
        handle.write((line * arr.shape[0]) % tuple(arr.ravel().tolist()))


def resistance_csv_text(resistances: np.ndarray) -> str:
    """CSV body ``row,col,effective_resistance`` (1-based, inf allowed),
    formatted by one template over the flat grid."""
    rows, cols = np.indices(resistances.shape).reshape(2, -1) + 1
    cells = [None] * (3 * resistances.size)
    cells[0::3], cells[1::3], cells[2::3] = (
        rows.tolist(), cols.tolist(), resistances.ravel().tolist())
    return ("row,col,effective_resistance\n"
            + ("%d,%d,%.17g\n" * resistances.size) % tuple(cells))


def matrix_to_jsonable(matrix, keep=None):
    """Nested lists with ``None`` for non-finite or masked-out cells."""
    arr = np.asarray(matrix, dtype=float)
    shown = np.isfinite(arr) if keep is None else np.isfinite(arr) & keep
    return np.where(shown, arr, None).tolist()


def _write_indented(write, value, level: int = 0) -> None:
    """``json.dump(value, indent=2)`` as a stream of writes; an innermost
    list of numbers, bools and nulls goes through the C encoder at once."""
    pad = "\n" + "  " * level
    if isinstance(value, dict) and value:
        # '{"key": 0}'[1:-2] is '"key": ', the key as json converts it
        items = [(json.dumps({key: 0})[1:-2], item) for key, item in value.items()]
    elif isinstance(value, (list, tuple)) and value:
        if not isinstance(value[0], (list, tuple, dict)):
            body = json.dumps(value)[1:-1]
            if not any(mark in body for mark in '"[{'):  # no string, no nesting
                write("[" + pad + "  " + body.replace(", ", "," + pad + "  ") + pad + "]")
                return
        items = [("", item) for item in value]
    else:
        write(json.dumps(value))
        return
    opener, closer = "{}" if isinstance(value, dict) else "[]"
    for n, (prefix, item) in enumerate(items):
        write(("," if n else opener) + pad + "  " + prefix)
        _write_indented(write, item, level + 1)
    write(pad + closer)


def write_json(path, payload) -> None:
    """The bytes of ``json.dump(payload, handle, indent=2)`` and a newline,
    written row by row without building the document in memory."""
    with open(path, "w") as handle:
        _write_indented(handle.write, payload)
        handle.write("\n")


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` file; ``#`` starts a comment."""
    mapping: dict[str, str] = {}
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = line.split("=", 1)
            mapping[key.strip().lower()] = value.strip()
    return mapping
