"""File formats: mask lists, matrix grids, reports.

Indices in files are 1-based (matching the usual matrix notation); they are
shifted to the 0-based internal convention on read.  Matrix grids are plain
comma-separated values where an empty cell or ``NaN`` means unobserved.
Every CSV file is written by :func:`_write_table`: indices as ``%d``, floats
as ``%.17g``, which round-trips and spells ``inf``, ``-inf`` and ``nan``.
A JSON report is a flat dict whose grids are streamed row by row, a
non-finite cell as ``null``, in the format of ``json.dump(indent=2)``.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from .forkjoin import fork_join
from .graph import ObservationMask

_JSON_FLOOR = 1 << 15  # float cells that pay for a forked part of write_json
_BLOCK_CELLS = 4096  # CSV cells formatted by one template; bounds the text held


def read_mask_csv(path, n_rows: int | None = None,
                  n_cols: int | None = None) -> tuple[ObservationMask, int]:
    """Read a ``row,col`` mask file; returns (mask, duplicate count).

    Dimensions default to the largest index seen; pass ``n_rows``/``n_cols``
    to pad with trailing unobserved rows or columns.  An entry beyond a given
    positive dimension is named by its line and 1-based indices.
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
            for index, size, name in ((row, n_rows, "rows"), (col, n_cols, "columns")):
                if size is not None and 0 < size < index:
                    raise ValueError(f"{path}:{line_no}: entry ({row}, {col}) "
                                     f"out of bounds for {size} {name}")
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
    """``row,col`` lines of the observed cells, 1-based, in row-major order."""
    _write_table(path, "row,col\n", "%d,%d\n", mask.rows + 1, mask.cols + 1)


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
                try:  # float() reads nan and inf in any case, signed too
                    values.append(float(text) if text else math.nan)
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
    """One CSV line per row of a 2-D grid."""
    grid = np.asarray(matrix, dtype=float)
    _write_table(path, "", ",".join(["%.17g"] * grid.shape[1]) + "\n", grid)


def write_resistance_csv(path, rows, cols, resistances) -> None:
    """``row,col,effective_resistance`` lines, 1-based, of the 0-based
    ``rows`` and ``cols`` broadcast against ``resistances``, in C order:
    ``np.indices(grid.shape, sparse=True)`` and a grid give all pairs."""
    fields = np.atleast_1d(*np.broadcast_arrays(np.add(rows, 1), np.add(cols, 1),
                                                resistances))
    _write_table(path, "row,col,effective_resistance\n",
                 "%d,%d,%.17g\n" * math.prod(fields[0].shape[1:]), *fields)


def write_histogram_csv(path, edges, counts) -> None:
    """``bin_left,bin_right,count`` lines of a histogram's bins."""
    _write_table(path, "bin_left,bin_right,count\n", "%.17g,%.17g,%d\n",
                 edges[:-1], edges[1:], counts)


def _write_table(path, header: str, line: str, *fields) -> None:
    """The CSV writer: ``header``, then ``line % cells`` per index of the
    first axis of ``fields`` broadcast together, the cells taken field by
    field at each position below it, one template per ``_BLOCK_CELLS``."""
    fields = np.broadcast_arrays(*fields)
    step = max(1, _BLOCK_CELLS // max(1, fields[0][:1].size * len(fields)))
    with open_output(path) as handle:
        handle.write(header)
        for start in range(0, len(fields[0]), step):
            block = np.stack([field[start:start + step] for field in fields], axis=-1)
            handle.write((line * len(block)) % tuple(block.ravel().tolist()))


def open_output(path):
    """The file at ``path`` opened to write text lines as they are, or stdout."""
    return open(path, "w", newline="") if path else nullcontext(sys.stdout)


def _json_text(report: dict, start: int, stop: int):
    """:func:`write_json`'s text from grid row ``start`` to before ``stop``
    (the rows of all grids counted in order, then the end), each row with
    the text before it."""
    r = 0
    for n, (key, value) in enumerate(report.items()):
        grid = isinstance(value, (list, np.ndarray))
        if start <= r < stop:
            yield ("," if n else "{") + f"\n  {json.dumps(key)}: " + (
                "" if grid else json.dumps(value))
        for k in range(max(start - r, 0), min(stop - r, len(value))) if grid else ():
            row = np.asarray(value[k])
            cells = row.tolist()
            for c in np.flatnonzero(~np.isfinite(row)).tolist():
                cells[c] = None
            body = json.dumps(cells)[1:-1].replace(", ", ",\n      ")
            yield ("," if k else "[") + (
                f"\n    [\n      {body}\n    ]" if body else "\n    []")
        r += len(value) if grid else 0
        if grid and start <= r < stop:
            yield "\n  ]" if len(value) else "[]"
    if start <= r < stop:
        yield "\n}\n" if report else "{}\n"


def write_json(path, report: dict) -> None:
    """The bytes of ``json.dump(report, handle, indent=2)`` and a newline,
    written to :func:`open_output` a row at a time.  A report is a flat dict
    of JSON scalars, ``None`` and grids: 2-D arrays, or lists of integer
    rows.  Each row's ``tolist()``, ``None`` at non-finite cells, goes
    through the C encoder at once.  Rows are split, by float cells, into
    parts of at least ``_JSON_FLOOR`` (:func:`~.forkjoin.fork_join`)."""
    weights = np.concatenate([np.full(len(v), v.size // max(len(v), 1)) if (
        isinstance(v, np.ndarray) and v.dtype.kind == "f") else np.zeros(len(v))
        for v in report.values() if isinstance(v, (list, np.ndarray))] + [[0]])
    with fork_join(lambda start, stop: "".join(_json_text(report, start, stop)).encode(),
                   weights, _JSON_FLOOR) as ((start, stop), tails), \
            open_output(path) as handle:
        handle.writelines(_json_text(report, start, stop))
        for chunks in tails:
            for chunk in chunks:
                handle.write(chunk.decode("ascii"))


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
