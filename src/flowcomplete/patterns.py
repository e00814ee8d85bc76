"""Observation and treatment pattern generators used by experiments.

Structured patterns are deterministic; the Bernoulli pattern and the
staircase thinning draw from a caller-supplied generator so experiments
stay reproducible.
"""

from __future__ import annotations

import numpy as np

from .graph import ObservationMask


def extreme_sparsity_mask(n: int) -> ObservationMask:
    """n x n pattern: first row, first column and diagonal, minus (0, 0).

    Exactly ``3 * (n - 1)`` observed entries; the target (0, 0) is reached
    by ``n - 1`` disjoint length-3 paths through the diagonal.
    """
    if n < 2:
        raise ValueError("extreme sparsity needs n >= 2")
    k = np.arange(1, n)
    zero = np.zeros_like(k)
    return ObservationMask(n, n, np.concatenate([zero, k, k]),
                           np.concatenate([k, zero, k]))


def dense_submatrix_mask(n_rows: int, n_cols: int, block_rows: int,
                         block_cols: int) -> ObservationMask:
    """Fully observed block around the target (0, 0), target itself missing.

    Rows ``1..block_rows`` and columns ``1..block_cols`` together with the
    target's own row and column inside the block are observed; everything
    outside the block is unobserved.
    """
    if block_rows < 1 or block_cols < 1:
        raise ValueError("block dimensions must be positive")
    if block_rows >= n_rows or block_cols >= n_cols:
        raise ValueError("block must leave room for the target row/column")
    dense = np.zeros((n_rows, n_cols), dtype=bool)
    dense[:block_rows + 1, :block_cols + 1] = True
    dense[0, 0] = False
    return ObservationMask.from_dense(dense)


def uniform_bernoulli_mask(n_rows: int, n_cols: int, p: float,
                           rng: np.random.Generator) -> ObservationMask:
    """Each cell observed independently with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    dense = rng.random((n_rows, n_cols)) < p
    return ObservationMask.from_dense(dense)


def staggered_exposure_pattern(n_units: int, n_groups: int) -> np.ndarray:
    """Treatment of a fully observed panel: a staggered, fixed-length window.

    Units and time periods are split into ``n_groups`` equal groups; units
    in group g are treated during time groups g and g+1.  The window is
    truncated at the end of the panel (the last unit group is treated only
    in its own time group), so the treatment graph is a chain of complete
    bipartite blocks with no shortcut back to the early time groups.
    Returns the treatment as a 0/1 matrix of shape (N, N).
    """
    if n_groups < 1:
        raise ValueError("n_groups must be positive")
    if n_units % n_groups != 0:
        raise ValueError("n_groups must divide n_units")
    group_size = n_units // n_groups
    treatment = np.zeros((n_units, n_units), dtype=np.int8)
    for g in range(n_groups):
        rows = slice(g * group_size, (g + 1) * group_size)
        cols_end = min((g + 2) * group_size, n_units)
        treatment[rows, g * group_size:cols_end] = 1
    return treatment


def staircase_pattern(n_rows: int, n_cols: int, n_groups: int,
                      rng: np.random.Generator, base_density: float = 1.0,
                      thinning: float = 0.5) -> np.ndarray:
    """Staircase treatment of a fully observed panel, sparser block by block.

    Row and column groups form a chain of blocks along the diagonal (each
    row group is treated in its own and the following column group).  Cells
    inside block g survive with probability ``base_density * thinning**g``;
    a deterministic spine (first column of each window for every row, every
    window column for the first row of the group) is always kept so the
    treatment graph stays connected.  Every group needs a row and a column,
    so ``n_groups`` is at most ``min(n_rows, n_cols)``.  Returns the
    treatment as a 0/1 matrix.
    """
    if not 0 < thinning <= 1 or not 0 < base_density <= 1:
        raise ValueError("densities must lie in (0, 1]")
    if n_groups < 1:
        raise ValueError("n_groups must be positive")
    if n_groups > min(n_rows, n_cols):
        raise ValueError("n_groups must be at most min(n_rows, n_cols)")
    row_groups = np.array_split(np.arange(n_rows), n_groups)
    col_groups = np.array_split(np.arange(n_cols), n_groups)
    treatment = np.zeros((n_rows, n_cols), dtype=np.int8)
    for g in range(n_groups):
        windows = [col_groups[g]]
        if g + 1 < n_groups:
            windows.append(col_groups[g + 1])
        density = base_density * thinning ** g
        rows = row_groups[g]
        for cols in windows:
            keep = rng.random((len(rows), len(cols))) < density
            treatment[np.ix_(rows, cols)] |= keep.astype(np.int8)
        # connectivity spine, kept regardless of thinning
        for cols in windows:
            treatment[rows, cols[0]] = 1
            treatment[rows[0], cols] = 1
    return treatment
