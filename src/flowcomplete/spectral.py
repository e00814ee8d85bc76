"""Laplacian pseudoinverse by a grounded inverse per connected component.

The null space of a component's Laplacian block ``L_c`` is exactly the
component's constant vector, so adding ``J / |c|`` (``J`` all ones) makes the
block nonsingular without changing it elsewhere, and

    L_c^+ = (L_c + J / |c|)^{-1} - J / |c|.

No rank tolerance is involved.  Each component with an edge gets its block,
built from the edge index arrays and inverted densely (LU); isolated
vertices have ``L_c^+ = [0]``.  Only this module reads the blocks, and no
vertex-by-vertex matrix is stored.  Dense inversion is deliberate: target
component sizes are a few thousand vertices at most.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (BipartiteGraph, ComponentLabeling, add_laplacian,
                    connected_components)


@dataclass(frozen=True, eq=False)
class SpectralCore:
    """``L^+`` as (sorted vertex indices, read-only block) per component."""

    n_left: int
    n_right: int
    components: ComponentLabeling
    blocks: tuple

    @property
    def n_vertices(self) -> int:
        return self.n_left + self.n_right

    def solve(self, rhs) -> np.ndarray:
        """``L^+ @ rhs`` for a ``(V,)`` or ``(V, k)`` input, block by block."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.n_vertices:
            raise ValueError(f"need {self.n_vertices} rows, got shape {rhs.shape}")
        out = np.zeros(rhs.shape)
        for vertices, block in self.blocks:
            out[vertices] = block @ rhs[vertices]
        return out

    @cached_property
    def resistances(self) -> np.ndarray:
        """Read-only effective resistances of all (row, column) pairs, ``inf``
        across components: the one source of identifiability."""
        grid = np.full((self.n_left, self.n_right), np.inf)
        for vertices, block in self.blocks:
            k = np.searchsorted(vertices, self.n_left)
            d = np.diagonal(block)
            # quadratic form; tiny negatives are rounding noise of the inverse
            grid[np.ix_(vertices[:k], vertices[k:] - self.n_left)] = np.maximum(
                d[:k, None] + d[None, k:] - 2.0 * block[:k, k:], 0.0)
        grid.setflags(write=False)
        return grid

    def resistance(self, i: int, j: int) -> float:
        """``resistances[i, j]``; a ``ValueError`` names a pair outside it."""
        if not (0 <= i < self.n_left and 0 <= j < self.n_right):
            raise ValueError(f"entry {(i, j)} outside the "
                             f"{self.n_left}x{self.n_right} pattern")
        return float(self.resistances[i, j])


def build_core(graph: BipartiteGraph) -> SpectralCore:
    """Invert the grounded Laplacian of each component that has an edge."""
    labels = connected_components(graph)
    ids = labels.component_id
    edge_ids = ids[graph.edge_rows]
    local = np.empty(graph.n_vertices, dtype=np.intp)
    blocks = []
    for cid in np.flatnonzero(np.bincount(edge_ids, minlength=labels.component_count)):
        vertices = np.flatnonzero(ids == cid)
        size = vertices.size
        local[vertices] = np.arange(size)
        edges = edge_ids == cid
        a = local[graph.edge_rows[edges]]
        b = local[graph.n_left + graph.edge_cols[edges]]
        grounded = np.full((size, size), 1.0 / size)
        add_laplacian(grounded, a, b)
        block = np.linalg.inv(grounded)
        block -= 1.0 / size
        vertices.flags.writeable = block.flags.writeable = False
        blocks.append((vertices, block))
    return SpectralCore(n_left=graph.n_left, n_right=graph.n_right,
                        components=labels, blocks=tuple(blocks))
