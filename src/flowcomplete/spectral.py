"""Laplacian pseudoinverse by a grounded inverse per connected component.

The null space of a component's Laplacian block ``L_c`` is exactly the
component's constant vector, so adding ``J / |c|`` (``J`` all ones) makes the
block nonsingular without changing it elsewhere, and

    L_c^+ = (L_c + J / |c|)^{-1} - J / |c|.

No rank tolerance is involved.  Each grounded block is built from the edge
index arrays and inverted densely (LU); the blocks are written into one
``(n+m) x (n+m)`` pseudoinverse, the only vertex-by-vertex matrix kept.
Dense inversion is deliberate: target problem sizes are a few thousand
vertices at most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (BipartiteGraph, ComponentLabeling, add_laplacian,
                    connected_components)


@dataclass(frozen=True)
class SpectralCore:
    """Laplacian pseudoinverse and the component labeling it is built on."""

    pinv: np.ndarray
    n_left: int
    n_right: int
    components: ComponentLabeling

    @property
    def n_vertices(self) -> int:
        return self.n_left + self.n_right


def build_core(graph: BipartiteGraph) -> SpectralCore:
    """Invert the grounded Laplacian of each component and assemble the result."""
    labels = connected_components(graph)
    ids = labels.component_id
    edge_ids = ids[graph.edge_rows]
    local = np.empty(graph.n_vertices, dtype=np.intp)
    pinv = np.zeros((graph.n_vertices, graph.n_vertices))
    for cid in range(labels.component_count):
        vertices = np.flatnonzero(ids == cid)
        size = vertices.size
        if size == 1:  # an isolated vertex: L_c = [0], so L_c^+ = [0]
            continue
        local[vertices] = np.arange(size)
        edges = edge_ids == cid
        a = local[graph.edge_rows[edges]]
        b = local[graph.n_left + graph.edge_cols[edges]]
        grounded = np.full((size, size), 1.0 / size)
        add_laplacian(grounded, a, b)
        block = np.linalg.inv(grounded)
        block -= 1.0 / size
        pinv[np.ix_(vertices, vertices)] = block
    return SpectralCore(pinv=pinv, n_left=graph.n_left, n_right=graph.n_right,
                        components=labels)
