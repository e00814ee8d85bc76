"""Laplacian pseudoinverse by Kron reduction onto each component's short side.

With its longer side ``E`` (``p`` vertices) first, a component's Laplacian
is ``[[D_E, -A], [-A^T, D_K]]`` (``A`` the 0/1 biadjacency), so eliminating
the diagonal ``E`` block is free (Kron reduction; Dörfler & Bullo, IEEE
TCAS-I 2013).  With ``W = D_E^{-1} A``, ``S = D_K - A^T W`` is the Laplacian
of a connected graph on the ``q <= p`` kept vertices, whose null space is
exactly the constants, so ``P = S^+ = (S + J/q)^{-1} - J/q`` (``J`` all
ones) needs no rank tolerance.  For ``r`` summing to zero on the component,
``x_K = P (r_K + W^T r_E)`` and ``x_E = D_E^{-1} r_E + W x_K`` solve
``L x = r``, and ``x`` minus its mean is ``L^+ r``; the potential gap for
``r = e_e - e_k`` is ``R(e, k) = 1/d_e + (W P W^T)_ee + P_kk - 2 (W P)_ek``.
A component costs ``O(p q + q^2)`` memory and ``O(p q^2 + q^3)`` time, where
its full grounded block took ``O((p + q)^2)`` and ``O((p + q)^3)``; isolated
vertices have ``L^+ = 0``.  Only this module reads the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (ComponentLabeling, ObservationMask, check_entry,
                    connected_components)


@dataclass(frozen=True, eq=False)
class SpectralCore:
    """``L^+`` of ``mask``'s graph as read-only ``(E, K, 1/d_E, W, P)`` per
    component with an edge; ``E`` and ``K`` hold ascending vertex ids."""

    mask: ObservationMask
    components: ComponentLabeling
    blocks: tuple

    @property
    def n_vertices(self) -> int:
        return self.mask.n_vertices

    def solve(self, rhs) -> np.ndarray:
        """``L^+ @ rhs`` for a ``(V,)`` or ``(V, k)`` input, block by block."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.n_vertices:
            raise ValueError(f"need {self.n_vertices} rows, got shape {rhs.shape}")
        columns = rhs[:, None] if rhs.ndim == 1 else rhs
        out = np.zeros(columns.shape)
        for elim, kept, inv_degree, w, p in self.blocks:
            r_e, r_k = columns[elim], columns[kept]
            size = elim.size + kept.size
            mean = (r_e.sum(axis=0) + r_k.sum(axis=0)) / size
            r_e, r_k = r_e - mean, r_k - mean
            x_k = p @ (r_k + w.T @ r_e)
            x_e = inv_degree[:, None] * r_e + w @ x_k
            mean = (x_e.sum(axis=0) + x_k.sum(axis=0)) / size  # min-norm gauge
            out[elim], out[kept] = x_e - mean, x_k - mean
        return out.reshape(rhs.shape)

    @cached_property
    def resistances(self) -> np.ndarray:
        """Read-only effective resistances of all (row, column) pairs, ``inf``
        across components: the one source of identifiability."""
        n_rows = self.mask.n_rows
        grid = np.full((n_rows, self.mask.n_cols), np.inf)
        for elim, kept, inv_degree, w, p in self.blocks:
            wp = w @ p
            # 1/d_e + (W P W^T)_ee + P_kk - 2 (W P)_ek; tiny negatives are
            # rounding noise of the inverse
            block = np.maximum((inv_degree + np.einsum("ek,ek->e", wp, w))[:, None]
                               + np.diagonal(p) - 2.0 * wp, 0.0)
            if elim[0] < n_rows:
                grid[np.ix_(elim, kept - n_rows)] = block
            else:
                grid[np.ix_(kept, elim - n_rows)] = block.T
        grid.setflags(write=False)
        return grid

    def resistance(self, i: int, j: int) -> float:
        """``resistances[i, j]``; a ``ValueError`` names a pair outside it."""
        check_entry(self.mask, i, j)
        return float(self.resistances[i, j])


def build_core(mask: ObservationMask) -> SpectralCore:
    """Kron-reduce each component that has an edge onto its shorter side."""
    labels = connected_components(mask)
    ids = labels.component_id
    edge_ids = ids[mask.rows]
    local = np.empty(mask.n_vertices, dtype=np.intp)
    blocks = []
    for cid in np.flatnonzero(np.bincount(edge_ids, minlength=labels.component_count)):
        vertices = np.flatnonzero(ids == cid)
        elim, kept = np.split(vertices, [np.searchsorted(vertices, mask.n_rows)])
        edges = edge_ids == cid
        a, b = mask.rows[edges], mask.n_rows + mask.cols[edges]
        if elim.size < kept.size:  # keep the shorter side
            elim, kept, a, b = kept, elim, b, a
        p, q = elim.size, kept.size
        local[elim], local[kept] = np.arange(p), np.arange(q)
        adjacency = np.zeros((p, q))
        adjacency[local[a], local[b]] = 1.0
        inv_degree = 1.0 / adjacency.sum(axis=1)
        w = adjacency * inv_degree[:, None]
        grounded = 1.0 / q - adjacency.T @ w
        grounded[np.diag_indices(q)] += adjacency.sum(axis=0)
        block = (elim, kept, inv_degree, w, np.linalg.inv(grounded) - 1.0 / q)
        for array in block:
            array.flags.writeable = False
        blocks.append(block)
    return SpectralCore(mask=mask, components=labels, blocks=tuple(blocks))
