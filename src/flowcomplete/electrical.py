"""Voltages, unit electrical currents, effective resistance, flow energy.

The observation graph is read as a resistor network with unit resistance on
every edge.  Sending one unit of current from ``u_i`` to ``v_j`` induces a
voltage vector, an edge current (the electrical flow), and the effective
resistance between the pair.  Disconnected pairs have infinite resistance,
represented in-process as ``math.inf``; file formats spell it ``inf`` (CSV)
or ``null`` plus an identifiability flag (JSON).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedPairError
from .graph import BipartiteGraph
from .spectral import SpectralCore

FLOW_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VoltageVector:
    """Vertex potentials for a unit current; zero-mean per component."""

    potentials: np.ndarray
    source: int
    sink: int


@dataclass(frozen=True)
class UnitFlow:
    """Edge values in canonical edge order; positive means row -> column."""

    values: np.ndarray
    source: int
    sink: int


def _require_connected(core: SpectralCore, i: int, j: int) -> None:
    if not core.components.together(i, core.n_left + j):
        raise DisconnectedPairError(
            f"row {i} and column {j} lie in different components")


def voltage_vector(core: SpectralCore, i: int, j: int) -> VoltageVector:
    """Potentials induced by a unit current from ``u_i`` into ``v_j``."""
    _require_connected(core, i, j)
    potentials = core.pinv[:, i] - core.pinv[:, core.n_left + j]
    return VoltageVector(potentials=potentials, source=i, sink=j)


def electrical_flow(graph: BipartiteGraph, core: SpectralCore,
                    i: int, j: int) -> UnitFlow:
    """Unit electrical current, edge by edge (Ohm's law, unit resistance)."""
    voltage = voltage_vector(core, i, j)
    values = (voltage.potentials[graph.edge_rows]
              - voltage.potentials[graph.n_left + graph.edge_cols])
    return UnitFlow(values=values, source=i, sink=j)


def effective_resistance(core: SpectralCore, i: int, j: int) -> float:
    """Effective resistance between ``u_i`` and ``v_j``; inf if disconnected."""
    right = core.n_left + j
    if not core.components.together(i, right):
        return math.inf
    return float(core.pinv[i, i] + core.pinv[right, right] - 2.0 * core.pinv[i, right])


def resistance_matrix(core: SpectralCore) -> np.ndarray:
    """All-pairs effective resistances, ``inf`` across components."""
    n = core.n_left
    diagonal = np.diagonal(core.pinv)
    matrix = diagonal[:n, None] + diagonal[None, n:] - 2.0 * core.pinv[:n, n:]
    ids = core.components.component_id
    cross = ids[:core.n_left, None] != ids[None, core.n_left:]
    matrix = np.where(cross, np.inf, matrix)
    # quadratic form; tiny negatives are rounding noise of the inverse
    return np.maximum(matrix, 0.0)


def flow_energy(flow: UnitFlow) -> float:
    """Sum of squared edge values."""
    return float(np.dot(flow.values, flow.values))


def verify_unit_flow(flow: UnitFlow, graph: BipartiteGraph, i: int, j: int,
                     tol: float = FLOW_TOLERANCE) -> bool:
    """True iff ``flow`` routes one unit from ``u_i`` to ``v_j``.

    Checks net out-flow 1 at the source, net in-flow 1 at the sink, and
    conservation at every other vertex, each within ``tol``.
    """
    values = np.asarray(flow.values, dtype=float)
    if values.shape != (graph.n_edges,):
        return False
    divergence = np.zeros(graph.n_vertices)
    np.add.at(divergence, graph.edge_rows, values)
    np.subtract.at(divergence, graph.n_left + graph.edge_cols, values)
    target = np.zeros(graph.n_vertices)
    target[i] = 1.0
    target[graph.n_left + j] = -1.0
    return bool(np.all(np.abs(divergence - target) <= tol))


def perturbed_unit_flow(graph: BipartiteGraph, core: SpectralCore,
                        i: int, j: int, rng: np.random.Generator,
                        scale: float = 0.5) -> UnitFlow:
    """A valid unit flow: the electrical one plus a random circulation.

    A Gaussian edge perturbation is projected onto the circulation space
    (divergence-free edge assignments), which repairs it into a valid flow.
    With ``scale=0`` this returns exactly the electrical flow.
    """
    base = electrical_flow(graph, core, i, j)
    if graph.n_edges == 0:
        return base
    raw = rng.normal(0.0, scale, size=graph.n_edges)
    # remove the potential-flow part: c = r - B L+ B^T r
    b_t_r = np.zeros(graph.n_vertices)
    np.add.at(b_t_r, graph.edge_rows, raw)
    np.subtract.at(b_t_r, graph.n_left + graph.edge_cols, raw)
    potential = core.pinv @ b_t_r
    gradient = (potential[graph.edge_rows]
                - potential[graph.n_left + graph.edge_cols])
    return UnitFlow(values=base.values + raw - gradient, source=i, sink=j)
