"""Voltages, unit electrical currents and flow energy.

The observation graph is read as a resistor network with unit resistance on
every edge.  Sending one unit of current from ``u_i`` to ``v_j`` induces a
voltage vector, an edge current (the electrical flow), and the effective
resistance between the pair, which :class:`SpectralCore` holds.
Disconnected pairs have infinite resistance, represented in-process as
``math.inf``; file formats spell it ``inf`` (CSV) or ``null`` plus an
identifiability flag (JSON).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedPairError
from .graph import ObservationMask, divergence
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


def voltage_vector(core: SpectralCore, i: int, j: int) -> VoltageVector:
    """Potentials induced by a unit current from ``u_i`` into ``v_j``."""
    if math.isinf(core.resistance(i, j)):
        raise DisconnectedPairError(
            f"row {i} and column {j} lie in different components")
    current = np.zeros(core.n_vertices)
    current[i], current[core.mask.n_rows + j] = 1.0, -1.0
    return VoltageVector(potentials=core.solve(current), source=i, sink=j)


def electrical_flow(core: SpectralCore, i: int, j: int) -> UnitFlow:
    """Unit electrical current, edge by edge (Ohm's law, unit resistance)."""
    potentials, mask = voltage_vector(core, i, j).potentials, core.mask
    values = potentials[mask.rows] - potentials[mask.n_rows + mask.cols]
    return UnitFlow(values=values, source=i, sink=j)


def flow_energy(flow: UnitFlow) -> float:
    """Sum of squared edge values."""
    return float(np.dot(flow.values, flow.values))


def verify_unit_flow(flow: UnitFlow, mask: ObservationMask, i: int, j: int,
                     tol: float = FLOW_TOLERANCE) -> bool:
    """True iff ``flow`` routes one unit from ``u_i`` to ``v_j``.

    Checks net out-flow 1 at the source, net in-flow 1 at the sink, and
    conservation at every other vertex, each within ``tol``.
    """
    values = np.asarray(flow.values, dtype=float)
    if values.shape != (mask.n_observed,):
        return False
    target = np.zeros(mask.n_vertices)
    target[i] = 1.0
    target[mask.n_rows + j] = -1.0
    return bool(np.all(np.abs(divergence(mask, values) - target) <= tol))


def perturbed_unit_flow(core: SpectralCore, i: int, j: int,
                        rng: np.random.Generator, scale: float = 0.5) -> UnitFlow:
    """A valid unit flow: the electrical one plus a random circulation.

    A Gaussian edge perturbation is projected onto the circulation space
    (divergence-free edge assignments), which repairs it into a valid flow.
    With ``scale=0`` this returns exactly the electrical flow.
    """
    base, mask = electrical_flow(core, i, j), core.mask
    raw = rng.normal(0.0, scale, size=mask.n_observed)
    # remove the potential-flow part: c = r - B L+ B^T r
    potential = core.solve(divergence(mask, raw))
    gradient = potential[mask.rows] - potential[mask.n_rows + mask.cols]
    return UnitFlow(values=base.values + raw - gradient, source=i, sink=j)
