import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcomplete import (
    AdditiveModel,
    DisconnectedPairError,
    ObservationMask,
    UnitFlow,
    build_core,
    efe_entry,
    electrical_flow,
    flow_energy,
    hard_instance_additive,
    max_disjoint_paths,
    perturbed_unit_flow,
    verify_unit_flow,
    voltage_vector,
)
from helpers import cells, complete_mask, is_observed, random_connected_mask

SINGLE_EDGE = ObservationMask.from_pairs(1, 1, [(0, 0)])
# two disjoint length-3 routes between u_0 and v_0, no direct edge
TWO_ROUTES = ObservationMask.from_pairs(
    3, 3, [(0, 1), (1, 1), (1, 0), (0, 2), (2, 2), (2, 0)])


def _core(mask):
    return build_core(mask)


def test_voltage_single_edge():
    voltage = voltage_vector(_core(SINGLE_EDGE), 0, 0)
    assert np.allclose(voltage.potentials, [0.5, -0.5])


def test_voltage_gap_complete_2x2():
    voltage = voltage_vector(_core(complete_mask(2, 2)), 0, 0)
    assert abs(voltage.potentials[0] - voltage.potentials[2] - 0.75) < 1e-12


def test_voltage_disconnected_raises():
    core = _core(ObservationMask.from_dense(np.eye(2)))
    with pytest.raises(DisconnectedPairError):
        voltage_vector(core, 0, 1)


def test_electrical_flow_single_edge():
    flow = electrical_flow(_core(SINGLE_EDGE), 0, 0)
    assert np.allclose(flow.values, [1.0])


def test_electrical_flow_two_parallel_routes():
    core = _core(TWO_ROUTES)
    flow = electrical_flow(core, 0, 0)
    assert np.allclose(np.abs(flow.values), 0.5)
    assert abs(core.resistance(0, 0) - 1.5) < 1e-12


def test_shorter_path_carries_more_current():
    # direct edge in parallel with a length-3 route
    mask = complete_mask(2, 2)
    core = _core(mask)
    flow = electrical_flow(core, 0, 0)
    edges = cells(mask.rows, mask.cols)
    direct = abs(flow.values[edges.index((0, 0))])
    detour = [abs(flow.values[edges.index(e)])
              for e in ((0, 1), (1, 1), (1, 0))]
    assert abs(direct - 0.75) < 1e-12
    assert all(abs(v - 0.25) < 1e-12 for v in detour)
    assert direct > max(detour)


def test_effective_resistance_values():
    assert abs(_core(SINGLE_EDGE).resistance(0, 0) - 1.0) < 1e-12
    assert abs(_core(complete_mask(2, 2)).resistance(0, 0) - 0.75) < 1e-12


def test_effective_resistance_disconnected_is_inf():
    core = _core(ObservationMask.from_dense(np.eye(2)))
    assert core.resistance(0, 1) == math.inf
    matrix = core.resistances
    assert matrix[0, 1] == math.inf and matrix[1, 0] == math.inf
    assert np.isfinite(matrix[0, 0]) and np.isfinite(matrix[1, 1])


def test_complete_bipartite_resistance_formula():
    # oracle: quadratic form through numpy's SVD pinv on a directly
    # constructed Laplacian, checked against the closed form (n+m-1)/(nm)
    for n in range(1, 7):
        for m in range(1, 7):
            adjacency = np.zeros((n + m, n + m))
            adjacency[:n, n:] = 1.0
            adjacency[n:, :n] = 1.0
            lap = np.diag(adjacency.sum(axis=1)) - adjacency
            pinv = np.linalg.pinv(lap)
            d = np.zeros(n + m)
            d[0], d[n] = 1.0, -1.0
            oracle = float(d @ pinv @ d)
            assert abs(oracle - (n + m - 1) / (n * m)) < 1e-10
            core = _core(complete_mask(n, m))
            assert abs(core.resistance(0, 0) - oracle) < 1e-10


def test_flow_energy_matches_resistance():
    core = _core(complete_mask(2, 2))
    flow = electrical_flow(core, 0, 0)
    assert abs(flow_energy(flow) - 0.75) < 1e-12


def test_verify_unit_flow():
    mask = SINGLE_EDGE
    core = _core(SINGLE_EDGE)
    assert verify_unit_flow(electrical_flow(core, 0, 0), mask, 0, 0)
    zeros = UnitFlow(values=np.zeros(1), source=0, sink=0)
    assert not verify_unit_flow(zeros, mask, 0, 0)


def test_verify_unit_flow_alternating_path():
    mask = ObservationMask.from_pairs(3, 3, [(0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
    # +1 on forward steps, -1 on backward steps of the length-5 path
    values = np.zeros(mask.n_observed)
    for edge, value in [((0, 1), 1.0), ((1, 1), -1.0), ((1, 2), 1.0),
                        ((2, 2), -1.0), ((2, 0), 1.0)]:
        values[cells(mask.rows, mask.cols).index(edge)] = value
    assert verify_unit_flow(UnitFlow(values=values, source=0, sink=0), mask, 0, 0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_voltage_gap_equals_resistance(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
    mask = random_connected_mask(rng, n, m)
    core = _core(mask)
    i, j = int(rng.integers(n)), int(rng.integers(m))
    voltage = voltage_vector(core, i, j)
    gap = voltage.potentials[i] - voltage.potentials[n + j]
    assert abs(gap - core.resistance(i, j)) < 1e-10


def test_thomson_principle():
    rng = np.random.default_rng(42)
    for _ in range(4):
        n, m = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        mask = random_connected_mask(rng, n, m, extra=0.5)
        core = _core(mask)
        i, j = int(rng.integers(n)), int(rng.integers(m))
        resistance = core.resistance(i, j)
        electrical = electrical_flow(core, i, j)
        for _ in range(100):
            flow = perturbed_unit_flow(core, i, j, rng, scale=0.5)
            assert verify_unit_flow(flow, mask, i, j)
            energy = flow_energy(flow)
            assert energy >= resistance - 1e-10
            if np.max(np.abs(flow.values - electrical.values)) > 1e-8:
                assert energy > resistance
        # zero perturbation: equality case
        untouched = perturbed_unit_flow(core, i, j, rng, scale=0.0)
        assert abs(flow_energy(untouched) - resistance) < 1e-8


def test_rayleigh_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        mask = random_connected_mask(rng, n, m, extra=0.2)
        core = _core(mask)
        i, j = int(rng.integers(n)), int(rng.integers(m))
        before = core.resistance(i, j)
        unobserved = [(r, c) for r in range(n) for c in range(m)
                      if not is_observed(mask, r, c)]
        if not unobserved:
            continue
        extra = unobserved[int(rng.integers(len(unobserved)))]
        bigger = ObservationMask.from_pairs(
            n, m, cells(mask.rows, mask.cols) + [extra])
        after = _core(bigger).resistance(i, j)
        assert after <= before + 1e-10


def test_resistance_upper_bounds():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        mask = random_connected_mask(rng, n, m, extra=0.4)
        core = _core(mask)
        for i, j in cells(mask.rows, mask.cols):
            assert core.resistance(i, j) <= 1.0 + 1e-10
        i, j = int(rng.integers(n)), int(rng.integers(m))
        paths = max_disjoint_paths(mask, i, j)
        for path in paths.paths:
            assert core.resistance(i, j) <= (len(path) - 1) + 1e-10


def _simulate_commute_time(adjacency, start, target, rng, n_walks):
    total = 0
    for _ in range(n_walks):
        steps = 0
        for leg_target in (target, start):
            vertex = start if leg_target is target else target
            while vertex != leg_target:
                nbrs = adjacency[vertex]
                vertex, _ = nbrs[rng.integers(len(nbrs))]
                steps += 1
        total += steps
    return total / n_walks


def test_commute_time_identity():
    # commute time = 2 * n_e * R(s, t), estimated by simulated random walks
    rng = np.random.default_rng(123)
    assert _simulate_commute_time(SINGLE_EDGE.adjacency, 0, 1, rng, 100) == 2.0

    mask = complete_mask(2, 2)
    core = _core(mask)
    expected = 2 * mask.n_observed * core.resistance(0, 2 - 2)
    estimate = _simulate_commute_time(mask.adjacency, 0, 2, rng, 30_000)
    assert abs(estimate - expected) / expected < 0.05


@pytest.mark.parametrize("pair", [(2, 0), (0, 3), (-1, 0), (-1, -1)])
def test_per_pair_functions_reject_pairs_outside_the_pattern(pair):
    # a 2x3 pattern: (2, 0) must not read column vertex v_0 as row 2, and
    # negative indices must not wrap around
    mask = complete_mask(2, 3)
    core = _core(mask)
    base = AdditiveModel(np.zeros(2), np.zeros(3))
    rng = np.random.default_rng(0)
    calls = [lambda: core.resistance(*pair),
             lambda: voltage_vector(core, *pair),
             lambda: electrical_flow(core, *pair),
             lambda: perturbed_unit_flow(core, *pair, rng),
             lambda: efe_entry(core, np.zeros((2, 3)), *pair),
             lambda: hard_instance_additive(base, core, *pair, 0.5)]
    message = re.escape(f"entry {pair} outside the 2x3 pattern")
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
