import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcomplete import (
    ObservationMask,
    build_core,
    laplacian,
)
from helpers import (complete_mask, pseudo_inverse, random_connected_mask,
                     random_mask)


def test_single_edge_pseudo_inverse():
    core = build_core(ObservationMask.from_pairs(1, 1, [(0, 0)]))
    expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.allclose(pseudo_inverse(core), expected, atol=1e-12)


def test_complete_2x2_quadratic_form():
    core = build_core(complete_mask(2, 2))
    d = np.zeros(4)
    d[0], d[2] = 1.0, -1.0  # u_0 and v_0
    assert abs(d @ pseudo_inverse(core) @ d - 0.75) < 1e-12


def test_pseudo_inverse_matches_svd_route():
    # independent oracle: numpy's SVD-based pinv of the whole Laplacian, on
    # connected and multi-component patterns, isolated vertices included
    rng = np.random.default_rng(3)
    masks = [random_connected_mask(rng, 6, 5) for _ in range(5)]
    masks += [random_mask(rng, 9, 7, p) for p in (0.05, 0.15, 0.3)]
    masks += [ObservationMask.from_dense(np.eye(3)),
              ObservationMask.from_pairs(4, 3, [(0, 0), (2, 1), (2, 2)]),
              ObservationMask.from_pairs(3, 2, [])]
    for mask in masks:
        pinv = pseudo_inverse(build_core(mask))
        assert np.allclose(pinv, np.linalg.pinv(laplacian(mask)),
                           rtol=0.0, atol=1e-10)
    assert not pseudo_inverse(build_core(masks[-1])).any()


def _assert_penrose(lap, pinv, tol=1e-8):
    """The four Moore-Penrose conditions, each within ``tol`` (relative)."""
    lap_scale = np.max(np.abs(lap))
    pinv_scale = min(np.max(np.abs(pinv)), 1.0)
    assert np.max(np.abs(lap @ pinv @ lap - lap)) <= tol * lap_scale
    assert np.max(np.abs(pinv @ lap @ pinv - pinv)) <= tol * pinv_scale
    product = lap @ pinv
    assert np.max(np.abs(product.T - product)) <= tol
    product = pinv @ lap
    assert np.max(np.abs(product.T - product)) <= tol


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_penrose_conditions_and_blocks(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(2, 9))
    mask = random_connected_mask(rng, n, m)
    core = build_core(mask)
    pinv = pseudo_inverse(core)
    _assert_penrose(laplacian(mask), pinv)
    assert np.max(np.abs(pinv - pinv.T)) < 1e-10 * max(np.max(np.abs(pinv)), 1.0)
    # connected graph: pinv annihilates the constant vector
    assert np.max(np.abs(pinv @ np.ones(core.n_vertices))) < 1e-8
    # resistances read the diagonal and the row-by-column block of pinv
    d = np.diag(pinv)
    expected = d[:n, None] + d[None, n:] - 2.0 * pinv[:n, n:]
    assert np.allclose(core.resistances, expected, rtol=0.0, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), m=st.integers(1, 7))
@settings(max_examples=30, deadline=None)
def test_null_space_matches_component_count(seed, n, m):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, n, m, 0.3)
    core = build_core(mask)
    lap = laplacian(mask)
    eigenvalues = np.linalg.eigvalsh(lap)
    cutoff = 1e-9 * np.max(np.abs(eigenvalues), initial=0.0)
    n_zero = int(np.count_nonzero(np.abs(eigenvalues) <= max(cutoff, 1e-12)))
    assert n_zero == core.components.component_count
    # pinv annihilates each component's indicator vector
    for cid in range(core.components.component_count):
        indicator = np.zeros(core.n_vertices)
        indicator[core.components.component_id == cid] = 1.0
        assert np.max(np.abs(core.solve(indicator))) < 1e-8
    _assert_penrose(lap, pseudo_inverse(core))


def test_desk_scale_connected_graph():
    # 200 vertices: all four Penrose conditions at 1e-8 relative
    rng = np.random.default_rng(11)
    mask = random_connected_mask(rng, 100, 100, extra=0.05)
    core = build_core(mask)
    assert core.components.component_count == 1
    _assert_penrose(laplacian(mask), pseudo_inverse(core))


def test_solve_and_resistances_read_the_blocks():
    rng = np.random.default_rng(4)
    mask = random_mask(rng, 9, 7, 0.15)  # several components, isolated ones
    core = build_core(mask)
    assert not hasattr(core, "pinv")
    full = np.linalg.pinv(laplacian(mask))
    vector, block = rng.normal(size=16), rng.normal(size=(16, 3))
    assert np.allclose(core.solve(vector), full @ vector, rtol=0.0, atol=1e-10)
    assert np.allclose(core.solve(block), full @ block, rtol=0.0, atol=1e-10)
    for bad in (np.zeros(15), np.zeros((16, 2, 2))):
        with pytest.raises(ValueError, match=r"need 16 rows, got shape"):
            core.solve(bad)
    grid = core.resistances
    assert grid is core.resistances and not grid.flags.writeable
    ids = core.components.component_id
    assert np.array_equal(np.isinf(grid), ids[:9, None] != ids[None, 9:])
    assert core.resistance(8, 6) == grid[8, 6]


def _star_and_edge_cases():
    """Masks that exercise every side choice of the reduction."""
    rng = np.random.default_rng(21)
    return [
        ObservationMask.from_dense(np.ones((1, 6))),   # single-row star
        ObservationMask.from_dense(np.ones((6, 1))),   # single-column star
        ObservationMask.from_pairs(1, 1, [(0, 0)]),    # single edge
        ObservationMask.from_pairs(4, 5, [(1, 3)]),    # single edge, isolated rest
        complete_mask(3, 3),                           # equal sides
        random_connected_mask(rng, 5, 5),              # equal sides, cycles
        random_connected_mask(rng, 3, 9),              # wide: columns eliminated
        random_connected_mask(rng, 9, 3),              # tall: rows eliminated
        # a tall and a wide component side by side, plus isolated vertices
        ObservationMask.from_pairs(6, 7, [(0, 0), (1, 0), (2, 0), (2, 1),
                                          (3, 2), (3, 3), (3, 4), (4, 4)]),
    ]


@pytest.mark.parametrize("mask", _star_and_edge_cases())
def test_reduced_core_matches_svd_route_on_every_shape(mask):
    core = build_core(mask)
    n = mask.n_rows
    full = np.linalg.pinv(laplacian(mask))
    assert np.allclose(pseudo_inverse(core), full, rtol=0.0, atol=1e-10)
    for eliminated, kept, *_ in core.blocks:  # the shorter side stays
        assert kept.size <= eliminated.size
    # the grid, and the per-pair lookups that read it
    d = np.diag(full)
    expected = d[:n, None] + d[None, n:] - 2.0 * full[:n, n:]
    ids = core.components.component_id
    expected[ids[:n, None] != ids[None, n:]] = np.inf
    assert np.array_equal(np.isinf(core.resistances), np.isinf(expected))
    assert np.allclose(core.resistances, expected, rtol=0.0, atol=1e-10)
    single = np.array([[core.resistance(i, j) for j in range(mask.n_cols)]
                       for i in range(n)])
    assert np.array_equal(single, core.resistances)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_solve_projects_rhs_with_nonzero_component_sums(seed, k):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
    mask = random_mask(rng, n, m, float(rng.uniform(0.1, 0.6)))
    core = build_core(mask)
    full = np.linalg.pinv(laplacian(mask))
    materialised = pseudo_inverse(core)
    vector = rng.normal(3.0, 1.0, n + m)  # component sums far from zero
    block = rng.normal(-2.0, 1.0, (n + m, k))
    for rhs in (vector, block):
        solved = core.solve(rhs)
        assert solved.shape == rhs.shape
        assert np.allclose(solved, full @ rhs, rtol=0.0, atol=1e-10)
        assert np.allclose(solved, materialised @ rhs, rtol=0.0, atol=1e-10)
    # min-norm gauge: every component of the answer has zero mean
    ids = core.components.component_id
    sums = np.bincount(ids, weights=core.solve(vector))
    assert np.max(np.abs(sums)) < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_resistances_of_the_transpose_are_the_transpose(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    mask = random_mask(rng, n, m, float(rng.uniform(0.1, 0.6)))
    flipped = ObservationMask(m, n, mask.cols, mask.rows)
    grid = build_core(mask).resistances
    flipped_grid = build_core(flipped).resistances
    assert np.array_equal(np.isinf(flipped_grid), np.isinf(grid.T))
    assert np.allclose(flipped_grid, grid.T, rtol=0.0, atol=1e-12)


def test_reduced_core_memory_stays_below_one_vertex_square_matrix():
    # a connected 2000x60 pattern: one (n+m)^2 float64 matrix is 34 MB
    rng = np.random.default_rng(2)
    mask = random_connected_mask(rng, 2000, 60, extra=0.02)
    vertex_square = 8 * mask.n_vertices ** 2
    tracemalloc.start()
    try:
        core = build_core(mask)
        grid = core.resistances
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert core.components.component_count == 1 and np.isfinite(grid).all()
    assert peak < vertex_square / 4
