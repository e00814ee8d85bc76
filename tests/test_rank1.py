import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowcomplete import (
    DegenerateDenominatorError,
    DisconnectedPairError,
    NoPathError,
    ObservationMask,
    RankOneModel,
    hard_instance_rank1,
    max_disjoint_paths,
    min_cut,
    path_alpha_beta,
    rank1_entry,
    rank1_error_bound,
    rank1_full,
)
from flowcomplete.maxflow import _flow_plan
from flowcomplete.patterns import dense_submatrix_mask, extreme_sparsity_mask
from flowcomplete.rank1 import _estimates
from helpers import (
    cells,
    chain_mask,
    permuted,
    random_connected_mask,
    random_mask,
    scalar_ratio,
)


def _random_factors(rng, size, low=1.0, high=10.0):
    magnitudes = rng.uniform(low, high, size)
    signs = rng.choice([-1.0, 1.0], size)
    return magnitudes * signs


def test_path_alpha_beta_length3():
    mask = ObservationMask.from_pairs(2, 2, [(0, 1), (1, 1), (1, 0)])
    data = np.array([[0.0, 2.0], [3.0, 5.0]])
    stats = path_alpha_beta((0, 1, 1, 0), data, mask)
    assert stats.alpha == 2.0 * 3.0  # Y[0,1] * Y[1,0]
    assert stats.beta == 5.0         # Y[1,1]
    assert stats.length == 3


def test_path_alpha_beta_length1():
    mask = ObservationMask.from_pairs(1, 1, [(0, 0)])
    stats = path_alpha_beta((0, 0), [[4.5]], mask)
    assert stats.alpha == 4.5
    assert stats.beta == 1.0


def test_path_alpha_beta_overflows_to_inf_with_no_warning():
    # the products are taken in Python floats, where numpy scalars would warn
    mask = ObservationMask.from_dense(np.ones((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = path_alpha_beta((0, 1, 1, 0), np.full((2, 2), 1e200), mask)
    assert (stats.alpha, stats.beta, stats.length) == (math.inf, 1e200, 3)


def test_path_alpha_beta_rejects_grid_of_another_shape():
    mask = ObservationMask.from_pairs(2, 2, [(0, 1), (1, 1), (1, 0)])
    with pytest.raises(ValueError,
                       match=r"data shape \(2, 3\) does not match mask \(2, 2\)"):
        path_alpha_beta((0, 1, 1, 0), np.ones((2, 3)), mask)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_ratio_telescopes_noiseless(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    mask = random_connected_mask(rng, n, m)
    model = RankOneModel(_random_factors(rng, n), _random_factors(rng, m))
    truth = model.matrix()
    i, j = int(rng.integers(n)), int(rng.integers(m))
    for path in max_disjoint_paths(mask, i, j).paths:
        stats = path_alpha_beta(path, truth, mask)
        assert abs(stats.alpha / stats.beta - model.entry(i, j)) < 1e-9 * abs(
            model.entry(i, j))


def test_rank1_entry_single_path_is_plain_ratio():
    mask = ObservationMask.from_pairs(2, 2, [(0, 1), (1, 1), (1, 0)])
    data = np.array([[0.0, 2.0], [3.0, 5.0]])
    path_set = max_disjoint_paths(mask, 0, 0)
    assert path_set.k == 1
    stats = path_alpha_beta(path_set.paths[0], data, mask)
    assert abs(rank1_entry(path_set, data)
               - stats.alpha / stats.beta) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_rank1_entry_exact_recovery(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    mask = random_connected_mask(rng, n, m)
    model = RankOneModel(_random_factors(rng, n), _random_factors(rng, m))
    truth = model.matrix()
    i, j = int(rng.integers(n)), int(rng.integers(m))
    path_set = max_disjoint_paths(mask, i, j)
    estimate = rank1_entry(path_set, truth)
    assert abs(estimate - model.entry(i, j)) < 1e-10 * max(abs(model.entry(i, j)), 1.0)


def test_rank1_entry_errors():
    mask = ObservationMask.from_dense(np.eye(2))
    empty = max_disjoint_paths(mask, 0, 1)
    with pytest.raises(NoPathError):
        rank1_entry(empty, np.eye(2))
    # zero backward observation collapses the denominator
    chain = ObservationMask.from_pairs(2, 2, [(0, 1), (1, 1), (1, 0)])
    data = np.array([[0.0, 2.0], [3.0, 0.0]])
    path_set = max_disjoint_paths(chain, 0, 0)
    with pytest.raises(DegenerateDenominatorError):
        rank1_entry(path_set, data)
    # finite sums whose quotient 1e302 / 1e-12 overflows
    data = np.array([[0.0, 1e154], [1e154, 1e-6]])
    with pytest.raises(DegenerateDenominatorError, match="overflow"):
        rank1_entry(path_set, data)
    # a backward product whose square overflows
    data = np.array([[0.0, 1e-100], [1e-100, 1e200]])
    with pytest.raises(DegenerateDenominatorError, match="overflow"):
        rank1_entry(path_set, data)


def test_rank1_entry_does_not_revalidate_its_paths(monkeypatch):
    import flowcomplete.graph as graph
    import flowcomplete.maxflow as maxflow
    import flowcomplete.rank1 as rank1

    mask = extreme_sparsity_mask(5)
    path_set = max_disjoint_paths(mask, 0, 0)

    def refuse(*args):
        raise AssertionError("path validated again")

    # every path check, of a set or of one path, is a call of _path_cells
    for module, name in ((graph, "_path_cells"), (maxflow, "_path_cells"),
                         (graph, "validate_path"), (rank1, "validate_path")):
        monkeypatch.setattr(module, name, refuse)
    assert rank1_entry(path_set, np.ones((5, 5))) == 1.0


def test_ratio_adds_path_terms_left_to_right():
    # the terms alpha * beta of the three paths are 1e16, 1 and -1e16; added
    # in path order they give 0 (1e16 + 1 rounds to 1e16), while a
    # compensated sum would give 1
    mask = extreme_sparsity_mask(4)
    path_set = max_disjoint_paths(mask, 0, 0)
    assert path_set.paths == ((0, 1, 1, 0), (0, 2, 2, 0), (0, 3, 3, 0))
    data = np.ones((4, 4))
    data[0, 1], data[0, 3] = 1e16, -1e16
    assert rank1_entry(path_set, data) == 0.0
    assert rank1_full(mask, data).estimates[0, 0] == 0.0


def _scalar_estimates(mask, data):
    return np.array([[scalar_ratio(data, max_disjoint_paths(mask, i, j))
                      for j in range(mask.n_cols)] for i in range(mask.n_rows)])


def test_gathered_ratio_matches_scalar_route_bitwise():
    # products, sums, squares and the degenerate tests of the gathered
    # ratio round exactly as the per-path loop over helpers.path_products
    pair = ObservationMask.from_pairs(2, 2, [(0, 1), (1, 1), (1, 0)])
    cases = [(pair, np.array([[0.0, 1e154], [1e154, 1e-6]])),    # quotient overflows
             (pair, np.array([[0.0, 2.0], [3.0, 0.0]])),          # denominator 0
             (pair, np.array([[0.0, 1e-100], [1e-100, 1e200]])),  # beta ** 2 overflows
             (pair, np.array([[0.0, 1.0], [1.0, 1e-7]]))]         # just above the floor
    rng = np.random.default_rng(31)
    for n, m in ((9, 9), (12, 8), (6, 14)):
        for _ in range(4):
            mask = random_mask(rng, n, m, rng.uniform(0.15, 0.5))
            data = (rng.choice([-1.0, 1.0], (n, m))
                    * 10.0 ** rng.uniform(-80, 80, (n, m)))
            data[rng.random((n, m)) < 0.05] = 0.0
            cases.append((mask, data))
            cases.append((mask, rng.normal(1.0, 0.3, (n, m))))
    degenerate = 0
    for mask, data in cases:
        report = rank1_full(mask, data)
        expected = _scalar_estimates(mask, data)
        assert report.estimates.tobytes() == expected.tobytes()
        assert np.array_equal(report.degenerate,
                              report.identifiable & np.isnan(expected))
        degenerate += int(report.degenerate.sum())
        for i, j in zip(*np.nonzero(report.identifiable & ~report.degenerate)):
            path_set = max_disjoint_paths(mask, int(i), int(j))
            assert rank1_entry(path_set, data) == expected[i, j]
    assert degenerate > 10


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_estimates_of_a_batch_are_its_one_column_calls_bit_for_bit(seed):
    # each column of an (edges, T) batch is estimated as if alone, in its
    # place; one column of 1e-7 takes every denominator of paths longer than
    # one edge below the floor, and one of +-1e300 overflows their products
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    mask = random_mask(rng, n, m, float(rng.uniform(0.2, 0.8)))
    plan = _flow_plan(mask, np.ndindex(n, m))
    trials = int(rng.integers(3, 10))
    batch = rng.normal(1.0, 0.5, (mask.n_observed, trials))
    tiny, huge = rng.choice(trials, 2, replace=False)
    batch[:, tiny] = 1e-7
    batch[:, huge] = rng.choice([-1e300, 1e300], mask.n_observed)
    estimates, denominators = _estimates(batch, plan)
    assert estimates.shape == denominators.shape == (n * m, trials)
    for t in range(trials):
        one, denominator = _estimates(batch[:, t:t + 1], plan)
        assert estimates[:, t:t + 1].tobytes() == one.tobytes()
        assert denominators[:, t:t + 1].tobytes() == denominator.tobytes()
    # an identifiable entry that is not observed has no one-edge path
    longer = (plan[1] > 0) & ~mask.grid.ravel()
    assert np.isnan(estimates[longer][:, [tiny, huge]]).all()


@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-300, 300))
@example(seed=0, exponent=300.0)
@example(seed=1, exponent=-300.0)
@settings(max_examples=40, deadline=None)
def test_rank1_full_stays_per_entry_at_any_data_magnitude(seed, exponent):
    # data scaled by c from 1e-300 to 1e300 overflow or underflow in their
    # path products: no exception, no unguarded warning, and every entry
    # whose estimate is not finite is reported degenerate (nan)
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    mask = random_mask(rng, n, m, float(rng.uniform(0.2, 0.8)))
    data = rng.normal(1.0, 0.5, (n, m)) * 10.0 ** exponent
    report = rank1_full(mask, data)
    assert not np.isinf(report.estimates).any()
    assert np.array_equal(report.degenerate,
                          report.identifiable & np.isnan(report.estimates))
    assert np.isnan(report.estimates[~report.identifiable]).all()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_appending_a_component_leaves_old_entries_bit_identical(seed):
    # the new component's rows and columns come after the old ones: column
    # vertex ids shift, but no old vertex's neighbor order changes
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    n2, m2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    old = random_mask(rng, n, m, rng.uniform(0.2, 0.8))
    extra = random_mask(rng, n2, m2, rng.uniform(0.2, 0.8))
    grown = ObservationMask(n + n2, m + m2,
                            np.concatenate([old.rows, n + extra.rows]),
                            np.concatenate([old.cols, m + extra.cols]))
    data = rng.normal(1.0, 0.5, (n + n2, m + m2))
    data[rng.random(data.shape) < 0.1] = 0.0  # some degenerate entries
    before, after = rank1_full(old, data[:n, :m]), rank1_full(grown, data)
    assert after.estimates[:n, :m].tobytes() == before.estimates.tobytes()
    assert np.array_equal(after.degenerate[:n, :m], before.degenerate)
    assert np.array_equal(after.path_counts[:n, :m], before.path_counts)
    assert not after.identifiable[:n, m:].any()
    assert not after.identifiable[n:, :m].any()
    for i in range(n):
        for j in range(m):
            assert (max_disjoint_paths(grown, i, j).paths
                    == max_disjoint_paths(old, i, j).paths)


def test_rank1_entry_rejects_bad_data():
    mask = ObservationMask.from_pairs(2, 2, [(0, 1), (1, 1), (1, 0)])
    path_set = max_disjoint_paths(mask, 0, 0)
    with pytest.raises(ValueError,
                       match=r"data shape \(2, 3\) does not match mask \(2, 2\)"):
        rank1_entry(path_set, np.ones((2, 3)))
    # a NaN on a path cell is bad data, not an overflow
    data = np.array([[0.0, 2.0], [3.0, math.nan]])
    with pytest.raises(ValueError, match=r"not finite at observed cell \(1, 1\)"):
        rank1_entry(path_set, data)


def test_sign_invariance():
    rng = np.random.default_rng(12)
    mask = random_connected_mask(rng, 5, 5)
    model = RankOneModel(_random_factors(rng, 5), _random_factors(rng, 5))
    flipped = RankOneModel(-model.row_factors, -model.col_factors)
    assert np.max(np.abs(model.matrix() - flipped.matrix())) < 1e-12
    noise = rng.normal(0.0, 0.05, (5, 5))
    report_a = rank1_full(mask, model.matrix() + noise)
    report_b = rank1_full(mask, flipped.matrix() + noise)
    finite = np.isfinite(report_a.estimates)
    assert np.array_equal(finite, np.isfinite(report_b.estimates))
    assert np.allclose(report_a.estimates[finite], report_b.estimates[finite])


def test_rank1_full_noiseless_and_unidentifiable():
    rng = np.random.default_rng(13)
    mask = ObservationMask.from_pairs(
        3, 3, [(0, 1), (1, 1), (1, 0), (0, 0)])  # row/col 2 isolated
    model = RankOneModel(_random_factors(rng, 3), _random_factors(rng, 3))
    report = rank1_full(mask, model.matrix())
    for i in range(2):
        for j in range(2):
            assert report.identifiable[i, j]
            assert abs(report.estimates[i, j] - model.entry(i, j)) < 1e-9
    assert not report.identifiable[2, :].any()
    assert not report.identifiable[:, 2].any()
    assert np.isnan(report.estimates[2, 2])
    assert report.path_counts[0, 0] == 2  # direct edge plus length-3 route


def test_rank1_full_flags_overflow_per_entry():
    # 200-edge chain u_0 - v_0 - u_1 - v_1 - ... - u_100, all factors 1e4:
    # every observation is 1e8, and alpha * beta = 1e8 ** L overflows for
    # path length L >= 39, which must only mark those entries degenerate
    mask = chain_mask(100)
    model = RankOneModel(np.full(101, 1e4), np.full(100, 1e4))
    with np.errstate(all="raise"):
        report = rank1_full(mask, model.matrix())
    assert report.identifiable.all()
    assert np.array_equal(report.degenerate, report.max_lens >= 39)
    assert np.isnan(report.estimates[report.degenerate]).all()
    usable = ~report.degenerate
    assert usable.sum() > 3000
    assert np.allclose(report.estimates[usable], 1e8, rtol=1e-12, atol=0.0)
    # finite sums with an overflowing quotient: (1e154 * 1e154 * 1e-6) / 1e-12
    mask = ObservationMask.from_pairs(2, 2, [(0, 1), (1, 0), (1, 1)])
    with np.errstate(all="raise"):
        report = rank1_full(mask, [[0.0, 1e154], [1e154, 1e-6]])
    assert report.identifiable.all()
    assert np.array_equal(report.degenerate, [[True, False], [False, False]])
    assert np.isnan(report.estimates[0, 0])
    assert np.array_equal(report.estimates[~report.degenerate], [1e154, 1e154, 1e-6])


def test_rank1_full_rejects_bad_data():
    mask = ObservationMask.from_dense(np.ones((3, 3)))
    for shape in ((4, 5), (2, 2)):
        with pytest.raises(ValueError,
                           match=re.escape(f"data shape {shape} does not "
                                           "match mask (3, 3)")):
            rank1_full(mask, np.ones(shape))
    for bad in (math.nan, math.inf, -math.inf):
        data = np.ones((3, 3))
        data[1, 2] = data[2, 0] = bad
        with pytest.raises(ValueError,
                           match=re.escape("not finite at observed cell (1, 2)")):
            rank1_full(mask, data)
    # unobserved cells are never read, so any value is accepted there
    sparse = ObservationMask.from_pairs(3, 3, [(0, 0), (0, 1), (1, 1), (1, 0)])
    data = np.full((3, 3), math.nan)
    data[:2, :2] = 2.0
    report = rank1_full(sparse, data)
    assert report.identifiable[:2, :2].all() and not report.degenerate.any()


def test_rank1_full_dense_submatrix_certificates():
    mask = dense_submatrix_mask(6, 6, block_rows=4, block_cols=3)
    model = RankOneModel(np.full(6, 2.0), np.full(6, 1.5))
    report = rank1_full(mask, model.matrix())
    assert report.path_counts[0, 0] == 3
    assert report.max_lens[0, 0] == 3
    assert abs(report.estimates[0, 0] - 3.0) < 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rank1_path_counts_commute_with_permutations(seed):
    # a row permutation reorders the edge ids, so noiseless rank-1 estimates
    # that move with the entries show each path gathers its own cells
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    mask = random_mask(rng, n, m, 0.4)
    data = np.outer(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m))
    p, q = rng.permutation(n), rng.permutation(m)
    base = rank1_full(mask, data)
    moved = rank1_full(permuted(mask, p, q), data[np.ix_(p, q)])
    assert np.array_equal(moved.path_counts, base.path_counts[np.ix_(p, q)])
    assert np.array_equal(np.isnan(moved.estimates), ~moved.identifiable)
    assert np.allclose(moved.estimates, base.estimates[np.ix_(p, q)],
                       rtol=1e-12, atol=0.0, equal_nan=True)
    assert np.allclose(base.estimates[base.identifiable],
                       data[base.identifiable], rtol=1e-12, atol=0.0)


def test_error_bound_formula():
    base = rank1_error_bound(8, 3, 0.1, 1.0, 10, 10, 0.05)
    halved = rank1_error_bound(16, 3, 0.1, 1.0, 10, 10, 0.05)
    assert abs(base / halved - np.sqrt(2.0)) < 1e-12
    # explicit evaluation at L=3, m_inf=1
    expected = (0.1 ** 3) * 2.0 * np.sqrt(
        8.0 * np.log(100 / 0.05) ** 4 / 8.0)
    assert abs(base - expected) < 1e-12
    # monotone in L once sigma >= 1
    bounds = [rank1_error_bound(8, length, 1.5, 1.0, 10, 10, 0.05)
              for length in (1, 3, 5, 7)]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    with pytest.raises(ValueError):
        rank1_error_bound(0, 3, 0.1, 1.0, 10, 10, 0.05)
    # a float power beyond the double range gives an infinite bound
    assert rank1_error_bound(1, 199, 0.05, 1e8, 100, 100, 0.05) == np.inf


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
def test_error_bound_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be non-negative"):
        rank1_error_bound(8, 3, sigma, 1.0, 10, 10, 0.05)


def _scalar_error_bound(k, max_len, sigma, m_inf, n_rows, n_cols, delta):
    """Reference bound in Python floats, ``inf`` where a power overflows."""
    log_term = math.log(n_rows * n_cols / delta)
    try:
        return (sigma ** max_len * (1.0 + m_inf ** max_len)
                * math.sqrt(2.0 ** max_len * log_term ** (max_len + 1) / k))
    except OverflowError:
        return math.inf


def test_error_bound_on_arrays_matches_the_scalar_powers():
    # one float64 expression over (k, L) arrays gives each entry's scalar
    # bound bit for bit; an overflow is inf, and 0 * inf (sigma**L
    # underflowing or 0, m_inf**L overflowing) is nan
    rng = np.random.default_rng(21)
    k = rng.integers(1, 40, 300)
    max_len = 2 * rng.integers(0, 120, 300) + 1
    for sigma, m_inf in ((0.05, 1e8), (0.1, 1.0), (1.5, 2.5), (1e-200, 1e200),
                         (1e300, 0.0), (0.0, 1e8), (0.0, 0.5)):
        bounds = rank1_error_bound(k, max_len, sigma, m_inf, 56, 56, 0.05)
        assert bounds.shape == k.shape and bounds.dtype == float
        for n, (k_n, length) in enumerate(zip(k.tolist(), max_len.tolist())):
            want = _scalar_error_bound(k_n, length, sigma, m_inf, 56, 56, 0.05)
            scalar = rank1_error_bound(k_n, length, sigma, m_inf, 56, 56, 0.05)
            assert type(scalar) is float
            assert scalar == bounds[n] or math.isnan(scalar) and math.isnan(bounds[n])
            if math.isfinite(want):
                assert bounds[n] == want
            elif sigma < 1 and sigma ** length == 0.0:
                assert math.isnan(bounds[n])
            else:
                assert bounds[n] == math.inf
    assert rank1_error_bound(np.array([1]), np.array([199]), 0.05, 1e8,
                             100, 100, 0.05)[0] == np.inf
    assert math.isnan(rank1_error_bound(1, 199, 0.0, 1e8, 100, 100, 0.05))
    with pytest.raises(ValueError, match="k must be at least 1"):
        rank1_error_bound(np.array([3, 0]), np.array([3, 3]), 0.1, 1.0, 10, 10, 0.05)


def test_stability_of_denominator():
    # factors >= 1 and sigma <= 0.1: the averaged squared backward product
    # stays above 0.5 essentially always once K >= 30
    n = 31
    mask = extreme_sparsity_mask(n)
    path_set = max_disjoint_paths(mask, 0, 0)
    assert path_set.k == 30
    rng = np.random.default_rng(14)
    trials, sigma, delta = 2000, 0.1, 0.05
    backward = 1.0 + rng.normal(0.0, sigma, (trials, path_set.k))
    denominators = np.mean(backward ** 2, axis=1)
    assert np.mean(denominators > 0.5) >= 1 - delta


def test_path_statistics_independent_across_paths():
    # alpha_k * beta_k across disjoint paths are uncorrelated under iid noise
    n = 5
    mask = extreme_sparsity_mask(n)
    path_set = max_disjoint_paths(mask, 0, 0)
    rng = np.random.default_rng(15)
    trials, sigma = 10_000, 0.1
    products = np.empty((trials, path_set.k))
    truth = np.ones((n, n))
    for trial in range(trials):
        data = truth + rng.normal(0.0, sigma, truth.shape)
        for k, path in enumerate(path_set.paths):
            stats = path_alpha_beta(path, data, mask)
            products[trial, k] = stats.alpha * stats.beta
    correlations = np.corrcoef(products, rowvar=False)
    off_diag = correlations[~np.eye(path_set.k, dtype=bool)]
    assert np.max(np.abs(off_diag)) < 0.05


def test_mse_times_k_stays_in_theory_envelope():
    # on the extreme-sparsity pattern, MSE * K should be roughly constant
    # (near 3 sigma^2 by linearization), above sigma^2 and below the
    # evaluated bound; the bound's unspecified leading constant is pinned
    # to 3 for this envelope
    from flowcomplete import SimConfig, run_experiment

    sigma, delta = 0.05, 0.05
    for n in (9, 33):
        config = SimConfig(pattern="extreme_sparsity", model="rank1",
                           n_rows=n, n_cols=n, noise_sigma=sigma, trials=1500,
                           seed=100 + n, target_row=0, target_col=0)
        result = run_experiment(config)
        k = n - 1
        mse_k = result.per_entry_mse[0, 0] * k
        upper = rank1_error_bound(k, 3, sigma, 1.0, n, n, delta,
                                  constant=3.0) ** 2 * k
        assert sigma ** 2 <= mse_k <= upper


def test_hard_instance_single_edge():
    mask = ObservationMask.from_pairs(1, 1, [(0, 0)])
    base, flipped = hard_instance_rank1(mask, 0, 0, epsilon=0.5)
    diff = base.matrix() != flipped.matrix()
    assert diff[0, 0] and diff.sum() == 1


def test_hard_instance_extreme_sparsity():
    mask = extreme_sparsity_mask(4)
    base, flipped = hard_instance_rank1(mask, 0, 0, epsilon=0.3)
    pattern = mask.grid
    differing = (np.abs(base.matrix() - flipped.matrix()) > 1e-15) & pattern
    assert differing.sum() == 3  # cut size n - 1


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hard_instance_structure(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    mask = random_connected_mask(rng, n, m)
    i, j = int(rng.integers(n)), int(rng.integers(m))
    epsilon = float(rng.uniform(0.1, 0.9))
    base, flipped = hard_instance_rank1(mask, i, j, epsilon)
    cut = min_cut(mask, i, j)
    diff = base.matrix() - flipped.matrix()
    observed_differing = {
        (r, c) for r, c in cells(mask.rows, mask.cols) if abs(diff[r, c]) > 1e-15}
    assert observed_differing == set(cut.cut_edges)
    assert len(observed_differing) == max_disjoint_paths(mask, i, j).k
    # target entry flips from eps^2 to -eps^2
    assert abs(diff[i, j] - 2 * epsilon ** 2) < 1e-12


def test_hard_instance_errors():
    mask = ObservationMask.from_dense(np.eye(2))
    with pytest.raises(DisconnectedPairError):
        hard_instance_rank1(mask, 0, 1, epsilon=0.5)
    with pytest.raises(ValueError):
        hard_instance_rank1(mask, 0, 0, epsilon=0.0)
