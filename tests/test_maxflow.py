from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcomplete import (
    ObservationMask,
    max_disjoint_paths,
    min_cut,
    validate_path,
)
from flowcomplete.maxflow import _unit_max_flow, _walk_paths, paths_and_cut
from flowcomplete.patterns import dense_submatrix_mask, extreme_sparsity_mask
from helpers import (
    brute_force_min_cut,
    cells,
    chain_mask,
    dict_max_disjoint_paths,
    dict_min_cut,
    random_mask,
)


def _path_edges(path):
    edges = set()
    for s in range(len(path) - 1):
        if s % 2 == 0:
            edges.add((path[s], path[s + 1]))
        else:
            edges.add((path[s + 1], path[s]))
    return edges


def test_extreme_sparsity_paths():
    mask = extreme_sparsity_mask(4)
    path_set = max_disjoint_paths(mask, 0, 0)
    assert path_set.k == 3
    assert path_set.max_len == 3
    assert sorted(path_set.paths) == [(0, 1, 1, 0), (0, 2, 2, 0), (0, 3, 3, 0)]


def test_dense_submatrix_matching_paths():
    mask = dense_submatrix_mask(8, 9, block_rows=4, block_cols=3)
    path_set = max_disjoint_paths(mask, 0, 0)
    assert path_set.k == 3  # min(|I|, |J|)
    assert path_set.max_len == 3
    assert all(len(p) == 4 for p in path_set.paths)


def test_disconnected_pair():
    mask = ObservationMask.from_dense(np.eye(2))
    path_set = max_disjoint_paths(mask, 0, 1)
    assert path_set.k == 0 and path_set.max_len == 0 and path_set.paths == ()
    cut = min_cut(mask, 0, 1)
    assert cut.cut_edges == ()


def test_entries_outside_the_pattern_raise():
    mask = ObservationMask.from_dense(np.ones((2, 3)))
    for i, j in ((-1, 0), (0, -1), (2, 0), (0, 3)):
        for solve in (max_disjoint_paths, min_cut):
            with pytest.raises(ValueError, match="outside the 2x3 pattern"):
                solve(mask, i, j)


def test_min_cut_single_edge():
    mask = ObservationMask.from_pairs(1, 1, [(0, 0)])
    cut = min_cut(mask, 0, 0)
    assert cut.cut_edges == ((0, 0),)
    assert 0 in cut.left_side and 1 not in cut.left_side


def test_min_cut_extreme_sparsity():
    mask = extreme_sparsity_mask(4)
    assert len(min_cut(mask, 0, 0).cut_edges) == 3


def test_min_cut_matches_brute_force():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 40:
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        mask = random_mask(rng, n, m, 0.45)
        if mask.n_observed > 12 or mask.n_observed == 0:
            continue
        i, j = int(rng.integers(n)), int(rng.integers(m))
        expected = brute_force_min_cut(mask, i, j)
        assert max_disjoint_paths(mask, i, j).k == expected
        assert len(min_cut(mask, i, j).cut_edges) == expected
        checked += 1


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_path_set_properties(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    mask = random_mask(rng, n, m, 0.5)
    i, j = int(rng.integers(n)), int(rng.integers(m))
    path_set = max_disjoint_paths(mask, i, j)
    cut = min_cut(mask, i, j)
    # Menger: path count equals cut size
    assert path_set.k == len(cut.cut_edges)
    # paths are valid, edge-disjoint, and terminate correctly
    seen_edges = set()
    for path in path_set.paths:
        validate_path(path, mask)
        assert path[0] == i and path[-1] == j
        edges = _path_edges(path)
        assert not (edges & seen_edges)
        seen_edges |= edges
    if path_set.k:
        assert path_set.max_len == max(len(p) - 1 for p in path_set.paths)
        # degree bound on the cut size
        assert path_set.k <= min(mask.degree(i), mask.degree(mask.n_rows + j))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_adding_edge_never_decreases_k(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    mask = random_mask(rng, n, m, 0.4)
    i, j = int(rng.integers(n)), int(rng.integers(m))
    before = max_disjoint_paths(mask, i, j).k
    unobserved = [(r, c) for r in range(n) for c in range(m)
                  if not mask.is_observed(r, c)]
    if not unobserved:
        return
    extra = unobserved[int(rng.integers(len(unobserved)))]
    bigger = ObservationMask.from_pairs(n, m, cells(mask.rows, mask.cols) + [extra])
    assert max_disjoint_paths(bigger, i, j).k >= before


def _assert_matches_dict_oracle(mask):
    for i in range(mask.n_rows):
        for j in range(mask.n_cols):
            assert max_disjoint_paths(mask, i, j) == dict_max_disjoint_paths(mask, i, j)
            assert min_cut(mask, i, j) == dict_min_cut(mask, i, j)
            assert paths_and_cut(mask, i, j) == (
                dict_max_disjoint_paths(mask, i, j), dict_min_cut(mask, i, j))


@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_net_flow_matches_dict_oracle(seed, p):
    # same paths in the same order, k, max_len, cut side and cut edges
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    _assert_matches_dict_oracle(random_mask(rng, n, m, p))


def test_net_flow_matches_dict_oracle_edge_cases():
    for mask in (ObservationMask.from_pairs(3, 4, []),           # empty
                 ObservationMask.from_dense(np.eye(3)),          # disconnected
                 ObservationMask.from_dense(np.ones((1, 5))),    # 1 x m
                 ObservationMask.from_dense(np.ones((5, 1))),    # n x 1
                 ObservationMask.from_dense(np.ones((4, 4))),
                 chain_mask(6)):
        _assert_matches_dict_oracle(mask)


def test_walk_zeroes_a_cycle_of_the_max_flow():
    # Two routes of length 3 join column 0 (beta) and row 3 (alpha):
    # R = beta-r1-c2-alpha and S = beta-r2-c1-alpha.  The first augmenting
    # path s=row 0 -> beta -> R -> alpha -> t=column 3 takes R (row 1 < row
    # 2); the second, s -> A -> alpha -> ? -> beta -> B -> t with A and B
    # chains of length 6, ties S against R reversed and takes S (column 1 <
    # column 2).  The net flow then holds the cycle R + S, which the walk
    # meets at beta and zeroes.
    route_r = [(1, 0), (1, 2), (3, 2)]
    route_s = [(2, 0), (2, 1), (3, 1)]
    chain_a = [(0, 4), (4, 4), (4, 5), (5, 5), (5, 6), (3, 6)]
    chain_b = [(6, 0), (6, 7), (7, 7), (7, 8), (8, 8), (8, 3)]
    mask = ObservationMask.from_pairs(
        9, 9, [(0, 0), (3, 3)] + route_r + route_s + chain_a + chain_b)
    assert dict_max_disjoint_paths(mask, 0, 3).k == 2
    net, value, _ = _unit_max_flow(mask, 0, 3)
    assert value == 2 and sum(map(abs, net)) == 20
    # a walk that never zeroes the cycle would go round it forever: bound
    # its steps so that such a walk fails here instead of hanging
    bounded = SimpleNamespace(n_rows=mask.n_rows,
                              adjacency=_StepBudget(mask.adjacency, 200))
    walks = _walk_paths(bounded, list(net), 0, mask.n_rows + 3, value)
    assert len(walks) == 2
    path_set, cut = paths_and_cut(mask, 0, 3)
    assert path_set.paths == ((0, 0, 6, 7, 7, 8, 8, 3), (0, 4, 4, 5, 5, 6, 3, 3))
    # the six cycle edges carry net flow but lie on no path
    assert sum(len(p) - 1 for p in path_set.paths) == 20 - 6
    for path in path_set.paths:
        validate_path(path, mask)
    assert len(cut.cut_edges) == brute_force_min_cut(mask, 0, 3) == 2
    _assert_matches_dict_oracle(mask)


class _StepBudget(tuple):
    """Adjacency lists that fail the test after ``budget`` lookups."""

    def __new__(cls, lists, budget):
        bounded = super().__new__(cls, lists)
        bounded.left = budget
        return bounded

    def __getitem__(self, vertex):
        self.left -= 1
        assert self.left >= 0, "path walk exceeded its step budget"
        return super().__getitem__(vertex)
