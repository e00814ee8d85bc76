import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcomplete import (
    InvalidPathError,
    ObservationMask,
    connected_components,
    max_disjoint_paths,
    path_alpha_beta,
    path_estimate_additive,
    validate_path,
    vec_omega,
)
from flowcomplete.graph import divergence, gradient
from helpers import (
    bfs_component_ids,
    cells,
    incidence_matrix,
    laplacian,
    path_products,
    path_sum,
    random_mask,
)

# single length-5 path from u_0 to v_0
PATH_MASK = ObservationMask.from_pairs(3, 3, [(0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])


def test_mask_graph_of_path_mask():
    assert PATH_MASK.n_rows == 3 and PATH_MASK.n_cols == 3
    assert PATH_MASK.n_observed == 5
    # the edges are the mask's read-only, row-major index arrays
    assert cells(PATH_MASK.rows, PATH_MASK.cols) == [
        (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]
    assert PATH_MASK.rows.dtype == np.intp and not PATH_MASK.rows.flags.writeable
    degrees = [PATH_MASK.degree(v) for v in range(PATH_MASK.n_vertices)]
    assert sorted(degrees) == [1, 1, 2, 2, 2, 2]


def test_mask_graph_of_empty_mask():
    mask = ObservationMask.from_pairs(2, 2, [])
    assert mask.n_vertices == 4
    assert mask.n_observed == 0


def test_mask_graph_of_complete_2x2():
    mask = ObservationMask.from_dense(np.ones((2, 2)))
    assert mask.n_observed == 4
    assert all(mask.degree(v) == 2 for v in range(4))


def test_mask_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        ObservationMask.from_pairs(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        ObservationMask.from_pairs(0, 2, [])


def test_mask_collapses_duplicates():
    mask = ObservationMask.from_pairs(2, 2, [(0, 0), (0, 0), (1, 1)])
    assert mask.n_observed == 2


def test_mask_rejects_non_integer_indices():
    # a float index is rejected, not truncated to a neighbouring cell
    with pytest.raises(ValueError, match="integers"):
        ObservationMask.from_pairs(2, 2, [(0.7, 1.9)])
    with pytest.raises(ValueError, match="integers"):
        ObservationMask(2, 2, np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="integers"):
        ObservationMask(2, 2, np.array([True]), np.array([1]))


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_mask_from_a_grid_that_is_not_2d_names_its_shape(shape):
    # a 1-D grid used to raise IndexError, a 3-D one TypeError
    for build in (ObservationMask.from_dense, ObservationMask.from_data):
        with pytest.raises(ValueError, match=re.escape(f"not of shape {shape}")):
            build(np.ones(shape))


@pytest.mark.parametrize("pairs, named", [([(0, 0, 1)], "[0, 0, 1]"),
                                          ([0, 1], "0")])
def test_mask_from_pairs_names_a_pair_that_is_not_row_col(pairs, named):
    with pytest.raises(ValueError, match=re.escape(f"pair {named} is not (row, col)")):
        ObservationMask.from_pairs(2, 2, pairs)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_from_pairs_in_any_order_with_repeats_equals_from_dense(data):
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, m - 1)), max_size=40))
    dense = np.zeros((n, m), dtype=bool)
    for i, j in pairs:
        dense[i, j] = True
    mask = ObservationMask.from_pairs(n, m, pairs)
    assert mask == ObservationMask.from_dense(dense)
    assert hash(mask) == hash(ObservationMask.from_dense(dense))
    assert mask.n_observed == len(set(pairs))
    # strictly increasing row-major keys: sorted, each cell once
    assert np.all(np.diff(mask.rows * m + mask.cols) > 0)


def test_components_edgeless():
    labeling = connected_components(ObservationMask.from_pairs(2, 2, []))
    assert labeling.component_count == 4
    assert labeling.component_id.tolist() == [0, 1, 2, 3]


def test_components_block_diagonal():
    mask = ObservationMask.from_dense(np.eye(2))
    labeling = connected_components(mask)
    assert labeling.component_count == 2
    # vertex order u_0, u_1, v_0, v_1
    assert labeling.component_id.tolist() == [0, 1, 0, 1]


def test_components_complete():
    mask = ObservationMask.from_dense(np.ones((2, 2)))
    labeling = connected_components(mask)
    assert labeling.component_count == 1


def test_incidence_single_edge():
    mask = ObservationMask.from_pairs(1, 1, [(0, 0)])
    assert np.array_equal(incidence_matrix(mask), [[1.0, -1.0]])


def test_incidence_complete_2x2():
    mask = ObservationMask.from_dense(np.ones((2, 2)))
    b = incidence_matrix(mask)
    assert b.shape == (4, 4)
    assert np.all(b[:, :2].sum(axis=1) == 1)
    assert np.all(b[:, 2:].sum(axis=1) == -1)
    assert np.all(np.abs(b).sum(axis=1) == 2)


def test_laplacian_single_edge():
    mask = ObservationMask.from_pairs(1, 1, [(0, 0)])
    assert np.array_equal(laplacian(mask), [[1, -1], [-1, 1]])


def test_laplacian_complete_2x2():
    mask = ObservationMask.from_dense(np.ones((2, 2)))
    lap = laplacian(mask)
    adjacency = np.array([[0, 0, 1, 1], [0, 0, 1, 1],
                          [1, 1, 0, 0], [1, 1, 0, 0]], dtype=float)
    assert np.array_equal(lap, 2 * np.eye(4) - adjacency)


def test_vec_omega_row_major():
    mask = ObservationMask.from_pairs(2, 2, [(0, 0), (0, 1), (1, 1)])
    result = vec_omega(mask, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(result, [1.0, 2.0, 4.0])


def test_vec_omega_empty():
    mask = ObservationMask.from_pairs(2, 2, [])
    assert vec_omega(mask, np.zeros((2, 2))).size == 0


def test_vec_omega_dimension_mismatch():
    mask = ObservationMask.from_pairs(2, 2, [(0, 0)])
    with pytest.raises(ValueError):
        vec_omega(mask, np.zeros((3, 2)))


def test_validate_path_accepts_figure_path():
    # the edge ids of its steps, in walk order: cells (0, 1), (1, 1), (1, 2),
    # (2, 2) and (2, 0), which are edges 0, 1, 2, 4 and 3 in row-major order
    run = validate_path((0, 1, 1, 2, 2, 0), PATH_MASK)
    assert run.tolist() == [0, 1, 2, 4, 3]


def test_validate_path_rejects_bad_paths():
    with pytest.raises(InvalidPathError):
        validate_path((0, 1, 1), PATH_MASK)  # even edge count
    with pytest.raises(InvalidPathError):
        validate_path((0, 0), PATH_MASK)  # unobserved edge
    with pytest.raises(InvalidPathError):
        validate_path((0, 1, 1, 1), PATH_MASK)  # revisits column 1
    with pytest.raises(InvalidPathError):
        validate_path((0, 5), PATH_MASK)  # out of bounds
    for index in (-1, 2**31, -2**63, 2**70):  # also beyond any index type
        with pytest.raises(InvalidPathError, match="out of bounds"):
            validate_path((0, 1, index, 0), PATH_MASK)


def test_validate_path_takes_integer_indices_only():
    # a float index used to pass here, then fail later with a bare IndexError
    data = np.ones((3, 3))
    for path in ((0, 1.7), (0, 1.0), (0.0, 1), (0, 1, 1, 2, 2, "0")):
        with pytest.raises(InvalidPathError, match="non-integer index"):
            validate_path(path, PATH_MASK)
        with pytest.raises(InvalidPathError, match="non-integer index"):
            path_alpha_beta(path, data, PATH_MASK)
        with pytest.raises(InvalidPathError, match="non-integer index"):
            path_estimate_additive(path, data, PATH_MASK)
    # numpy integers are integers
    for dtype in (np.intp, np.int32, np.uint8):
        indices = np.array([0, 1, 1, 2, 2, 0], dtype=dtype)
        validate_path(indices, PATH_MASK)
        validate_path(tuple(indices), PATH_MASK)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_single_path_estimators_match_the_grid_walk_bit_for_bit(seed):
    # alpha, beta, length and the additive estimate read y_Ω at the run that
    # validate_path returns; the grid walk reads the cells by the path's
    # indices.  Scaled to the ends of the double range, products overflow to
    # inf (nan at inf * 0) or underflow, and sums are taken scaled
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    mask = random_mask(rng, n, m, float(rng.uniform(0.3, 0.9)))
    base = rng.choice([-1.0, 1.0], (n, m)) * rng.uniform(0.5, 2.0, (n, m))
    base[rng.random((n, m)) < 0.1] = 0.0
    paths = [path for i, j in np.ndindex(n, m)
             for path in max_disjoint_paths(mask, i, j).paths]
    for scale in (1.0, 1e154, 1e-160, 1e300):
        data = base * scale
        for path in paths:
            stats = path_alpha_beta(path, data, mask)
            with np.errstate(over="ignore", invalid="ignore"):
                want = path_products(data, path)
            assert (np.array([stats.alpha, stats.beta]).tobytes()
                    == np.array(want).tobytes())
            assert stats.length == len(path) - 1
            assert (np.float64(path_estimate_additive(path, data, mask)).tobytes()
                    == np.float64(path_sum(data, path)).tobytes())


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_incidence_laplacian_and_ordering(seed, n, m):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, n, m, 0.4)
    assert mask.n_observed == mask.n_observed
    b = incidence_matrix(mask)
    # exact integer identity B^T B = L
    assert np.array_equal(b.T @ b, laplacian(mask))
    assert np.all(laplacian(mask).sum(axis=1) == 0)
    # edge ordering of incidence rows equals vec_omega element ordering
    data = rng.normal(size=(n, m))
    vec = vec_omega(mask, data)
    for pos, (i, j) in enumerate(cells(mask.rows, mask.cols)):
        assert vec[pos] == data[i, j]
        assert b[pos, i] == 1.0 and b[pos, mask.n_rows + j] == -1.0


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 8),
       p=st.sampled_from([0.0, 0.3, 0.7, 1.0]), width=st.sampled_from([None, 1, 3]))
@settings(max_examples=60, deadline=None)
def test_gradient_and_divergence_match_dense_incidence(seed, n, m, p, width):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, n, m, p)
    b = incidence_matrix(mask)
    tail = () if width is None else (width,)
    # integer-valued inputs: every product and sum is exact
    x = rng.integers(-9, 10, (mask.n_vertices,) + tail).astype(float)
    y = rng.integers(-9, 10, (mask.n_observed,) + tail).astype(float)
    assert gradient(mask, x).shape == (mask.n_observed,) + tail
    assert np.array_equal(gradient(mask, x), b @ x)
    assert divergence(mask, y).shape == (mask.n_vertices,) + tail
    assert np.array_equal(divergence(mask, y), b.T @ y)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_components_form_partition(seed, n, m):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, n, m, 0.25)
    labeling = connected_components(mask)
    assert len(labeling.component_id) == mask.n_vertices
    assert set(labeling.component_id.tolist()) == set(range(labeling.component_count))
    ids = labeling.component_id
    assert np.array_equal(ids[mask.rows], ids[mask.n_rows + mask.cols])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       m=st.integers(1, 12), p=st.floats(0.0, 0.5))
@settings(max_examples=60, deadline=None)
def test_components_match_bfs_oracle(seed, n, m, p):
    mask = random_mask(np.random.default_rng(seed), n, m, p)
    labeling = connected_components(mask)
    assert (labeling.component_id.tolist(),
            labeling.component_count) == bfs_component_ids(mask)
    assert not labeling.component_id.flags.writeable


def test_components_long_shuffled_chain():
    # a 400-row path mask with shuffled row and column labels; its labels
    # settle only after several rounds of hooking (6 here)
    rng = np.random.default_rng(5)
    p, q = rng.permutation(401), rng.permutation(400)
    rows = np.concatenate([p[:-1], p[1:]])
    mask = ObservationMask(401, 400, rows, np.tile(q, 2))
    labeling = connected_components(mask)
    assert labeling.component_count == 1
    assert (labeling.component_id.tolist(),
            labeling.component_count) == bfs_component_ids(mask)


def test_vec_omega_scatter_round_trip():
    rng = np.random.default_rng(7)
    mask = random_mask(rng, 6, 5, 0.5)
    data = rng.normal(size=(6, 5))
    vec = vec_omega(mask, data)
    scattered = np.zeros((6, 5))
    rows, cols = mask.rows, mask.cols
    scattered[rows, cols] = vec
    assert np.array_equal(scattered[rows, cols], data[rows, cols])
    untouched = np.ones((6, 5), dtype=bool)
    untouched[rows, cols] = False
    assert np.all(scattered[untouched] == 0)
