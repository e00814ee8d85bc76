import os
import subprocess
import sys
import textwrap
import threading
import time
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowcomplete import (
    InvalidPathError,
    ObservationMask,
    PathSet,
    max_disjoint_paths,
    min_cut,
    validate_path,
)
from flowcomplete import graph, maxflow
from flowcomplete.maxflow import _flow_plan, _unit_max_flow, _walk_paths, paths_and_cut
from flowcomplete.patterns import dense_submatrix_mask, extreme_sparsity_mask
from helpers import (
    assert_no_child_left,
    benchmark_mask,
    brute_force_min_cut,
    cells,
    chain_mask,
    dict_max_disjoint_paths,
    dict_min_cut,
    first_bad_path,
    forked_parts,
    is_observed,
    path_set_plan,
    random_mask,
    tuple_path_cells,
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


def test_path_set_validates_its_paths_against_its_mask():
    mask = dense_submatrix_mask(4, 4, block_rows=3, block_cols=3)
    path_set = PathSet(paths=((0, 1, 1, 0), (0, 2, 2, 3, 3, 0)), source=0,
                       sink=0, mask=mask)
    assert path_set.k == 2 and path_set.max_len == 5
    empty = PathSet(paths=(), source=1, sink=2, mask=mask)
    assert empty.k == 0 and empty.max_len == 0
    with pytest.raises(InvalidPathError, match="unobserved"):
        PathSet(paths=((0, 0),), source=0, sink=0, mask=mask)
    with pytest.raises(InvalidPathError, match="odd number of edges"):
        PathSet(paths=((0, 1, 1),), source=0, sink=1, mask=mask)
    with pytest.raises(InvalidPathError, match=r"does not join entry \(0, 0\)"):
        PathSet(paths=((0, 1),), source=0, sink=0, mask=mask)
    # a path of another pattern is rejected even when it fits this one's shape
    with pytest.raises(InvalidPathError):
        PathSet(paths=((0, 1, 1, 0),), source=0, sink=0,
                mask=ObservationMask.from_pairs(4, 4, [(0, 1), (1, 0)]))


def test_path_set_rejects_an_entry_outside_its_mask():
    # an empty set used to build with a plan entry of 36 (or -4), leaving
    # rank1_entry to raise NoPathError
    mask = extreme_sparsity_mask(4)
    paths = max_disjoint_paths(mask, 0, 0).paths
    for source, sink in ((9, 0), (-1, 0), (0, 4), (0, -1)):
        message = rf"entry \({source}, {sink}\) outside the 4x4 pattern"
        for given_paths in ((), paths):
            with pytest.raises(ValueError, match=message):
                PathSet(paths=given_paths, source=source, sink=sink, mask=mask)
        with pytest.raises(ValueError, match=message):
            max_disjoint_paths(mask, source, sink)


def test_path_set_rejects_non_integer_indices():
    # used to build, leaving rank1_entry to fail with a TypeError
    mask = dense_submatrix_mask(4, 4, block_rows=3, block_cols=3)
    with pytest.raises(InvalidPathError, match="non-integer index"):
        PathSet(((0, 1.0),), 0, 1, mask)
    path_set = PathSet(((np.intp(0), np.int32(1)),), 0, 1, mask)
    assert path_set.k == 1 and path_set.max_len == 1
    # nor is a float entry truncated to the ends of a path
    for paths in ((), ((0, 1),)):
        with pytest.raises(TypeError):
            PathSet(paths, 0.5, 1, mask)
    assert PathSet((), np.int32(1), np.uint8(2), mask).k == 0


def test_path_set_rejects_paths_that_share_an_edge():
    # two copies of one path would claim k = 2 where the min cut is 3
    mask = extreme_sparsity_mask(4)
    with pytest.raises(InvalidPathError, match="shares an edge"):
        PathSet(paths=((0, 1, 1, 0), (0, 1, 1, 0)), source=0, sink=0, mask=mask)
    dense = ObservationMask.from_dense(np.ones((4, 4)))
    for shared in ((0, 2, 1, 0), (0, 3, 1, 1, 2, 0)):  # cell (1, 0); (1, 1)
        with pytest.raises(InvalidPathError, match="shares an edge"):
            PathSet(paths=((0, 1, 1, 0), shared), source=0, sink=0, mask=dense)
    # paths through the same vertices but along different edges are disjoint
    path_set = PathSet(paths=((0, 1, 1, 0), (0, 0), (0, 2, 1, 3, 2, 0)),
                       source=0, sink=0, mask=dense)
    assert path_set.k == 3
    assert max_disjoint_paths(mask, 0, 0).k == brute_force_min_cut(mask, 0, 0) == 3


def test_path_set_names_its_first_failing_path():
    dense = ObservationMask.from_dense(np.ones((4, 4)))
    # a path can revisit a row along edges that are all distinct
    with pytest.raises(InvalidPathError, match=r"path \(0, 1, 1, 2, 0, 3\) revisits"):
        PathSet(paths=((0, 1, 1, 2, 0, 3),), source=0, sink=3, mask=dense)
    # a later path's earlier check does not hide an earlier path's failure
    with pytest.raises(InvalidPathError, match=r"path \(0, 1\) does not join"):
        PathSet(paths=((0, 0), (0, 1), (0, 1, 1)), source=0, sink=0, mask=dense)
    with pytest.raises(InvalidPathError, match=r"path \(0, 1, 1\) must alternate"):
        PathSet(paths=((0, 0), (0, 1, 1), (0, 5)), source=0, sink=0, mask=dense)
    with pytest.raises(InvalidPathError, match=r"path \(1, 0\) does not join"):
        PathSet(paths=((0, 0), (1, 0), (0, 0, 1)), source=0, sink=0, mask=dense)
    # an index that is not an integer is found before any other failure
    with pytest.raises(InvalidPathError, match=r"path \(0, 2.0\) has a non-integer"):
        PathSet(paths=((0, 1, 1),) * 2 + ((0, 2.0),), source=0, sink=0, mask=dense)


@pytest.mark.parametrize("paths, index, check", [
    # a path that fails a later check, then an odd-length path
    (((0, 0), (1, 0), (0, 1, 1)), 1, "does not join entry"),
    (((0, 0), (0, 0), (0, 1, 1)), 1, "shares an edge"),
    (((0, 1, 0, 0), (0,)), 0, "revisits"),
    (((0, 4), (0, 1, 1)), 0, "out of bounds"),
    # an odd-length path, then a path that shares its edge
    (((0, 1, 1), (0, 1, 1, 0)), 0, "odd number of edges"),
    (((0, 0), (0, 1, 1, 0, 2), (0, 1, 1, 0)), 1, "odd number of edges"),
    # an empty path, alone, last or first
    (((),), 0, "odd number of edges"),
    (((0, 0), ()), 1, "odd number of edges"),
    (((), (0, 5)), 0, "odd number of edges"),
])
def test_path_check_names_the_first_failing_path_in_path_order(paths, index, check):
    dense = ObservationMask.from_dense(np.ones((4, 4)))
    assert first_bad_path(paths, 0, 0, dense) == (index, check)
    with pytest.raises(InvalidPathError) as raised:
        PathSet(paths, 0, 0, dense)
    assert str(raised.value).startswith(f"path {paths[index]} ")
    assert check in str(raised.value)


def _random_paths(rng, mask, source, sink):
    """Max-flow paths, or none, among random walks and random index runs."""
    paths = list(max_disjoint_paths(mask, source, sink).paths
                 if rng.random() < 0.5 else ())
    sizes = (mask.n_rows, mask.n_cols)
    for _ in range(int(rng.integers(0, 3))):
        length = int(rng.choice([0, 1, 2, 2, 3, 4, 4, 6, 6, 8]))
        path = [source if rng.random() < 0.9
                else int(rng.integers(-1, mask.n_rows + 1))]
        for s in range(1, length):
            ends = mask.rows == path[-1] if s % 2 else mask.cols == path[-1]
            options = (mask.cols if s % 2 else mask.rows)[ends]
            if options.size and rng.random() < 0.8:  # along an observed edge
                path.append(int(rng.choice(options)))
            else:
                path.append(int(rng.integers(-1, sizes[s % 2] + 1)))
        if length > 1 and rng.random() < 0.7:
            path[-1] = sink
        paths.insert(int(rng.integers(len(paths) + 1)), tuple(path))
    return tuple(paths)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_path_check_matches_the_per_path_loop(seed):
    # one numpy pass names the path, and the check, that the loop fails first
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    mask = random_mask(rng, n, m, rng.uniform(0.3, 1.0))
    source, sink = int(rng.integers(n)), int(rng.integers(m))
    paths = _random_paths(rng, mask, source, sink)
    failure = first_bad_path(paths, source, sink, mask)
    if failure is None:
        path_set = PathSet(paths, source, sink, mask)
        assert path_set.k == len(paths)
        # each path's checked run of edge ids, joined in path order: the run
        # of the set's plan
        run = np.concatenate([np.empty(0, np.intc),
                              *(validate_path(path, mask) for path in paths)])
        want = tuple_path_cells([path_set], mask)[4]
        assert run.dtype == want.dtype and np.array_equal(run, want)
        return
    index, check = failure
    with pytest.raises(InvalidPathError) as raised:
        PathSet(paths, source, sink, mask)
    assert str(raised.value).startswith(f"path {paths[index]} ")
    assert check in str(raised.value)
    if check not in ("does not join entry", "shares an edge"):
        with pytest.raises(InvalidPathError, match=check):
            validate_path(paths[index], mask)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       m=st.integers(1, 12), p=st.floats(0.05, 0.95))
@example(seed=0, n=8, m=8, p=0.3)  # 64 entries: exactly one chunk of sets
@example(seed=1, n=5, m=13, p=0.5)  # one set past a chunk
@example(seed=2, n=12, m=12, p=0.95)
@settings(max_examples=40, deadline=None)
def test_flow_plan_matches_the_path_set_route(seed, n, m, p):
    # built from the walks and checked in chunks: the same arrays and dtypes
    # as reading checked PathSets one at a time
    mask = random_mask(np.random.default_rng(seed), n, m, p)
    entries = list(np.ndindex(n, m))
    plan, want = _flow_plan(mask, entries), path_set_plan(mask, entries)
    assert len(plan) == len(want) == 5
    for got, expected in zip(plan, want):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    # also for any subset of entries, in any order
    order = np.random.default_rng(seed).permutation(len(entries))
    picked = [entries[t] for t in order[:70]]
    for got, expected in zip(_flow_plan(mask, picked), path_set_plan(mask, picked)):
        assert np.array_equal(got, expected)


def test_path_cells_checks_every_chunk():
    # 100 path sets span two chunks; a broken path in either one is named
    mask = random_mask(np.random.default_rng(3), 10, 10, 0.5)
    path_sets = [max_disjoint_paths(mask, i, j) for i, j in np.ndindex(10, 10)]
    sets = np.array([(s.source, s.sink, s.k, s.max_len) for s in path_sets])
    lengths = np.array([len(p) for s in path_sets for p in s.paths], dtype=np.intc)
    joined = np.array([v for s in path_sets for p in s.paths for v in p], dtype=np.intc)
    plan = graph._path_cells(mask, sets, lengths, joined)
    assert all(np.array_equal(a, b) for a, b in zip(plan, path_set_plan(
        mask, np.ndindex(10, 10))))
    for entry in (3, 97):
        path = path_sets[entry].paths[0]
        broken = joined.copy()
        broken[sum(map(len, chain.from_iterable(
            s.paths for s in path_sets[:entry]))) + 1] = -1  # its first column
        with pytest.raises(InvalidPathError, match=rf"path \({path[0]}, -1, "):
            graph._path_cells(mask, sets, lengths, broken)


def test_flow_plan_of_an_empty_mask():
    mask = ObservationMask.from_pairs(9, 8, [])
    entries = list(np.ndindex(9, 8))
    plan, want = _flow_plan(mask, entries), path_set_plan(mask, entries)
    for got, expected in zip(plan, want):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert not plan[1].any() and not plan[3].size and not plan[4].size


def test_max_flow_reads_the_two_degrees_once(monkeypatch):
    # its cap, min(deg u_i, deg v_j), is read once, not per augmentation
    mask = benchmark_mask(1)
    i, j = int(np.argmax(np.bincount(mask.rows))), int(np.argmax(np.bincount(mask.cols)))
    calls, degree = [], ObservationMask.degree
    monkeypatch.setattr(ObservationMask, "degree",
                        lambda self, v: calls.append(v) or degree(self, v))
    assert _unit_max_flow(mask, i, j)[1] >= 3
    assert sorted(calls) == [i, 56 + j]


@pytest.mark.parametrize("cpus, count", [(2, 3136), (2, 2047), (3, 3136)])
def test_forked_flow_plan_equals_the_serial_plan(monkeypatch, cpus, count):
    # above the floor the entries go to one forked part per further CPU,
    # an odd count too; the joined buffers give the serial plan exactly
    mask = benchmark_mask(1)
    entries = list(np.ndindex(56, 56))[:count]
    assert count >= cpus * maxflow._FLOW_FLOOR
    forks = forked_parts(monkeypatch, 1)
    serial = _flow_plan(mask, entries)
    assert forks == []
    forks = forked_parts(monkeypatch, cpus)
    plan = _flow_plan(mask, iter(entries))
    assert len(forks) == cpus - 1
    assert_no_child_left()
    for got, expected in zip(plan, serial, strict=True):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.parametrize("fail_at", [1, 2])
def test_flow_plan_runs_here_when_a_fork_fails(monkeypatch, fail_at):
    # of three parts, the one whose fork fails and the one after it run in
    # the calling process, in order
    mask, entries = benchmark_mask(1), list(np.ndindex(56, 56))
    forked_parts(monkeypatch, 1)
    serial = _flow_plan(mask, entries)
    forks = forked_parts(monkeypatch, 3, fail_at=fail_at)
    plan = _flow_plan(mask, entries)
    assert len(forks) == fail_at - 1
    assert_no_child_left()
    for got, expected in zip(plan, serial, strict=True):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts OS threads in /proc/self/stat")
def test_forked_flow_plan_forks_with_one_os_thread():
    # Python 3.12+ warns in os.fork() when /proc/self/stat counts more than
    # one OS thread, threading-listed or not, and reads that count after the
    # fork handlers ran: numpy's OpenBLAS joins its workers in its own, so
    # the parent has one OS thread at every fork, BLAS workers running or not
    code = textwrap.dedent("""\
        import os
        import numpy as np
        from flowcomplete.maxflow import _flow_plan
        from helpers import benchmark_mask

        def threads():
            with open("/proc/self/stat") as stat:
                return int(stat.read().rsplit(")", 1)[1].split()[17])
        counts = []
        os.register_at_fork(after_in_parent=lambda: counts.append(threads()))
        os.sched_getaffinity = lambda pid: {0, 1}
        for seed in (1, 2):
            np.ones((256, 256)) @ np.ones((256, 256))  # the BLAS workers run
            _flow_plan(benchmark_mask(seed), np.ndindex(56, 56))
        assert counts == [1, 1], counts
        """)
    path = [str(Path(maxflow.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0 and child.stderr == "", child.stderr


def test_flow_plan_checks_every_entry_before_forking(monkeypatch):
    forks = forked_parts(monkeypatch, 2)
    entries = [*np.ndindex(56, 56), (0, 56)]
    with pytest.raises(ValueError, match=r"entry \(0, 56\) outside the 56x56"):
        _flow_plan(benchmark_mask(1), entries)
    assert forks == []


def test_a_failing_forked_part_raises_in_the_parent(monkeypatch):
    parent, buffers = os.getpid(), maxflow._flow_buffers

    def fail_in_child(mask, entries):
        if os.getpid() != parent:
            raise MemoryError("in the child")
        return buffers(mask, entries)
    monkeypatch.setattr(maxflow, "_flow_buffers", fail_in_child)
    forks = forked_parts(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="exited with 1"):
        _flow_plan(benchmark_mask(2), np.ndindex(56, 56))
    assert len(forks) == 1
    assert_no_child_left()


def test_a_failing_parent_part_kills_its_child(monkeypatch):
    parent = os.getpid()

    def fail_in_parent(mask, entries):
        if os.getpid() == parent:
            raise RuntimeError("in the parent")
        time.sleep(60)  # only a kill ends the child within the bound below
        return ()
    monkeypatch.setattr(maxflow, "_flow_buffers", fail_in_parent)
    forks = forked_parts(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="in the parent"):
        _flow_plan(benchmark_mask(2), np.ndindex(56, 56))
    assert time.monotonic() - started < 30
    assert len(forks) == 1
    assert_no_child_left()


def test_one_cpu_or_another_thread_gives_the_serial_plan(monkeypatch):
    mask, entries = benchmark_mask(3), list(np.ndindex(56, 56))
    forks = forked_parts(monkeypatch, 1)
    want = _flow_plan(mask, entries)
    forks = forked_parts(monkeypatch, 2)
    plans = []
    worker = threading.Thread(target=lambda: plans.append(_flow_plan(mask, entries)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and forks == []
    for got, expected in zip(plans[0], want, strict=True):
        assert np.array_equal(got, expected)


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
                  if not is_observed(mask, r, c)]
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


@pytest.mark.parametrize("seed, n, m, count", [
    (16, 16, 16, 44), (20, 20, 20, 70), (24, 24, 24, 80), (22, 24, 20, 100)])
def test_level_search_matches_dict_oracle_on_larger_masks(seed, n, m, count):
    # paths of up to 7-11 edges, and flows that mostly stop at the degree
    # cap, which the small masks above rarely reach
    rng = np.random.default_rng(seed)
    flat = rng.choice(n * m, size=count, replace=False)
    mask = ObservationMask(n, m, flat // m, flat % m)
    capped = connected = longest = 0
    for i in range(n):
        for j in range(m):
            paths, cut = dict_max_disjoint_paths(mask, i, j), dict_min_cut(mask, i, j)
            assert max_disjoint_paths(mask, i, j) == paths
            assert min_cut(mask, i, j) == cut
            assert paths_and_cut(mask, i, j) == (paths, cut)
            connected += paths.k > 0
            capped += 0 < paths.k == min(mask.degree(i), mask.degree(n + j))
            longest = max(longest, paths.max_len)
    assert capped > 0.8 * connected > 0 and longest >= 7


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
    net, value = _unit_max_flow(mask, 0, 3)
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
