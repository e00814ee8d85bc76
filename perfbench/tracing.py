"""Spans around the package's public functions, recorded from outside it.

``install`` replaces each function named in ``SPANS`` with a wrapper that
records a span (name, start, end, parent) and, for a few functions, a
value such as the path count a max-flow returned.  The package imports
names with ``from .x import y``, so each wrapper is also written into every
``flowcomplete`` module that holds the original object.  Functions in
``MARKS`` are only counted: their time stays in the caller's span.  Spans
are kept in memory and exported once the command has returned.

``summarize`` turns the spans of one command into per-layer metrics.  A
layer's self time is its spans' durations minus the part of each interval
that child spans cover.  With ``FLOWCOMPLETE_THREADS`` above 1 the package
runs max-flows and the two panel arms in worker threads; a span opened in a
worker thread is parented to the span the main thread is in at that
moment, and layer times are summed over threads, so a layer can then total
more than the wall time.  A target that no longer exists is listed as missing.  A metric
whose targets were never called, because they are missing or because the
command does not use that layer, is absent (``None``).
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# span name -> self-time metric it counts toward
SPANS = {
    "graph:ObservationMask.from_dense": "graph.mask_s",
    "graph:ObservationMask.from_pairs": "graph.mask_s",
    "graph:ObservationMask.from_data": "graph.mask_s",
    "graph:build_graph": "graph.build_s",
    "graph:connected_components": "graph.build_s",
    "graph:laplacian": "graph.build_s",
    "graph:incidence_matrix": "graph.build_s",
    "graph:vec_omega": "graph.build_s",
    "spectral:build_core": "spectral.build_core_s",
    "electrical:resistance_matrix": "electrical.resistance_s",
    "electrical:effective_resistance": "electrical.resistance_s",
    "electrical:voltage_vector": "electrical.resistance_s",
    "electrical:electrical_flow": "electrical.resistance_s",
    "additive:EfeSolver.__init__": "additive.solver_s",
    "additive:EfeSolver.factors": "additive.solve_s",
    "additive:EfeSolver.estimates": "additive.solve_s",
    "additive:EfeSolver.report": "additive.solve_s",
    "additive:efe_full": "additive.solve_s",
    "maxflow:max_disjoint_paths": "maxflow.s",
    "maxflow:min_cut": "maxflow.s",
    "rank1:rank1_full": "rank1.s",
    "rank1:rank1_entry": "rank1.s",
    "rank1:path_alpha_beta": "rank1.s",
    "rank1:rank1_error_bound": "rank1.s",
    "panel:estimate_effects": "panel.effects_s",
    "panel:did_estimate": "panel.did_s",
    "sim:generate_pattern": "sim.pattern_s",
    "sim:run_experiment": "sim.loop_s",
    "sim:export_result": "sim.export_s",
    "io_utils:read_grid_csv": "io_utils.read_s",
    "io_utils:read_mask_csv": "io_utils.read_s",
    "io_utils:read_config_file": "io_utils.read_s",
    "io_utils:matrix_to_jsonable": "io_utils.write_s",
    "io_utils:write_json": "io_utils.write_s",
    "io_utils:write_grid_csv": "io_utils.write_s",
    "cli:main": "cli.self_s",
}
MARKS = ("graph:validate_path", "panel:split_masks")


def _path_count(args, kwargs, result):
    return result.k


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[0])


def _trials(args, kwargs, result):
    return args[0].trials


# value recorded with a span, from its arguments and result
VALUES = {
    "maxflow:max_disjoint_paths": _path_count,
    "io_utils:write_json": _bytes_written,
    "io_utils:write_grid_csv": _bytes_written,
    "sim:run_experiment": _trials,
}


class Recorder:
    """Spans and marks of one process, kept in memory until exported."""

    def __init__(self):
        self.spans: dict = {}
        self.marks: list = []
        self.missing: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        try:  # a worker thread: the main thread is waiting on it
            return self._main[-1]
        except IndexError:
            return None

    def span(self, name, func):
        value_of = VALUES.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent()
            ident = next(self._ids)
            stack.append(ident)
            error = result = value = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if value_of is not None and error is None:
                    try:
                        value = value_of(args, kwargs, result)
                    except (AttributeError, IndexError, OSError, TypeError):
                        value = None
                self.spans[ident] = (name, start, end, parent, value, error)

        return wrapper

    def mark(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.marks.append((name, self._parent()))
            return func(*args, **kwargs)

        return wrapper

    def export(self) -> dict:
        return {"spans": [[ident, *row] for ident, row in self.spans.items()],
                "marks": self.marks, "missing": self.missing}


def _patch(recorder: Recorder, name: str, make) -> None:
    module_name, _, path = name.partition(":")
    module = sys.modules.get(f"flowcomplete.{module_name}")
    owner, attr = module, path
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name, None)
    raw = None if owner is None else vars(owner).get(attr)
    if raw is None:
        recorder.missing.append(name)
        return
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(name, raw.__func__)))
        return
    wrapped = make(name, raw)
    if owner is not module:
        setattr(owner, attr, wrapped)
        return
    for other_name, other in list(sys.modules.items()):
        if other_name == "flowcomplete" or other_name.startswith("flowcomplete."):
            for key, value in list(vars(other).items()):
                if value is raw:
                    setattr(other, key, wrapped)


def install() -> Recorder:
    """Wrap every target; call after ``flowcomplete.cli`` is imported."""
    recorder = Recorder()
    for name in SPANS:
        _patch(recorder, name, recorder.span)
    for name in MARKS:
        _patch(recorder, name, recorder.mark)
    return recorder


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` inside ``[start, end]``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced command; ``None`` marks absent."""
    rows = trace["spans"]
    children = defaultdict(list)
    for _, _, start, end, parent, _, _ in rows:
        if parent is not None:
            children[parent].append((start, end))
    names = {ident: name for ident, name, *_ in rows}
    self_time = defaultdict(float)
    calls, values, errors = Counter(), Counter(), Counter()
    for ident, name, start, end, _, value, error in rows:
        self_time[SPANS[name]] += (end - start) - _covered(start, end,
                                                          children[ident])
        calls[name] += 1
        values[name] += value or 0
        errors[name, error] += 1
    marks = Counter(name for name, _ in trace["marks"])
    split_in_did = sum(1 for name, parent in trace["marks"]
                       if name == "panel:split_masks"
                       and names.get(parent) == "panel:did_estimate")

    def of(targets, value):
        called = sum(calls[name] + marks[name] for name in targets)
        return value if called else None

    def layer(metric):
        return [name for name, owner in SPANS.items() if owner == metric]

    def count(metric):
        return sum(calls[name] for name in layer(metric))

    metrics = {metric: of(layer(metric), self_time[metric])
               for metric in set(SPANS.values())}
    did_calls = calls["panel:did_estimate"]
    metrics.update({
        "graph.mask_calls": of(layer("graph.mask_s"), count("graph.mask_s")),
        "graph.validate_path_calls": of(["graph:validate_path"],
                                        marks["graph:validate_path"]),
        "spectral.build_core_calls": of(["spectral:build_core"],
                                        calls["spectral:build_core"]),
        "electrical.resistance_calls": of(layer("electrical.resistance_s"),
                                          count("electrical.resistance_s")),
        "additive.solve_calls": of(["additive:EfeSolver.factors"],
                                   calls["additive:EfeSolver.factors"]),
        "maxflow.calls": of(layer("maxflow.s"), count("maxflow.s")),
        "maxflow.paths": of(["maxflow:max_disjoint_paths"],
                            values["maxflow:max_disjoint_paths"]),
        "rank1.path_evals": of(["rank1:path_alpha_beta"],
                               calls["rank1:path_alpha_beta"]),
        "rank1.degenerate": of(["rank1:rank1_entry"],
                               errors["rank1:rank1_entry",
                                      "DegenerateDenominatorError"]),
        "panel.did_calls": of(["panel:did_estimate"], did_calls),
        "panel.split_calls": of(["panel:split_masks"],
                                marks["panel:split_masks"]),
        "panel.splits_per_did": of(["panel:split_masks", "panel:did_estimate"],
                                   split_in_did / did_calls if did_calls else 0.0),
        "sim.trials": of(["sim:run_experiment"], values["sim:run_experiment"]),
        "io_utils.bytes_out": of(["io_utils:write_json", "io_utils:write_grid_csv"],
                                 values["io_utils:write_json"]
                                 + values["io_utils:write_grid_csv"]),
    })
    return metrics
