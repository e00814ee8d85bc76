"""Seeded end-to-end benchmark of the flowcomplete command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

Run it from anywhere inside a checkout: the package is imported from the
checkout's ``src`` directory, and the run fails without it.  The loop is
closed with one client: every CLI command runs in a fresh child Python
process, and the next starts only after the previous one has exited and
its output has been checked against the workload's reference.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones.  A traced run alternates untraced and
traced commands; the difference of their median wall times is the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--self-test`` runs each workload once at a small size,
traced and untraced, and shows that the checks reject a corrupted output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# Thread counts are fixed, not taken from the host, so the program's
# defaults are the same wherever the benchmark runs.  BLAS gets the 2 cores
# of the reference machine.  The package's own pool (FLOWCOMPLETE_THREADS,
# default: the core count) is held at 1: its threads contend for the GIL,
# which makes max-flow commands slower and, on a host that steals CPU time
# from either core, far noisier (3.05-3.98 s against 2.53-2.87 s for the
# same rank1-paths input).
BLAS_THREADS = 2
PINNED = {
    "FLOWCOMPLETE_THREADS": "1",
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED)  # before numpy loads, for the reference computations

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SETUP_PROBES = 2       # import-only children after each command
MIN_SAMPLES = 3        # untraced commands per run, even past --seconds
MIN_TRACED = 2         # traced commands per traced run
CHILD_TIMEOUT = 120.0  # seconds
SELF_TEST_SEED = 7


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Sample:
    """One child process: set-up and command times, memory, problems."""

    setup: float | None
    wall: float | None = None
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    trace: dict | None = None


def child_env() -> dict:
    env = {"PATH": os.environ.get("PATH", os.defpath), "LANG": "C.UTF-8",
           "PYTHONPATH": str(SRC), **PINNED}
    if "LD_LIBRARY_PATH" in os.environ:
        env["LD_LIBRARY_PATH"] = os.environ["LD_LIBRARY_PATH"]
    return env


def invoke(argv, work: Path, trace: bool = False) -> Sample:
    """Run one child; ``argv=None`` only imports the CLI.

    A child that cannot import the package from the checkout is a
    benchmark error; a command that fails is a failed sample.
    """
    result = work / "child.json"
    spec = json.dumps({"argv": argv, "trace": trace, "result": str(result)})
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), spec], cwd=ROOT,
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        if argv is None:
            raise BenchError("importing flowcomplete.cli timed out") from None
        return Sample(setup=None,
                      problems=[f"timed out after {CHILD_TIMEOUT:g} s"])
    if proc.returncode != 0 or not result.exists():
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        if argv is None:
            raise BenchError(f"cannot import flowcomplete.cli: {tail}")
        return Sample(setup=None,
                      problems=[f"child exited {proc.returncode}: {tail}"])
    report = json.loads(result.read_text())
    result.unlink()
    module = Path(report["module"]).resolve()
    if SRC.resolve() not in module.parents:
        raise BenchError(f"flowcomplete was imported from {module}, "
                         f"not from {SRC}")
    sample = Sample(setup=report["imported"] - started,
                    wall=report.get("wall"), rss_mb=report["rss_kb"] / 1024.0,
                    trace=report.get("trace"))
    if argv is not None and report["code"] != 0:
        error = report.get("error") or ""
        sample.problems.append(f"exit code {report['code']} "
                               f"{error.strip().splitlines()[-1:]}")
    return sample


def judge(case, sample: Sample, digests: list) -> None:
    """Check the output of the command just run; record any problems."""
    if sample.problems:
        return
    try:
        sample.problems = case.check()
    except Exception as exc:  # a malformed output must not stop the run
        sample.problems = [f"output check raised {exc!r}"]
    if not sample.problems and case.repeat_identical:
        digests.append(case.digest())
        if digests[-1] != digests[0]:
            sample.problems.append("output bytes differ between commands")


@dataclass
class Run:
    """All children of one run of one workload."""

    setups: list
    plain: list
    traced: list

    @property
    def samples(self) -> list:
        return self.plain + self.traced

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.problems)


def measure(case, seconds: int, trace: bool, work: Path) -> Run:
    """Closed loop of commands until ``seconds`` have passed.

    Starts with one uncounted child that byte-compiles the package and
    warms the file cache.  Each command is followed by ``SETUP_PROBES``
    import-only children, so set-up is sampled all through the run.  A new
    command starts only if the median round so far still fits in the time
    left, once the minimum counts are reached.
    """
    invoke(None, work)
    deadline = time.perf_counter() + seconds
    run = Run(setups=[], plain=[], traced=[])
    digests, durations = [], []
    while True:
        began = time.perf_counter()
        traced = trace and len(run.traced) < len(run.plain)
        sample = invoke(case.argv, work, traced)
        judge(case, sample, digests)
        (run.traced if traced else run.plain).append(sample)
        run.setups += [invoke(None, work).setup for _ in range(SETUP_PROBES)]
        durations.append(time.perf_counter() - began)
        if trace and len(run.traced) < len(run.plain):
            continue
        enough = len(run.traced if trace else run.plain) >= (
            MIN_TRACED if trace else MIN_SAMPLES)
        if enough and time.perf_counter() + statistics.median(durations) > deadline:
            return run


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def walls(samples: list) -> list:
    found = [s.wall for s in samples if s.wall is not None]
    if not found:
        raise BenchError("no command ran to completion")
    return found


def end_to_end(case, run: Run) -> tuple[dict, dict]:
    wall = walls(run.plain)
    setup = [s for s in run.setups + [s.setup for s in run.samples]
             if s is not None]
    q1, q3 = quartiles(wall)
    s1, s3 = quartiles(setup)
    median = statistics.median(wall)
    values = {
        "wall_s": median,
        "work_per_s": case.units / median,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s.rss_mb for s in run.plain
                                         if s.wall is not None),
    }
    notes = {"wall_s": f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(wall)}",
             "work_per_s": f"{case.units} units per command",
             "setup_s": f"q1 {s1:.4f}  q3 {s3:.4f}  n={len(setup)}"}
    return values, notes


def per_layer(run: Run) -> tuple[dict, dict]:
    summaries = [tracing.summarize(s.trace) for s in run.traced
                 if s.trace is not None]
    values, notes = {}, {}
    for name in summaries[0] if summaries else ():
        found = [m[name] for m in summaries if m[name] is not None]
        values[name] = statistics.median(found) if found else None
    values["trace.overhead_s"] = (statistics.median(walls(run.traced))
                                  - statistics.median(walls(run.plain)))
    notes["trace.overhead_s"] = f"n={len(run.traced)} traced, {len(run.plain)} untraced"
    missing = sorted({name for s in run.traced if s.trace
                      for name in s.trace["missing"]})
    if missing:
        print(f"  missing trace targets: {', '.join(missing)}")
    return values, notes


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "flowcomplete_threads": PINNED["FLOWCOMPLETE_THREADS"]}


@contextlib.contextmanager
def workdir():
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def format_value(value) -> str:
    if value is None:
        return "absent"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    """Measure one workload; print its lines and return its JSON result."""
    with workdir() as work:
        case = WORKLOADS[name](seed, work, smoke=False)
        facts = " ".join(f"{k}={v}" for k, v in case.facts.items())
        print(f"workload {name} seed {seed}: {facts} units={case.units}")
        run = measure(case, seconds, trace, work)
    values, notes = per_layer(run) if trace else end_to_end(case, run)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in listed:
        if metric["name"] not in values:
            raise BenchError(f"metric {metric['name']} is not computed")
        value = values[metric["name"]]
        print(f"  {metric['name']:<28} {format_value(value):>12} "
              f"{metric['unit']:<8} {notes.get(metric['name'], '')}")
        metrics[metric["name"]] = {"value": 0 if value is None else value,
                                   "unit": metric["unit"]}
    attempted = len(run.samples)
    print(f"  {'error_rate':<28} {run.failed / attempted:>12.6g} fraction "
          f"{run.failed} failed of {attempted} attempted")
    for sample in run.samples:
        for problem in sample.problems:
            print(f"  FAILED: {problem}")
    return {"correct": run.failed == 0, "attempted": attempted,
            "failed": run.failed, "metrics": metrics}


def self_test() -> int:
    """Each workload once at smoke size; corrupted outputs must be caught."""
    ok = True
    for name, make in WORKLOADS.items():
        with workdir() as work:
            case = make(SELF_TEST_SEED, work, smoke=True)
            invoke(None, work)
            for trace in (False, True):
                sample = invoke(case.argv, work, trace)
                judge(case, sample, [])
                label = "traced" if trace else "untraced"
                if trace and not sample.problems:
                    layers = tracing.summarize(sample.trace)
                    timed = {k: layers[k] for k in set(tracing.SPANS.values())
                             if layers[k] is not None}
                    label += f", top layer {max(timed, key=timed.get)}"
                print(f"{name} ({label}): "
                      f"{'; '.join(sample.problems) or 'output correct'}")
                ok &= not sample.problems
            what = case.corrupt()
            caught = case.check()
            print(f"{name} corrupted, {what}: "
                  f"{'rejected: ' + caught[0] if caught else 'NOT rejected'}")
            ok &= bool(caught)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed, taken modulo 2**32")
    parser.add_argument("--seconds", type=int, default=30,
                        help="how long one workload is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer instead of end-to-end metrics")
    parser.add_argument("--self-test", action="store_true",
                        help="small sizes once each, plus corrupted outputs")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("give --workload or --self-test")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if not (SRC / "flowcomplete" / "cli.py").is_file():
            raise BenchError(f"no package source at {SRC / 'flowcomplete'}")
        try:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
        facts = machine_facts()
        print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
        if args.self_test:
            return self_test()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed % 2 ** 32, args.seconds,
                                      bool(args.trace), spec)
                   for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{metric}": value
                             for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
