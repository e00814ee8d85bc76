"""One benchmark invocation: import the CLI, run one command, report.

Run as ``python3 child.py SPEC`` where SPEC is a JSON object with ``argv``
(the CLI arguments, or null to only import), ``trace`` and ``result`` (the
file the report is written to).  The report holds the clock reading once
``flowcomplete.cli`` is imported, the wall time of ``cli.main(argv)`` from
call to return, its exit code or traceback, its peak resident memory and,
when traced, the spans.  Clocks are ``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so comparable with the parent's readings.
"""

import json
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """High-water resident memory of this process since exec, in KiB.

    ``ru_maxrss`` is no good here: Linux folds into it the memory of the
    parent, which the child shares between fork and exec.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    import flowcomplete.cli as cli

    report = {"imported": time.perf_counter(), "module": cli.__file__}
    if spec["argv"] is not None:
        recorder = None
        if spec["trace"]:
            import tracing

            recorder = tracing.install()
        started = time.perf_counter()
        try:
            report["code"] = cli.main(spec["argv"])
        except Exception:
            report["code"] = None
            report["error"] = traceback.format_exc()
        report["wall"] = time.perf_counter() - started
        if recorder is not None:
            report["trace"] = recorder.export()
    report["rss_kb"] = peak_rss_kb()
    with open(spec["result"], "w") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
