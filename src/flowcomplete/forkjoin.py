"""Ordered work split over the usable CPUs by ``os.fork`` (package-internal):
max flows and JSON formatting, which hold the GIL, and trial noise draws,
which in threads lose the second core to OpenBLAS's spinning workers."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import numpy as np


def _output(children: dict, pid: int):
    """A child's bytes, 64 KiB at a time; then it is reaped, and
    ``ChildProcessError`` raised if it failed."""
    while chunk := os.read(children[pid], 1 << 16):
        yield chunk
    del children[pid]
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise ChildProcessError(f"forked worker {pid} exited with {code}")


@contextmanager
def fork_join(work, weights, floor: int):
    """Split ``range(len(weights))`` into contiguous parts of about equal
    weight, each of at least ``floor``, and run ``work(start, stop) -> bytes``
    of every part but the first in a forked child: one part per usable CPU,
    on Linux and with no other Python thread, else one part.  A child whose
    ``work`` returns ``None`` sends nothing.  Yields the first part's
    ``(start, stop)``, for the caller to run, and the later parts in order,
    each as the chunks of its child's bytes.  Once ``os.fork`` fails, the
    calling process runs the parts left at once, as one more tail whose
    bytes are its only chunk.  On the way out every child not yet
    reaped is killed and reaped, also when the caller's own part raised."""
    cumulative = np.cumsum(weights)
    total, parts = (cumulative[-1] if len(cumulative) else 0), 1
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        parts = max(1, min(len(os.sched_getaffinity(0)), int(total // floor)))
    cuts = np.searchsorted(cumulative, total * np.arange(1, parts) / parts, "right")
    bounds, children, tails, reads = [0, *cuts.tolist(), len(weights)], {}, [], []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            read_end, write_end = os.pipe()
            reads.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:  # never returns: no atexit handler, no inherited flush
                    status = 1
                    try:
                        data = memoryview(work(start, stop) or b"")
                        while data:
                            data = data[os.write(write_end, data):]
                        status = 0
                    finally:
                        os._exit(status)
            except OSError:  # no process to spare: the rest runs here
                tails.append([work(start, bounds[-1]) or b""])
                break
            finally:
                os.close(write_end)
            children[pid] = read_end
            tails.append(_output(children, pid))
        yield (bounds[0], bounds[1]), tails
    finally:
        for pid in children:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        for read_end in reads:
            os.close(read_end)
