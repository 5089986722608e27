"""Machine-speed reference and the per-command cap, both driven by one
periodic SIGALRM.

On a shared host the CPU speed drifts by up to 2-3x over seconds to
minutes, with no page faults or context switches to show for it, and
medians within one run cannot remove a drift that covers the whole run.
So every SAMPLE_EVERY_S the timer interrupts whatever runs, also in the
middle of a long command, and times a fixed pure-Python kernel with the
shape of the package's hot loops (position lists, pair scans with
zip/all, token splitting and regex matching), twice: the first call warms
the caches the interrupted command cooled, the second is timed.  A
command's time divided by the kernel's time during it barely moves when
the machine's speed does.  The benchmark reports times scaled to a kernel time of
REFERENCE_MS, that is, in seconds on a machine whose speed is fixed, and
the raw times alongside.  Time spent sampling is taken out of the
command it interrupted.
"""
from __future__ import annotations

import re
import signal
from bisect import bisect_left, bisect_right
from itertools import combinations
from time import perf_counter

REFERENCE_MS = 5.0  # the kernel's time on a quiet 2 GHz x86-64 core, Python 3.11
SAMPLE_EVERY_S = 0.25
MIN_SAMPLES = 4  # a short interval borrows the nearest samples up to this many

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")
_TEXT = " ".join(f"v{i % 50}" for i in range(1500))


def kernel() -> int:
    positions: dict[int, list[int]] = {}
    for i in range(2000):
        positions.setdefault(i % 64, []).append(i)
    hits = 0
    for a, b in combinations(range(64), 2):
        p, q = positions[a], positions[b]
        hits += all(x < y for x, y in zip(p, q))
    return hits + sum(1 for tok in _TEXT.split() if _TOKEN.match(tok))


class OpTimeout(BaseException):
    """Raised inside a command that ran past its cap."""


class Clock:
    """Kernel samples taken through a run, and the deadline of the
    command that is running, if any."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.sampling_s = 0.0
        self.deadline: float | None = None

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        outer = perf_counter()
        kernel()  # warms the caches that the interrupted command cooled
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.starts.append(start)
        self.times.append(end - start)
        self.sampling_s += end - outer
        if self.deadline is not None and end > self.deadline:
            self.deadline = None
            raise OpTimeout

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the mean kernel time of the samples taken
        during [start, end], widened by one sampling period and then to the
        nearest MIN_SAMPLES samples."""
        starts = self.starts
        lo = bisect_left(starts, start - SAMPLE_EVERY_S)
        hi = bisect_right(starts, end + SAMPLE_EVERY_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(starts)):
            if hi == len(starts) or (lo > 0 and start - starts[lo - 1] <= starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        near = self.times[lo:hi]
        return REFERENCE_MS / 1000 / (sum(near) / len(near))
