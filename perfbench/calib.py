"""Host-speed calibration of measured times.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x over tens of seconds, for interpreted Python and numpy code alike
(other tenants' load; no steal time is reported, so CPU time swings with
wall time).  A fixed reference kernel, which is the benchmark's own code and
not the program's, is therefore run every SAMPLE_EVERY_S seconds while the
program works (from a SIGALRM handler, which Python runs between
bytecodes), and each stretch of program time between two samples is scaled
by REF_S over the mean time of those two samples, each smoothed by a
running median.  The result is the program's time in seconds at the host
speed at which the kernel takes REF_S: its time on the reference host when
that host is not contended.  Time spent in the handler is not program time
and is left out.  A short measurement outside the sampler, such as a
set-up probe, is scaled by `kernel_seconds()` read just before and after.

    sampler = Sampler()
    with sampler.running():
        ...                      # the program's work
    raw_s, cal_s = sampler.times()
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# The kernel's time on the host the benchmark was built on (2-core Intel
# Xeon virtual machine, 2.1 GHz, numpy 2.4, Python 3.11), uncontended:
# the first percentile of a minute of samples (the median was 1.98 ms).
REF_S = 0.0012
SAMPLE_EVERY_S = 0.1
SMOOTH = 5            # kernel runs in the running median of its time

_rng = np.random.default_rng(20260810)
_TABLE = _rng.integers(0, 251, size=(128, 128), dtype=np.int64)
_INDEX = _rng.integers(0, _TABLE.size, size=20000, dtype=np.int64)
_OUT = np.empty(_INDEX.size, dtype=np.int64)
_KEYS = [_rng.integers(0, 5, size=9, dtype=np.int8).tobytes() for _ in range(2000)]
_POS = {k: i for i, k in enumerate(_KEYS)}


def kernel() -> int:
    """The fixed reference work: dict lookups on byte keys (interpreted
    Python, as in the program's element lookups) and table gathers (numpy,
    as in its field arithmetic).  It allocates nothing, so it neither
    triggers nor pays for garbage collection."""
    s = 0
    for _ in range(10):
        for k in _KEYS:
            s += _POS[k]
    for _ in range(20):
        np.take(_TABLE, _INDEX, out=_OUT)
    return s


def kernel_seconds(runs: int = 9) -> float:
    """Median time of `runs` kernel runs, now."""
    clock = time.perf_counter
    times = []
    for _ in range(runs):
        t = clock()
        kernel()
        times.append(clock() - t)
    return statistics.median(times)


def calibrated(raw_s: float, ref_before: float, ref_after: float) -> float:
    """`raw_s` seconds measured between two kernel readings, at REF_S."""
    return raw_s * REF_S / (0.5 * (ref_before + ref_after))


def integrate(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """(raw, calibrated) program time between the first and the last of
    `samples`, each the (start, end) of one kernel run: the gaps between
    consecutive runs, each at the mean speed of the two runs around it.

    Each kernel time is first replaced by the median of the SMOOTH runs
    centred on it, so that one run an interrupt lengthened does not pass
    for a slow host."""
    times = [b - a for a, b in samples]
    half = SMOOTH // 2
    speed = [statistics.median(times[max(0, i - half):i + half + 1])
             for i in range(len(times))]
    raw = cal = 0.0
    for i in range(len(samples) - 1):
        gap = samples[i + 1][0] - samples[i][1]
        raw += gap
        cal += calibrated(gap, speed[i], speed[i + 1])
    return raw, cal


class Sampler:
    """Samples the kernel while program code runs; see the module doc."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[tuple[float, float]] = []
        self.busy_s = 0.0        # seconds spent in kernel runs so far
        self._inside = False

    def sample(self, *_signal) -> None:
        if self._inside:         # a signal that lands in a sample is dropped
            return
        self._inside = True
        t = self.clock()
        kernel()
        end = self.clock()
        self.samples.append((t, end))
        self.busy_s += end - t
        self._inside = False

    @contextlib.contextmanager
    def running(self):
        """Sample at the start, every SAMPLE_EVERY_S, and at the end."""
        self.samples.clear()
        self.busy_s = 0.0
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def times(self) -> tuple[float, float]:
        return integrate(self.samples)

    def ref_s(self) -> float:
        """Median kernel time over the samples: the host's speed."""
        return statistics.median(b - a for a, b in self.samples)
