"""Speed-normalised CPU seconds for a host whose CPU speed drifts.

On a shared virtual machine the same Python loop runs at one of two speeds,
about 1.8x apart, and switches between them within a fraction of a second;
the two virtual CPUs switch independently, so no second process can measure
the speed for us.  The measured process is also descheduled now and then
while other processes use both CPUs.  ``SpeedClock`` therefore reads the
CPU time of the calling thread (``now``; the measured process runs one
thread, as BLAS is pinned to one), which stops while the thread waits, and
runs a fixed kernel in the process itself from a SIGPROF handler every
50 ms of CPU time: a small stencil right-hand side and RMS error norm on
402-vectors, the same mix of interpreter and small-array work as podrom's
own loops.  CPU time between samples is scaled by ``REFERENCE_KERNEL_S``
over the running median kernel time, giving seconds on a CPU that runs the
kernel in ``REFERENCE_KERNEL_S`` and is never shared.  Sample time itself
is not counted.  Intervals too short to sample, such as interpreter
set-up, are scaled by ``speed_factor`` measured right after them.  The
kernel is part of the benchmark and must not change between compared
commits.

Each sample runs the kernel ``WARMUP_RUNS`` times untimed before the timed
run.  A cold kernel inherits the caches and branch history the program left
behind and runs up to a third slower after a memory-heavy phase than after
a light one, which would make the scale factor depend on what the program
does; the warmed kernel varies by at most 3% across such phases.
"""

from __future__ import annotations

import bisect
import signal
import statistics
# Thread rather than process CPU time: while ITIMER_PROF is armed, Linux
# advances the process CPU clock only at scheduler ticks.
from time import thread_time as now

import numpy as np

PERIOD_S = 0.05
REFERENCE_KERNEL_S = 5e-4
WARMUP_RUNS = 2
_WINDOW = 1  # samples on each side in the running median

_X0 = np.linspace(0.0, 1.0, 402)


def _stencil_rhs(x):
    v = x[:201]
    w = x[201:]
    out = np.empty(402)
    dv = out[:201]
    dw = out[201:]
    dv[1:200] = 3.0 * (v[2:] - 2.0 * v[1:200] + v[:199])
    dv[0] = 3.0 * (v[1] - v[0])
    dv[200] = 3.0 * (v[199] - v[200])
    dv += 0.1 * (v * (1.0 - v) * (v - 0.2) - w)
    dw[1:200] = 2.0 * (w[2:] - 2.0 * w[1:200] + w[:199]) + v[1:200] - w[1:200]
    dw[0] = 0.0
    dw[200] = 0.0
    return out


def kernel() -> float:
    x = _X0
    err = 0.0
    for _ in range(12):
        k = _stencil_rhs(x)
        x = x + 1e-6 * k
        err = float(np.sqrt(np.mean((k / (1e-3 + np.abs(x))) ** 2)))
    return err


def speed_factor(samples: int = 20) -> float:
    """Reference kernel time over the median of ``samples`` kernel runs made now."""
    times = []
    for _ in range(samples):
        start = now()
        kernel()
        times.append(now() - start)
    return REFERENCE_KERNEL_S / statistics.median(times)


class SpeedClock:
    """Samples the kernel while running; converts intervals afterwards."""

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []
        self.kernel_s: list = []

    def _tick(self, signum, frame) -> None:
        start = now()
        for _ in range(WARMUP_RUNS):
            kernel()
        timed = now()
        kernel()
        end = now()
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_s.append(end - timed)

    def __enter__(self) -> "SpeedClock":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _factor(self, index: int) -> float:
        lo = max(index - _WINDOW, 0)
        window = self.kernel_s[lo : index + _WINDOW + 1]
        return REFERENCE_KERNEL_S / statistics.median(window)

    def seconds(self, start: float, end: float) -> float:
        """Speed-normalised length of [start, end], sample time excluded."""
        if not self.starts:
            return end - start
        total = 0.0
        segment_start = start
        # Sample k closes the segment of program time that ends where it starts.
        k = bisect.bisect_left(self.starts, start)
        if k > 0 and self.ends[k - 1] > start:
            segment_start = self.ends[k - 1]
        while k < len(self.starts) and self.starts[k] < end:
            total += (self.starts[k] - segment_start) * self._factor(k)
            segment_start = self.ends[k]
            k += 1
        last = min(k, len(self.starts) - 1)
        total += max(end - segment_start, 0.0) * self._factor(last)
        return total

    def median_kernel_us(self) -> float:
        return 1e6 * statistics.median(self.kernel_s) if self.kernel_s else 0.0
