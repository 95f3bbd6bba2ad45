"""In-process machine-speed probe, so that times on a shared box compare.

On a shared machine the same Python code runs 25% faster or slower from one
second to the next, for minutes at a time. The probe times a fixed kernel of
about 0.1 ms, heylab-like bit scans and set insertions, from a SIGALRM
handler every INTERVAL_S. The handler runs in the main thread between
bytecodes, so the samples are taken in the same process, on the same CPU
and in the same moments as the measured work, and no thread is started.
`factor` turns the samples taken during a span into the factor that scales
the span's raw time to the time on a machine where the kernel takes
NOMINAL_S. The kernel is frozen: it
belongs to the benchmark, not to heylab, so changes to heylab leave it as is.
The collector is off while the kernel runs, so a collection that heylab's
heap would make slow never lands inside a sample.

`sample` also takes a sample on demand: the worker takes one when the probe
starts and at the ends of each measured span, so every span has a sample of
its own whatever the timer did. A workload whose work runs in child
processes uses only these samples, between the children, and no timer: a
handler run while a child holds the CPU would time the child's share too.
perfbench/README.md records how the factor was validated.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.01
NOMINAL_S = 1.5e-4

_FULL = (1 << 13) - 1
_DOWN = tuple((1 << (i + 1)) - 1 for i in range(13))


def kernel_s() -> float:
    """Time the fixed kernel once: implications and meets of a few masks."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for g in range(1, 12):
        cur = {0, _FULL, (g * 977) & _FULL, (g * 3301) & _FULL}
        for a in sorted(cur):
            for b in sorted(cur):
                w, m = a & ~b, 0
                while w:
                    low = w & -w
                    m |= _DOWN[low.bit_length() - 1]
                    w ^= low
                cur.add(_FULL & ~m)
    took = time.perf_counter() - start
    if collecting:
        gc.enable()
    return took


class SpeedProbe:
    """Samples kernel_s() on demand, and every INTERVAL_S if `timer`."""

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.stamps: list = []  # perf_counter() at each sample
        self.samples: list = []  # kernel time of each sample
        self._busy = False

    def sample(self, signum=None, frame=None) -> None:
        # a timer sample must not land inside an on-demand one and time both
        if self._busy:
            return
        self._busy = True
        try:
            self.stamps.append(time.perf_counter())
            self.samples.append(kernel_s())
        finally:
            self._busy = False

    def start(self) -> None:
        self.sample()
        if self.timer:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Scale factor for a raw time measured from start to end.

        Work done in dt at slowdown s (sample / NOMINAL_S) takes dt / s at
        the nominal speed, so the factor is the mean of NOMINAL_S / sample
        over the samples taken in [start, end], or over the samples just
        before and just after the span when it holds none.
        """
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.stamps))
        return statistics.mean(NOMINAL_S / s for s in self.samples[lo:hi])
