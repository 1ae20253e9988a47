"""Host-speed-calibrated clock for the timed benchmark runs.

The reference machine is a VM on a shared host.  Load elsewhere on the
host makes the same pure-Python code run up to about 1.8 times slower, in
phases from a tenth of a second to several minutes long, and the CPU time
the VM sees slows with it.  Raw seconds from two runs minutes apart are
therefore not comparable.

``HostClock`` measures a stretch of code in reference seconds.  While it is
open, a SIGALRM timer interrupts the process every ``TICK_S`` seconds and
times a fixed ``Fraction`` probe (``probe_s``).  Each interval between two
probes is converted at the speed the probes at its two ends show:

    ref_s += interval * REF_PROBE_S / probe time

so a stretch of code that would take 1 s on a host where the probe takes
``REF_PROBE_S`` reads 1 reference second whatever the host's speed while it
ran.  The probe's own time is left out of both ``raw_s`` and ``ref_s``.  The
probe is benchmark code that calls only the standard library, so no change
to ``src/involute`` can change what it measures.

Python runs a signal handler between bytecodes of the main thread, so a
probe never interrupts a C call; the interval it closes just gets longer.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

TICK_S = 0.02
# Probe time that defines the reference speed: a round figure near what the
# probe takes inside the jobs on the 2-vCPU Xeon VM of the defining commit.
REF_PROBE_S = 1.0e-4
PROBE_TERMS = 30
END_PROBES = 3  # the clock opens and closes on the median of this many probes


def probe_s() -> float:
    """Seconds for a fixed sum of Fractions: the host-speed sample."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, PROBE_TERMS):
        total += Fraction(1, k)
    return time.perf_counter() - t0


def median_probe_s(probes: int) -> float:
    return sorted(probe_s() for _ in range(probes))[probes // 2]


class HostClock:
    """Context manager: ``raw_s`` and ``ref_s`` of the code it encloses.

    Not re-entrant, and only for the main thread, which alone receives
    Python signal handlers.  It assumes no other real-time interval timer
    is armed; on exit it disarms the timer and restores the previous
    SIGALRM handler.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.probes = 0  # speed samples taken, one per closed interval

    def _close_interval(self, end: float, probes: int = 1) -> None:
        q = median_probe_s(probes)
        dt = end - self._start
        self.raw_s += dt
        self.ref_s += dt * REF_PROBE_S * 0.5 * (1.0 / self._q + 1.0 / q)
        self.probes += 1
        self._q = q
        self._start = time.perf_counter()

    def _tick(self, _signum, _frame) -> None:
        self._close_interval(time.perf_counter())

    def __enter__(self) -> "HostClock":
        self._q = median_probe_s(END_PROBES)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        # disarm first, so that no tick can close an interval after `end`
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old_handler)
        self._close_interval(end, END_PROBES)
