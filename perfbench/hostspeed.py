"""Host-speed sampling, so that timings from a shared host can be compared.

The benchmark's host is a few virtual CPUs of a shared machine whose speed
drifts by up to 1.8x over tens of seconds, with no steal time reported to the
guest.  A `Sampler` runs a fixed pure-Python kernel from a SIGALRM handler
every `INTERVAL_S` of wall time while a timed interval runs, and times each
call.  The mean kernel time over the interval says how fast the host ran
during it, so

    normalised = (interval - kernel time) * REFERENCE_S / mean kernel time

is the interval's length at the reference speed, at which one kernel call
takes `REFERENCE_S`.  The kernel shares no code with gausscalc, so a change
to the program moves the raw time and leaves the kernel alone.

Python runs signal handlers between bytecodes of the main thread, so a
sample waits for a long C call to return; system calls interrupted by the
signal are retried (PEP 475).  The kernel builds no containers, so it adds
no work for the cyclic garbage collector of the program it interrupts.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.025
# a round figure within the range one kernel call takes on the baseline host
# (2-vCPU Intel Xeon VM, Python 3.11: 0.29-0.53 ms); normalised times are
# seconds at the speed where a call takes this long
REFERENCE_S = 0.0004

_POLY = (0.9, -0.4, 1.1, 0.1, -0.7, 2.0, 0.5, -1.2, 0.3)  # leading coefficient first
_STARTS = (complex(-2.0, 0.3), complex(-0.5, 0.3), complex(0.5, 0.3), complex(2.0, 0.3))


def _moment(j: int, a: float, b: float) -> float:
    """int_a^b x^j exp(-x^2) dx by parts."""
    if j == 0:
        return 0.5 * math.sqrt(math.pi) * (math.erf(b) - math.erf(a))
    if j == 1:
        return 0.5 * (math.exp(-a * a) - math.exp(-b * b))
    edge = a ** (j - 1) * math.exp(-a * a) - b ** (j - 1) * math.exp(-b * b)
    return 0.5 * edge + 0.5 * (j - 1) * _moment(j - 2, a, b)


def kernel() -> float:
    """Fixed work: Newton steps on a degree-8 polynomial, Gaussian moments."""
    total = 0.0
    for shift in range(4):
        for x in _STARTS:
            x += 0.1 * shift
            for _ in range(8):
                v = d = 0j
                for c in _POLY:
                    d = d * x + v
                    v = v * x + c
                x -= v / d
            total += abs(x)
        for j in range(14):
            total += _moment(j, -0.5, 0.1 * shift)
    return total


class Sampler:
    """Times `kernel()` every `interval` seconds of wall time between start() and stop()."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.busy_s = 0.0  # kernel time so far, to take out of the interval it interrupted
        self._previous = None

    def _time_kernel(self) -> float:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, signum, frame):
        self.busy_s += self._time_kernel()

    def clock(self) -> float:
        """perf_counter without the kernel's time: a clock for spans inside the interval."""
        return time.perf_counter() - self.busy_s

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an interval shorter than one tick: sample once after it
            self._time_kernel()

    @property
    def factor(self) -> float:
        """Reference speed over measured speed: below 1 when the host ran slow."""
        return REFERENCE_S * len(self.samples) / math.fsum(self.samples)
