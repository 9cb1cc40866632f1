"""Host-speed calibration.

A shared two-core sandbox changes speed by tens of percent over seconds: a
fixed pure-Python loop was measured there taking anywhere from 0.12 to 0.18 s
within three seconds, with no steal time reported. The benchmark therefore
runs this fixed calibration work next to every timed stretch and scales the
stretch's host time to what it would have been at the nominal calibration
time. Raw host times are kept in the run record beside the scaled ones.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# Calibration time the scaled figures refer to. The value only sets the scale;
# it is near what calibrate() takes on an idle 2-core Xeon sandbox.
CAL_NOMINAL_S = 0.010

_ARRAY = np.arange(4096, dtype=np.int64)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work."""
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(40_000):
        acc = (acc * 31 + i) & 0xFFFFFF
        table[i & 63] = acc
    a = _ARRAY
    for _ in range(600):
        a = (a ^ (a >> 1)) & 0xFFFF
    return perf_counter() - t0


def scale(seconds: float, cal_s: float) -> float:
    """Host seconds scaled to the nominal calibration speed."""
    return seconds * CAL_NOMINAL_S / cal_s


class Sampler:
    """Runs :func:`calibrate` every ``period`` seconds inside a long call.

    A SIGALRM handler does the calibration in the main thread between
    bytecodes, so a suite that runs for seconds still gets calibrations
    spread over its run; the handler's own time is summed in ``spent_s`` so
    callers can subtract it from the stretch they time.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        self.cal_s: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.cal_s.append(calibrate())
        self.spent_s += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
