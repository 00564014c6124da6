"""Timing at the nominal speed of a shared machine.

The benchmark's host changes speed from one tenth of a second to the next,
by up to 1.9x, as other tenants' load comes and goes; a whole run can fall
into a slow spell. Wall time alone then spreads 20-47% between runs of the
same code. So a timed interval is cut into slices, each slice starts with
a short fixed probe, and the slice's wall time divided by the probe's
slowdown over its nominal time is the slice's time at nominal speed. The
probe is the benchmark's own frozen code: a change to the program does not
move it.

The speed must be probed often: probing before each decoded utterance
(45 ms) cut the spread of decode passes from 12% to 4%, but probing once
per 250 ms utterance left 6-7%, and once per 2 s pass made it worse than
none. So a timer cuts every interval into slices of SLICE_S, whatever the
program does inside it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# The probe's two parts at the fast speed of a 2-vCPU Intel Xeon VM (1st
# percentile over 6,000 probes): Python dict and tuple churn, like the
# search's hypothesis tables, and small BLAS products, like the model's layers.
# Against decode and train passes of fixed work, their geometric mean fitted
# the machine's slowdown better than a pure-Python loop, a memory stream, a
# random gather or a heap walk did: pass-to-pass spread 3% instead of 12-15%.
DICT_NOMINAL_S = 0.54e-3
BLAS_NOMINAL_S = 0.24e-3
SLICE_S = 0.02  # a probe costs about 0.8 ms: 4% more wall time, outside the slices
_A = np.random.default_rng(0).random((48, 48)) / 48.0


def slowdown() -> float:
    """Current machine slowdown: the probe's time over its nominal time."""
    t0 = time.perf_counter()
    table = {}
    for i in range(1500):
        table[(i, i & 7)] = (i, table.get((i - 1, (i - 1) & 7)))
    t1 = time.perf_counter()
    x = _A
    for _ in range(20):
        x = np.tanh(x @ _A)
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) / DICT_NOMINAL_S * (t2 - t1) / BLAS_NOMINAL_S)


class ScaledClock:
    """Sums timed intervals, as wall time and as time at nominal speed.

    `start` opens an interval and `stop` closes it, returning its wall
    time. While an interval is open, a timer signal cuts it into slices of
    SLICE_S: each slice starts with a probe, and its wall time is divided
    by that probe's slowdown. Probe time falls outside every slice.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.nominal_s = 0.0
        self._interval_s = 0.0
        self._slowdown = 1.0
        self._mark = 0.0
        self._old_handler = None

    def _open_slice(self) -> None:
        self._slowdown = slowdown()
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)  # one-shot: never fires mid-probe

    def _close_slice(self) -> None:
        elapsed = time.perf_counter() - self._mark
        self._interval_s += elapsed
        self.wall_s += elapsed
        self.nominal_s += elapsed / self._slowdown

    def _on_timer(self, signum, frame) -> None:
        self._close_slice()
        self._open_slice()

    def start(self) -> None:
        self._interval_s = 0.0
        self._old_handler = signal.signal(signal.SIGALRM, self._on_timer)
        self._open_slice()

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._close_slice()
        signal.signal(signal.SIGALRM, self._old_handler)
        return self._interval_s

    def add(self, wall_s: float, nominal_s: float) -> None:
        """Count time that a clock of this kind measured in another process."""
        self.wall_s += wall_s
        self.nominal_s += nominal_s


class WallClock:
    """ScaledClock without probes, for traced work: a probe inside a traced
    call would count in its span. Its nominal time is its wall time."""

    def __init__(self):
        self.wall_s = 0.0
        self._start = 0.0

    @property
    def nominal_s(self) -> float:
        return self.wall_s

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        elapsed = time.perf_counter() - self._start
        self.wall_s += elapsed
        return elapsed

    def add(self, wall_s: float, nominal_s: float) -> None:
        self.wall_s += wall_s
