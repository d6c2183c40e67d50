"""A fixed reference computation that tracks how fast the machine runs now.

The machines this benchmark runs on are shared, and their speed drifts by a
quarter or more over minutes as other tenants' load comes and goes.  Every
process on the machine slows together, so the benchmark times this probe
between ops and set-up repetitions and scales its gated times to the
probe's reference time: a change to the program moves the scaled times as
much as the raw ones, while a change in machine speed moves the probe too
and mostly cancels.

The probe touches nothing of the program.  It does the three kinds of work
the program does: interpreted Python (``_interpreter``), ufunc calls on
small arrays (``_small_arrays``, like the statevector scans) and a
single-threaded matrix product (``_matmul``, like the SDP checks).  Its
arrays are allocated once and are small; with the buffers OpenBLAS sets
up for the first product they add ~3 MiB to ``peak_rss_mib``.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

# About the seconds the probe takes on the 2-CPU Xeon container the
# README's figures come from, in a fast spell.  Only the units of the
# scaled metrics depend on it.
REF_PROBE_S = 0.010
# One probe per this many seconds of measured time.
INTERVAL_S = 0.2
# A step's own scale uses the probes up to this many seconds either side.
WINDOW_S = 1.0

_rng = np.random.default_rng(0)
_vec = _rng.random(64)
_mat = _rng.random((256, 256))
_out = np.empty_like(_mat)


def _interpreter() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
        table[i & 255] = acc
    return acc


def _small_arrays() -> None:
    x = _vec
    for _ in range(1_500):
        x = np.abs(x * 0.5 + _vec) / 1.5


def _matmul() -> None:
    for _ in range(5):
        np.matmul(_mat, _mat, out=_out)


def probe() -> float:
    """Seconds one run of the reference computation takes now."""
    t0 = time.perf_counter()
    _interpreter()
    _small_arrays()
    _matmul()
    return time.perf_counter() - t0


class Probe:
    """Probe times taken between measured steps, one per ``INTERVAL_S`` of
    the steps' time, so probing tracks every stretch of the run alike."""

    def __init__(self) -> None:
        self.stamps: list[float] = []  # perf_counter() at the start of each probe
        self.times: list[float] = []
        self._owed = 0.0

    def _take(self) -> None:
        self.stamps.append(time.perf_counter())
        self.times.append(probe())

    def after(self, seconds: float) -> float:
        """Account for a step of ``seconds`` and probe as often as is due.

        Returns the wall time spent probing.
        """
        t0 = time.perf_counter()
        self._owed += seconds
        while self._owed >= INTERVAL_S:
            self._take()
            self._owed -= INTERVAL_S
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference time."""
        if not self.times:  # steps too short to owe a probe
            self._take()
        return REF_PROBE_S * len(self.times) / sum(self.times)

    def local_scales(self, starts, durations) -> list[float]:
        """``scale()`` of each step from the probes within ``WINDOW_S`` of it,
        so that a step is judged by the machine's speed at its own time."""
        whole = self.scale()
        prefix = list(accumulate(self.times, initial=0.0))
        scales = []
        for start, seconds in zip(starts, durations):
            lo = bisect_left(self.stamps, start - WINDOW_S)
            hi = bisect_right(self.stamps, start + seconds + WINDOW_S)
            scales.append(REF_PROBE_S * (hi - lo) / (prefix[hi] - prefix[lo]) if hi > lo
                          else whole)
        return scales
