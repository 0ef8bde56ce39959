"""Machine-speed probe, so that timings from a shared host stay comparable.

On a shared host a core can run up to twice as slowly for minutes at a
time while its neighbours are busy, and the slowdown hits every
operation alike.  A fixed reference kernel, timed between operations,
measures the current speed.  An operation's scaled time is its measured
time multiplied by REFERENCE_S / (the kernel's time around it): its time
at the speed where the kernel takes REFERENCE_S.  The kernel uses only
numpy and the standard library, never the program, so a faster program
still shows as a lower scaled time.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# A round figure near the kernel's time on an idle core of the x86-64
# machine the benchmark was developed on.  It only sets the unit: scaled
# times are in seconds at that speed.
REFERENCE_S = 1.0e-3
# Take a sample when this long has passed since the last one ...
EVERY_S = 0.1
# ... made of this many back-to-back kernel calls (their median) ...
CALLS = 3
# ... and scale an operation by the median of the samples taken from
# this long before its start to this long after its end.
HALF_WINDOW_S = 0.25

_M = np.array([[(3 * i + 5 * j) % 7 - 3 + 1j * ((i * j) % 5 - 2) for j in range(6)]
               for i in range(6)]) / 10.0
_B = np.exp(2j * np.pi * np.outer(np.arange(64), np.arange(64)) / 67) / 8.0
_DOC = json.dumps({"v": ["%.17g" % (k / 7.0) for k in range(1500)]})


def kernel() -> float:
    """Small complex products and norms in a Python loop, one 64x64
    complex product, and a JSON parse and emit: the mix of work the
    program does, from tiny instances to large files, without the
    program."""
    x = _M
    acc = 0.0
    for j in range(24):
        x = x @ _M
        x = x / np.linalg.norm(x)
        acc += abs(complex(x[j % 6, (j * 5) % 6])) * j
    acc += float(np.abs(_B @ _B).sum())
    vals = [float(v) for v in json.loads(_DOC)["v"]]
    return acc + len(json.dumps(["%.17g" % v for v in vals[:300]]))


class SpeedProbe:
    """Kernel timings taken during a run, and the scale factors they give."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self._last = -np.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        calls = []
        for _ in range(CALLS):
            c0 = time.perf_counter()
            kernel()
            calls.append(time.perf_counter() - c0)
        self._last = time.perf_counter()
        self.times.append(0.5 * (t0 + self._last))
        self.values.append(statistics.median(calls))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the kernel's median time around [start, end].

        The window always holds the last sample before start and the
        first one after end, when they exist.
        """
        times = np.asarray(self.times)
        lo = min(int(np.searchsorted(times, start - HALF_WINDOW_S)),
                 max(int(np.searchsorted(times, start, "right")) - 1, 0))
        hi = max(int(np.searchsorted(times, end + HALF_WINDOW_S, "right")),
                 int(np.searchsorted(times, end)) + 1)
        window = self.values[lo:hi] or self.values
        return REFERENCE_S / statistics.median(window)

    def timed(self, fn):
        """(fn(), measured seconds, scaled seconds), sampled before and after."""
        self.sample()
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.sample()
        return out, t1 - t0, (t1 - t0) * self.factor(t0, t1)
