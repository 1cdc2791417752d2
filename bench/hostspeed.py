"""Host-speed calibration: rescale CPU seconds to a reference speed of the host.

The host's other tenants change how fast this machine runs the same
instructions, by 10-20% from one pass to the next and by 20-50% over
minutes, and CPU time sees it (the instructions slow down; the vCPU is not
taken away).  A burst of fixed work that uses no finslerlab code is timed
next to each verdict.  Its time tracks the host's speed, so a latency divided
by the bursts around it and multiplied by ``REFERENCE_S`` reads as the
latency at the reference speed.  A change to finslerlab cannot move the
bursts, so every change to the program's speed still shows in full.

The burst mixes what the verdicts do: three-coefficient jet arithmetic on
41-wide numpy arrays (grid work), the same on one-element arrays (one point
per call) and a plain Python float loop.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: CPU seconds of one burst at the reference speed, fixed for good: near the
#: median on a 2-vCPU Intel Xeon sandbox (Python 3.11.7, numpy 2.4.6), so the
#: rescaled figures stay close to that host's seconds
REFERENCE_S = 0.012
#: a verdict is rescaled by the mean of the bursts up to this many places
#: before and after it in its pass
WINDOW = 3
#: bursts timed before and after each set-up interpreter
SETUP_BURSTS = 3

_REPS = 350


class _Jet:
    """Truncated Taylor series (value, first, second coefficient)."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def __mul__(self, o):
        return _Jet(self.a * o.a, self.a * o.b + self.b * o.a,
                    self.a * o.c + 2.0 * self.b * o.b + self.c * o.a)

    def __add__(self, o):
        return _Jet(self.a + o.a, self.b + o.b, self.c + o.c)


def _jets(width: int) -> float:
    x = _Jet(np.linspace(0.1, 0.9, width), np.ones(width), np.zeros(width))
    acc = _Jet(np.ones(width), np.zeros(width), np.zeros(width))
    for _ in range(_REPS):
        acc = acc * x + x
        acc = _Jet(np.sqrt(np.abs(acc.a)), 0.5 * acc.b, 0.25 * acc.c)
    return float(acc.a.sum())


def _floats() -> float:
    t = 0.0
    for i in range(_REPS):
        for j in range(60):
            t += math.sqrt(j * 0.5 + i)
    return t


def burst() -> float:
    """CPU seconds of one calibration burst."""
    t0 = time.process_time()
    _jets(41)
    _jets(1)
    _floats()
    return time.process_time() - t0


def rescale(latencies: list[float], bursts: list[float]) -> list[float]:
    """Latencies of one pass at reference speed.

    ``bursts[i]`` was timed just before verdict i; each latency is divided
    by the mean burst within ``WINDOW`` places of it.
    """
    out = []
    for i, latency in enumerate(latencies):
        near = bursts[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(latency * REFERENCE_S / statistics.fmean(near))
    return out
