"""Machine-speed probe: converts wall times to the host's nominal speed.

The benchmark runs on a few cores of a shared host whose speed drifts
between about 1.0x and 1.9x of its best, in periods of a few seconds to a
minute, identically in wall and CPU time.  A 30 s run cannot average that
away, so every timed interval is bracketed by a short fixed probe that does
not touch the program: a pure-Python integer loop and a batch of
``scipy.fft.dst`` calls, the two kinds of work the workloads are made of.
An interval of wall time ``t`` whose bracketing probe took ``p`` is
reported as ``t * NOMINAL_PROBE_S / p``: the time it would have taken at the
speed the probe shows when the host runs at full speed.  On the reference
host the log of op latency rose with the log of this probe with slope 0.96
(order-heat-mult) and 1.03 (symbolic-expand), so a change of machine speed
cancels and a change of the program's speed passes through one to one.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.fft

# Geometric mean of the two probe parts at full speed on the reference host
# (2-vCPU guest, "Intel(R) Xeon(R) Processor", Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1): 1.04 ms, from 1.8 ms for the loop and 0.6 ms for the
# transforms (first percentile of 1500 probes).  Any fixed value would do:
# it sets the scale of the reported times, not their steadiness.
NOMINAL_PROBE_S = 1.0e-3
LOOP_N = 30_000
DST_CALLS = 20
_ROWS = np.random.default_rng(0).standard_normal((16, 255))


def _loop() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOP_N):
        total += i * i
    return time.perf_counter() - t0


def _dst() -> float:
    t0 = time.perf_counter()
    for _ in range(DST_CALLS):
        scipy.fft.dst(_ROWS, type=1, axis=-1)
    return time.perf_counter() - t0


_warm = False


def probe() -> tuple[float, float]:
    """Times of the loop part and the transform part, in seconds.

    The first call in a process runs each part once untimed, so that the
    transform plan and the loop's code are ready before anything is timed.
    """
    global _warm
    if not _warm:
        _loop(), _dst()
        _warm = True
    return _loop(), _dst()


def bracket(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Probe time for an interval between two probes.

    Each part takes the faster of its two readings (interrupts only ever
    slow a probe down); the parts combine by geometric mean.
    """
    return math.sqrt(min(before[0], after[0]) * min(before[1], after[1]))


def nominal(seconds: float, probe_s: float) -> float:
    """Wall time converted to the host's nominal speed."""
    return seconds * NOMINAL_PROBE_S / probe_s
