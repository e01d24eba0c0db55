"""Machine-speed reference: fixed work that does not touch dicke-sim.

The shared machines this benchmark runs on change speed by up to 1.6x over
seconds to tens of minutes, and every process slows down together: a plain
Python loop drifts in step with the workloads.  A fixed reference kernel,
timed (median of three passes) right before and right after each measured
repetition, tracks that drift.  Over 25 s windows its time correlated with
a workload's at 0.86-0.98 on three of the four workloads (on `cascade`, whose
time drifted least, scaling changed little).  So the benchmark scales each
measured time by

    REFERENCE_S / (mean of the kernel's two times around it)

which gives the time the repetition would have taken at the speed at which
the kernel takes REFERENCE_S.  The kernel mixes small complex matrix products
with plain Python loops over floats and complex numbers, as the workloads do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the machine where the benchmark was defined
# (Intel Xeon, 2 vCPU, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.006

_SIZE = 48
_rng = np.random.default_rng(0)
_MATRIX = (_rng.standard_normal((_SIZE, _SIZE)) + 1j * _rng.standard_normal((_SIZE, _SIZE))) / 8.0
_COEFFS = [complex(x, 0.5) / _SIZE for x in range(_SIZE)]


def kernel() -> float:
    """One pass of the fixed work; returns a number so that nothing is skipped."""
    v = np.ones(_SIZE, dtype=complex)
    acc = 0.0
    for i in range(300):
        w = _MATRIX @ v
        v = w / np.sqrt(np.vdot(w, w).real)
        z = complex(v[i % _SIZE])
        row = [c * z + x for c, x in zip(_COEFFS, range(_SIZE))]
        acc += sum(abs(y) ** 2 for y in row)
    return acc


def time_kernel(passes: int = 3) -> float:
    """Median time of `passes` kernel passes, in seconds."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(elapsed_s: float, kernel_s: float) -> float:
    """`elapsed_s` at the reference speed, given the kernel's time measured beside it."""
    return elapsed_s * REFERENCE_S / kernel_s
