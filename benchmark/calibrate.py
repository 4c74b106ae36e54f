"""Machine speed, measured next to the work it is used to scale.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, and a pure-Python loop slows as much as the program does.  So
the benchmark times a fixed block of work of its own right before and after
every case, in the same process, and scales the case's wall time by how
long that block took against `REFERENCE`:

    scaled_s = wall_s * reference_s / measured_s

A drift that slows both the case and the block cancels.  A change to the
program does not touch the block, so it shows in full.  The blocks use the
standard library and numpy only, never `foelner`.

There are two kinds of block, because the host's drift does not slow all
work alike: `interp` is interpreter-bound `Fraction` arithmetic, like the
exact Weyl core, and `blas` is a dense SVD and product through one BLAS
thread, like the dense windows.  Each workload names the kinds that match
its work (`workloads.CALIBRATION`); a sample is the summed time of those
kinds.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median seconds of one block on the machine the benchmark was introduced
# on (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6, scipy-openblas
# 0.3.31 on one thread), so scaled times read as seconds on that machine.
REFERENCE = {"interp": 0.02357, "blas": 0.01208}

_BLAS_N = 320
_blas_a = None


def interp_s(n: int = 6000) -> float:
    """Seconds for a fixed block of `Fraction` arithmetic."""
    t0 = time.perf_counter()
    tot = 0
    for i in range(1, n):
        x = Fraction(3 * i + 1, 2 * i + 5) * Fraction(i + 2, 7)
        tot += x.numerator % 97
    return time.perf_counter() - t0


def blas_s() -> float:
    """Seconds for a fixed dense SVD and matrix product."""
    global _blas_a
    import numpy as np
    if _blas_a is None:
        _blas_a = np.random.default_rng(0).standard_normal((_BLAS_N, _BLAS_N))
    t0 = time.perf_counter()
    np.linalg.svd(_blas_a, compute_uv=False)
    (_blas_a @ _blas_a).sum()
    return time.perf_counter() - t0


_BLOCKS = {"interp": interp_s, "blas": blas_s}


def sample(kinds: list[str]) -> float:
    """Summed seconds of one block of each kind."""
    return sum(_BLOCKS[k]() for k in kinds)


def reference(kinds: list[str]) -> float:
    """What `sample(kinds)` takes on the reference machine."""
    return sum(REFERENCE[k] for k in kinds)


def scaled(case_s: list[float], cal: list[float], ref: float) -> float:
    """Summed case times, each scaled by the mean of the samples around it.

    `cal[i]` is the sample taken before case i and `cal[i + 1]` the one
    after it.
    """
    return sum(c * ref / ((cal[i] + cal[i + 1]) / 2) for i, c in enumerate(case_s))
