"""A fixed computation that measures how fast the machine runs right now.

On a shared virtual machine the speed of the same code drifts by up to
30 % over minutes, so two runs of identical work a few minutes apart
differ by more than any regression worth catching.  ``seconds()`` times a
computation of the benchmark's own, shaped like the program's work:
array passes through ``scipy.special`` like a batched SMC target, then
Python-level scalar calls like the per-particle fallback.  Dividing a
command's time by it in the same run cancels most of that drift.  It
never calls ``esnsmc``, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

_X = np.random.default_rng(20240601).standard_normal(20000)


def seconds() -> float:
    """Wall time of one pass of the fixed computation (about 0.3 s)."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(300):
        z = _X * (1.0 + 0.001 * k) - 0.5
        acc += float(np.sum(special.log_ndtr(z))) + float(np.sum(np.exp(-0.5 * z * z)))
    for i in range(80000):
        v = _X[i % 19996:i % 19996 + 4]
        acc += math.log1p(float(v @ v)) + float(special.ndtr(v[0]))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration computation went non-finite")
    return elapsed
