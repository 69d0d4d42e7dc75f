"""A fixed calibration kernel that measures how fast this machine runs now.

On a shared 2-vCPU VM the same pass can take 45 % longer from one minute to
the next, as the host moves between load states. The benchmark times this
kernel before the first pass and after every pass, and multiplies each
pass's times by ``REFERENCE_S`` over the mean of the two kernel times around
it, so figures read as seconds at one fixed machine speed. The kernel mixes
the three kinds of work mlpriv does: interpreted Python loops, numpy calls on
tiny arrays, and special functions over a 128 x 257 table. It uses nothing
from mlpriv, so no program change moves it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.special import gammaln

# about the kernel's time on the VM the reference figures come from (2-vCPU
# Xeon, CPython 3.11, numpy 2.4); it fixes the unit of every reported time
REFERENCE_S = 0.45

_X = np.linspace(-1.0, 1.0, 16 * 8).reshape(16, 8)
_W = np.linspace(0.5, -0.5, 3 * 8).reshape(3, 8)
_ALPHA = np.arange(2.0, 130.0)[:, None]  # small enough not to raise peak RSS
_K = np.arange(257.0)


def kernel_s() -> float:
    """Seconds the fixed kernel takes right now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 500_000):
        acc += math.sqrt(i * 1.5) / (1.0 + i)
    for _ in range(10_000):
        z = _X @ _W.T
        z = np.exp(z - z.max(axis=1, keepdims=True))
        p = z / z.sum(axis=1, keepdims=True)
        acc += float(np.linalg.norm(np.einsum("bc,bd->bcd", p, _X)))
    for _ in range(200):
        terms = gammaln(_ALPHA + 1) - gammaln(_K + 1) + _K * (_K - 1) / 3.0
        top = terms.max(axis=1, keepdims=True)
        acc += float(np.log(np.exp(terms - top).sum(axis=1)).sum())
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel overflowed")
    return time.perf_counter() - start
