"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a machine shared with other tenants.  Their load
changes the speed of our CPU by up to a factor of two within minutes:
with tasks and a fixed loop timed in turn, both slowed down together.
Times are therefore reported at reference speed.  Right before each
timed task the benchmark times ``calibration_ms()``, a fixed kernel that
shares no code with ``pairdecomp``, and scales the task's time by
``REFERENCE_MS / calibration``.  Where the machine runs the kernel in
``REFERENCE_MS``, a scaled time equals the wall time.

The kernel mixes the kinds of work the program does today: an
interpreter loop, small numpy operations with fancy indexing like one
Jacobi rotation, and LAPACK calls.  Garbage collection is off while it
runs, so the program's heap cannot slow it down.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: calibration time, in ms, that scaled times refer to
REFERENCE_MS = 10.0

_ROTATION = np.array([[0.8, 0.6], [-0.6, 0.8]], dtype=np.complex128)
_START = np.eye(8, dtype=np.complex128) + 0.1
_SYMMETRIC = np.random.default_rng(0).standard_normal((64, 64))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T


def _kernel() -> None:
    total = 0.0
    for i in range(20000):
        total += (i * 0.5) % 3.0
    work = _START.copy()
    for i in range(300):
        p = i % 7
        work[:, [p, 7]] = work[:, [p, 7]] @ _ROTATION
        work[[p, 7], :] = _ROTATION.conj().T @ work[[p, 7], :]
    for _ in range(4):
        np.linalg.eigh(_SYMMETRIC)


def calibration_ms() -> float:
    """Wall time of one run of the calibration kernel, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def scale(cal_ms: float) -> float:
    """Factor that takes a time measured next to ``cal_ms`` to reference speed."""
    return REFERENCE_MS / cal_ms
