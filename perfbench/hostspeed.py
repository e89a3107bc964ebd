"""Host-speed calibration for wall times taken on a shared machine.

Other tenants of a shared host slow a CPU-bound process by 20-50% for
stretches of seconds to minutes, longer than one benchmark run, so the
medians of two sets of runs can differ by more than any useful bound.
`Timeline` runs a fixed kernel, independent of mbsfnsim, after every
measured call and scales the call's wall time by `REFERENCE_S` over the
mean kernel time just before and just after it: the call's time on a host
as fast as one where the kernel takes `REFERENCE_S`.  The kernel mixes
what the simulator does, large complex numpy array passes and an
interpreter loop of small numpy calls, so contention slows both alike.
"""
from __future__ import annotations

import time

import numpy as np

# A typical kernel time on a 2-CPU Intel Xeon VM; it only sets the
# scale of the reported times.
REFERENCE_S = 0.25


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel.  Its arrays live only
    during the pass, so its peak memory stays below the simulator's."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    shape = (16, 800, 6, 16)
    a = rng.random(shape) + 1j * rng.random(shape)
    b = rng.random(shape[1:]) + 1j * rng.random(shape[1:])
    for _ in range(4):
        np.einsum("ipkm,pkm->ipk", a, b)
        np.exp(1j * a.real)
    x = rng.random(8)
    acc: dict[int, float] = {}
    for i in range(40000):
        k = i % 997
        acc[k] = acc.get(k, 0.0) + float(np.abs(x[i % 8]))
    return time.perf_counter() - t0


class Timeline:
    """Alternates measured calls with kernel passes.

    `measure(fn, *args)` calls `fn(*args)`, which returns (wall seconds,
    result), then runs the kernel, and returns (scaled seconds, result).
    The host speed for a call is the mean kernel time just before (the
    previous call's pass, if any) and just after it.  A call that raises
    still gets its kernel pass, and the exception propagates.  `raw_s`
    and `kernel_s` keep every measurement."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.raw_s: list[float] = []

    def measure(self, fn, *args):
        try:
            wall, result = fn(*args)
        finally:
            self.kernel_s.append(kernel_seconds())
        self.raw_s.append(wall)
        host = sum(self.kernel_s[-2:]) / len(self.kernel_s[-2:])
        return wall * REFERENCE_S / host, result
