"""Host-speed reference: a fixed kernel timed next to every design point.

On a 2-vCPU share of a cloud host the speed swings in phases of
seconds to minutes: the same 32² transient point takes 115 ms in one
phase and 190 ms in the next, and every point class and every kernel
(SuperLU, numpy, the interpreter) slows by the same factor.  Process
CPU time swings with it.  A wall-clock median over a 20 s run then
reports which phase the run fell in, not the program.

So the benchmark times :func:`reference_s` — a fixed mix of the work
the program does (a SuperLU factorization and multi-column solve,
numpy elementwise updates, interpreter-level loops) that calls no
``repro`` code — right before each point, and scales the point's
latency by :data:`REFERENCE_S` over the kernel's time.  A reported
latency reads "milliseconds on a host that runs the kernel in
:data:`REFERENCE_S`", about that host in its fast phase.  A change to
``repro`` moves the scaled latency exactly as it moves the wall-clock
one; a change in host load moves both the point and the kernel and
cancels.  On a 4-minute trace of ``transient_droop`` the
quartile spread of 20 s windows fell from 0.16 to 0.02 for points per
second and from 0.26 to 0.03 for the median latency.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Kernel time that defines the reference host, in seconds.
REFERENCE_S = 5e-3

_N = 32
_LAPLACIAN = (
    sp.diags(np.full(_N * _N, 4.001))
    - sp.eye(_N * _N, k=1)
    - sp.eye(_N * _N, k=-1)
    - sp.eye(_N * _N, k=_N)
    - sp.eye(_N * _N, k=-_N)
).tocsc()
_RHS = np.random.default_rng(0).random((_N * _N, 8))
_FIELD = np.random.default_rng(1).random((8, 4096))


def reference_s() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    lu = spla.splu(_LAPLACIAN)
    for _ in range(4):
        lu.solve(_RHS)
    acc = _FIELD.copy()
    for _ in range(40):
        acc *= 0.999
        acc += _FIELD
    total = 0
    for i in range(4000):
        total += i * i
    table = {}
    for i in range(2000):
        table[i] = (i, str(i))
    return time.perf_counter() - t0


def scale(seconds: float, reference: float) -> float:
    """``seconds`` measured next to a kernel run of ``reference`` seconds,
    expressed on the reference host."""
    return seconds * REFERENCE_S / reference
