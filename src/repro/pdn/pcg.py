"""Preconditioned conjugate gradients for the reduced PDN systems.

The reduced (node-only) mesh operator — lateral conductances plus the
diagonal source-branch conductances — is symmetric positive definite,
so CG applies directly.  The intended preconditioner is the *exact*
fast-Poisson solve of the uniform-mean version of the same system
(:mod:`repro.pdn.fast_poisson`), which leaves only the per-edge metal
variation for CG to iterate away: spectra that uniform-mesh DCT
diagonalization cannot capture converge in a few tens of iterations
regardless of mesh size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Default relative residual tolerance; tight enough that structured
#: solves hold 1e-8 parity against the sparse-LU oracle with margin.
DEFAULT_TOL = 1e-12

#: Default iteration cap.  The fast-Poisson preconditioner keeps real
#: workloads far below this; hitting it signals a mesh the structured
#: path should hand back to the factorized engine.
DEFAULT_MAX_ITER = 400


@dataclass(frozen=True)
class PCGResult:
    """Outcome of one (possibly multi-column) PCG solve.

    Attributes:
        x: solution columns, same shape as the right-hand side.
        converged: True when every column met the tolerance.
        iterations: iterations used by the worst column.
        residual_norm: worst final relative residual.
    """

    x: Any
    converged: bool
    iterations: int
    residual_norm: float


def pcg_solve(
    matvec: Callable[[Any], Any],
    rhs: Any,
    preconditioner: Callable[[Any], Any] | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PCGResult:
    """Solve ``A x = b`` (SPD ``A``) by preconditioned CG.

    Args:
        matvec: ``v -> A @ v``; must accept a 1-D column.
        rhs: right-hand side, shape ``(n,)`` or ``(n, k)`` — columns
            are solved independently.
        preconditioner: ``r -> M⁻¹ r`` (approximate solve); identity
            when omitted.
        tol: relative residual target per column (``|r| <= tol |b|``).
        max_iter: iteration cap per column.

    Returns:
        :class:`PCGResult`; ``converged`` is False (never an
        exception) when a column stalls, so callers choose their own
        fallback.
    """
    b = np.asarray(rhs)
    single = b.ndim == 1
    columns = b.reshape(-1, 1) if single else b
    x = np.zeros_like(columns)
    worst_iterations = 0
    worst_residual = 0.0
    all_converged = True

    for j in range(columns.shape[1]):
        bj = columns[:, j]
        b_norm = float(np.linalg.norm(bj))
        if b_norm == 0.0:
            continue
        xj = np.zeros_like(bj)
        r = bj - matvec(xj)
        z = preconditioner(r) if preconditioner is not None else r
        p = z.copy()
        rz = float(np.real(np.vdot(r, z)))
        iterations = 0
        residual = float(np.linalg.norm(r)) / b_norm
        while residual > tol and iterations < max_iter:
            ap = matvec(p)
            pap = float(np.real(np.vdot(p, ap)))
            if pap <= 0.0 or not np.isfinite(pap):
                # Not SPD along this direction — bail out; the caller
                # falls back to the factorized engine.
                break
            alpha = rz / pap
            xj = xj + alpha * p
            r = r - alpha * ap
            residual = float(np.linalg.norm(r)) / b_norm
            iterations += 1
            if residual <= tol:
                break
            z = preconditioner(r) if preconditioner is not None else r
            rz_next = float(np.real(np.vdot(r, z)))
            beta = rz_next / rz
            rz = rz_next
            p = z + beta * p
        x[:, j] = xj
        worst_iterations = max(worst_iterations, iterations)
        worst_residual = max(worst_residual, residual)
        if residual > tol or not np.isfinite(residual):
            all_converged = False

    return PCGResult(
        x=x[:, 0] if single else x,
        converged=all_converged,
        iterations=worst_iterations,
        residual_norm=worst_residual,
    )
