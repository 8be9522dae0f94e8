"""Structure-exploiting fast-Poisson solver for uniform-mesh PDNs.

The compiled grid operator of :class:`~repro.pdn.grid.GridPDN` is a
near-Poisson Laplacian: a uniform ``nx × ny`` rectangular mesh whose
x/y edge conductances are constant, plus a handful of irregularities —
VR source branches, ring-bus segments, and (optionally) per-edge metal
variation.  This module solves that system in O(n² log n) instead of
sparse-LU time by diagonalizing the uniform interior with fast
trigonometric transforms and handling everything that breaks pure
structure as a small correction:

* The free (Neumann) mesh Laplacian ``G = gx·(I ⊗ Lx) + gy·(Ly ⊗ I)``
  is diagonalized exactly by the orthonormal **DCT-II** along each
  axis (the DST handles the grounded/Dirichlet boundary variant —
  see :func:`poisson_mode_eigenvalues`).  One 2-D transform pair per
  solve, trivially batched over right-hand-side columns.
* ``G`` alone is singular (the constant mode); the zero eigenvalue is
  deflated by a rank-1 shift ``τ·u₀u₀ᵀ`` that is subtracted back out
  through the same correction that carries the source branches.
* Source output conductances (rank-1 each), ring-bus segments (rank-1
  each), and the deflation column enter as a rank-k Woodbury
  correction ``A = M + U C Uᵀ`` on the fast operator ``M`` — the same
  identity :meth:`repro.pdn.mna.FactorizedPDN.solve_modified_many`
  uses on the cached LU, here with ``M⁻¹`` a transform pair instead
  of a back-substitution.
* Per-edge metal variation makes the interior genuinely non-uniform;
  those systems run preconditioned CG (:mod:`repro.pdn.pcg`) with the
  *exact* uniform-mean structured solve as the preconditioner.

Disabling a source (an open-circuited regulator) simply drops its
column from the correction, so N−1/N−k sweeps share every transform
and memoized influence column across scenarios.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from ..errors import ConfigError, SolverError
from .mesh import MeshDesign
from .mna import DCSolution, package_dc_solution
from .network import CompiledNetlist
from .pcg import DEFAULT_MAX_ITER, DEFAULT_TOL, pcg_solve


class StructuredSolveError(SolverError):
    """The structured engine cannot solve this system accurately.

    Raised on CG non-convergence or an ill-conditioned correction;
    callers running with ``engine="auto"`` catch it and fall back to
    the factorized (sparse LU) path.
    """


def poisson_mode_eigenvalues(n: int, boundary: str = "neumann") -> np.ndarray:
    """Eigenvalues of the 1-D unit-weight path-graph Laplacian.

    ``boundary="neumann"`` is the free-ended chain (the PDN mesh: no
    connection past the die edge), diagonalized by the DCT-II basis
    with eigenvalues ``2(1 − cos(πk/n))``, ``k = 0..n−1`` — including
    the zero mode.  ``boundary="dirichlet"`` is the grounded-ended
    chain, diagonalized by the DST-I basis with eigenvalues
    ``2(1 − cos(π(k+1)/(n+1)))``; it has no zero mode and needs no
    deflation.
    """
    if n < 1:
        raise ConfigError("mode count needs n >= 1")
    k = np.arange(n, dtype=float)
    if boundary == "neumann":
        return 2.0 * (1.0 - np.cos(np.pi * k / n))
    if boundary == "dirichlet":
        return 2.0 * (1.0 - np.cos(np.pi * (k + 1.0) / (n + 1.0)))
    raise ConfigError(f"unknown boundary condition: {boundary!r}")


def dct2_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II basis matrix ``B[k, j]``.

    Row ``k`` is the k-th eigenvector of the free path Laplacian;
    ``B @ B.T = I``.  Used where per-node squared eigenvector weights
    are needed (the structured AC impedance map); bulk transforms go
    through ``scipy.fft`` instead.
    """
    j = np.arange(n, dtype=float)
    basis = np.cos(
        np.pi * np.arange(n, dtype=float)[:, None] * (2.0 * j[None, :] + 1.0)
        / (2.0 * n)
    )
    basis *= np.sqrt(2.0 / n)
    basis[0] *= np.sqrt(0.5)
    return basis


def branch_columns(
    cells: int,
    deflate: bool,
    rows: np.ndarray,
    ring_a: np.ndarray,
    ring_b: np.ndarray,
) -> np.ndarray:
    """Woodbury columns ``U`` of a structured engine's low-rank branches.

    In order: the normalized constant column that reinstates a
    deflated zero mode (when ``deflate``), one unit column per shunt
    row in ``rows`` (source attachments, decap deviations), and one
    ``±1`` column per ring segment ``ring_a[t] — ring_b[t]``.  Shared
    by the DC, AC and transient structured engines.
    """
    lead = int(deflate)
    u = np.zeros((cells, lead + rows.size + ring_a.size))
    if deflate:
        u[:, 0] = 1.0 / np.sqrt(cells)
    u[rows, lead + np.arange(rows.size)] = 1.0
    ring = lead + rows.size + np.arange(ring_a.size)
    u[ring_a, ring] = 1.0
    u[ring_b, ring] = -1.0
    return u


class FastPoissonOperator:
    """``M = gx·(I ⊗ Lx) + gy·(Ly ⊗ I) [+ shift·I]`` with O(n² log n) solves.

    Grid node ``(ix, iy)`` occupies row ``iy·nx + ix`` (the mesh row
    convention of :func:`repro.pdn.mesh.mesh_edge_rows`).  With
    ``shift == 0`` the zero (constant) mode is deflated: its
    eigenvalue is replaced by ``τ = gx + gy`` and
    :attr:`deflation_tau` reports the value so callers can subtract
    ``τ·u₀u₀ᵀ`` back out via their low-rank correction.  A nonzero
    (possibly complex) ``shift`` needs no deflation.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        gx: float,
        gy: float,
        shift: complex = 0.0,
    ) -> None:
        if nx < 1 or ny < 1 or nx * ny < 2:
            raise ConfigError("operator needs at least two mesh nodes")
        if (nx > 1 and gx <= 0) or (ny > 1 and gy <= 0):
            raise ConfigError("edge conductances must be positive")
        self.nx = nx
        self.ny = ny
        self.gx = gx
        self.gy = gy
        lam_x = gx * poisson_mode_eigenvalues(nx) if nx > 1 else np.zeros(1)
        lam_y = gy * poisson_mode_eigenvalues(ny) if ny > 1 else np.zeros(1)
        lam = lam_y[:, None] + lam_x[None, :] + shift
        self.deflation_tau: float | None = None
        if shift == 0.0:
            tau = float(gx + gy)
            lam = lam.astype(float)
            lam[0, 0] = tau
            self.deflation_tau = tau
        self._lam = lam

    @property
    def cells(self) -> int:
        return self.nx * self.ny

    def eigenvalues(self) -> np.ndarray:
        """The (ny, nx) modal eigenvalue array (deflated at [0, 0])."""
        return self._lam

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``M⁻¹ @ rhs`` for one column ``(cells,)`` or a stack
        ``(cells, k)`` — one batched DCT-II pair regardless of k."""
        arr = np.asarray(rhs)
        single = arr.ndim == 1
        columns = arr[:, None] if single else arr
        if columns.shape[0] != self.cells:
            raise ConfigError(
                f"rhs must have {self.cells} rows, got {columns.shape[0]}"
            )
        field = np.ascontiguousarray(columns.T).reshape(
            -1, self.ny, self.nx
        )
        hat = sfft.dctn(field, type=2, axes=(1, 2), norm="ortho")
        hat = hat / self._lam[None, :, :]
        out = sfft.idctn(hat, type=2, axes=(1, 2), norm="ortho")
        solved = out.reshape(-1, self.cells).T
        return solved[:, 0] if single else solved

    def solve_rows(self, rhs: np.ndarray) -> np.ndarray:
        """``(M⁻¹ @ rhsᵀ)ᵀ`` for a C-contiguous row stack ``(k, cells)``.

        The zero-copy layout for hot loops: each row views directly as
        a ``(ny, nx)`` field, so — unlike :meth:`solve` — no transpose
        copies bracket the DCT pair.
        """
        arr = np.ascontiguousarray(rhs)
        if arr.ndim != 2 or arr.shape[1] != self.cells:
            raise ConfigError(
                f"row rhs must be (k, {self.cells}), got {arr.shape}"
            )
        field = arr.reshape(-1, self.ny, self.nx)
        hat = sfft.dctn(field, type=2, axes=(1, 2), norm="ortho")
        hat /= self._lam[None, :, :]
        out = sfft.idctn(hat, type=2, axes=(1, 2), norm="ortho")
        return out.reshape(-1, self.cells)


class StructuredGridPDN:
    """The fast-Poisson engine behind :class:`~repro.pdn.grid.GridPDN`.

    Solves the *reduced* (mesh-node-only) system — source branches
    eliminated into diagonal conductances and RHS injections — then
    reconstructs the full MNA vector (EMF node voltages, branch
    currents) so solutions are packaged and physics-verified through
    exactly the same :func:`repro.pdn.mna.package_dc_solution` path as
    the factorized engine.

    Two modes, chosen by the presence of per-edge variation:

    * **uniform** — exact: DCT-diagonalized interior + rank-k Woodbury
      correction + one iterative-refinement round.
    * **pcg** — per-edge conductance scale maps break the structure;
      CG iterates on the true sparse operator with the uniform-mean
      structured solve as preconditioner.
    """

    def __init__(
        self,
        compiled: CompiledNetlist,
        design: MeshDesign,
        cg_tol: float = DEFAULT_TOL,
        cg_max_iter: int = DEFAULT_MAX_ITER,
    ) -> None:
        """The engine for the DC system of ``design`` whose stamp is
        ``compiled`` (the grid's full MNA netlist, or a reduced one);
        only the fields the design's key covers are read."""
        nx, ny = design.nx, design.ny
        self.compiled = compiled
        self.nx = nx
        self.ny = ny
        self.cells = nx * ny
        self.attach = design.attach_rows()
        if not self.attach.size:
            raise ConfigError("structured engine needs at least one source")
        self.g_src = 1.0 / design.source_values("output_resistance_ohm")
        _, self.ring_a, self.ring_b = design.ring_segments()
        self.g_ring = np.full(
            self.ring_a.size, 1.0 / (design.ring_bus_ohm or 1.0)
        )
        scale_x, scale_y = design.edge_scale_x, design.edge_scale_y
        self._scale_x = None if scale_x is None else scale_x.ravel()
        self._scale_y = None if scale_y is None else scale_y.ravel()
        self.mode = (
            "pcg" if self._scale_x is not None or self._scale_y is not None
            else "uniform"
        )
        self.cg_tol = cg_tol
        self.cg_max_iter = cg_max_iter

        # Conductance scale maps multiply *resistance*, so per-edge
        # conductance divides by them; the operator (and hence the CG
        # preconditioner) uses the mean per-axis conductance.
        gx = 1.0 / design.edge_resistance_x_ohm if nx > 1 else 0.0
        gy = 1.0 / design.edge_resistance_y_ohm if ny > 1 else 0.0
        gx_op = gx * float(np.mean(1.0 / self._scale_x)) if (
            self._scale_x is not None and self._scale_x.size
        ) else gx
        gy_op = gy * float(np.mean(1.0 / self._scale_y)) if (
            self._scale_y is not None and self._scale_y.size
        ) else gy
        self.gx = gx
        self.gy = gy
        self.op = FastPoissonOperator(nx, ny, gx_op, gy_op)

        # Woodbury columns of A = M + U C Uᵀ: the deflation column
        # (subtracting the τ·u₀u₀ᵀ shift back out), one per source
        # branch, one per ring segment.
        u = branch_columns(
            self.cells, True, self.attach, self.ring_a, self.ring_b
        )
        self._u = u
        self._c = np.concatenate(
            [[-self.op.deflation_tau], self.g_src, self.g_ring]
        )
        # Z = M⁻¹U: one batched transform pair, paid at construction.
        self._z = self.op.solve(u)
        self._t0 = u.T @ self._z  # UᵀM⁻¹U, shape (k, k)
        # Per-edge conductance fields for the stencil matvec (scalars
        # in uniform mode; (ny, nx−1)/(ny−1, nx) maps under variation).
        self._gx_edges: "float | np.ndarray" = (
            gx if self._scale_x is None
            else gx / self._scale_x.reshape(ny, nx - 1)
        )
        self._gy_edges: "float | np.ndarray" = (
            gy if self._scale_y is None
            else gy / self._scale_y.reshape(ny - 1, nx)
        )

    # -- reduced operator ---------------------------------------------------------

    def _matvec(self, v: np.ndarray, disabled: np.ndarray) -> np.ndarray:
        """``A_live @ v`` for columns ``(cells,)`` or ``(cells, k)``.

        Applied as a stencil on the (ny, nx) field — no sparse matrix
        is ever assembled, so refinement and CG iterations stay O(n²)
        with small constants at any mesh size.
        """
        single = v.ndim == 1
        field = np.ascontiguousarray(
            (v[None] if single else v.T)
        ).reshape(-1, self.ny, self.nx)
        out = np.zeros_like(field)
        dx = (field[:, :, :-1] - field[:, :, 1:]) * self._gx_edges
        out[:, :, :-1] += dx
        out[:, :, 1:] -= dx
        dy = (field[:, :-1, :] - field[:, 1:, :]) * self._gy_edges
        out[:, :-1, :] += dy
        out[:, 1:, :] -= dy
        flat = out.reshape(-1, self.cells)
        vf = field.reshape(-1, self.cells)
        batch = np.arange(flat.shape[0])[:, None]
        if self.ring_a.size:
            drop = (vf[:, self.ring_a] - vf[:, self.ring_b]) * self.g_ring
            np.add.at(flat, (batch, self.ring_a[None, :]), drop)
            np.add.at(flat, (batch, self.ring_b[None, :]), -drop)
        live = np.ones(self.attach.size, dtype=bool)
        live[disabled] = False
        rows = self.attach[live]
        np.add.at(
            flat, (batch, rows[None, :]), self.g_src[live] * vf[:, rows]
        )
        return flat[0] if single else flat.T

    # -- Woodbury correction -------------------------------------------------------

    def _live_columns(self, disabled: np.ndarray) -> np.ndarray:
        live = np.ones(self._c.size, dtype=bool)
        live[1 + disabled] = False
        return np.nonzero(live)[0]

    def _u_transpose_dot(self, y: np.ndarray) -> np.ndarray:
        """``Uᵀ y`` from the column structure — the deflation row is a
        scaled sum, sources are gathers, ring segments differences —
        never a dense (cells × k) product."""
        head = y.sum(axis=0, keepdims=True) / np.sqrt(self.cells)
        return np.concatenate(
            [head, y[self.attach], y[self.ring_a] - y[self.ring_b]],
            axis=0,
        )

    def _correct(self, y: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Apply the Woodbury identity to ``y = M⁻¹ b``.

        ``x = y − Z_c (C_c⁻¹ + UᵀZ|_c)⁻¹ U_cᵀ y`` over the live column
        subset ``columns``.
        """
        z = self._z[:, columns]
        s = self._t0[np.ix_(columns, columns)] + np.diag(
            1.0 / self._c[columns]
        )
        rhs = self._u_transpose_dot(y)[columns]
        with np.errstate(all="ignore"):
            try:
                coeff = np.linalg.solve(s, rhs)
            except np.linalg.LinAlgError as exc:
                raise StructuredSolveError(
                    f"structured correction is singular: {exc}"
                ) from exc
        return y - z @ coeff

    def _uniform_solve(
        self, b: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        """Exact structured solve of the uniform-mean system."""
        return self._correct(self.op.solve(b), columns)

    # -- reduced solves --------------------------------------------------------------

    def solve_reduced(
        self, b: np.ndarray, disabled: np.ndarray | None = None
    ) -> np.ndarray:
        """Mesh node voltages for reduced RHS columns.

        ``b`` is ``(cells,)`` or ``(cells, k)``; ``disabled`` indexes
        open-circuited sources (their conductance column is dropped).

        Raises:
            StructuredSolveError: CG stall (pcg mode) or a singular
                correction — auto-mode callers fall back to sparse LU.
        """
        disabled = (
            np.empty(0, dtype=np.int64)
            if disabled is None
            else np.asarray(disabled, dtype=np.int64)
        )
        columns = self._live_columns(disabled)
        if self.mode == "uniform":
            x = self._uniform_solve(b, columns)
            # One refinement round on the true operator tightens the
            # correction to ~1e-13 relative for one extra transform.
            residual = b - self._matvec(x, disabled)
            x = x + self._uniform_solve(residual, columns)
        else:
            result = pcg_solve(
                lambda v: self._matvec(v, disabled),
                b,
                preconditioner=lambda r: self._uniform_solve(r, columns),
                tol=self.cg_tol,
                max_iter=self.cg_max_iter,
            )
            if not result.converged:
                raise StructuredSolveError(
                    "preconditioned CG stalled at relative residual "
                    f"{result.residual_norm:.3e} after "
                    f"{result.iterations} iterations"
                )
            x = result.x
        if not np.all(np.isfinite(x)):
            raise StructuredSolveError(
                "structured solve produced non-finite values"
            )
        return x

    # -- full MNA solutions ----------------------------------------------------------

    def _scenario_values(
        self, cs_amp: np.ndarray, vs_volt: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        amp = np.asarray(cs_amp, dtype=float).ravel()
        volt = np.asarray(vs_volt, dtype=float).ravel()
        if amp.size != self.cells:
            raise SolverError(
                f"expected {self.cells} load currents, got {amp.size}"
            )
        if volt.size != self.attach.size:
            raise SolverError(
                f"expected {self.attach.size} source voltages, "
                f"got {volt.size}"
            )
        if np.any(amp < 0):
            raise SolverError("load currents must be non-negative")
        return amp, volt

    def _reduced_rhs(
        self, amp: np.ndarray, volt: np.ndarray, disabled: np.ndarray
    ) -> np.ndarray:
        b = -amp.astype(float, copy=True)
        live = np.ones(self.attach.size, dtype=bool)
        live[disabled] = False
        np.add.at(
            b, self.attach[live], self.g_src[live] * volt[live]
        )
        return b

    def _package(
        self,
        v: np.ndarray,
        amp: np.ndarray,
        volt: np.ndarray,
        disabled: np.ndarray,
        check: bool,
    ) -> DCSolution:
        """Rebuild the full MNA vector and package it.

        EMF node voltages are exact (``V_j`` when live; the attach
        node's potential when open-circuited — no drop across a dead
        output resistor), and branch currents follow Ohm's law through
        each output resistance.
        """
        v_attach = v[self.attach]
        i_src = self.g_src * (volt - v_attach)
        v_emf = volt.copy()
        if disabled.size:
            i_src[disabled] = 0.0
            v_emf[disabled] = v_attach[disabled]
        x = np.concatenate([v, v_emf, -i_src])
        return package_dc_solution(
            self.compiled,
            x,
            amp,
            volt,
            1.0 / self.compiled.res_ohm,
            check,
            disabled if disabled.size else None,
        )

    def solve(
        self,
        cs_amp: np.ndarray,
        vs_volt: np.ndarray,
        check: bool = True,
    ) -> DCSolution:
        """Solve one operating point with every source live."""
        amp, volt = self._scenario_values(cs_amp, vs_volt)
        none = np.empty(0, dtype=np.int64)
        v = self.solve_reduced(self._reduced_rhs(amp, volt, none), none)
        return self._package(v, amp, volt, none, check)

    def solve_many(
        self,
        cs_amp_matrix: np.ndarray,
        vs_volt: np.ndarray,
        check: bool = True,
    ) -> list[DCSolution]:
        """Solve a stack of sink scenarios, shape ``(k, cells)`` or a
        list of flattened maps, through one batched transform pair."""
        stack = np.atleast_2d(np.asarray(cs_amp_matrix, dtype=float))
        volt = np.asarray(vs_volt, dtype=float).ravel()
        scenarios = [
            self._scenario_values(row, volt)[0] for row in stack
        ]
        none = np.empty(0, dtype=np.int64)
        b = np.column_stack(
            [self._reduced_rhs(amp, volt, none) for amp in scenarios]
        )
        v = self.solve_reduced(b, none)
        return [
            self._package(v[:, i], amp, volt, none, check)
            for i, amp in enumerate(scenarios)
        ]

    def solve_disabled_many(
        self,
        scenarios: "list | tuple",
        cs_amp: np.ndarray,
        vs_volt: np.ndarray,
        check: bool = True,
    ) -> list[DCSolution]:
        """A whole failure sweep on shared transforms.

        Every scenario reuses the memoized influence columns ``Z``;
        per scenario the extra cost is one k×k solve plus the
        refinement transform pair.
        """
        amp, volt = self._scenario_values(cs_amp, vs_volt)
        solutions: list[DCSolution] = []
        for scenario in scenarios:
            disabled = np.unique(np.asarray(scenario, dtype=np.int64))
            if disabled.size and (
                disabled.min() < 0 or disabled.max() >= self.attach.size
            ):
                raise SolverError("disable_sources index out of range")
            if disabled.size >= self.attach.size:
                raise SolverError("cannot disable every source")
            b = self._reduced_rhs(amp, volt, disabled)
            v = self.solve_reduced(b, disabled)
            solutions.append(self._package(v, amp, volt, disabled, check))
        return solutions
