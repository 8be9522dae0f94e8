"""Structure-exploiting fast-Poisson solver for uniform-mesh PDNs.

The nodal DC operator of :class:`~repro.pdn.grid.GridPDN`
(:func:`repro.pdn.grid.dc_stamp`) is a near-Poisson Laplacian: a
uniform ``nx × ny`` rectangular mesh whose x/y edge conductances are
constant, plus a handful of irregularities — VR output shunts (each
regulator is an ``r_out`` to ground, its EMF a Norton injection on the
right-hand side) and ring-bus segments.  This module solves that
system in O(n² log n) instead of sparse-LU time by diagonalizing the
uniform interior with fast trigonometric transforms and handling
everything that breaks pure structure as a small correction:

* The free (Neumann) mesh Laplacian ``G = gx·(I ⊗ Lx) + gy·(Ly ⊗ I)``
  is diagonalized exactly by the orthonormal **DCT-II** along each
  axis (see :func:`poisson_mode_eigenvalues`).  One 2-D transform pair
  per solve, trivially batched over right-hand-side columns.
* ``G`` alone is singular (the constant mode); the zero eigenvalue is
  deflated by a rank-1 shift ``τ·u₀u₀ᵀ`` that is subtracted back out
  through the same correction that carries the source branches.
* Source output shunts, ring-bus segments (which join attach nodes)
  and per-node shunt deviations touch a small node set T; with the
  deflation column they enter as a rank-``(1 + |T|)`` Woodbury
  correction ``A = M + U C Uᵀ``, ``U = [u₀ | E_T]``, on the fast
  operator ``M`` — the same identity
  :meth:`repro.pdn.mna.FactorizedPDN.solve_modified_many` uses on the
  cached LU, here with ``M⁻¹`` a transform pair instead of a
  back-substitution.

Per-edge metal variation (:meth:`~repro.pdn.mesh.MeshDesign.with_edge_scales`)
makes the interior genuinely non-uniform; no fixed transform
diagonalizes it, so such designs solve on the exact nodal LU and
:class:`StructuredGridPDN` rejects them.

:class:`StructuredOperator` is that one real kernel; the structured DC
engine (:class:`StructuredGridPDN`, N−k sweeps included) and both
structured transient stamps of :mod:`repro.pdn.grid_transient` run on
it.  A batch of right-hand sides costs one transform pair and one
``coeff @ Zᵀ`` GEMM per Woodbury apply, with ``S = I + C·UᵀZ``
factored once; a deflated (zero-shift) operator first shifts each
right-hand side by its net current, so one apply is the whole solve.
A scenario with disabled sources (open-circuited regulators) solves
its coefficients on its own small ``S``, so a whole N−k sweep, whose
scenarios share one sink map, takes one transform pair and shares the
stored influence rows ``Zᵀ``; those rows come from one periodic
Green's function by the method of images, not one transform each.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft
from scipy.linalg import lu_factor, lu_solve

from ..errors import ConfigError, SolverError
from .mesh import MeshDesign

#: The structured engines carry shunt-map non-uniformity (per-node
#: decap deviations from the most common value) as Woodbury columns;
#: past this many deviating nodes the correction stops being
#: "low-rank" and the sparse LU wins.
MAX_STRUCTURED_DECAP_DEVIATIONS = 64


class StructuredSolveError(SolverError):
    """The structured engine cannot solve this system accurately.

    Raised on a singular or non-finite Woodbury correction, or on more
    shunt deviations than the correction budget; callers running with
    ``engine="auto"`` catch it and fall back to the factorized (sparse
    LU) path.
    """


def poisson_mode_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues of the 1-D unit-weight free-ended path Laplacian.

    The free-ended chain is the PDN mesh (no connection past the die
    edge), diagonalized by the DCT-II basis with eigenvalues
    ``2(1 − cos(πk/n))``, ``k = 0..n−1`` — including the zero mode.
    """
    if n < 1:
        raise ConfigError("mode count needs n >= 1")
    k = np.arange(n, dtype=float)
    return 2.0 * (1.0 - np.cos(np.pi * k / n))


def dct2_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II basis matrix ``B[k, j]``.

    Row ``k`` is the k-th eigenvector of the free path Laplacian;
    ``B @ B.T = I``.  A dense reference for the transforms, which go
    through ``scipy.fft``.
    """
    j = np.arange(n, dtype=float)
    basis = np.cos(
        np.pi * np.arange(n, dtype=float)[:, None] * (2.0 * j[None, :] + 1.0)
        / (2.0 * n)
    )
    basis *= np.sqrt(2.0 / n)
    basis[0] *= np.sqrt(0.5)
    return basis


def touched_coupling(
    rows: np.ndarray, g: np.ndarray, ring_a: np.ndarray, ring_b: np.ndarray,
    g_ring: np.ndarray, lead: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The touched-node set T of shunts ``g`` at ``rows`` (repeats
    allowed) and of ring segments ``ring_a[t] — ring_b[t]``, which join
    shunt rows.  Returns T (sorted), the column of ``U = [lead
    columns | E_T]`` at each row, and the coupling ``C_T`` on those
    columns, a dense square: the shunts summed per node on its
    diagonal plus the ring Laplacian."""
    touched, inverse = np.unique(rows, return_inverse=True)
    slots = lead + inverse
    a, b = lead + np.searchsorted(touched, (ring_a, ring_b))
    entries = (np.r_[slots, a, b, a, b], np.r_[slots, a, b, b, a])
    c = np.zeros((lead + touched.size,) * 2)
    np.add.at(c, entries, np.r_[g, g_ring, g_ring, -g_ring, -g_ring])
    return touched, slots, c


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
        self.shift = shift
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
        if arr.shape[0] != self.cells:
            raise ConfigError(
                f"rhs must have {self.cells} rows, got {arr.shape[0]}"
            )
        rows = self.solve_rows(arr.reshape(self.cells, -1).T)
        return rows.T.reshape(arr.shape)

    def solve_rows(self, rhs: np.ndarray) -> np.ndarray:
        """``(M⁻¹ @ rhsᵀ)ᵀ`` for a C-contiguous row stack ``(k, cells)``.

        The zero-copy layout for hot loops: each row views directly as
        a ``(ny, nx)`` field, so — unlike :meth:`solve` — no transpose
        copies bracket the DCT pair.
        """
        arr = np.ascontiguousarray(rhs, np.result_type(rhs, self._lam))
        if arr.ndim != 2 or arr.shape[1] != self.cells:
            raise ConfigError(
                f"row rhs must be (k, {self.cells}), got {arr.shape}"
            )
        field = arr.reshape(-1, self.ny, self.nx)
        hat = sfft.dctn(field, type=2, axes=(1, 2), norm="ortho")
        hat /= self._lam[None, :, :]
        out = sfft.idctn(hat, type=2, axes=(1, 2), norm="ortho")
        return out.reshape(-1, self.cells)

    def green(self, shifts: complex | np.ndarray = 0.0) -> np.ndarray:
        """The periodic Green's function of the mirror-doubled mesh for
        ``M + s·I``: one ``(py, px)`` period per shift ``s`` of
        ``shifts`` (a scalar or a stack, possibly complex), shaped
        ``shifts.shape + (py, px)``, with ``py = 2·ny`` (1 for one node
        along y) and ``px`` likewise.

        The free-ended mesh Laplacian is the periodic Laplacian of the
        mirror-doubled ``(2ny × 2nx)`` mesh restricted to
        mirror-symmetric fields (the even extension behind the
        DCT-II); ``τ·u₀u₀ᵀ`` and ``s·I`` restrict the same way, as the
        even extension of a uniform field is uniform.  The doubled
        spectrum is even about 0 and about n on each axis, so one
        period is an unnormalized type-I inverse DCT of ``1/λ`` on the
        ``(ny + 1) × (nx + 1)`` quarter spectrum (``λ[0, 0] = τ + s``
        when deflated), mirrored.  An axis with one node has period 1
        and no mirror: doubling it would add a mode of eigenvalue 0.
        """

        def quarter(n: int, g: float) -> np.ndarray:
            if n == 1:
                return np.zeros(1)
            return g * 2.0 * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))

        ny, nx = self.ny, self.nx
        lam = quarter(ny, self.gy)[:, None] + quarter(nx, self.gx) + self.shift
        if self.deflation_tau is not None:
            lam[0, 0] = self.deflation_tau
        shifts = np.asarray(shifts)
        axes = [axis for axis, n in ((-2, ny), (-1, nx)) if n > 1]
        half = sfft.idctn(
            1.0 / (lam + shifts[..., None, None]), type=1, axes=axes,
            overwrite_x=True,
        )
        hy, hx = half.shape[-2:]
        green = np.empty(
            shifts.shape + (2 * ny if ny > 1 else 1, 2 * nx if nx > 1 else 1),
            half.dtype,
        )
        green[..., :hy, :hx] = half
        green[..., :hy, hx:] = half[..., hx - 2 : 0 : -1]
        green[..., hy:, :] = green[..., hy - 2 : 0 : -1, :]
        return green

    def green_rows(
        self, rows: np.ndarray, out: np.ndarray, green: np.ndarray
    ) -> np.ndarray:
        """``(M + s·I)⁻¹e_r`` for each mesh row ``r`` of ``rows``
        (repeats allowed), written into the ``(ny, nx)`` fields
        ``out[..., i, :, :]``, from the periods ``green`` of
        :meth:`green` (one leading axis entry per shift) by the method
        of images: ``e_r`` and its three mirror images, four shifted
        copies of ``G`` cut to the mesh.
        """
        # Sum the two images along y once per distinct row of the mesh
        # (a bank's sources share rows), then along x per touched node.
        iy, ix = np.divmod(np.asarray(rows), self.nx)
        fold = np.empty(
            green.shape[:-2] + (self.ny, green.shape[-1]), green.dtype
        )
        last = None
        for i in np.argsort(iy, kind="stable").tolist():
            if iy[i] != last:
                last = iy[i]
                _image_sum(green, int(last), self.ny, fold)
            _image_sum(
                fold.swapaxes(-1, -2), int(ix[i]), self.nx,
                out[..., i, :, :].swapaxes(-1, -2),
            )
        return out

    def green_diagonal(self, green: np.ndarray) -> np.ndarray:
        """``diag((M + s·I)⁻¹)`` as ``(..., ny, nx)`` fields from the
        periods ``green`` of :meth:`green`: each node seen from itself
        and its mirror images, ``G[0] + G[2j + 1]`` at position ``j``
        along each doubled axis."""

        def own(g: np.ndarray, n: int) -> np.ndarray:
            """Along axis −2; a period-1 axis has no mirror."""
            if n == 1:
                return g
            return g[..., :1, :] + g[..., 1 : 2 * n : 2, :]

        fold = own(green, self.ny).swapaxes(-1, -2)
        return own(fold, self.nx).swapaxes(-1, -2)


def _image_sum(
    g: np.ndarray, k: int, n: int, out: np.ndarray
) -> np.ndarray:
    """``out[j] = g[|j − k|] + g[j + k + 1]`` for ``j < n``, along axis
    −2 under any leading axes: a Green's function ``g`` of period
    ``2n``, even, seen from a source at ``k`` and from its mirror
    image at ``2n − 1 − k``.  By evenness each image is two plain
    slices of ``g``, with no wrap.  A period-1 ``g`` (an axis of one
    node, no mirror) is copied."""
    if g.shape[-2] == 1:
        out[...] = g
        return out
    np.add(
        g[..., k:0:-1, :], g[..., k + 1 : 2 * k + 1, :], out=out[..., :k, :]
    )
    np.add(
        g[..., : n - k, :], g[..., 2 * k + 1 : n + k + 1, :],
        out=out[..., k:, :],
    )
    return out


def _finite(x: np.ndarray) -> np.ndarray:
    """``x``, once every entry is finite."""
    if not np.all(np.isfinite(x)):
        raise StructuredSolveError(
            "structured solve produced non-finite values"
        )
    return x


class StructuredOperator:
    """``A = stencil(gx, gy) + diag(g_node) + Σ g_src·e·eᵀ + ring``.

    The real structured kernel under the DC, N−k and transient solves.
    ``A`` is split as ``M + U C Uᵀ``: ``M`` is
    :class:`FastPoissonOperator` on the axis conductances, shifted
    by the most common ``g_node`` value; ``U = [u₀ | E_T]`` holds the
    deflation column (zero shift only) and one unit column per touched
    node (deviating shunt rows and attach nodes, each once), so
    ``rank`` is ``1 + |T|``; ``C = blockdiag(−τ, C_T)``
    (:func:`touched_coupling`).  ``Zᵀ = (M⁻¹U)ᵀ`` is stored once, its
    rows built from one periodic Green's function by the method of
    images (:meth:`FastPoissonOperator.green_rows`), and
    ``S = I + C·UᵀZ`` (no ``C⁻¹``: a dead source can leave ``C_T``
    singular) is LU-factored once.

    Everything works in row layout: a right-hand-side stack is
    ``(m, cells)``, so each row views as an ``(ny, nx)`` field.

    ``live`` — an ``(m, sources)`` boolean mask, one row per
    right-hand side, ``None`` for every source live — open-circuits
    sources: a dead source's ``g_src`` leaves ``C``'s diagonal, so a
    row with dead sources solves on its own ``S`` (the shunt-free
    ``S₀`` plus its live shunts) and ``Z`` is never sliced.

    Raises:
        StructuredSolveError: more deviating shunt rows than the
            correction budget, or a singular or non-finite ``S``.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        gx: float,
        gy: float,
        g_node: np.ndarray,
        attach: np.ndarray,
        g_src: np.ndarray,
        ring_a: np.ndarray,
        ring_b: np.ndarray,
        g_ring: np.ndarray,
    ) -> None:
        cells = nx * ny
        values, counts = np.unique(g_node, return_counts=True)
        base = float(values[int(np.argmax(counts))])
        dev_rows = np.nonzero(g_node != base)[0]
        limit = min(MAX_STRUCTURED_DECAP_DEVIATIONS, max(1, cells // 4))
        if dev_rows.size > limit:
            raise StructuredSolveError(
                f"{dev_rows.size} decap-map deviations exceed the "
                f"rank-{limit} correction budget"
            )
        self.nx, self.ny, self.cells = nx, ny, cells
        self.g_src, self._dev_g = g_src, g_node[dev_rows] - base
        self.poisson = FastPoissonOperator(nx, ny, gx, gy, shift=base)
        tau = self.poisson.deflation_tau
        self.deflated = tau is not None
        lead = int(self.deflated)
        rows = np.concatenate([dev_rows, attach])
        self._rows, slots, self._c = touched_coupling(
            rows, np.concatenate([self._dev_g, g_src]),
            ring_a, ring_b, g_ring, lead,
        )
        # The coupling without shunts (ring edges, deflation): a row
        # with dead sources adds its own shunts (:meth:`_shunts`) to it.
        _, _, self._c0 = touched_coupling(
            rows, np.zeros(rows.size), ring_a, ring_b, g_ring, lead
        )
        self._dev_slots = slots[: dev_rows.size]
        self._src_slots = slots[dev_rows.size :]
        self.rank = len(self._c)
        self._zt = np.empty((self.rank, cells))
        if self.deflated:
            self._c[0, 0] = self._c0[0, 0] = -tau
            self._zt[0] = 1.0 / (tau * np.sqrt(cells))
        self.poisson.green_rows(
            self._rows, self._zt[lead:].reshape(-1, ny, nx),
            self.poisson.green(),
        )
        self._p = self._gather(self._zt).T  # UᵀZ
        self._s = np.eye(self.rank) + self._c @ self._p
        self._s0 = np.eye(self.rank) + self._c0 @ self._p
        if not np.all(np.isfinite(self._s)):
            raise StructuredSolveError("structured correction is non-finite")
        self._s_lu = lu_factor(self._s, check_finite=False)
        if not np.all(np.diagonal(self._s_lu[0])):
            raise StructuredSolveError("structured correction is singular")

    def _gather(self, y: np.ndarray) -> np.ndarray:
        """``(Uᵀ yᵀ)ᵀ`` for rows ``(m, cells)``: a scaled row sum and
        gathers — never a dense ``U`` product."""
        w = y[:, self._rows]
        if self.deflated:
            w = np.c_[y.sum(axis=1) / np.sqrt(self.cells), w]
        return w

    def _shunts(self, live: np.ndarray | None, m: int) -> np.ndarray:
        """Each touched node's shunt to ground on its column of ``U``,
        one row per right-hand side: its shunt deviation plus its live
        sources' ``g_src`` (0 on the deflation column).  Under a deflated
        operator this is ``A·1`` on T, and ``A·1`` is 0 off T: mesh and
        ring edges carry no current under a uniform potential."""
        shunts = np.zeros((m, self.rank))
        shunts[:, self._dev_slots] = self._dev_g
        g_src = self.g_src if live is None else live * self.g_src
        np.add.at(shunts, (slice(None), self._src_slots), g_src)
        return shunts

    def apply(self, b: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
        """``((M + U C Uᵀ)⁻¹ bᵀ)ᵀ`` for rows ``(m, cells)``: one transform
        pair, the coefficients ``S⁻¹(C·w)`` of ``w = Uᵀy`` and one
        ``coeff @ Zᵀ`` GEMM."""
        return self._correct(self.poisson.solve_rows(b), 0.0, live)

    def _correct(
        self, y: np.ndarray, r: np.ndarray | float, live: np.ndarray | None
    ) -> np.ndarray:
        """``y − Z·S⁻¹(C·Uᵀy − r)``, in ``y``'s buffer: for ``y = M⁻¹b``
        the rows of ``A⁻¹(b + U·r)``, as ``A⁻¹U = Z·S⁻¹``.  ``r`` is 0
        or an ``(m, rank)`` stack of currents on ``U``'s columns, which
        reach the solution without a transform."""
        w = self._gather(y)
        rhs = w @ self._c - r  # (C wᵀ)ᵀ − r: C is symmetric
        with np.errstate(all="ignore"):
            coeff = lu_solve(self._s_lu, rhs.T, check_finite=False).T
            if live is not None and not live.all():
                part = ~live.all(axis=1)
                coeff[part] = self._open_circuit(
                    w[part], np.broadcast_to(r, w.shape)[part], live[part]
                )
        y -= coeff @ self._zt
        return y

    def _open_circuit(
        self, w: np.ndarray, r: np.ndarray, live: np.ndarray
    ) -> np.ndarray:
        """Woodbury coefficients of rows with dead sources: only the
        live sources' ``g_src`` sit on ``C``'s diagonal, so each row's
        ``S = I + C·UᵀZ`` and ``C·w`` are the shunt-free ``S₀`` and
        ``C₀·w`` plus its own shunts.  Built up, never by subtracting a
        dead ``g_src``: that leaves a rounding residue of ``ε·g_src`` on
        a node whose ring edges may be a million times weaker."""
        shunts = self._shunts(live, len(w))
        s = self._s0 + shunts[:, :, None] * self._p
        rhs = w @ self._c0 + shunts * w - r
        try:
            return np.linalg.solve(s, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise StructuredSolveError(
                f"structured correction is singular: {exc}"
            ) from exc

    def solve(self, b: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
        """``(A⁻¹ bᵀ)ᵀ`` for rows ``(m, cells)``: one Woodbury apply.

        A shifted operator is diagonally dominant enough that the plain
        :meth:`apply` lands at ~1e-13 relative.  A deflated (zero-shift)
        one splits each row into its currents off the touched nodes,
        ``b_off``, and on them, ``b_T``, and shifts each part by its net
        current.  With ``a = A·1`` (the row's touched-node shunts, see
        :meth:`_shunts`), ``a_ref`` the same with every source live,
        ``c_off = Σb_off / Σa``, ``c_ref = Σb_off / Σa_ref`` and
        ``c_T = Σb_T / Σa``,

            ``x = c_off + c_T + A⁻¹(b_off − c_ref·a_ref)
            + A⁻¹(b_T − c_T·a + c_ref·a_ref − c_off·a)``.

        The first inverse takes the transform pair and the second, whose
        currents sit on the touched nodes, goes straight into the
        Woodbury coefficients (:meth:`_correct`); with every source live
        ``a`` is ``a_ref`` and its last two terms cancel exactly.
        Neither part carries net current, so nothing passes through the
        deflated constant mode, and a bank's Norton injections (48 ×
        ``g_src·V`` ≈ 3×10⁵ A on the paper's banks) never pass through
        ``M⁻¹``: both would cancel against the correction and cost
        digits.  As ``a_ref`` does not depend on the row, rows whose
        currents off the touched nodes are equal (an N−k sweep's shared
        sink map) share one transform pair.

        Raises:
            StructuredSolveError: a row with no live shunt (``Σa = 0``:
                the system floats), or a singular or non-finite
                correction.
        """
        if not self.deflated:
            return _finite(self.apply(b, live))
        a_ref = self._shunts(None, 1)
        total_ref = a_ref.sum(axis=1, keepdims=True)
        a = a_ref if live is None else self._shunts(live, len(b))
        total = total_ref if live is None else a.sum(axis=1, keepdims=True)
        if not np.all(total):
            raise StructuredSolveError(
                "structured correction is singular: a right-hand side "
                "has no live shunt to ground"
            )
        b_t = np.zeros((len(b), self.rank))
        b_t[:, 1:] = b[:, self._rows]
        b_off = b.astype(np.result_type(b, a))
        b_off[:, self._rows] = 0.0
        net = b_off.sum(axis=1, keepdims=True)
        c_ref, c_off = net / total_ref, net / total
        c_t = b_t.sum(axis=1, keepdims=True) / total
        b_off[:, self._rows] = -c_ref * a_ref[:, 1:]
        r = b_t - c_t * a
        if live is not None:
            r += c_ref * a_ref - c_off * a
        # Rows equal off the touched nodes take one transform pair; the
        # net currents are compared first, a cheap test distinct loads
        # fail.
        one = len(b) > 1 and np.all(net == net[0]) and np.all(b_off == b_off[0])
        y = self.poisson.solve_rows(b_off[:1] if one else b_off)
        if one:
            y = np.repeat(y, len(b), axis=0)
        x = self._correct(y, r, live)
        x += c_off + c_t
        return _finite(x)


class StructuredGridPDN:
    """The fast-Poisson engine behind :class:`~repro.pdn.grid.GridPDN`.

    Solves the nodal DC system of a design (:func:`repro.pdn.grid.dc_stamp`:
    each source an ``r_out`` shunt plus a Norton injection) on one
    exact :class:`StructuredOperator` and returns node voltages;
    :class:`~repro.pdn.grid.GridPDN` builds the right-hand sides and
    packages the solutions for both DC engines.  Uniform metal only:
    a design with per-edge resistance scales solves on the nodal LU.
    """

    def __init__(self, design: MeshDesign) -> None:
        """The engine for the DC system of ``design``; only the fields
        the design's key covers are read.

        Raises:
            ConfigError: no source attached, or per-edge resistance
                scales (``edge_scale_x``/``edge_scale_y``), which no
                fixed transform diagonalizes.
        """
        nx, ny = design.nx, design.ny
        attach = design.attach_rows()
        if not attach.size:
            raise ConfigError("structured engine needs at least one source")
        if design.has_edge_scales:
            raise ConfigError(
                "structured engine solves uniform metal only; this design "
                "carries per-edge resistance scales (edge_scale_x/"
                "edge_scale_y), use engine='factorized' or 'auto'"
            )
        _, ring_a, ring_b = design.ring_segments()
        self.op = StructuredOperator(
            nx,
            ny,
            1.0 / design.edge_resistance_x_ohm if nx > 1 else 0.0,
            1.0 / design.edge_resistance_y_ohm if ny > 1 else 0.0,
            np.zeros(nx * ny),
            attach,
            1.0 / design.source_values("output_resistance_ohm"),
            ring_a,
            ring_b,
            np.full(ring_a.size, 1.0 / (design.ring_bus_ohm or 1.0)),
        )

    def solve_reduced(
        self, b: np.ndarray, live: np.ndarray | None = None
    ) -> np.ndarray:
        """Mesh node voltages for reduced right-hand-side rows, one
        batched :meth:`StructuredOperator.solve`.

        ``b`` is ``(m, cells)``; ``live`` is the ``(m, sources)``
        live-source mask of each row (``None``: every source live).

        Raises:
            StructuredSolveError: a singular or non-finite correction —
                auto-mode callers fall back to sparse LU.
        """
        return self.op.solve(b, live)
