"""Spatially-resolved decap allocation and VR-site placement.

:meth:`~repro.pdn.grid.GridACPDN.impedance_map` exposes per-node
Z(f) and ``violating_node_fraction``, but the sizing search
(:func:`~repro.pdn.impedance.size_grid_decap_for_target`) is spatially
uniform — every ``scale_decap`` doubling spends capacitance on nodes
that already meet target.  This module closes ROADMAP item 1: keep the
*total* capacitance fixed and move it toward the violating nodes.

Three cooperating mechanisms under one entry point,
:func:`optimize_decap_placement`:

* **Greedy worst-node allocation** — each iteration moves a fraction
  of the donatable density (nodes under target, above the floor) onto
  the violating nodes, weighted by how far each node is over target,
  with backtracking halving of the move size.  A step is accepted only
  if it lowers the violating-node fraction — or ties it while strictly
  lowering the global peak — so the recorded
  ``violating_fraction_history`` is monotonically non-increasing by
  construction.
* **Adjoint/gradient refinement** — the reduced system
  ``A(ω) = G + Σ αᵢ·y_u(ω)·eᵢeᵢᵀ + (sources)`` is complex-symmetric,
  so with ``x = A⁻¹e_k`` the exact sensitivity of node *k*'s impedance
  to *every* node's density is one batched solve:
  ``dZ_k/dαᵢ = −y_u(ω)·xᵢ²`` and ``d|Z_k|/dαᵢ = Re(Z̄_k/|Z_k| ·
  dZ_k/dαᵢ)``.  :meth:`~repro.pdn.grid.GridACPDN.impedance_columns`
  returns those columns; a projected-gradient step (Euclidean
  projection onto ``{α ≥ floor, Σα = budget}`` by bisection) then
  polishes the greedy allocation below the resolution of discrete
  density moves.
* **Multi-resolution placement** — the coarse-to-fine grid-mapping
  idiom from SNIPPETS.md §2: optimize on a coarse density grid (a
  block-owner restriction of the mesh, sources snapped to their
  nearest coarse node), prolong the coarse allocation back
  total-capacitance-preservingly, and polish on the fine mesh.  The
  coarse pass costs a fraction of a fine evaluation and lands the
  fine pass near the answer.

The optimizer never leaves the grid mutated: it saves the grid's
:class:`~repro.pdn.mesh.MeshDesign` (a frozen value) and assigns it
back in a ``finally``; apply the result explicitly with
:meth:`PlacementResult.apply_to`.

:func:`select_vr_sites` is the companion placement axis: greedy
forward selection of VR sites from an attached candidate bank, each
round scoring every remaining candidate by open-circuiting the
others — batched Woodbury scenarios through
:meth:`~repro.pdn.grid.GridPDN.solve_disabled_many`, sharded across
workers by :mod:`repro.parallel` with the candidate bank's design as
the pickled payload.

See ``docs/placement-optimizer.md`` for the full algorithm notes and
CLI usage (``repro place``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, require_count
from ..parallel.executor import run_sweep_collect
from ..parallel.scenario import Scenario, SweepPlan
from .grid import GridACPDN, GridPDN
from .mesh import DecapDensity, MeshDesign, require_finite

__all__ = [
    "PlacementResult",
    "VRSiteSelection",
    "optimize_decap_placement",
    "prolong_density",
    "restrict_density",
    "select_vr_sites",
    "size_decap_placement_for_target",
]

#: Default evaluation band: 10 kHz .. 1 GHz, 12 points/decade — wide
#: enough to span the board-like plateau and the mesh anti-resonance.
DEFAULT_PLACEMENT_POINTS = 61

#: Per-node density floor as a fraction of the *mean* budget density.
#: Strictly positive so every node keeps a sliver of decap, while
#: leaving ~98% of the budget free to move.  A design rule only: the
#: impedance engines handle bare nodes.
DEFAULT_FLOOR_FRACTION = 0.02

DEFAULT_MAX_ITERATIONS = 16
DEFAULT_GRADIENT_STEPS = 8

#: Initial greedy move size, as a fraction of the total donatable
#: headroom; halved on rejection.
INITIAL_MOVE_FRACTION = 0.5

#: Backtracking halvings per greedy/gradient iteration before giving up.
MAX_BACKTRACKS = 4

#: "auto" multi-resolution kicks in at meshes this large: below it the
#: fine evaluations are cheap enough that the coarse pass isn't worth
#: its own iterations.
MULTIRES_MIN_CELLS = 144

#: Violating-node peaks within this relative tolerance of the target
#: count as met — the same rounding slack GridImpedanceMap uses.
TARGET_RTOL = 1e-12


def _default_frequencies() -> np.ndarray:
    return np.logspace(4, 9, DEFAULT_PLACEMENT_POINTS)


# -- coarse-to-fine grid mapping (SNIPPETS.md §2 idiom) ------------------------


def _owner_map(
    fine_shape: tuple[int, int], coarse_shape: tuple[int, int]
) -> np.ndarray:
    """Flat coarse-cell owner of every fine node, shape ``(ny, nx)``.

    Each fine index is scaled into the coarse grid and truncated — the
    rad_gen mapped-grid idiom — so owners tile the mesh in contiguous
    blocks and every coarse cell owns at least one fine node whenever
    ``coarse <= fine`` per axis.
    """
    ny, nx = fine_shape
    cny, cnx = coarse_shape
    iy = np.minimum((np.arange(ny) * cny) // ny, cny - 1)
    ix = np.minimum((np.arange(nx) * cnx) // nx, cnx - 1)
    return iy[:, None] * cnx + ix[None, :]


def restrict_density(
    density: np.ndarray, coarse_shape: tuple[int, int]
) -> np.ndarray:
    """Sum a fine ``(ny, nx)`` density into coarse owner cells.

    Total-preserving: ``restrict(...)`` sums to the same unit count,
    so a capacitance budget survives the round trip exactly (up to
    float addition order).
    """
    density = np.asarray(density, dtype=float)
    owners = _owner_map(density.shape, coarse_shape)
    out = np.zeros(int(coarse_shape[0]) * int(coarse_shape[1]))
    np.add.at(out, owners.ravel(), density.ravel())
    return out.reshape(coarse_shape)


def prolong_density(
    density: np.ndarray, fine_shape: tuple[int, int]
) -> np.ndarray:
    """Spread a coarse density evenly over each cell's fine nodes.

    The adjoint of :func:`restrict_density` normalized by owner-block
    size: each fine node gets ``α_owner / |block|``, so
    ``restrict(prolong(a)) == a`` and totals are preserved.
    """
    density = np.asarray(density, dtype=float)
    owners = _owner_map(fine_shape, density.shape)
    counts = np.bincount(owners.ravel(), minlength=density.size)
    if np.any(counts == 0):
        raise ConfigError(
            "coarse shape must not exceed the fine mesh on either axis"
        )
    return (density.ravel() / counts)[owners]


def _default_coarse_shape(ny: int, nx: int) -> tuple[int, int]:
    """Half resolution per axis, floored at 2 (GridACPDN's minimum)."""
    return (max(2, (ny + 1) // 2), max(2, (nx + 1) // 2))


def _coarse_design(
    design: MeshDesign, coarse_shape: tuple[int, int]
) -> MeshDesign:
    """The same die at coarse mesh resolution, sources snapped.

    Sheet resistance is resolution-independent (the mesh converges to
    the same continuum), and per-edge inductance is rescaled by the
    edge-length ratio so the total metal loop stays comparable.
    Sources keep their voltage/rout/L and snap to the nearest coarse
    node; the ring bus is copied as-is.  Sinks and decap are not
    carried over.
    """
    cny, cnx = coarse_shape
    nx, ny = design.nx, design.ny
    scale_x = (nx - 1) / (cnx - 1) if cnx > 1 and nx > 1 else 1.0
    scale_y = (ny - 1) / (cny - 1) if cny > 1 and ny > 1 else 1.0

    def snap(index: int, fine: int, coarse_count: int) -> int:
        return min(
            int(round(index * (coarse_count - 1) / max(fine - 1, 1))),
            coarse_count - 1,
        )

    return MeshDesign(
        design.width_m,
        design.height_m,
        design.sheet_ohm_sq,
        nx=cnx,
        ny=cny,
        edge_inductance_x_h=design.edge_inductance_x_h * scale_x,
        edge_inductance_y_h=design.edge_inductance_y_h * scale_y,
        sources=tuple(
            replace(s, ix=snap(s.ix, nx, cnx), iy=snap(s.iy, ny, cny))
            for s in design.sources
        ),
        ring_bus_ohm=design.ring_bus_ohm,
    )


# -- budget projection ---------------------------------------------------------


def _project_budget(
    alpha: np.ndarray, floor: float, total: float
) -> np.ndarray:
    """Euclidean projection onto ``{α ≥ floor, Σα = total}``.

    Bisection on the shift λ of ``Σ max(α − λ, floor) = total`` (the
    shifted-simplex projection), then an exact budget touch-up spread
    over the unclamped entries.
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    n = alpha.size
    if floor * n > total * (1 + 1e-9):
        raise ConfigError(
            "density floor exceeds the capacitance budget; lower "
            "floor_fraction or raise the budget"
        )
    lo = float(alpha.min()) - total
    hi = float(alpha.max()) - floor
    if hi <= lo:
        return np.full(n, total / n)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.maximum(alpha - mid, floor).sum() > total:
            lo = mid
        else:
            hi = mid
    out = np.maximum(alpha - hi, floor)
    free = out > floor
    slack = total - out.sum()
    if np.any(free):
        out[free] += slack / np.count_nonzero(free)
    else:
        out += slack / n
    return out


# -- evaluation ----------------------------------------------------------------


class _Evaluation(NamedTuple):
    peaks: np.ndarray  # worst |Z| per node, (cells,)
    peak_freq_index: np.ndarray  # argmax sweep index per node, (cells,)
    violating_fraction: float
    peak_ohm: float


def _evaluate(
    pdn: GridACPDN,
    alpha: np.ndarray,
    unit: tuple[float, float, float],
    freqs: np.ndarray,
    target_ohm: float,
    method: str,
) -> _Evaluation:
    pdn.set_decap_density(alpha.reshape(pdn.ny, pdn.nx), *unit)
    imap = pdn.impedance_map(freqs, method=method)
    mags = np.abs(imap.z_ohm)
    peaks = mags.max(axis=1)
    tol = target_ohm * (1 + TARGET_RTOL)
    return _Evaluation(
        peaks=peaks,
        peak_freq_index=np.argmax(mags, axis=1),
        violating_fraction=float(
            np.count_nonzero(peaks > tol) / peaks.size
        ),
        peak_ohm=float(peaks.max()),
    )


def _better(candidate: _Evaluation, incumbent: _Evaluation) -> bool:
    """Lexicographic acceptance: fewer violating nodes, else same
    violating count with a strictly lower global peak."""
    if candidate.violating_fraction < incumbent.violating_fraction:
        return True
    return (
        candidate.violating_fraction == incumbent.violating_fraction
        and candidate.peak_ohm < incumbent.peak_ohm * (1 - 1e-12)
    )


# -- greedy + gradient steps ---------------------------------------------------


def _greedy_proposal(
    alpha: np.ndarray,
    peaks: np.ndarray,
    target_ohm: float,
    floor: float,
    fraction: float,
) -> np.ndarray | None:
    """Move ``fraction`` of the donatable density onto violators.

    Donors are nodes under target with density above the floor,
    weighted by margin × headroom (deep-margin, decap-rich nodes give
    first); recipients are the violating nodes, weighted by how far
    over target they are.  Returns ``None`` when there is nothing to
    move (no violators, or no donor headroom).
    """
    tol = target_ohm * (1 + TARGET_RTOL)
    excess = np.maximum(peaks - tol, 0.0)
    if not excess.any():
        return None
    headroom = np.maximum(alpha - floor, 0.0)
    margin = np.maximum(tol - peaks, 0.0)
    donate = margin * headroom
    if donate.sum() <= 0.0:
        donate = np.where(excess > 0.0, 0.0, headroom)
        if donate.sum() <= 0.0:
            return None
    take = (fraction * headroom[donate > 0].sum()) * (
        donate / donate.sum()
    )
    np.minimum(take, headroom, out=take)
    moved = take.sum()
    if moved <= 0.0:
        return None
    give = moved * (excess / excess.sum())
    return alpha - take + give


def _peak_gradient(
    pdn: GridACPDN,
    alpha: np.ndarray,
    unit: tuple[float, float, float],
    evaluation: _Evaluation,
    freqs: np.ndarray,
    target_ohm: float,
    top_nodes: int = 8,
) -> np.ndarray:
    """d(weighted worst-node |Z|)/dα for every node at once.

    Adjoint trick: the reduced system is complex-symmetric, so the
    probe columns ``x = A(ω)⁻¹ e_k`` from
    :meth:`~repro.pdn.grid.GridACPDN.impedance_columns` give the exact
    all-node sensitivity ``d|Z_k|/dαᵢ = Re(Z̄_k/|Z_k| · (−y_u(ω)) ·
    xᵢ²)`` — one batched selinv solve per distinct peak frequency,
    independent of mesh size.  Violating nodes are weighted by their
    excess over target; with no violators the single worst node drives
    a pure peak-flattening direction.  The density representation's
    per-node branch is exactly ``α·y_u(ω)``, which makes the reduced
    system linear in α and this gradient exact.
    """
    tol = target_ohm * (1 + TARGET_RTOL)
    order = np.argsort(evaluation.peaks)[::-1]
    violating = order[evaluation.peaks[order] > tol]
    chosen = violating[:top_nodes] if violating.size else order[:1]
    if violating.size:
        weights = evaluation.peaks[chosen] - tol
        weights = weights / weights.sum()
    else:
        weights = np.ones(chosen.size)
    # The current attached density must match `alpha`: a rejected
    # backtracking candidate may have left the grid on another map.
    pdn.set_decap_density(alpha.reshape(pdn.ny, pdn.nx), *unit)
    decap = pdn.design.decap
    gradient = np.zeros(alpha.size)
    freq_of = evaluation.peak_freq_index[chosen]
    for freq_index in np.unique(freq_of):
        group = chosen[freq_of == freq_index]
        w_group = weights[freq_of == freq_index]
        frequency = float(freqs[freq_index])
        y_u = decap.unit_admittance(2.0 * math.pi * frequency)
        columns = pdn.impedance_columns(frequency, group)
        for j, node in enumerate(group):
            x = columns[:, j]
            z = x[node]
            dz = -y_u * x * x
            gradient += w_group[j] * np.real(
                np.conj(z) / abs(z) * dz
            )
    return gradient


# -- results -------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of one :func:`optimize_decap_placement` run.

    ``density_before``/``peak_map_before`` describe the allocation that
    was attached when the optimizer was called (at *its own* total
    capacitance); the ``after`` fields describe the optimized
    allocation at exactly ``capacitance_budget_f``.  The grid itself is
    left untouched — call :meth:`apply_to` to install the optimized
    map.
    """

    target_ohm: float
    frequencies_hz: np.ndarray
    capacitance_budget_f: float
    cap_per_unit_f: float
    esr_per_unit_ohm: float
    esl_per_unit_h: float
    density_before: np.ndarray
    density_after: np.ndarray
    peak_map_before: np.ndarray
    peak_map_after: np.ndarray
    violating_fraction_history: tuple[float, ...]
    iterations: int
    gradient_steps_taken: int
    coarse_shape: tuple[int, int] | None

    @property
    def peak_impedance_before_ohm(self) -> float:
        return float(self.peak_map_before.max())

    @property
    def peak_impedance_after_ohm(self) -> float:
        return float(self.peak_map_after.max())

    def _fraction(self, peak_map: np.ndarray) -> float:
        tol = self.target_ohm * (1 + TARGET_RTOL)
        return float(
            np.count_nonzero(peak_map > tol) / peak_map.size
        )

    @property
    def violating_fraction_before(self) -> float:
        """Violating-node fraction of the attached allocation."""
        return self._fraction(self.peak_map_before)

    @property
    def violating_fraction_after(self) -> float:
        """Violating-node fraction of the optimized allocation."""
        return self._fraction(self.peak_map_after)

    @property
    def total_capacitance_before_f(self) -> float:
        return float(self.density_before.sum() * self.cap_per_unit_f)

    @property
    def total_capacitance_after_f(self) -> float:
        """Capacitance budget actually used (= the budget, by
        construction of the projection)."""
        return float(self.density_after.sum() * self.cap_per_unit_f)

    @property
    def meets_target(self) -> bool:
        return self.peak_impedance_after_ohm <= self.target_ohm * (
            1 + TARGET_RTOL
        )

    def apply_to(self, pdn: GridACPDN) -> None:
        """Install the optimized density map on a grid."""
        pdn.set_decap_density(
            self.density_after,
            self.cap_per_unit_f,
            self.esr_per_unit_ohm,
            self.esl_per_unit_h,
        )


# -- the optimizer -------------------------------------------------------------


def optimize_decap_placement(
    pdn: GridACPDN,
    target_ohm: float,
    frequencies_hz: np.ndarray | None = None,
    budget_f: float | None = None,
    floor_fraction: float = DEFAULT_FLOOR_FRACTION,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    gradient_steps: int = DEFAULT_GRADIENT_STEPS,
    multi_resolution: "bool | str" = "auto",
    coarse_shape: tuple[int, int] | None = None,
    method: str = "auto",
) -> PlacementResult:
    """Redistribute the decap budget toward target-violating nodes.

    Keeps total capacitance fixed at ``budget_f`` (default: the
    attached total) and searches density space with greedy worst-node
    moves, adjoint projected-gradient refinement, and an optional
    coarse-to-fine warm start — see the module docstring for the
    algorithm.  The violating-node fraction recorded in
    ``violating_fraction_history`` is monotonically non-increasing,
    and the returned allocation is never worse (violating fraction,
    then peak |Z|) than the uniform allocation at the same budget:
    uniform is always evaluated as a candidate starting point and
    steps are accept-only-on-improvement.

    Per-iteration cost is O(one batched solve): a greedy iteration is
    one :meth:`~repro.pdn.grid.GridACPDN.impedance_map` sweep per
    backtracking trial, and a gradient iteration adds one multi-RHS
    :meth:`~repro.pdn.grid.GridACPDN.impedance_columns` solve per
    distinct peak frequency.

    Args:
        pdn: grid with sources and a *density* decap attachment
            (:meth:`~repro.pdn.grid.GridACPDN.set_decap_density`); the
            "map" representation has no per-node unit-cell count to
            redistribute and is rejected.
        target_ohm: per-node target impedance.
        frequencies_hz: evaluation band (default 10 kHz–1 GHz, 61 pts).
        budget_f: total capacitance to allocate (default: keep the
            attached total).
        floor_fraction: per-node density floor as a fraction of the
            mean budget density — strictly positive, so every node
            keeps some decap.
        max_iterations: greedy move budget.
        gradient_steps: projected-gradient refinement budget.
        multi_resolution: ``"auto"`` (coarse warm start on meshes of
            ≥ :data:`MULTIRES_MIN_CELLS` cells), ``True``, or
            ``False``.
        coarse_shape: explicit ``(ny, nx)`` coarse grid (default: half
            resolution per axis).
        method: impedance-map engine forwarded to evaluation.

    Returns:
        A :class:`PlacementResult`; the grid's design is restored
        before returning (including on error).
    """
    require_finite(target_ohm, "target_ohm")
    if target_ohm <= 0:
        raise ConfigError(
            f"target_ohm must be positive, got {target_ohm}"
        )
    saved = pdn.design
    decap = saved.decap
    if not isinstance(decap, DecapDensity):
        raise ConfigError(
            "placement optimization needs a decap density attachment; "
            "call set_decap_density first"
        )
    if not saved.sources:
        raise ConfigError("no sources attached; call add_source first")
    max_iterations = require_count(max_iterations, "max_iterations", 0)
    gradient_steps = require_count(gradient_steps, "gradient_steps", 0)
    if not 0.0 < floor_fraction < 1.0:
        raise ConfigError("floor_fraction must be in (0, 1)")
    if multi_resolution not in (True, False, "auto"):
        raise ConfigError(
            "multi_resolution must be True, False, or 'auto'"
        )
    freqs = (
        _default_frequencies()
        if frequencies_hz is None
        else np.asarray(frequencies_hz, dtype=float)
    )
    density_before = decap.density.copy()
    unit = (decap.cap_per_unit_f, decap.esr_per_unit_ohm, decap.esl_per_unit_h)
    c_u, esr_u, esl_u = unit
    cells = pdn.nx * pdn.ny
    if budget_f is None:
        budget_f = float(density_before.sum() * c_u)
    if budget_f <= 0:
        raise ConfigError("capacitance budget must be positive")
    total_units = budget_f / c_u
    floor = floor_fraction * total_units / cells

    # Each distinct allocation is evaluated once: the attached one
    # doubles as the "before" map, and a uniform attachment is its own
    # budget rescale and the uniform start.
    evaluated: list[tuple[np.ndarray, _Evaluation]] = []

    def evaluate(alpha: np.ndarray) -> _Evaluation:
        for seen, evaluation in evaluated:
            if np.array_equal(seen, alpha):
                return evaluation
        evaluation = _evaluate(pdn, alpha, unit, freqs, target_ohm, method)
        evaluated.append((alpha, evaluation))
        return evaluation

    try:
        peak_map_before = evaluate(density_before.ravel()).peaks.reshape(
            pdn.ny, pdn.nx
        )

        # Candidate warm starts, best-of (violating fraction, peak):
        # the attached allocation rescaled to the budget, the uniform
        # allocation (which pins the never-worse-than-uniform
        # guarantee), and — on large meshes — a coarse-grid optimum
        # prolonged onto the fine mesh.
        starts = [
            _project_budget(
                density_before.ravel()
                * (total_units / density_before.sum()),
                floor,
                total_units,
            ),
            np.full(cells, total_units / cells),
        ]
        used_coarse: tuple[int, int] | None = None
        use_multires = multi_resolution is True or (
            multi_resolution == "auto" and cells >= MULTIRES_MIN_CELLS
        )
        if use_multires:
            cshape = (
                _default_coarse_shape(pdn.ny, pdn.nx)
                if coarse_shape is None
                else (int(coarse_shape[0]), int(coarse_shape[1]))
            )
            if not (
                2 <= cshape[0] <= pdn.ny and 2 <= cshape[1] <= pdn.nx
            ):
                raise ConfigError(
                    "coarse_shape must be at least (2, 2) and no "
                    "larger than the mesh"
                )
            if cshape[0] * cshape[1] < cells:
                coarse = GridACPDN.from_design(_coarse_design(saved, cshape))
                coarse.set_decap_density(
                    restrict_density(density_before, cshape), *unit
                )
                coarse_result = optimize_decap_placement(
                    coarse,
                    target_ohm,
                    frequencies_hz=freqs,
                    budget_f=budget_f,
                    floor_fraction=floor_fraction,
                    max_iterations=max_iterations,
                    gradient_steps=gradient_steps,
                    multi_resolution=False,
                    method=method,
                )
                starts.append(
                    _project_budget(
                        prolong_density(
                            coarse_result.density_after,
                            (pdn.ny, pdn.nx),
                        ).ravel(),
                        floor,
                        total_units,
                    )
                )
                used_coarse = cshape

        alpha: np.ndarray | None = None
        best: _Evaluation | None = None
        for start in starts:
            trial = evaluate(start)
            if best is None or _better(trial, best):
                alpha, best = start, trial
        assert alpha is not None and best is not None
        history = [best.violating_fraction]

        iterations = 0
        for _ in range(max_iterations):
            if best.violating_fraction == 0.0:
                break
            fraction = INITIAL_MOVE_FRACTION
            accepted = False
            for _ in range(MAX_BACKTRACKS):
                proposal = _greedy_proposal(
                    alpha, best.peaks, target_ohm, floor, fraction
                )
                if proposal is None:
                    break
                trial = evaluate(proposal)
                if _better(trial, best):
                    alpha, best = proposal, trial
                    history.append(best.violating_fraction)
                    iterations += 1
                    accepted = True
                    break
                fraction *= 0.5
            if not accepted:
                break

        gradient_taken = 0
        for _ in range(gradient_steps):
            if best.peak_ohm <= target_ohm * (1 + TARGET_RTOL):
                break
            gradient = _peak_gradient(
                pdn, alpha, unit, best, freqs, target_ohm
            )
            largest = float(np.abs(gradient).max())
            if largest <= 0.0:
                break
            # Step sized so the steepest node moves ~¼ of the mean
            # density, then backtracking-halved.
            eta = 0.25 * (total_units / cells) / largest
            accepted = False
            for _ in range(MAX_BACKTRACKS):
                proposal = _project_budget(
                    alpha - eta * gradient, floor, total_units
                )
                trial = evaluate(proposal)
                if _better(trial, best):
                    alpha, best = proposal, trial
                    history.append(best.violating_fraction)
                    gradient_taken += 1
                    accepted = True
                    break
                eta *= 0.5
            if not accepted:
                break

        return PlacementResult(
            target_ohm=float(target_ohm),
            frequencies_hz=freqs,
            capacitance_budget_f=float(budget_f),
            cap_per_unit_f=c_u,
            esr_per_unit_ohm=esr_u,
            esl_per_unit_h=esl_u,
            density_before=density_before,
            density_after=alpha.reshape(pdn.ny, pdn.nx).copy(),
            peak_map_before=peak_map_before,
            peak_map_after=best.peaks.reshape(pdn.ny, pdn.nx).copy(),
            violating_fraction_history=tuple(history),
            iterations=iterations,
            gradient_steps_taken=gradient_taken,
            coarse_shape=used_coarse,
        )
    finally:
        pdn.design = saved


def size_decap_placement_for_target(
    pdn: GridACPDN,
    target_ohm: float,
    frequencies_hz: np.ndarray | None = None,
    max_budget_factor: float = 1024.0,
    growth: float = 2.0,
    refine_steps: int = 3,
    **optimizer_kwargs,
) -> PlacementResult:
    """Smallest optimized-placement budget that meets the target.

    The spatial counterpart of
    :func:`~repro.pdn.impedance.size_grid_decap_for_target`: instead of
    uniformly doubling the attached allocation, each trial budget is
    *placed* by :func:`optimize_decap_placement` before the verdict.
    Grows the budget geometrically from the attached total until the
    optimized placement passes, then trims with a few geometric
    bisection steps between the last failing and first passing budget.

    Returns the passing :class:`PlacementResult` with the smallest
    budget found (or the last failing one, ``meets_target`` False, if
    ``max_budget_factor`` is exhausted).
    """
    require_finite(max_budget_factor, "max_budget_factor")
    if max_budget_factor < 1.0:
        raise ConfigError(
            f"max_budget_factor must be >= 1, got {max_budget_factor}"
        )
    require_finite(growth, "growth")
    if growth <= 1.0:
        raise ConfigError(f"growth must be > 1, got {growth}")
    refine_steps = require_count(refine_steps, "refine_steps", 0)
    base = pdn.total_decap_farad
    if base <= 0:
        raise ConfigError(
            "grid has no decaps attached; set a decap map first"
        )
    factor = 1.0
    fail_factor = 0.0
    while True:
        result = optimize_decap_placement(
            pdn,
            target_ohm,
            frequencies_hz=frequencies_hz,
            budget_f=base * factor,
            **optimizer_kwargs,
        )
        if result.meets_target:
            break
        if factor * growth > max_budget_factor * (1 + 1e-9):
            return result
        fail_factor = factor
        factor *= growth
    best = result
    hi = factor
    lo = fail_factor
    for _ in range(refine_steps):
        if lo <= 0.0:
            break
        mid = math.sqrt(lo * hi)
        trial = optimize_decap_placement(
            pdn,
            target_ohm,
            frequencies_hz=frequencies_hz,
            budget_f=base * mid,
            **optimizer_kwargs,
        )
        if trial.meets_target:
            best, hi = trial, mid
        else:
            lo = mid
    return best


# -- VR-site selection ---------------------------------------------------------


@dataclass(frozen=True)
class VRSiteSelection:
    """Outcome of :func:`select_vr_sites`.

    Attributes:
        chosen_indices: selected source indices (attachment order),
            in pick order.
        chosen_names: the matching source names.
        candidate_names: every candidate, in attachment order.
        objective: the scored objective (``"min-voltage"``).
        score_history: the best worst-node voltage after each pick —
            non-decreasing, since adding a live VR only helps.
        min_voltage_v: worst-node voltage of the final selection.
    """

    chosen_indices: tuple[int, ...]
    chosen_names: tuple[str, ...]
    candidate_names: tuple[str, ...]
    objective: str
    score_history: tuple[float, ...]

    @property
    def min_voltage_v(self) -> float:
        return self.score_history[-1]


def _vr_site_chunk(design: MeshDesign, scenarios: tuple) -> list[float]:
    """Chunk runner: worst-node voltage with each scenario's sources
    open-circuited, batched through ``solve_disabled_many``."""
    grid = GridPDN.from_design(design)
    solutions = grid.solve_disabled_many(
        [scenario.params for scenario in scenarios]
    )
    return [
        float(solution.voltage_map.min()) for solution in solutions
    ]


def select_vr_sites(
    grid: GridPDN,
    count: int,
    jobs: "int | str | None" = 1,
    chunk_size: int | None = None,
) -> VRSiteSelection:
    """Greedy forward selection of ``count`` VR sites from a bank.

    Attach every *candidate* site as a source (plus ring bus / edge
    scales as usual); each round scores every remaining candidate by
    open-circuiting all non-selected sources except it — a batch of
    Woodbury scenarios against one shared factorization
    (:meth:`~repro.pdn.grid.GridPDN.solve_disabled_many`) — and keeps
    the candidate that maximizes the worst-node voltage.  Candidate
    batches are sharded through :mod:`repro.parallel`, so ``jobs``
    parallelizes each round across workers; ties break toward the
    earlier-attached candidate, keeping the selection deterministic
    and jobs-count independent.

    The grid itself is never mutated: workers view its design, which
    is the (picklable) sweep payload.
    """
    design = grid.design
    n = len(design.sources)
    count = require_count(count, "count", 1)
    if count > n:
        raise ConfigError(
            f"site count must be in [1, {n}] for {n} candidates"
        )
    if design.sinks is None:
        raise ConfigError(
            "VR-site selection needs a sink map; call set_sinks first"
        )
    chosen: list[int] = []
    history: list[float] = []
    for _ in range(count):
        remaining = [c for c in range(n) if c not in chosen]
        scenarios = tuple(
            Scenario(
                key=c,
                params=tuple(
                    i
                    for i in range(n)
                    if i != c and i not in chosen
                ),
            )
            for c in remaining
        )
        plan = SweepPlan(
            scenarios=scenarios,
            runner=_vr_site_chunk,
            payload=design,
            chunk_size=chunk_size,
            label="vr-site selection",
        )
        scores = run_sweep_collect(plan, jobs=jobs)
        best_index, best_score = max(
            zip(remaining, scores), key=lambda pair: (pair[1], -pair[0])
        )
        chosen.append(best_index)
        history.append(float(best_score))
    return VRSiteSelection(
        chosen_indices=tuple(chosen),
        chosen_names=tuple(design.sources[i].name for i in chosen),
        candidate_names=tuple(source.name for source in design.sources),
        objective="min-voltage",
        score_history=tuple(history),
    )
