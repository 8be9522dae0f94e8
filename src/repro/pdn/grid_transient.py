"""Factor-once grid transient engine (mesh load-step droop).

The lumped :class:`~repro.pdn.transient.PDNTransient` ladder shows the
droop *waveform*; this module shows where on the die it lands.  The
:class:`~repro.pdn.mesh.MeshDesign` that :class:`~repro.pdn.grid.GridPDN`
and :class:`~repro.pdn.grid.GridACPDN` analyze — per-node decap maps
and VR output branches included — is discretized in time with the
trapezoidal (Tustin) rule: every reactive
branch collapses into its companion model (a conductance plus a
history current), so each time step is one linear solve

    ``A v₁ = b(t₁, history)``  with  ``A = G + (2/Δt)·C_eff``

where ``A`` depends only on the topology and the time step.  That
matrix is factored **once** per ``(topology, Δt)`` through the
process-wide content-hashed :class:`~repro.parallel.cache.FactorizationCache`
(the companion resistances carry ``Δt`` and ``C_eff``, so the stamp's
content is its key) and every subsequent step is a single
back-substitution.  A batch of T workload traces advances through one
multi-RHS back-substitution per step (`solve_many` shape), which is
where ensemble sweeps get their throughput.

Companion models (series branch, node → ground through ESR + L + C;
``h = Δt``, ``w = 2L/h``, ``hc = h/(2C)``, ``Z = ESR + w + hc``):

* trapezoidal step: ``i₁ = (v₁ + (w − hc)·i₀ + v_L₀ − v_c₀)/Z`` with
  state updates ``v_c₁ = v_c₀ + hc·(i₁ + i₀)`` and
  ``v_L₁ = w·(i₁ − i₀) − v_L₀``;
* the first interval runs **two backward-Euler half-steps** instead:
  at ``δ = h/2`` the BE companion impedance is ``ESR + 2L/h + h/(2C)``
  — the *same* ``Z`` — so the startup shares the factorization while
  suppressing the O(h) trapezoidal glitch a load discontinuity at
  t = 0⁺ would otherwise inject (the algebraic branch states jump at
  the step; BE re-derives them implicitly).  BE variants:
  ``i₁ = (v₁ + w·i₀ − v_c₀)/Z``, ``v_c₁ = v_c₀ + hc·i₁``,
  ``v_L₁ = w·(i₁ − i₀)``.

VR branches (EMF ``V`` behind ``r_out + L_src``) and inductive mesh
edges follow the same pattern with the capacitor terms dropped.  Both
schemes are exactly DC-consistent: a constant load holds the mesh at
its DC operating point to solver precision.

Two engines, mirroring :class:`~repro.pdn.grid.GridPDN`:

* ``factorized`` — the companion matrix as a reduced node-only
  :class:`~repro.pdn.network.CompiledNetlist` through the shared
  sparse-LU cache;
* ``structured`` — the companion and DC-init stamps, each on a
  :class:`~repro.pdn.fast_poisson.StructuredOperator` (the DCT-II +
  Woodbury kernel of the structured DC engine): the most common decap
  conductance is the operator shift and everything irregular (decap
  non-uniformity, VR branches, ring segments) is a correction of rank
  one per touched node plus deflation: O(n² log n) steps, no LU.
  ``engine="auto"`` selects by mesh size
  (:data:`TRANSIENT_AUTO_MIN_CELLS`) and falls back on
  :class:`~repro.pdn.fast_poisson.StructuredSolveError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError, require_finite, require_indices
from .fast_poisson import (
    StructuredGridPDN,
    StructuredOperator,
    StructuredSolveError,
)
from .grid import dc_stamp, engine_option, resolve_engine
from .mesh import MeshDesign, MeshView, cached, mesh_edge_rows
from .mna import FactorizedPDN
from .network import GROUND_INDEX, CompiledNetlist
from .transient import droop_and_settle

#: ``engine="auto"`` transients on meshes of at least this many cells
#: step on the structured engine, smaller ones on the cached LU.  A
#: cold 8-trace point of the paper's VR banks ties at 40²–44² and runs
#: faster structured from 48² (``docs/transient-engine.md``); the DC
#: views keep their own :data:`~repro.pdn.grid.STRUCTURED_AUTO_MIN_CELLS`.
TRANSIENT_AUTO_MIN_CELLS = 48 * 48


@dataclass(frozen=True)
class GridTransientResult:
    """One trace's spatio-temporal droop summary.

    Full per-node waveforms are never materialized (a 48×48 mesh ×
    1000 steps × 16 traces would be hundreds of MB); the stepping loop
    streams running per-node minima and the per-sample worst-node
    trace, plus full waveforms at explicitly requested probe nodes.

    Attributes:
        time_s: sample times, ``steps + 1`` entries (t = 0 is the
            pre-step DC operating point).
        v_pre_map: (ny, nx) initial DC node-voltage map.
        v_min_map: (ny, nx) per-node minimum voltage over the trace.
        v_final_map: (ny, nx) settle reference map — the post-step DC
            solution for :meth:`GridTransientPDN.simulate_step`, the
            last sample otherwise.
        min_voltage_trace_v: worst-node voltage at every sample.
        probe_rows: flattened mesh rows of the requested probes.
        probe_voltages_v: (samples, probes) probe waveforms.
        droop_v: worst per-node droop, ``droop_map.max()``.
        settle_time_s: first time after which the worst-node trace
            stays inside the settle band around the final value.
        engine: which engine produced the trace.
    """

    time_s: np.ndarray
    v_pre_map: np.ndarray
    v_min_map: np.ndarray
    v_final_map: np.ndarray
    min_voltage_trace_v: np.ndarray
    probe_rows: tuple[int, ...]
    probe_voltages_v: np.ndarray
    droop_v: float
    settle_time_s: float
    engine: str

    @property
    def droop_map(self) -> np.ndarray:
        """(ny, nx) worst instantaneous droop below the pre-step DC."""
        return np.clip(self.v_pre_map - self.v_min_map, 0.0, None)

    @property
    def worst_droop_v(self) -> float:
        return float(self.droop_map.max())

    @property
    def worst_node(self) -> tuple[int, int]:
        """(ix, iy) of the worst-droop mesh node."""
        iy, ix = np.unravel_index(
            int(np.argmax(self.droop_map)), self.v_pre_map.shape
        )
        return int(ix), int(iy)


class _TransientStructure:
    """Everything assembled once per (topology, Δt).

    Holds the trapezoidal companion constants and three reduced
    resistor stamps: the transient (companion) stamp and, on smooth
    fully-decapped designs, the t = 0⁺ jump stamp, both assembled by
    one local ``stamp`` function, and the capacitors-open DC-init
    stamp, which is :func:`~repro.pdn.grid.dc_stamp` — the grid's
    nodal DC stamp, so a grid view of the same design shares its LU.
    Their engines are built on first read: a factorization per stamp,
    a structured operator for the companion stamp, and for the DC stamp
    the structured DC engine's operator
    (:class:`~repro.pdn.fast_poisson.StructuredGridPDN`).  Each LU is
    keyed in the shared factorization cache by its stamp's content.
    Source voltages are right-hand-side data: they are passed to each
    run, so a setpoint change reuses the structure.
    """

    def __init__(self, design: MeshDesign, dt_s: float) -> None:
        nx, ny = design.nx, design.ny
        r_x = design.edge_resistance_x_ohm if nx > 1 else None
        r_y = design.edge_resistance_y_ohm if ny > 1 else None
        l_x, l_y = design.edge_inductance_x_h, design.edge_inductance_y_h
        _, ring_a, ring_b = design.ring_segments()
        ring_ohm = design.ring_bus_ohm
        dec_c, dec_esr, dec_esl = design.decap_arrays()
        attach = design.attach_rows()
        rout = design.source_values("output_resistance_ohm")
        l_src = design.source_values("inductance_h")
        cells = nx * ny
        h = dt_s
        self.nx, self.ny, self.cells, self.dt_s = nx, ny, cells, h
        x_a, x_b, y_a, y_b = mesh_edge_rows(nx, ny)
        self.x_a, self.y_a = x_a, y_a
        self.ring_a, self.ring_b = ring_a, ring_b

        # Edge companions (series R + L): g = 1/(r + 2L/h).
        self.w_x = 2.0 * l_x / h
        self.w_y = 2.0 * l_y / h
        self.g_x = 1.0 / (r_x + self.w_x) if r_x is not None else 0.0
        self.g_y = 1.0 / (r_y + self.w_y) if r_y is not None else 0.0
        self.g_x_dc = 1.0 / r_x if r_x is not None else 0.0
        self.g_y_dc = 1.0 / r_y if r_y is not None else 0.0
        self.g_ring = (
            np.full(ring_a.size, 1.0 / ring_ohm)
            if ring_ohm is not None
            else np.empty(0)
        )

        # Decap companions, restricted to live (C > 0) nodes.
        live = dec_c > 0
        self.dec_rows = np.nonzero(live)[0].astype(np.int64)
        c, esr, esl = dec_c[live], dec_esr[live], dec_esl[live]
        self.w_b = 2.0 * esl / h
        self.hc_b = h / (2.0 * c)
        z_b = esr + self.w_b + self.hc_b
        self.g_b = 1.0 / z_b
        self.g_node = np.zeros(cells)
        self.g_node[self.dec_rows] = self.g_b

        # VR output companions.
        self.attach = attach
        self.w_s = 2.0 * l_src / h
        self.g_s = 1.0 / (rout + self.w_s)
        self.g_dc = 1.0 / rout

        # Startup scheme selection.  The t = 0+ load discontinuity
        # excites every branch mode; two damped backward-Euler
        # half-steps (sharing the trapezoidal matrix) suppress the
        # ringing that trapezoidal integration sustains on stiff
        # modes, but carry O(h^2) local error.  When every branch
        # decay rate is well resolved (h * rate <= 1/2) no damping is
        # needed, and the exact-jump startup below (trapezoidal from
        # the t = 0+ right limits) tracks the state-space oracle to
        # ~1e-8.  Undamped decaps (ESR = 0) hide their true rate
        # behind the mesh Thevenin resistance, so they always take
        # the damped kick.
        rate = 0.0
        if l_x > 0 and r_x is not None:
            rate = max(rate, r_x / l_x)
        if l_y > 0 and r_y is not None:
            rate = max(rate, r_y / l_y)
        live_l = l_src > 0
        if np.any(live_l):
            rate = max(rate, float((rout[live_l] / l_src[live_l]).max()))
        if c.size:
            if np.any(esr <= 0):
                rate = np.inf
            else:
                rate = max(rate, float((1.0 / (esr * c)).max()))
                damped = esl > 0
                if np.any(damped):
                    rate = max(
                        rate, float((esr[damped] / esl[damped]).max())
                    )
        self.smooth_startup = bool(h * rate <= 0.5)

        def stamp(r_x, r_y, rows, shunt_ohm) -> CompiledNetlist:
            """A resistor-only netlist over the mesh rows: the x and y
            edges of each axis given a resistance, the ring, and one
            shunt to ground per entry of ``rows``."""
            branches = [
                (a, b, ohm)
                for a, b, ohm in (
                    (x_a, x_b, r_x),
                    (y_a, y_b, r_y),
                    (ring_a, ring_b, ring_ohm),
                )
                if ohm is not None
            ]
            rows = np.concatenate(rows)
            ground = np.full(rows.size, GROUND_INDEX, dtype=np.int64)
            return CompiledNetlist(
                nodes=lambda: tuple(f"n{i}" for i in range(cells)),
                n_nodes=cells,
                res_a=np.concatenate([a for a, _, _ in branches] + [rows]),
                res_b=np.concatenate([b for _, b, _ in branches] + [ground]),
                res_ohm=np.concatenate(
                    [np.full(a.size, ohm) for a, _, ohm in branches]
                    + list(shunt_ohm)
                ),
            )

        # Transient stamp: mesh + ring + decap shunts + VR shunts.
        self.compiled = stamp(
            1.0 / self.g_x if r_x is not None else None,
            1.0 / self.g_y if r_y is not None else None,
            [self.dec_rows, attach],
            [z_b, 1.0 / self.g_s],
        )
        # DC-init stamp (capacitors open): the grid's nodal DC stamp,
        # so a grid view of the design shares this LU.  The design is
        # kept for its structured engine; only key fields are read.
        self.design = design
        self.dc_compiled = dc_stamp(design)

        # t = 0+ jump stamp.  Inductor currents and capacitor voltages
        # are continuous across the load discontinuity, but the node
        # voltages are algebraic and jump with it; their right limits
        # solve the frozen-inductor resistive network (L branches =
        # current sources, decap branches = ESR in series with the
        # held capacitor voltage).  Starting trapezoidal integration
        # from these right-limit values makes the startup O(h^3),
        # where the damped backward-Euler kick is only O(h^2).  Built
        # only when provably nonsingular: a resistive shunt at every
        # node (full decap coverage, ESL = 0, ESR > 0) on a smooth
        # (non-stiff) structure.
        self.rout = rout
        self.exact_jump = (
            self.smooth_startup
            and self.dec_rows.size == cells
            and not np.any(esl > 0.0)
        )
        self.jump_compiled: CompiledNetlist | None = None
        if self.exact_jump:
            self.jump_g_dec = np.zeros(cells)
            self.jump_g_dec[self.dec_rows] = 1.0 / esr
            self.jump_x_frozen = l_x > 0
            self.jump_y_frozen = l_y > 0
            self.jump_src_frozen = l_src > 0
            live = ~self.jump_src_frozen
            self.jump_compiled = stamp(
                None if self.jump_x_frozen else r_x,
                None if self.jump_y_frozen else r_y,
                [self.dec_rows, attach[live]],
                [esr, rout[live]],
            )

    # -- factorized engine -------------------------------------------------------

    @cached_property
    def solver(self) -> FactorizedPDN:
        """The companion stamp's factorization."""
        return _factorized(self.compiled)

    @cached_property
    def dc_solver(self) -> FactorizedPDN:
        """The capacitors-open DC stamp's factorization."""
        return _factorized(self.dc_compiled)

    @cached_property
    def jump_solver(self) -> FactorizedPDN:
        """The t = 0+ frozen-inductor stamp's factorization.

        Shared by both engines — one small solve per simulate call, so
        a structured variant would buy nothing.
        """
        return _factorized(self.jump_compiled)

    # -- structured engine -------------------------------------------------------

    @cached_property
    def fast(self) -> StructuredOperator:
        """The structured operator of the companion stamp."""
        return StructuredOperator(
            self.nx, self.ny, self.g_x, self.g_y, self.g_node, self.attach,
            self.g_s, self.ring_a, self.ring_b, self.g_ring,
        )

    @cached_property
    def dc_fast(self) -> StructuredOperator:
        """The structured operator of the capacitors-open DC stamp:
        the structured DC engine's own, as that stamp is the grid's."""
        return StructuredGridPDN(self.design).op


def _factorized(compiled: CompiledNetlist):
    """The shared cache's factorization of one reduced stamp."""
    # Lazy import: the parallel layer sits above pdn.
    from ..parallel.cache import get_factorized

    return get_factorized(compiled)


def _row_solve(lu: FactorizedPDN):
    """A factorization's column solve as a row-layout solve:
    ``(traces, cells)`` right-hand sides in, solutions out."""

    def solve(b: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(
            lu.solve_many(np.ascontiguousarray(b.T)).T
        )

    return solve


class GridTransientPDN(MeshView):
    """Time-domain load-step analysis on the die/interposer mesh.

    The transient view of a :class:`~repro.pdn.mesh.MeshDesign`, the
    counterpart of :class:`~repro.pdn.grid.GridACPDN`: the same
    rectangular one-polarity mesh with per-node decap maps
    (C + ESR + ESL), optional per-edge metal inductance, and VR output
    branches (EMF + r_out + bump/TSV inductance), driven by arbitrary
    per-node sink-current waveforms.  Degenerate 1-D chains
    (``nx == 1`` or ``ny == 1``) are allowed — they are the lattice on
    which the lumped :class:`~repro.pdn.transient.PDNTransient`
    matrix-exponential oracle pins this engine.  Per-edge resistance
    variation has no companion path, so a design that carries it is
    rejected.

    Three analysis surfaces:

    * :meth:`simulate` — one per-node waveform, one back-substitution
      per step after the single factorization;
    * :meth:`simulate_many` — T traces advanced together through
      multi-RHS back-substitutions;
    * :meth:`simulate_step` — the classic load step, scaled over the
      attached sink map, with a DC-exact settle reference.

    Run-time arguments (time step, duration, load levels, waveform
    samples, settle band) are checked like design fields: NaN or inf
    raises :class:`~repro.errors.ConfigError` naming the argument.
    """

    engine = engine_option

    def __init__(
        self,
        width_m: float,
        height_m: float,
        sheet_ohm_sq: float,
        nx: int = 24,
        ny: int = 24,
        edge_inductance_x_h: float = 0.0,
        edge_inductance_y_h: float = 0.0,
        engine: str = "auto",
    ) -> None:
        self.engine = engine
        super().__init__(
            width_m,
            height_m,
            sheet_ohm_sq,
            nx,
            ny,
            edge_inductance_x_h,
            edge_inductance_y_h,
        )

    # -- structure cache --------------------------------------------------------

    def _structure(self, dt_s: float) -> _TransientStructure:
        """The companions for the current design and ``dt_s``, cached
        in one slot under ``(design key, Δt)``."""
        design = self.design
        return cached(
            self,
            "_companions",
            (design.key, float(dt_s)),
            lambda: _TransientStructure(design, dt_s),
        )

    # -- simulation -------------------------------------------------------------

    def _probe_rows(self, probe_nodes) -> tuple[int, ...]:
        """Flattened mesh rows of ``probe_nodes``, each a row index or
        an ``(ix, iy)`` pair whose axes are checked one by one."""
        rows: list[int] = []
        for probe in probe_nodes:
            if np.ndim(probe) == 0:
                row = int(require_indices(probe, "probe_nodes"))
                inside = 0 <= row < self.nx * self.ny
            else:
                ix, iy = (
                    int(require_indices(axis, "probe_nodes"))
                    for axis in probe
                )
                row = iy * self.nx + ix
                inside = 0 <= ix < self.nx and 0 <= iy < self.ny
            if not inside:
                raise ConfigError(f"probe node {probe!r} outside the mesh")
            rows.append(row)
        return tuple(rows)

    def _normalize_waveforms(
        self, waveforms_a, name: str = "waveforms_a"
    ) -> list[np.ndarray]:
        """The traces of ``waveforms_a`` as (S, cells) float64 arrays.

        Accepts (S, cells), (S, ny, nx), (T, S, cells), (T, S, ny, nx),
        or a sequence of traces; a sequence of (cells,) rows or
        (ny, nx) frames is one trace.  The traces are never stacked: a
        float64 trace comes back as a view of the caller's array, in
        any memory layout, and any other is converted on its own.
        Each trace is checked in turn; ``name`` is the argument named
        when a sample is not finite or a sequence's items differ in
        shape.
        """
        ny, nx = self.ny, self.nx
        cells = nx * ny
        if isinstance(waveforms_a, (list, tuple)):
            items = [np.asarray(item) for item in waveforms_a]
            shapes = {item.shape for item in items}
            if len(shapes) > 1:
                raise ConfigError(
                    f"{name} items must share one shape, got "
                    f"{', '.join(map(str, sorted(shapes)))}"
                )
            shape = (len(items), *(shapes.pop() if shapes else ()))
        else:
            items = np.asarray(waveforms_a)
            shape = items.shape
        frame = ((cells,), (ny, nx))
        if shape[1:] in frame:
            samples, traces = shape[0], [np.asarray(items, dtype=float)]
        elif shape[2:] in frame:
            samples = shape[1]
            traces = [np.asarray(item, dtype=float) for item in items]
        else:
            raise ConfigError(
                "waveforms must be (steps, cells)/(steps, ny, nx) per "
                f"trace with cells={cells}; got shape {shape}"
            )
        if samples < 2:
            raise ConfigError("waveforms need at least two samples")
        checked = []
        for trace in traces:
            trace = trace.reshape(samples, cells)
            require_finite(trace, name)
            if np.any(trace < 0):
                raise ConfigError(
                    "sink-current waveforms must be non-negative"
                )
            checked.append(trace)
        return checked

    def simulate(
        self,
        waveform_a: np.ndarray,
        dt_s: float,
        probe_nodes=(),
        settle_band_v: float | None = None,
    ) -> GridTransientResult:
        """Step one per-node sink-current waveform.

        ``waveform_a`` is (steps + 1, cells) or (steps + 1, ny, nx):
        sample 0 sets the pre-trace DC operating point and sample k is
        the load held over ``(t_{k-1}, t_k]`` (a left-open staircase,
        so a step at t = 0⁺ is simply a change from sample 0 to
        sample 1).
        """
        return self._simulate_batch(
            self._normalize_waveforms(waveform_a, "waveform_a"),
            dt_s,
            self._probe_rows(probe_nodes),
            settle_band_v,
            False,
        )[0]

    def simulate_many(
        self,
        waveforms_a,
        dt_s: float,
        probe_nodes=(),
        settle_band_v: float | None = None,
    ) -> list[GridTransientResult]:
        """Advance T traces together: per step, one multi-RHS
        back-substitution (or batched transform pair) covers the whole
        ensemble.

        ``waveforms_a`` takes any layout :meth:`simulate` takes, one
        per trace, as a sequence of traces or one stacked array.  The
        traces are read where they are, one sample of each per step,
        and never written; the run's memory is a few (T, cells) frames
        whatever the trace length.
        """
        traces = self._normalize_waveforms(waveforms_a)
        return self._simulate_batch(
            traces, dt_s, self._probe_rows(probe_nodes), settle_band_v, False
        )

    def simulate_step(
        self,
        i_before_a: float,
        i_after_a: float,
        duration_s: float = 20e-6,
        dt_s: float = 2e-9,
        probe_nodes=(),
        settle_band_v: float | None = None,
    ) -> GridTransientResult:
        """Load-current step over the attached sink map at t = 0.

        The spatial profile comes from :meth:`set_sinks` /
        :meth:`set_sink_array`; the settle reference is the *exact*
        post-step DC solution (one extra solve), matching
        :meth:`PDNTransient.simulate_step` semantics.
        """
        for value, name in (
            (i_before_a, "i_before_a"),
            (i_after_a, "i_after_a"),
            (duration_s, "duration_s"),
            (dt_s, "dt_s"),
        ):
            require_finite(value, name)
        if duration_s <= 0 or dt_s <= 0:
            raise ConfigError("duration and dt must be positive")
        if duration_s < 10 * dt_s:
            raise ConfigError("duration must cover at least 10 steps")
        if i_before_a < 0 or i_after_a < 0:
            raise ConfigError("load currents must be non-negative")
        profile = self._require(sinks=True).sinks.ravel()
        total = profile.sum()
        if total <= 0:
            raise ConfigError("sink map carries no current")
        profile = profile / total
        steps = int(round(duration_s / dt_s))
        trace = np.empty((steps + 1, profile.size))
        trace[0] = i_before_a * profile
        trace[1:] = i_after_a * profile
        return self._simulate_batch(
            [trace],
            dt_s,
            self._probe_rows(probe_nodes),
            settle_band_v,
            True,
        )[0]

    # -- the stepping core ------------------------------------------------------

    def _simulate_batch(
        self,
        traces: list[np.ndarray],
        dt_s: float,
        probe_rows: tuple[int, ...],
        settle_band_v: float | None,
        dc_settle: bool,
    ) -> list[GridTransientResult]:
        require_finite(dt_s, "dt_s")
        if dt_s <= 0:
            raise ConfigError("dt must be positive")
        if settle_band_v is not None:
            require_finite(settle_band_v, "settle_band_v")
        volt = self._require().source_values("voltage_v")
        structure = self._structure(dt_s)
        mode = resolve_engine(
            self.engine, self.nx * self.ny, TRANSIENT_AUTO_MIN_CELLS
        )
        if mode == "structured":
            try:
                return self._run(
                    structure, volt, traces, probe_rows, settle_band_v,
                    dc_settle, "structured",
                )
            except StructuredSolveError:
                if self.engine == "structured":
                    raise
        return self._run(
            structure, volt, traces, probe_rows, settle_band_v,
            dc_settle, "factorized",
        )

    def _run(
        self,
        st: _TransientStructure,
        volt: np.ndarray,
        traces: list[np.ndarray],
        probe_rows: tuple[int, ...],
        settle_band_v: float | None,
        dc_settle: bool,
        mode: str,
    ) -> list[GridTransientResult]:
        # The step loop works in ROW layout — (traces, cells),
        # C-contiguous — so each trace's field is a contiguous
        # (ny, nx) block: the structured solve views it with zero
        # transpose copies, and edge scatters are stencil slices.
        # The caller's (samples, cells) traces are read where they
        # are: each step negates sample k of every trace straight into
        # the right-hand-side buffer, and no trace is ever written.
        if not traces:
            return []
        n_traces = len(traces)
        samples, cells = traces[0].shape
        if mode == "structured":
            solve, dc_solve_rows = st.fast.solve, st.dc_fast.solve
        else:
            solve = _row_solve(st.solver)
            dc_solve_rows = _row_solve(st.dc_solver)

        attach = st.attach
        src_inject = st.g_dc * volt  # DC source Norton injection
        buf_b = np.empty((n_traces, cells))
        load_rows = list(zip(buf_b, traces))

        def negated_load(k: int) -> np.ndarray:
            """Sample ``k`` of every trace, negated, in ``buf_b``."""
            for row, trace in load_rows:
                np.negative(trace[k], out=row)
            return buf_b

        def dc_voltages(b: np.ndarray) -> np.ndarray:
            """DC node voltages under the negated loads ``b`` (which
            receive the source injections in place)."""
            np.add.at(b, (slice(None), attach), src_inject)
            return dc_solve_rows(b)

        # t = 0: DC operating point per trace.
        v = dc_voltages(negated_load(0))
        v_pre = v.copy()
        v_min = v.copy()
        min_trace = np.empty((samples, n_traces))
        min_trace[0] = v.min(axis=1)
        probes = np.asarray(probe_rows, dtype=np.int64)
        probe_wave = np.empty((samples, probes.size, n_traces))
        if probes.size:
            probe_wave[0] = v[:, probes].T

        # Branch states at t = 0 (exact DC algebraic values).  KVL
        # eliminates every inductor-voltage state: a series R-L(-C)
        # branch satisfies v_L = (branch drop) - R·i - v_C identically,
        # so the trapezoidal history needs only the branch current and
        # the previous node voltages,
        #
        #   H = (2·g·w - 1)·i + g·(v_prev - 2·v_C)   (decap shunt)
        #   H = (2·g·w - 1)·i + g·Δv_prev            (mesh edge)
        #
        # (the closed form follows from g = 1/(R + w + hc)); the
        # backward-Euler form drops the voltage terms to g·w·i (- g·v_C).
        # Halving the live state arrays halves the memory traffic of a
        # batched step, which is what bounds wide-batch throughput.
        dec = st.dec_rows
        i_b = np.zeros((n_traces, dec.size))
        v_c = v[:, dec].copy()
        i_s = st.g_dc * (volt - v[:, attach])
        v_ls = np.zeros((n_traces, attach.size))
        track_x = st.w_x > 0 and st.x_a.size > 0
        track_y = st.w_y > 0 and st.y_a.size > 0

        g_b, w_b, hc_b = st.g_b, st.w_b, st.hc_b
        g_s, w_s = st.g_s, st.w_s
        # Fused companion coefficients, hoisted out of the step loop.
        gw_be_b = g_b * w_b
        gwr_b = 2.0 * gw_be_b - 1.0
        gw_be_x, gw_be_y = st.g_x * st.w_x, st.g_y * st.w_y
        gwr_x, gwr_y = 2.0 * gw_be_x - 1.0, 2.0 * gw_be_y - 1.0
        emf = g_s * volt
        # Scatter strategy: each (traces, cells) row block views as
        # (traces, ny, nx) fields, and mesh_edge_rows orders edges
        # row-major, so edge scatters and Δv gathers are stencil
        # slices — no index arrays at all.  Decap rows are unique by
        # construction (full-coverage maps degenerate to whole-array
        # arithmetic); only the handful of source attach rows may
        # repeat.
        dec_all = dec.size == cells
        attach_unique = np.unique(attach).size == attach.size
        nx3, ny3 = st.nx, st.ny
        v3 = v.reshape(n_traces, ny3, nx3)

        # Step-loop buffers, allocated once: every per-step elementwise
        # op below writes into preallocated storage.
        b3 = buf_b.reshape(n_traces, ny3, nx3)
        hist_b = np.empty((n_traces, dec.size))
        i_new_b = np.empty((n_traces, dec.size))
        dec_t = np.empty((n_traces, dec.size))
        if track_x:
            dv0 = v3[:, :, :-1] - v3[:, :, 1:]
            i_x = st.g_x_dc * dv0
            gdvx = st.g_x * dv0  # carries g_x·Δv_prev between steps
            h_x = np.empty_like(i_x)
        if track_y:
            dv0 = v3[:, :-1, :] - v3[:, 1:, :]
            i_y = st.g_y_dc * dv0
            gdvy = st.g_y * dv0
            h_y = np.empty_like(i_y)

        kick = not (st.exact_jump and samples > 1)
        if not kick:
            # Exact t = 0+ algebraic jump (see _TransientStructure):
            # inductor currents and capacitor voltages hold, the node
            # voltages re-solve on the frozen-inductor network with
            # the post-step load, and every branch history is rebuilt
            # from the right limits so trapezoidal integration starts
            # consistently.  Sample 0 keeps the pre-step DC values —
            # same convention as the lumped oracle.
            b = negated_load(1)
            b += st.jump_g_dec * v
            if track_x and st.jump_x_frozen:
                b3[:, :, :-1] -= i_x
                b3[:, :, 1:] += i_x
            if track_y and st.jump_y_frozen:
                b3[:, :-1, :] -= i_y
                b3[:, 1:, :] += i_y
            frozen = st.jump_src_frozen
            if np.any(frozen):
                np.add.at(
                    b, (slice(None), attach[frozen]), i_s[:, frozen]
                )
            if np.any(~frozen):
                np.add.at(
                    b,
                    (slice(None), attach[~frozen]),
                    (st.g_dc * volt)[~frozen],
                )
            v = _row_solve(st.jump_solver)(b)
            v3 = v.reshape(n_traces, ny3, nx3)
            # Right-limit branch states: decap currents jump through
            # the ESR (ESL = 0 on this path), resistive VR branches
            # re-bias, inductive ones keep their current and absorb
            # the residual drop on v_L.
            np.subtract(v, v_c, out=i_b)
            i_b *= st.jump_g_dec
            i_s = np.where(
                st.w_s > 0, i_s, st.g_dc * (volt - v[:, attach])
            )
            v_ls = volt - v[:, attach] - st.rout * i_s
            if track_x:
                np.subtract(v3[:, :, :-1], v3[:, :, 1:], out=gdvx)
                gdvx *= st.g_x
            if track_y:
                np.subtract(v3[:, :-1, :], v3[:, 1:, :], out=gdvy)
                gdvy *= st.g_y

        def advance(k: int, backward_euler: bool) -> None:
            """One companion-model step to sample ``k`` (shared matrix,
            TR or BE form)."""
            nonlocal v, v3, i_b, i_new_b, i_s, v_ls, hist_b, dec_t, v_c
            nonlocal h_x, gdvx, h_y, gdvy
            b = negated_load(k)
            if dec.size:
                if backward_euler:
                    np.multiply(gw_be_b, i_b, out=hist_b)
                    np.multiply(g_b, v_c, out=dec_t)
                    hist_b -= dec_t
                else:
                    np.multiply(gwr_b, i_b, out=hist_b)
                    np.subtract(v if dec_all else v[:, dec], v_c, out=dec_t)
                    dec_t -= v_c
                    dec_t *= g_b
                    hist_b += dec_t
                if dec_all:
                    b -= hist_b
                else:
                    b[:, dec] -= hist_b
            if backward_euler:
                src_hist = emf + g_s * (w_s * i_s)
            else:
                src_hist = emf + g_s * (w_s * i_s + v_ls)
            if attach_unique:
                b[:, attach] += src_hist
            else:
                np.add.at(b, (slice(None), attach), src_hist)
            if track_x:
                np.multiply(
                    gw_be_x if backward_euler else gwr_x, i_x, out=h_x
                )
                if not backward_euler:
                    h_x += gdvx
                b3[:, :, :-1] -= h_x
                b3[:, :, 1:] += h_x
            if track_y:
                np.multiply(
                    gw_be_y if backward_euler else gwr_y, i_y, out=h_y
                )
                if not backward_euler:
                    h_y += gdvy
                b3[:, :-1, :] -= h_y
                b3[:, 1:, :] += h_y

            v = solve(b)
            v3 = v.reshape(n_traces, ny3, nx3)

            if dec.size:
                np.multiply(g_b, v if dec_all else v[:, dec], out=i_new_b)
                i_new_b += hist_b
                if backward_euler:
                    np.multiply(hc_b, i_new_b, out=dec_t)
                else:
                    np.add(i_new_b, i_b, out=dec_t)
                    dec_t *= hc_b
                v_c += dec_t
                i_b, i_new_b = i_new_b, i_b
            i_new_s = src_hist - g_s * v[:, attach]
            if backward_euler:
                v_ls = w_s * (i_new_s - i_s)
            else:
                v_ls = w_s * (i_new_s - i_s) - v_ls
            i_s = i_new_s
            if track_x:
                np.subtract(v3[:, :, :-1], v3[:, :, 1:], out=gdvx)
                gdvx *= st.g_x
                np.add(gdvx, h_x, out=i_x)
            if track_y:
                np.subtract(v3[:, :-1, :], v3[:, 1:, :], out=gdvy)
                gdvy *= st.g_y
                np.add(gdvy, h_y, out=i_y)

        for k in range(1, samples):
            if k == 1 and kick:
                # Two backward-Euler half-steps share the trapezoidal
                # matrix and damp the t = 0⁺ load discontinuity on
                # stiff structures (see smooth_startup).
                advance(k, backward_euler=True)
                advance(k, backward_euler=True)
            else:
                advance(k, backward_euler=False)
            np.minimum(v_min, v, out=v_min)
            min_trace[k] = v.min(axis=1)
            if probes.size:
                probe_wave[k] = v[:, probes].T

        # Settle reference: the exact DC solution under the last
        # sample's load (simulate_step's post-step level), or the last
        # sample itself.
        v_final = dc_voltages(negated_load(samples - 1)) if dc_settle else v

        band = (
            settle_band_v
            if settle_band_v is not None
            else 0.02 * float(np.abs(volt).max())
        )
        time = np.arange(samples) * st.dt_s
        shape = (self.ny, self.nx)
        results: list[GridTransientResult] = []
        for t in range(n_traces):
            droop_map = np.clip(v_pre[t] - v_min[t], 0.0, None)
            _, settle = droop_and_settle(
                time,
                min_trace[:, t],
                float(min_trace[0, t]),
                float(v_final[t].min()),
                band,
            )
            results.append(
                GridTransientResult(
                    time_s=time,
                    v_pre_map=v_pre[t].reshape(shape).copy(),
                    v_min_map=v_min[t].reshape(shape).copy(),
                    v_final_map=v_final[t].reshape(shape).copy(),
                    min_voltage_trace_v=min_trace[:, t].copy(),
                    probe_rows=probe_rows,
                    probe_voltages_v=probe_wave[:, :, t].copy(),
                    droop_v=float(droop_map.max()),
                    settle_time_s=settle,
                    engine=mode,
                )
            )
        return results
