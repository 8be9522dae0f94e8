"""2-D lateral grid PDN model.

Discretizes one polarity of a metal layer (interposer RDL or the die
BEOL grid) over the die area into an ``nx x ny`` node mesh.  Adjacent
nodes are connected by resistors derived from the layer's sheet
resistance; POL sinks come from a :class:`~repro.pdn.powermap.PowerMap`
and regulator outputs attach as voltage sources with a series output
resistance at arbitrary grid positions.

Loss accounting convention: the grid models ONE polarity.  For a
symmetric power + ground pair the reported lateral loss is doubled via
``rail_pair_factor`` (default 2.0).

Solving is array-native: the mesh is assembled directly into a
:class:`~repro.pdn.network.CompiledNetlist` (vectorized edge
construction, no per-element Python objects) and the sparse LU
factorization is cached on the grid, so repeated solves that only
change the sink map or the source voltages — load sweeps, Monte-Carlo
scenarios, droop-setpoint studies — pay back-substitution cost only.
Attaching/removing sources or the ring bus changes the topology and
transparently refactorizes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import ConfigError, SolverError
from .ac import (
    _DENSE_BATCH_ENTRIES,
    ACSweepSolution,
    CompiledACNetlist,
    check_frequencies,
    shared_csc_pattern,
)
from .fast_poisson import (
    StructuredGridPDN,
    StructuredSolveError,
    dct2_basis,
    poisson_mode_eigenvalues,
)
from .impedance import ImpedanceProfile
from .mna import (
    SINGULARITY_PROBE_TOL,
    DCSolution,
    FactorizedPDN,
    singularity_probe,
)
from .network import (
    GROUND_INDEX,
    CompiledNetlist,
    Netlist,
    admittance_stamp_entries,
)
from .powermap import PowerMap


def mesh_edge_rows(nx: int, ny: int) -> tuple[np.ndarray, ...]:
    """Endpoint row indices of a rectangular mesh's edges.

    Grid node ``(ix, iy)`` occupies row ``iy * nx + ix``; returns
    ``(x_a, x_b, y_a, y_b)`` — the endpoint arrays of the x-direction
    and y-direction edges.  Degenerate axes (``nx == 1`` or
    ``ny == 1``, the 1-D chains the AC ladder cross-checks use) simply
    produce empty edge arrays.  Shared by the DC and AC mesh
    assemblers so both stamp the identical lateral topology.
    """
    rows = np.arange(nx * ny, dtype=np.int64).reshape(ny, nx)
    return (
        rows[:, :-1].ravel(),
        rows[:, 1:].ravel(),
        rows[:-1, :].ravel(),
        rows[1:, :].ravel(),
    )


@dataclass(frozen=True)
class GridSolution:
    """Solved grid operating point.

    Attributes:
        dc: raw MNA solution.
        source_currents_a: output current of each attached source, in
            attachment order.
        lateral_loss_w: I²R loss in the grid metal for the rail pair.
        source_loss_w: I²R loss inside the sources' output resistances
            (not part of interconnect loss; useful for diagnostics).
        voltage_map: node voltages as an (ny, nx) array.
        grid_edge_currents_a: signed current through each mesh edge
            (x edges then y edges), when solved via the fast path.
    """

    dc: DCSolution
    source_currents_a: np.ndarray
    lateral_loss_w: float
    source_loss_w: float
    voltage_map: np.ndarray
    grid_edge_currents_a: np.ndarray | None = None

    @property
    def worst_droop_v(self) -> float:
        """Difference between the best and worst node voltages."""
        return float(self.voltage_map.max() - self.voltage_map.min())

    def edge_current_stats(self) -> dict[str, float]:
        """Grid-edge current statistics (lateral EM screening).

        Returns max/mean absolute edge current in amperes.  Combined
        with the metal cross-section per strip, this is the lateral
        electromigration check that complements the per-element
        ratings on the vertical arrays.
        """
        if self.grid_edge_currents_a is not None:
            edge_currents = np.abs(self.grid_edge_currents_a)
        else:
            # Name-keyed fallback for externally-constructed solutions.
            edge_currents = np.abs(
                np.array(
                    [
                        current
                        for name, current in self.dc.resistor_currents.items()
                        if name.startswith("grid.")
                    ]
                )
            )
        if not edge_currents.size:
            return {"max_a": 0.0, "mean_a": 0.0}
        return {
            "max_a": float(edge_currents.max()),
            "mean_a": float(edge_currents.mean()),
        }


#: ``engine="auto"`` meshes at or above this cell count solve through
#: the structured (fast-Poisson) engine; smaller meshes stay on the
#: cached sparse LU, whose warm back-substitutions are already cheap
#: and whose cold factorization only starts to hurt past this size.
STRUCTURED_AUTO_MIN_CELLS = 4096


@dataclass
class _GridStructure:
    """Cached assembly (and, lazily, factorization) of one topology.

    ``key`` captures everything that shapes the MNA matrix (mesh
    resistances, source attachment points and output resistances, ring
    bus, per-edge variation).  Sink currents and source voltages are
    RHS-only and do not participate.  Both engines are created on
    first use: the sparse LU factorization so that
    :meth:`GridPDN.compile` can hand out the array form without paying
    for (or duplicating) an LU decomposition, and the structured
    fast-Poisson engine so that factorized-only workloads never pay
    for transforms.
    """

    key: tuple
    compiled: CompiledNetlist
    grid_edge_count: int
    lateral_count: int  # grid edges + ring segments
    fast_spec: dict | None = None
    _solver: FactorizedPDN | None = None
    _fast: StructuredGridPDN | None = None

    @property
    def solver(self) -> FactorizedPDN:
        if self._solver is None:
            # Route through the process-wide content-hashed cache so
            # grid rebuilds of the same topology (sweep workers, CLI
            # re-runs) share one LU factorization.  Lazy import: the
            # parallel layer sits above pdn in the dependency graph.
            from ..parallel.cache import get_factorized

            self._solver = get_factorized(self.compiled)
        return self._solver

    @property
    def fast(self) -> StructuredGridPDN:
        if self._fast is None:
            self._fast = StructuredGridPDN(
                compiled=self.compiled, **self.fast_spec
            )
        return self._fast


class GridPDN:
    """A rectangular one-polarity PDN grid over the die area.

    Args:
        width_m: die width (x extent).
        height_m: die height (y extent).
        sheet_ohm_sq: sheet resistance of the modeled metal stack.
        nx, ny: node counts in x and y (>= 2 each).
        rail_pair_factor: multiply lateral loss by this factor to
            account for the return (ground) network; 2.0 assumes a
            symmetric ground grid.
        engine: DC solve engine — ``"auto"`` (structured fast-Poisson
            at or above :data:`STRUCTURED_AUTO_MIN_CELLS` cells with a
            transparent sparse-LU fallback, cached LU below),
            ``"structured"`` (force the fast path; raises
            :class:`~repro.pdn.fast_poisson.StructuredSolveError` when
            it cannot converge), or ``"factorized"`` (force the exact
            sparse-LU oracle).
    """

    _ENGINES = ("auto", "structured", "factorized")

    def __init__(
        self,
        width_m: float,
        height_m: float,
        sheet_ohm_sq: float,
        nx: int = 24,
        ny: int = 24,
        rail_pair_factor: float = 2.0,
        engine: str = "auto",
    ) -> None:
        if width_m <= 0 or height_m <= 0:
            raise ConfigError("grid extents must be positive")
        if sheet_ohm_sq <= 0:
            raise ConfigError("sheet resistance must be positive")
        if nx < 2 or ny < 2:
            raise ConfigError("grid needs at least 2x2 nodes")
        if rail_pair_factor < 1.0:
            raise ConfigError("rail pair factor must be >= 1")
        self.width_m = width_m
        self.height_m = height_m
        self.sheet_ohm_sq = sheet_ohm_sq
        self.nx = nx
        self.ny = ny
        self.rail_pair_factor = rail_pair_factor
        if engine not in self._ENGINES:
            raise ConfigError(
                f"unknown solve engine {engine!r}; expected one of "
                f"{', '.join(self._ENGINES)}"
            )
        self.engine = engine
        self._sources: list[tuple[str, int, int, float, float]] = []
        self._sink_map: np.ndarray | None = None
        self._ring_bus_ohm: float | None = None
        self._edge_scale_x: np.ndarray | None = None
        self._edge_scale_y: np.ndarray | None = None
        self._mesh_edges_cache: tuple[np.ndarray, ...] | None = None
        self._structure: _GridStructure | None = None
        self._topology_dirty = True

    # -- construction ---------------------------------------------------------

    def set_sinks(self, power_map: PowerMap, total_current_a: float) -> None:
        """Attach POL sinks from a power map (replaces existing sinks)."""
        self._sink_map = power_map.cell_currents(
            self.nx, self.ny, total_current_a
        )

    def set_sink_array(self, cell_currents: np.ndarray) -> None:
        """Attach POL sinks from an explicit (ny, nx) current array."""
        arr = np.asarray(cell_currents, dtype=float)
        if arr.shape != (self.ny, self.nx):
            raise ConfigError(
                f"sink array must be shaped ({self.ny}, {self.nx})"
            )
        if np.any(arr < 0):
            raise ConfigError("sink currents must be non-negative")
        self._sink_map = arr

    def add_source(
        self,
        name: str,
        x_frac: float,
        y_frac: float,
        voltage_v: float,
        output_resistance_ohm: float,
    ) -> None:
        """Attach a regulator output at fractional die coordinates.

        Sources snap to the nearest grid node.  ``output_resistance_ohm``
        must be positive — it regularizes the solve and models the
        converter's finite output impedance.
        """
        if not 0.0 <= x_frac <= 1.0 or not 0.0 <= y_frac <= 1.0:
            raise ConfigError("source position must be inside the die")
        if output_resistance_ohm <= 0:
            raise ConfigError("source output resistance must be positive")
        if any(existing == name for existing, *_ in self._sources):
            raise ConfigError(f"duplicate source name: {name!r}")
        ix = min(int(round(x_frac * (self.nx - 1))), self.nx - 1)
        iy = min(int(round(y_frac * (self.ny - 1))), self.ny - 1)
        self._sources.append(
            (name, ix, iy, voltage_v, output_resistance_ohm)
        )
        self._topology_dirty = True

    def clear_sources(self) -> None:
        """Remove all attached sources."""
        self._sources.clear()
        self._ring_bus_ohm = None
        self._topology_dirty = True

    def connect_sources_with_ring_bus(self, segment_resistance_ohm: float) -> None:
        """Join consecutive sources with a dedicated ring bus.

        Periphery VR rings share a contiguous low-impedance metal ring
        (the embedded passive/output ring of Fig. 5(a)), which
        equalizes their load sharing; under-die VRs have no such bus.
        Segments connect sources in attachment order (and close the
        loop), each with the given one-polarity resistance.
        """
        if segment_resistance_ohm <= 0:
            raise ConfigError("ring segment resistance must be positive")
        if len(self._sources) < 3:
            raise ConfigError("a ring bus needs at least three sources")
        self._ring_bus_ohm = segment_resistance_ohm
        self._topology_dirty = True

    @property
    def source_names(self) -> list[str]:
        """Names of attached sources in attachment order."""
        return [s[0] for s in self._sources]

    def set_edge_resistance_scale(
        self, x_scale=None, y_scale=None
    ) -> None:
        """Apply per-edge metal-variation multipliers to the mesh.

        ``x_scale`` (shape ``(ny, nx-1)``) and ``y_scale`` (shape
        ``(ny-1, nx)``) multiply the nominal per-edge resistances —
        line-width/thickness variation, partially depopulated straps,
        or localized metal cheese.  Factors must be positive; pass
        ``None`` (the default) for either axis to restore uniform
        metal.  Non-uniform meshes solve through fast-Poisson-
        preconditioned CG on the structured engine, or exactly through
        the factorized engine.
        """

        def as_scale(value, shape, label: str) -> np.ndarray | None:
            if value is None:
                return None
            arr = np.asarray(value, dtype=float)
            if arr.shape != shape:
                raise ConfigError(
                    f"{label} edge scale must be shaped {shape}"
                )
            if not np.all(arr > 0):
                raise ConfigError(
                    f"{label} edge scale factors must be positive"
                )
            return arr.copy()

        self._edge_scale_x = as_scale(
            x_scale, (self.ny, self.nx - 1), "x"
        )
        self._edge_scale_y = as_scale(
            y_scale, (self.ny - 1, self.nx), "y"
        )
        self._topology_dirty = True

    # -- edge resistances -------------------------------------------------------

    @property
    def edge_resistance_x_ohm(self) -> float:
        """Resistance of one x-direction edge (R_sq * dx / dy_strip)."""
        dx = self.width_m / (self.nx - 1)
        strip = self.height_m / self.ny
        return self.sheet_ohm_sq * dx / strip

    @property
    def edge_resistance_y_ohm(self) -> float:
        """Resistance of one y-direction edge."""
        dy = self.height_m / (self.ny - 1)
        strip = self.width_m / self.nx
        return self.sheet_ohm_sq * dy / strip

    # -- solving -----------------------------------------------------------------

    def build_netlist(self) -> Netlist:
        """Assemble the netlist for the current sinks and sources."""
        if self._sink_map is None:
            raise ConfigError("no sinks attached; call set_sinks first")
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        netlist = Netlist()
        rx = self.edge_resistance_x_ohm
        ry = self.edge_resistance_y_ohm

        def node(ix: int, iy: int) -> tuple[str, int, int]:
            return ("g", ix, iy)

        sx = self._edge_scale_x
        sy = self._edge_scale_y
        for iy in range(self.ny):
            for ix in range(self.nx):
                if ix + 1 < self.nx:
                    netlist.add_resistor(
                        f"grid.x[{ix},{iy}]",
                        node(ix, iy),
                        node(ix + 1, iy),
                        rx if sx is None else rx * sx[iy, ix],
                    )
                if iy + 1 < self.ny:
                    netlist.add_resistor(
                        f"grid.y[{ix},{iy}]",
                        node(ix, iy),
                        node(ix, iy + 1),
                        ry if sy is None else ry * sy[iy, ix],
                    )

        # Sinks: cell (i,j) current attached to its node.
        for iy in range(self.ny):
            for ix in range(self.nx):
                current = float(self._sink_map[iy, ix])
                if current > 0.0:
                    netlist.add_load(
                        f"sink[{ix},{iy}]", node(ix, iy), current
                    )

        for name, ix, iy, voltage, r_out in self._sources:
            netlist.add_source_with_impedance(
                f"src.{name}", node(ix, iy), voltage, r_out
            )

        if self._ring_bus_ohm is not None:
            count = len(self._sources)
            for k in range(count):
                _, ix_a, iy_a, _, _ = self._sources[k]
                _, ix_b, iy_b, _, _ = self._sources[(k + 1) % count]
                if (ix_a, iy_a) == (ix_b, iy_b):
                    continue
                netlist.add_resistor(
                    f"ring[{k}]",
                    node(ix_a, iy_a),
                    node(ix_b, iy_b),
                    self._ring_bus_ohm,
                )
        return netlist

    # -- vectorized assembly / cached factorization ------------------------------

    def _mesh_edges(self) -> tuple[np.ndarray, ...]:
        """Mesh edge endpoints as row-index arrays (x edges, y edges).

        Grid node (ix, iy) occupies row ``iy * nx + ix``; the arrays
        depend only on (nx, ny) and are computed once per grid.
        """
        if self._mesh_edges_cache is None:
            self._mesh_edges_cache = mesh_edge_rows(self.nx, self.ny)
        return self._mesh_edges_cache

    def _ring_segments(self) -> list[tuple[int, int, int]]:
        """Ring-bus segments as (k, row_a, row_b), degenerates skipped."""
        if self._ring_bus_ohm is None:
            return []
        segments: list[tuple[int, int, int]] = []
        count = len(self._sources)
        for k in range(count):
            _, ix_a, iy_a, _, _ = self._sources[k]
            _, ix_b, iy_b, _, _ = self._sources[(k + 1) % count]
            if (ix_a, iy_a) == (ix_b, iy_b):
                continue
            segments.append((k, iy_a * self.nx + ix_a, iy_b * self.nx + ix_b))
        return segments

    def _structure_key(self) -> tuple:
        return (
            self.edge_resistance_x_ohm,
            self.edge_resistance_y_ohm,
            tuple((name, ix, iy, r_out) for name, ix, iy, _, r_out in self._sources),
            self._ring_bus_ohm,
            None if self._edge_scale_x is None else self._edge_scale_x.tobytes(),
            None if self._edge_scale_y is None else self._edge_scale_y.tobytes(),
        )

    def _build_structure(self, key: tuple) -> _GridStructure:
        nx, ny = self.nx, self.ny
        cells = nx * ny
        x_a, x_b, y_a, y_b = self._mesh_edges()
        rx = self.edge_resistance_x_ohm
        ry = self.edge_resistance_y_ohm
        sources = list(self._sources)
        segments = self._ring_segments()

        emf_rows = cells + np.arange(len(sources), dtype=np.int64)
        attach_rows = np.array(
            [iy * nx + ix for _, ix, iy, _, _ in sources], dtype=np.int64
        )
        ring_a = np.array([a for _, a, _ in segments], dtype=np.int64)
        ring_b = np.array([b for _, _, b in segments], dtype=np.int64)

        res_a = np.concatenate([x_a, y_a, ring_a, emf_rows])
        res_b = np.concatenate([x_b, y_b, ring_b, attach_rows])
        r_x = np.full(x_a.size, rx)
        r_y = np.full(y_a.size, ry)
        if self._edge_scale_x is not None:
            r_x *= self._edge_scale_x.ravel()
        if self._edge_scale_y is not None:
            r_y *= self._edge_scale_y.ravel()
        res_ohm = np.concatenate(
            [
                r_x,
                r_y,
                np.full(len(segments), self._ring_bus_ohm or 0.0),
                np.array([r_out for *_, r_out in sources]),
            ]
        )

        def resistor_names() -> list[str]:
            names = [
                f"grid.x[{ix},{iy}]"
                for iy in range(ny)
                for ix in range(nx - 1)
            ]
            names += [
                f"grid.y[{ix},{iy}]"
                for iy in range(ny - 1)
                for ix in range(nx)
            ]
            names += [f"ring[{k}]" for k, _, _ in segments]
            names += [f"src.{name}.rout" for name, *_ in sources]
            return names

        def sink_names() -> list[str]:
            return [
                f"sink[{ix},{iy}]" for iy in range(ny) for ix in range(nx)
            ]

        def node_ids() -> tuple:
            return tuple(
                ("g", ix, iy) for iy in range(ny) for ix in range(nx)
            ) + tuple((f"src.{name}", "emf") for name, *_ in sources)

        compiled = CompiledNetlist(
            nodes=node_ids,
            n_nodes=cells + len(sources),
            res_a=res_a,
            res_b=res_b,
            res_ohm=res_ohm,
            cs_from=np.arange(cells, dtype=np.int64),
            cs_to=np.full(cells, GROUND_INDEX, dtype=np.int64),
            cs_amp=np.zeros(cells),
            vs_plus=emf_rows,
            vs_minus=np.full(len(sources), GROUND_INDEX, dtype=np.int64),
            vs_volt=np.zeros(len(sources)),
            res_names=resistor_names,
            cs_names=sink_names,
            vs_names=tuple(f"src.{name}.v" for name, *_ in sources),
        )
        grid_edge_count = x_a.size + y_a.size
        fast_spec = dict(
            nx=nx,
            ny=ny,
            edge_conductance_x=1.0 / rx,
            edge_conductance_y=1.0 / ry,
            attach_rows=attach_rows,
            source_conductance=np.array(
                [1.0 / r_out for *_, r_out in sources]
            ),
            ring_a=ring_a,
            ring_b=ring_b,
            ring_conductance=np.full(
                len(segments), 1.0 / (self._ring_bus_ohm or 1.0)
            ),
            edge_scale_x=self._edge_scale_x,
            edge_scale_y=self._edge_scale_y,
        )
        return _GridStructure(
            key=key,
            compiled=compiled,
            grid_edge_count=grid_edge_count,
            lateral_count=grid_edge_count + len(segments),
            fast_spec=fast_spec,
        )

    def _ensure_structure(self) -> _GridStructure:
        # The key is only recomputed after a topology mutator ran:
        # steady-state sweep loops (N-1 scenarios, sink sweeps) skip
        # the per-solve key construction entirely.
        if self._structure is None or self._topology_dirty:
            key = self._structure_key()
            if self._structure is None or self._structure.key != key:
                self._structure = self._build_structure(key)
            self._topology_dirty = False
        return self._structure

    def compile(self) -> CompiledNetlist:
        """The grid as a compiled netlist with current sinks/voltages."""
        if self._sink_map is None:
            raise ConfigError("no sinks attached; call set_sinks first")
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        return self._ensure_structure().compiled.with_sources(
            cs_amp=np.ascontiguousarray(self._sink_map, dtype=float).ravel(),
            vs_volt=np.array([s[3] for s in self._sources]),
        )

    def _resolve_engine(self) -> str:
        """The engine this solve will try first."""
        if self.engine != "auto":
            return self.engine
        return (
            "structured"
            if self.nx * self.ny >= STRUCTURED_AUTO_MIN_CELLS
            else "factorized"
        )

    def _structured_call(self, structure: _GridStructure, run, fallback):
        """Run ``run`` on the structured engine, falling back to
        ``fallback`` (the factorized path) under ``engine="auto"``
        when the structured solve cannot converge."""
        try:
            return run(structure.fast)
        except StructuredSolveError:
            if self.engine == "structured":
                raise
            return fallback()

    def solve(self, check: bool = True) -> GridSolution:
        """Solve the grid and return per-source currents and losses.

        The engine-selection layer (see the ``engine`` constructor
        argument) picks between the structured fast-Poisson path and
        the cached sparse LU.  Either way the first solve of a
        topology pays the setup (transform columns or factorization);
        later solves with the same topology (possibly new sink maps or
        source voltages) reuse it.
        """
        structure, sinks, volts = self._solve_inputs()
        if self._resolve_engine() == "structured":
            dc = self._structured_call(
                structure,
                lambda fast: fast.solve(sinks, volts, check=check),
                lambda: structure.solver.solve(
                    cs_amp=sinks, vs_volt=volts, check=check
                ),
            )
        else:
            dc = structure.solver.solve(
                cs_amp=sinks, vs_volt=volts, check=check
            )
        return self._package_solution(structure, dc, sinks)

    def solve_many(
        self, sink_maps, check: bool = True
    ) -> list[GridSolution]:
        """Solve a stack of sink scenarios against one topology.

        ``sink_maps`` is an iterable of ``(ny, nx)`` arrays (or an
        ``(k, ny, nx)`` stack); source voltages stay as attached.  On
        the structured engine the whole stack shares one batched
        transform pair; on the factorized engine it shares the cached
        LU.  Returns one :class:`GridSolution` per scenario.
        """
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        stack = np.asarray(sink_maps, dtype=float)
        if stack.ndim == 2 and stack.shape == (self.ny, self.nx):
            stack = stack[None]
        if stack.ndim != 3 or stack.shape[1:] != (self.ny, self.nx):
            raise ConfigError(
                "sink maps must be a stack of "
                f"({self.ny}, {self.nx}) arrays"
            )
        if np.any(stack < 0):
            raise ConfigError("sink currents must be non-negative")
        structure = self._ensure_structure()
        volts = np.array([s[3] for s in self._sources])
        flat = np.ascontiguousarray(stack).reshape(
            stack.shape[0], self.nx * self.ny
        )

        def factorized() -> list[DCSolution]:
            return [
                structure.solver.solve(
                    cs_amp=row, vs_volt=volts, check=check
                )
                for row in flat
            ]

        if self._resolve_engine() == "structured":
            solved = self._structured_call(
                structure,
                lambda fast: fast.solve_many(flat, volts, check=check),
                factorized,
            )
        else:
            solved = factorized()
        return [
            self._package_solution(structure, dc, row)
            for dc, row in zip(solved, flat)
        ]

    def solve_disabled(
        self,
        disabled_sources: "tuple[int, ...] | list[int] | np.ndarray",
        check: bool = True,
        method: str = "auto",
    ) -> GridSolution:
        """Solve with a subset of the attached sources disabled.

        A disabled source's branch current is forced to zero (an
        open-circuited regulator: its output resistor and ring tap
        stay in the metal but carry nothing), expressed as a rank-k
        Woodbury correction on the *shared* factorization — an N−1/N−k
        sweep pays one factorization for the whole bank and k+1
        back-substitutions per scenario.  Indices follow attachment
        order; disabled sources report exactly 0 A.  ``method`` is
        forwarded to :meth:`~repro.pdn.mna.FactorizedPDN.solve_modified`
        (``"auto"`` falls back to refactorization when the correction
        is ill-conditioned).
        """
        indices = self._normalize_disabled(disabled_sources)
        structure, sinks, volts = self._solve_inputs()

        def factorized() -> DCSolution:
            return structure.solver.solve_modified(
                disable_sources=indices,
                cs_amp=sinks,
                vs_volt=volts,
                check=check,
                method=method,
            )

        if self._resolve_engine() == "structured":
            dc = self._structured_call(
                structure,
                lambda fast: fast.solve(
                    sinks, volts, check=check, disable_sources=indices
                ),
                factorized,
            )
        else:
            dc = factorized()
        return self._package_disabled(structure, dc, sinks, indices)

    def solve_disabled_many(
        self,
        scenarios: "list | tuple",
        check: bool = True,
        method: str = "auto",
    ) -> list[GridSolution]:
        """Solve a whole failure sweep with batched back-substitutions.

        Each scenario is a tuple of source indices to disable
        (:meth:`solve_disabled` semantics).  All scenarios share one
        factorization, and the influence columns, modified right-hand
        sides, and refinement round are stacked through
        :meth:`~repro.pdn.mna.FactorizedPDN.solve_modified_many`, so
        an exhaustive N−k enumeration pays three batched solves for
        the entire sweep.
        """
        normalized = [
            self._normalize_disabled(scenario) for scenario in scenarios
        ]
        structure, sinks, volts = self._solve_inputs()

        def factorized() -> list[DCSolution]:
            return structure.solver.solve_modified_many(
                [(indices, ()) for indices in normalized],
                cs_amp=sinks,
                vs_volt=volts,
                check=check,
                method=method,
            )

        if self._resolve_engine() == "structured":
            solved = self._structured_call(
                structure,
                lambda fast: fast.solve_disabled_many(
                    normalized, sinks, volts, check=check
                ),
                factorized,
            )
        else:
            solved = factorized()
        return [
            self._package_disabled(structure, dc, sinks, indices)
            for indices, dc in zip(normalized, solved)
        ]

    def _normalize_disabled(self, disabled_sources) -> tuple[int, ...]:
        """Validate one disable scenario's source indices."""
        indices = tuple(int(i) for i in disabled_sources)
        if any(i < 0 or i >= len(self._sources) for i in indices):
            raise ConfigError("disabled source index out of range")
        if len(set(indices)) >= len(self._sources):
            raise ConfigError("cannot disable every source")
        return indices

    def _package_disabled(
        self,
        structure: _GridStructure,
        dc: DCSolution,
        sinks: np.ndarray,
        indices: tuple[int, ...],
    ) -> GridSolution:
        solution = self._package_solution(structure, dc, sinks)
        # The dead rout branches carry only O(eps) numerical residue.
        solution.source_currents_a[list(set(indices))] = 0.0
        return solution

    def preload_failure_sweep(
        self,
        indices: "tuple[int, ...] | list[int] | range | None" = None,
    ) -> None:
        """Warm everything an N−1/N−k sweep needs in batched calls.

        Factorizes the full attached topology (if not already cached)
        and back-substitutes the influence columns for the given
        source indices (default: all) in one call, so each subsequent
        :meth:`solve_disabled` scenario pays only two
        back-substitutions.
        """
        structure, _, _ = self._solve_inputs()
        structure.solver.preload_source_influence(indices)

    def _solve_inputs(self) -> tuple[_GridStructure, np.ndarray, np.ndarray]:
        """Validate attachments and gather the per-scenario RHS data."""
        if self._sink_map is None:
            raise ConfigError("no sinks attached; call set_sinks first")
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        structure = self._ensure_structure()
        sinks = np.ascontiguousarray(self._sink_map, dtype=float).ravel()
        volts = np.array([s[3] for s in self._sources])
        return structure, sinks, volts

    def _package_solution(
        self,
        structure: _GridStructure,
        dc: DCSolution,
        sinks: np.ndarray,
    ) -> GridSolution:
        losses = dc.resistor_loss_array
        branch_currents = dc.resistor_current_array
        currents = branch_currents[structure.lateral_count :].copy()
        total_sink = float(sinks.sum())
        if abs(currents.sum() - total_sink) > 1e-6 * max(total_sink, 1.0):
            raise SolverError(
                "source currents do not sum to the load current: "
                f"{currents.sum():.6f} vs {total_sink:.6f}"
            )

        lateral = (
            losses[: structure.lateral_count].sum() * self.rail_pair_factor
        )
        source_loss = losses[structure.lateral_count :].sum()
        voltage_map = (
            dc.node_voltage_array[: self.nx * self.ny]
            .reshape(self.ny, self.nx)
            .copy()
        )
        return GridSolution(
            dc=dc,
            source_currents_a=currents,
            lateral_loss_w=float(lateral),
            source_loss_w=float(source_loss),
            voltage_map=voltage_map,
            grid_edge_currents_a=branch_currents[: structure.grid_edge_count],
        )


# -- grid-level AC ----------------------------------------------------------------


@dataclass(frozen=True)
class GridImpedanceMap:
    """Per-node die-seen impedance Z(f) over the mesh.

    Attributes:
        frequencies_hz: the sweep grid.
        z_ohm: complex self-impedance per node, shape
            ``(n_nodes, n_freqs)`` with node ``(ix, iy)`` in row
            ``iy * nx + ix``.
        nx, ny: mesh dimensions.
    """

    frequencies_hz: np.ndarray
    z_ohm: np.ndarray
    nx: int
    ny: int

    @property
    def impedance_ohm(self) -> np.ndarray:
        """|Z| per node, shape ``(n_nodes, n_freqs)``."""
        return np.abs(self.z_ohm)

    def node_profile(self, ix: int, iy: int) -> ImpedanceProfile:
        """The |Z(f)| profile seen at one mesh node."""
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ConfigError("node index outside the mesh")
        return ImpedanceProfile(
            frequencies_hz=self.frequencies_hz,
            impedance_ohm=np.abs(self.z_ohm[iy * self.nx + ix]),
        )

    def peak_map(self) -> np.ndarray:
        """Per-node worst |Z| over the sweep as an (ny, nx) array."""
        return (
            np.abs(self.z_ohm).max(axis=1).reshape(self.ny, self.nx)
        )

    @property
    def peak_impedance_ohm(self) -> float:
        """The worst |Z| over all nodes and frequencies."""
        return float(np.abs(self.z_ohm).max())

    @property
    def peak_frequency_hz(self) -> float:
        """Frequency of the overall worst |Z|."""
        return float(
            self.frequencies_hz[
                int(np.argmax(np.abs(self.z_ohm).max(axis=0)))
            ]
        )

    def worst_node(self) -> tuple[int, int]:
        """``(ix, iy)`` of the node with the largest peak |Z|."""
        flat = int(np.argmax(np.abs(self.z_ohm).max(axis=1)))
        return flat % self.nx, flat // self.nx

    def worst_profile(self) -> ImpedanceProfile:
        """The |Z(f)| profile of the worst node."""
        return self.node_profile(*self.worst_node())

    def meets_target(self, target_ohm: float) -> bool:
        """True if every node stays at or below the target everywhere."""
        if target_ohm <= 0:
            raise ConfigError("target impedance must be positive")
        return bool(
            np.all(np.abs(self.z_ohm) <= target_ohm * (1 + 1e-12))
        )

    def violating_node_fraction(self, target_ohm: float) -> float:
        """Fraction of mesh nodes whose peak |Z| exceeds the target.

        Uses the same rounding tolerance as :meth:`meets_target`, so a
        map that "meets target" always reports zero violating nodes.
        """
        if target_ohm <= 0:
            raise ConfigError("target impedance must be positive")
        peaks = np.abs(self.z_ohm).max(axis=1)
        violating = peaks > target_ohm * (1 + 1e-12)
        return float(np.count_nonzero(violating) / peaks.size)


@dataclass(frozen=True)
class GridACSweepSolution:
    """Driven phasor sweep of the mesh (sources live, sinks as AC loads).

    Attributes:
        sweep: the underlying node-voltage sweep (mesh nodes first in
            row order, then internal branch nodes).
        nx, ny: mesh dimensions.
    """

    sweep: ACSweepSolution
    nx: int
    ny: int

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.sweep.frequencies_hz

    @property
    def voltage_maps(self) -> np.ndarray:
        """Complex mesh node voltages, shape ``(n_freqs, ny, nx)``."""
        cells = self.nx * self.ny
        return self.sweep.voltage_matrix[:, :cells].reshape(
            -1, self.ny, self.nx
        )

    def magnitude_map(self, index: int) -> np.ndarray:
        """|V| over the mesh at sweep point ``index``."""
        return np.abs(self.voltage_maps[index])


@dataclass
class _ReducedACStructure:
    """Compile-once pattern of the reduced (node-only) AC system.

    Decap chains and source output branches are folded analytically
    into per-node shunt admittances and series edges into complex edge
    admittances, so the matrix is ``n_cells`` square at any frequency.
    ``rev`` tags the topology revision this structure was built for.
    """

    rev: int
    edge_r: np.ndarray  # per-edge series resistance (mesh + ring)
    edge_l: np.ndarray  # per-edge series inductance
    entry_rows: np.ndarray
    entry_cols: np.ndarray
    entry_edge: np.ndarray  # edge index per off/diagonal edge entry
    entry_sign: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    csc_rows: np.ndarray
    csc_cols: np.ndarray
    indptr: np.ndarray


@dataclass
class _SpectralACStructure:
    """Eigenbasis of ``G x = λ D_α x`` for the fast impedance map.

    Valid when the mesh metal is purely resistive and the decap model
    is a positive per-node *density* of one unit cell: the system is
    ``A(ω) = G + y_u(ω) D_α + U Y(ω) Uᵀ`` with ``G`` constant, so one
    generalized eigendecomposition turns every frequency into diagonal
    updates plus a rank-s (source-branch) Woodbury correction.
    """

    rev: int
    lam: np.ndarray  # generalized eigenvalues (n,)
    q: np.ndarray  # eigenvectors, Qᵀ D_α Q = I
    q_sq: np.ndarray  # Q ∘ Q, for diag(M⁻¹) gathers
    p: np.ndarray  # Qᵀ U, shape (n, s)
    attach: np.ndarray  # source attach rows (s,)
    rout: np.ndarray  # per-source output resistance (s,)
    l_src: np.ndarray  # per-source series inductance (s,)
    unit_c: float
    unit_esr: float
    unit_esl: float


@dataclass
class _StructuredACStructure:
    """DCT eigenstructure of the uniform-density reduced AC system.

    Valid when the mesh metal is purely resistive and every node
    carries the *same* positive decap density: the reduced system is
    ``A(ω) = G_mesh + α·y_u(ω)·I + U Y(ω) Uᵀ`` with ``G_mesh`` the
    uniform mesh Laplacian, diagonal in the 2-D DCT-II basis.  Then
    ``diag(M⁻¹)`` is two small GEMMs over squared basis tables per
    frequency chunk, and the source/ring branches are a rank-k
    Woodbury correction whose influence columns come back through one
    batched inverse transform — no eigendecomposition, no LU, ever.
    """

    rev: int
    lam: np.ndarray  # mesh Laplacian modal eigenvalues, (cells,)
    tau: float  # zero-mode deflation shift folded into lam[0]
    bx_sq: np.ndarray  # squared DCT basis, (nx_modes, nx_nodes)
    by_sq: np.ndarray
    u_hat: np.ndarray  # DCT of the branch columns, (cells, k)
    alpha: float  # uniform decap density
    unit_c: float
    unit_esr: float
    unit_esl: float
    rout: np.ndarray
    l_src: np.ndarray
    ring_g: np.ndarray  # ring segment conductances, appended to k


@dataclass
class _SelinvPlan:
    """Block-tridiagonal layout of the reduced AC system.

    The reduced graph (mesh edges plus ring segments; decap and source
    branches are diagonal shunts) is split into breadth-first level
    sets, so every coupling lies inside a level or between neighbouring
    levels and ``A(ω)`` is block tridiagonal in level order.  Levels are
    padded to one ``width`` with unit diagonal slots that couple to
    nothing.  Each ``*_dst``/``*_src`` pair scatters reduced CSC values
    straight into the stacked dense blocks; the blocks below the
    diagonal are not stored because ``A`` is complex symmetric.  The
    coupling blocks carry one extra column for a right-hand side.
    """

    rev: int
    levels: int
    width: int
    slot: np.ndarray  # per node: level * width + position in its level
    diag_dst: np.ndarray  # flat index into (levels, width, width)
    diag_src: np.ndarray  # index into the reduced CSC data
    upper_dst: np.ndarray  # flat index into (levels, width, width + 1)
    upper_src: np.ndarray
    pad_dst: np.ndarray  # flat diagonal index of every padding slot


class GridACPDN:
    """Grid-level AC impedance analysis of the die/interposer mesh.

    The AC counterpart of :class:`GridPDN`: the same rectangular
    one-polarity mesh, extended with per-node decoupling capacitors
    (C + ESR + ESL), per-edge metal inductance, and VR output branches
    (Thevenin source + output resistance + bump/TSV inductance).  Two
    analysis surfaces:

    * :meth:`impedance_map` — the die-seen self-impedance Z(f) at
      *every* mesh node (sources zeroed, 1 A probe per node), the
      frequency-domain companion of the DC IR-drop map.
    * :meth:`solve` — the driven phasor sweep (sources live, sink map
      as AC load magnitudes), whose low-frequency limit converges to
      the :class:`GridPDN` DC solution.

    Everything is compiled once per topology and revalued per
    frequency: the driven path stamps straight into a
    :class:`~repro.pdn.ac.CompiledACNetlist` (array assembly, shared
    CSC pattern, batched solves), and the impedance map runs on a
    *reduced* node-only system — decap chains and source branches fold
    into per-node shunt admittances — solved by the DCT-diagonalized
    ``structured`` engine when the decap density is uniform and by
    exact block-tridiagonal selected inversion (``selinv``) otherwise.

    Unlike the DC grid, degenerate 1-D chains (``nx == 1`` or
    ``ny == 1``) are allowed: they are the lattice the analytic ladder
    model collapses onto, which the cross-validation tests exploit.
    NaN or inf in any physical value (extents, sheet and edge values,
    source, ring, sink and decap parameters) raises
    :class:`~repro.errors.ConfigError` naming the parameter.
    """

    def __init__(
        self,
        width_m: float,
        height_m: float,
        sheet_ohm_sq: float,
        nx: int = 24,
        ny: int = 24,
        edge_inductance_x_h: float = 0.0,
        edge_inductance_y_h: float = 0.0,
    ) -> None:
        _require_finite(width_m, "width_m")
        _require_finite(height_m, "height_m")
        _require_finite(sheet_ohm_sq, "sheet_ohm_sq")
        _require_finite(edge_inductance_x_h, "edge_inductance_x_h")
        _require_finite(edge_inductance_y_h, "edge_inductance_y_h")
        if width_m <= 0 or height_m <= 0:
            raise ConfigError("grid extents must be positive")
        if sheet_ohm_sq <= 0:
            raise ConfigError("sheet resistance must be positive")
        if nx < 1 or ny < 1 or nx * ny < 2:
            raise ConfigError("grid needs at least two nodes")
        if edge_inductance_x_h < 0 or edge_inductance_y_h < 0:
            raise ConfigError("edge inductance must be non-negative")
        self.width_m = width_m
        self.height_m = height_m
        self.sheet_ohm_sq = sheet_ohm_sq
        self.nx = nx
        self.ny = ny
        self.edge_inductance_x_h = edge_inductance_x_h
        self.edge_inductance_y_h = edge_inductance_y_h
        # (name, ix, iy, voltage, r_out, l_src)
        self._sources: list[tuple[str, int, int, float, float, float]] = []
        self._sink_map: np.ndarray | None = None
        self._ring_bus_ohm: float | None = None
        self._decap: tuple | None = None
        self._rev = 0  # matrix-shaping topology revision
        self._sink_rev = 0
        self._reduced: _ReducedACStructure | None = None
        self._selinv: _SelinvPlan | None = None
        self._spectral: _SpectralACStructure | None = None
        self._structured: _StructuredACStructure | None = None
        self._compiled: tuple[int, int, CompiledACNetlist] | None = None

    @classmethod
    def from_grid(
        cls, grid: GridPDN, source_inductance_h: float = 0.0
    ) -> "GridACPDN":
        """Mirror a DC grid's mesh, sinks, sources, and ring bus.

        ``source_inductance_h`` adds the vertical bump/TSV loop
        inductance in series with every copied VR output (the DC model
        has no use for it).  Decap maps are attached separately.
        """
        pdn = cls(
            grid.width_m,
            grid.height_m,
            grid.sheet_ohm_sq,
            nx=grid.nx,
            ny=grid.ny,
        )
        if grid._sink_map is not None:
            pdn.set_sink_array(grid._sink_map)
        for name, ix, iy, voltage, r_out in grid._sources:
            pdn._add_source_at(
                name, ix, iy, voltage, r_out, source_inductance_h
            )
        if grid._ring_bus_ohm is not None:
            pdn._ring_bus_ohm = grid._ring_bus_ohm
            pdn._rev += 1
        return pdn

    # -- construction -----------------------------------------------------------

    def set_sinks(self, power_map: PowerMap, total_current_a: float) -> None:
        """Attach AC load magnitudes from a power map (phase 0)."""
        self._sink_map = power_map.cell_currents(
            self.nx, self.ny, total_current_a
        )
        self._sink_rev += 1

    def set_sink_array(self, cell_currents: np.ndarray) -> None:
        """Attach AC load magnitudes from an explicit (ny, nx) array."""
        arr = np.asarray(cell_currents, dtype=float)
        if arr.shape != (self.ny, self.nx):
            raise ConfigError(
                f"sink array must be shaped ({self.ny}, {self.nx})"
            )
        _require_finite(arr, "cell_currents")
        if np.any(arr < 0):
            raise ConfigError("sink currents must be non-negative")
        self._sink_map = arr
        self._sink_rev += 1

    def _add_source_at(
        self,
        name: str,
        ix: int,
        iy: int,
        voltage_v: float,
        output_resistance_ohm: float,
        inductance_h: float,
    ) -> None:
        _require_finite(voltage_v, "voltage_v")
        _require_finite(output_resistance_ohm, "output_resistance_ohm")
        _require_finite(inductance_h, "inductance_h")
        if output_resistance_ohm <= 0:
            raise ConfigError("source output resistance must be positive")
        if inductance_h < 0:
            raise ConfigError("source inductance must be non-negative")
        if any(existing == name for existing, *_ in self._sources):
            raise ConfigError(f"duplicate source name: {name!r}")
        self._sources.append(
            (name, ix, iy, voltage_v, output_resistance_ohm, inductance_h)
        )
        self._rev += 1

    def add_source(
        self,
        name: str,
        x_frac: float,
        y_frac: float,
        voltage_v: float,
        output_resistance_ohm: float,
        inductance_h: float = 0.0,
    ) -> None:
        """Attach a VR output at fractional die coordinates.

        As in :class:`GridPDN`, but with an optional series
        ``inductance_h`` modeling the vertical bump/TSV loop between
        the converter output and the mesh.
        """
        if not 0.0 <= x_frac <= 1.0 or not 0.0 <= y_frac <= 1.0:
            raise ConfigError("source position must be inside the die")
        ix = min(int(round(x_frac * (self.nx - 1))), self.nx - 1)
        iy = min(int(round(y_frac * (self.ny - 1))), self.ny - 1)
        self._add_source_at(
            name, ix, iy, voltage_v, output_resistance_ohm, inductance_h
        )

    def clear_sources(self) -> None:
        """Remove all attached sources (and any ring bus)."""
        self._sources.clear()
        self._ring_bus_ohm = None
        self._rev += 1

    def connect_sources_with_ring_bus(
        self, segment_resistance_ohm: float
    ) -> None:
        """Join consecutive sources with a dedicated ring bus
        (:meth:`GridPDN.connect_sources_with_ring_bus` semantics)."""
        _require_finite(segment_resistance_ohm, "segment_resistance_ohm")
        if segment_resistance_ohm <= 0:
            raise ConfigError("ring segment resistance must be positive")
        if len(self._sources) < 3:
            raise ConfigError("a ring bus needs at least three sources")
        self._ring_bus_ohm = segment_resistance_ohm
        self._rev += 1

    @property
    def source_names(self) -> list[str]:
        """Names of attached sources in attachment order."""
        return [s[0] for s in self._sources]

    # -- decap maps -------------------------------------------------------------

    def set_decap_density(
        self,
        density,
        cap_per_unit_f: float,
        esr_per_unit_ohm: float = 0.0,
        esl_per_unit_h: float = 0.0,
    ) -> None:
        """Attach decaps as a per-node *density* of one unit cell.

        ``density`` (scalar or (ny, nx) array, >= 0) counts identical
        unit cells — C with series ESR and ESL — in parallel at each
        node, the way MIM/deep-trench decap budgets are allocated per
        tile.  A uniform density (plus purely resistive mesh metal)
        unlocks the structured impedance-map engine; any other map runs
        the general ``selinv`` engine.
        """
        _require_finite(cap_per_unit_f, "cap_per_unit_f")
        _require_finite(esr_per_unit_ohm, "esr_per_unit_ohm")
        _require_finite(esl_per_unit_h, "esl_per_unit_h")
        if cap_per_unit_f <= 0:
            raise ConfigError("unit decap capacitance must be positive")
        if esr_per_unit_ohm < 0 or esl_per_unit_h < 0:
            raise ConfigError("unit decap ESR/ESL must be non-negative")
        alpha = np.asarray(density, dtype=float)
        if alpha.ndim == 0:
            alpha = np.full((self.ny, self.nx), float(alpha))
        if alpha.shape != (self.ny, self.nx):
            raise ConfigError(
                f"density map must be shaped ({self.ny}, {self.nx})"
            )
        _require_finite(alpha, "density")
        if np.any(alpha < 0):
            raise ConfigError("decap density must be non-negative")
        if not np.any(alpha > 0):
            raise ConfigError("decap density map is all zero")
        self._decap = (
            "density",
            alpha.copy(),
            float(cap_per_unit_f),
            float(esr_per_unit_ohm),
            float(esl_per_unit_h),
        )
        self._rev += 1

    def set_decap_map(self, cap_f, esr_ohm=0.0, esl_h=0.0) -> None:
        """Attach arbitrary per-node decap maps.

        ``cap_f``/``esr_ohm``/``esl_h`` are scalars or (ny, nx)
        arrays; a node with zero capacitance carries no decap branch.
        All-scalar arguments are equivalent to a uniform unit density
        of one cell per node (and are stored that way, keeping the
        structured engine available); array arguments go through the
        general ``selinv`` engine.
        """
        if np.ndim(cap_f) == 0 and np.ndim(esr_ohm) == 0 and np.ndim(esl_h) == 0:
            _require_finite(cap_f, "cap_f")
            _require_finite(esr_ohm, "esr_ohm")
            _require_finite(esl_h, "esl_h")
            self.set_decap_density(
                1.0, float(cap_f), float(esr_ohm), float(esl_h)
            )
            return

        def as_map(value, name: str, label: str) -> np.ndarray:
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 0:
                arr = np.full((self.ny, self.nx), float(arr))
            if arr.shape != (self.ny, self.nx):
                raise ConfigError(
                    f"{label} map must be shaped ({self.ny}, {self.nx})"
                )
            _require_finite(arr, name)
            if np.any(arr < 0):
                raise ConfigError(f"{label} map must be non-negative")
            return arr.copy()

        c = as_map(cap_f, "cap_f", "capacitance")
        if not np.any(c > 0):
            raise ConfigError("capacitance map is all zero")
        self._decap = (
            "map",
            c,
            as_map(esr_ohm, "esr_ohm", "ESR"),
            as_map(esl_h, "esl_h", "ESL"),
        )
        self._rev += 1

    def scale_decap(self, factor: float) -> None:
        """Multiply the attached decap allocation by ``factor``.

        Semantically "add more unit cells in parallel": capacitance
        scales up while ESR and ESL scale down, for either decap
        representation.  The decap sizing search is built on this.
        """
        _require_finite(factor, "factor")
        if factor <= 0:
            raise ConfigError("decap scale factor must be positive")
        if self._decap is None:
            raise ConfigError("no decaps attached; set a decap map first")
        if self._decap[0] == "density":
            _, alpha, c, esr, esl = self._decap
            self._decap = ("density", alpha * factor, c, esr, esl)
        else:
            _, c, esr, esl = self._decap
            self._decap = ("map", c * factor, esr / factor, esl / factor)
        self._rev += 1

    def decap_snapshot(self) -> tuple:
        """The exact decap state, for :meth:`restore_decap`.

        Captures the stored representation (kind, arrays, unit values)
        plus the topology revision, so a search that mutates the
        allocation — :func:`~repro.pdn.impedance.size_grid_decap_for_target`,
        the placement optimizer — can put the grid back bit-exactly
        instead of round-tripping values through lossy scale factors.
        """
        if self._decap is None:
            state: tuple | None = None
        else:
            state = tuple(
                part.copy() if isinstance(part, np.ndarray) else part
                for part in self._decap
            )
        return (state, self._rev)

    def restore_decap(self, snapshot: tuple) -> None:
        """Restore a :meth:`decap_snapshot` bit-exactly.

        The topology revision is restored too, so structures cached
        *before* the snapshot stay valid; any structure built at an
        intermediate revision (which could alias a future revision
        number once the counter is rewound) is dropped.
        """
        state, rev = snapshot
        if state is None:
            self._decap = None
        else:
            self._decap = tuple(
                part.copy() if isinstance(part, np.ndarray) else part
                for part in state
            )
        self._rev = rev
        if self._reduced is not None and self._reduced.rev != rev:
            self._reduced = None
        if self._selinv is not None and self._selinv.rev != rev:
            self._selinv = None
        if self._spectral is not None and self._spectral.rev != rev:
            self._spectral = None
        if self._structured is not None and self._structured.rev != rev:
            self._structured = None
        if self._compiled is not None and self._compiled[0] != rev:
            self._compiled = None

    @property
    def total_decap_farad(self) -> float:
        """Total attached decoupling capacitance over the mesh."""
        if self._decap is None:
            return 0.0
        return float(self._decap_arrays()[0].sum())

    def _decap_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened per-node (C, ESR, ESL) arrays; zero C = no decap."""
        cells = self.nx * self.ny
        if self._decap is None:
            zero = np.zeros(cells)
            return zero, zero.copy(), zero.copy()
        if self._decap[0] == "density":
            _, alpha, c_u, esr_u, esl_u = self._decap
            alpha = alpha.ravel()
            live = alpha > 0
            c = np.where(live, alpha * c_u, 0.0)
            with np.errstate(divide="ignore"):
                esr = np.where(live, esr_u / np.where(live, alpha, 1.0), 0.0)
                esl = np.where(live, esl_u / np.where(live, alpha, 1.0), 0.0)
            return c, esr, esl
        _, c, esr, esl = self._decap
        return c.ravel().copy(), esr.ravel().copy(), esl.ravel().copy()

    # -- edge parameters --------------------------------------------------------

    @property
    def edge_resistance_x_ohm(self) -> float:
        """Resistance of one x-direction edge (R_sq * dx / dy_strip)."""
        if self.nx < 2:
            raise ConfigError("a 1-wide grid has no x edges")
        dx = self.width_m / (self.nx - 1)
        strip = self.height_m / self.ny
        return self.sheet_ohm_sq * dx / strip

    @property
    def edge_resistance_y_ohm(self) -> float:
        """Resistance of one y-direction edge."""
        if self.ny < 2:
            raise ConfigError("a 1-tall grid has no y edges")
        dy = self.height_m / (self.ny - 1)
        strip = self.width_m / self.nx
        return self.sheet_ohm_sq * dy / strip

    def _edge_arrays(self) -> tuple[np.ndarray, ...]:
        """All constant-topology edges: mesh x, mesh y, ring segments.

        Returns ``(a, b, r, l)`` — endpoint rows plus per-edge series
        resistance and inductance.
        """
        x_a, x_b, y_a, y_b = mesh_edge_rows(self.nx, self.ny)
        ring = self._ring_segments()
        ring_a = np.array([a for a, _ in ring], dtype=np.int64)
        ring_b = np.array([b for _, b in ring], dtype=np.int64)
        a = np.concatenate([x_a, y_a, ring_a])
        b = np.concatenate([x_b, y_b, ring_b])
        r = np.concatenate(
            [
                np.full(x_a.size, self.edge_resistance_x_ohm if x_a.size else 0.0),
                np.full(y_a.size, self.edge_resistance_y_ohm if y_a.size else 0.0),
                np.full(len(ring), self._ring_bus_ohm or 0.0),
            ]
        )
        l = np.concatenate(
            [
                np.full(x_a.size, self.edge_inductance_x_h),
                np.full(y_a.size, self.edge_inductance_y_h),
                np.zeros(len(ring)),
            ]
        )
        return a, b, r, l

    def _ring_segments(self) -> list[tuple[int, int]]:
        """Ring-bus segments as (row_a, row_b), degenerates skipped."""
        if self._ring_bus_ohm is None:
            return []
        segments: list[tuple[int, int]] = []
        count = len(self._sources)
        for k in range(count):
            _, ix_a, iy_a, *_ = self._sources[k]
            _, ix_b, iy_b, *_ = self._sources[(k + 1) % count]
            if (ix_a, iy_a) == (ix_b, iy_b):
                continue
            segments.append(
                (iy_a * self.nx + ix_a, iy_b * self.nx + ix_b)
            )
        return segments

    # -- shunt admittances ------------------------------------------------------

    def _decap_admittance(self, omega: np.ndarray) -> np.ndarray:
        """Per-node decap branch admittance, shape (n_freqs, cells).

        The series C + ESR + ESL chain folds exactly into
        ``y = 1 / (ESR + j(ω·ESL − 1/(ω·C)))``; nodes without decap
        contribute zero.
        """
        c, esr, esl = self._decap_arrays()
        live = c > 0
        y = np.zeros((omega.size, c.size), dtype=complex)
        if np.any(live):
            w = omega[:, None]
            reactance = w * esl[None, live] - 1.0 / (w * c[None, live])
            y[:, live] = 1.0 / (esr[None, live] + 1j * reactance)
        return y

    def _source_admittance(self, omega: np.ndarray) -> np.ndarray:
        """Per-source zeroed-EMF branch admittance, (n_freqs, s)."""
        rout = np.array([s[4] for s in self._sources])
        l_src = np.array([s[5] for s in self._sources])
        return 1.0 / (rout[None, :] + 1j * omega[:, None] * l_src[None, :])

    def _source_attach_rows(self) -> np.ndarray:
        return np.array(
            [iy * self.nx + ix for _, ix, iy, *_ in self._sources],
            dtype=np.int64,
        )

    # -- impedance map ----------------------------------------------------------

    def impedance_map(
        self, frequencies_hz: np.ndarray, method: str = "auto"
    ) -> GridImpedanceMap:
        """Die-seen self-impedance Z(f) at every mesh node.

        Sources are zeroed (their output branch stays in the metal)
        and each node is probed with 1 A, exactly the per-node version
        of :func:`repro.pdn.ac.impedance_at`.  ``method`` selects the
        engine:

        * ``"structured"`` — uniform decap density, resistive mesh;
          DCT-diagonalized mesh Laplacian, O(n² log n) setup and a few
          GEMMs per frequency chunk.
        * ``"selinv"`` — fully general (any decap map, inductive mesh
          metal, ring buses); exact block-tridiagonal selected
          inversion batched over frequency, O(levels·width³) per
          frequency.
        * ``"spectral"`` — positive density maps, resistive mesh; one
          dense eigendecomposition per decap change.  Explicit only.
        * ``"direct"`` — per-frequency sparse-LU full inverse, the
          oracle the other engines are tested against.  Explicit only.
        * ``"auto"`` — ``structured`` when eligible, else ``selinv``.

        Raises:
            ConfigError: no sources attached, bad frequencies, or an
                explicit method on an ineligible topology.
            SolverError: singular/resonant system at a sweep point.
        """
        freqs = check_frequencies(frequencies_hz)
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        engine = self.impedance_engine(method)
        omega = 2.0 * math.pi * freqs
        if engine == "structured":
            z = self._impedance_structured(omega)
        elif engine == "selinv":
            z = self._impedance_selinv(omega, freqs)
        elif engine == "spectral":
            z = self._impedance_spectral(omega)
        else:
            z = self._impedance_direct(omega, freqs)
        if not np.all(np.isfinite(z)):
            bad = freqs[np.nonzero(~np.all(np.isfinite(z), axis=0))[0][0]]
            raise SolverError(
                f"grid impedance is singular or non-finite at {bad:.6g} Hz "
                "(resonant singularity or floating mesh)"
            )
        return GridImpedanceMap(
            frequencies_hz=freqs, z_ohm=z, nx=self.nx, ny=self.ny
        )

    def impedance_columns(
        self, frequency_hz: float, nodes
    ) -> np.ndarray:
        """Columns of the reduced inverse ``A(ω)⁻¹[:, nodes]``.

        The adjoint companion of :meth:`impedance_map`: at one
        frequency, solve the reduced (sources-zeroed) system for a
        batch of unit probes — one sparse factorization, one multi-RHS
        back-substitution.  Column ``j`` is the transfer impedance from
        every mesh node into ``nodes[j]`` (row order, ``iy·nx + ix``);
        its diagonal entry is exactly the self-impedance the map
        reports.  Because the reduced system is complex-symmetric,
        these columns are also the adjoint fields
        ``d Z_k / d y_shunt,i = −(A⁻¹ e_k)_i²`` that the placement
        optimizer turns into per-node decap sensitivities for *all*
        nodes at once.

        Returns a complex ``(cells, len(nodes))`` array.
        """
        freqs = check_frequencies(np.atleast_1d(np.asarray(
            frequency_hz, dtype=float
        )))
        if freqs.size != 1:
            raise ConfigError("impedance_columns takes a single frequency")
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        cells = self.nx * self.ny
        rows = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if rows.ndim != 1 or rows.size == 0:
            raise ConfigError("nodes must be a non-empty 1-D index list")
        if np.any(rows < 0) or np.any(rows >= cells):
            raise ConfigError("probe node index outside the mesh")
        structure = self._ensure_reduced()
        omega = 2.0 * math.pi * freqs
        data = self._reduced_csc_data(structure, omega)
        matrix = sp.csc_matrix(
            (data[0], structure.csc_rows, structure.indptr),
            shape=(cells, cells),
        )
        rhs = np.zeros((cells, rows.size), dtype=complex)
        rhs[rows, np.arange(rows.size)] = 1.0
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            try:
                columns = spla.splu(matrix).solve(rhs)
            except RuntimeError as exc:
                raise SolverError(
                    "grid impedance solve failed at "
                    f"{freqs[0]:.6g} Hz: {exc}"
                ) from exc
        if not np.all(np.isfinite(columns)):
            raise SolverError(
                f"grid impedance is singular at {freqs[0]:.6g} Hz "
                "(resonant singularity or floating mesh)"
            )
        return columns

    def impedance_engine(self, method: str = "auto") -> str:
        """The impedance-map engine ``method`` resolves to.

        Returns ``"structured"``, ``"selinv"``, ``"spectral"`` or
        ``"direct"`` — the regression surface the engine-selection
        tests assert against.  ``"auto"`` resolves to ``"structured"``
        when the topology allows it and to ``"selinv"`` otherwise;
        ``"spectral"`` and the ``"direct"`` oracle run only when asked
        for.  Raises :class:`~repro.errors.ConfigError` for an unknown
        method or an explicit method the current topology cannot run.
        """
        if method not in ("auto", "structured", "selinv", "spectral", "direct"):
            raise ConfigError(f"unknown impedance-map method: {method!r}")
        if method == "structured" and not self._structured_eligible():
            raise ConfigError(
                "structured impedance map needs a uniform positive decap "
                "density and a purely resistive mesh"
            )
        if method == "spectral" and not self._spectral_eligible():
            raise ConfigError(
                "spectral impedance map needs a strictly positive decap "
                "density map and a purely resistive mesh"
            )
        if method == "auto":
            return "structured" if self._structured_eligible() else "selinv"
        return method

    def _spectral_eligible(self) -> bool:
        return (
            self._decap is not None
            and self._decap[0] == "density"
            and bool(np.all(self._decap[1] > 0))
            and self.edge_inductance_x_h == 0.0
            and self.edge_inductance_y_h == 0.0
        )

    def _structured_eligible(self) -> bool:
        """Structured = spectral requirements plus a *uniform* density
        (one shunt admittance per node keeps M diagonal in the DCT
        basis)."""
        if not self._spectral_eligible():
            return False
        alpha = self._decap[1]
        return bool(np.all(alpha == alpha.flat[0]))

    def _ensure_spectral(self) -> _SpectralACStructure:
        if self._spectral is not None and self._spectral.rev == self._rev:
            return self._spectral
        cells = self.nx * self.ny
        a, b, r, _ = self._edge_arrays()
        rows, cols, vals = admittance_stamp_entries(a, b, 1.0 / r)
        g = np.zeros((cells, cells))
        np.add.at(g, (rows, cols), vals)
        _, alpha, c_u, esr_u, esl_u = self._decap
        alpha = alpha.ravel()
        # Symmetrized generalized eigenproblem G q = λ D_α q: scale by
        # D_α^(-1/2), take the ordinary symmetric eigendecomposition,
        # and unscale — Qᵀ D_α Q = I, Qᵀ G Q = Λ by construction.
        dinv = 1.0 / np.sqrt(alpha)
        lam, v = np.linalg.eigh(g * dinv[:, None] * dinv[None, :])
        q = dinv[:, None] * v
        attach = self._source_attach_rows()
        self._spectral = _SpectralACStructure(
            rev=self._rev,
            lam=lam,
            q=q,
            q_sq=q * q,
            p=q[attach, :].T.copy(),
            attach=attach,
            rout=np.array([s[4] for s in self._sources]),
            l_src=np.array([s[5] for s in self._sources]),
            unit_c=c_u,
            unit_esr=esr_u,
            unit_esl=esl_u,
        )
        return self._spectral

    def _impedance_spectral(self, omega: np.ndarray) -> np.ndarray:
        """diag(A⁻¹) via the cached eigenbasis, shape (cells, n_freqs).

        ``A(ω) = M(ω) + U Y(ω) Uᵀ`` with ``M = G + y_u(ω) D_α``
        diagonal in the eigenbasis, so ``diag(M⁻¹)`` is one GEMM over
        the whole sweep and the source branches enter as a rank-s
        Sherman–Morrison–Woodbury correction whose capacitance matrix
        inverts per frequency at s×s cost.
        """
        structure = self._ensure_spectral()
        reactance = omega * structure.unit_esl - 1.0 / (
            omega * structure.unit_c
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            y_u = 1.0 / (structure.unit_esr + 1j * reactance)
            w = 1.0 / (structure.lam[None, :] + y_u[:, None])  # (F, n)
        diag = w @ structure.q_sq.T  # (F, cells)
        s_count = len(structure.rout)
        if s_count:
            tmp = w[:, :, None] * structure.p[None, :, :]  # (F, n, s)
            influence = structure.q[None, :, :] @ tmp  # M⁻¹U, (F, cells, s)
            t = structure.p.T[None, :, :] @ tmp  # UᵀM⁻¹U, (F, s, s)
            y_branch_inv = (
                structure.rout[None, :]
                + 1j * omega[:, None] * structure.l_src[None, :]
            )
            capacitance = t + (
                y_branch_inv[:, :, None] * np.eye(s_count)[None, :, :]
            )
            try:
                with np.errstate(all="ignore"):
                    k = np.linalg.inv(capacitance)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"grid impedance source correction is singular: {exc}"
                ) from exc
            diag = diag - np.einsum(
                "fks,fst,fkt->fk", influence, k, influence, optimize=True
            )
        return diag.T

    def _ensure_structured(self) -> _StructuredACStructure:
        if (
            self._structured is not None
            and self._structured.rev == self._rev
        ):
            return self._structured
        import scipy.fft as sfft

        nx, ny = self.nx, self.ny
        cells = nx * ny
        gx = 1.0 / self.edge_resistance_x_ohm if nx > 1 else 0.0
        gy = 1.0 / self.edge_resistance_y_ohm if ny > 1 else 0.0
        lam = (
            gy * poisson_mode_eigenvalues(ny)[:, None]
            + gx * poisson_mode_eigenvalues(nx)[None, :]
        ).ravel()
        attach = self._source_attach_rows()
        ring = self._ring_segments()
        # Deflate the mesh zero mode: at low frequency 1/(α·y_u) dwarfs
        # every other modal weight and its near-exact cancellation by
        # the source correction destroys ~5 digits.  Shift lam[0] by
        # τ = gx + gy and reinstate the mode as a −τ rank-one branch in
        # the Woodbury block, where the cancellation resolves inside a
        # full-precision dense solve (same trick as the DC fast path).
        tau = gx + gy
        defl = 1 if tau > 0 else 0
        if defl:
            lam = lam.copy()
            lam[0] += tau
        k = defl + attach.size + len(ring)
        u = np.zeros((cells, k))
        if defl:
            u[:, 0] = 1.0 / math.sqrt(cells)
        for t, row in enumerate(attach, start=defl):
            u[row, t] += 1.0
        for t, (a, b) in enumerate(ring, start=defl + attach.size):
            u[a, t] += 1.0
            u[b, t] -= 1.0
        u_hat = (
            sfft.dctn(
                u.T.reshape(k, ny, nx), type=2, axes=(1, 2), norm="ortho"
            ).reshape(k, cells).T.copy()
            if k
            else u
        )
        _, alpha_map, c_u, esr_u, esl_u = self._decap
        self._structured = _StructuredACStructure(
            rev=self._rev,
            lam=lam,
            tau=tau if defl else 0.0,
            bx_sq=dct2_basis(nx) ** 2,
            by_sq=dct2_basis(ny) ** 2,
            u_hat=u_hat,
            alpha=float(alpha_map.flat[0]),
            unit_c=c_u,
            unit_esr=esr_u,
            unit_esl=esl_u,
            rout=np.array([s[4] for s in self._sources]),
            l_src=np.array([s[5] for s in self._sources]),
            ring_g=np.full(len(ring), 1.0 / (self._ring_bus_ohm or 1.0)),
        )
        return self._structured

    def _impedance_structured(self, omega: np.ndarray) -> np.ndarray:
        """diag(A⁻¹) via the DCT eigenstructure, shape (cells, F).

        ``M(ω) = G_mesh + α·y_u(ω)·I`` shares the mesh Laplacian's DCT
        eigenvectors at every frequency, so ``diag(M⁻¹)`` reduces to
        two GEMMs against squared basis tables, and the source/ring
        branches are a rank-k Woodbury correction whose per-frequency
        influence columns come back through one batched inverse DCT.
        Frequency-chunked to bound scratch memory, like the direct
        engine.
        """
        import scipy.fft as sfft

        structure = self._ensure_structured()
        nx, ny = self.nx, self.ny
        cells = nx * ny
        k = structure.u_hat.shape[1]
        reactance = omega * structure.unit_esl - 1.0 / (
            omega * structure.unit_c
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            y_u = 1.0 / (structure.unit_esr + 1j * reactance)
        y_src = 1.0 / (
            structure.rout[None, :]
            + 1j * omega[:, None] * structure.l_src[None, :]
        )
        z = np.empty((cells, omega.size), dtype=complex)
        chunk = max(1, _DENSE_BATCH_ENTRIES // (max(k, 1) * cells))
        for lo in range(0, omega.size, chunk):
            hi = min(lo + chunk, omega.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                w = 1.0 / (
                    structure.lam[None, :]
                    + structure.alpha * y_u[lo:hi, None]
                )  # (F, cells) modal weights
            diag = (
                structure.by_sq.T
                @ w.reshape(-1, ny, nx)
                @ structure.bx_sq
            ).reshape(-1, cells)
            if k:
                fields = (
                    w[:, None, :] * structure.u_hat.T[None, :, :]
                )  # (F, k, cells) modal influence, transform-ready layout
                influence = sfft.idctn(
                    fields.reshape(-1, ny, nx),
                    type=2,
                    axes=(1, 2),
                    norm="ortho",
                    workers=-1,
                ).reshape(hi - lo, k, cells)
                t = fields @ structure.u_hat  # UᵀM⁻¹U, (F, k, k)
                columns = [y_src[lo:hi]]
                if structure.tau > 0:
                    columns.insert(
                        0, np.full((hi - lo, 1), -structure.tau, complex)
                    )
                columns.append(
                    np.broadcast_to(
                        structure.ring_g, (hi - lo, len(structure.ring_g))
                    )
                )
                y_branch = np.concatenate(columns, axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    capacitance = t + (
                        (1.0 / y_branch)[:, :, None] * np.eye(k)[None]
                    )
                try:
                    with np.errstate(all="ignore"):
                        correction = np.linalg.inv(capacitance)
                except np.linalg.LinAlgError as exc:
                    raise SolverError(
                        "grid impedance source correction is singular: "
                        f"{exc}"
                    ) from exc
                diag = diag - np.einsum(
                    "faj,fab,fbj->fj",
                    influence,
                    correction,
                    influence,
                    optimize=True,
                )
            z[:, lo:hi] = diag.T
        return z

    def _ensure_reduced(self) -> _ReducedACStructure:
        if self._reduced is not None and self._reduced.rev == self._rev:
            return self._reduced
        cells = self.nx * self.ny
        a, b, r, l = self._edge_arrays()
        rows, cols, edge, sign = _admittance_entry_map(a, b)
        diag = np.arange(cells, dtype=np.int64)
        all_rows = np.concatenate([rows, diag])
        all_cols = np.concatenate([cols, diag])
        order, starts, csc_rows, csc_cols, indptr = shared_csc_pattern(
            all_rows, all_cols, cells
        )
        self._reduced = _ReducedACStructure(
            rev=self._rev,
            edge_r=r,
            edge_l=l,
            entry_rows=all_rows,
            entry_cols=all_cols,
            entry_edge=edge,
            entry_sign=sign,
            order=order,
            starts=starts,
            csc_rows=csc_rows,
            csc_cols=csc_cols,
            indptr=indptr,
        )
        return self._reduced

    def _reduced_csc_data(
        self, structure: _ReducedACStructure, omega: np.ndarray
    ) -> np.ndarray:
        """Reduced-system CSC values for a frequency chunk."""
        cells = self.nx * self.ny
        edge_y = 1.0 / (
            structure.edge_r[None, :]
            + 1j * omega[:, None] * structure.edge_l[None, :]
        )
        shunt = self._decap_admittance(omega)
        y_src = self._source_admittance(omega)
        attach = self._source_attach_rows()
        np.add.at(shunt, (slice(None), attach), y_src)
        vals = np.concatenate(
            [
                structure.entry_sign[None, :]
                * edge_y[:, structure.entry_edge],
                shunt,
            ],
            axis=1,
        )
        return np.add.reduceat(
            vals[:, structure.order], structure.starts, axis=1
        )

    def _ensure_selinv(self) -> _SelinvPlan:
        if self._selinv is not None and self._selinv.rev == self._rev:
            return self._selinv
        structure = self._ensure_reduced()
        nx, ny = self.nx, self.ny
        cells = nx * ny
        rows, cols = structure.csc_rows, structure.csc_cols
        off = rows != cols
        adjacency = sp.csr_matrix(
            (np.ones(int(off.sum())), (rows[off], cols[off])),
            shape=(cells, cells),
        )
        # Breadth-first level sets seeded with the shorter mesh side,
        # so a plain mesh gets min(nx, ny)-wide blocks.  Ring segments
        # are graph edges like any other: a segment that skips a row
        # just pulls its far end into the next level.
        level = np.full(cells, -1, dtype=np.int64)
        frontier = np.zeros(cells, dtype=bool)
        frontier[np.arange(ny) * nx if nx > ny else np.arange(nx)] = True
        depth = 0
        while frontier.any():
            level[frontier] = depth
            frontier = (adjacency @ frontier.astype(float) > 0) & (level < 0)
            depth += 1
        counts = np.bincount(level)
        width = int(counts.max())
        order = np.argsort(level, kind="stable")
        position = np.empty(cells, dtype=np.int64)
        position[order] = np.arange(cells) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        slot = level * width + position
        same = level[rows] == level[cols]
        upper = level[cols] == level[rows] + 1
        free = np.setdiff1d(np.arange(counts.size * width), slot)
        self._selinv = _SelinvPlan(
            rev=self._rev,
            levels=counts.size,
            width=width,
            slot=slot,
            diag_dst=(slot[rows] * width + position[cols])[same],
            diag_src=np.nonzero(same)[0],
            upper_dst=(slot[rows] * (width + 1) + position[cols])[upper],
            upper_src=np.nonzero(upper)[0],
            pad_dst=free * width + free % width,
        )
        return self._selinv

    def _impedance_selinv(
        self, omega: np.ndarray, freqs: np.ndarray
    ) -> np.ndarray:
        """diag(A⁻¹) by block-tridiagonal selected inversion, (cells, F).

        Takahashi et al. (1973) on the level blocks of
        :meth:`_ensure_selinv`, batched over frequency.  The forward
        Schur sweep ``g_l = (D_l − U_{l−1}ᵀ g_{l−1} U_{l−1})⁻¹`` and the
        backward recurrence ``G_l = g_l + X_l G_{l+1} X_lᵀ`` with
        ``X_l = g_l U_l`` give the exact diagonal blocks of the inverse
        in O(levels·width³) per frequency; the full inverse is never
        formed.  The lower blocks are ``U_lᵀ`` and ``g_l U_l`` stands in
        for ``(U_lᵀ g_l)ᵀ`` because ``A`` is complex symmetric.
        """
        structure = self._ensure_reduced()
        plan = self._ensure_selinv()
        levels, width = plan.levels, plan.width
        cells = self.nx * self.ny
        count = omega.size
        z = np.empty((cells, count), dtype=complex)
        probe = singularity_probe(cells)
        probe_error = np.empty(count)
        # Two stacked block arrays per frequency: D_l is overwritten by
        # g_l, and [U_l | z_l] by [X_l | g_l z_l], as the sweep passes.
        chunk = max(
            1, _DENSE_BATCH_ENTRIES // (2 * levels * width * (width + 1))
        )
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            n = hi - lo
            data = self._reduced_csc_data(structure, omega[lo:hi])
            g = np.zeros((n, levels * width * width), dtype=complex)
            g[:, plan.diag_dst] = data[:, plan.diag_src]
            g[:, plan.pad_dst] = 1.0
            g = g.reshape(n, levels, width, width)
            # [U_l | z_l] per level: the coupling to the next level (zero
            # for the last) plus the known-solution probe's right-hand
            # side A @ w (see repro.pdn.mna.singularity_probe; column
            # sums, as A is symmetric), so every GEMM below also carries
            # the block substitution that must recover w.
            x = np.zeros((n, levels * width * (width + 1)), dtype=complex)
            x[:, plan.upper_dst] = data[:, plan.upper_src]
            x[:, plan.slot * (width + 1) + width] = np.add.reduceat(
                data * probe[structure.csc_rows],
                structure.indptr[:-1],
                axis=1,
            )
            x = x.reshape(n, levels, width, width + 1)
            diag = np.empty((n, levels, width), dtype=complex)
            solution = np.empty((n, levels, width), dtype=complex)
            try:
                with np.errstate(all="ignore"):
                    for l in range(levels):
                        g[:, l] = np.linalg.inv(g[:, l])
                        t = g[:, l] @ x[:, l]
                        if l + 1 < levels:
                            update = np.swapaxes(x[:, l, :, :width], 1, 2) @ t
                            g[:, l + 1] -= update[..., :width]
                            x[:, l + 1, :, width] -= update[..., width]
                        x[:, l] = t
                    # Backward, [G_l | v_l] from [G_{l+1} | v_{l+1}]: the
                    # diagonal block of the inverse and the probe solution.
                    aug = np.empty((n, width, width + 1), dtype=complex)
                    aug[..., :width] = g[:, -1]
                    aug[..., width] = x[:, -1, :, width]
                    diag[:, -1] = np.diagonal(g[:, -1], axis1=1, axis2=2)
                    solution[:, -1] = aug[..., width]
                    for l in range(levels - 2, -1, -1):
                        x_l = x[:, l, :, :width]
                        t = x_l @ aug
                        aug[..., width] = x[:, l, :, width] - t[..., width]
                        aug[..., :width] = g[:, l] + t[..., :width] @ (
                            np.swapaxes(x_l, 1, 2)
                        )
                        diag[:, l] = np.diagonal(
                            aug[..., :width], axis1=1, axis2=2
                        )
                        solution[:, l] = aug[..., width]
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    "grid impedance is singular between "
                    f"{freqs[lo]:.6g} and {freqs[hi - 1]:.6g} Hz "
                    f"(resonant singularity or floating mesh): {exc}"
                ) from exc
            z[:, lo:hi] = diag.reshape(n, -1)[:, plan.slot].T
            with np.errstate(all="ignore"):
                probe_error[lo:hi] = np.abs(
                    solution.reshape(n, -1)[:, plan.slot] - probe
                ).max(axis=1)
        _check_probe(probe_error, freqs)
        return z

    def _impedance_direct(
        self, omega: np.ndarray, freqs: np.ndarray
    ) -> np.ndarray:
        """diag(A⁻¹) by explicit per-frequency inversion of the reduced
        system, ``splu(A).solve(I)`` on the shared CSC pattern.

        General (arbitrary decap maps, inductive mesh metal) but it forms
        the full inverse, O(cells²) memory per frequency: the oracle the
        other engines are tested against, never picked by ``auto``.
        """
        structure = self._ensure_reduced()
        cells = self.nx * self.ny
        count = omega.size
        z = np.empty((cells, count), dtype=complex)
        identity = np.eye(cells, dtype=complex)
        # Known-solution probe (see repro.pdn.mna.singularity_probe):
        # the computed inverse must recover w from A @ w, so an
        # exactly singular sweep point that LU slid through on a
        # rounded pivot fails loudly.
        probe = singularity_probe(cells)
        probe_error = np.empty(count)
        chunk = max(1, _DENSE_BATCH_ENTRIES // (cells * cells))
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            data = self._reduced_csc_data(structure, omega[lo:hi])
            for k in range(lo, hi):
                matrix = sp.csc_matrix(
                    (data[k - lo], structure.csc_rows, structure.indptr),
                    shape=(cells, cells),
                )
                with np.errstate(all="ignore"), warnings.catch_warnings():
                    warnings.simplefilter("ignore", spla.MatrixRankWarning)
                    try:
                        solved = spla.splu(matrix).solve(identity)
                    except RuntimeError as exc:
                        raise SolverError(
                            "grid impedance solve failed at "
                            f"{freqs[k]:.6g} Hz: {exc}"
                        ) from exc
                z[:, k] = np.diagonal(solved)
                with np.errstate(all="ignore"):
                    probe_error[k] = float(
                        np.abs(solved @ (matrix @ probe) - probe).max()
                    )
        _check_probe(probe_error, freqs)
        return z

    # -- driven sweep -----------------------------------------------------------

    def compile_ac(self) -> CompiledACNetlist:
        """The full driven mesh as a compiled AC netlist.

        Stamps the mesh edges (with internal nodes where the metal is
        inductive), every decap chain, the ring bus, the sink map as
        AC load magnitudes, and each source as an ideal EMF behind its
        output resistance and bump/TSV inductance — array assembly
        straight into :meth:`CompiledACNetlist.from_arrays`, no
        per-element Python objects.
        """
        if self._sink_map is None:
            raise ConfigError("no sinks attached; call set_sinks first")
        if not self._sources:
            raise ConfigError("no sources attached; call add_source first")
        if (
            self._compiled is not None
            and self._compiled[0] == self._rev
            and self._compiled[1] == self._sink_rev
        ):
            return self._compiled[2]

        nx, ny = self.nx, self.ny
        cells = nx * ny
        x_a, x_b, y_a, y_b = mesh_edge_rows(nx, ny)
        ring = self._ring_segments()
        c_map, esr_map, esl_map = self._decap_arrays()
        has_c = c_map > 0
        has_r = has_c & (esr_map > 0)
        has_l = has_c & (esl_map > 0)
        first = has_c & (has_r | has_l)
        second = has_r & has_l

        nodes: list = [("g", ix, iy) for iy in range(ny) for ix in range(nx)]
        res_a: list[np.ndarray] = []
        res_b: list[np.ndarray] = []
        res_v: list[np.ndarray] = []
        ind_a: list[np.ndarray] = []
        ind_b: list[np.ndarray] = []
        ind_v: list[np.ndarray] = []

        def mesh_edges(
            a: np.ndarray, b: np.ndarray, r: float, l: float, axis: str
        ) -> None:
            """One mesh axis: plain resistors, or R + L via internal
            nodes when the metal is inductive."""
            if not a.size:
                return
            if l > 0:
                mid = len(nodes) + np.arange(a.size, dtype=np.int64)
                nodes.extend(
                    (f"edge.{axis}", int(k)) for k in range(a.size)
                )
                res_a.append(a)
                res_b.append(mid)
                res_v.append(np.full(a.size, r))
                ind_a.append(mid)
                ind_b.append(b)
                ind_v.append(np.full(a.size, l))
            else:
                res_a.append(a)
                res_b.append(b)
                res_v.append(np.full(a.size, r))

        mesh_edges(
            x_a,
            x_b,
            self.edge_resistance_x_ohm if x_a.size else 0.0,
            self.edge_inductance_x_h,
            "x",
        )
        mesh_edges(
            y_a,
            y_b,
            self.edge_resistance_y_ohm if y_a.size else 0.0,
            self.edge_inductance_y_h,
            "y",
        )
        if ring:
            res_a.append(np.array([a for a, _ in ring], dtype=np.int64))
            res_b.append(np.array([b for _, b in ring], dtype=np.int64))
            res_v.append(np.full(len(ring), self._ring_bus_ohm))

        # Decap chains: node —C→ [first] —ESR→ [second] —ESL→ ground,
        # with stages collapsing away wherever ESR/ESL are zero.
        mesh_rows = np.arange(cells, dtype=np.int64)
        first_row = np.full(cells, GROUND_INDEX, dtype=np.int64)
        first_row[first] = len(nodes) + np.arange(int(first.sum()))
        nodes.extend(("decap", int(k), "a") for k in np.nonzero(first)[0])
        second_row = np.full(cells, GROUND_INDEX, dtype=np.int64)
        second_row[second] = len(nodes) + np.arange(int(second.sum()))
        nodes.extend(("decap", int(k), "b") for k in np.nonzero(second)[0])

        cap_a = mesh_rows[has_c]
        cap_b = first_row[has_c]  # GROUND_INDEX where the chain is bare C
        cap_v = c_map[has_c]
        if np.any(has_r):
            res_a.append(first_row[has_r])
            res_b.append(np.where(has_l, second_row, GROUND_INDEX)[has_r])
            res_v.append(esr_map[has_r])
        if np.any(has_l):
            esl_start = np.where(has_r, second_row, first_row)
            ind_a.append(esl_start[has_l])
            ind_b.append(np.full(int(has_l.sum()), GROUND_INDEX, np.int64))
            ind_v.append(esl_map[has_l])

        # Source branches: emf —rout→ [mid —L→] attach node.
        vs_plus = []
        vs_volt = []
        for name, ix, iy, voltage, r_out, l_src in self._sources:
            attach = iy * nx + ix
            emf = len(nodes)
            nodes.append(("src", name, "emf"))
            if l_src > 0:
                mid = len(nodes)
                nodes.append(("src", name, "mid"))
                res_a.append(np.array([emf], dtype=np.int64))
                res_b.append(np.array([mid], dtype=np.int64))
                res_v.append(np.array([r_out]))
                ind_a.append(np.array([mid], dtype=np.int64))
                ind_b.append(np.array([attach], dtype=np.int64))
                ind_v.append(np.array([l_src]))
            else:
                res_a.append(np.array([emf], dtype=np.int64))
                res_b.append(np.array([attach], dtype=np.int64))
                res_v.append(np.array([r_out]))
            vs_plus.append(emf)
            vs_volt.append(voltage)

        def cat(parts: list[np.ndarray], dtype) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        compiled = CompiledACNetlist.from_arrays(
            nodes=tuple(nodes),
            res_a=cat(res_a, np.int64),
            res_b=cat(res_b, np.int64),
            res_ohm=cat(res_v, float),
            ind_a=cat(ind_a, np.int64),
            ind_b=cat(ind_b, np.int64),
            ind_h=cat(ind_v, float),
            cap_a=cap_a,
            cap_b=cap_b,
            cap_f=cap_v,
            vs_plus=np.array(vs_plus, dtype=np.int64),
            vs_minus=np.full(len(vs_plus), GROUND_INDEX, dtype=np.int64),
            vs_volt=np.array(vs_volt),
            cs_from=mesh_rows,
            cs_to=np.full(cells, GROUND_INDEX, dtype=np.int64),
            cs_amp=np.ascontiguousarray(self._sink_map, dtype=float).ravel(),
        )
        self._compiled = (self._rev, self._sink_rev, compiled)
        return compiled

    def solve(self, frequencies_hz: np.ndarray) -> GridACSweepSolution:
        """Driven phasor sweep: sources at their EMFs, sinks as AC
        load magnitudes (phase 0).

        As the frequency approaches zero the decaps open and the
        series inductances short, so the voltage maps converge to the
        :class:`GridPDN` DC IR-drop solution of the same mesh — the
        regression the grid tests pin down.
        """
        freqs = check_frequencies(frequencies_hz)
        return GridACSweepSolution(
            sweep=self.compile_ac().solve(freqs), nx=self.nx, ny=self.ny
        )


def _require_finite(value, name: str) -> None:
    """Reject NaN/inf anywhere in a scalar or array input, by name.

    The range guards (``<= 0``, ``< 0``) are all false for NaN, so this
    check runs first at every :class:`GridACPDN` boundary.
    """
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{name} must be finite")


def _check_probe(probe_error: np.ndarray, freqs: np.ndarray) -> None:
    """Raise at the first sweep point whose known-solution probe failed."""
    bad = ~(np.isfinite(probe_error) & (probe_error <= SINGULARITY_PROBE_TOL))
    if bad.any():
        raise SolverError(
            "grid impedance is singular at "
            f"{freqs[np.nonzero(bad)[0][0]]:.6g} Hz "
            "(resonant singularity or floating mesh)"
        )


def _admittance_entry_map(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """COO positions of two-terminal admittance stamps, value-free.

    The per-entry layout of
    :func:`repro.pdn.network.admittance_stamp_entries` with the values
    replaced by ``(element index, sign)`` pairs, so frequency-varying
    element admittances can be scattered onto a fixed pattern with one
    fancy-index per sweep chunk.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    index = np.arange(len(a))
    in_a = a != GROUND_INDEX
    in_b = b != GROUND_INDEX
    in_ab = in_a & in_b
    rows = np.concatenate([a[in_a], b[in_b], a[in_ab], b[in_ab]])
    cols = np.concatenate([a[in_a], b[in_b], b[in_ab], a[in_ab]])
    edge = np.concatenate([index[in_a], index[in_b], index[in_ab], index[in_ab]])
    sign = np.concatenate(
        [
            np.ones(int(in_a.sum())),
            np.ones(int(in_b.sum())),
            -np.ones(int(in_ab.sum())),
            -np.ones(int(in_ab.sum())),
        ]
    )
    return rows, cols, edge, sign
