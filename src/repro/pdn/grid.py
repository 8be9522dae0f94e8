"""2-D lateral grid PDN model.

Discretizes one polarity of a metal layer (interposer RDL or the die
BEOL grid) over the die area into an ``nx x ny`` node mesh.  Adjacent
nodes are connected by resistors derived from the layer's sheet
resistance; POL sinks come from a :class:`~repro.pdn.powermap.PowerMap`
and regulator outputs (an EMF behind an output resistance) attach at
arbitrary grid positions.  The mesh itself is a
:class:`~repro.pdn.mesh.MeshDesign`; :class:`GridPDN` (DC) and
:class:`GridACPDN` (AC) are views of it.

Loss accounting convention: the grid models ONE polarity.  For a
symmetric power + ground pair the reported lateral loss is doubled via
``rail_pair_factor`` (default 2.0).

Solving is array-native and nodal: both DC engines solve the mesh
nodes of :func:`dc_stamp`, where a regulator is an ``r_out`` shunt
plus a Norton injection, and the sparse LU is cached, so repeated
solves that only change the sink map or the source voltages — load
sweeps, Monte-Carlo scenarios, droop-setpoint studies — pay
back-substitution cost only.  Solutions are packaged on the same
stamp: lateral currents from its edges and each regulator's current
by Ohm's law across ``r_out``, so branch currents stay physical.  The
driven AC sweep solves the same node-only system as the impedance
map, each regulator a Norton injection behind its output branch.  The
MNA form (:meth:`GridPDN.compile`, every regulator an EMF node and a
voltage-source row) is derived on request as the oracle form.
Attaching/removing sources or the ring bus changes the design's key
and transparently refactorizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..errors import (
    ConfigError,
    SolverError,
    require_finite,
    require_indices,
    require_real,
)
from .ac import (
    _DENSE_BATCH_ENTRIES,
    check_frequencies,
    probed_lu,
)
from .fast_poisson import (
    FastPoissonOperator,
    StructuredGridPDN,
    StructuredSolveError,
    touched_coupling,
)
from .impedance import ImpedanceProfile
from .mna import (
    SINGULARITY_PROBE_TOL,
    FactorizedPDN,
    check_balance,
    check_method,
    singularity_probe,
)
from .mesh import DecapDensity, MeshDesign, MeshView, cached
from .network import (
    GROUND_INDEX,
    CompiledNetlist,
    Netlist,
    admittance_stamp_entries,
)


@dataclass(frozen=True)
class GridSolution:
    """Solved grid operating point.

    For name-keyed element views (``grid.*``, ``ring[*]``, ``src.*``)
    solve the MNA oracle form, ``solve_dc(grid.compile())``.

    Attributes:
        source_currents_a: output current of each attached source, in
            attachment order (exactly 0 A for a disabled source).
        lateral_loss_w: I²R loss in the grid metal for the rail pair.
        source_loss_w: I²R loss inside the sources' output resistances
            (not part of interconnect loss; useful for diagnostics).
        voltage_map: node voltages as an (ny, nx) array.
        grid_edge_currents_a: signed current through each mesh edge
            (x edges then y edges).
    """

    source_currents_a: np.ndarray
    lateral_loss_w: float
    source_loss_w: float
    voltage_map: np.ndarray
    grid_edge_currents_a: np.ndarray

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
        edge_currents = np.abs(self.grid_edge_currents_a)
        if not edge_currents.size:
            return {"max_a": 0.0, "mean_a": 0.0}
        return {
            "max_a": float(edge_currents.max()),
            "mean_a": float(edge_currents.mean()),
        }


#: ``engine="auto"`` DC solves on meshes at or above this cell count
#: run on the structured (fast-Poisson) engine; smaller meshes stay on
#: the cached sparse LU, whose warm back-substitutions are already
#: cheap and whose cold factorization only starts to hurt past this
#: size.  The transient has its own crossover,
#: :data:`~repro.pdn.grid_transient.TRANSIENT_AUTO_MIN_CELLS`.
STRUCTURED_AUTO_MIN_CELLS = 4096


#: The solve engines of the DC and transient views.
ENGINES = ("auto", "structured", "factorized")


def check_engine(engine: str) -> str:
    """``engine`` if it names one of :data:`ENGINES`, else ConfigError."""
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown solve engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}"
        )
    return engine


#: The ``engine`` option of the DC and transient views, checked by
#: :func:`check_engine` on every assignment, not only in the
#: constructor.
engine_option = property(
    lambda view: view._engine,
    lambda view, engine: setattr(view, "_engine", check_engine(engine)),
    doc="The solve engine, one of :data:`ENGINES`.",
)


def resolve_engine(engine: str, cells: int, min_cells: int) -> str:
    """The engine a DC or transient solve tries first: ``engine``
    itself, or for ``"auto"`` structured at or above ``min_cells``
    cells and factorized below.  Each view passes its own crossover:
    :data:`STRUCTURED_AUTO_MIN_CELLS` for DC,
    :data:`~repro.pdn.grid_transient.TRANSIENT_AUTO_MIN_CELLS` for the
    transient."""
    if engine != "auto":
        return engine
    return "structured" if cells >= min_cells else "factorized"


def _mesh_nodes(nx: int, ny: int) -> tuple:
    """Node ids of the mesh rows, ``("g", ix, iy)`` in row order."""
    return tuple(("g", ix, iy) for iy in range(ny) for ix in range(nx))


def dc_stamp(design: MeshDesign) -> CompiledNetlist:
    """The nodal DC stamp of ``design``, solved by both DC engines and
    packaged on by :class:`GridPDN`, and the transient's
    capacitors-open DC-init stamp (both through :func:`dc_structure`).

    Resistors: the lateral edges (``grid.x[ix,iy]``, ``grid.y[ix,iy]``,
    ``ring[k]``), then one ``r_out`` shunt to ground per source
    (``src.<name>.rout``).  Current sources, zero-valued (callers pass
    values per solve): one sink per cell (``sink[ix,iy]``), then one
    Norton injection ``V/r_out`` per source into its attach node
    (``src.<name>.norton``).  With no voltage-source rows the matrix is
    symmetric positive definite, and an open-circuited source is its
    shunt (resistor ``lateral_count + j``) and injection removed.
    """
    nx, ny = design.nx, design.ny
    cells = nx * ny
    a, b, r, _ = design.lateral_edges()
    attach = design.attach_rows()
    ground = np.full(attach.size, GROUND_INDEX, dtype=np.int64)
    names = [source.name for source in design.sources]
    ring_k = design.ring_segments()[0]

    def resistor_names() -> list[str]:
        rows = [("x", iy, ix) for iy in range(ny) for ix in range(nx - 1)]
        rows += [("y", iy, ix) for iy in range(ny - 1) for ix in range(nx)]
        return (
            [f"grid.{axis}[{ix},{iy}]" for axis, iy, ix in rows]
            + [f"ring[{k}]" for k in ring_k]
            + [f"src.{name}.rout" for name in names]
        )

    return CompiledNetlist(
        nodes=lambda: _mesh_nodes(nx, ny),
        n_nodes=cells,
        res_a=np.concatenate([a, attach]),
        res_b=np.concatenate([b, ground]),
        res_ohm=np.concatenate(
            [r, design.source_values("output_resistance_ohm")]
        ),
        cs_from=np.concatenate([np.arange(cells, dtype=np.int64), ground]),
        cs_to=np.concatenate(
            [np.full(cells, GROUND_INDEX, dtype=np.int64), attach]
        ),
        cs_amp=np.zeros(cells + attach.size),
        res_names=resistor_names,
        cs_names=lambda: [
            f"sink[{ix},{iy}]" for iy in range(ny) for ix in range(nx)
        ]
        + [f"src.{name}.norton" for name in names],
    )


@dataclass
class _GridStructure:
    """Cached assembly (and, lazily, the solve engines) of one topology.

    Built by :func:`dc_structure` for a transient's DC init, and for
    :class:`GridPDN` cached per view under the design's
    :attr:`~repro.pdn.mesh.MeshDesign.key`, which captures everything
    that shapes the system matrix (mesh resistances, source attachment
    points and output resistances, ring bus, per-edge variation).  Sink
    currents and source voltages are RHS-only.  ``stamp`` is
    :func:`dc_stamp`, the one form solutions are solved and packaged
    on.  Both engines are created on first use: the sparse LU of the
    stamp, so that :meth:`GridPDN.compile` never pays for an LU
    decomposition, and the structured fast-Poisson engine, so that
    factorized-only workloads never pay for transforms.
    """

    stamp: CompiledNetlist
    grid_edge_count: int
    lateral_count: int  # grid edges + ring segments
    # The design it was assembled from; only the fields its key covers
    # are read, since sink and voltage edits reuse the structure.
    design: MeshDesign

    @cached_property
    def solver(self) -> FactorizedPDN:
        # Route through the process-wide content-hashed cache so grid
        # rebuilds (sweep workers, CLI re-runs) and transient views of
        # the design share one LU.  Lazy import: the parallel layer
        # sits above pdn in the dependency graph.
        from ..parallel.cache import get_factorized

        return get_factorized(self.stamp)

    @cached_property
    def packing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The packager's constants of the stamp: ``1/res_ohm``, the
        rows the ring and shunt currents flow into (ring heads, then
        attach nodes, in branch order), and the rows their drops read
        (ring tails, then those).  Held per topology: ``1/res_ohm``
        rebuilt per packaged row cost a division per branch, and rebuilt
        per packaging call it raised the peak RSS of a 128² A1 bank's
        solves by ~5 MB (glibc malloc keeps the freed block as a heap
        hole)."""
        stamp, lateral = self.stamp, self.lateral_count
        ring = slice(self.grid_edge_count, lateral)
        heads = np.concatenate([stamp.res_b[ring], stamp.res_a[lateral:]])
        taps = np.concatenate([stamp.res_a[ring], heads])
        return 1.0 / stamp.res_ohm, heads, taps

    @cached_property
    def fast(self) -> StructuredGridPDN:
        return StructuredGridPDN(self.design)


def dc_structure(design: MeshDesign) -> _GridStructure:
    """The DC structure of ``design``: its :func:`dc_stamp` and, on first
    read, that stamp's engines."""
    stamp = dc_stamp(design)
    lateral = stamp.res_ohm.size - len(design.sources)
    return _GridStructure(
        stamp=stamp,
        grid_edge_count=lateral - design.ring_segments()[0].size,
        lateral_count=lateral,
        design=design,
    )


class GridPDN(MeshView):
    """A rectangular one-polarity PDN grid over the die area: the DC
    IR-drop view of a :class:`~repro.pdn.mesh.MeshDesign`.

    The mesh is built through the shared mutators of
    :class:`~repro.pdn.mesh.MeshView` (or taken whole with
    :meth:`~repro.pdn.mesh.MeshView.from_design`).  Source inductance,
    edge inductance and decap have no DC effect and are ignored.

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
            transparent sparse-LU fallback, cached LU below and on any
            design with per-edge resistance scales),
            ``"structured"`` (force the fast path; raises
            :class:`~repro.pdn.fast_poisson.StructuredSolveError` when
            its correction is singular or non-finite, and
            :class:`~repro.errors.ConfigError` on a design with
            per-edge resistance scales), or ``"factorized"`` (force
            the exact sparse-LU oracle).  Checked on every assignment.
    """

    engine = engine_option

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
        require_finite(rail_pair_factor, "rail_pair_factor")
        if rail_pair_factor < 1.0:
            raise ConfigError("rail pair factor must be >= 1")
        self.rail_pair_factor = rail_pair_factor
        self.engine = engine
        super().__init__(width_m, height_m, sheet_ohm_sq, nx=nx, ny=ny)

    def _check_design(self, design: MeshDesign) -> None:
        """DC solves per-edge variation but needs a 2-D mesh."""
        if design.nx < 2 or design.ny < 2:
            raise ConfigError("grid needs at least 2x2 nodes")

    # -- solving -----------------------------------------------------------------

    def build_netlist(self) -> Netlist:
        """Assemble the netlist for the current sinks and sources."""
        design = self._require(sinks=True)
        netlist = Netlist()
        rx = self.edge_resistance_x_ohm
        ry = self.edge_resistance_y_ohm

        def node(ix: int, iy: int) -> tuple[str, int, int]:
            return ("g", ix, iy)

        sx = design.edge_scale_x
        sy = design.edge_scale_y
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
                current = float(design.sinks[iy, ix])
                if current > 0.0:
                    netlist.add_load(
                        f"sink[{ix},{iy}]", node(ix, iy), current
                    )

        for source in design.sources:
            netlist.add_source_with_impedance(
                f"src.{source.name}",
                node(source.ix, source.iy),
                source.voltage_v,
                source.output_resistance_ohm,
            )

        for k, a, b in zip(*design.ring_segments()):
            netlist.add_resistor(
                f"ring[{k}]",
                node(int(a) % self.nx, int(a) // self.nx),
                node(int(b) % self.nx, int(b) // self.nx),
                design.ring_bus_ohm,
            )
        return netlist

    # -- vectorized assembly / cached factorization ------------------------------

    def _build_structure(self) -> _GridStructure:
        return dc_structure(self.design)

    def _ensure_structure(self) -> _GridStructure:
        return cached(
            self, "_structure", self.design.key, self._build_structure
        )

    def compile(self) -> CompiledNetlist:
        """The grid's MNA form with its sinks and source voltages: each
        regulator an EMF node (``("src.<name>", "emf")``) and voltage
        source (``src.<name>.v``) behind ``r_out``.  It is derived from
        the cached :func:`dc_stamp` on every call (the shunts move from
        ground to the EMF nodes, the Norton injections become
        voltage-source rows) and is the oracle form the nodal engines
        are checked against."""
        design = self._require(sinks=True)
        structure = self._ensure_structure()
        stamp, lateral = structure.stamp, structure.lateral_count
        nx, ny, cells = self.nx, self.ny, stamp.n_nodes
        names = self.source_names
        emf_rows = cells + np.arange(len(names), dtype=np.int64)
        return CompiledNetlist(
            nodes=lambda: _mesh_nodes(nx, ny)
            + tuple((f"src.{name}", "emf") for name in names),
            n_nodes=cells + len(names),
            res_a=np.concatenate([stamp.res_a[:lateral], emf_rows]),
            res_b=np.concatenate(
                [stamp.res_b[:lateral], stamp.res_a[lateral:]]
            ),
            res_ohm=stamp.res_ohm,
            cs_from=stamp.cs_from[:cells],
            cs_to=stamp.cs_to[:cells],
            cs_amp=_sink_row(design),
            vs_plus=emf_rows,
            vs_minus=np.full(len(names), GROUND_INDEX, dtype=np.int64),
            vs_volt=design.source_values("voltage_v"),
            res_names=lambda: stamp.res_names,
            cs_names=lambda: stamp.cs_names[:cells],
            vs_names=tuple(f"src.{name}.v" for name in names),
        )

    def _resolve_engine(self) -> str:
        """The engine this solve will try first: under ``"auto"`` a
        design with per-edge resistance scales runs on the nodal LU at
        any size, since the structured engine needs uniform metal."""
        if self.engine == "auto" and self.design.has_edge_scales:
            return "factorized"
        return resolve_engine(
            self.engine, self.nx * self.ny, STRUCTURED_AUTO_MIN_CELLS
        )

    def _structured_call(self, structure: _GridStructure, run, fallback):
        """Run ``run`` on the structured engine, falling back to
        ``fallback`` (the factorized path) under ``engine="auto"``
        when the structured solve raises
        :class:`~repro.pdn.fast_poisson.StructuredSolveError` (a
        singular or non-finite correction)."""
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
        design = self._require(sinks=True)
        return self._solve_batch(_sink_row(design)[None], None, check)[0]

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
        self._require()
        shape_error = ConfigError(
            f"sink_maps must be a stack of ({self.ny}, {self.nx}) arrays"
        )
        try:
            if not isinstance(sink_maps, np.ndarray):
                sink_maps = list(sink_maps)  # a generator, say
            stack = np.asarray(sink_maps)
        except (TypeError, ValueError):
            raise shape_error from None
        stack = require_real(stack, "sink_maps").astype(float, copy=False)
        if stack.ndim == 2 and stack.shape == (self.ny, self.nx):
            stack = stack[None]
        if stack.ndim != 3 or stack.shape[1:] != (self.ny, self.nx):
            raise shape_error
        require_finite(stack, "sink_maps")
        if np.any(stack < 0):
            raise ConfigError("sink currents must be non-negative")
        flat = np.ascontiguousarray(stack).reshape(
            stack.shape[0], self.nx * self.ny
        )
        return self._solve_batch(flat, None, check)

    def solve_disabled(
        self,
        disabled_sources: "tuple[int, ...] | list[int] | np.ndarray",
        check: bool = True,
        method: str = "auto",
    ) -> GridSolution:
        """Solve with a subset of the attached sources disabled: a
        one-scenario :meth:`solve_disabled_many`."""
        return self.solve_disabled_many(
            [disabled_sources], check=check, method=method
        )[0]

    def solve_disabled_many(
        self,
        scenarios: "list | tuple",
        check: bool = True,
        method: str = "auto",
    ) -> list[GridSolution]:
        """Solve a failure sweep, each scenario a set of disabled sources.

        A disabled source is an open-circuited regulator: its output
        shunt and Norton injection leave the nodal system (its ring tap
        stays in the metal), a rank-k Woodbury correction on the
        *shared* factorization.  Indices follow attachment order;
        disabled sources report exactly 0 A.  On the factorized engine
        the sweep is one
        :meth:`~repro.pdn.mna.FactorizedPDN.solve_modified_many` call
        that removes shunts and carries one injection row per scenario
        (``method`` is forwarded: ``"auto"`` refactorizes a scenario
        whose correction is ill-conditioned), so an exhaustive N−k
        enumeration pays three batched solves for the entire sweep.
        The structured engine has no per-scenario method; ``method`` is
        checked on both engines (ConfigError unless ``"auto"``,
        ``"woodbury"`` or ``"refactor"``).
        """
        check_method(method)
        design = self._require(sinks=True)
        live = np.array(
            [self._live_sources(scenario) for scenario in scenarios],
            dtype=bool,
        ).reshape(-1, len(design.sources))
        sinks = _sink_row(design)
        return self._solve_batch(
            np.broadcast_to(sinks, (len(live), sinks.size)),
            live,
            check,
            method,
        )

    def _live_sources(self, disabled_sources) -> np.ndarray:
        """The live-source mask of one disable scenario, its indices
        checked."""
        live = np.ones(len(self.design.sources), dtype=bool)
        indices = np.atleast_1d(
            require_indices(disabled_sources, "disabled_sources")
        ).tolist()
        if any(i < 0 or i >= live.size for i in indices):
            raise ConfigError("disabled source index out of range")
        if len(set(indices)) >= live.size:
            raise ConfigError("cannot disable every source")
        live[indices] = False
        return live

    def _solve_batch(
        self,
        sinks: np.ndarray,
        live: np.ndarray | None,
        check: bool,
        method: str = "auto",
    ) -> list[GridSolution]:
        """Every DC solve of the grid, on the engine it resolves to.

        ``sinks`` is an ``(m, cells)`` stack of sink rows.  ``live`` is
        ``None`` (every source live) or the ``(m, sources)`` live-source
        mask of a failure sweep, whose rows share one sink map.  The
        public entry points have checked both.  Each engine returns
        node voltages of :func:`dc_stamp`: the structured one from one
        ``solve_reduced`` call, the factorized one from one solve per
        row with every source live (a multi-column back-substitution
        would round differently) or one ``solve_modified_many`` call
        per failure sweep (``method`` is forwarded).
        """
        if not len(sinks):
            return []
        structure = self._ensure_structure()
        design = self.design
        volts = design.source_values("voltage_v")
        g_src = 1.0 / design.source_values("output_resistance_ohm")
        mask = np.ones((len(sinks), volts.size), bool) if live is None else live
        inject = g_src * volts * mask  # the live sources' Norton currents

        def factorized() -> list[np.ndarray]:
            solver = structure.solver
            amps = np.concatenate([sinks, inject], axis=1)
            if live is None:
                return [solver.solve_rhs(solver.rhs(row)) for row in amps]
            shunts = structure.lateral_count + np.arange(volts.size)
            return [
                dc.node_voltage_array
                for dc in solver.solve_modified_many(
                    [shunts[~row] for row in live],
                    cs_amp=amps,
                    check=False,
                    method=method,
                )
            ]

        if self._resolve_engine() == "structured":
            # b outlives the packaging on purpose: freeing it first
            # raised the peak RSS of a 128² A1 bank's solves by ~8 MB
            # (glibc malloc raises its mmap threshold to a freed
            # block's size, so the packaging arrays land in the heap).
            b = -sinks
            np.add.at(b, (slice(None), design.attach_rows()), inject)
            voltages = self._structured_call(
                structure, lambda fast: fast.solve_reduced(b, live), factorized
            )
        else:
            voltages = factorized()
        return self._package(structure, voltages, sinks, volts, mask, check)

    def _package(
        self,
        structure: _GridStructure,
        voltages: "np.ndarray | list[np.ndarray]",
        sinks: np.ndarray,
        volts: np.ndarray,
        live: np.ndarray,
        check: bool,
    ) -> list[GridSolution]:
        """The one packager of both engines: node-voltage rows of
        ``structure.stamp`` to solutions.

        Lateral currents come from the stamp's edges, and each source's
        current from Ohm's law across its output resistance,
        ``g·(V − v_attach)``, exactly 0 A when open-circuited.  Under
        ``check`` each row must satisfy KCL at every mesh node and
        balance source power against load power plus dissipation
        (:func:`~repro.pdn.mna.check_balance`, the rule an MNA solution
        is verified by), scaled by the physical sink and source
        currents: the Norton injections' ``V/r_out`` would loosen the
        KCL bound by orders of magnitude.
        """
        stamp, lateral = structure.stamp, structure.lateral_count
        nx, ny, cells = self.nx, self.ny, stamp.n_nodes
        # The stamp orders its edges as mesh_edge_rows does: x edges as
        # (ny, nx−1) rows, y edges as (ny−1, nx) rows, then the ring
        # segments, so mesh drops and their KCL sums are stencil slices.
        x_end, y_end = ny * (nx - 1), structure.grid_edge_count
        ring = slice(y_end, lateral)
        k = lateral - y_end
        conductance, heads, taps = structure.packing
        solutions = []
        for v_row, amp, live_row in zip(voltages, sinks, live):
            v = v_row.reshape(ny, nx)
            v_taps = v_row[taps]
            drop = np.empty_like(conductance)
            np.subtract(v[:, :-1], v[:, 1:], out=drop[:x_end].reshape(ny, -1))
            np.subtract(v[:-1], v[1:], out=drop[x_end:y_end].reshape(-1, nx))
            np.subtract(v_taps[:k], v_taps[k : 2 * k], out=drop[ring])
            # A shunt's drop is the physical one across r_out, EMF to
            # attach node, and exactly 0 V when the source is dead.
            shunt = drop[lateral:]
            shunt[:] = 0.0
            np.subtract(volts, v_taps[2 * k :], out=shunt, where=live_row)
            branch_currents = drop * conductance
            losses = np.multiply(branch_currents, drop, out=drop)
            currents = branch_currents[lateral:].copy()
            lateral_loss = losses[:lateral].sum()
            source_loss = losses[lateral:].sum()
            if check:
                residual = np.bincount(heads, branch_currents[y_end:], cells)
                if k:
                    np.subtract.at(residual, taps[:k], branch_currents[ring])
                residual -= amp
                field = residual.reshape(ny, nx)
                i_x = branch_currents[:x_end].reshape(ny, -1)
                i_y = branch_currents[x_end:y_end].reshape(-1, nx)
                field[:, 1:] += i_x
                field[:, :-1] -= i_x
                field[1:] += i_y
                field[:-1] -= i_y
                check_balance(
                    residual,
                    amp,
                    currents,
                    source_power=float(volts @ currents),
                    load_power=float(amp @ v_row),
                    dissipated=float(lateral_loss + source_loss),
                )
            total_sink = float(amp.sum())
            if abs(currents.sum() - total_sink) > 1e-6 * max(total_sink, 1.0):
                raise SolverError(
                    "source currents do not sum to the load current: "
                    f"{currents.sum():.6f} vs {total_sink:.6f}"
                )
            solutions.append(
                GridSolution(
                    source_currents_a=currents,
                    lateral_loss_w=float(lateral_loss * self.rail_pair_factor),
                    source_loss_w=float(source_loss),
                    voltage_map=v.copy(),
                    grid_edge_currents_a=branch_currents[:y_end],
                )
            )
        return solutions


def _sink_row(design: MeshDesign) -> np.ndarray:
    """The design's sink map as one flat row, in mesh-row order."""
    return np.ascontiguousarray(design.sinks, dtype=float).ravel()


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
        ix = int(require_indices(ix, "ix"))
        iy = int(require_indices(iy, "iy"))
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
        require_finite(target_ohm, "target_ohm")
        if target_ohm <= 0:
            raise ConfigError(
                f"target_ohm must be positive, got {target_ohm}"
            )
        return bool(
            np.all(np.abs(self.z_ohm) <= target_ohm * (1 + 1e-12))
        )

    def violating_node_fraction(self, target_ohm: float) -> float:
        """Fraction of mesh nodes whose peak |Z| exceeds the target.

        Uses the same rounding tolerance as :meth:`meets_target`, so a
        map that "meets target" always reports zero violating nodes.
        """
        require_finite(target_ohm, "target_ohm")
        if target_ohm <= 0:
            raise ConfigError(
                f"target_ohm must be positive, got {target_ohm}"
            )
        peaks = np.abs(self.z_ohm).max(axis=1)
        violating = peaks > target_ohm * (1 + 1e-12)
        return float(np.count_nonzero(violating) / peaks.size)


@dataclass(frozen=True)
class GridACSweepSolution:
    """Driven phasor sweep of the mesh (sources live, sinks as AC loads).

    Attributes:
        frequencies_hz: the sweep grid.
        voltage_maps: complex mesh node voltages, shape
            ``(n_freqs, ny, nx)``.
    """

    frequencies_hz: np.ndarray
    voltage_maps: np.ndarray

    def magnitude_map(self, index: int) -> np.ndarray:
        """|V| over the mesh at sweep point ``index``."""
        return np.abs(self.voltage_maps[index])


@dataclass
class _SpectralACStructure:
    """Eigenbasis of ``G x = λ D_α x`` for the fast impedance map.

    Valid when the mesh metal is purely resistive and the decap model
    is a positive per-node *density* of one unit cell: the system is
    ``A(ω) = G + y_u(ω) D_α + U Y(ω) Uᵀ`` with ``G`` constant, so one
    generalized eigendecomposition turns every frequency into diagonal
    updates plus a rank-(1 + s) Woodbury correction: the deflated zero
    mode and the s source branches.  The
    unit cell and source branches are read from the design the
    structure is cached under.
    """

    lam: np.ndarray  # generalized eigenvalues (n,), zero mode at τ
    tau: float  # zero-mode deflation shift folded into lam[0]
    q: np.ndarray  # eigenvectors, Qᵀ D_α Q = I
    q_sq: np.ndarray  # Q ∘ Q, for diag(M⁻¹) gathers
    p: np.ndarray  # Qᵀ U, shape (n, 1 + s): deflation e₀, then sources


@dataclass
class _StructuredACStructure:
    """The uniform-density reduced AC system on the mesh Green's function.

    Valid when the mesh metal is purely resistive and every node
    carries the *same* positive decap density: the reduced system is
    ``A(ω) = M(ω) + U C(ω) Uᵀ`` with ``M(ω) = G_mesh + τ·u₀u₀ᵀ +
    α·y_u(ω)·I``, the deflated mesh operator shifted by the decap
    admittance, and the source/ring branches a rank-(1 + |T|) Woodbury
    correction on ``U = [u₀ | E_T]``, T the attach nodes.  Per
    frequency ``M⁻¹``'s diagonal and its rows at T come from one
    periodic Green's function by the method of images — no
    eigendecomposition, no LU, ever.  Like
    :class:`_SpectralACStructure`, it leaves the unit cell and source
    branches on the design.
    """

    mesh: FastPoissonOperator  # deflated, unshifted
    touched: np.ndarray  # T, the attach nodes, sorted
    alpha: float  # uniform decap density
    src_slots: np.ndarray  # column of U at each source's attach node
    ring: np.ndarray | None  # ring Laplacian on U's columns, (k, k)


@dataclass
class _SelinvPlan:
    """Block-tridiagonal layout of the reduced AC system.

    The reduced graph (mesh edges plus ring segments; decap and source
    branches are diagonal shunts) is split into breadth-first level
    sets, so every coupling lies inside a level or between neighbouring
    levels and ``A(ω)`` is block tridiagonal in level order.  Levels are
    padded to one ``width`` with unit diagonal slots that couple to
    nothing.  Costing reads only ``levels`` and ``width``; the sweep's
    element-to-slot map, :attr:`assembly`, is built on first use.
    """

    levels: int
    width: int
    slot: np.ndarray  # per node: level * width + position in its level
    edge_a: np.ndarray  # lateral edge ends, MeshDesign.lateral_edges order
    edge_b: np.ndarray

    @property
    def row_size(self) -> int:
        """Entries of one frequency's flat blocks (see :attr:`assembly`)."""
        return self.levels * self.width * (2 * self.width + 1)

    @property
    def chunk(self) -> int:
        """Frequencies per sweep chunk: the block rows that fit the
        shared scratch budget."""
        return max(1, _DENSE_BATCH_ENTRIES // self.row_size)

    @cached_property
    def assembly(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """``(matrix, dst, pad)``: where the element values land.

        A frequency's blocks are one flat row: the diagonal blocks
        ``D_l``, ``levels·width²`` entries, then the coupling blocks
        ``[U_l | z_l]``, ``levels·width·(width + 1)``, whose last column
        is the right-hand side ``A·w`` of the known-solution probe (see
        :func:`repro.pdn.mna.singularity_probe`).  The blocks below the
        diagonal are not stored because ``A`` is complex symmetric.
        ``matrix @ [edge_y | shunt]ᵀ`` gives every entry the elements
        fill, in the order of the flat indices ``dst``: a node's
        diagonal is its shunt plus every edge it ends, a coupling minus
        every edge joining its two nodes, and a probe entry
        ``shunt_i·w_i + Σ y_e·(w_i − w_j)``.  Parallel elements — a ring
        segment along a mesh edge, two segments joining one pair of
        nodes — land on one entry and sum there; co-located sources
        already share one shunt.  ``pad`` is the flat diagonal index of
        every padding slot.
        """
        width, cells = self.width, self.slot.size
        level, position = np.divmod(self.slot, width)
        a, b = self.edge_a, self.edge_b
        edges, nodes = np.arange(a.size), np.arange(cells)
        diag = self.slot * width + position
        # Where each node's row of [U_l | z_l] starts.
        upper = self.levels * width * width + self.slot * (width + 1)
        # Each edge's far end lies in its near end's level or the next.
        near = np.where(level[a] <= level[b], a, b)
        far = a + b - near
        same = level[near] == level[far]
        coupling = np.where(
            same, self.slot[near] * width, upper[near]
        ) + position[far]
        mirror = (self.slot[far] * width + position[near])[same]
        w = singularity_probe(cells)
        ones = np.ones(a.size)
        dst = np.concatenate(
            [diag[a], diag[b], diag, coupling, mirror,
             upper[a] + width, upper[b] + width, upper + width]
        )
        column = np.concatenate(
            [edges, edges, a.size + nodes, edges, edges[same],
             edges, edges, a.size + nodes]
        )
        value = np.concatenate(
            [ones, ones, np.ones(cells), -ones, -ones[same],
             w[a] - w[b], w[b] - w[a], w]
        )
        dst, row = np.unique(dst, return_inverse=True)
        matrix = sp.csr_matrix(
            (value, (row, column)), shape=(dst.size, a.size + cells)
        )
        free = np.setdiff1d(np.arange(self.levels * width), self.slot)
        return matrix, dst, free * width + free % width


#: Weights of the per-frequency operation counts ``auto`` compares
#: (see :meth:`GridACPDN.impedance_engine`): structured's cost per
#: ``k²·cells``, and selinv's per ``levels·width³``.  The weights were
#: fit when structured ran two ``k²·cells`` products; on the mesh
#: Green's function it runs one ``k²·cells`` GEMM plus O(k·cells)
#: image sums, and both weights stay (a re-fit is an A/B change to
#: routing).  On the crossover table in ``docs/structured-solvers.md``
#: every selinv weight in 4.8–8.7 picked the faster engine at all 18
#: shapes under the former structured engine; 6.5 sits inside it.
_STRUCTURED_COST_WEIGHT = 2
_SELINV_COST_WEIGHT = 6.5


class GridACPDN(MeshView):
    """Grid-level AC impedance analysis of the die/interposer mesh.

    The AC view of a :class:`~repro.pdn.mesh.MeshDesign`, the
    counterpart of :class:`GridPDN`: the same rectangular one-polarity
    mesh, with its per-node decoupling capacitors (C + ESR + ESL),
    per-edge metal inductance, and VR output branches (Thevenin source
    + output resistance + bump/TSV inductance).  Two analysis surfaces:

    * :meth:`impedance_map` — the die-seen self-impedance Z(f) at
      *every* mesh node (sources zeroed, 1 A probe per node), the
      frequency-domain companion of the DC IR-drop map.
    * :meth:`solve` — the driven phasor sweep (sources live, sink map
      as AC load magnitudes), whose low-frequency limit converges to
      the :class:`GridPDN` DC solution.

    Both surfaces run on one *reduced* node-only system, revalued per
    frequency from :meth:`_element_admittances`: decap chains and source
    branches fold into per-node shunt admittances, and in the driven
    sweep each source's EMF is a Norton injection behind its branch.
    The impedance map solves it by exact block-tridiagonal selected
    inversion (``selinv``), or on the mesh Green's function
    (``structured``) when the decap density is uniform and its rank-k
    branch correction is the cheaper of the two.  The driven sweep and
    the adjoint :meth:`impedance_columns` carry their right-hand sides
    through the same selinv block sweep, and only the ``direct`` oracle
    factors a sparse LU.  Each structure is cached under the design's
    :attr:`~repro.pdn.mesh.MeshDesign.key` alone, so sink and voltage
    edits reuse it.

    Unlike the DC grid, degenerate 1-D chains (``nx == 1`` or
    ``ny == 1``) are allowed: they are the lattice the analytic ladder
    model collapses onto, which the cross-validation tests exploit.
    Per-edge resistance variation has no AC path, so a design that
    carries it is rejected rather than silently solved without it.
    """

    # -- shunt admittances ------------------------------------------------------

    def _decap_admittance(self, omega: np.ndarray) -> np.ndarray:
        """Per-node decap branch admittance, shape (n_freqs, cells).

        The series C + ESR + ESL chain folds exactly into
        ``y = 1 / (ESR + j(ω·ESL − 1/(ω·C)))``; nodes without decap
        contribute zero.
        """
        c, esr, esl = self.design.decap_arrays()
        live = c > 0
        y = np.zeros((omega.size, c.size), dtype=complex)
        if np.any(live):
            w = omega[:, None]
            reactance = w * esl[None, live] - 1.0 / (w * c[None, live])
            y[:, live] = 1.0 / (esr[None, live] + 1j * reactance)
        return y

    def _source_admittance(self, omega: np.ndarray) -> np.ndarray:
        """Per-source zeroed-EMF branch admittance, (n_freqs, s)."""
        rout = self.design.source_values("output_resistance_ohm")
        l_src = self.design.source_values("inductance_h")
        return 1.0 / (rout[None, :] + 1j * omega[:, None] * l_src[None, :])

    def _element_admittances(
        self, omega: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The reduced system's element values over a frequency chunk.

        Returns ``(edge_y, shunt)``: each lateral edge's ``1/(r + jωl)``
        in :meth:`~repro.pdn.mesh.MeshDesign.lateral_edges` order, shape
        (n_freqs, edges), and each node's shunt, its decap branch plus
        the summed source branches attached there, (n_freqs, cells).
        Every impedance and driven path assembles from these values.
        """
        _, _, r, l = self.design.lateral_edges()
        edge_y = 1.0 / (r[None, :] + 1j * omega[:, None] * l[None, :])
        shunt = self._decap_admittance(omega)
        np.add.at(
            shunt,
            (slice(None), self.design.attach_rows()),
            self._source_admittance(omega),
        )
        return edge_y, shunt

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
          one mesh Green's function per frequency, image sums and
          one GEMM per frequency chunk.
        * ``"selinv"`` — fully general (any decap map, inductive mesh
          metal, ring buses); exact block-tridiagonal selected
          inversion batched over frequency, O(levels·width³) per
          frequency.
        * ``"spectral"`` — positive density maps, resistive mesh; one
          dense eigendecomposition per decap change.  Explicit only.
        * ``"direct"`` — per-frequency sparse-LU full inverse, the
          oracle the other engines are tested against.  Explicit only.
        * ``"auto"`` — of ``structured`` and ``selinv``, the one the
          design allows with the smaller per-frequency operation
          count (see :meth:`impedance_engine`).

        Raises:
            ConfigError: no sources attached, bad frequencies, or an
                explicit method on an ineligible topology.
            SolverError: singular/resonant system at a sweep point.
        """
        freqs = check_frequencies(frequencies_hz)
        self._require()
        engine = self.impedance_engine(method)
        omega = 2.0 * math.pi * freqs
        if engine == "structured":
            z = self._impedance_structured(omega)
        elif engine == "selinv":
            z = self._selinv_sweep(omega, freqs)
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
        batch of unit probes — one selinv block sweep carrying every
        probe column through its forward and backward phases.  Column
        ``j`` is the transfer impedance from every mesh node into
        ``nodes[j]`` (row order, ``iy·nx + ix``); its diagonal entry is
        the self-impedance the map reports.  Because the reduced system
        is complex-symmetric, these columns are also the adjoint fields
        ``d Z_k / d y_shunt,i = −(A⁻¹ e_k)_i²`` that the placement
        optimizer turns into per-node decap sensitivities for *all*
        nodes at once.  The sweep's known-solution probe rides along,
        so a singular system raises naming the frequency like every
        other AC path.

        Returns a complex ``(cells, len(nodes))`` array.

        Raises:
            SolverError: singular or non-finite system at the frequency.
        """
        freqs = check_frequencies(np.atleast_1d(frequency_hz))
        if freqs.size != 1:
            raise ConfigError("impedance_columns takes a single frequency")
        self._require()
        cells = self.nx * self.ny
        rows = np.atleast_1d(require_indices(nodes, "nodes"))
        if rows.size == 0:
            raise ConfigError("nodes must be a non-empty 1-D index list")
        if np.any(rows < 0) or np.any(rows >= cells):
            raise ConfigError("probe node index outside the mesh")
        rhs = np.zeros((1, cells, rows.size), dtype=complex)
        rhs[0, rows, np.arange(rows.size)] = 1.0
        return self._selinv_sweep(2.0 * math.pi * freqs, freqs, rhs)[0]

    def impedance_engine(self, method: str = "auto") -> str:
        """The impedance-map engine ``method`` resolves to.

        Returns ``"structured"``, ``"selinv"``, ``"spectral"`` or
        ``"direct"`` — the regression surface the engine-selection
        tests assert against.  ``"auto"`` resolves to ``"structured"``
        when the topology allows it (uniform positive density,
        resistive mesh) *and* its per-frequency operation count is the
        smaller one, and to ``"selinv"`` otherwise.  The counts are
        read from the design's shape:

        * structured ≈ 2·k²·cells + k³ for its rank-k branch
          correction, k = 1 (zero-mode deflation) + attach nodes: one
          ``k²·cells`` GEMM weighting the influence rows plus O(k·cells)
          image sums, then one k×k solve (the weight 2 was fit when it
          ran two ``k²·cells`` products, and stays);
        * selinv ≈ 6.5·levels·width³ from the cached level plan (one
          block inverse and four block products per level), the
          weight set inside the range that routes every shape of the
          crossover table in ``docs/structured-solvers.md`` to its
          faster engine (see :data:`_SELINV_COST_WEIGHT`).

        A few VRs keep structured on any mesh, while the paper's 48-VR
        banks run selinv up to 24² (A2) or 16² (A1, whose ring widens
        selinv's levels).
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
            if self._structured_eligible() and self._structured_cheaper():
                return "structured"
            return "selinv"
        return method

    def _structured_cheaper(self) -> bool:
        """The operation-count comparison of :meth:`impedance_engine`."""
        k = 1 + np.unique(self.design.attach_rows()).size
        plan = self._ensure_selinv()
        return (
            _STRUCTURED_COST_WEIGHT * k * k * self.nx * self.ny + k**3
            < _SELINV_COST_WEIGHT * plan.levels * plan.width**3
        )

    def _spectral_eligible(self) -> bool:
        decap = self.design.decap
        return (
            isinstance(decap, DecapDensity)
            and bool(np.all(decap.density > 0))
            and self.edge_inductance_x_h == 0.0
            and self.edge_inductance_y_h == 0.0
        )

    def _structured_eligible(self) -> bool:
        """Structured = spectral requirements plus a *uniform* density
        (one shunt admittance per node keeps M diagonal in the DCT
        basis)."""
        if not self._spectral_eligible():
            return False
        alpha = self.design.decap.density
        return bool(np.all(alpha == alpha.flat[0]))

    def _ensure_spectral(self) -> _SpectralACStructure:
        return cached(
            self, "_spectral", self.design.key, self._build_spectral
        )

    def _build_spectral(self) -> _SpectralACStructure:
        design = self.design
        cells = self.nx * self.ny
        a, b, r, _ = design.lateral_edges()
        rows, cols, vals = admittance_stamp_entries(a, b, 1.0 / r)
        g = np.zeros((cells, cells))
        np.add.at(g, (rows, cols), vals)
        decap = design.decap
        alpha = decap.density.ravel()
        # Symmetrized generalized eigenproblem G q = λ D_α q: scale by
        # D_α^(-1/2), take the ordinary symmetric eigendecomposition,
        # and unscale — Qᵀ D_α Q = I, Qᵀ G Q = Λ by construction.
        dinv = 1.0 / np.sqrt(alpha)
        lam, v = np.linalg.eigh(g * dinv[:, None] * dinv[None, :])
        q = dinv[:, None] * v
        # Zero-mode deflation, as in the structured engine: the mesh's
        # constant mode (λ = 0, first in eigh's ascending order) would
        # leave 1/y_u to cancel against the source correction at low
        # frequency, so it sits at τ and comes back as a −τ branch
        # whose modal column is e₀.
        tau = float(lam[-1])
        lam[0] = tau
        attach = design.attach_rows()
        p = np.zeros((cells, 1 + attach.size))
        p[0, 0] = 1.0
        p[:, 1:] = q[attach, :].T
        return _SpectralACStructure(lam=lam, tau=tau, q=q, q_sq=q * q, p=p)

    def _impedance_spectral(self, omega: np.ndarray) -> np.ndarray:
        """diag(A⁻¹) via the cached eigenbasis, shape (cells, n_freqs).

        ``A(ω) = M(ω) + U Y(ω) Uᵀ`` with ``M = G + y_u(ω) D_α``
        diagonal in the eigenbasis, so ``diag(M⁻¹)`` is one GEMM per
        frequency chunk; the deflated zero mode and the s source
        branches enter as a rank-(1 + s) Sherman–Morrison–Woodbury
        correction whose capacitance matrix inverts per frequency at
        (1 + s)² cost.  Frequency-chunked to bound scratch memory,
        like the structured engine.
        """
        structure = self._ensure_spectral()
        design = self.design
        cells, k = structure.p.shape
        y_u = design.decap.unit_admittance(omega)
        # Branch impedances: the deflated zero mode's −1/τ, then each
        # source's zeroed-EMF branch.
        z_branch = np.concatenate(
            [
                np.full((omega.size, 1), -1.0 / structure.tau),
                design.source_values("output_resistance_ohm")[None, :]
                + 1j * omega[:, None] * design.source_values("inductance_h"),
            ],
            axis=1,
        )
        eye = np.eye(k)
        z = np.empty((cells, omega.size), dtype=complex)
        chunk = min(omega.size, max(1, _DENSE_BATCH_ENTRIES // (k * cells)))
        # Three (F, cells, k) buffers serve every chunk: the weighted
        # modal columns, the influence columns M⁻¹U, and those columns
        # weighted by the correction.
        tmp = np.empty((chunk, cells, k), dtype=complex)
        influence = np.empty_like(tmp)
        weighted = np.empty_like(tmp)
        for lo in range(0, omega.size, chunk):
            hi = min(lo + chunk, omega.size)
            n = hi - lo
            with np.errstate(divide="ignore", invalid="ignore"):
                w = 1.0 / (structure.lam[None, :] + y_u[lo:hi, None])
            np.multiply(w[:, :, None], structure.p[None], out=tmp[:n])
            np.matmul(structure.q, tmp[:n], out=influence[:n])
            t = structure.p.T @ tmp[:n]  # UᵀM⁻¹U, (F, k, k)
            try:
                with np.errstate(all="ignore"):
                    correction = np.linalg.inv(
                        t + z_branch[lo:hi, :, None] * eye
                    )
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"grid impedance source correction is singular: {exc}"
                ) from exc
            np.matmul(influence[:n], correction, out=weighted[:n])
            diag = w @ structure.q_sq.T
            diag -= np.einsum("fct,fct->fc", weighted[:n], influence[:n])
            z[:, lo:hi] = diag.T
        return z

    def _ensure_structured(self) -> _StructuredACStructure:
        return cached(
            self, "_structured", self.design.key, self._build_structured
        )

    def _build_structured(self) -> _StructuredACStructure:
        design = self.design
        nx, ny = self.nx, self.ny
        gx = 1.0 / self.edge_resistance_x_ohm if nx > 1 else 0.0
        gy = 1.0 / self.edge_resistance_y_ohm if ny > 1 else 0.0
        _, ring_a, ring_b = design.ring_segments()
        attach = design.attach_rows()
        g_ring = np.full(ring_a.size, 1.0 / (design.ring_bus_ohm or 1.0))
        touched, slots, ring = touched_coupling(
            attach, np.zeros(attach.size), ring_a, ring_b, g_ring, 1
        )
        # The deflated mesh operator of the DC fast path: at low
        # frequency 1/(α·y_u) dwarfs every other modal weight and its
        # near-exact cancellation by the source correction destroys ~5
        # digits, so the zero mode sits at τ and comes back as a −τ
        # rank-one branch in the Woodbury block, where the cancellation
        # resolves inside a full-precision dense solve.
        return _StructuredACStructure(
            mesh=FastPoissonOperator(nx, ny, gx, gy),
            touched=touched,
            alpha=float(design.decap.density.flat[0]),
            src_slots=slots,
            ring=ring if ring_a.size else None,
        )

    def _impedance_structured(self, omega: np.ndarray) -> np.ndarray:
        """diag(A⁻¹) on the mesh Green's function, shape (cells, F).

        ``M(ω) = G_mesh + τ·u₀u₀ᵀ + s·I``, ``s = α·y_u(ω)``, is the
        deflated mesh operator under a diagonal shift, so one periodic
        Green's function per frequency
        (:meth:`~repro.pdn.fast_poisson.FastPoissonOperator.green`)
        gives ``diag(M⁻¹)`` and the influence rows ``Zᵀ = (M⁻¹U)ᵀ`` by
        image sums: ``u₀``'s row is uniform, ``1/(√cells·(τ + s))``,
        and T's rows are four images each.  ``t = UᵀZ`` is a scaled row
        sum plus a gather at T, and the branches are a rank-k Woodbury
        correction ``K = (I + C·t)⁻¹C``.  Frequency-chunked to bound
        scratch memory, like the direct engine.
        """
        structure = self._ensure_structured()
        mesh = structure.mesh
        cells = mesh.cells
        touched = structure.touched
        k = 1 + touched.size
        eye = np.eye(k)
        shift = structure.alpha * self.design.decap.unit_admittance(omega)
        y_src = self._source_admittance(omega)
        z = np.empty((cells, omega.size), dtype=complex)
        chunk = min(omega.size, max(1, _DENSE_BATCH_ENTRIES // (k * cells)))
        # Two (F, k, cells) buffers serve every chunk: the influence
        # rows, and those rows weighted by the correction.
        rows = np.empty((chunk, k, cells), dtype=complex)
        weighted = np.empty_like(rows)
        for lo in range(0, omega.size, chunk):
            hi = min(lo + chunk, omega.size)
            n = hi - lo
            influence = rows[:n]
            with np.errstate(divide="ignore", invalid="ignore"):
                green = mesh.green(shift[lo:hi])
                influence[:, 0] = 1.0 / (
                    np.sqrt(cells) * (mesh.deflation_tau + shift[lo:hi, None])
                )
            diag = mesh.green_diagonal(green).reshape(n, cells)
            mesh.green_rows(
                touched, influence[:, 1:].reshape(n, -1, mesh.ny, mesh.nx),
                green,
            )
            t = np.empty((n, k, k), dtype=complex)  # UᵀZ
            t[:, 0] = influence.sum(axis=2) / np.sqrt(cells)
            t[:, 1:] = influence[:, :, touched].swapaxes(1, 2)
            # C's diagonal: −τ, then each attach node's summed source
            # admittance; C·t is its row scaling plus the ring rows.
            c_diag = np.zeros((n, k), dtype=complex)
            c_diag[:, 0] = -mesh.deflation_tau
            np.add.at(c_diag, (slice(None), structure.src_slots), y_src[lo:hi])
            lhs = eye + c_diag[:, :, None] * t
            c = c_diag[:, :, None] * eye
            if structure.ring is not None:
                lhs += structure.ring @ t
                c += structure.ring
            try:
                with np.errstate(all="ignore"):
                    correction = np.linalg.solve(lhs, c)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    "grid impedance source correction is singular: "
                    f"{exc}"
                ) from exc
            np.matmul(
                np.swapaxes(correction, 1, 2), influence, out=weighted[:n]
            )
            diag -= np.einsum("fbj,fbj->fj", weighted[:n], influence)
            z[:, lo:hi] = diag.T
        return z

    def _ensure_selinv(self) -> _SelinvPlan:
        return cached(self, "_selinv", self.design.key, self._build_selinv)

    def _build_selinv(self) -> _SelinvPlan:
        nx, ny = self.nx, self.ny
        cells = nx * ny
        a, b, _, _ = self.design.lateral_edges()
        adjacency = sp.csr_matrix(
            (
                np.ones(2 * a.size),
                (np.concatenate([a, b]), np.concatenate([b, a])),
            ),
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
        return _SelinvPlan(
            levels=counts.size,
            width=width,
            slot=level * width + position,
            edge_a=a,
            edge_b=b,
        )

    def _selinv_sweep(
        self,
        omega: np.ndarray,
        freqs: np.ndarray,
        rhs: np.ndarray | None = None,
    ) -> np.ndarray:
        """Block-tridiagonal selected inversion of the reduced system.

        Takahashi et al. (1973) on the level blocks of
        :meth:`_ensure_selinv`, batched over frequency.  The forward
        Schur sweep ``g_l = (D_l − U_{l−1}ᵀ g_{l−1} U_{l−1})⁻¹`` carries
        right-hand sides beside each coupling block ``U_l``: the
        known-solution probe's, then the caller's ``rhs``, shape
        (F, cells, r), when given.  Without ``rhs`` the backward
        recurrence ``G_l = g_l + X_l G_{l+1} X_lᵀ`` with ``X_l = g_l U_l``
        gives the exact diagonal blocks of the inverse, and the sweep
        returns diag(A⁻¹), (cells, F); with ``rhs`` it skips ``G_l``,
        back-substitutes the carried columns alone and returns
        ``A⁻¹·rhs``, (F, cells, r).  Either way it costs
        O(levels·width³) per frequency and never forms the inverse.  The
        lower blocks are ``U_lᵀ`` and ``g_l U_l`` stands in for
        ``(U_lᵀ g_l)ᵀ`` because ``A`` is complex symmetric.  Each
        frequency chunk fills the blocks straight from the element
        admittances (:attr:`_SelinvPlan.assembly`).
        """
        plan = self._ensure_selinv()
        matrix, dst, pad = plan.assembly
        levels, width = plan.levels, plan.width
        cells = self.nx * self.ny
        count = omega.size
        extra = 0 if rhs is None else rhs.shape[2]
        stride = width + 1 + extra
        split = levels * width * width
        if extra:
            # The caller's columns widen every coupling row; the flat
            # order stays, so only the indices past the D_l blocks move.
            row, column = np.divmod(dst - split, width + 1)
            dst = np.where(dst < split, dst, split + row * stride + column)
        out = np.empty((cells, count) if rhs is None else rhs.shape, complex)
        probe = singularity_probe(cells)
        probe_error = np.empty(count)
        # One flat row of blocks per frequency: D_l, overwritten by g_l
        # (and by G_l on the way back), then [U_l | z_l | B_l],
        # overwritten by [X_l | g_l z_l | g_l B_l] and then by the
        # solutions.  Every chunk refills the one buffer.
        chunk = min(count, plan.chunk)
        buffer = np.empty((chunk, split + levels * width * stride), complex)
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            n = hi - lo
            edge_y, shunt = self._element_admittances(omega[lo:hi])
            blocks = buffer[:n]
            blocks.fill(0.0)
            blocks[:, dst] = (
                matrix @ np.concatenate([edge_y.T, shunt.T])
            ).T
            blocks[:, pad] = 1.0
            g = blocks[:, :split].reshape(n, levels, width, width)
            # [U_l | z_l | B_l] per node row: the coupling to the next
            # level (zero for the last), the known-solution probe's
            # right-hand side A @ w, so every GEMM below also carries
            # the block substitution that must recover w, and the
            # caller's columns.
            coupling = blocks[:, split:].reshape(n, levels * width, stride)
            if extra:
                coupling[:, plan.slot, width + 1 :] = rhs[lo:hi]
            x = coupling.reshape(n, levels, width, stride)
            try:
                with np.errstate(all="ignore"):
                    for l in range(levels):
                        g[:, l] = np.linalg.inv(g[:, l])
                        t = g[:, l] @ x[:, l]
                        if l + 1 < levels:
                            update = np.swapaxes(x[:, l, :, :width], 1, 2) @ t
                            g[:, l + 1] -= update[..., :width]
                            x[:, l + 1, :, width:] -= update[..., width:]
                        x[:, l] = t
                    # Backward from aug = [G_{l+1} | v_{l+1}]: the carried
                    # columns back-substitute in place, v_l = g_l b_l −
                    # X_l v_{l+1}, and a map also overwrites g_l with
                    # G_l.  With rhs, aug holds no G block (keep = 0).
                    keep = 0 if extra else width
                    aug = np.concatenate(
                        [g[:, -1, :, :keep], x[:, -1, :, width:]], axis=2
                    )
                    for l in range(levels - 2, -1, -1):
                        x_l = x[:, l, :, :width]
                        t = x_l @ aug
                        x[:, l, :, width:] -= t[..., keep:]
                        aug[..., keep:] = x[:, l, :, width:]
                        if keep:
                            g[:, l] += t[..., :keep] @ np.swapaxes(x_l, 1, 2)
                            aug[..., :keep] = g[:, l]
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    "grid AC system is singular between "
                    f"{freqs[lo]:.6g} and {freqs[hi - 1]:.6g} Hz "
                    f"(resonant singularity or floating mesh): {exc}"
                ) from exc
            with np.errstate(all="ignore"):
                probe_error[lo:hi] = np.abs(
                    coupling[:, plan.slot, width] - probe
                ).max(axis=1)
            if extra:
                out[lo:hi] = coupling[:, plan.slot, width + 1 :]
            else:
                diag = np.diagonal(g, axis1=2, axis2=3).reshape(n, -1)
                out[:, lo:hi] = diag[:, plan.slot].T
        _check_probe(probe_error, freqs)
        return out

    def _impedance_direct(
        self, omega: np.ndarray, freqs: np.ndarray
    ) -> np.ndarray:
        """diag(A⁻¹) by explicit per-frequency inversion of the reduced
        system, ``splu(A).solve(I)`` with its LU probed as it is
        factored (:func:`~repro.pdn.ac.probed_lu`).

        Each frequency's matrix is stamped from the element admittances
        by :func:`~repro.pdn.network.admittance_stamp_entries`, the
        convention of the lumped solvers, so the oracle shares no
        assembly with the engines it checks.  General (arbitrary decap
        maps, inductive mesh metal) but it forms the full inverse,
        O(cells²) memory per frequency: the oracle the other engines are
        tested against, never picked by ``auto``.
        """
        cells = self.nx * self.ny
        a, b, _, _ = self.design.lateral_edges()
        nodes = np.arange(cells)
        edge_y, shunt = self._element_admittances(omega)
        z = np.empty((cells, omega.size), dtype=complex)
        identity = np.eye(cells, dtype=complex)
        for k in range(omega.size):
            rows, cols, vals = admittance_stamp_entries(a, b, edge_y[k])
            rows, cols = np.append(rows, nodes), np.append(cols, nodes)
            matrix = sp.csc_matrix(
                (np.append(vals, shunt[k]), (rows, cols)), shape=(cells, cells)
            )
            z[:, k] = np.diagonal(probed_lu(matrix, freqs[k]).solve(identity))
        return z

    # -- driven sweep -----------------------------------------------------------

    def solve(self, frequencies_hz: np.ndarray) -> GridACSweepSolution:
        """Driven phasor sweep: sources at their EMFs, sinks as AC
        load magnitudes (phase 0).

        Solves the reduced node-only system of :meth:`impedance_map`, in
        which each source's output branch is already the shunt
        ``y_src(ω)`` at its attach node, so its EMF enters as the Norton
        injection ``y_src(ω)·V`` there.  Each frequency's right-hand
        side rides the selinv block sweep next to its known-solution
        probe, so a singular point raises naming its frequency.  As the
        frequency approaches zero the decaps open and the series
        inductances short, so the voltage maps converge to the
        :class:`GridPDN` DC IR-drop solution of the same mesh — the
        regression the grid tests pin down.

        Raises:
            SolverError: singular or non-finite system at a sweep point.
        """
        freqs = check_frequencies(frequencies_hz)
        design = self._require(sinks=True)
        omega = 2.0 * math.pi * freqs
        rhs = np.empty((freqs.size, self.nx * self.ny), dtype=complex)
        rhs[:] = -_sink_row(design)
        np.add.at(
            rhs,
            (slice(None), design.attach_rows()),
            self._source_admittance(omega) * design.source_values("voltage_v"),
        )
        voltages = self._selinv_sweep(omega, freqs, rhs[:, :, None])
        return GridACSweepSolution(
            frequencies_hz=freqs,
            voltage_maps=voltages.reshape(-1, self.ny, self.nx),
        )


def _check_probe(probe_error: np.ndarray, freqs: np.ndarray) -> None:
    """Raise at the first sweep point whose known-solution probe failed."""
    bad = ~(np.isfinite(probe_error) & (probe_error <= SINGULARITY_PROBE_TOL))
    if bad.any():
        raise SolverError(
            "grid AC system is singular at "
            f"{freqs[np.nonzero(bad)[0][0]]:.6g} Hz "
            "(resonant singularity or floating mesh)"
        )
