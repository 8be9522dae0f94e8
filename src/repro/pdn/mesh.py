"""One validated die mesh under every grid analysis.

The paper's design study judges one die mesh three ways: DC IR drop
(:class:`~repro.pdn.grid.GridPDN`), per-node impedance
(:class:`~repro.pdn.grid.GridACPDN`) and load-step droop
(:class:`~repro.pdn.grid_transient.GridTransientPDN`).  This module
holds what the three share:

* :class:`MeshDesign` — a frozen, validated description of one
  rectangular one-polarity mesh: extents, sheet resistance and node
  counts, edge inductance and per-edge variation, VR outputs
  (:class:`Source`) and their ring bus, the sink map, and the decap
  allocation (:class:`DecapDensity` or :class:`DecapMap`).  ``with_*``
  edits return a new design and leave the original untouched, so a
  search saves a design and puts it back by plain assignment.
* :class:`MeshView` — the base of the three analyses.  A view's only
  mesh state is its :attr:`~MeshView.design`; every mutator rebinds it
  to an edited copy.  View options (solve engine, rail-pair factor)
  stay on the view, and each view vetoes designs it cannot analyze.

Each value is checked once, where it enters: finite first (NaN or inf
raises :class:`~repro.errors.ConfigError` naming the parameter), then
range.  Sources and decap allocations validate themselves as small
frozen values; the design then checks only shapes and membership, so
an edit never rescans fields it did not change.

:attr:`MeshDesign.key` hashes everything that shapes the system
matrices and leaves out the right-hand-side data — the sink map and
the source voltages — so load sweeps and setpoint studies keep every
structure a view cached under it (see :func:`cached`).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import cached_property, update_wrapper

import numpy as np

from ..errors import ConfigError, require_finite, require_real
from .powermap import PowerMap


def mesh_edge_rows(nx: int, ny: int) -> tuple[np.ndarray, ...]:
    """Endpoint row indices of a rectangular mesh's edges.

    Grid node ``(ix, iy)`` occupies row ``iy * nx + ix``; returns
    ``(x_a, x_b, y_a, y_b)`` — the endpoint arrays of the x-direction
    and y-direction edges.  Degenerate axes (``nx == 1`` or
    ``ny == 1``, the 1-D chains the AC ladder cross-checks use) simply
    produce empty edge arrays.  Shared by every mesh assembler so all
    analyses stamp the identical lateral topology.
    """
    rows = np.arange(nx * ny, dtype=np.int64).reshape(ny, nx)
    return (
        rows[:, :-1].ravel(),
        rows[:, 1:].ravel(),
        rows[:-1, :].ravel(),
        rows[1:, :].ravel(),
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` marked read-only: design arrays are values, not buffers."""
    arr.flags.writeable = False
    return arr


def _finite_fields(obj, names: tuple[str, ...], kind=float) -> None:
    """Check numeric fields of a frozen dataclass and store them as
    plain ``kind`` values (floats with ``-0.0`` as ``0.0``), so equal
    content hashes equally.  An ``int`` field must hold a whole number."""
    for name in names:
        value = getattr(obj, name)
        require_finite(value, name)
        plain = kind(value) + kind(0)
        if kind is int and plain != value:
            raise ConfigError(f"{name} must be an integer")
        object.__setattr__(obj, name, plain)


@dataclass(frozen=True)
class Source:
    """One VR output: an EMF behind ``r_out`` (+ series bump/TSV L)
    at mesh node ``(ix, iy)``.  The DC analysis shorts the inductance
    and stamps the EMF as a Norton current ``V/r_out``, so the EMF is
    non-negative like every current source."""

    name: str
    ix: int
    iy: int
    voltage_v: float
    output_resistance_ohm: float
    inductance_h: float = 0.0

    def __post_init__(self) -> None:
        _finite_fields(self, ("ix", "iy"), int)
        _finite_fields(
            self, ("voltage_v", "output_resistance_ohm", "inductance_h")
        )
        if self.voltage_v < 0:
            raise ConfigError("voltage_v must be non-negative")
        if self.output_resistance_ohm <= 0:
            raise ConfigError("source output resistance must be positive")
        if self.inductance_h < 0:
            raise ConfigError("source inductance must be non-negative")


@dataclass(frozen=True, eq=False)
class DecapDensity:
    """Decaps as a per-node *density* of one unit cell.

    ``density`` (>= 0, not all zero) counts identical unit cells — C
    with series ESR and ESL — in parallel at each node, the way
    MIM/deep-trench decap budgets are allocated per tile.  The node
    branch is exactly ``α·y_u(ω)``, which is what the structured
    impedance engine and the placement adjoint rely on.
    """

    density: np.ndarray
    cap_per_unit_f: float
    esr_per_unit_ohm: float = 0.0
    esl_per_unit_h: float = 0.0

    def __post_init__(self) -> None:
        _finite_fields(
            self, ("cap_per_unit_f", "esr_per_unit_ohm", "esl_per_unit_h")
        )
        if self.cap_per_unit_f <= 0:
            raise ConfigError("unit decap capacitance must be positive")
        if self.esr_per_unit_ohm < 0 or self.esl_per_unit_h < 0:
            raise ConfigError("unit decap ESR/ESL must be non-negative")
        require_real(self.density, "density")
        alpha = np.array(self.density, dtype=float)
        require_finite(alpha, "density")
        if np.any(alpha < 0):
            raise ConfigError("decap density must be non-negative")
        if not np.any(alpha > 0):
            raise ConfigError("decap density map is all zero")
        object.__setattr__(self, "density", _frozen(alpha))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.density.shape

    def unit_admittance(self, omega):
        """Admittance of one unit cell, ``y_u(ω) = 1 / (ESR +
        j(ω·ESL − 1/(ω·C)))``, for a scalar or array ``omega``.

        A node's branch is exactly ``α·y_u(ω)`` (α cells in parallel),
        which makes the reduced system *linear* in the density.
        """
        reactance = omega * self.esl_per_unit_h - 1.0 / (
            omega * self.cap_per_unit_f
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (self.esr_per_unit_ohm + 1j * reactance)

    def scaled(self, factor: float) -> "DecapDensity":
        """``factor`` times as many unit cells at every node."""
        return DecapDensity(
            self.density * factor,
            self.cap_per_unit_f,
            self.esr_per_unit_ohm,
            self.esl_per_unit_h,
        )

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened per-node (C, ESR, ESL); zero C = no decap."""
        alpha = self.density.ravel()
        live = alpha > 0
        c = np.where(live, alpha * self.cap_per_unit_f, 0.0)
        with np.errstate(divide="ignore"):
            esr = np.where(
                live, self.esr_per_unit_ohm / np.where(live, alpha, 1.0), 0.0
            )
            esl = np.where(
                live, self.esl_per_unit_h / np.where(live, alpha, 1.0), 0.0
            )
        return c, esr, esl


@dataclass(frozen=True, eq=False)
class DecapMap:
    """Arbitrary per-node decap maps; a node with zero C has no branch."""

    cap_f: np.ndarray
    esr_ohm: np.ndarray
    esl_h: np.ndarray

    def __post_init__(self) -> None:
        for name, label in (
            ("cap_f", "capacitance"),
            ("esr_ohm", "ESR"),
            ("esl_h", "ESL"),
        ):
            require_real(getattr(self, name), name)
            arr = np.array(getattr(self, name), dtype=float)
            require_finite(arr, name)
            if np.any(arr < 0):
                raise ConfigError(f"{label} map must be non-negative")
            object.__setattr__(self, name, _frozen(arr))
        if not np.any(self.cap_f > 0):
            raise ConfigError("capacitance map is all zero")
        if not self.cap_f.shape == self.esr_ohm.shape == self.esl_h.shape:
            raise ConfigError("decap C, ESR and ESL maps must share a shape")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cap_f.shape

    def scaled(self, factor: float) -> "DecapMap":
        """Add cells in parallel: C scales up, ESR and ESL down."""
        return DecapMap(
            self.cap_f * factor, self.esr_ohm / factor, self.esl_h / factor
        )

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened per-node (C, ESR, ESL); zero C = no decap."""
        return (
            self.cap_f.ravel().copy(),
            self.esr_ohm.ravel().copy(),
            self.esl_h.ravel().copy(),
        )


@dataclass(frozen=True, eq=False)
class MeshDesign:
    """A frozen, validated rectangular one-polarity die mesh.

    Node ``(ix, iy)`` sits in row ``iy * nx + ix``; adjacent nodes are
    joined by edges derived from the sheet resistance.  Degenerate 1-D
    chains (``nx == 1`` or ``ny == 1``) are allowed here — the DC view
    is the one that needs a 2-D mesh.

    Args:
        width_m, height_m: die extents.
        sheet_ohm_sq: sheet resistance of the modeled metal stack.
        nx, ny: node counts (at least two nodes in total).
        edge_inductance_x_h, edge_inductance_y_h: per-edge series
            metal inductance (AC and transient).
        edge_scale_x, edge_scale_y: per-edge resistance multipliers,
            shaped ``(ny, nx-1)`` and ``(ny-1, nx)`` (DC only).
        sources: attached VR outputs, in attachment order.
        ring_bus_ohm: ring segment resistance joining consecutive
            sources (and closing the loop), or ``None``.
        sinks: ``(ny, nx)`` POL sink currents (DC and transient
            profiles, AC load magnitudes), or ``None``.
        decap: the decap allocation, or ``None``.

    Every field passed to the constructor is checked exactly as its
    ``with_*`` edit checks it.
    """

    width_m: float
    height_m: float
    sheet_ohm_sq: float
    nx: int = 24
    ny: int = 24
    edge_inductance_x_h: float = 0.0
    edge_inductance_y_h: float = 0.0
    edge_scale_x: np.ndarray | None = None
    edge_scale_y: np.ndarray | None = None
    sources: tuple[Source, ...] = ()
    ring_bus_ohm: float | None = None
    sinks: np.ndarray | None = None
    decap: DecapDensity | DecapMap | None = None

    def __post_init__(self) -> None:
        _finite_fields(self, _MESH_FLOATS)
        _finite_fields(self, ("nx", "ny"), int)
        if self.width_m <= 0 or self.height_m <= 0:
            raise ConfigError("grid extents must be positive")
        if self.sheet_ohm_sq <= 0:
            raise ConfigError("sheet resistance must be positive")
        if self.nx < 1 or self.ny < 1 or self.nx * self.ny < 2:
            raise ConfigError("grid needs at least two nodes")
        if self.edge_inductance_x_h < 0 or self.edge_inductance_y_h < 0:
            raise ConfigError("edge inductance must be non-negative")
        # Every other field goes through the checks of its own edit,
        # after a finite check under the field's own name.
        for name in ("edge_scale_x", "edge_scale_y", "ring_bus_ohm", "sinks"):
            value = getattr(self, name)
            if value is not None:
                require_finite(value, name)
        checked = self._edit(sources=(), ring_bus_ohm=None)
        checked = checked.with_edge_scales(self.edge_scale_x, self.edge_scale_y)
        checked = checked.with_sources(self.sources)
        if self.ring_bus_ohm is not None:
            checked = checked.with_ring_bus(self.ring_bus_ohm)
        if self.sinks is not None:
            checked = checked.with_sinks(self.sinks)
        if self.decap is not None:
            checked = checked.with_decap(self.decap)
        self.__dict__.update(checked.__dict__)

    def _edit(self, **changes) -> "MeshDesign":
        """A copy with ``changes`` applied and no re-validation (each
        ``with_*`` edit has checked what it changes); cached properties
        such as :attr:`key` are recomputed on demand."""
        edited = object.__new__(MeshDesign)
        state = edited.__dict__
        state.update(self.__dict__, **changes)
        state.pop("key", None)
        return edited

    @cached_property
    def key(self) -> bytes:
        """Content hash of everything that shapes the system matrices,
        computed once per design.

        Equal content gives equal keys.  The sink map and the source
        voltages are left out, so editing only those keeps the key.
        """
        decap = self.decap
        parts = [self.edge_scale_x, self.edge_scale_y]
        if decap is not None:
            parts += [getattr(decap, field.name) for field in fields(decap)]
        head = (
            [getattr(self, name) for name in ("nx", "ny", *_MESH_FLOATS)],
            self.ring_bus_ohm,
            [
                (s.name, s.ix, s.iy, s.output_resistance_ohm, s.inductance_h)
                for s in self.sources
            ],
            type(decap).__name__,
            # Arrays by shape here, by content below: an x-scale map
            # and a y-scale map of one byte length must not collide.
            [
                part.shape if isinstance(part, np.ndarray) else part
                for part in parts
            ],
        )
        digest = hashlib.blake2b(repr(head).encode(), digest_size=16)
        for part in parts:
            if isinstance(part, np.ndarray):
                digest.update(part.tobytes())
        return digest.digest()

    # -- derived geometry ---------------------------------------------------

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

    @property
    def has_edge_scales(self) -> bool:
        """Whether the design carries per-edge resistance scales on
        either axis: only the DC view's nodal LU solves such a mesh."""
        return self.edge_scale_x is not None or self.edge_scale_y is not None

    def source_values(self, name: str) -> np.ndarray:
        """One :class:`Source` field across all sources, as floats."""
        return np.array([getattr(s, name) for s in self.sources], dtype=float)

    def attach_rows(self) -> np.ndarray:
        """Mesh row of every source's attachment node."""
        return np.array(
            [s.iy * self.nx + s.ix for s in self.sources], dtype=np.int64
        )

    def ring_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ring-bus segments as ``(k, row_a, row_b)`` arrays.

        Segment ``k`` joins source ``k`` to source ``k + 1`` (the last
        closes the loop); segments whose ends share a node are skipped.
        """
        if self.ring_bus_ohm is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        rows = self.attach_rows()
        k = np.arange(rows.size, dtype=np.int64)
        a, b = rows, rows[(k + 1) % rows.size]
        keep = a != b
        return k[keep], a[keep], b[keep]

    def lateral_edges(self) -> tuple[np.ndarray, ...]:
        """Every metal edge: mesh x, mesh y, then ring segments.

        Returns ``(a, b, r, l)`` — endpoint rows plus per-edge series
        resistance (edge scales applied) and inductance (ring segments
        are resistive).
        """
        x_a, x_b, y_a, y_b = mesh_edge_rows(self.nx, self.ny)
        _, ring_a, ring_b = self.ring_segments()
        r_x = np.full(x_a.size, self.edge_resistance_x_ohm if x_a.size else 0.0)
        r_y = np.full(y_a.size, self.edge_resistance_y_ohm if y_a.size else 0.0)
        if self.edge_scale_x is not None:
            r_x *= self.edge_scale_x.ravel()
        if self.edge_scale_y is not None:
            r_y *= self.edge_scale_y.ravel()
        return (
            np.concatenate([x_a, y_a, ring_a]),
            np.concatenate([x_b, y_b, ring_b]),
            np.concatenate(
                [r_x, r_y, np.full(ring_a.size, self.ring_bus_ohm or 0.0)]
            ),
            np.concatenate(
                [
                    np.full(x_a.size, self.edge_inductance_x_h),
                    np.full(y_a.size, self.edge_inductance_y_h),
                    np.zeros(ring_a.size),
                ]
            ),
        )

    def decap_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened per-node (C, ESR, ESL) arrays; zero C = no decap."""
        if self.decap is None:
            zero = np.zeros(self.nx * self.ny)
            return zero, zero.copy(), zero.copy()
        return self.decap.arrays()

    # -- edits --------------------------------------------------------------

    def with_sinks(self, cell_currents) -> "MeshDesign":
        """Replace the POL sink map with an explicit (ny, nx) array."""
        require_real(cell_currents, "cell_currents")
        arr = np.array(cell_currents, dtype=float)
        if arr.shape != (self.ny, self.nx):
            raise ConfigError(
                f"sink array must be shaped ({self.ny}, {self.nx})"
            )
        require_finite(arr, "cell_currents")
        if np.any(arr < 0):
            raise ConfigError("sink currents must be non-negative")
        return self._edit(sinks=_frozen(arr))

    def with_sinks_from(
        self, power_map: PowerMap, total_current_a: float
    ) -> "MeshDesign":
        """Replace the POL sink map with a power map carrying
        ``total_current_a`` in total."""
        require_finite(total_current_a, "total_current_a")
        return self.with_sinks(
            power_map.cell_currents(self.nx, self.ny, total_current_a)
        )

    def with_sources(self, sources: Iterable[Source]) -> "MeshDesign":
        """Attach several (already validated) sources in one edit, in
        order: one name set, one copy.

        ``output_resistance_ohm`` is always positive — it regularizes
        the solve and models the converter's finite output impedance.

        Raises:
            ConfigError: naming a source outside the mesh, or one whose
                name repeats an attached source or an earlier one of
                ``sources``.
        """
        sources = tuple(sources)
        names = {existing.name for existing in self.sources}
        for source in sources:
            if not (0 <= source.ix < self.nx and 0 <= source.iy < self.ny):
                raise ConfigError(f"source {source.name!r} is outside the mesh")
            if source.name in names:
                raise ConfigError(f"duplicate source name: {source.name!r}")
            names.add(source.name)
        return self._edit(sources=self.sources + sources)

    def with_source(self, source: Source) -> "MeshDesign":
        """Attach one more (already validated) source: a one-source
        :meth:`with_sources`."""
        return self.with_sources((source,))

    def source_at(
        self,
        name: str,
        x_frac: float,
        y_frac: float,
        voltage_v: float,
        output_resistance_ohm: float,
        inductance_h: float = 0.0,
    ) -> Source:
        """The :class:`Source` that :meth:`with_source_at` attaches,
        snapped to this mesh but not attached."""
        require_finite(x_frac, "x_frac")
        require_finite(y_frac, "y_frac")
        if not 0.0 <= x_frac <= 1.0 or not 0.0 <= y_frac <= 1.0:
            raise ConfigError("source position must be inside the die")
        ix = min(int(round(x_frac * (self.nx - 1))), self.nx - 1)
        iy = min(int(round(y_frac * (self.ny - 1))), self.ny - 1)
        return Source(
            name, ix, iy, voltage_v, output_resistance_ohm, inductance_h
        )

    def with_source_at(
        self,
        name: str,
        x_frac: float,
        y_frac: float,
        voltage_v: float,
        output_resistance_ohm: float,
        inductance_h: float = 0.0,
    ) -> "MeshDesign":
        """Attach a regulator output at fractional die coordinates,
        snapped to the nearest node.  ``inductance_h`` is the vertical
        bump/TSV loop in series with the output (AC and transient; the
        DC analysis shorts it)."""
        return self.with_source(
            self.source_at(
                name, x_frac, y_frac, voltage_v, output_resistance_ohm,
                inductance_h,
            )
        )

    def without_sources(self) -> "MeshDesign":
        """Remove every source and the ring bus."""
        return self._edit(sources=(), ring_bus_ohm=None)

    def with_ring_bus(self, segment_resistance_ohm: float) -> "MeshDesign":
        """Join consecutive sources with a dedicated ring bus.

        Periphery VR rings share a contiguous low-impedance metal ring
        (the embedded passive/output ring of Fig. 5(a)), which
        equalizes their load sharing; under-die VRs have no such bus.
        Segments connect sources in attachment order (and close the
        loop), each with the given one-polarity resistance.
        """
        require_finite(segment_resistance_ohm, "segment_resistance_ohm")
        if segment_resistance_ohm <= 0:
            raise ConfigError("ring segment resistance must be positive")
        if len(self.sources) < 3:
            raise ConfigError("a ring bus needs at least three sources")
        return self._edit(ring_bus_ohm=float(segment_resistance_ohm))

    def with_edge_scales(self, x_scale=None, y_scale=None) -> "MeshDesign":
        """Per-edge metal-variation multipliers.

        ``x_scale`` (shape ``(ny, nx-1)``) and ``y_scale`` (shape
        ``(ny-1, nx)``) multiply the nominal per-edge resistances —
        line-width/thickness variation, partially depopulated straps,
        or localized metal cheese.  Factors must be positive; ``None``
        (the default) keeps an axis uniform.  Only the DC view solves
        variation, on its factorized engine (the structured one needs
        uniform metal).
        """
        scales = {}
        for name, value, shape in (
            ("x_scale", x_scale, (self.ny, self.nx - 1)),
            ("y_scale", y_scale, (self.ny - 1, self.nx)),
        ):
            if value is not None:
                require_real(value, name)
                value = np.array(value, dtype=float)
                if value.shape != shape:
                    raise ConfigError(f"{name} must be shaped {shape}")
                require_finite(value, name)
                if not np.all(value > 0):
                    raise ConfigError(f"{name} factors must be positive")
                value = _frozen(value)
            scales["edge_scale_" + name[0]] = value
        return self._edit(**scales)

    def with_decap(self, decap: DecapDensity | DecapMap) -> "MeshDesign":
        """Attach an (already validated) decap allocation."""
        if decap.shape != (self.ny, self.nx):
            raise ConfigError(
                f"decap maps must be shaped ({self.ny}, {self.nx})"
            )
        return self._edit(decap=decap)

    def _mesh_map(self, value, label: str) -> np.ndarray:
        """``value`` broadcast to the mesh, in its own dtype: the decap
        classes convert it, and reject a complex map by field name."""
        arr = np.asarray(value)
        if arr.ndim == 0:
            arr = np.full((self.ny, self.nx), arr)
        if arr.shape != (self.ny, self.nx):
            raise ConfigError(
                f"{label} map must be shaped ({self.ny}, {self.nx})"
            )
        return arr

    def with_decap_density(
        self,
        density,
        cap_per_unit_f: float,
        esr_per_unit_ohm: float = 0.0,
        esl_per_unit_h: float = 0.0,
    ) -> "MeshDesign":
        """Attach a :class:`DecapDensity` (scalar or (ny, nx) density).

        A uniform density (plus purely resistive mesh metal) unlocks
        the structured impedance-map engine and keeps the structured
        transient engine's correction rank small; any other map runs
        the general ``selinv`` impedance engine.
        """
        return self.with_decap(
            DecapDensity(
                self._mesh_map(density, "density"),
                cap_per_unit_f,
                esr_per_unit_ohm,
                esl_per_unit_h,
            )
        )

    def with_decap_map(self, cap_f, esr_ohm=0.0, esl_h=0.0) -> "MeshDesign":
        """Attach a :class:`DecapMap` (scalars broadcast).

        All-scalar arguments are one unit cell per node and are stored
        as a uniform :class:`DecapDensity`, which keeps the structured
        impedance engine available.
        """
        if np.ndim(cap_f) == 0 and np.ndim(esr_ohm) == 0 and np.ndim(esl_h) == 0:
            require_finite(cap_f, "cap_f")
            require_finite(esr_ohm, "esr_ohm")
            require_finite(esl_h, "esl_h")
            return self.with_decap_density(1.0, cap_f, esr_ohm, esl_h)
        return self.with_decap(
            DecapMap(
                self._mesh_map(cap_f, "capacitance"),
                self._mesh_map(esr_ohm, "ESR"),
                self._mesh_map(esl_h, "ESL"),
            )
        )

    def with_decap_scaled(self, factor: float) -> "MeshDesign":
        """``factor`` times the attached decap allocation.

        Semantically "add more unit cells in parallel": capacitance
        scales up while ESR and ESL scale down, for either decap
        representation.  The decap sizing search is built on this.
        """
        require_finite(factor, "factor")
        if factor <= 0:
            raise ConfigError("decap scale factor must be positive")
        if self.decap is None:
            raise ConfigError("no decaps attached; set a decap map first")
        return self._edit(decap=self.decap.scaled(factor))


_MESH_FLOATS = (
    "width_m",
    "height_m",
    "sheet_ohm_sq",
    "edge_inductance_x_h",
    "edge_inductance_y_h",
)


def cached(owner, slot: str, tag, build):
    """The structure ``owner.<slot>`` holds for ``tag``, else ``build()``.

    Every per-view cache is one slot holding ``(tag, structure)``.  The
    tag is the design's :attr:`~MeshDesign.key`, plus whatever else the
    structure depends on (a time step, baked-in sink currents), so a
    design edit never needs to invalidate anything explicitly.
    """
    entry = getattr(owner, slot, None)
    if entry is None or entry[0] != tag:
        entry = (tag, build())
        setattr(owner, slot, entry)
    return entry[1]


def _mutator(edit):
    """The :class:`MeshView` mutator of a :class:`MeshDesign` edit: it
    takes the edit's arguments and rebinds the view's design to the
    edited copy."""

    def mutate(self, *args, **kwargs) -> None:
        self.design = edit(self.design, *args, **kwargs)

    return update_wrapper(mutate, edit, assigned=("__doc__",), updated=())


def _design_field(name: str) -> property:
    return property(
        lambda self: getattr(self.design, name),
        doc=f"The design's ``{name}``.",
    )


class MeshView:
    """Base of the grid analyses: one :class:`MeshDesign` plus options.

    The mutators below are how a view changes its mesh: each takes the
    arguments of one :class:`MeshDesign` edit and rebinds
    :attr:`design` to the edited copy (``set_sink_array`` is
    :meth:`~MeshDesign.with_sinks`, ``add_source`` is
    :meth:`~MeshDesign.with_source_at`, ...).  Assigning :attr:`design`
    swaps a whole design in — e.g. ``saved = pdn.design`` before a
    search and ``pdn.design = saved`` after it.
    """

    width_m = _design_field("width_m")
    height_m = _design_field("height_m")
    sheet_ohm_sq = _design_field("sheet_ohm_sq")
    nx = _design_field("nx")
    ny = _design_field("ny")
    edge_inductance_x_h = _design_field("edge_inductance_x_h")
    edge_inductance_y_h = _design_field("edge_inductance_y_h")
    edge_resistance_x_ohm = _design_field("edge_resistance_x_ohm")
    edge_resistance_y_ohm = _design_field("edge_resistance_y_ohm")

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
        self.design = MeshDesign(
            width_m,
            height_m,
            sheet_ohm_sq,
            nx=nx,
            ny=ny,
            edge_inductance_x_h=edge_inductance_x_h,
            edge_inductance_y_h=edge_inductance_y_h,
        )

    @classmethod
    def from_design(cls, design: MeshDesign, **options):
        """A view of ``design``; ``options`` are the view's own
        constructor options (e.g. ``engine``)."""
        view = cls(
            design.width_m,
            design.height_m,
            design.sheet_ohm_sq,
            nx=design.nx,
            ny=design.ny,
            **options,
        )
        view.design = design
        return view

    @property
    def design(self) -> MeshDesign:
        """The analyzed mesh, a frozen :class:`MeshDesign`."""
        return self._design

    @design.setter
    def design(self, design: MeshDesign) -> None:
        if not isinstance(design, MeshDesign):
            raise ConfigError("design must be a MeshDesign")
        self._check_design(design)
        self._design = design

    def _check_design(self, design: MeshDesign) -> None:
        """Veto a design this analysis cannot run.  Only the DC view
        solves per-edge variation; the others reject a scaled design
        instead of silently solving it uniform."""
        if design.has_edge_scales:
            raise ConfigError(
                f"{type(self).__name__} does not support per-edge "
                "variation; use an unscaled design"
            )

    def _require(self, sinks: bool = False) -> MeshDesign:
        """The design, once it has the sources (and, with ``sinks``,
        the sink map) an analysis needs."""
        design = self.design
        if sinks and design.sinks is None:
            raise ConfigError("no sinks attached; call set_sinks first")
        if not design.sources:
            raise ConfigError("no sources attached; call add_source first")
        return design

    @property
    def source_names(self) -> list[str]:
        """Names of attached sources in attachment order."""
        return [source.name for source in self.design.sources]

    @property
    def total_decap_farad(self) -> float:
        """Total attached decoupling capacitance over the mesh."""
        return float(self.design.decap_arrays()[0].sum())

    # -- mutators: each is the design edit of the same arguments -------------

    set_sinks = _mutator(MeshDesign.with_sinks_from)
    set_sink_array = _mutator(MeshDesign.with_sinks)
    add_source = _mutator(MeshDesign.with_source_at)
    clear_sources = _mutator(MeshDesign.without_sources)
    connect_sources_with_ring_bus = _mutator(MeshDesign.with_ring_bus)
    set_edge_resistance_scale = _mutator(MeshDesign.with_edge_scales)
    set_decap_density = _mutator(MeshDesign.with_decap_density)
    set_decap_map = _mutator(MeshDesign.with_decap_map)
    scale_decap = _mutator(MeshDesign.with_decap_scaled)
