"""Resistive netlist construction.

A :class:`Netlist` is a flat list of two-terminal elements between
named nodes.  It deliberately supports only what DC PDN analysis
needs — resistors, ideal current sources (loads), and ideal voltage
sources (regulator outputs, optionally with series resistance) — and
is consumed by :mod:`repro.pdn.mna`.

Node names are arbitrary hashables; ``Netlist.GROUND`` ("0") is the
reference node.

:meth:`Netlist.compile` produces a :class:`CompiledNetlist`: the same
circuit with nodes mapped to integer rows once and element data held
as numpy arrays, so the solver stamps and post-processes without any
per-element Python loop.  Builders with regular structure (the grid
PDN mesh) can also construct a :class:`CompiledNetlist` directly from
arrays and skip the element-object representation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from ..errors import ConfigError, require_finite

NodeId = Hashable

#: Row index used for the ground/reference node in compiled arrays.
GROUND_INDEX = -1


def admittance_entry_map(
    node_a: np.ndarray, node_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """COO positions of two-terminal admittance stamps, value-free.

    The per-entry layout of :func:`admittance_stamp_entries` with the
    values replaced by ``(element index, sign)`` pairs, so
    frequency-varying element admittances can be scattered onto a
    fixed pattern with one fancy-index per sweep chunk.
    """
    a = np.asarray(node_a)
    b = np.asarray(node_b)
    index = np.arange(len(a))
    in_a = a != GROUND_INDEX
    in_b = b != GROUND_INDEX
    in_ab = in_a & in_b
    rows = np.concatenate([a[in_a], b[in_b], a[in_ab], b[in_ab]])
    cols = np.concatenate([a[in_a], b[in_b], b[in_ab], a[in_ab]])
    element = np.concatenate(
        [index[in_a], index[in_b], index[in_ab], index[in_ab]]
    )
    # Diagonal entries add, the two off-diagonal copies subtract.
    off = 2 * int(in_ab.sum())
    sign = np.concatenate([np.ones(rows.size - off), -np.ones(off)])
    return rows, cols, element, sign


def admittance_stamp_entries(
    node_a: np.ndarray, node_b: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO entries for two-terminal admittance stamps (vectorized).

    Each element with endpoints ``(a, b)`` and admittance ``y``
    contributes ``+y`` on the two diagonal positions and ``-y`` on the
    two off-diagonal positions; entries touching ground
    (:data:`GROUND_INDEX`) are dropped.  Returns ``(rows, cols, vals)``
    with duplicates *not* summed — COO-to-CSC conversion (or
    ``np.add.reduceat`` over a sorted pattern) handles accumulation.

    Shared by the DC MNA stamp (:meth:`CompiledNetlist.mna_coo`) and
    the AC stamp structure (:class:`repro.pdn.ac.CompiledACNetlist`),
    so both solvers agree on the stamp convention by construction.
    """
    rows, cols, element, sign = admittance_entry_map(node_a, node_b)
    return rows, cols, sign * np.asarray(values)[element]


@dataclass(frozen=True)
class Resistor:
    """A resistor between two nodes.

    ``name`` identifies the element in solutions (per-element currents
    and losses are reported by name).
    """

    name: str
    node_a: NodeId
    node_b: NodeId
    resistance_ohm: float

    def __post_init__(self) -> None:
        require_finite(self.resistance_ohm, "resistance_ohm")
        if self.resistance_ohm <= 0:
            raise ConfigError(
                f"resistor {self.name}: resistance must be positive "
                f"(got {self.resistance_ohm})"
            )
        if self.node_a == self.node_b:
            raise ConfigError(f"resistor {self.name}: shorted terminals")


@dataclass(frozen=True)
class CurrentSource:
    """An ideal DC current source driving ``current_a`` from
    ``node_from`` into ``node_to`` (a POL load sinks from the power
    node into ground: ``node_from=power_node, node_to=GROUND``)."""

    name: str
    node_from: NodeId
    node_to: NodeId
    current_a: float

    def __post_init__(self) -> None:
        require_finite(self.current_a, "current_a")
        if self.current_a < 0:
            raise ConfigError(
                f"current source {self.name}: negative current; swap nodes"
            )
        if self.node_from == self.node_to:
            raise ConfigError(f"current source {self.name}: shorted terminals")


@dataclass(frozen=True)
class VoltageSource:
    """An ideal DC voltage source holding ``node_plus`` at
    ``voltage_v`` above ``node_minus``."""

    name: str
    node_plus: NodeId
    node_minus: NodeId
    voltage_v: float

    def __post_init__(self) -> None:
        require_finite(self.voltage_v, "voltage_v")
        if self.node_plus == self.node_minus:
            raise ConfigError(f"voltage source {self.name}: shorted terminals")


@dataclass
class Netlist:
    """A mutable collection of circuit elements.

    Builder-style ``add_*`` methods return the created element so call
    sites can keep references for later lookups.
    """

    GROUND: NodeId = field(default="0", repr=False)

    def __init__(self) -> None:
        self.resistors: list[Resistor] = []
        self.current_sources: list[CurrentSource] = []
        self.voltage_sources: list[VoltageSource] = []
        self._names: set[str] = set()

    # -- element builders ----------------------------------------------------

    def _register(self, name: str) -> None:
        if name in self._names:
            raise ConfigError(f"duplicate element name: {name!r}")
        self._names.add(name)

    def add_resistor(
        self, name: str, node_a: NodeId, node_b: NodeId, resistance_ohm: float
    ) -> Resistor:
        """Add a resistor and return it."""
        self._register(name)
        element = Resistor(name, node_a, node_b, resistance_ohm)
        self.resistors.append(element)
        return element

    def add_current_source(
        self, name: str, node_from: NodeId, node_to: NodeId, current_a: float
    ) -> CurrentSource:
        """Add an ideal current source and return it."""
        self._register(name)
        element = CurrentSource(name, node_from, node_to, current_a)
        self.current_sources.append(element)
        return element

    def add_voltage_source(
        self, name: str, node_plus: NodeId, voltage_v: float, node_minus: NodeId | None = None
    ) -> VoltageSource:
        """Add an ideal voltage source (to ground unless given)."""
        self._register(name)
        element = VoltageSource(
            name, node_plus, node_minus if node_minus is not None else self.GROUND, voltage_v
        )
        self.voltage_sources.append(element)
        return element

    def add_load(self, name: str, node: NodeId, current_a: float) -> CurrentSource:
        """Add a POL load: a current sink from ``node`` to ground."""
        return self.add_current_source(name, node, self.GROUND, current_a)

    def add_source_with_impedance(
        self,
        name: str,
        node: NodeId,
        voltage_v: float,
        series_resistance_ohm: float,
    ) -> tuple[VoltageSource, Resistor]:
        """Add a practical source: ideal V source + series resistor.

        Creates an internal node ``(name, "emf")``.  Returns both
        elements; the resistor's current is the source's output current.
        """
        internal: NodeId = (name, "emf")
        source = self.add_voltage_source(f"{name}.v", internal, voltage_v)
        resistor = self.add_resistor(
            f"{name}.rout", internal, node, series_resistance_ohm
        )
        return source, resistor

    # -- introspection ---------------------------------------------------------

    def nodes(self) -> list[NodeId]:
        """All distinct nodes, ground excluded, in first-seen order."""
        seen: dict[NodeId, None] = {}
        for r in self.resistors:
            seen.setdefault(r.node_a)
            seen.setdefault(r.node_b)
        for s in self.current_sources:
            seen.setdefault(s.node_from)
            seen.setdefault(s.node_to)
        for v in self.voltage_sources:
            seen.setdefault(v.node_plus)
            seen.setdefault(v.node_minus)
        seen.pop(self.GROUND, None)
        return list(seen.keys())

    @property
    def element_count(self) -> int:
        """Total number of elements of all kinds."""
        return (
            len(self.resistors)
            + len(self.current_sources)
            + len(self.voltage_sources)
        )

    def total_load_current_a(self) -> float:
        """Sum of all current-source magnitudes (loads)."""
        return sum(s.current_a for s in self.current_sources)

    def validate(self) -> None:
        """Cheap structural validation (raises ConfigError).

        Full electrical validation (connectivity to sources) happens in
        the solver; this catches empty/obviously broken netlists early.
        """
        if not self.resistors and not self.voltage_sources:
            raise ConfigError("netlist has no resistors or sources")
        if not self.voltage_sources and self.current_sources:
            raise ConfigError(
                "current sources present but no voltage source/ground "
                "reference to absorb them"
            )

    def extend(self, other: "Netlist") -> None:
        """Merge another netlist into this one (names must not clash)."""
        for r in other.resistors:
            self.add_resistor(r.name, r.node_a, r.node_b, r.resistance_ohm)
        for s in other.current_sources:
            self.add_current_source(s.name, s.node_from, s.node_to, s.current_a)
        for v in other.voltage_sources:
            self.add_voltage_source(v.name, v.node_plus, v.voltage_v, v.node_minus)

    # -- compilation -----------------------------------------------------------

    def compile(self) -> "CompiledNetlist":
        """Snapshot this netlist into an array-backed form.

        Maps nodes to integer rows once (ground becomes
        :data:`GROUND_INDEX`) and gathers element values into numpy
        arrays.  The result is an immutable view of the current
        elements; later ``add_*`` calls do not affect it.
        """
        self.validate()
        nodes = self.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        index[self.GROUND] = GROUND_INDEX

        def rows(node_pairs: list[tuple[NodeId, NodeId]]) -> np.ndarray:
            flat = np.fromiter(
                (index[node] for pair in node_pairs for node in pair),
                dtype=np.int64,
                count=2 * len(node_pairs),
            )
            return flat.reshape(-1, 2)

        res = rows([(r.node_a, r.node_b) for r in self.resistors])
        cur = rows([(s.node_from, s.node_to) for s in self.current_sources])
        vol = rows([(v.node_plus, v.node_minus) for v in self.voltage_sources])
        return CompiledNetlist(
            nodes=tuple(nodes),
            res_a=res[:, 0],
            res_b=res[:, 1],
            res_ohm=np.array([r.resistance_ohm for r in self.resistors]),
            cs_from=cur[:, 0],
            cs_to=cur[:, 1],
            cs_amp=np.array([s.current_a for s in self.current_sources]),
            vs_plus=vol[:, 0],
            vs_minus=vol[:, 1],
            vs_volt=np.array([v.voltage_v for v in self.voltage_sources]),
            res_names=tuple(r.name for r in self.resistors),
            cs_names=tuple(s.name for s in self.current_sources),
            vs_names=tuple(v.name for v in self.voltage_sources),
            ground=self.GROUND,
        )


NameSource = Sequence[str] | Callable[[], Sequence[str]] | None


class CompiledNetlist:
    """An immutable, array-backed circuit ready for vectorized MNA.

    Nodes are integer rows ``0..n_nodes-1`` (ground encoded as
    :data:`GROUND_INDEX`); element endpoints, resistances, source
    currents and voltages live in flat numpy arrays, so matrix
    stamping, branch-current extraction, and KCL verification are all
    pure array operations.

    Element names are optional and may be supplied lazily (a callable
    returning the name sequence): regular builders like the grid mesh
    generate thousands of structured names that are only needed when a
    caller asks for the name-keyed dict views of a solution.

    The structural arrays (endpoints, resistances) determine the MNA
    matrix; ``cs_amp`` and ``vs_volt`` only enter the right-hand side,
    which is what makes factorization reuse across load/source
    scenarios possible (see :class:`repro.pdn.mna.FactorizedPDN`).
    """

    def __init__(
        self,
        *,
        nodes: tuple[NodeId, ...] | Callable[[], Sequence[NodeId]],
        res_a: np.ndarray,
        res_b: np.ndarray,
        res_ohm: np.ndarray,
        cs_from: np.ndarray | None = None,
        cs_to: np.ndarray | None = None,
        cs_amp: np.ndarray | None = None,
        vs_plus: np.ndarray | None = None,
        vs_minus: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
        res_names: NameSource = None,
        cs_names: NameSource = None,
        vs_names: NameSource = None,
        ground: NodeId = "0",
        n_nodes: int | None = None,
    ) -> None:
        def ints(values: np.ndarray | None) -> np.ndarray:
            if values is None:
                return np.empty(0, dtype=np.int64)
            return np.ascontiguousarray(values, dtype=np.int64)

        def floats(values: np.ndarray | None) -> np.ndarray:
            if values is None:
                return np.empty(0)
            return np.ascontiguousarray(values, dtype=float)

        # Node ids follow the lazy-names idiom: a callable defers
        # materializing (possibly huge) id tuples until a name-keyed
        # view needs them, at the price of an explicit row count.
        if callable(nodes):
            if n_nodes is None:
                raise ConfigError(
                    "lazy nodes require an explicit n_nodes count"
                )
            self._nodes: tuple[NodeId, ...] | Callable[
                [], Sequence[NodeId]
            ] = nodes
            self._n_nodes = int(n_nodes)
        else:
            self._nodes = tuple(nodes)
            self._n_nodes = len(self._nodes)
        self.ground = ground
        self.res_a = ints(res_a)
        self.res_b = ints(res_b)
        self.res_ohm = floats(res_ohm)
        self.cs_from = ints(cs_from)
        self.cs_to = ints(cs_to)
        self.cs_amp = floats(cs_amp)
        self.vs_plus = ints(vs_plus)
        self.vs_minus = ints(vs_minus)
        self.vs_volt = floats(vs_volt)
        # Materialized name sequences are validated eagerly; callables
        # stay lazy and are length-checked on resolution.
        def normalize(source: NameSource, count: int, prefix: str) -> NameSource:
            if source is None or callable(source):
                return source
            return self._resolve_names(source, count, prefix)

        self._res_names = normalize(res_names, len(self.res_ohm), "R")
        self._cs_names = normalize(cs_names, len(self.cs_amp), "I")
        self._vs_names = normalize(vs_names, len(self.vs_volt), "V")
        self._node_index: dict[NodeId, int] | None = None

        n = self._n_nodes
        for label, a, b, values in (
            ("resistor", self.res_a, self.res_b, self.res_ohm),
            ("current source", self.cs_from, self.cs_to, self.cs_amp),
            ("voltage source", self.vs_plus, self.vs_minus, self.vs_volt),
        ):
            if not (len(a) == len(b) == len(values)):
                raise ConfigError(f"{label} arrays have mismatched lengths")
            for endpoint in (a, b):
                if endpoint.size and (
                    endpoint.min() < GROUND_INDEX or endpoint.max() >= n
                ):
                    raise ConfigError(f"{label} endpoint index out of range")
        for name in ("res_ohm", "cs_amp", "vs_volt"):
            require_finite(getattr(self, name), name)
        if self.res_ohm.size and np.any(self.res_ohm <= 0):
            raise ConfigError("compiled resistances must all be positive")
        if self.cs_amp.size and np.any(self.cs_amp < 0):
            raise ConfigError("compiled source currents must be non-negative")

    # -- shape -------------------------------------------------------------------

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """Node ids in row order (resolved on first access when lazy)."""
        if not isinstance(self._nodes, tuple):
            resolved = tuple(self._nodes())
            if len(resolved) != self._n_nodes:
                raise ConfigError(
                    f"expected {self._n_nodes} node ids, "
                    f"got {len(resolved)}"
                )
            self._nodes = resolved
        return self._nodes

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes (rows of the G block)."""
        return self._n_nodes

    @property
    def n_vsources(self) -> int:
        """Number of voltage sources (extra MNA rows)."""
        return len(self.vs_volt)

    @property
    def size(self) -> int:
        """Dimension of the MNA system."""
        return self.n_nodes + self.n_vsources

    @property
    def element_count(self) -> int:
        """Total number of elements of all kinds."""
        return len(self.res_ohm) + len(self.cs_amp) + len(self.vs_volt)

    # -- names (lazy) --------------------------------------------------------------

    @staticmethod
    def _resolve_names(
        source: NameSource, count: int, prefix: str
    ) -> tuple[str, ...]:
        if source is None:
            return tuple(f"{prefix}[{i}]" for i in range(count))
        if callable(source):
            source = source()
        names = tuple(source)
        if len(names) != count:
            raise ConfigError(
                f"expected {count} {prefix} names, got {len(names)}"
            )
        return names

    @property
    def res_names(self) -> tuple[str, ...]:
        """Resistor names (generated or resolved on first access)."""
        if not isinstance(self._res_names, tuple):
            self._res_names = self._resolve_names(
                self._res_names, len(self.res_ohm), "R"
            )
        return self._res_names

    @property
    def cs_names(self) -> tuple[str, ...]:
        """Current-source names."""
        if not isinstance(self._cs_names, tuple):
            self._cs_names = self._resolve_names(
                self._cs_names, len(self.cs_amp), "I"
            )
        return self._cs_names

    @property
    def vs_names(self) -> tuple[str, ...]:
        """Voltage-source names."""
        if not isinstance(self._vs_names, tuple):
            self._vs_names = self._resolve_names(
                self._vs_names, len(self.vs_volt), "V"
            )
        return self._vs_names

    # -- lookups ---------------------------------------------------------------------

    @property
    def node_index(self) -> dict[NodeId, int]:
        """Node-id -> row mapping (ground maps to GROUND_INDEX)."""
        if self._node_index is None:
            mapping = {node: i for i, node in enumerate(self.nodes)}
            mapping[self.ground] = GROUND_INDEX
            self._node_index = mapping
        return self._node_index

    def total_load_current_a(self) -> float:
        """Sum of all current-source magnitudes (loads)."""
        return float(self.cs_amp.sum())

    def validate(self) -> None:
        """Reject an empty netlist.  Whether every node reaches ground
        (a Norton feed needs no voltage source) is the structural check
        of :class:`repro.pdn.mna.FactorizedPDN`."""
        if not len(self.res_ohm) and not len(self.vs_volt):
            raise ConfigError("netlist has no resistors or sources")

    # -- MNA stamps -------------------------------------------------------------------

    def mna_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO stamps ``(rows, cols, vals)`` of the DC MNA matrix.

        The ``[G B; B^T 0]`` system over ``size`` rows: conductance
        stamps from the resistors plus the voltage-source incidence
        entries.  Duplicates are not summed (sparse constructors and
        :class:`repro.pdn.mna.FactorizedPDN` handle accumulation).
        """
        n = self.n_nodes
        g_rows, g_cols, g_vals = admittance_stamp_entries(
            self.res_a, self.res_b, 1.0 / self.res_ohm
        )
        kp = np.nonzero(self.vs_plus != GROUND_INDEX)[0]
        km = np.nonzero(self.vs_minus != GROUND_INDEX)[0]
        plus = self.vs_plus[kp]
        minus = self.vs_minus[km]
        ones_p = np.ones(len(kp))
        ones_m = np.ones(len(km))
        rows = np.concatenate([g_rows, plus, n + kp, minus, n + km])
        cols = np.concatenate([g_cols, n + kp, plus, n + km, minus])
        vals = np.concatenate([g_vals, ones_p, ones_p, -ones_m, -ones_m])
        return rows, cols, vals

    # -- scenario values --------------------------------------------------------------

    def with_sources(
        self,
        cs_amp: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
    ) -> "CompiledNetlist":
        """A copy with new load currents and/or source voltages.

        Structure (endpoints, resistances, names) is shared, so the
        copy is valid for the same cached factorization.
        """
        clone = object.__new__(CompiledNetlist)
        clone.__dict__.update(self.__dict__)
        if cs_amp is not None:
            amp = np.ascontiguousarray(cs_amp, dtype=float)
            if amp.shape != self.cs_amp.shape:
                raise ConfigError(
                    f"expected {self.cs_amp.shape[0]} source currents"
                )
            require_finite(amp, "cs_amp")
            if amp.size and np.any(amp < 0):
                raise ConfigError("source currents must be non-negative")
            clone.cs_amp = amp
        if vs_volt is not None:
            volt = np.ascontiguousarray(vs_volt, dtype=float)
            if volt.shape != self.vs_volt.shape:
                raise ConfigError(
                    f"expected {self.vs_volt.shape[0]} source voltages"
                )
            require_finite(volt, "vs_volt")
            clone.vs_volt = volt
        return clone

    # -- pickling ---------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Picklable state for process-pool payloads.

        Lazy node/name sources are often closures over the builder
        (e.g. :func:`repro.pdn.grid.dc_stamp`), which
        cannot cross a process boundary — materialize them first.  The
        node-index dict is derived data; drop it and rebuild on demand.
        """
        self.nodes
        self.res_names
        self.cs_names
        self.vs_names
        state = dict(self.__dict__)
        state["_node_index"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def series_chain(
    netlist: Netlist,
    prefix: str,
    nodes: Iterable[NodeId],
    resistances_ohm: Iterable[float],
) -> list[Resistor]:
    """Wire consecutive ``nodes`` with the given series resistances.

    ``nodes`` must have exactly one more entry than ``resistances_ohm``.
    Returns the created resistors in order.
    """
    node_list = list(nodes)
    res_list = list(resistances_ohm)
    if len(node_list) != len(res_list) + 1:
        raise ConfigError(
            "series_chain needs len(nodes) == len(resistances) + 1"
        )
    created: list[Resistor] = []
    for i, resistance in enumerate(res_list):
        created.append(
            netlist.add_resistor(
                f"{prefix}[{i}]", node_list[i], node_list[i + 1], resistance
            )
        )
    return created
