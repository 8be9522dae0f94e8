"""Complex-valued (AC) modified nodal analysis.

Extends the DC netlist with inductors and capacitors and solves the
phasor-domain system at arbitrary frequencies.  The flagship use is
:func:`impedance_at`: drive 1 A of AC current into a node and read
the node voltage — the impedance the die sees — for *arbitrary*
decap networks, not just the ladder the analytic model in
:mod:`repro.pdn.impedance` covers.  The two are cross-validated in
``tests/test_ac.py``.

Two solve paths exist:

* :func:`solve_ac` — the scalar oracle: rebuilds and solves the full
  system at one frequency.  Retained for parity testing.
* :class:`CompiledACNetlist` (:meth:`ACNetlist.compile_ac`) — the
  sweep engine: the COO stamp *structure* (entry rows/columns plus
  per-entry resistive, capacitive, and inductive coefficients) is
  built once; per frequency only the complex value vector is
  recomputed (vectorized over elements and over the whole frequency
  grid), and one shared CSC index pattern maps values into the
  matrix.  Small systems batch all frequencies through one LAPACK
  call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import ConfigError, SolverError, require_real
from .mna import (
    SINGULARITY_PROBE_TOL,
    factorization_probe_error,
    singularity_probe,
)
from .network import (
    GROUND_INDEX,
    CompiledNetlist,
    Netlist,
    NodeId,
    admittance_stamp_entries,
)


@dataclass(frozen=True)
class InductorElement:
    """An ideal inductor between two nodes."""

    name: str
    node_a: NodeId
    node_b: NodeId
    inductance_h: float

    def __post_init__(self) -> None:
        if self.inductance_h <= 0:
            raise ConfigError(f"inductor {self.name}: L must be positive")
        if self.node_a == self.node_b:
            raise ConfigError(f"inductor {self.name}: shorted terminals")


@dataclass(frozen=True)
class CapacitorElement:
    """An ideal capacitor between two nodes."""

    name: str
    node_a: NodeId
    node_b: NodeId
    capacitance_f: float

    def __post_init__(self) -> None:
        if self.capacitance_f <= 0:
            raise ConfigError(f"capacitor {self.name}: C must be positive")
        if self.node_a == self.node_b:
            raise ConfigError(f"capacitor {self.name}: shorted terminals")


class ACNetlist(Netlist):
    """A netlist with reactive elements for phasor analysis."""

    def __init__(self) -> None:
        super().__init__()
        self.inductors: list[InductorElement] = []
        self.capacitors: list[CapacitorElement] = []

    def add_inductor(
        self, name: str, node_a: NodeId, node_b: NodeId, inductance_h: float
    ) -> InductorElement:
        """Add an ideal inductor and return it."""
        self._register(name)
        element = InductorElement(name, node_a, node_b, inductance_h)
        self.inductors.append(element)
        return element

    def add_capacitor(
        self, name: str, node_a: NodeId, node_b: NodeId, capacitance_f: float
    ) -> CapacitorElement:
        """Add an ideal capacitor and return it."""
        self._register(name)
        element = CapacitorElement(name, node_a, node_b, capacitance_f)
        self.capacitors.append(element)
        return element

    def nodes(self) -> list[NodeId]:
        """All distinct nodes including reactive terminals."""
        seen = {node: None for node in super().nodes()}
        for l in self.inductors:
            seen.setdefault(l.node_a)
            seen.setdefault(l.node_b)
        for c in self.capacitors:
            seen.setdefault(c.node_a)
            seen.setdefault(c.node_b)
        seen.pop(self.GROUND, None)
        return list(seen.keys())

    def validate(self) -> None:
        """AC netlists may legitimately consist of R/L/C only."""
        if (
            not self.resistors
            and not self.voltage_sources
            and not self.inductors
            and not self.capacitors
        ):
            raise ConfigError("netlist has no elements")

    def extend_ac(self, other: "ACNetlist") -> None:
        """Copy every element of ``other`` into this netlist."""
        self.extend(other)
        for l in other.inductors:
            self.add_inductor(l.name, l.node_a, l.node_b, l.inductance_h)
        for c in other.capacitors:
            self.add_capacitor(c.name, c.node_a, c.node_b, c.capacitance_f)

    def compile_ac(self) -> "CompiledACNetlist":
        """Snapshot into the array-backed sweep form (built once,
        reused for any number of frequencies): :meth:`compile` plus
        the reactive elements on its node rows."""
        compiled = self.compile()
        index = compiled.node_index

        def ends(elements) -> np.ndarray:
            return np.array(
                [(index[e.node_a], index[e.node_b]) for e in elements],
                dtype=np.int64,
            ).reshape(-1, 2)

        ind, cap = ends(self.inductors), ends(self.capacitors)
        return CompiledACNetlist(
            compiled,
            ind[:, 0],
            ind[:, 1],
            [l.inductance_h for l in self.inductors],
            cap[:, 0],
            cap[:, 1],
            [c.capacitance_f for c in self.capacitors],
        )


@dataclass(frozen=True)
class ACSolution:
    """Phasor solution at one frequency."""

    frequency_hz: float
    node_voltages: dict[NodeId, complex]

    def voltage(self, node: NodeId) -> complex:
        """Complex node voltage (ground returns 0)."""
        if node == "0":
            return 0.0 + 0.0j
        return self.node_voltages[node]

    def magnitude(self, node: NodeId) -> float:
        """|V| at a node."""
        return abs(self.voltage(node))


def solve_ac(netlist: ACNetlist, frequency_hz: float) -> ACSolution:
    """Solve the phasor-domain operating point at one frequency.

    Current sources are interpreted as AC magnitudes (phase 0);
    voltage sources likewise.  Inductors/capacitors stamp their
    admittances 1/(jωL) and jωC.
    """
    if frequency_hz <= 0:
        raise ConfigError("frequency must be positive")
    netlist.validate()
    nodes = netlist.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    m = len(netlist.voltage_sources)
    size = n + m
    omega = 2.0 * math.pi * frequency_hz

    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    rhs = np.zeros(size, dtype=complex)

    def stamp_admittance(a: NodeId, b: NodeId, y: complex) -> None:
        if a != netlist.GROUND:
            rows.append(index[a]); cols.append(index[a]); vals.append(y)
        if b != netlist.GROUND:
            rows.append(index[b]); cols.append(index[b]); vals.append(y)
        if a != netlist.GROUND and b != netlist.GROUND:
            rows.append(index[a]); cols.append(index[b]); vals.append(-y)
            rows.append(index[b]); cols.append(index[a]); vals.append(-y)

    for r in netlist.resistors:
        stamp_admittance(r.node_a, r.node_b, 1.0 / r.resistance_ohm)
    for l in netlist.inductors:
        stamp_admittance(
            l.node_a, l.node_b, 1.0 / (1j * omega * l.inductance_h)
        )
    for c in netlist.capacitors:
        stamp_admittance(c.node_a, c.node_b, 1j * omega * c.capacitance_f)

    for s in netlist.current_sources:
        if s.node_from != netlist.GROUND:
            rhs[index[s.node_from]] -= s.current_a
        if s.node_to != netlist.GROUND:
            rhs[index[s.node_to]] += s.current_a

    for k, v in enumerate(netlist.voltage_sources):
        row = n + k
        if v.node_plus != netlist.GROUND:
            rows.append(index[v.node_plus]); cols.append(row); vals.append(1.0)
            rows.append(row); cols.append(index[v.node_plus]); vals.append(1.0)
        if v.node_minus != netlist.GROUND:
            rows.append(index[v.node_minus]); cols.append(row); vals.append(-1.0)
            rows.append(row); cols.append(index[v.node_minus]); vals.append(-1.0)
        rhs[row] = v.voltage_v

    matrix = sp.coo_matrix(
        (np.asarray(vals, dtype=complex), (rows, cols)),
        shape=(size, size),
    ).tocsc()
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        try:
            lu = spla.splu(matrix)
        except RuntimeError as exc:
            raise SolverError(f"AC MNA solve failed: {exc}") from exc
        solution = lu.solve(rhs)
        # One refinement round on the same LU recovers the digits the
        # pivoting loses on badly scaled stamps (mΩ sources beside
        # µF decaps at low frequency), so the oracle meets the 1e-9
        # parity bound it is held to.
        solution = solution + lu.solve(rhs - matrix @ solution)
    if not np.all(np.isfinite(solution)):
        raise SolverError(
            "AC solution contains non-finite values (resonant singularity "
            "or floating subcircuit)"
        )
    voltages = {node: complex(solution[index[node]]) for node in nodes}
    return ACSolution(frequency_hz=frequency_hz, node_voltages=voltages)


def probed_lu(matrix: sp.csc_matrix, frequency_hz: float) -> spla.SuperLU:
    """The sparse LU of one AC system matrix, probed as it is factored.

    The one sparse factorization of every AC sweep path.  SuperLU
    failing, or the known-solution probe (see
    :func:`repro.pdn.mna.singularity_probe`: one matvec and one
    back-substitution on the new factors) missing ``w``, raises
    :class:`~repro.errors.SolverError` naming the frequency, so an
    exactly singular point (a floating subcircuit or mesh that LU slid
    through on a rounded pivot) fails loudly instead of returning an
    arbitrary null-space offset.
    """
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        try:
            lu = spla.splu(matrix)
        except RuntimeError as exc:
            raise SolverError(
                f"AC system is singular at {frequency_hz:.6g} Hz: {exc}"
            ) from exc
    if not factorization_probe_error(lu, matrix) <= SINGULARITY_PROBE_TOL:
        raise SolverError(
            f"AC system is singular at {frequency_hz:.6g} Hz "
            "(resonant singularity or floating subcircuit)"
        )
    return lu


def check_frequencies(frequencies_hz: np.ndarray) -> np.ndarray:
    """Validate and normalize a frequency grid (1-D, real, finite,
    positive)."""
    require_real(frequencies_hz, "frequencies")
    freqs = np.asarray(frequencies_hz, dtype=float)
    if freqs.ndim != 1 or len(freqs) == 0:
        raise ConfigError("frequencies must be a non-empty 1-D array")
    if not np.all(np.isfinite(freqs)):
        raise ConfigError("frequencies must be finite")
    if np.any(freqs <= 0):
        raise ConfigError("frequencies must be positive")
    return freqs


@dataclass(frozen=True)
class ACSweepSolution:
    """Phasor solutions over a frequency grid.

    Attributes:
        frequencies_hz: the sweep grid.
        nodes: non-ground node ids in row order.
        voltage_matrix: complex node voltages, shape
            ``(len(frequencies_hz), len(nodes))``.
    """

    frequencies_hz: np.ndarray
    nodes: tuple[NodeId, ...]
    voltage_matrix: np.ndarray

    def _column(self, node: NodeId) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise ConfigError(f"unknown node: {node!r}") from None

    def voltage(self, node: NodeId) -> np.ndarray:
        """Complex V(f) at a node (ground returns zeros)."""
        if node == "0":
            return np.zeros(len(self.frequencies_hz), dtype=complex)
        return self.voltage_matrix[:, self._column(node)]

    def magnitude(self, node: NodeId) -> np.ndarray:
        """|V(f)| at a node."""
        return np.abs(self.voltage(node))

    def at(self, index: int) -> ACSolution:
        """The scalar :class:`ACSolution` view of one sweep point."""
        row = self.voltage_matrix[index]
        return ACSolution(
            frequency_hz=float(self.frequencies_hz[index]),
            node_voltages={
                node: complex(row[i]) for i, node in enumerate(self.nodes)
            },
        )


#: Systems at or below this MNA dimension solve a frequency sweep as
#: one batched dense LAPACK call instead of per-frequency sparse LU.
DENSE_SWEEP_CUTOFF = 256

#: Upper bound on the scratch size (complex entries) of one dense
#: batch; sweeps above it are chunked over frequency.  250k entries
#: (4 MB) is the knee of the selinv impedance map, the engine the
#: design-study maps run: its time held flat from 2M down to 125k
#: entries and rose ~1.2× at 64k, while one 121-point 24² map's
#: traced peak fell from 43 to 6 MB.  Both grid map engines reuse
#: their chunk buffers, so short chunks cost no page faults (table in
#: docs/structured-solvers.md).
_DENSE_BATCH_ENTRIES = 250_000


def shared_csc_pattern(
    rows: np.ndarray, cols: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One reusable CSC index pattern for a fixed COO entry layout.

    Sorts the entries column-major once and finds the duplicate
    groups, so that any value vector over the same (rows, cols) maps
    onto the CSC ``data`` array with one fancy-index plus one
    ``np.add.reduceat`` — no per-solve sparse re-assembly.  Returns
    ``(order, starts, csc_rows, csc_cols, indptr)``.  Shared by the
    lumped AC sweep engine and the grid-level reduced AC assembly.
    """
    nnz = len(rows)
    order = np.lexsort((rows, cols))
    r_sorted = rows[order]
    c_sorted = cols[order]
    boundary = np.ones(nnz, dtype=bool)
    boundary[1:] = (r_sorted[1:] != r_sorted[:-1]) | (
        c_sorted[1:] != c_sorted[:-1]
    )
    starts = np.nonzero(boundary)[0]
    csc_rows = r_sorted[starts]
    csc_cols = c_sorted[starts]
    counts = np.bincount(csc_cols, minlength=size)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return order, starts, csc_rows, csc_cols, indptr


class CompiledACNetlist:
    """An AC netlist compiled to a reusable frequency-sweep structure.

    A :class:`~repro.pdn.network.CompiledNetlist` — the resistors,
    sources and node rows, whose
    :meth:`~repro.pdn.network.CompiledNetlist.mna_coo` supplies the
    ``[G B; Bᵀ 0]`` stamp — plus inductor and capacitor arrays over the
    same rows (ground encoded as
    :data:`~repro.pdn.network.GROUND_INDEX`).  Every matrix entry is
    recorded as COO coordinates plus three per-entry coefficient arrays
    — resistive (frequency independent), capacitive (scaled by ``jω``),
    and inductive (scaled by ``1/(jω)``) — so the complex value vector
    at any frequency is

    ``vals(ω) = const + j(ω·cap − ind/ω)``

    with no per-element Python work.  The CSC index pattern (column
    pointers, row indices, and the duplicate-summing permutation) is
    computed once and shared by every frequency in a sweep; only the
    numeric values change.  The right-hand side (source phasors) is
    frequency independent and also precomputed.

    The netlist is held, not inherited, so an AC netlist is never
    mistaken for a DC one by :class:`~repro.pdn.mna.FactorizedPDN`.
    """

    def __init__(
        self,
        compiled: CompiledNetlist,
        ind_a: np.ndarray,
        ind_b: np.ndarray,
        ind_h: np.ndarray,
        cap_a: np.ndarray,
        cap_b: np.ndarray,
        cap_f: np.ndarray,
    ) -> None:
        self.compiled = compiled
        n = compiled.n_nodes

        def checked(label, a, b, values):
            a = np.ascontiguousarray(a, dtype=np.int64)
            b = np.ascontiguousarray(b, dtype=np.int64)
            values = np.ascontiguousarray(values, dtype=float)
            if not (len(a) == len(b) == len(values)):
                raise ConfigError(f"{label} arrays have mismatched lengths")
            for endpoint in (a, b):
                if endpoint.size and (
                    endpoint.min() < GROUND_INDEX or endpoint.max() >= n
                ):
                    raise ConfigError(f"{label} endpoint index out of range")
            if values.size and not np.all(values > 0):
                raise ConfigError(f"compiled {label} values must be positive")
            return a, b, values

        ind_a, ind_b, ind_h = checked("inductor", ind_a, ind_b, ind_h)
        cap_a, cap_b, cap_f = checked("capacitor", cap_a, cap_b, cap_f)
        g_rows, g_cols, g_vals = compiled.mna_coo()
        c_rows, c_cols, c_vals = admittance_stamp_entries(cap_a, cap_b, cap_f)
        l_rows, l_cols, l_vals = admittance_stamp_entries(
            ind_a, ind_b, 1.0 / ind_h
        )

        # Entry order G+B, C, L: each kind owns one slice of its
        # coefficient array.
        rows = np.concatenate([g_rows, c_rows, l_rows])
        cols = np.concatenate([g_cols, c_cols, l_cols])
        fixed = g_rows.size
        reactive = fixed + c_rows.size
        self._const = np.zeros(rows.size)
        self._cap = np.zeros(rows.size)
        self._ind = np.zeros(rows.size)
        self._const[:fixed] = g_vals
        self._cap[fixed:reactive] = c_vals
        self._ind[reactive:] = l_vals
        self._rows = rows
        self._cols = cols

        (
            self._order,
            self._starts,
            self._csc_rows,
            self._csc_cols,
            self._indptr,
        ) = shared_csc_pattern(rows, cols, self.size)

        # Frequency-independent RHS: source magnitudes at phase 0.
        rhs = np.zeros(self.size, dtype=complex)
        cs_from, cs_to = compiled.cs_from, compiled.cs_to
        cs_amp = compiled.cs_amp
        if cs_amp.size:
            out_of = cs_from != GROUND_INDEX
            into = cs_to != GROUND_INDEX
            rhs[:n] += np.bincount(
                cs_to[into], weights=cs_amp[into], minlength=n
            )
            rhs[:n] -= np.bincount(
                cs_from[out_of], weights=cs_amp[out_of], minlength=n
            )
        rhs[n:] = compiled.vs_volt
        self.rhs = rhs

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """Node ids in row order."""
        return self.compiled.nodes

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return self.compiled.n_nodes

    @property
    def size(self) -> int:
        """Dimension of the MNA system."""
        return self.compiled.size

    # -- per-frequency values -------------------------------------------------

    def values_at(self, omega: float) -> np.ndarray:
        """Complex COO entry values at one angular frequency
        (element stamp order, duplicates not summed)."""
        return self._const + 1j * (omega * self._cap - self._ind / omega)

    def csc_data(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Matrix values for every frequency on the shared pattern.

        Shape ``(len(frequencies_hz), nnz_csc)`` — row ``k`` is the
        ``data`` array of the CSC matrix at frequency ``k``.
        """
        omega = 2.0 * math.pi * check_frequencies(frequencies_hz)
        vals = self._const[None, :] + 1j * (
            omega[:, None] * self._cap[None, :]
            - self._ind[None, :] / omega[:, None]
        )
        return np.add.reduceat(vals[:, self._order], self._starts, axis=1)

    def matrix_at(self, frequency_hz: float) -> sp.csc_matrix:
        """The assembled CSC system matrix at one frequency."""
        data = self.csc_data(np.array([float(frequency_hz)]))[0]
        return sp.csc_matrix(
            (data, self._csc_rows, self._indptr),
            shape=(self.size, self.size),
        )

    # -- sweep solve ----------------------------------------------------------

    def solve(self, frequencies_hz: np.ndarray) -> ACSweepSolution:
        """Solve the phasor operating point at every frequency.

        Small systems (``size <= DENSE_SWEEP_CUTOFF``) are solved as
        batched dense LAPACK calls, chunked to bound scratch memory;
        larger ones run one sparse LU per frequency on the shared
        pattern (:func:`probed_lu`).  Either way the netlist is never
        re-assembled.

        Raises:
            SolverError: a non-finite solution (resonant singularity
                or floating subcircuit) at any sweep point.
        """
        freqs = check_frequencies(frequencies_hz)
        count = len(freqs)
        size = self.size
        solutions = np.empty((count, size), dtype=complex)
        # Known-solution probe, as in the DC factorization (see
        # repro.pdn.mna.singularity_probe): an exactly singular point
        # (a floating subcircuit that LU slid through on a rounded
        # pivot) fails loudly instead of returning an arbitrary
        # null-space offset.  The dense batch carries it as one extra
        # RHS column; a sparse LU is probed as it is factored.
        probe = singularity_probe(size)
        probe_error = np.zeros(count)
        use_dense = size <= DENSE_SWEEP_CUTOFF
        # Both branches chunk over frequency so the per-chunk scratch
        # (dense matrix batch, or the (chunk, nnz) value matrix of a
        # large sparse system) stays bounded on long sweeps.
        per_point = size * size if use_dense else max(len(self._rows), size)
        chunk = max(1, _DENSE_BATCH_ENTRIES // per_point)

        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            data = self.csc_data(freqs[lo:hi])
            if use_dense:
                flat_index = self._csc_rows * size + self._csc_cols
                dense = np.zeros((hi - lo, size * size), dtype=complex)
                dense[:, flat_index] = data
                dense = dense.reshape(hi - lo, size, size)
                stacked = np.empty((hi - lo, size, 2), dtype=complex)
                stacked[:, :, 0] = self.rhs
                stacked[:, :, 1] = dense @ probe
                try:
                    with np.errstate(all="ignore"):
                        solved = np.linalg.solve(dense, stacked)
                except np.linalg.LinAlgError as exc:
                    raise SolverError(
                        f"AC sweep solve failed: {exc}"
                    ) from exc
                solutions[lo:hi] = solved[:, :, 0]
                with np.errstate(all="ignore"):
                    probe_error[lo:hi] = np.abs(
                        solved[:, :, 1] - probe
                    ).max(axis=1, initial=0.0)
            else:
                for k, values in enumerate(data, lo):
                    matrix = sp.csc_matrix(
                        (values, self._csc_rows, self._indptr),
                        shape=(size, size),
                    )
                    solutions[k] = probed_lu(matrix, freqs[k]).solve(self.rhs)

        good = np.all(np.isfinite(solutions), axis=1)
        good &= np.isfinite(probe_error) & (
            probe_error <= SINGULARITY_PROBE_TOL
        )
        if not good.all():
            bad = freqs[np.nonzero(~good)[0][0]]
            raise SolverError(
                f"AC solution is singular or non-finite at {bad:.6g} Hz "
                "(resonant singularity or floating subcircuit)"
            )
        return ACSweepSolution(
            frequencies_hz=freqs,
            nodes=self.nodes,
            voltage_matrix=solutions[:, : self.n_nodes],
        )


def probe_netlist(netlist: ACNetlist, node: NodeId) -> ACNetlist:
    """The small-signal probe circuit for an impedance measurement.

    All independent sources are zeroed (voltage sources become shorts,
    current sources open circuits) and a 1 A probe is injected into
    ``node``.  The input netlist is not mutated.
    """
    probe = ACNetlist()
    for r in netlist.resistors:
        probe.add_resistor(r.name, r.node_a, r.node_b, r.resistance_ohm)
    for l in netlist.inductors:
        probe.add_inductor(l.name, l.node_a, l.node_b, l.inductance_h)
    for c in netlist.capacitors:
        probe.add_capacitor(c.name, c.node_a, c.node_b, c.capacitance_f)
    for v in netlist.voltage_sources:
        # Zeroed voltage source = ideal short between its terminals.
        probe.add_voltage_source(v.name, v.node_plus, 0.0, v.node_minus)
    # Current sources are zeroed by omission (open circuits).
    probe.add_current_source("__probe__", probe.GROUND, node, 1.0)
    return probe


def impedance_at(
    netlist: ACNetlist, node: NodeId, frequencies_hz: np.ndarray
) -> np.ndarray:
    """|Z(f)| looking into ``node``: inject 1 A AC, read |V|.

    Small-signal analysis via :func:`probe_netlist`; the whole sweep
    runs on one compiled stamp structure (:class:`CompiledACNetlist`),
    so dense frequency grids cost one compilation plus vectorized
    solves.
    :func:`solve_ac` on the same probe circuit is the scalar parity
    oracle (see ``tests/test_ac.py``).
    """
    freqs = check_frequencies(frequencies_hz)
    sweep = probe_netlist(netlist, node).compile_ac().solve(freqs)
    return sweep.magnitude(node)
