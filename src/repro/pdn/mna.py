"""Sparse modified nodal analysis (MNA) DC solver.

Solves ``[G B; B^T 0] [v; j] = [i; e]`` where ``G`` is the conductance
matrix over non-ground nodes, ``B`` maps voltage sources to nodes,
``i`` collects current-source injections and ``e`` the source voltages.

The solver operates on a :class:`~repro.pdn.network.CompiledNetlist`
(array-backed, integer-indexed) and stamps the COO matrix with pure
numpy concatenation — no per-element Python loop.  Factorization is
SuperLU (``scipy.sparse.linalg.splu``) wrapped in
:class:`FactorizedPDN`, which callers with fixed topology keep around
to solve new load/source vectors at back-substitution cost
(``solve_rhs`` / ``solve_many``).  A resistor-only stamp, such as the
grid's nodal DC stamp (:func:`repro.pdn.grid.dc_stamp`), is symmetric
positive definite and is factored in SuperLU's symmetric mode; an MNA
stamp with voltage-source rows keeps the unsymmetric ordering and
partial pivoting.

A structural failure scenario is a set of removed resistors
(:meth:`FactorizedPDN.solve_modified_many`), solved as a low-rank
Woodbury correction on the cached factorization.  On an MNA stamp a
failed regulator is its ``r_out`` resistor removed, the same open
branch the grid's nodal engines remove.

The solver also verifies the physics of the returned solution:
Kirchhoff's current law at every node (via ``np.bincount``) and global
power balance (source power = load power + I²R dissipation) to tight
tolerances, raising :class:`~repro.errors.SolverError` on violation
rather than returning silently wrong answers.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from ..errors import ConfigError, SolverError, require_finite, require_indices
from .network import GROUND_INDEX, CompiledNetlist, Netlist, NodeId

#: Cap on memoized influence columns per factorization.  Each
#: column is a dense float64 vector of length ``size``; at this cap a
#: 10k-node mesh holds at most ~80 MB of influence columns, and
#: long-running sweep workers (see :mod:`repro.parallel`) stay bounded
#: no matter how many distinct elements their scenarios touch.
INFLUENCE_CACHE_COLUMNS = 1024

#: Acceptance threshold for the known-solution singularity probe.
#: Shared by the DC factorization, the modified-scenario fallback, and
#: the AC sweep engine so every solve path renders the same
#: singular/non-singular verdict for the same matrix.
SINGULARITY_PROBE_TOL = 1e-3

#: Woodbury gate of :meth:`FactorizedPDN.solve_modified_many`: a
#: scenario whose capacitance matrix ``S = I + W^T Z`` has its smallest
#: singular value at or below ``max(1, sigma_max) / _WOODBURY_COND_LIMIT``
#: is refactorized (or rejected under ``method="woodbury"``).
_WOODBURY_COND_LIMIT = 1e10

#: The ``method`` values of :meth:`FactorizedPDN.solve_modified_many`
#: and :meth:`repro.pdn.grid.GridPDN.solve_disabled_many`.
MODIFIED_METHODS = ("auto", "woodbury", "refactor")


def check_method(method: str) -> str:
    """``method`` if it names one of :data:`MODIFIED_METHODS`, else
    ConfigError."""
    if method not in MODIFIED_METHODS:
        raise ConfigError(
            f"unknown method {method!r}; expected one of "
            f"{', '.join(MODIFIED_METHODS)}"
        )
    return method


#: SuperLU settings for a stamp without voltage sources: a resistor
#: network whose every node reaches ground is symmetric positive
#: definite, so it is ordered by minimum degree on ``A + Aᵀ`` and
#: factored on its diagonal pivots.
_SPD_LU_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    options=dict(SymmetricMode=True),
)


def singularity_probe(size: int) -> np.ndarray:
    """The known probe solution ``w`` used to detect rounded pivots.

    Recovering ``w`` from ``A @ w`` amplifies any near-null direction
    by ~1/pivot, so a large recovery error exposes an exactly singular
    system that LU happened to factor through a rounded tiny pivot —
    an error mode downstream KCL/power checks cannot see (the
    null-space offset is current-consistent).
    """
    return np.cos(np.arange(size))


def factorization_probe_error(lu: "spla.SuperLU", matrix: sp.csc_matrix) -> float:
    """Probe recovery error of a factorization (see
    :func:`singularity_probe`); compare against
    :data:`SINGULARITY_PROBE_TOL`."""
    probe = singularity_probe(matrix.shape[0])
    with np.errstate(all="ignore"):
        recovered = lu.solve(matrix @ probe)
        return float(np.abs(recovered - probe).max(initial=0.0))


def _require_grounded(compiled: CompiledNetlist) -> None:
    """Raise :class:`~repro.errors.SolverError` naming a floating node.

    Every node must reach ground through resistors and voltage sources
    (a current source fixes no potential).  A part that does not is a
    structurally singular block whose voltages are arbitrary; the
    factorization probe sees such a block only for some pivot orders,
    so it is rejected here by structure.
    """
    n = compiled.n_nodes
    a = np.concatenate([compiled.res_a, compiled.vs_plus])
    b = np.concatenate([compiled.res_b, compiled.vs_minus])
    # Ground is the extra vertex n.
    a[a == GROUND_INDEX] = n
    b[b == GROUND_INDEX] = n
    graph = sp.csr_matrix((np.ones(a.size), (a, b)), shape=(n + 1, n + 1))
    count, labels = connected_components(graph, directed=False)
    if count > 1:
        node = int(np.argmax(labels != labels[n]))
        raise SolverError(
            f"node {compiled.nodes[node]!r} floats: no path of resistors "
            "or voltage sources connects it to ground"
        )


class DCSolution:
    """Result of a DC operating-point solve.

    Array-backed: per-node voltages and per-element currents/losses
    are numpy arrays aligned with the compiled netlist's element
    order.  The historical name-keyed dict views (``node_voltages``,
    ``resistor_currents``, ``resistor_losses``, ``source_currents``)
    are built lazily on first access, so hot paths that consume the
    arrays never pay for dict construction.

    Attributes:
        compiled: the compiled netlist this solution belongs to.
        node_voltage_array: voltage per non-ground node (row order).
        resistor_current_array: current through each resistor,
            measured from ``node_a`` to ``node_b``.
        resistor_loss_array: I²R dissipation per resistor.
        source_current_array: current *delivered* by each voltage
            source (positive = sourcing power into the network).
    """

    def __init__(
        self,
        compiled: CompiledNetlist,
        node_voltage_array: np.ndarray,
        resistor_current_array: np.ndarray,
        resistor_loss_array: np.ndarray,
        source_current_array: np.ndarray,
    ) -> None:
        self.compiled = compiled
        self.node_voltage_array = node_voltage_array
        self.resistor_current_array = resistor_current_array
        self.resistor_loss_array = resistor_loss_array
        self.source_current_array = source_current_array

    # -- name-keyed views (lazy) ------------------------------------------------

    @cached_property
    def node_voltages(self) -> dict[NodeId, float]:
        """Voltage of every non-ground node (ground = 0 V)."""
        return dict(zip(self.compiled.nodes, self.node_voltage_array.tolist()))

    @cached_property
    def resistor_currents(self) -> dict[str, float]:
        """Current through each resistor, ``node_a`` to ``node_b``."""
        return dict(
            zip(self.compiled.res_names, self.resistor_current_array.tolist())
        )

    @cached_property
    def resistor_losses(self) -> dict[str, float]:
        """I²R dissipation per resistor."""
        return dict(
            zip(self.compiled.res_names, self.resistor_loss_array.tolist())
        )

    @cached_property
    def source_currents(self) -> dict[str, float]:
        """Current delivered by each voltage source."""
        return dict(
            zip(self.compiled.vs_names, self.source_current_array.tolist())
        )

    # -- queries -----------------------------------------------------------------

    def voltage(self, node: NodeId) -> float:
        """Voltage at a node (ground returns 0.0)."""
        index = self.compiled.node_index[node]
        if index == GROUND_INDEX:
            return 0.0
        return float(self.node_voltage_array[index])

    @property
    def total_resistive_loss_w(self) -> float:
        """Total I²R dissipation across all resistors."""
        return float(self.resistor_loss_array.sum())

    def loss_by_prefix(self, prefix: str) -> float:
        """Sum of losses over resistors whose name starts with ``prefix``.

        Power-path builders use structured names ("pcb.", "bga.", ...)
        so per-segment breakdowns are a prefix query.
        """
        names = self.compiled.res_names
        mask = np.fromiter(
            (name.startswith(prefix) for name in names), bool, len(names)
        )
        return float(self.resistor_loss_array[mask].sum())

    def min_voltage(self) -> float:
        """Smallest node voltage (worst-case droop detection)."""
        if not self.node_voltage_array.size:
            return 0.0
        return float(self.node_voltage_array.min())


class FactorizedPDN:
    """A reusable sparse LU factorization of one netlist topology.

    The MNA matrix depends only on the netlist *structure* (element
    endpoints and resistances); load currents and source voltages only
    enter the right-hand side.  Factorize once, then solve any number
    of load/source scenarios at back-substitution cost:

    * :meth:`solve` — full scenario solve returning a
      :class:`DCSolution` (optionally overriding load currents and
      source voltages),
    * :meth:`solve_rhs` / :meth:`solve_many` — raw solves of explicit
      RHS vectors / stacked RHS matrices.

    Raises :class:`~repro.errors.SolverError` at construction when the
    system is singular (floating subcircuits, missing ground
    reference), which surfaces broken topologies at factorization time
    instead of as NaNs downstream.
    """

    def __init__(self, netlist: Netlist | CompiledNetlist) -> None:
        compiled = (
            netlist.compile() if isinstance(netlist, Netlist) else netlist
        )
        compiled.validate()
        _require_grounded(compiled)
        self.compiled = compiled
        n = compiled.n_nodes
        size = compiled.size

        rows, cols, vals = compiled.mna_coo()
        matrix = sp.coo_matrix(
            (vals, (rows, cols)), shape=(size, size)
        ).tocsc()
        self._lu = self._factor(matrix, "the network")
        self._n = n
        self._size = size
        self._conductance = 1.0 / compiled.res_ohm
        self._matrix = matrix
        # Memoized A^-1 @ u columns for low-rank modifications, keyed
        # by resistor index: the update vector of "remove resistor i"
        # is canonical per resistor, so sweeps that revisit resistors
        # (N-k enumerations, repeated studies) pay each
        # back-substitution once per factorization.  Bounded LRU of
        # INFLUENCE_CACHE_COLUMNS columns: each is a dense ``size``
        # vector, and a long-lived sweep worker enumerating resistor
        # removals over a large mesh would otherwise grow this without
        # limit.
        self._influence: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.influence_evictions = 0

    def _factor(self, matrix: sp.csc_matrix, subject: str) -> "spla.SuperLU":
        """SuperLU factors of one MNA matrix of this netlist, probed.

        The stamp picks the ordering: without voltage sources it is a
        grounded resistor network, symmetric positive definite, and is
        factored in SuperLU's symmetric mode (:data:`_SPD_LU_OPTIONS`);
        voltage-source rows put zeros on the diagonal, so an MNA stamp
        keeps COLAMD with partial pivoting.  The known-solution probe
        (one matvec plus one back-substitution) rejects a singular
        system that LU factored through a rounded pivot.
        """
        options = {} if len(self.compiled.vs_volt) else _SPD_LU_OPTIONS
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            try:
                lu = spla.splu(matrix, **options)
            except RuntimeError as exc:  # SuperLU signals singularity
                raise SolverError(
                    f"MNA factorization of {subject} failed: the system "
                    f"is singular: {exc}"
                ) from exc
        error = factorization_probe_error(lu, matrix)
        if not np.isfinite(error) or error > SINGULARITY_PROBE_TOL:
            raise SolverError(
                f"MNA factorization of {subject} is numerically singular "
                f"(probe error {error:.3e})"
            )
        return lu

    # -- RHS assembly -------------------------------------------------------------

    def _scenario_values(
        self,
        cs_amp: np.ndarray | None,
        vs_volt: np.ndarray | None,
        count: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve and check load/source overrides, each array once;
        with ``count``, ``cs_amp`` may be a ``(count, n_cs)`` stack."""
        compiled = self.compiled
        amp = compiled.cs_amp if cs_amp is None else np.asarray(cs_amp, float)
        volt = (
            compiled.vs_volt if vs_volt is None else np.asarray(vs_volt, float)
        )
        if amp.shape != compiled.cs_amp.shape and (
            count is None or amp.shape != (count, *compiled.cs_amp.shape)
        ):
            raise SolverError(
                f"expected {compiled.cs_amp.shape[0]} load currents, "
                f"got shape {amp.shape}"
            )
        if volt.shape != compiled.vs_volt.shape:
            raise SolverError(
                f"expected {compiled.vs_volt.shape[0]} source voltages, "
                f"got shape {volt.shape}"
            )
        if cs_amp is not None:
            require_finite(amp, "cs_amp")
        if vs_volt is not None:
            require_finite(volt, "vs_volt")
        if amp.size and np.any(amp < 0):
            raise SolverError("load currents must be non-negative")
        return amp, volt

    def rhs(
        self,
        cs_amp: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
    ) -> np.ndarray:
        """Assemble the MNA right-hand side for a load/source scenario.

        Defaults to the compiled netlist's own currents and voltages.
        """
        return self._rhs(*self._scenario_values(cs_amp, vs_volt))

    def _rhs(self, amp: np.ndarray, volt: np.ndarray) -> np.ndarray:
        """:meth:`rhs` of values :meth:`_scenario_values` has checked."""
        compiled = self.compiled
        rhs = np.zeros(self._size)
        n = self._n
        if amp.size:
            out_of = compiled.cs_from != GROUND_INDEX
            into = compiled.cs_to != GROUND_INDEX
            rhs[:n] = np.bincount(
                compiled.cs_to[into], weights=amp[into], minlength=n
            )
            rhs[:n] -= np.bincount(
                compiled.cs_from[out_of], weights=amp[out_of], minlength=n
            )
        rhs[n:] = volt
        return rhs

    # -- raw solves ----------------------------------------------------------------

    def solve_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute one explicit RHS vector (length ``size``)."""
        solution = self._lu.solve(np.asarray(rhs, dtype=float))
        if not np.all(np.isfinite(solution)):
            raise SolverError("MNA solution contains non-finite values")
        return solution

    def solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        """Back-substitute a stack of RHS columns, shape (size, k).

        One factorization amortized over k scenarios — the batched
        path for Monte-Carlo sweeps and load sweeps over a fixed
        topology.
        """
        stacked = np.asarray(rhs_matrix, dtype=float)
        if stacked.ndim != 2 or stacked.shape[0] != self._size:
            raise SolverError(
                f"rhs matrix must be shaped ({self._size}, k), "
                f"got {stacked.shape}"
            )
        solution = self._lu.solve(stacked)
        if not np.all(np.isfinite(solution)):
            raise SolverError("MNA solution contains non-finite values")
        return solution

    # -- scenario solve -------------------------------------------------------------

    def solve(
        self,
        cs_amp: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
        check: bool = True,
    ) -> DCSolution:
        """Solve one operating point, optionally overriding the loads
        (``cs_amp``, aligned with the compiled current sources) and
        source voltages (``vs_volt``).

        Raises:
            SolverError: non-finite result, KCL or power-balance
                violation (with ``check=True``).
        """
        amp, volt = self._scenario_values(cs_amp, vs_volt)
        x = self.solve_rhs(self._rhs(amp, volt))
        return package_dc_solution(
            self.compiled, x, amp, volt, self._conductance, check
        )

    # -- low-rank modified solves ---------------------------------------------------

    def _update_columns(self, removed: list[int]) -> np.ndarray:
        """The ``U`` column ``d = e_a - e_b`` (ground entries dropped)
        of each removed resistor, ``(size, k)``."""
        u = np.zeros((self._size, len(removed)))
        for t, index in enumerate(removed):
            a = self.compiled.res_a[index]
            b = self.compiled.res_b[index]
            if a != GROUND_INDEX:
                u[a, t] = 1.0
            if b != GROUND_INDEX:
                u[b, t] = -1.0
        return u

    def _modification_factors(
        self, removed: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rank-k update ``A_mod = A + U @ W.T`` for a scenario.

        Removing resistor ``i`` subtracts its conductance stamp
        ``g_i d d^T``, so ``U`` holds the columns ``d`` and
        ``W = -U diag(g)``.
        """
        u = self._update_columns(removed)
        return u, u * -self._conductance[removed]

    def _influence_columns(self, keys: list[int]) -> dict[int, np.ndarray]:
        """``Z = A^-1 u`` of every removed resistor, memoized in a
        bounded LRU keyed by resistor index.

        Hits come from the memo; every miss is back-substituted in one
        batched call, in first-appearance order, and stored with LRU
        eviction, so a sweep touching m distinct elements pays one
        stacked solve for all of them.  The returned columns are held
        locally, so they stay whole even when a sweep touches more
        elements than the memo holds.
        """
        columns: dict[int, np.ndarray | None] = {}
        for key in keys:
            if key not in columns:
                columns[key] = self._influence.get(key)
                if columns[key] is not None:
                    self._influence.move_to_end(key)
        missing = [key for key, column in columns.items() if column is None]
        if missing:
            solved = self._lu.solve(self._update_columns(missing))
            for t, key in enumerate(missing):
                columns[key] = self._influence[key] = solved[:, t]
            while len(self._influence) > INFLUENCE_CACHE_COLUMNS:
                self._influence.popitem(last=False)
                self.influence_evictions += 1
        return columns

    def _refactorize_modified(
        self, u: np.ndarray, w: np.ndarray
    ) -> spla.SuperLU:
        """Factorize ``A + U W^T`` explicitly (the Woodbury fallback)."""
        # U and W have at most a few nonzeros per column, so the
        # update is assembled sparsely (O(k * size), not size^2).
        delta = sp.csc_matrix(u) @ sp.csc_matrix(w).T
        matrix = (self._matrix + delta).tocsc()
        # A removal that islands a loaded subgrid leaves this system
        # exactly singular; the probe in _factor rejects it.
        return self._factor(matrix, "the modified scenario")

    def _solve_refactored(
        self, rhs: np.ndarray, u: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """Solve ``(A + U W^T) x = rhs`` on its own factorization, with
        one refinement step: ``method="refactor"`` and the
        ill-conditioned Woodbury fallback."""
        lu = self._refactorize_modified(u, w)
        x = lu.solve(rhs)
        residual = rhs - (self._matrix @ x + u @ (w.T @ x))
        x = x + lu.solve(residual)
        if not np.all(np.isfinite(x)):
            raise SolverError(
                "modified MNA solution contains non-finite values"
            )
        return x

    def solve_modified(
        self,
        remove_resistors: "np.ndarray | tuple[int, ...] | list[int]" = (),
        cs_amp: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
        check: bool = True,
        method: str = "auto",
    ) -> DCSolution:
        """Solve one structurally modified scenario: a one-scenario
        :meth:`solve_modified_many` (see there for the arguments)."""
        return self.solve_modified_many(
            [remove_resistors],
            cs_amp=cs_amp,
            vs_volt=vs_volt,
            check=check,
            method=method,
        )[0]

    def solve_modified_many(
        self,
        scenarios: "list | tuple",
        cs_amp: np.ndarray | None = None,
        vs_volt: np.ndarray | None = None,
        check: bool = True,
        method: str = "auto",
    ) -> list[DCSolution]:
        """Solve structurally modified scenarios on the base factorization.

        A failure/ablation sweep removes a handful of resistors per
        scenario; refactorizing each time costs a full LU.  Instead each
        modification is expressed as a rank-k update ``A + U W^T`` and
        solved with the Sherman–Morrison–Woodbury identity

        ``x = y - Z (I_k + W^T Z)^{-1} W^T y``

        where ``y = A^{-1} b`` and ``Z = A^{-1} U`` come from the
        *cached* factorization.  The sweep is batched through three
        stacked :meth:`solve_many`-style calls — the union of influence
        columns ``Z``, the right-hand sides, and one iterative-refinement
        round — leaving only k×k algebra per scenario.  Exhaustive N−k
        enumerations are the intended workload; :meth:`solve_modified`
        is the one-scenario call.

        Args:
            scenarios: one set of removed resistor indices per
                scenario (a scalar or a 1-D index set), sharing the
                source voltages.  Each removed resistor's conductance
                stamp is subtracted (an open branch), and it reports
                zero current and loss.  A failed regulator is its
                ``r_out`` resistor removed: its source row stays, with
                its EMF node held at the EMF and no current through it.
            cs_amp: load currents shared by every scenario, or a
                ``(len(scenarios), n_cs)`` stack, one row per scenario.
            method: ``"auto"`` uses Woodbury and refactorizes a
                scenario whose k-by-k capacitance matrix
                ``S = I + W^T Z`` is ill-conditioned (smallest singular
                value at or below ``max(1, sigma_max) /``
                :data:`_WOODBURY_COND_LIMIT`); ``"woodbury"`` raises
                :class:`~repro.errors.SolverError` instead; ``"refactor"``
                rebuilds every scenario (the parity oracle for the
                correction).

        Returns one :class:`DCSolution` per scenario, in order.

        Raises:
            ConfigError: an unknown ``method``, or a scenario that is
                not a scalar or a 1-D set of whole-number indices.
            SolverError: an index out of range, a disconnecting
                modification, or (with ``method="woodbury"``) an
                ill-conditioned correction.
        """
        check_method(method)
        n_res = len(self.compiled.res_ohm)
        keys: list[list[int]] = []
        for scenario in scenarios:
            removed = np.unique(require_indices(scenario, "remove_resistors"))
            if removed.size and (removed[0] < 0 or removed[-1] >= n_res):
                raise SolverError("remove_resistors index out of range")
            keys.append(removed.tolist())
        count = len(keys)
        amp, volt = self._scenario_values(cs_amp, vs_volt, count)
        if not keys:
            return []

        amps = np.broadcast_to(amp, (count, amp.shape[-1]))
        rhs_matrix = np.empty((self._size, count))
        for i, row in enumerate(amps):
            rhs_matrix[:, i] = self._rhs(row, volt)
        factors = {
            i: self._modification_factors(removed)
            for i, removed in enumerate(keys)
            if removed
        }
        if method == "refactor":
            x = np.column_stack(
                [
                    self._solve_refactored(rhs_matrix[:, i], *factors[i])
                    if i in factors
                    else self.solve_rhs(rhs_matrix[:, i])
                    for i in range(count)
                ]
            )
        else:
            x = self._solve_woodbury(rhs_matrix, keys, factors, method)

        solutions: list[DCSolution] = []
        for i, removed in enumerate(keys):
            # Removed resistors report zero current and loss.
            conductance = self._conductance
            if removed:
                conductance = conductance.copy()
                conductance[removed] = 0.0
            solutions.append(
                package_dc_solution(
                    self.compiled, x[:, i], amps[i], volt, conductance, check
                )
            )
        return solutions

    def _solve_woodbury(
        self,
        rhs_matrix: np.ndarray,
        keys: list[list[int]],
        factors: dict[int, tuple[np.ndarray, np.ndarray]],
        method: str,
    ) -> np.ndarray:
        """The Woodbury half of :meth:`solve_modified_many`: one column
        of ``x`` per scenario, refactorizing (``"auto"``) or raising
        (``"woodbury"``) where the correction is ill-conditioned."""
        influence = self._influence_columns(
            [key for scenario_keys in keys for key in scenario_keys]
        )
        y = self.solve_many(rhs_matrix)
        x = np.empty_like(y)
        corrections: dict[int, tuple[np.ndarray, ...]] = {}
        conds: dict[int, float] = {}
        fallback: list[int] = []

        def ill_conditioned(index: int) -> None:
            if method == "woodbury":
                raise SolverError(
                    "Woodbury correction is ill-conditioned "
                    f"(cond(S) = {conds[index]:.3e}) in scenario {index}; "
                    "the scenario likely disconnects the network"
                )
            fallback.append(index)

        for i, scenario_keys in enumerate(keys):
            if i not in factors:
                x[:, i] = y[:, i]
                continue
            u, w = factors[i]
            z = np.column_stack([influence[key] for key in scenario_keys])
            s = np.eye(u.shape[1]) + w.T @ z
            # Gate on the smallest singular value against an absolute
            # floor: cond(S) alone cannot flag a uniformly tiny S (for
            # k=1 it is identically 1), but sigma_min -> 0 is exactly
            # the near-singular modified system Woodbury cannot solve.
            with np.errstate(all="ignore"):
                singular_values = np.linalg.svd(s, compute_uv=False)
            sigma_max = float(singular_values[0])
            sigma_min = float(singular_values[-1])
            conds[i] = sigma_max / sigma_min if sigma_min > 0 else np.inf
            if not (
                np.all(np.isfinite(singular_values))
                and sigma_min > max(1.0, sigma_max) / _WOODBURY_COND_LIMIT
            ):
                ill_conditioned(i)
                continue
            corrections[i] = (u, w, z, s)
            x[:, i] = y[:, i] - z @ np.linalg.solve(s, w.T @ y[:, i])
            if not np.all(np.isfinite(x[:, i])):
                ill_conditioned(i)

        # One batched refinement round over the Woodbury-solved columns
        # tightens the correction from ~1e-9 to ~1e-12 relative.
        live = [i for i in corrections if i not in fallback]
        if live:
            applied = self._matrix @ x[:, live]
            for column, i in enumerate(live):
                u, w, _, _ = corrections[i]
                applied[:, column] += u @ (w.T @ x[:, i])
            refined = self.solve_many(rhs_matrix[:, live] - applied)
            for column, i in enumerate(live):
                _, w, z, s = corrections[i]
                x[:, i] += refined[:, column] - z @ np.linalg.solve(
                    s, w.T @ refined[:, column]
                )
                if not np.all(np.isfinite(x[:, i])):
                    ill_conditioned(i)
        for i in fallback:
            x[:, i] = self._solve_refactored(rhs_matrix[:, i], *factors[i])
        return x


def package_dc_solution(
    compiled: CompiledNetlist,
    x: np.ndarray,
    amp: np.ndarray,
    volt: np.ndarray,
    conductance: np.ndarray,
    check: bool,
) -> DCSolution:
    """Turn a raw MNA solution vector into a verified :class:`DCSolution`.

    Shared by the solve paths of :class:`FactorizedPDN` — plain,
    Woodbury-corrected and refactorized — so branch-current extraction
    and the KCL/power verification render identical results regardless
    of how ``x`` was computed.  The grid packages its nodal solutions
    itself (:mod:`repro.pdn.grid`) and shares only the verification
    rule, :func:`check_balance`.
    """
    n = compiled.n_nodes
    voltages = x[:n]
    # Ground trick: append one 0.0 so GROUND_INDEX (-1) gathers 0 V.
    v_full = np.concatenate([voltages, [0.0]])
    drop = v_full[compiled.res_a] - v_full[compiled.res_b]
    currents = drop * conductance
    losses = currents * drop
    source_currents = -x[n:]

    solution = DCSolution(
        compiled=compiled,
        node_voltage_array=voltages,
        resistor_current_array=currents,
        resistor_loss_array=losses,
        source_current_array=source_currents,
    )
    if check:
        _verify(solution, amp, volt, v_full)
    return solution


def solve_dc(netlist: Netlist | CompiledNetlist, check: bool = True) -> DCSolution:
    """Solve the DC operating point of a netlist.

    Args:
        netlist: the circuit to solve (a builder-style
            :class:`~repro.pdn.network.Netlist` or an already-compiled
            :class:`~repro.pdn.network.CompiledNetlist`).
        check: verify KCL and power balance on the solution
            (cheap relative to the factorization; disable only in
            tight inner loops that have been validated already).

    Raises:
        SolverError: singular/disconnected system or non-finite result.
    """
    return FactorizedPDN(netlist).solve(check=check)


def _verify(
    solution: DCSolution,
    cs_amp: np.ndarray,
    vs_volt: np.ndarray,
    v_full: np.ndarray,
) -> None:
    """Check KCL at every node and overall power balance (vectorized)."""
    compiled = solution.compiled
    n = compiled.n_nodes
    currents = solution.resistor_current_array
    source_currents = solution.source_current_array

    def contributions(nodes: np.ndarray, flow: np.ndarray) -> np.ndarray:
        keep = nodes != GROUND_INDEX
        return np.bincount(nodes[keep], weights=flow[keep], minlength=n)

    residual = (
        contributions(compiled.res_a, -currents)
        + contributions(compiled.res_b, currents)
        + contributions(compiled.cs_from, -cs_amp)
        + contributions(compiled.cs_to, cs_amp)
        + contributions(compiled.vs_plus, source_currents)
        + contributions(compiled.vs_minus, -source_currents)
    )
    check_balance(
        residual,
        cs_amp,
        source_currents,
        source_power=float(vs_volt @ source_currents),
        load_power=float(
            cs_amp @ (v_full[compiled.cs_from] - v_full[compiled.cs_to])
        ),
        dissipated=float(solution.resistor_loss_array.sum()),
    )


def check_balance(
    residual: np.ndarray,
    load_currents: np.ndarray,
    source_currents: np.ndarray,
    source_power: float,
    load_power: float,
    dissipated: float,
) -> None:
    """Raise :class:`~repro.errors.SolverError` unless the worst KCL
    node residual is within 1e-6 of the largest load or source current
    and the power balance within 1e-6 of its largest term (both scales
    at least 1 A or 1 W).  Shared by the MNA verification above and the
    grid's nodal packager (:mod:`repro.pdn.grid`)."""
    scale = max(
        1.0,
        float(np.abs(load_currents).max(initial=0.0)),
        float(np.abs(source_currents).max(initial=0.0)),
    )
    worst = float(np.abs(residual).max(initial=0.0))
    if worst > 1e-6 * scale:
        raise SolverError(
            f"KCL violated: worst node residual {worst:.3e} A "
            f"(scale {scale:.3e} A)"
        )
    imbalance = abs(source_power - load_power - dissipated)
    power_scale = max(1.0, abs(source_power), abs(load_power), dissipated)
    if imbalance > 1e-6 * power_scale:
        raise SolverError(
            f"power balance violated: sources {source_power:.6e} W, "
            f"loads {load_power:.6e} W, dissipation {dissipated:.6e} W"
        )
