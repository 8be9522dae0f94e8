"""40-digit and extended-precision reference solves (test-only helpers).

Each builds its system straight from element values, in mpmath or
``np.longdouble`` arithmetic, so a float64 solver is measured against
the circuit itself, not against another float64 stamp of it: at stiff
points (mΩ sources beside µF decaps at 10 kHz) the stamp's rounded
entries alone move the solution by ~1e-9.

* :func:`solve_ac_mp` — the MNA system of a lumped
  :class:`~repro.pdn.ac.ACNetlist`.
* :func:`solve_dc_mp` — the nodal DC system of a
  :class:`~repro.pdn.mesh.MeshDesign` (the system
  :func:`repro.pdn.grid.dc_stamp` stamps), from the design's arrays.
* :func:`solve_dc_ld` — the same system on meshes too large for
  mpmath: a float64 ``splu`` solve refined in ``np.longdouble``.
* :func:`impedance_mp` — the diagonal of the inverse of a design's
  reduced node-only AC system (the self-impedance map of
  :class:`~repro.pdn.grid.GridACPDN`), from the design's arrays.
"""

from __future__ import annotations

import mpmath
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.pdn.ac import ACNetlist, ACSolution
from repro.pdn.mesh import MeshDesign


def solve_ac_mp(
    netlist: ACNetlist, frequency_hz: float, dps: int = 40
) -> ACSolution:
    """The phasor operating point of ``netlist`` at ``frequency_hz``,
    solved at ``dps`` decimal digits, as :func:`~repro.pdn.ac.solve_ac`
    defines it (sources at phase 0)."""
    ground = netlist.GROUND
    nodes = netlist.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    with mpmath.workdps(dps):
        jw = mpmath.mpc(0, 2) * mpmath.pi * mpmath.mpf(frequency_hz)
        size = n + len(netlist.voltage_sources)
        matrix = mpmath.zeros(size, size)
        rhs = mpmath.zeros(size, 1)

        def admittance(node_a, node_b, y) -> None:
            for p, q, sign in (
                (node_a, node_a, 1),
                (node_b, node_b, 1),
                (node_a, node_b, -1),
                (node_b, node_a, -1),
            ):
                if p != ground and q != ground:
                    matrix[index[p], index[q]] += sign * y

        for r in netlist.resistors:
            admittance(r.node_a, r.node_b, 1 / mpmath.mpf(r.resistance_ohm))
        for l in netlist.inductors:
            admittance(
                l.node_a, l.node_b, 1 / (jw * mpmath.mpf(l.inductance_h))
            )
        for c in netlist.capacitors:
            admittance(c.node_a, c.node_b, jw * mpmath.mpf(c.capacitance_f))
        for s in netlist.current_sources:
            if s.node_from != ground:
                rhs[index[s.node_from]] -= mpmath.mpf(s.current_a)
            if s.node_to != ground:
                rhs[index[s.node_to]] += mpmath.mpf(s.current_a)
        for k, v in enumerate(netlist.voltage_sources):
            for node, sign in ((v.node_plus, 1), (v.node_minus, -1)):
                if node != ground:
                    matrix[index[node], n + k] += sign
                    matrix[n + k, index[node]] += sign
            rhs[n + k] = mpmath.mpf(v.voltage_v)
        solution = mpmath.lu_solve(matrix, rhs)
        voltages = {node: complex(solution[index[node]]) for node in nodes}
    return ACSolution(frequency_hz=float(frequency_hz), node_voltages=voltages)


def solve_dc_mp(
    design: MeshDesign, live: np.ndarray | None = None, dps: int = 40
) -> np.ndarray:
    """Mesh node voltages of the nodal DC system of ``design``, solved
    at ``dps`` decimal digits, as an ``(ny, nx)`` float map.

    The system is the lateral edges (mesh and ring bus, edge scales
    applied), one ``r_out`` shunt per live source and, on the
    right-hand side, the sinks drawn out of each node and each live
    source's Norton injection ``V/r_out`` into its attach node.
    ``live`` is a boolean mask over the sources (``None``: all live).
    Keep meshes small: the solve is dense, O(cells³) in mpmath.
    """
    cells = design.nx * design.ny
    with mpmath.workdps(dps):
        matrix = _lateral_matrix(design, lambda ohm, henry: 1 / ohm)
        rhs = mpmath.matrix([-mpmath.mpf(x) for x in design.sinks.ravel()])
        for k, source in enumerate(design.sources):
            if live is not None and not live[k]:
                continue
            row = source.iy * design.nx + source.ix
            g = 1 / mpmath.mpf(source.output_resistance_ohm)
            matrix[row, row] += g
            rhs[row] += g * mpmath.mpf(source.voltage_v)
        solution = mpmath.lu_solve(matrix, rhs)
        volts = [float(solution[i]) for i in range(cells)]
    return np.array(volts).reshape(design.ny, design.nx)


def solve_dc_ld(
    design: MeshDesign, live: np.ndarray | None = None, rounds: int = 3
) -> np.ndarray:
    """Mesh node voltages of the nodal DC system of :func:`solve_dc_mp`
    for meshes too large for mpmath, as an ``(ny, nx)`` float map.

    A float64 ``splu`` solve followed by ``rounds`` residual rounds in
    ``np.longdouble`` (64-bit significand on x86-64): each residual
    ``b − A·x`` is summed per element, from conductances and
    injections computed in long double from the design's resistances
    and setpoints, and each correction is one more float64
    back-substitution.  On a system whose condition number times
    float64's epsilon is small, the result is the exact solution to
    well below float64 rounding.  ``live`` is a boolean mask over the
    sources (``None``: all live).
    """
    cells = design.nx * design.ny
    a, b, r, _ = design.lateral_edges()
    g_edge = 1 / r.astype(np.longdouble)
    keep = np.ones(len(design.sources), bool) if live is None else live
    rows = design.attach_rows()[keep]
    g_src = 1 / design.source_values("output_resistance_ohm")[keep].astype(
        np.longdouble
    )
    rhs = -design.sinks.ravel().astype(np.longdouble)
    np.add.at(
        rhs, rows, g_src * design.source_values("voltage_v")[keep].astype(
            np.longdouble
        )
    )
    g64 = g_edge.astype(float)
    matrix = sp.coo_matrix(
        (
            np.r_[g64, g64, -g64, -g64, g_src.astype(float)],
            (np.r_[a, b, a, b, rows], np.r_[a, b, b, a, rows]),
        ),
        shape=(cells, cells),
    ).tocsc()
    lu = spla.splu(matrix)
    x = lu.solve(rhs.astype(float)).astype(np.longdouble)
    for _ in range(rounds):
        res = rhs.copy()
        flow = g_edge * (x[a] - x[b])
        np.subtract.at(res, a, flow)
        np.add.at(res, b, flow)
        np.subtract.at(res, rows, g_src * x[rows])
        x += lu.solve(res.astype(float))
    return x.astype(float).reshape(design.ny, design.nx)


def impedance_mp(
    design: MeshDesign, frequency_hz: float, dps: int = 40
) -> np.ndarray:
    """Self-impedance of every mesh node at ``frequency_hz``, solved at
    ``dps`` decimal digits: the diagonal of ``A(ω)⁻¹`` as a complex
    ``(cells,)`` array in row order (``iy·nx + ix``).

    ``A(ω)`` is the reduced node-only system: each lateral edge (mesh
    and ring bus) the admittance ``1/(r + jωl)``, each decapped node
    the shunt ``1/(ESR + jω·ESL + 1/(jωC))`` and each source's
    zeroed-EMF branch the shunt ``1/(r_out + jωL)`` at its attach node.
    Keep meshes small: the inverse is dense, O(cells³) in mpmath.
    """
    cells = design.nx * design.ny
    cap, esr, esl = design.decap_arrays()
    with mpmath.workdps(dps):
        jw = mpmath.mpc(0, 2) * mpmath.pi * mpmath.mpf(frequency_hz)
        matrix = _lateral_matrix(design, lambda ohm, henry: 1 / (ohm + jw * henry))
        for row in np.flatnonzero(cap > 0).tolist():
            matrix[row, row] += 1 / (
                mpmath.mpf(esr[row])
                + jw * mpmath.mpf(esl[row])
                + 1 / (jw * mpmath.mpf(cap[row]))
            )
        for source in design.sources:
            row = source.iy * design.nx + source.ix
            matrix[row, row] += 1 / (
                mpmath.mpf(source.output_resistance_ohm)
                + jw * mpmath.mpf(source.inductance_h)
            )
        inverse = mpmath.inverse(matrix)
        return np.array([complex(inverse[i, i]) for i in range(cells)])


def _lateral_matrix(design: MeshDesign, admittance) -> mpmath.matrix:
    """The ``cells × cells`` Laplacian of the design's lateral edges
    (mesh and ring bus, edge scales applied), each edge stamped with
    ``admittance(r, l)`` of its resistance and inductance as mpf."""
    cells = design.nx * design.ny
    matrix = mpmath.zeros(cells, cells)
    a, b, r, l = design.lateral_edges()
    for p, q, ohm, henry in zip(a.tolist(), b.tolist(), r.tolist(), l.tolist()):
        y = admittance(mpmath.mpf(ohm), mpmath.mpf(henry))
        matrix[p, p] += y
        matrix[q, q] += y
        matrix[p, q] -= y
        matrix[q, p] -= y
    return matrix
