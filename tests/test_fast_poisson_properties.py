"""Parity of the structured fast-Poisson engine against the LU oracle.

Every path through :class:`repro.pdn.fast_poisson.StructuredGridPDN`
— pure DCT/Woodbury solves, ring-bus and VR-branch corrections and
disabled-source scenarios — must reproduce the ``FactorizedPDN`` splu
oracle to 1e-8 relative on every node voltage, across random meshes,
anisotropic edge resistances, and irregular sink maps.  A design with
per-edge metal variation runs on the LU under ``engine="auto"`` (held
to the netlist oracle and a 40-digit solve) and is refused by
``engine="structured"``.  The fallback path (``engine="auto"`` when
the structured solve raises) must silently produce the oracle's
answer, and ``engine="structured"`` must surface the failure.  The
Woodbury rank is one column per touched node, and the structured
solves also meet a 40-digit solve of the nodal system
(``ac_reference.solve_dc_mp``).
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DSCH, SystemSpec, single_stage_a1, single_stage_a2
from repro.core import current_sharing
from repro.errors import ConfigError
from repro.pdn.fast_poisson import (
    FastPoissonOperator,
    StructuredGridPDN,
    StructuredOperator,
    StructuredSolveError,
    dct2_basis,
    poisson_mode_eigenvalues,
)
from repro.pdn.grid import STRUCTURED_AUTO_MIN_CELLS, GridPDN
from repro.pdn.grid_transient import GridTransientPDN
from repro.pdn.mna import solve_dc
from repro.pdn.powermap import PowerMap

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ac_reference import solve_dc_ld, solve_dc_mp  # noqa: E402

RTOL = 1e-8


# -- FastPoissonOperator ------------------------------------------------------------


def path_laplacian(n: int) -> np.ndarray:
    """The free-ended (n ≥ 2)-node path Laplacian."""
    lap = 2.0 * np.eye(n)
    lap -= np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    lap[0, 0] = lap[-1, -1] = 1.0
    return lap


@pytest.mark.parametrize("n", [1, 2, 5, 9], ids=lambda n: f"{n}-neumann")
def test_mode_eigenvalues_match_dense_spectrum(n):
    """The closed-form mode eigenvalues are the free path Laplacian's."""
    if n == 1:
        lam_ref = np.array([0.0])  # one node, no edges: L = 0
    else:
        lam_ref = np.sort(np.linalg.eigvalsh(path_laplacian(n)))
    lam = np.sort(poisson_mode_eigenvalues(n))
    assert np.allclose(lam, lam_ref, atol=1e-12)


def test_dct2_basis_diagonalizes_free_laplacian():
    """B L Bᵀ is diagonal with the neumann mode eigenvalues."""
    n = 7
    basis = dct2_basis(n)
    assert np.allclose(basis @ basis.T, np.eye(n), atol=1e-12)
    modal = basis @ path_laplacian(n) @ basis.T
    assert np.allclose(
        np.diag(modal), poisson_mode_eigenvalues(n), atol=1e-12
    )
    assert np.abs(modal - np.diag(np.diag(modal))).max() < 1e-12


@given(
    nx=st.integers(min_value=2, max_value=7),
    ny=st.integers(min_value=2, max_value=7),
    gx=st.floats(min_value=0.1, max_value=50.0),
    gy=st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=25, deadline=None)
def test_operator_solves_deflated_kron_system(nx, ny, gx, gy):
    """op.solve inverts M = gx·(I⊗Lx) + gy·(Ly⊗I) + τ·u₀u₀ᵀ exactly."""
    op = FastPoissonOperator(nx, ny, gx, gy)
    cells = nx * ny
    matrix = gy * np.kron(path_laplacian(ny), np.eye(nx)) + gx * np.kron(
        np.eye(ny), path_laplacian(nx)
    )
    u0 = np.full(cells, 1.0 / np.sqrt(cells))
    matrix = matrix + op.deflation_tau * np.outer(u0, u0)
    rng = np.random.default_rng(nx * 31 + ny)
    rhs = rng.standard_normal((cells, 3))
    solved = op.solve(rhs)
    assert np.abs(matrix @ solved - rhs).max() < 1e-9 * max(
        1.0, np.abs(rhs).max()
    )
    one = op.solve(rhs[:, 0])
    assert one.shape == (cells,)
    assert np.allclose(one, solved[:, 0], atol=1e-12)


@pytest.mark.parametrize(
    "nx, ny", [(6, 6), (7, 4), (3, 10), (2, 2), (1, 9), (8, 1)],
    ids=["square", "wide", "tall", "2x2", "y-chain", "x-chain"],
)
@pytest.mark.parametrize("shift", [0.0, 2.5], ids=["deflated", "shifted"])
def test_green_rows_by_images_match_the_transform(nx, ny, shift):
    """``M⁻¹e_r`` by the method of images (one periodic Green's function
    of the mirror-doubled mesh, four images per row) equals the DCT-II
    pair of the unit fields ``e_r`` over the eigenvalues within 1e-14
    relative, for rows at corners, on edges, inside, and repeated."""
    import scipy.fft as sfft

    op = FastPoissonOperator(nx, ny, 1.7, 0.6, shift=shift)
    cells = nx * ny
    corners = [0, nx - 1, cells - nx, cells - 1]
    edges = [nx // 2, (ny // 2) * nx, (ny // 2) * nx + nx - 1]
    inside = [(ny // 2) * nx + nx // 2]
    rows = np.array(corners + edges + inside + [corners[-1], edges[0]])
    unit = np.zeros((rows.size, ny, nx))
    unit.reshape(rows.size, cells)[np.arange(rows.size), rows] = 1.0
    want = sfft.idctn(
        sfft.dctn(unit, type=2, axes=(1, 2), norm="ortho") / op.eigenvalues(),
        type=2, axes=(1, 2), norm="ortho",
    )
    got = op.green_rows(rows, np.empty((rows.size, ny, nx)), op.green())
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize(
    "nx, ny", [(8, 8), (7, 4), (3, 8), (1, 8), (6, 1)],
    ids=["square", "wide", "tall", "y-chain", "x-chain"],
)
@pytest.mark.parametrize("base", [0.0, 2.5], ids=["deflated", "shifted"])
def test_green_matches_a_dense_inverse(nx, ny, base):
    """Under a stack of complex diagonal shifts ``s``, :meth:`green`'s
    rows at every node and :meth:`green_diagonal` equal the dense
    inverse of ``L + τ·u₀u₀ᵀ + s·I`` (``L + base·I + s·I`` when
    shifted) within 1e-13 relative, and a stacked :meth:`green` is
    bit-identical to one call per shift."""
    gx, gy = (1.7 if nx > 1 else 0.0), (0.6 if ny > 1 else 0.0)
    op = FastPoissonOperator(nx, ny, gx, gy, shift=base)
    cells = nx * ny

    def lap(n: int) -> np.ndarray:
        return path_laplacian(n) if n > 1 else np.zeros((1, 1))

    matrix = gy * np.kron(lap(ny), np.eye(nx)) + gx * np.kron(
        np.eye(ny), lap(nx)
    ) + base * np.eye(cells)
    if op.deflation_tau is not None:
        matrix += op.deflation_tau / cells
    shifts = np.array([0.3 + 0.7j, -0.1 + 2.0j, 5.0 + 0.0j, 1e-3j])
    green = op.green(shifts)
    rows = op.green_rows(
        np.arange(cells), np.empty((shifts.size, cells, ny, nx), complex),
        green,
    )
    diagonal = op.green_diagonal(green)
    for f, s in enumerate(shifts):
        want = np.linalg.inv(matrix + s * np.eye(cells))
        scale = np.abs(want).max()
        assert np.abs(rows[f].reshape(cells, cells) - want).max() <= 1e-13 * scale
        assert np.abs(diagonal[f].ravel() - np.diag(want)).max() <= 1e-13 * scale
        assert np.array_equal(op.green(s), green[f])


def test_operator_accepts_complex_rhs():
    op = FastPoissonOperator(5, 4, 2.0, 3.0)
    rhs = np.random.default_rng(0).standard_normal(20) + 1j
    solved = op.solve(rhs)
    assert np.iscomplexobj(solved)
    assert np.allclose(
        solved, op.solve(rhs.real) + 1j * op.solve(rhs.imag), atol=1e-12
    )


# -- parity helpers ------------------------------------------------------------------


def build_pair(
    n: int,
    sheet: float,
    sources,
    r_out: float,
    sink_scale: float,
    seed: int,
    ny: int | None = None,
    height: float = 1e-2,
    ring_ohm: float | None = None,
) -> tuple[GridPDN, GridPDN]:
    """The same grid twice: structured engine and factorized oracle."""
    pair = []
    for engine in ("structured", "factorized"):
        grid = GridPDN(
            1e-2, height, sheet, nx=n, ny=ny or n, engine=engine
        )
        rng = np.random.default_rng(seed)
        sinks = sink_scale * rng.random((ny or n, n))
        # Irregular sinks: a random subset of cells draws nothing.
        sinks[rng.random((ny or n, n)) < 0.3] = 0.0
        grid.set_sink_array(sinks)
        for k, (x, y) in enumerate(sources):
            grid.add_source(f"s{k}", x, y, 1.0, r_out)
        if ring_ohm is not None and len(sources) >= 3:
            grid.connect_sources_with_ring_bus(ring_ohm)
        pair.append(grid)
    return pair[0], pair[1]


def assert_grid_parity(structured: GridPDN, oracle: GridPDN, **kwargs):
    fast = (
        structured.solve_disabled(kwargs["disabled"])
        if "disabled" in kwargs
        else structured.solve()
    )
    ref = (
        oracle.solve_disabled(kwargs["disabled"])
        if "disabled" in kwargs
        else oracle.solve()
    )
    scale = max(float(np.abs(ref.voltage_map).max()), 1e-12)
    assert np.abs(fast.voltage_map - ref.voltage_map).max() <= RTOL * scale
    i_scale = max(float(np.abs(ref.source_currents_a).max()), 1e-12)
    assert (
        np.abs(fast.source_currents_a - ref.source_currents_a).max()
        <= 1e-6 * i_scale
    )


positions = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


# -- parity: uniform meshes -----------------------------------------------------------


@given(
    n=st.integers(min_value=3, max_value=8),
    ny=st.integers(min_value=3, max_value=8),
    sheet=st.floats(min_value=1e-4, max_value=1e-1),
    height=st.floats(min_value=4e-3, max_value=3e-2),
    sources=st.lists(positions, min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_structured_matches_oracle_on_uniform_meshes(
    n, ny, sheet, height, sources, seed
):
    """DCT/Woodbury solves equal splu solves on anisotropic meshes
    (rectangular dies make rx != ry) with irregular sinks."""
    structured, oracle = build_pair(
        n, sheet, sources, 1e-3, 0.1, seed, ny=ny, height=height
    )
    assert_grid_parity(structured, oracle)


@given(
    n=st.integers(min_value=4, max_value=8),
    sheet=st.floats(min_value=1e-4, max_value=1e-1),
    sources=st.lists(positions, min_size=3, max_size=6, unique=True),
    ring_ohm=st.floats(min_value=1e-4, max_value=1e-1),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_structured_matches_oracle_with_ring_bus_and_failures(
    n, sheet, sources, ring_ohm, seed, data
):
    """Ring-bus segments and disabled VRs ride the same correction."""
    structured, oracle = build_pair(
        n, sheet, sources, 1e-3, 0.1, seed, ring_ohm=ring_ohm
    )
    assert_grid_parity(structured, oracle)
    disabled = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(sources) - 1),
            min_size=1,
            max_size=len(sources) - 1,
            unique=True,
        )
    )
    assert_grid_parity(structured, oracle, disabled=disabled)


@given(
    n=st.integers(min_value=3, max_value=7),
    sources=st.lists(positions, min_size=2, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_batched_paths_match_oracle(n, sources, seed):
    """solve_many and solve_disabled_many equal per-scenario solves."""
    structured, oracle = build_pair(n, 1e-2, sources, 1e-3, 0.1, seed)
    rng = np.random.default_rng(seed)
    maps = rng.random((3, n, n))
    for fast, ref in zip(
        structured.solve_many(maps), oracle.solve_many(maps)
    ):
        scale = max(float(np.abs(ref.voltage_map).max()), 1e-12)
        assert (
            np.abs(fast.voltage_map - ref.voltage_map).max()
            <= RTOL * scale
        )
    scenarios = [(k,) for k in range(min(len(sources), 2))]
    for fast, ref in zip(
        structured.solve_disabled_many(scenarios),
        oracle.solve_disabled_many(scenarios),
    ):
        scale = max(float(np.abs(ref.voltage_map).max()), 1e-12)
        assert (
            np.abs(fast.voltage_map - ref.voltage_map).max()
            <= RTOL * scale
        )


def test_failure_sweep_is_one_reduced_solve(monkeypatch):
    """A whole N−k sweep on a uniform mesh is one batched reduced
    solve: one right-hand-side row per scenario, one call."""
    structured, _ = build_pair(
        6, 1e-2, [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5)], 1e-3, 0.1, 3
    )
    engine = structured._ensure_structure().fast
    solve_reduced = engine.solve_reduced
    rows = []

    def counted(b, *args):
        rows.append(len(b))
        return solve_reduced(b, *args)

    monkeypatch.setattr(engine, "solve_reduced", counted)
    structured.solve_disabled_many([(), (0,), (1, 2)])
    assert rows == [3]


# -- Woodbury rank per touched node ---------------------------------------------------


def signoff_bank(arch, n: int, engine: str = "structured") -> GridPDN:
    """A 48-VR bank of the DC signoff on an ``n``×``n`` die mesh: the
    periphery bank on its ring bus (A1) or the under-die array (A2)."""
    grid = current_sharing._die_grid_with_bank(
        arch(), DSCH, SystemSpec(), PowerMap.hotspot_mixture(), n, 1.0,
        0.15e-3,
    )[0]
    return GridPDN.from_design(grid.design, engine=engine)


@pytest.mark.parametrize("arch", [single_stage_a1, single_stage_a2])
def test_rank_is_one_plus_touched_nodes_on_signoff_banks(arch):
    """48 VRs on 48 nodes at 128²: k = 1 + 48 on both banks.  The A1
    ring's segments join attach nodes, so they add no column (they
    added 48)."""
    design = signoff_bank(arch, 128).design
    assert np.unique(design.attach_rows()).size == 48
    assert StructuredGridPDN(design).op.rank == 49


def dense_operator(nx, ny, gx, gy, g_node, attach, g_src, ring, g_ring):
    """``A`` of :class:`StructuredOperator` as a dense matrix."""
    a = gx * np.kron(np.eye(ny), path_laplacian(nx))
    a += gy * np.kron(path_laplacian(ny), np.eye(nx))
    a += np.diag(g_node)
    np.add.at(a, (attach, attach), g_src)
    for (p, q), g in zip(ring, g_ring):
        a[[p, q], [p, q]] += g
        a[p, q] -= g
        a[q, p] -= g
    return a


@pytest.mark.parametrize("shift", [0.0, 3.0])
def test_rank_counts_shared_nodes_once(shift):
    """Co-located sources share one column, and so does a shunt
    deviation on an attach node: four sources on three nodes plus a
    deviation on one of them and one elsewhere touch four nodes.  The
    operator still inverts the dense ``A``, with sources live and dead
    (a dead source on the shared node leaves it the other source; on
    the lone node, only ring edges)."""
    nx, ny, gx, gy = 5, 4, 2.0, 3.0
    attach = np.array([0, 0, 7, 19])
    g_src = np.array([40.0, 25.0, 60.0, 30.0])
    ring = [(0, 7), (7, 19), (19, 0)]
    g_ring = np.array([5.0, 6.0, 7.0])
    g_node = np.full(nx * ny, shift)
    g_node[[7, 12]] = shift + np.array([1.5, 0.5])
    op = StructuredOperator(
        nx, ny, gx, gy, g_node, attach, g_src,
        np.array([p for p, _ in ring]), np.array([q for _, q in ring]),
        g_ring,
    )
    assert op.rank == (1 if shift == 0.0 else 0) + 4
    live = np.array(
        [[True] * 4, [False, True, True, True], [True, True, False, True],
         [False, False, True, True]]
    )
    b = np.random.default_rng(3).standard_normal((len(live), nx * ny))
    x = op.solve(b, live)
    for row, mask in enumerate(live):
        a = dense_operator(
            nx, ny, gx, gy, g_node, attach, g_src * mask, ring, g_ring
        )
        np.testing.assert_allclose(
            x[row], np.linalg.solve(a, b[row]), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("arch", [single_stage_a1, single_stage_a2])
def test_nk_on_signoff_banks_matches_refactor(arch):
    """Structured N−k on both 48-VR banks against the refactorized
    nodal LU: 1e-9 V on the maps, 1e-7 relative on source currents.
    Every A1 attach node sits on the ring, so a dead VR leaves its
    node only ring edges in C_T; on A2 (no ring) it leaves a zero
    diagonal entry."""
    scenarios = [(0,), (3, 17), (5, 6, 40), (47,)]
    structured = signoff_bank(arch, 24)
    oracle = signoff_bank(arch, 24, engine="factorized")
    for fast, ref in zip(
        structured.solve_disabled_many(scenarios),
        oracle.solve_disabled_many(scenarios, method="refactor"),
    ):
        assert np.abs(fast.voltage_map - ref.voltage_map).max() <= 1e-9
        scale = float(np.abs(ref.source_currents_a).max())
        assert (
            np.abs(fast.source_currents_a - ref.source_currents_a).max()
            <= 1e-7 * scale
        )


def test_transient_decap_deviation_on_an_attach_node():
    """A companion stamp whose decap deviates on an attach node (and
    on one bare node) counts that node once and steps like the
    factorized engine."""
    n = 8
    pdn = GridTransientPDN(1e-2, 1e-2, 1e-2, nx=n, ny=n, engine="structured")
    pdn.add_source("s0", 0.0, 0.0, 1.0, 1e-3, inductance_h=5e-12)
    pdn.add_source("s1", 1.0, 1.0, 1.0, 1e-3, inductance_h=5e-12)
    cap = np.full((n, n), 1e-7)
    cap[0, 0] = 3e-7  # s0's attach node
    cap[4, 3] = 0.0  # a bare node
    pdn.set_decap_map(cap, 2e-3, 1e-12)
    pdn.set_sink_array(np.full((n, n), 0.1))
    assert pdn._structure(2e-10).fast.rank == 3  # s0 + s1 + the bare node
    fast = pdn.simulate_step(0.5, 5.0, duration_s=4e-9, dt_s=2e-10)
    pdn.engine = "factorized"
    oracle = pdn.simulate_step(0.5, 5.0, duration_s=4e-9, dt_s=2e-10)
    assert (fast.engine, oracle.engine) == ("structured", "factorized")
    for name in ("v_pre_map", "v_min_map", "v_final_map"):
        gap = np.abs(getattr(fast, name) - getattr(oracle, name)).max()
        assert gap <= 1e-9, name


def test_structured_dc_meets_a_40_digit_solve():
    """4×4 mesh, ring bus, two sources on one node: the structured
    solve() and N−k batch land within 1e-9 V of a 40-digit solve of the
    nodal system, dead sources on the shared node included (measured
    1.1e-16 V with one Woodbury apply per solve, as with the former
    refinement round)."""
    grid = GridPDN(1e-2, 1e-2, 1e-2, nx=4, ny=4, engine="structured")
    grid.set_sink_array(
        np.random.default_rng(4).uniform(0.0, 2.0, (4, 4))
    )
    for k, (x, y, r_out) in enumerate(
        [(0.0, 0.0, 1e-3), (0.0, 0.0, 2e-3), (1.0, 0.0, 1.5e-3),
         (1.0, 1.0, 1e-3), (0.0, 1.0, 3e-3)]
    ):
        grid.add_source(f"s{k}", x, y, 1.0 - 0.01 * k, r_out)
    grid.connect_sources_with_ring_bus(2e-3)
    assert grid._ensure_structure().fast.op.rank == 1 + 4
    scenarios = [(0,), (1,), (0, 1), (2, 4), (0, 3)]
    solutions = [grid.solve()] + grid.solve_disabled_many(scenarios)
    masks = [None] + [grid._live_sources(s) for s in scenarios]
    for solution, live in zip(solutions, masks):
        exact = solve_dc_mp(grid.design, live)
        assert np.abs(solution.voltage_map - exact).max() <= 1e-9


def with_setpoints(design, seed: int):
    """``design`` with unequal source setpoints, U(0.98, 1.05) V."""
    volts = np.random.default_rng(seed).uniform(0.98, 1.05, len(design.sources))
    return replace(
        design,
        sources=tuple(
            replace(source, voltage_v=float(v))
            for source, v in zip(design.sources, volts)
        ),
    )


def relative_gap(solution, exact) -> float:
    return float(np.abs(solution.voltage_map - exact).max() / np.abs(exact).max())


@pytest.mark.parametrize("arch", [single_stage_a1, single_stage_a2])
def test_signoff_banks_meet_an_extended_precision_solve(arch):
    """The 48-VR banks at 24² with unequal setpoints: structured
    solve_many and an N−2 solve_disabled_many land within 1e-13
    relative of the long-double-refined nodal solve (measured ≤3.3e-16
    with one Woodbury apply per solve)."""
    grid = signoff_bank(arch, 24)
    grid.design = with_setpoints(grid.design, 24)
    design = grid.design
    rng = np.random.default_rng(7)
    maps = [design.sinks, 0.5 * design.sinks, rng.uniform(0.0, 2.0, (24, 24))]
    for solution, sinks in zip(grid.solve_many(maps), maps):
        exact = solve_dc_ld(design.with_sinks(sinks))
        assert relative_gap(solution, exact) <= 1e-13
    scenarios = [(0, 1), (5, 17), (23, 24), (40, 47)]
    for solution, scenario in zip(
        grid.solve_disabled_many(scenarios), scenarios
    ):
        exact = solve_dc_ld(design, grid._live_sources(scenario))
        assert relative_gap(solution, exact) <= 1e-13


def count_transform_pairs(monkeypatch) -> dict:
    """Count :meth:`StructuredOperator.solve` calls and the transform
    pairs (:meth:`FastPoissonOperator.solve_rows`) they run."""
    calls = {"solve": 0, "solve_rows": 0}
    for cls, name in (
        (StructuredOperator, "solve"), (FastPoissonOperator, "solve_rows")
    ):
        original = getattr(cls, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def test_deflated_dc_solve_is_one_transform_pair(monkeypatch):
    """A structured DC solve and an N−k batch (a live mask) each run
    one transform pair: no refinement round."""
    grid = signoff_bank(single_stage_a1, 16)
    grid._ensure_structure().fast  # setup transforms are not counted
    calls = count_transform_pairs(monkeypatch)
    grid.solve()
    grid.solve_disabled_many([(0,), (3, 17)])
    assert calls == {"solve": 2, "solve_rows": 2}


def test_deflated_transient_solve_is_one_transform_pair(monkeypatch):
    """Decap on a few nodes leaves the companion operator deflated with
    shunt deviations: each of its solves, and each DC-init solve, runs
    one transform pair (``test_rank_counts_shared_nodes_once`` holds
    such an operator to the dense system)."""
    n = 8
    pdn = GridTransientPDN(1e-2, 1e-2, 1e-2, nx=n, ny=n, engine="structured")
    pdn.add_source("s0", 0.0, 0.0, 1.0, 1e-3, inductance_h=5e-12)
    pdn.add_source("s1", 1.0, 0.5, 1.02, 2e-3, inductance_h=5e-12)
    cap = np.zeros((n, n))
    cap[[1, 4, 6], [2, 5, 0]] = [1e-7, 2e-7, 3e-7]
    pdn.set_decap_map(cap, 2e-3, 1e-12)
    pdn.set_sink_array(np.full((n, n), 0.1))
    op = pdn._structure(2e-10).fast
    assert op.deflated and op.rank == 1 + 3 + 2
    calls = count_transform_pairs(monkeypatch)
    result = pdn.simulate_step(0.5, 5.0, duration_s=2e-9, dt_s=2e-10)
    assert result.engine == "structured"
    assert calls["solve"] > 0 and calls["solve_rows"] == calls["solve"]


def count_transform_rows(monkeypatch) -> list[int]:
    """The row count of every :meth:`FastPoissonOperator.solve_rows`
    call: the right-hand sides that pass through a transform pair."""
    rows = []
    solve_rows = FastPoissonOperator.solve_rows

    def counted(self, rhs):
        rows.append(len(rhs))
        return solve_rows(self, rhs)

    monkeypatch.setattr(FastPoissonOperator, "solve_rows", counted)
    return rows


def test_failure_sweep_takes_one_transform_row(monkeypatch):
    """The scenarios of an N−k sweep share one sink map, and each row
    is shifted by the all-live reference, so the whole sweep passes
    one right-hand side through the transforms (it passed one per
    scenario); ``solve_many`` of distinct maps still passes one per
    map."""
    grid = signoff_bank(single_stage_a1, 16)
    grid._ensure_structure().fast  # setup transforms are not counted
    rows = count_transform_rows(monkeypatch)
    grid.solve_disabled_many([(0,), (3, 17), (5, 6, 40)])
    grid.solve_disabled_many([(), (1, 2)])
    maps = np.random.default_rng(3).uniform(0.0, 2.0, (4, 16, 16))
    grid.solve_many(maps)
    assert rows == [1, 1, 4]


def test_shared_rows_meet_the_dense_system():
    """Rows equal off the touched nodes but not on them (Norton
    injections) share one transform pair, and each, with its own live
    mask, still lands on its own dense system; a floating row among
    them raises."""
    nx, ny, gx, gy = 5, 4, 2.0, 3.0
    attach = np.array([0, 0, 7, 19])
    g_src = np.array([40.0, 25.0, 60.0, 30.0])
    ring = [(0, 7), (7, 19), (19, 0)]
    g_ring = np.array([5.0, 6.0, 7.0])
    g_node = np.zeros(nx * ny)
    op = StructuredOperator(
        nx, ny, gx, gy, g_node, attach, g_src,
        np.array([p for p, _ in ring]), np.array([q for _, q in ring]),
        g_ring,
    )
    live = np.array(
        [[True] * 4, [False, True, True, True], [True, True, False, True],
         [False, False, True, True]]
    )
    rng = np.random.default_rng(5)
    b = np.tile(-rng.uniform(0.0, 1.0, nx * ny), (len(live), 1))
    np.add.at(
        b, (slice(None), attach), live * g_src * rng.uniform(0.9, 1.1, 4)
    )
    x = op.solve(b, live)
    for row, mask in enumerate(live):
        a = dense_operator(
            nx, ny, gx, gy, g_node, attach, g_src * mask, ring, g_ring
        )
        np.testing.assert_allclose(
            x[row], np.linalg.solve(a, b[row]), rtol=0, atol=1e-12
        )
    floating = np.vstack([live, [[False] * 4]])
    with pytest.raises(StructuredSolveError, match="no live shunt"):
        op.solve(np.vstack([b, b[:1]]), floating)


@pytest.mark.parametrize("n", [24, 64])
@pytest.mark.parametrize("arch", [single_stage_a1, single_stage_a2])
def test_nk_sweeps_on_signoff_banks_meet_an_extended_precision_solve(arch, n):
    """N−2 sweeps on the 48-VR banks (A1 on its ring, A2 under the die)
    with unequal setpoints land within 1e-13 relative of the
    long-double-refined nodal solve, each scenario shifted by the
    all-live reference and the sweep through one transform pair."""
    grid = signoff_bank(arch, n)
    grid.design = with_setpoints(grid.design, n)
    scenarios = [(0, 1), (5, 17), (23, 24), (40, 47), (11, 36)]
    for solution, scenario in zip(
        grid.solve_disabled_many(scenarios), scenarios
    ):
        exact = solve_dc_ld(grid.design, grid._live_sources(scenario))
        assert relative_gap(solution, exact) <= 1e-13


def stiff_grid(nx: int, ny: int, ring_ohm: float, seed: int) -> GridPDN:
    """The stiff family: 1 µΩ sources on a 0.1 Ω/sq mesh (~10⁵ times
    the edge conductance), unequal setpoints, two co-located pairs and
    a ring bus."""
    rng = np.random.default_rng(seed)
    grid = GridPDN(1e-2, 1e-2, 0.1, nx=nx, ny=ny, engine="structured")
    grid.set_sink_array(rng.uniform(0.0, 1.0, (ny, nx)))
    spots = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
             (0.5, 0.5), (0.5, 0.5)]
    for k, (x, y) in enumerate(spots):
        grid.add_source(f"s{k}", x, y, float(rng.uniform(0.98, 1.05)), 1e-6)
    grid.connect_sources_with_ring_bus(ring_ohm)
    return grid


@pytest.mark.parametrize("ring_ohm", [1e-6, 1e-3, 1.0])
@pytest.mark.parametrize("nx, ny", [(4, 4), (12, 12), (16, 9), (32, 20)])
def test_stiff_family_meets_an_extended_precision_solve(nx, ny, ring_ohm):
    """The worst case documented: on the stiff family one Woodbury
    apply per solve holds 1e-12 relative to the long-double-refined
    solve (measured ≤4.8e-14), all sources live or some dead, a dead
    co-located pair and ring-only nodes included.  On these shapes,
    shifting only the net current, with every Norton injection through
    the transforms, read up to 1.5e-11; building a scenario's ``S`` by
    subtracting its dead sources' ``g_src``, not by adding its live
    ones', read up to 2.7e-8."""
    grid = stiff_grid(nx, ny, ring_ohm, nx + ny)
    scenarios = [(), (0,), (2, 3), (0, 1, 4)]
    for solution, scenario in zip(
        grid.solve_disabled_many(scenarios), scenarios
    ):
        exact = solve_dc_ld(grid.design, grid._live_sources(scenario))
        assert relative_gap(solution, exact) <= 1e-12


def test_floating_row_raises_without_warning():
    """A right-hand side whose every source is dead floats (no shunt to
    ground): the deflated solve raises, before dividing by zero."""
    op = StructuredOperator(
        4, 3, 2.0, 3.0, np.zeros(12), np.array([0, 11]),
        np.array([50.0, 60.0]), np.array([0]), np.array([11]),
        np.array([5.0]),
    )
    live = np.array([[True, False], [False, False]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuredSolveError, match="no live shunt"):
            op.solve(np.ones((2, 12)), live)


# -- per-edge variation: the nodal LU ------------------------------------------------


@given(
    n=st.integers(min_value=3, max_value=8),
    sheet=st.floats(min_value=1e-3, max_value=1e-1),
    sources=st.lists(positions, min_size=1, max_size=4),
    spread=st.floats(min_value=0.05, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_edge_scaled_auto_matches_netlist_oracle(n, sheet, sources, spread, seed):
    """Per-edge resistance variation routes ``auto`` to the nodal LU,
    which lands on the per-element netlist solve to 1e-8 and, on
    meshes of 4×4 or smaller, on a 40-digit solve too."""
    _, grid = build_pair(n, sheet, sources, 1e-3, 0.1, seed)
    grid.engine = "auto"
    rng = np.random.default_rng(seed + 1)
    sx = rng.uniform(1.0 - spread, 1.0 + 2 * spread, (n, n - 1))
    sy = rng.uniform(1.0 - spread, 1.0 + 2 * spread, (n - 1, n))
    grid.set_edge_resistance_scale(sx, sy)
    assert grid._resolve_engine() == "factorized"
    got = grid.solve().voltage_map
    oracle = solve_dc(grid.build_netlist()).node_voltages
    ref = np.array(
        [[oracle[("g", ix, iy)] for ix in range(n)] for iy in range(n)]
    )
    scale = max(float(np.abs(ref).max()), 1e-12)
    assert np.abs(got - ref).max() <= RTOL * scale
    if n <= 4:
        exact = solve_dc_mp(grid.design)
        assert np.abs(got - exact).max() <= RTOL * scale


def test_edge_scaled_designs_route_to_the_lu_at_any_size():
    """``auto`` sends an edge-scaled design to the LU at every size,
    and ``engine="structured"`` refuses it, naming the edge scales."""
    side = int(np.ceil(np.sqrt(STRUCTURED_AUTO_MIN_CELLS)))
    for n in (4, side):
        grid = GridPDN(1e-2, 1e-2, 1e-2, nx=n, ny=n)
        grid.add_source("s", 0.0, 0.0, 1.0, 1e-3)
        grid.set_sink_array(np.full((n, n), 1e-3))
        grid.set_edge_resistance_scale(None, np.full((n - 1, n), 1.2))
        assert grid._resolve_engine() == "factorized"
        grid.engine = "structured"
        with pytest.raises(ConfigError, match="edge_scale_x/edge_scale_y"):
            grid.solve()


def test_edge_scale_validation():
    grid = GridPDN(1e-2, 1e-2, 1e-2, nx=4, ny=5)
    with pytest.raises(ConfigError):
        grid.set_edge_resistance_scale(np.ones((4, 4)), None)
    with pytest.raises(ConfigError):
        grid.set_edge_resistance_scale(None, np.zeros((4, 4)))


def test_edge_scale_changes_the_answer():
    """The scale maps actually reach the physics (on the LU, where
    ``auto`` sends them)."""
    for engine in ("auto", "factorized"):
        grid = GridPDN(1e-2, 1e-2, 1e-2, nx=5, ny=5, engine=engine)
        grid.set_sink_array(np.full((5, 5), 0.1))
        grid.add_source("s", 0.0, 0.0, 1.0, 1e-3)
        base = grid.solve().worst_droop_v
        grid.set_edge_resistance_scale(
            np.full((5, 4), 4.0), np.full((4, 5), 4.0)
        )
        scaled = grid.solve().worst_droop_v
        assert scaled > 2.0 * base


# -- engine selection and fallback ----------------------------------------------------


def test_engine_argument_validated():
    with pytest.raises(ConfigError):
        GridPDN(1e-2, 1e-2, 1e-2, nx=4, ny=4, engine="magic")


@pytest.mark.parametrize("view", [GridPDN, GridTransientPDN])
def test_engine_assignment_validated(view):
    """A misspelled engine assigned after construction raises, naming
    it, and leaves the view's engine as it was."""
    pdn = view(1e-2, 1e-2, 1e-2, nx=4, ny=4)
    with pytest.raises(ConfigError, match="'structred'"):
        pdn.engine = "structred"
    assert pdn.engine == "auto"
    pdn.engine = "factorized"
    assert pdn.engine == "factorized"


def test_auto_engine_picks_by_mesh_size():
    small = GridPDN(1e-2, 1e-2, 1e-2, nx=4, ny=4)
    assert small._resolve_engine() == "factorized"
    side = int(np.ceil(np.sqrt(STRUCTURED_AUTO_MIN_CELLS)))
    large = GridPDN(1e-2, 1e-2, 1e-2, nx=side, ny=side)
    assert large._resolve_engine() == "structured"
    forced = GridPDN(1e-2, 1e-2, 1e-2, nx=4, ny=4, engine="structured")
    assert forced._resolve_engine() == "structured"


def _failing_solve(self, b, live=None):
    raise StructuredSolveError("structured correction is singular")


def test_auto_falls_back_on_structured_error(monkeypatch):
    """A StructuredSolveError under engine="auto" silently lands on
    the LU's answer."""
    structured, oracle = build_pair(
        64, 1e-2, [(0.0, 0.0), (1.0, 1.0)], 1e-3, 0.1, 11
    )
    structured.engine = "auto"
    assert structured._resolve_engine() == "structured"
    monkeypatch.setattr(StructuredOperator, "solve", _failing_solve)
    fast, ref = structured.solve(), oracle.solve()
    np.testing.assert_array_equal(fast.voltage_map, ref.voltage_map)
    np.testing.assert_array_equal(fast.source_currents_a, ref.source_currents_a)


def test_structured_engine_surfaces_structured_error(monkeypatch):
    """engine="structured" raises instead of silently falling back."""
    structured, _ = build_pair(
        6, 1e-2, [(0.0, 0.0), (1.0, 1.0)], 1e-3, 0.1, 11
    )
    monkeypatch.setattr(StructuredOperator, "solve", _failing_solve)
    with pytest.raises(StructuredSolveError):
        structured.solve()
