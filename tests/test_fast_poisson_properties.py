"""Parity of the structured fast-Poisson engine against the LU oracle.

Every path through :class:`repro.pdn.fast_poisson.StructuredGridPDN`
— pure DCT/Woodbury solves, ring-bus and VR-branch corrections,
disabled-source scenarios, and the PCG mode for per-edge metal
variation — must reproduce the ``FactorizedPDN`` splu oracle to 1e-8
relative on every node voltage, across random meshes, anisotropic
edge resistances, and irregular sink maps.  The forced-fallback path
(``engine="auto"`` when CG stalls) must silently produce the oracle's
answer, and ``engine="structured"`` must surface the failure.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pdn.fast_poisson as fast_poisson
from repro.errors import ConfigError
from repro.pdn.fast_poisson import (
    FastPoissonOperator,
    StructuredGridPDN,
    StructuredSolveError,
    dct2_basis,
    poisson_mode_eigenvalues,
)
from repro.pdn.grid import STRUCTURED_AUTO_MIN_CELLS, GridPDN
from repro.pdn.pcg import PCGResult, pcg_solve

RTOL = 1e-8


# -- FastPoissonOperator ------------------------------------------------------------


def path_laplacian(n: int, boundary: str) -> np.ndarray:
    lap = 2.0 * np.eye(n)
    lap -= np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    if boundary == "neumann":
        lap[0, 0] = lap[-1, -1] = 1.0
    return lap


@pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_mode_eigenvalues_match_dense_spectrum(n, boundary):
    """The closed-form mode eigenvalues are the path Laplacian's."""
    if n == 1:
        # One node: no edges free-ended (L = 0), two grounded ends
        # otherwise (L = 2).
        lam_ref = np.array([0.0 if boundary == "neumann" else 2.0])
    else:
        lam_ref = np.sort(np.linalg.eigvalsh(path_laplacian(n, boundary)))
    lam = np.sort(poisson_mode_eigenvalues(n, boundary))
    assert np.allclose(lam, lam_ref, atol=1e-12)


def test_dct2_basis_diagonalizes_free_laplacian():
    """B L Bᵀ is diagonal with the neumann mode eigenvalues."""
    n = 7
    basis = dct2_basis(n)
    assert np.allclose(basis @ basis.T, np.eye(n), atol=1e-12)
    modal = basis @ path_laplacian(n, "neumann") @ basis.T
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
    matrix = gy * np.kron(
        path_laplacian(ny, "neumann"), np.eye(nx)
    ) + gx * np.kron(np.eye(ny), path_laplacian(nx, "neumann"))
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


# -- parity: per-edge variation (PCG mode) --------------------------------------------


@given(
    n=st.integers(min_value=3, max_value=8),
    sheet=st.floats(min_value=1e-3, max_value=1e-1),
    sources=st.lists(positions, min_size=1, max_size=4),
    spread=st.floats(min_value=0.05, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_pcg_variation_matches_oracle(n, sheet, sources, spread, seed):
    """Per-edge resistance variation solves through preconditioned CG
    and still lands on the oracle to 1e-8."""
    structured, oracle = build_pair(n, sheet, sources, 1e-3, 0.1, seed)
    rng = np.random.default_rng(seed + 1)
    sx = rng.uniform(1.0 - spread, 1.0 + 2 * spread, (n, n - 1))
    sy = rng.uniform(1.0 - spread, 1.0 + 2 * spread, (n - 1, n))
    structured.set_edge_resistance_scale(sx, sy)
    oracle.set_edge_resistance_scale(sx, sy)
    assert structured._ensure_structure().fast.mode == "pcg"
    assert_grid_parity(structured, oracle)


def test_edge_scale_validation():
    grid = GridPDN(1e-2, 1e-2, 1e-2, nx=4, ny=5)
    with pytest.raises(ConfigError):
        grid.set_edge_resistance_scale(np.ones((4, 4)), None)
    with pytest.raises(ConfigError):
        grid.set_edge_resistance_scale(None, np.zeros((4, 4)))


def test_edge_scale_changes_the_answer():
    """The scale maps actually reach the physics (both engines)."""
    for engine in ("structured", "factorized"):
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


def test_auto_engine_picks_by_mesh_size():
    small = GridPDN(1e-2, 1e-2, 1e-2, nx=4, ny=4)
    assert small._resolve_engine() == "factorized"
    side = int(np.ceil(np.sqrt(STRUCTURED_AUTO_MIN_CELLS)))
    large = GridPDN(1e-2, 1e-2, 1e-2, nx=side, ny=side)
    assert large._resolve_engine() == "structured"
    forced = GridPDN(1e-2, 1e-2, 1e-2, nx=4, ny=4, engine="structured")
    assert forced._resolve_engine() == "structured"


def _stalled_pcg(matvec, rhs, **kwargs) -> PCGResult:
    return PCGResult(
        x=np.zeros_like(np.asarray(rhs)),
        converged=False,
        iterations=0,
        residual_norm=1.0,
    )


def test_auto_falls_back_when_cg_stalls(monkeypatch):
    """A stalled CG under engine="auto" silently lands on the oracle."""
    monkeypatch.setattr(fast_poisson, "pcg_solve", _stalled_pcg)
    structured, oracle = build_pair(
        6, 1e-2, [(0.0, 0.0), (1.0, 1.0)], 1e-3, 0.1, 11
    )
    structured.engine = "auto"
    sx = np.full((6, 5), 1.5)
    structured.set_edge_resistance_scale(sx, None)
    oracle.set_edge_resistance_scale(sx, None)
    assert_grid_parity(structured, oracle)


def test_structured_engine_surfaces_cg_stall(monkeypatch):
    """engine="structured" raises instead of silently falling back."""
    monkeypatch.setattr(fast_poisson, "pcg_solve", _stalled_pcg)
    structured, _ = build_pair(
        6, 1e-2, [(0.0, 0.0), (1.0, 1.0)], 1e-3, 0.1, 11
    )
    structured.set_edge_resistance_scale(np.full((6, 5), 1.5), None)
    with pytest.raises(StructuredSolveError):
        structured.solve()


def test_real_pcg_converges_on_variation():
    """The real kernel (not the stub) converges well inside its cap."""
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((30, 30))
    matrix = matrix @ matrix.T + 30 * np.eye(30)
    rhs = rng.standard_normal((30, 2))
    result = pcg_solve(lambda v: matrix @ v, rhs, tol=1e-12)
    assert result.converged
    assert np.abs(matrix @ result.x - rhs).max() < 1e-9
