"""Substrate benchmark: sparse MNA grid-solve scaling.

Not a paper artifact — times the PDN solver across grid resolutions so
regressions in the numerical core are visible, plus the hot-path
shapes the system-level sweeps rely on:

* ``test_grid_solve_scaling`` — cold solves (assembly + factorization
  + back-substitution) at increasing mesh resolution, each round after
  an untimed ``process_cache().clear()``,
* ``test_repeated_solve_cached_factorization`` — fixed topology,
  varying sink map: the cached-factorization path used by N−1 fault
  sweeps and Monte-Carlo load scenarios,
* ``test_batched_rhs_solve_many`` — one factorization amortized over a
  stack of RHS columns via ``FactorizedPDN.solve_many``,
* ``test_ac_sweep_scalar`` / ``test_ac_sweep_compiled`` — a 200-point
  impedance sweep through the per-frequency scalar oracle vs the
  compiled stamp-structure engine (``ACNetlist.compile_ac``),
* ``test_n1_sweep_refactorize`` / ``test_n1_sweep_woodbury`` — a
  12-scenario N−1 fault sweep with per-scenario refactorization vs
  the Woodbury-corrected shared factorization,
* ``test_nk_sweep_batched`` — the same sweep with every scenario's
  influence/RHS/refinement solves stacked through
  ``solve_modified_many`` (three batched back-substitutions total),
* ``test_nk_sweep_structured`` — 12 N−2 scenarios on the paper's
  48-VR A1 ring bank at 128² through the warm structured engine: one
  transform pair for the whole sweep,
* ``test_grid_ac_impedance_map`` — the grid-level AC engine: die-seen
  per-node Z(f) over a 200-point sweep at mesh sizes 8/16/24
  (``GridACPDN.impedance_map``, compile once / revalue per frequency),
  and ``..._many_vr`` — the same sweep under a 48-VR ring-bus bank at
  12/24, where ``auto`` routes the uniform density to selinv at 12 and
  to structured at 24,
* ``test_grid_solve_structured`` / ``test_grid_solve_factorized_large``
  / ``test_grid_solve_structured_warm`` — the fast-Poisson DC engine
  at 128/192/256 meshes against the sparse-LU path, plus the 256×256
  warm hot loop (<50 ms target),
* ``test_structured_setup`` — the structured DC engine's setup
  (``StructuredGridPDN(design)``) on the paper's 48-VR banks at 128²,
  cold by construction: structured operators are never process-cached,
* ``test_grid_ac_impedance_map_spectral`` / ``..._structured`` — the
  modal AC engines head to head at 16/32/96 meshes,
* ``test_grid_ac_impedance_map_selinv`` — the general exact engine
  (block-tridiagonal selected inversion) on a non-uniform density at
  16/32 meshes, and ``..._selinv_map`` on 48×48 map-form decap over
  inductive metal, the sweep that took ~2 min on the sparse-LU path;
  each records its frequency chunk and the traced peak,
* ``test_grid_ac_driven_sweep`` / ``test_grid_ac_impedance_columns``
  — the driven phasor sweep (41 points) and the adjoint columns (8
  probe nodes at one frequency) on the paper's 48-VR A2 array with a
  non-uniform density at 16/48 meshes: the two selinv paths that carry
  right-hand sides,
* ``test_placement_opt`` — a capped decap placement-optimizer run
  (greedy moves + one adjoint gradient step) at 16/32 meshes, pinning
  the O(one batched solve) per-iteration cost,
* ``test_grid_transient`` / ``test_grid_transient_refactorize`` —
  warm factor-once droop stepping at 16/32/64 meshes vs the cold
  per-trace-refactorization baseline,
* ``test_grid_transient_batched`` / ``test_grid_transient_sequential``
  — a 16-trace load-step ensemble through one batched step loop vs 16
  single-trace runs,
* ``test_grid_transient_cold_ensemble`` — a transient_droop-shaped
  point at 32/48 meshes: an emptied process cache, a fresh ``auto``
  view of the paper's VR bank and 8 traces of 201 samples; records
  the engine ``auto`` picked and the traced peak.

Rows marked ``large_mesh`` take hundreds of milliseconds each; skip
them with ``run_benchmarks.py --skip-large`` (or ``-m "not
large_mesh"``) when iterating.

Run ``python benchmarks/run_benchmarks.py`` to record the results in
``BENCH_solver.json``; ``--check`` compares a fresh run against that
baseline and fails on >2x regressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.cache import process_cache
from repro.pdn.ac import ACNetlist, probe_netlist, solve_ac
from repro.pdn.grid import GridACPDN, GridPDN
from repro.pdn.mna import FactorizedPDN
from repro.pdn.powermap import PowerMap


def make_grid(n: int, engine: str = "auto") -> GridPDN:
    grid = GridPDN(0.0224, 0.0224, 0.62e-3, nx=n, ny=n, engine=engine)
    grid.set_sinks(PowerMap.hotspot_mixture(), 1000.0)
    for k in range(8):
        t = k / 8.0
        grid.add_source(f"s{k}", t, 0.0 if k % 2 else 1.0, 1.0, 1e-3)
    return grid


def solve_grid(n: int, engine: str = "auto") -> float:
    return make_grid(n, engine).solve().lateral_loss_w


def cold_solve(benchmark, n: int, engine: str, rounds: int) -> float:
    """``solve_grid`` timed cold: a fresh view each round and, untimed
    before it, an emptied process cache, so the factorized engine
    factors afresh as the structured one builds its operator."""
    return benchmark.pedantic(
        solve_grid,
        args=(n, engine),
        setup=process_cache().clear,
        rounds=rounds,
        warmup_rounds=1,
    )


@pytest.mark.parametrize("n", [16, 32, 48, 64, 96])
def test_grid_solve_scaling(benchmark, n):
    loss = cold_solve(benchmark, n, "auto", rounds=20)
    assert loss > 0


# -- structured large-mesh DC solves ------------------------------------------


@pytest.mark.parametrize(
    "n",
    [
        128,
        pytest.param(192, marks=pytest.mark.large_mesh),
        pytest.param(256, marks=pytest.mark.large_mesh),
    ],
)
def test_grid_solve_structured(benchmark, n):
    """Cold solves through the fast-Poisson engine at signoff meshes."""
    loss = benchmark(solve_grid, n, "structured")
    assert loss > 0


@pytest.mark.large_mesh
@pytest.mark.parametrize("n", [128, 256])
def test_grid_solve_factorized_large(benchmark, n):
    """The sparse-LU engine on the same meshes, cold like the
    structured rows — the old-path rows the structured speedup is
    measured against."""
    loss = cold_solve(benchmark, n, "factorized", rounds=5)
    assert loss > 0


@pytest.mark.large_mesh
def test_grid_solve_structured_warm(benchmark):
    """256×256 varying-sink solves on a cached structured operator:
    the interactive signoff hot loop (<50 ms target)."""
    n = 256
    grid = make_grid(n, engine="structured")
    base = PowerMap.hotspot_mixture().cell_currents(n, n, 1000.0)
    grid.solve()  # warm the DCT structure
    step = {"i": 0}

    def rescale_and_solve() -> float:
        step["i"] += 1
        grid.set_sink_array(base * (0.5 + (step["i"] % 16) / 16.0))
        return grid.solve().lateral_loss_w

    loss = benchmark(rescale_and_solve)
    assert loss > 0


@pytest.mark.parametrize("arch", ["A1", "A2"])
def test_structured_setup(benchmark, arch):
    """``StructuredGridPDN(design)`` on a 128² die mesh under the
    paper's 48-VR bank: the periphery bank on its ring bus (A1) or the
    under-die array (A2).  Records the Woodbury rank beside the time."""
    from repro import DSCH, SystemSpec, single_stage_a1, single_stage_a2
    from repro.core.current_sharing import _die_grid_with_bank
    from repro.pdn.fast_poisson import StructuredGridPDN

    bank = {"A1": single_stage_a1, "A2": single_stage_a2}[arch]()
    grid, _ = _die_grid_with_bank(
        bank, DSCH, SystemSpec(), PowerMap.hotspot_mixture(), 128, 1.0,
        0.15e-3,
    )
    engine = benchmark(StructuredGridPDN, grid.design)
    benchmark.extra_info["rank"] = engine.op.rank


def test_repeated_solve_cached_factorization(benchmark):
    """Fixed topology, varying RHS: the N−1 / Monte-Carlo hot loop."""
    n = 48
    grid = make_grid(n)
    base = PowerMap.hotspot_mixture().cell_currents(n, n, 1000.0)
    grid.solve()  # warm the factorization cache
    step = {"i": 0}

    def rescale_and_solve() -> float:
        step["i"] += 1
        grid.set_sink_array(base * (0.5 + (step["i"] % 16) / 16.0))
        return grid.solve().lateral_loss_w

    loss = benchmark(rescale_and_solve)
    assert loss > 0


def test_batched_rhs_solve_many(benchmark):
    """64 load scenarios through one factorization in a single call."""
    n = 48
    grid = make_grid(n)
    solver = FactorizedPDN(grid.compile())
    base = solver.rhs()
    scales = np.linspace(0.5, 1.5, 64)
    rhs_matrix = np.tile(base[:, None], (1, scales.size))
    cells = n * n
    rhs_matrix[:cells, :] *= scales[None, :]

    def solve_batch() -> np.ndarray:
        return solver.solve_many(rhs_matrix)

    solutions = benchmark(solve_batch)
    assert solutions.shape[1] == scales.size
    assert np.all(np.isfinite(solutions))


# -- AC frequency sweeps ------------------------------------------------------

AC_SWEEP_POINTS = 200


def make_ac_probe() -> ACNetlist:
    """The branched-decap PDN probe circuit from the AC tests."""
    net = ACNetlist()
    net.add_voltage_source("vrm", "src", 1.0)
    net.add_resistor("r_series", "src", "mid", 0.05e-3)
    net.add_inductor("l_series", "mid", "die", 1e-9)
    net.add_capacitor("c_decap", "die", "cap_tap", 1e-6)
    net.add_resistor("esr", "cap_tap", "0", 0.3e-3)
    net.add_capacitor("c_bulk", "die", "bulk_tap", 100e-6)
    net.add_resistor("esr_bulk", "bulk_tap", "0", 1e-3)
    return probe_netlist(net, "die")


def test_ac_sweep_scalar(benchmark):
    """The pre-compile path: one full scalar solve per frequency."""
    probe = make_ac_probe()
    freqs = np.logspace(3, 9, AC_SWEEP_POINTS)

    def sweep_scalar() -> float:
        return max(
            solve_ac(probe, float(f)).magnitude("die") for f in freqs
        )

    peak = benchmark(sweep_scalar)
    assert peak > 0


def test_ac_sweep_compiled(benchmark):
    """The compiled path: one stamp structure, vectorized values."""
    probe = make_ac_probe()
    freqs = np.logspace(3, 9, AC_SWEEP_POINTS)

    def sweep_compiled() -> float:
        return float(probe.compile_ac().solve(freqs).magnitude("die").max())

    peak = benchmark(sweep_compiled)
    assert peak > 0


# -- N-1 fault sweeps ---------------------------------------------------------

N1_GRID = 24
N1_SCENARIOS = 12
N1_SOURCES = 8


def make_n1_grid() -> GridPDN:
    grid = GridPDN(0.0224, 0.0224, 0.62e-3, nx=N1_GRID, ny=N1_GRID)
    grid.set_sinks(PowerMap.hotspot_mixture(), 1000.0)
    for k in range(N1_SOURCES):
        t = k / N1_SOURCES
        grid.add_source(f"s{k}", t, 0.0 if k % 2 else 1.0, 1.0, 1e-3)
    return grid


def test_n1_sweep_refactorize(benchmark):
    """Per-scenario refactorization (the pre-Woodbury sweep shape)."""
    grid = make_n1_grid()
    grid.solve()

    def sweep() -> float:
        worst = 0.0
        for k in range(N1_SCENARIOS):
            solution = grid.solve_disabled(
                (k % N1_SOURCES,), method="refactor"
            )
            worst = max(worst, float(solution.source_currents_a.max()))
        return worst

    worst = benchmark(sweep)
    assert worst > 0


def test_n1_sweep_woodbury(benchmark):
    """Woodbury-corrected scenarios on one shared factorization."""
    grid = make_n1_grid()
    grid.solve()

    def sweep() -> float:
        worst = 0.0
        for k in range(N1_SCENARIOS):
            solution = grid.solve_disabled(
                (k % N1_SOURCES,), method="woodbury"
            )
            worst = max(worst, float(solution.source_currents_a.max()))
        return worst

    worst = benchmark(sweep)
    assert worst > 0


def test_nk_sweep_batched(benchmark):
    """The whole scenario list through batched back-substitutions."""
    grid = make_n1_grid()
    grid.solve()
    scenarios = [
        (k % N1_SOURCES, (k + 1) % N1_SOURCES) for k in range(N1_SCENARIOS)
    ]

    def sweep() -> float:
        solutions = grid.solve_disabled_many(scenarios, method="woodbury")
        return max(
            float(solution.source_currents_a.max())
            for solution in solutions
        )

    worst = benchmark(sweep)
    assert worst > 0


def test_nk_sweep_structured(benchmark):
    """12 N−2 scenarios on the paper's 48-VR A1 ring bank at 128²
    through the structured engine, warm operator: the sweep shares one
    sink map, so it takes one transform pair plus per-scenario Woodbury
    coefficients.  Records the Woodbury rank."""
    from repro import DSCH, SystemSpec, single_stage_a1
    from repro.core.current_sharing import _die_grid_with_bank

    bank, _ = _die_grid_with_bank(
        single_stage_a1(), DSCH, SystemSpec(), PowerMap.hotspot_mixture(),
        128, 1.0, 0.15e-3,
    )
    grid = GridPDN.from_design(bank.design, engine="structured")
    grid.solve()  # warm the structured operator
    scenarios = [(k, (k + 17) % 48) for k in range(N1_SCENARIOS)]

    def sweep() -> float:
        solutions = grid.solve_disabled_many(scenarios)
        return max(
            float(solution.source_currents_a.max())
            for solution in solutions
        )

    worst = benchmark(sweep)
    benchmark.extra_info["rank"] = grid._ensure_structure().fast.op.rank
    assert worst > 0


# -- grid-level AC impedance maps --------------------------------------------

GRID_AC_POINTS = 200


def make_grid_ac(n: int) -> GridACPDN:
    """A die mesh with uniform decap allocation and an 8-VR bank."""
    pdn = GridACPDN(0.0224, 0.0224, 0.62e-3, nx=n, ny=n)
    pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
    for k in range(8):
        t = k / 8.0
        pdn.add_source(
            f"s{k}", t, 0.0 if k % 2 else 1.0, 1.0, 1e-3, 5e-12
        )
    return pdn


@pytest.mark.parametrize("n", [8, 16, 24])
def test_grid_ac_impedance_map(benchmark, n):
    """Die-seen Z(f) at every mesh node, 200-point sweep, warm cache."""
    pdn = make_grid_ac(n)
    freqs = np.logspace(4, 9, GRID_AC_POINTS)
    assert pdn.impedance_engine() == "structured"
    pdn.impedance_map(freqs)  # compile + eigendecomposition, once

    impedance = benchmark(pdn.impedance_map, freqs)
    assert impedance.peak_impedance_ohm > 0
    assert np.all(np.isfinite(impedance.z_ohm))


@pytest.mark.parametrize("n", [12, 24])
def test_grid_ac_impedance_map_many_vr(benchmark, n):
    """Uniform density under the paper's 48-VR periphery bank on a ring
    bus, 200 points through ``auto``: a structured Woodbury rank of one
    plus the attach nodes (the ring adds no column), where the cost
    rule routes the sweep to selinv at 12² and to structured at 24²."""
    from repro.placement.geometry import periphery_positions

    pdn = GridACPDN(0.0224, 0.0224, 0.62e-3, nx=n, ny=n)
    pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
    for k, position in enumerate(periphery_positions(48)):
        pdn.add_source(f"vr{k}", position.x, position.y, 1.0, 1e-3, 5e-12)
    pdn.connect_sources_with_ring_bus(2e-3)
    freqs = np.logspace(4, 9, GRID_AC_POINTS)
    assert pdn.impedance_engine() == ("selinv" if n == 12 else "structured")
    pdn.impedance_map(freqs)

    impedance = benchmark(pdn.impedance_map, freqs)
    assert impedance.peak_impedance_ohm > 0
    assert np.all(np.isfinite(impedance.z_ohm))


@pytest.mark.parametrize("n", [16, 32])
def test_grid_ac_impedance_map_spectral(benchmark, n):
    """The previous-generation modal engine, pinned explicitly so the
    old-vs-new engine gap stays visible in the record."""
    pdn = make_grid_ac(n)
    freqs = np.logspace(4, 9, GRID_AC_POINTS)
    pdn.impedance_map(freqs, method="spectral")

    impedance = benchmark(pdn.impedance_map, freqs, method="spectral")
    assert impedance.peak_impedance_ohm > 0
    assert np.all(np.isfinite(impedance.z_ohm))


@pytest.mark.parametrize(
    "n", [32, pytest.param(96, marks=pytest.mark.large_mesh)]
)
def test_grid_ac_impedance_map_structured(benchmark, n):
    """The DCT-diagonalized engine at meshes the dense/spectral paths
    cannot reach interactively."""
    pdn = make_grid_ac(n)
    freqs = np.logspace(4, 9, GRID_AC_POINTS)
    pdn.impedance_map(freqs, method="structured")

    impedance = benchmark(pdn.impedance_map, freqs, method="structured")
    assert impedance.peak_impedance_ohm > 0
    assert np.all(np.isfinite(impedance.z_ohm))


def decap_pattern(n: int) -> np.ndarray:
    """A fixed non-uniform per-node allocation, 0.3–1.7 unit cells."""
    return np.random.default_rng(n).uniform(0.3, 1.7, (n, n))


def record_selinv_scratch(benchmark, pdn: GridACPDN, freqs) -> None:
    """Record a selinv row's frequency chunk and the traced
    (tracemalloc) peak of one more warm map."""
    import tracemalloc

    tracemalloc.start()
    try:
        pdn.impedance_map(freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["chunk"] = min(freqs.size, pdn._ensure_selinv().chunk)
    benchmark.extra_info["traced_peak_mb"] = round(peak / 1e6, 2)


@pytest.mark.parametrize("n", [16, 32])
def test_grid_ac_impedance_map_selinv(benchmark, n):
    """Non-uniform density — what placement evaluates — through the
    engine ``auto`` picks for it, 200-point sweep, warm plan.  Records
    the chunk size and traced peak."""
    pdn = make_grid_ac(n)
    pdn.set_decap_density(decap_pattern(n), 0.2e-6, 2e-3, 1e-12)
    freqs = np.logspace(4, 9, GRID_AC_POINTS)
    assert pdn.impedance_engine() == "selinv"
    pdn.impedance_map(freqs)

    impedance = benchmark(pdn.impedance_map, freqs)
    record_selinv_scratch(benchmark, pdn, freqs)
    assert impedance.peak_impedance_ohm > 0
    assert np.all(np.isfinite(impedance.z_ohm))


@pytest.mark.large_mesh
@pytest.mark.parametrize("n", [48])
def test_grid_ac_impedance_map_selinv_map(benchmark, n):
    """48×48 map-form decap on inductive mesh metal, 200 points through
    ``auto``: seconds where the sparse-LU full inverse took minutes.
    Records the chunk size and traced peak."""
    pdn = GridACPDN(
        0.0224, 0.0224, 0.62e-3, nx=n, ny=n,
        edge_inductance_x_h=1e-12, edge_inductance_y_h=1e-12,
    )
    pdn.set_decap_map(decap_pattern(n) * 0.2e-6, 2e-3, 1e-12)
    for k in range(8):
        t = k / 8.0
        pdn.add_source(
            f"s{k}", t, 0.0 if k % 2 else 1.0, 1.0, 1e-3, 5e-12
        )
    freqs = np.logspace(4, 9, GRID_AC_POINTS)
    assert pdn.impedance_engine() == "selinv"

    impedance = benchmark.pedantic(
        pdn.impedance_map, args=(freqs,), rounds=3, iterations=1
    )
    record_selinv_scratch(benchmark, pdn, freqs)
    assert impedance.peak_impedance_ohm > 0
    assert np.all(np.isfinite(impedance.z_ohm))


def make_a2_bank_ac(n: int) -> GridACPDN:
    """The paper's 48-VR A2 array on an n×n die mesh, hotspot sinks,
    under the fixed non-uniform decap density of :func:`decap_pattern`."""
    from repro import DSCH, SystemSpec, single_stage_a2
    from repro.core.current_sharing import _die_grid_with_bank

    grid, _ = _die_grid_with_bank(
        single_stage_a2(), DSCH, SystemSpec(), PowerMap.hotspot_mixture(), n,
        1.0, 1e-3, 5e-12,
    )
    pdn = GridACPDN.from_design(grid.design)
    pdn.set_decap_density(decap_pattern(n), 0.2e-6, 2e-3, 1e-12)
    return pdn


@pytest.mark.parametrize(
    "n", [16, pytest.param(48, marks=pytest.mark.large_mesh)]
)
def test_grid_ac_driven_sweep(benchmark, n):
    """The driven phasor sweep (``GridACPDN.solve``) on the 48-VR A2
    array, 41 points, warm level plan: each frequency's right-hand side
    rides the selinv block sweep."""
    pdn = make_a2_bank_ac(n)
    freqs = np.logspace(4, 9, 41)
    pdn.solve(freqs)

    sweep = benchmark(pdn.solve, freqs)
    assert sweep.voltage_maps.shape == (freqs.size, n, n)
    assert np.all(np.isfinite(sweep.voltage_maps))


@pytest.mark.parametrize("n", [16, 48])
def test_grid_ac_impedance_columns(benchmark, n):
    """The adjoint columns of one placement gradient step on the 48-VR
    A2 array: 8 probe nodes at one frequency, warm level plan."""
    pdn = make_a2_bank_ac(n)
    nodes = np.arange(8) * (n * n // 8)
    pdn.impedance_columns(1e7, nodes)

    columns = benchmark(pdn.impedance_columns, 1e7, nodes)
    assert columns.shape == (n * n, nodes.size)
    assert np.all(np.isfinite(columns))


# -- decap placement optimizer ------------------------------------------------

PLACEMENT_POINTS = 41


@pytest.mark.parametrize("n", [16, 32])
def test_placement_opt(benchmark, n):
    """A capped placement-optimizer run (two greedy moves + one
    adjoint gradient step, no coarse warm start) against a target at
    half the uniform peak.  Each iteration is O(one batched solve) —
    an impedance-map sweep per greedy trial plus one multi-RHS
    ``impedance_columns`` solve per gradient step — so these rows
    should scale like the warm ``test_grid_ac_impedance_map`` rows,
    not like per-node re-solves."""
    from repro.pdn.decap_placement import optimize_decap_placement

    pdn = make_grid_ac(n)
    freqs = np.logspace(4, 9, PLACEMENT_POINTS)
    baseline = pdn.impedance_map(freqs)  # warm compile/eigen caches
    target = 0.5 * baseline.peak_impedance_ohm

    def place():
        return optimize_decap_placement(
            pdn,
            target,
            frequencies_hz=freqs,
            max_iterations=2,
            gradient_steps=1,
            multi_resolution=False,
        )

    result = benchmark(place)
    assert result.violating_fraction_history


# -- grid transient (factor-once droop engine) --------------------------------
#
# The load-step droop rows.  ``test_grid_transient`` times warm
# factor-once stepping (the per-(topology, dt) factorization is
# cached, each 201-sample trace costs back-substitutions only);
# ``test_grid_transient_refactorize`` is the naive baseline that pays
# assembly + LU for every trace — the warm/cold pair is the
# factor-once evidence, same convention as the n1 refactorize/woodbury
# rows.  ``test_grid_transient_batched`` / ``..._sequential`` run the
# same 16-trace ensemble through one batched step loop vs 16
# single-trace loops, at two mesh sizes that sit in different
# regimes: at 16x16 the single-trace step is dominated by fixed
# per-call overhead, so batching amortizes it (>3x recorded); at
# 48x48 the batch shares every matrix/DCT pass across traces but its
# state updates are memory-bandwidth-bound, so on a single-CPU box
# the recorded gap narrows to ~1.8x — with threaded FFT/BLAS the
# shared passes parallelize and the gap widens again, same caveat as
# the ``multiproc`` rows below.

TRANSIENT_SAMPLES = 201
TRANSIENT_DT = 2e-9
TRANSIENT_TRACES = 16


def make_grid_transient(n: int, engine: str = "auto"):
    from repro.pdn.grid_transient import GridTransientPDN

    pdn = GridTransientPDN(
        0.0224, 0.0224, 0.62e-3, nx=n, ny=n,
        edge_inductance_x_h=4e-12, edge_inductance_y_h=4e-12,
        engine=engine,
    )
    for k in range(8):
        t = k / 8.0
        pdn.add_source(
            f"s{k}", t, 0.0 if k % 2 else 1.0, 1.0, 1e-3,
            inductance_h=5e-12,
        )
    pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
    return pdn


def transient_waves(n: int, traces: int) -> list[np.ndarray]:
    base = PowerMap.hotspot_mixture().cell_currents(n, n, 1000.0)
    ramp = np.linspace(0.2, 1.0, TRANSIENT_SAMPLES)[:, None]
    rng = np.random.default_rng(11)
    return [
        np.ascontiguousarray(
            base.reshape(-1)[None, :] * ramp * (0.8 + 0.4 * rng.random())
        )
        for _ in range(traces)
    ]


@pytest.mark.parametrize(
    "n", [16, 32, pytest.param(64, marks=pytest.mark.large_mesh)]
)
def test_grid_transient(benchmark, n):
    """Warm factor-once stepping: one 201-sample load ramp per round."""
    pdn = make_grid_transient(n)
    wave = transient_waves(n, 1)[0]
    pdn.simulate(wave, TRANSIENT_DT)  # factorize + cache, once

    result = benchmark(pdn.simulate, wave, TRANSIENT_DT)
    assert result.droop_v >= 0


def test_grid_transient_refactorize(benchmark):
    """Naive cold baseline at 48x48: a fresh engine and a cleared
    factorization cache every round, so each short trace pays stamp
    assembly + sparse LU — the denominator of the factor-once claim
    (a warm step is the 48x48 sequential row's mean / 16 traces / 200
    steps)."""
    wave = transient_waves(48, 1)[0][:2]  # minimal 2-sample trace

    def cold() -> float:
        process_cache().clear()
        pdn = make_grid_transient(48, engine="factorized")
        return pdn.simulate(wave, TRANSIENT_DT).droop_v

    droop = benchmark(cold)
    assert droop >= 0


BATCH_MESHES = [16, pytest.param(48, marks=pytest.mark.large_mesh)]


@pytest.mark.parametrize("n", BATCH_MESHES)
def test_grid_transient_batched(benchmark, n):
    """16-trace ensemble through one batched step loop."""
    pdn = make_grid_transient(n)
    waves = transient_waves(n, TRANSIENT_TRACES)
    pdn.simulate(waves[0], TRANSIENT_DT)

    results = benchmark(pdn.simulate_many, waves, TRANSIENT_DT)
    assert len(results) == TRANSIENT_TRACES


@pytest.mark.parametrize("n", BATCH_MESHES)
def test_grid_transient_sequential(benchmark, n):
    """The same 16 traces as 16 single-trace runs."""
    pdn = make_grid_transient(n)
    waves = transient_waves(n, TRANSIENT_TRACES)
    pdn.simulate(waves[0], TRANSIENT_DT)

    def sweep() -> float:
        return max(
            pdn.simulate(w, TRANSIENT_DT).droop_v for w in waves
        )

    droop = benchmark(sweep)
    assert droop > 0


#: The paper bank each cold-ensemble mesh carries, as in the
#: transient_droop workload: the 48-VR A2 array at 32², the A1
#: periphery bank on its ring at 48².
COLD_ENSEMBLE_BANKS = {32: "A2", 48: "A1"}


@pytest.mark.parametrize(
    "n", [32, pytest.param(48, marks=pytest.mark.large_mesh)]
)
def test_grid_transient_cold_ensemble(benchmark, n):
    """A transient_droop-shaped point: from an emptied process cache, a
    fresh ``auto`` view of the paper's VR bank steps 8 traces of 201
    samples.  Records the engine ``auto`` picked and the traced
    (tracemalloc) peak of one more such point."""
    import tracemalloc

    from repro import DSCH, SystemSpec, single_stage_a1, single_stage_a2
    from repro.core.current_sharing import _die_grid_with_bank
    from repro.pdn.grid_transient import GridTransientPDN

    bank = {"A1": single_stage_a1, "A2": single_stage_a2}[
        COLD_ENSEMBLE_BANKS[n]
    ]()
    grid, _ = _die_grid_with_bank(
        bank, DSCH, SystemSpec(), PowerMap.hotspot_mixture(), n, 1.0,
        0.15e-3, 5e-12,
    )
    view = GridTransientPDN.from_design(grid.design)
    view.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
    design = view.design
    waves = transient_waves(n, 8)

    def point():
        return GridTransientPDN.from_design(design).simulate_many(
            waves, 2e-10
        )

    results = benchmark.pedantic(
        point, setup=process_cache().clear, rounds=5, warmup_rounds=1
    )
    process_cache().clear()
    tracemalloc.start()
    try:
        point()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["engine"] = results[0].engine
    benchmark.extra_info["traced_peak_mb"] = round(peak / 1e6, 2)
    assert len(results) == 8


# -- parallel sweep executor --------------------------------------------------
#
# The system-level sweeps through repro.parallel: a 512-draw
# Monte-Carlo and a 48-scenario N-2 fault sweep, at jobs=1 (the
# serial in-process path) and jobs=4 (process-pool sharding).  The
# jobs=4 rows are marked ``multiproc``: on a single-CPU box pool
# overhead dominates and --skip-large CI excludes them; on a
# multi-core box they are the speedup evidence.  --check compares
# each row against its own recorded baseline, so the serial and
# parallel rows gate independently.

MC_DRAWS = 512
NK_SCENARIOS = 48

JOBS_PARAMS = [1, pytest.param(4, marks=pytest.mark.multiproc)]


@pytest.mark.parametrize("jobs", JOBS_PARAMS)
def test_parallel_monte_carlo(benchmark, jobs):
    """512-draw Monte-Carlo loss sweep through the executor."""
    from repro.converters.catalog import DSCH
    from repro.core.architectures import single_stage_a1
    from repro.core.variation import monte_carlo_loss

    arch = single_stage_a1()

    def sweep() -> float:
        result = monte_carlo_loss(arch, DSCH, samples=MC_DRAWS, jobs=jobs)
        return result.mean_loss_w

    mean = benchmark(sweep)
    assert mean > 0


@pytest.mark.parametrize("jobs", JOBS_PARAMS)
def test_parallel_nk_sweep(benchmark, jobs):
    """48-scenario N-2 fault sweep on the 48-VR A1 bank."""
    from repro.converters.catalog import DSCH
    from repro.core.architectures import single_stage_a1
    from repro.core.redundancy import multi_failure_samples

    arch = single_stage_a1()

    def sweep() -> int:
        results = multi_failure_samples(
            arch, DSCH, 2, max_scenarios=NK_SCENARIOS, jobs=jobs
        )
        return sum(1 for r in results if r.survives)

    survivors = benchmark(sweep)
    assert survivors >= 0
