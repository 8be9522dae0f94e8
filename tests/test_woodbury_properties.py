"""Property-based parity of Woodbury-corrected modified solves.

``FactorizedPDN.solve_modified(method="woodbury")`` must reproduce an
explicit refactorization of the same modified system
(``method="refactor"``) to 1e-9 relative on every node voltage — on
random grids, random failed-source subsets, and random removed mesh
edges.  A failed source is its ``r_out`` resistor removed from the
grid's MNA form, and must also match the nodal N−k path
(``GridPDN.solve_disabled``).  A removed-element scenario is
additionally checked against a from-scratch netlist that never
contained the element (the semantic oracle, not just the algebraic
one).
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.pdn.grid import GridPDN
from repro.pdn.mna import DCSolution, FactorizedPDN
from repro.pdn.network import Netlist


def stays_powered(
    grid: GridPDN, removed: list[int], disabled: list[int] = ()
) -> bool:
    """True when every mesh component keeps a *live* source tap.

    Removing edges can island part of the grid; an island holding
    sinks but no surviving source is genuinely singular (and rejected
    by the solver), so parity tests skip those draws.  Disabled
    sources do not count — their ``r_out`` is removed, so their tap
    cannot reference an island to ground.
    """
    compiled = grid.compile()
    n_sources = len(compiled.vs_volt)
    cells = grid.nx * grid.ny
    keep = np.ones(len(compiled.res_ohm), dtype=bool)
    keep[list(removed)] = False
    mesh = keep[: 2 * cells - grid.nx - grid.ny]
    a = compiled.res_a[: len(mesh)][mesh]
    b = compiled.res_b[: len(mesh)][mesh]
    adjacency = coo_matrix(
        (np.ones(len(a)), (a, b)), shape=(cells, cells)
    )
    _, labels = connected_components(adjacency, directed=False)
    live = np.ones(n_sources, dtype=bool)
    live[list(disabled)] = False
    taps = compiled.res_b[-n_sources:][live]
    return set(labels) == set(labels[taps])


def build_grid(
    n: int,
    sheet: float,
    source_cells: list[tuple[float, float]],
    voltage: float,
    r_out: float,
    sink_scale: float,
) -> GridPDN:
    grid = GridPDN(1e-2, 1e-2, sheet, nx=n, ny=n)
    rng = np.random.default_rng(7)
    grid.set_sink_array(sink_scale * rng.random((n, n)))
    for k, (x, y) in enumerate(source_cells):
        grid.add_source(f"s{k}", x, y, voltage, r_out)
    return grid


def routs(compiled, failed) -> tuple[int, ...]:
    """The ``r_out`` resistors of the failed sources in the grid's MNA
    form: they follow the lateral resistors, in source order."""
    lateral = len(compiled.res_ohm) - len(compiled.vs_volt)
    return tuple(lateral + j for j in failed)


def assert_voltage_parity(
    solver: FactorizedPDN, kwargs: dict, rtol: float = 1e-9
) -> DCSolution:
    fast = solver.solve_modified(method="woodbury", **kwargs)
    oracle = solver.solve_modified(method="refactor", **kwargs)
    scale = max(float(np.abs(oracle.node_voltage_array).max()), 1e-12)
    delta = np.abs(fast.node_voltage_array - oracle.node_voltage_array)
    assert delta.max() <= rtol * scale
    return fast


grids = st.integers(min_value=3, max_value=7)
sheets = st.floats(min_value=1e-4, max_value=1e-1)
positions = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


@given(
    n=grids,
    sheet=sheets,
    sources=st.lists(positions, min_size=2, max_size=5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_disabled_sources_match_refactorized(n, sheet, sources, data):
    """Woodbury N-k solves equal full refactorized solves, and the MNA
    form with the failed ``r_out``s removed equals the nodal N−k path
    on the mesh rows: one failure model in both forms."""
    grid = build_grid(n, sheet, sources, 1.0, 1e-3, 0.1)
    compiled = grid.compile()
    solver = FactorizedPDN(compiled)
    failed = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(sources) - 1),
            min_size=1,
            max_size=len(sources) - 1,
            unique=True,
        )
    )
    mna = assert_voltage_parity(
        solver, {"remove_resistors": routs(compiled, failed)}
    )
    nodal = grid.solve_disabled(failed).voltage_map.ravel()
    mesh = mna.node_voltage_array[: n * n]
    scale = max(float(np.abs(nodal).max()), 1e-12)
    assert np.abs(mesh - nodal).max() <= 1e-9 * scale


@given(
    n=grids,
    sheet=sheets,
    sources=st.lists(positions, min_size=2, max_size=4),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_removed_edges_match_refactorized(n, sheet, sources, data):
    """Woodbury edge removals equal full refactorized solves.

    Only mesh edges are removed (the 2-D grid keeps alternative paths,
    so the system stays connected and well-posed).
    """
    grid = build_grid(n, sheet, sources, 1.0, 1e-3, 0.1)
    compiled = grid.compile()
    solver = FactorizedPDN(compiled)
    mesh_edges = 2 * n * (n - 1)
    removed = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=mesh_edges - 1),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    assume(stays_powered(grid, removed))
    assert_voltage_parity(solver, {"remove_resistors": tuple(removed)})


@given(
    n=grids,
    sheet=sheets,
    sources=st.lists(positions, min_size=2, max_size=4),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_combined_modifications_match_refactorized(n, sheet, sources, data):
    """Simultaneous source failures and edge opens stay in parity."""
    grid = build_grid(n, sheet, sources, 1.0, 1e-3, 0.1)
    solver = FactorizedPDN(grid.compile())
    failed = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(sources) - 1),
            min_size=1,
            max_size=len(sources) - 1,
            unique=True,
        )
    )
    mesh_edges = 2 * n * (n - 1)
    removed = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=mesh_edges - 1),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    assume(stays_powered(grid, removed, failed))
    assert_voltage_parity(
        solver,
        {"remove_resistors": routs(solver.compiled, failed) + tuple(removed)},
    )


@given(
    feeds=st.lists(
        st.floats(min_value=1e-3, max_value=10.0), min_size=2, max_size=5
    ),
    load=st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=40, deadline=None)
def test_removed_resistor_matches_rebuilt_netlist(feeds, load):
    """Removing a parallel feed equals a netlist built without it.

    The semantic oracle: N parallel feed resistors from the source to
    the load node; opening feed 0 via solve_modified must match a
    from-scratch solve of the netlist that never had feed 0.
    """
    full = Netlist()
    full.add_voltage_source("v", "in", 1.0)
    for i, r in enumerate(feeds):
        full.add_resistor(f"feed[{i}]", "in", "pol", r)
    full.add_load("cpu", "pol", load)

    reduced = Netlist()
    reduced.add_voltage_source("v", "in", 1.0)
    for i, r in enumerate(feeds[1:], start=1):
        reduced.add_resistor(f"feed[{i}]", "in", "pol", r)
    reduced.add_load("cpu", "pol", load)

    modified = FactorizedPDN(full).solve_modified(remove_resistors=(0,))
    oracle = FactorizedPDN(reduced).solve()
    assert modified.voltage("pol") == oracle.voltage("pol") or abs(
        modified.voltage("pol") - oracle.voltage("pol")
    ) <= 1e-9 * max(1.0, abs(oracle.voltage("pol")))
    assert modified.resistor_currents["feed[0]"] == 0.0
    assert modified.resistor_losses["feed[0]"] == 0.0


@given(
    n=grids,
    sheet=sheets,
    sources=st.lists(positions, min_size=3, max_size=5),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_batched_scenarios_match_refactorized(n, sheet, sources, data):
    """solve_modified_many (batched Woodbury) equals per-scenario
    refactorized solves, across mixed failed-source/edge-removal
    sweeps."""
    grid = build_grid(n, sheet, sources, 1.0, 1e-3, 0.1)
    solver = FactorizedPDN(grid.compile())
    mesh_edges = 2 * n * (n - 1)
    scenario_count = data.draw(st.integers(min_value=1, max_value=4))
    scenarios = []
    for _ in range(scenario_count):
        failed = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(sources) - 1),
                min_size=0,
                max_size=len(sources) - 1,
                unique=True,
            )
        )
        removed = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=mesh_edges - 1),
                min_size=0,
                max_size=2,
                unique=True,
            )
        )
        assume(stays_powered(grid, removed, failed))
        scenarios.append(routs(solver.compiled, failed) + tuple(removed))

    batched = solver.solve_modified_many(scenarios, method="woodbury")
    assert len(batched) == len(scenarios)
    for removed, fast in zip(scenarios, batched):
        oracle = solver.solve_modified(
            remove_resistors=removed, method="refactor"
        )
        scale = max(float(np.abs(oracle.node_voltage_array).max()), 1e-12)
        delta = np.abs(fast.node_voltage_array - oracle.node_voltage_array)
        assert delta.max() <= 1e-9 * scale


@given(
    n=grids,
    sheet=sheets,
    sources=st.lists(positions, min_size=2, max_size=4),
    data=st.data(),
)
@settings(max_examples=15, deadline=None)
def test_batched_refactor_method_matches_woodbury_batch(n, sheet, sources, data):
    """The method="refactor" oracle path of the batched API agrees
    with the batched Woodbury path on the same sweep."""
    grid = build_grid(n, sheet, sources, 1.0, 1e-3, 0.1)
    solver = FactorizedPDN(grid.compile())
    failed = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(sources) - 1),
            min_size=1,
            max_size=len(sources) - 1,
            unique=True,
        )
    )
    scenarios = [routs(solver.compiled, failed), ()]
    fast = solver.solve_modified_many(scenarios, method="woodbury")
    oracle = solver.solve_modified_many(scenarios, method="refactor")
    for got, want in zip(fast, oracle):
        scale = max(float(np.abs(want.node_voltage_array).max()), 1e-12)
        delta = np.abs(got.node_voltage_array - want.node_voltage_array)
        assert delta.max() <= 1e-9 * scale
