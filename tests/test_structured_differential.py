"""Differential tests of the structured kernel against its oracles.

One suite over the shared ``mesh_designs`` strategy of
``test_mesh_design.py``, so every engine is compared on the same kind
of random design (1-D chains, ring buses, no/density/map decap, edge
and source inductance):

* **DC** — the structured engine, the factorized engine and the
  retained per-element reference (``solve_dc_reference`` of the grid's
  netlist) agree.
* **N−k** — one mixed failure batch (the all-live scenario included)
  on the structured engine agrees with the refactorized oracle, and
  each scenario with its one-scenario batch.
* **Transient** — structured and factorized traces agree, decap-free
  designs included: those run the deflated companion solve, one
  Woodbury apply on a net-current-shifted right-hand side.

A design skips a structured comparison only when
``engine="structured"`` refuses it for exceeding the deviation budget.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdn import GridPDN, GridTransientPDN, StructuredSolveError
from repro.pdn.mna_reference import solve_dc_reference

# The design strategy lives beside this file; import it under any
# pytest import mode.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_mesh_design import mesh_designs  # noqa: E402

#: Node-voltage agreement between engines and oracles (volts on ~1 V
#: rails) and the relative agreement of source currents.
ATOL_V = 1e-9
RTOL_I = 1e-7


def assert_same_operating_point(solution, ref_map, ref_currents):
    assert np.abs(solution.voltage_map - ref_map).max() <= ATOL_V
    scale = max(1.0, float(np.abs(ref_currents).max()))
    assert (
        np.abs(solution.source_currents_a - ref_currents).max()
        <= RTOL_I * scale
    )


@settings(max_examples=40, deadline=None)
@given(mesh_designs(two_d=True, sinks=True))
def test_dc_engines_match_the_reference(design):
    oracle = GridPDN.from_design(design, engine="factorized")
    reference = solve_dc_reference(oracle.build_netlist())
    ref_map = np.array(
        [
            [reference.node_voltages[("g", ix, iy)] for ix in range(design.nx)]
            for iy in range(design.ny)
        ]
    )
    ref_currents = np.array(
        [
            reference.resistor_currents[f"src.{source.name}.rout"]
            for source in design.sources
        ]
    )
    for engine in ("structured", "factorized"):
        solution = GridPDN.from_design(design, engine=engine).solve()
        assert_same_operating_point(solution, ref_map, ref_currents)


@settings(max_examples=40, deadline=None)
@given(mesh_designs(two_d=True, sinks=True), st.data())
def test_nk_batch_matches_refactor_and_single_batches(design, data):
    count = len(design.sources)
    failures = st.lists(
        st.integers(0, count - 1), max_size=count - 1, unique=True
    ).map(tuple)
    scenarios = [()] + data.draw(st.lists(failures, min_size=1, max_size=4))
    structured = GridPDN.from_design(design, engine="structured")
    oracle = GridPDN.from_design(design, engine="factorized")
    batch = structured.solve_disabled_many(scenarios)
    refactored = oracle.solve_disabled_many(scenarios, method="refactor")
    for scenario, solution, reference in zip(scenarios, batch, refactored):
        assert_same_operating_point(
            solution, reference.voltage_map, reference.source_currents_a
        )
        # 1e-14 V, and that drop across the smallest (1 mΩ) output
        # resistance the strategy draws.
        alone = structured.solve_disabled_many([scenario])[0]
        assert np.abs(alone.voltage_map - solution.voltage_map).max() <= 1e-14
        assert (
            np.abs(alone.source_currents_a - solution.source_currents_a).max()
            <= 1e-11
        )


def compare_transient_engines(design) -> bool:
    """Structured and factorized traces agree; False when the
    structured engine refused the design for its deviation budget."""
    # A load step from half the sink map to all of it at t = 0⁺.
    wave = np.repeat(design.sinks.ravel()[None, :], 24, axis=0)
    wave[0] *= 0.5
    results = []
    for engine in ("structured", "factorized"):
        pdn = GridTransientPDN.from_design(design, engine=engine)
        try:
            results.append(pdn.simulate(wave, 2e-11, probe_nodes=[0]))
        except StructuredSolveError as exc:
            assert engine == "structured"
            assert "correction budget" in str(exc)
            return False
    fast, oracle = results
    assert (fast.engine, oracle.engine) == ("structured", "factorized")
    for name in (
        "v_pre_map",
        "v_min_map",
        "v_final_map",
        "min_voltage_trace_v",
        "probe_voltages_v",
    ):
        gap = np.abs(getattr(fast, name) - getattr(oracle, name)).max()
        assert gap <= ATOL_V, name
    return True


@settings(max_examples=40, deadline=None)
@given(mesh_designs(sinks=True))
def test_transient_engines_agree(design):
    compare_transient_engines(design)


@settings(max_examples=20, deadline=None)
@given(mesh_designs(sinks=True), st.data())
def test_transient_engines_agree_on_sparse_decap(design, data):
    """Decap on at most a quarter of the nodes: a zero shift with
    deviation columns, inside the budget, so the structured engine
    runs the deflated solve with the shunt deviations in its shift."""
    cells = design.nx * design.ny
    sites = data.draw(
        st.lists(
            st.integers(0, cells - 1),
            min_size=1,
            max_size=max(1, cells // 4),
            unique=True,
        )
    )
    cap = np.zeros(cells)
    cap[sites] = np.linspace(1e-7, 3e-7, len(sites))
    shape = (design.ny, design.nx)
    assert compare_transient_engines(
        design.with_decap_map(cap.reshape(shape), 2e-3, 0.0)
    )
