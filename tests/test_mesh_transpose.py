"""Every grid view is symmetric under transposing the mesh.

A 5x3 design with x-edge inductance only, three sources at explicit
nodes joined by a ring, and a non-uniform sink map is the same network
as its 3x5 transpose (extents and edge inductances swapped, sources,
sinks and decap density transposed): node ``(ix, iy)`` of the one is
node ``(iy, ix)`` of the other.  So every map of the one is the
transposed map of the other, on every engine, to rounding.  The x and
y axes of each view take separate branches of its code (stencil
slices, per-axis conductances, the transient's edge records), and an
axis-specific slip breaks the symmetry even where each axis alone
looks plausible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pdn import (
    GridACPDN,
    GridPDN,
    GridTransientPDN,
    MeshDesign,
    Source,
)

NX, NY = 5, 3
#: Sources at explicit (ix, iy) nodes, in attachment (ring) order.
SOURCES = ((0, 0), (4, 1), (2, 2))
SINKS = np.arange(1.0, NX * NY + 1.0).reshape(NY, NX) ** 1.5 / 40.0
DENSITY = np.linspace(0.5, 2.0, NX * NY).reshape(NY, NX)
FREQS = np.geomspace(1e5, 2e9, 9)
TOL = 1e-12


def designs(density=1.0, esl_h=0.0, edge_l_h=5e-12):
    """The 5x3 design and its 3x5 transpose, with a decap density
    (scalar or (ny, nx)) of 10 nF / 10 mΩ / ``esl_h`` unit cells."""
    pair = []
    for transpose in (False, True):
        flip = np.transpose if transpose else np.asarray
        swap = (lambda a, b: (b, a)) if transpose else (lambda a, b: (a, b))
        (width, height), (nx, ny) = swap(4e-3, 3e-3), swap(NX, NY)
        l_x, l_y = swap(edge_l_h, 0.0)
        design = MeshDesign(
            width, height, 0.01, nx=nx, ny=ny,
            edge_inductance_x_h=l_x, edge_inductance_y_h=l_y,
        )
        design = design.with_sources(
            Source(f"vr{k}", *swap(ix, iy), 1.0, 1e-3, 20e-12)
            for k, (ix, iy) in enumerate(SOURCES)
        )
        design = design.with_ring_bus(2e-3).with_sinks(flip(SINKS))
        design = design.with_decap_density(
            flip(np.broadcast_to(density, (NY, NX))), 1e-8, 1e-2, esl_h
        )
        pair.append(design)
    return pair


def assert_transposed(a, b, shape=(NY, NX)):
    """``b`` is ``a`` with its (ny, nx) mesh axes swapped, within
    :data:`TOL` of ``a``'s largest entry.  ``a`` is a map or its
    row-order flattening (leading), with any trailing axes."""
    a = np.asarray(a).reshape(*shape, -1)
    b = np.asarray(b).reshape(shape[1], shape[0], -1)
    gap = np.max(np.abs(a.transpose(1, 0, 2) - b))
    assert gap <= TOL * np.max(np.abs(a)), gap


def test_designs_are_the_same_network():
    a, b = designs()
    assert a.edge_resistance_x_ohm == b.edge_resistance_y_ohm
    assert a.edge_resistance_y_ohm == b.edge_resistance_x_ohm
    assert np.array_equal(a.ring_segments()[0], b.ring_segments()[0])


@pytest.mark.parametrize("engine", ["factorized", "structured"])
def test_dc_maps_and_source_currents(engine):
    a, b = (
        GridPDN.from_design(design, engine=engine).solve()
        for design in designs()
    )
    assert_transposed(a.voltage_map, b.voltage_map)
    gap = np.max(np.abs(a.source_currents_a - b.source_currents_a))
    assert gap <= TOL * np.max(np.abs(a.source_currents_a))


@pytest.mark.parametrize(
    "method, density, resistive",
    [
        ("selinv", DENSITY, False),
        ("direct", DENSITY, False),
        ("spectral", DENSITY, True),
        ("structured", 1.0, True),
        ("selinv", 1.0, True),
    ],
)
def test_ac_maps(method, density, resistive):
    """Spectral and structured maps need resistive metal, so those
    run on the pair with the edge inductance removed."""
    a, b = (
        GridACPDN.from_design(design).impedance_map(FREQS, method=method)
        for design in designs(density, edge_l_h=0.0 if resistive else 5e-12)
    )
    assert_transposed(a.z_ohm, b.z_ohm)


@pytest.mark.parametrize("engine", ["factorized", "structured"])
@pytest.mark.parametrize(
    "esl_h, dt_s, exact_jump",
    [(1e-12, 50e-12, False), (0.0, 10e-12, True)],
    ids=["kick", "exact-jump"],
)
def test_transient_maps_and_min_trace(engine, esl_h, dt_s, exact_jump):
    """A uniform density, because the structured transient lets at
    most a quarter of the nodes deviate from the common decap."""
    results = []
    for design in designs(esl_h=esl_h):
        pdn = GridTransientPDN.from_design(design, engine=engine)
        assert pdn._structure(dt_s).exact_jump is exact_jump
        result = pdn.simulate_step(2.0, 6.0, 200 * dt_s, dt_s)
        assert result.engine == engine
        results.append(result)
    a, b = results
    assert_transposed(a.v_min_map, b.v_min_map)
    assert_transposed(a.v_final_map, b.v_final_map)
    trace_a, trace_b = a.min_voltage_trace_v, b.min_voltage_trace_v
    assert np.max(np.abs(trace_a - trace_b)) <= TOL * np.max(trace_a)
    # The step droops the mesh: the comparison is not of flat maps.
    assert a.worst_droop_v > 1e-4
