"""Property-based parity of the compiled AC sweep engine (hypothesis).

The scalar :func:`repro.pdn.ac.solve_ac` oracle rebuilds and solves
the full phasor system at one frequency;
:class:`repro.pdn.ac.CompiledACNetlist` (``ACNetlist.compile_ac()``)
solves the whole grid on one compiled stamp structure.  On random RLC
ladder networks the two must agree to 1e-9 relative on every node
voltage at every frequency, and the compiled impedance probe must
match a scalar per-frequency probe loop.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdn.ac import (
    ACNetlist,
    CompiledACNetlist,
    impedance_at,
    probe_netlist,
    solve_ac,
)

EPS = float(np.finfo(float).eps)


def parity_rtol(compiled: CompiledACNetlist, frequency: float) -> float:
    """Tolerance for oracle parity at one frequency.

    Two LU implementations agree to O(eps * cond(A)); random hypothesis
    circuits can reach cond ~1e8, so the bound adapts while staying
    orders of magnitude below any genuine stamping bug.  The flagship
    (well-conditioned) circuits are pinned at a strict 1e-9 in
    ``tests/test_ac.py``.
    """
    cond = np.linalg.cond(compiled.matrix_at(frequency).toarray())
    return max(1e-9, 100.0 * EPS * cond)

resistances = st.floats(
    min_value=1e-4, max_value=1e3, allow_nan=False, allow_infinity=False
)
inductances = st.floats(
    min_value=1e-12, max_value=1e-6, allow_nan=False, allow_infinity=False
)
capacitances = st.floats(
    min_value=1e-9, max_value=1e-3, allow_nan=False, allow_infinity=False
)
frequencies = st.floats(
    min_value=1e3, max_value=1e9, allow_nan=False, allow_infinity=False
)
loads = st.floats(
    min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
)


def build_rlc_ladder(
    rails: list[float],
    inductors: list[float],
    decaps: list[float],
    esrs: list[float],
    load: float,
) -> ACNetlist:
    """A driven RLC ladder: V source -> R, L rungs with C+ESR shunts,
    an AC load at the end."""
    net = ACNetlist()
    net.add_voltage_source("v", "n0", 1.0)
    for i, rail in enumerate(rails):
        net.add_resistor(f"rail[{i}]", f"n{i}", f"n{i}r", rail)
        net.add_inductor(f"coil[{i}]", f"n{i}r", f"n{i+1}", inductors[i])
        net.add_capacitor(f"decap[{i}]", f"n{i+1}", f"n{i+1}c", decaps[i])
        net.add_resistor(f"esr[{i}]", f"n{i+1}c", net.GROUND, esrs[i])
    net.add_current_source("load", f"n{len(rails)}", net.GROUND, load)
    return net


def assert_sweep_matches_scalar(net: ACNetlist, freqs: np.ndarray) -> None:
    compiled = net.compile_ac()
    sweep = compiled.solve(freqs)
    for k, frequency in enumerate(freqs):
        reference = solve_ac(net, float(frequency))
        rtol = parity_rtol(compiled, float(frequency))
        scale = max(
            (abs(reference.voltage(node)) for node in sweep.nodes),
            default=1.0,
        )
        scale = max(scale, 1e-12)
        for node in sweep.nodes:
            error = abs(sweep.voltage(node)[k] - reference.voltage(node))
            assert error <= rtol * scale, (
                f"node {node!r} at {frequency:.4g} Hz: "
                f"|dV| = {error:.3e} vs scale {scale:.3e}"
            )


@given(
    rails=st.lists(resistances, min_size=1, max_size=4),
    inductors=st.lists(inductances, min_size=4, max_size=4),
    decaps=st.lists(capacitances, min_size=4, max_size=4),
    esrs=st.lists(resistances, min_size=4, max_size=4),
    load=loads,
    freqs=st.lists(frequencies, min_size=1, max_size=6, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_sweep_voltages_match_scalar_oracle(
    rails, inductors, decaps, esrs, load, freqs
):
    """Every node phasor of the compiled sweep equals solve_ac's."""
    net = build_rlc_ladder(rails, inductors, decaps, esrs, load)
    assert_sweep_matches_scalar(net, np.array(sorted(freqs)))


@given(
    rails=st.lists(resistances, min_size=1, max_size=3),
    inductors=st.lists(inductances, min_size=3, max_size=3),
    decaps=st.lists(capacitances, min_size=3, max_size=3),
    esrs=st.lists(resistances, min_size=3, max_size=3),
    load=loads,
    freqs=st.lists(frequencies, min_size=1, max_size=5, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_impedance_probe_matches_scalar_loop(
    rails, inductors, decaps, esrs, load, freqs
):
    """impedance_at (compiled) equals a per-frequency solve_ac loop on
    the identical probe circuit."""
    net = build_rlc_ladder(rails, inductors, decaps, esrs, load)
    node = f"n{len(rails)}"
    grid = np.array(sorted(freqs))
    fast = impedance_at(net, node, grid)
    probe = probe_netlist(net, node)
    compiled = probe.compile_ac()
    scalar = np.array(
        [solve_ac(probe, float(f)).magnitude(node) for f in grid]
    )
    scale = max(float(scalar.max()), 1e-12)
    for k, f in enumerate(grid):
        rtol = parity_rtol(compiled, float(f))
        assert abs(fast[k] - scalar[k]) <= rtol * scale


@given(
    rails=st.lists(resistances, min_size=1, max_size=3),
    inductors=st.lists(inductances, min_size=3, max_size=3),
    decaps=st.lists(capacitances, min_size=3, max_size=3),
    esrs=st.lists(resistances, min_size=3, max_size=3),
    load=loads,
    frequency=frequencies,
)
@settings(max_examples=40, deadline=None)
def test_sweep_point_view_matches_scalar(
    rails, inductors, decaps, esrs, load, frequency
):
    """ACSweepSolution.at(k) reproduces the scalar ACSolution."""
    net = build_rlc_ladder(rails, inductors, decaps, esrs, load)
    compiled = net.compile_ac()
    sweep = compiled.solve(np.array([frequency]))
    point = sweep.at(0)
    reference = solve_ac(net, frequency)
    assert point.frequency_hz == frequency
    rtol = parity_rtol(compiled, frequency)
    scale = max(
        max(abs(v) for v in reference.node_voltages.values()), 1e-12
    )
    for node, value in reference.node_voltages.items():
        assert abs(point.voltage(node) - value) <= rtol * scale
