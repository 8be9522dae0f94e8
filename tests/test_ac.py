"""AC (phasor) MNA solver tests, including cross-validation against
the analytic ladder impedance model and strict parity between the
compiled sweep engine and the scalar solve_ac oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigError, SolverError
from repro.pdn.ac import (
    ACNetlist,
    CompiledACNetlist,
    impedance_at,
    probe_netlist,
    solve_ac,
)
from repro.pdn.impedance import pdn_impedance, pdn_impedance_mna
from repro.pdn.transient import PDNStage


class TestElements:
    def test_inductor_validation(self):
        net = ACNetlist()
        with pytest.raises(ConfigError):
            net.add_inductor("l", "a", "a", 1e-9)
        with pytest.raises(ConfigError):
            net.add_inductor("l2", "a", "b", 0.0)

    def test_capacitor_validation(self):
        net = ACNetlist()
        with pytest.raises(ConfigError):
            net.add_capacitor("c", "a", "b", 0.0)

    def test_reactive_nodes_discovered(self):
        net = ACNetlist()
        net.add_inductor("l", "a", "b", 1e-9)
        net.add_capacitor("c", "b", net.GROUND, 1e-6)
        assert set(net.nodes()) == {"a", "b"}

    def test_extend_ac(self):
        first = ACNetlist()
        first.add_resistor("r", "a", "0", 1.0)
        second = ACNetlist()
        second.add_inductor("l", "a", "b", 1e-9)
        first.extend_ac(second)
        assert len(first.inductors) == 1


class TestAnalyticCircuits:
    def test_rc_divider_cutoff(self):
        """R-C low-pass: |V_out/V_in| = 1/sqrt(2) at f = 1/(2 pi R C)."""
        r, c = 1e3, 1e-9
        f_c = 1.0 / (2 * math.pi * r * c)
        net = ACNetlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("r", "in", "out", r)
        net.add_capacitor("c", "out", net.GROUND, c)
        solution = solve_ac(net, f_c)
        assert solution.magnitude("out") == pytest.approx(
            1 / math.sqrt(2), rel=1e-6
        )

    def test_rl_divider_cutoff(self):
        """R-L high-pass: |V_L/V_in| = 1/sqrt(2) at f = R/(2 pi L)."""
        r, l = 10.0, 1e-6
        f_c = r / (2 * math.pi * l)
        net = ACNetlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("r", "in", "out", r)
        net.add_inductor("l", "out", net.GROUND, l)
        solution = solve_ac(net, f_c)
        assert solution.magnitude("out") == pytest.approx(
            1 / math.sqrt(2), rel=1e-6
        )

    def test_series_lc_resonance_short(self):
        """A series L-C branch is a near-short at resonance."""
        l, c = 1e-9, 1e-6
        f_0 = 1.0 / (2 * math.pi * math.sqrt(l * c))
        net = ACNetlist()
        net.add_resistor("damp", "in", net.GROUND, 1e6)
        net.add_inductor("l", "in", "mid", l)
        net.add_capacitor("c", "mid", net.GROUND, c)
        net.add_current_source("i", net.GROUND, "in", 1.0)
        z_at_res = solve_ac(net, f_0).magnitude("in")
        z_off_res = solve_ac(net, f_0 * 10).magnitude("in")
        assert z_at_res < z_off_res / 10

    def test_pure_resistive_matches_dc(self):
        net = ACNetlist()
        net.add_voltage_source("v", "in", 10.0)
        net.add_resistor("r1", "in", "mid", 1.0)
        net.add_resistor("r2", "mid", net.GROUND, 1.0)
        solution = solve_ac(net, 1e6)
        assert solution.magnitude("mid") == pytest.approx(5.0)

    def test_rejects_zero_frequency(self):
        net = ACNetlist()
        net.add_resistor("r", "a", "0", 1.0)
        with pytest.raises(ConfigError):
            solve_ac(net, 0.0)

    @pytest.mark.parametrize(
        "frequency, problem",
        [
            (math.nan, "finite"),
            (math.inf, "finite"),
            (-math.inf, "finite"),
            (0.0, "positive"),
            (-1.0, "positive"),
        ],
    )
    def test_rejects_a_bad_frequency_by_name(self, frequency, problem):
        net = ACNetlist()
        net.add_resistor("r", "a", "0", 1.0)
        message = f"^frequency_hz must be {problem}"
        with pytest.raises(ConfigError, match=message):
            solve_ac(net, frequency)


class TestImpedanceProbe:
    def build_single_stage(self) -> ACNetlist:
        """One PDN stage as an explicit netlist: V source -> R, L ->
        die node with decap (C + ESR)."""
        net = ACNetlist()
        net.add_voltage_source("vrm", "src", 1.0)
        net.add_resistor("r_series", "src", "mid", 0.05e-3)
        net.add_inductor("l_series", "mid", "die", 1e-9)
        net.add_capacitor("c_decap", "die", "cap_tap", 1e-6)
        net.add_resistor("esr", "cap_tap", net.GROUND, 0.3e-3)
        return net

    def test_cross_validation_against_ladder_analytic(self):
        """The generic AC solve must match the analytic ladder model
        across the band."""
        stage = PDNStage("s", 0.05e-3, 1e-9, 1e-6, 0.3e-3)
        freqs = np.logspace(4, 9, 40)
        analytic = pdn_impedance(
            [stage], frequencies_hz=freqs, source_impedance_ohm=1e-9
        ).impedance_ohm

        net = self.build_single_stage()
        numeric = impedance_at(net, "die", freqs)
        assert np.allclose(numeric, analytic, rtol=1e-3)

    def test_probe_does_not_mutate(self):
        net = self.build_single_stage()
        before = net.element_count
        impedance_at(net, "die", np.array([1e6]))
        assert net.element_count == before

    def test_impedance_positive(self):
        net = self.build_single_stage()
        values = impedance_at(net, "die", np.logspace(4, 8, 10))
        assert np.all(values > 0)

    def test_rejects_bad_frequencies(self):
        net = self.build_single_stage()
        with pytest.raises(ConfigError):
            impedance_at(net, "die", np.array([]))
        with pytest.raises(ConfigError):
            impedance_at(net, "die", np.array([-1.0]))

    def test_sweep_parity_with_scalar_oracle(self):
        """The acceptance bound: the compiled sweep must match the
        scalar solve_ac oracle to 1e-9 relative on every node phasor
        across a dense log grid of the flagship probe circuit."""
        probe = probe_netlist(self.build_single_stage(), "die")
        freqs = np.logspace(3, 9, 200)
        sweep = probe.compile_ac().solve(freqs)
        for k, frequency in enumerate(freqs):
            reference = solve_ac(probe, float(frequency))
            scale = max(
                abs(reference.voltage(node)) for node in sweep.nodes
            )
            for node in sweep.nodes:
                delta = abs(sweep.voltage(node)[k] - reference.voltage(node))
                assert delta <= 1e-9 * scale

    def test_impedance_matches_scalar_probe_loop(self):
        """impedance_at (compiled path) == scalar per-frequency loop."""
        net = self.build_single_stage()
        freqs = np.logspace(4, 9, 120)
        fast = impedance_at(net, "die", freqs)
        probe = probe_netlist(net, "die")
        scalar = np.array(
            [solve_ac(probe, float(f)).magnitude("die") for f in freqs]
        )
        assert np.all(np.abs(fast - scalar) <= 1e-9 * scalar.max())

    def test_bulk_decap_suppresses_the_peak(self):
        """A branched bulk decap (which the ladder analytic cannot
        express) must suppress the single-stage anti-resonance peak.
        Note it may *raise* |Z| slightly off-peak — the well-known
        anti-resonance interaction — so only the peak is asserted."""
        freqs = np.logspace(5, 7.5, 60)
        single = self.build_single_stage()
        z_single = impedance_at(single, "die", freqs)
        peak_index = int(np.argmax(z_single))

        branched = self.build_single_stage()
        branched.add_capacitor("c_bulk", "die", "bulk_tap", 100e-6)
        branched.add_resistor("esr_bulk", "bulk_tap", branched.GROUND, 1e-3)
        z_branched = impedance_at(branched, "die", freqs)
        assert z_branched[peak_index] < z_single[peak_index]
        assert z_branched.max() < z_single.max()


class TestCompiledACNetlist:
    def build(self) -> ACNetlist:
        net = ACNetlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("r", "in", "out", 1e3)
        net.add_capacitor("c", "out", net.GROUND, 1e-9)
        net.add_inductor("l", "out", "tail", 1e-6)
        net.add_resistor("rt", "tail", net.GROUND, 10.0)
        net.add_current_source("i", net.GROUND, "out", 0.5)
        return net

    def test_matrix_matches_scalar_stamps(self):
        """matrix_at reproduces the scalar path's assembled matrix."""
        net = self.build()
        compiled = net.compile_ac()
        frequency = 2.7e6
        fast = compiled.matrix_at(frequency).toarray()

        # Rebuild via the scalar oracle's internals: solve and compare
        # A @ x == rhs with the scalar solution.
        reference = solve_ac(net, frequency)
        x = np.array(
            [reference.voltage(node) for node in compiled.nodes]
            + [0.0] * (compiled.size - compiled.n_nodes),
            dtype=complex,
        )
        # Recover the source branch currents from the node equations.
        residual = compiled.rhs - fast @ x
        x[compiled.n_nodes :] = np.linalg.lstsq(
            fast[:, compiled.n_nodes :], residual, rcond=None
        )[0]
        assert np.allclose(fast @ x, compiled.rhs, atol=1e-9)

    @pytest.mark.parametrize(
        "inductors, capacitors",
        [
            (([0, 1], [1], [1e-6]), ([], [], [])),
            (([0], [1], [1e-6]), ([0], [-1], [1e-9, 2e-9])),
            (([0], [99], [1e-6]), ([], [], [])),
            (([], [], []), ([-2], [0], [1e-9])),
            (([0], [1], [0.0]), ([], [], [])),
            (([], [], []), ([0], [-1], [-1e-9])),
            (([], [], []), ([0], [-1], [float("nan")])),
        ],
        ids=[
            "inductor-lengths",
            "capacitor-lengths",
            "inductor-endpoint",
            "capacitor-endpoint",
            "zero-inductance",
            "negative-capacitance",
            "nan-capacitance",
        ],
    )
    def test_reactive_arrays_are_checked(self, inductors, capacitors):
        """The constructor checks the L/C arrays it adds to a compiled
        netlist: lengths, endpoint rows and positive values."""
        compiled = self.build().compile()
        with pytest.raises(ConfigError):
            CompiledACNetlist(compiled, *inductors, *capacitors)

    def test_constructor_matches_compile_ac(self):
        """Building from a compiled netlist plus L/C rows is exactly
        what compile_ac does."""
        net = self.build()
        compiled = net.compile()
        index = compiled.node_index
        direct = CompiledACNetlist(
            compiled,
            [index["out"]],
            [index["tail"]],
            [1e-6],
            [index["out"]],
            [index[net.GROUND]],
            [1e-9],
        )
        reference = net.compile_ac()
        assert direct.nodes == reference.nodes
        assert np.array_equal(direct.values_at(1e6), reference.values_at(1e6))
        assert np.array_equal(direct.rhs, reference.rhs)

    def test_values_at_splits_kinds(self):
        """Resistive entries are frequency flat; reactive ones scale."""
        compiled = self.build().compile_ac()
        low = compiled.values_at(1e3)
        high = compiled.values_at(1e9)
        assert np.allclose(low.real, high.real)
        assert not np.allclose(low.imag, high.imag)

    def test_sweep_rejects_bad_frequencies(self):
        compiled = self.build().compile_ac()
        with pytest.raises(ConfigError):
            compiled.solve(np.array([]))
        with pytest.raises(ConfigError):
            compiled.solve(np.array([0.0]))
        with pytest.raises(ConfigError):
            compiled.solve(np.array([[1e6]]))

    def test_sweep_snapshot_ignores_later_mutation(self):
        net = self.build()
        engine = net.compile_ac()
        before = engine.solve(np.array([1e6])).voltage("out")[0]
        net.add_resistor("shunt", "out", net.GROUND, 1e-3)
        after = engine.solve(np.array([1e6])).voltage("out")[0]
        assert before == after

    def test_sweep_solution_ground_and_unknown_nodes(self):
        sweep = self.build().compile_ac().solve(np.array([1e5, 1e6]))
        assert np.all(sweep.voltage("0") == 0.0)
        assert np.all(sweep.magnitude("out") > 0.0)
        with pytest.raises(ConfigError):
            sweep.voltage("nope")

    def test_sparse_and_dense_paths_agree(self, monkeypatch):
        """Forcing the sparse per-frequency path must not change
        results (the dense batch is an implementation detail)."""
        import repro.pdn.ac as ac_module

        net = self.build()
        freqs = np.logspace(3, 9, 25)
        dense = net.compile_ac().solve(freqs)
        monkeypatch.setattr(ac_module, "DENSE_SWEEP_CUTOFF", 0)
        sparse = net.compile_ac().solve(freqs)
        assert np.allclose(
            dense.voltage_matrix, sparse.voltage_matrix, rtol=1e-9
        )

    def test_floating_subcircuit_raises(self, monkeypatch):
        """Both sweep branches refuse a floating island: the dense
        batch through its probe column, the sparse one through the
        probed LU (``probed_lu``), which names the frequency."""
        import repro.pdn.ac as ac_module

        net = ACNetlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("r", "in", net.GROUND, 1.0)
        # Floating island driven by nothing, referenced by nothing.
        net.add_capacitor("c_f", "island_a", "island_b", 1e-9)
        net.add_current_source("i_f", "island_a", "island_b", 1.0)
        with pytest.raises(SolverError):
            net.compile_ac().solve(np.array([1e6]))
        monkeypatch.setattr(ac_module, "DENSE_SWEEP_CUTOFF", 0)
        with pytest.raises(SolverError, match="singular at 1e\\+06 Hz"):
            net.compile_ac().solve(np.array([1e6]))


class TestLadderCrossValidation:
    STAGES = [
        PDNStage("board", 0.2e-3, 10e-9, 2e-3, 0.2e-3),
        PDNStage("package", 0.1e-3, 0.5e-9, 200e-6, 0.3e-3),
        PDNStage("die", 0.05e-3, 20e-12, 2e-6, 0.05e-3),
    ]

    def test_mna_path_matches_analytic(self):
        freqs = np.logspace(3, 9, 121)
        analytic = pdn_impedance(self.STAGES, freqs).impedance_ohm
        numeric = pdn_impedance_mna(self.STAGES, freqs).impedance_ohm
        assert np.all(
            np.abs(numeric - analytic) <= 1e-9 * analytic.max()
        )

    def test_zero_esr_and_zero_source_impedance(self):
        stages = [PDNStage("s", 1e-3, 1e-9, 1e-6, 0.0)]
        freqs = np.logspace(4, 8, 40)
        analytic = pdn_impedance(
            stages, freqs, source_impedance_ohm=0.0
        ).impedance_ohm
        numeric = pdn_impedance_mna(
            stages, freqs, source_impedance_ohm=0.0
        ).impedance_ohm
        assert np.all(
            np.abs(numeric - analytic) <= 1e-9 * analytic.max()
        )

    def test_default_frequency_grid(self):
        profile = pdn_impedance_mna(self.STAGES)
        assert len(profile.frequencies_hz) == 361
        assert profile.peak_impedance_ohm > 0
