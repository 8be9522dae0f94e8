"""MNA DC solver tests against hand-solvable circuits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, SolverError
from repro.pdn.mna import FactorizedPDN, solve_dc
from repro.pdn.network import Netlist


class TestVoltageDivider:
    def test_divider_voltage(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 10.0)
        net.add_resistor("r1", "in", "mid", 1.0)
        net.add_resistor("r2", "mid", net.GROUND, 1.0)
        result = solve_dc(net)
        assert result.voltage("mid") == pytest.approx(5.0)

    def test_divider_current(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 10.0)
        net.add_resistor("r1", "in", "mid", 3.0)
        net.add_resistor("r2", "mid", net.GROUND, 2.0)
        result = solve_dc(net)
        assert result.resistor_currents["r1"] == pytest.approx(2.0)

    def test_source_current_equals_branch_current(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 10.0)
        net.add_resistor("r1", "in", net.GROUND, 5.0)
        result = solve_dc(net)
        assert result.source_currents["v"] == pytest.approx(2.0)

    def test_loss_i2r(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 10.0)
        net.add_resistor("r1", "in", net.GROUND, 5.0)
        result = solve_dc(net)
        assert result.resistor_losses["r1"] == pytest.approx(20.0)


class TestCurrentSourceCircuits:
    def test_load_through_resistor(self):
        # 1 V source, 1 mOhm feed, 100 A load -> 0.9 V at the load.
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("feed", "in", "pol", 1e-3)
        net.add_load("cpu", "pol", 100.0)
        result = solve_dc(net)
        assert result.voltage("pol") == pytest.approx(0.9)

    def test_current_source_direction(self):
        # Source pushing current INTO a node raises its voltage.
        net = Netlist()
        net.add_voltage_source("v", "a", 0.0)
        net.add_resistor("r", "a", "b", 1.0)
        net.add_current_source("i", net.GROUND, "b", 2.0)
        result = solve_dc(net)
        assert result.voltage("b") == pytest.approx(2.0)

    def test_two_loads_superpose(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("feed", "in", "pol", 1e-3)
        net.add_load("l1", "pol", 40.0)
        net.add_load("l2", "pol", 60.0)
        result = solve_dc(net)
        assert result.voltage("pol") == pytest.approx(0.9)


class TestWheatstoneBridge:
    def test_balanced_bridge_carries_no_bridge_current(self):
        net = Netlist()
        net.add_voltage_source("v", "top", 10.0)
        net.add_resistor("ra", "top", "left", 100.0)
        net.add_resistor("rb", "top", "right", 100.0)
        net.add_resistor("rc", "left", net.GROUND, 100.0)
        net.add_resistor("rd", "right", net.GROUND, 100.0)
        net.add_resistor("bridge", "left", "right", 50.0)
        result = solve_dc(net)
        assert result.resistor_currents["bridge"] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_unbalanced_bridge(self):
        net = Netlist()
        net.add_voltage_source("v", "top", 10.0)
        net.add_resistor("ra", "top", "left", 100.0)
        net.add_resistor("rb", "top", "right", 200.0)
        net.add_resistor("rc", "left", net.GROUND, 100.0)
        net.add_resistor("rd", "right", net.GROUND, 100.0)
        net.add_resistor("bridge", "left", "right", 50.0)
        result = solve_dc(net)
        assert abs(result.resistor_currents["bridge"]) > 1e-3


class TestMultipleSources:
    def test_two_equal_sources_share_symmetric_load(self):
        net = Netlist()
        net.add_source_with_impedance("s1", "bus", 1.0, 1e-3)
        net.add_source_with_impedance("s2", "bus", 1.0, 1e-3)
        net.add_load("load", "bus", 100.0)
        result = solve_dc(net)
        assert result.resistor_currents["s1.rout"] == pytest.approx(50.0)
        assert result.resistor_currents["s2.rout"] == pytest.approx(50.0)

    def test_asymmetric_impedance_shifts_share(self):
        net = Netlist()
        net.add_source_with_impedance("s1", "bus", 1.0, 1e-3)
        net.add_source_with_impedance("s2", "bus", 1.0, 3e-3)
        net.add_load("load", "bus", 100.0)
        result = solve_dc(net)
        assert result.resistor_currents["s1.rout"] == pytest.approx(75.0)
        assert result.resistor_currents["s2.rout"] == pytest.approx(25.0)

    def test_floating_voltage_source_between_nodes(self):
        # A source between two non-ground nodes (level shifter).
        net = Netlist()
        net.add_voltage_source("v1", "a", 5.0)
        net.add_voltage_source("v2", "b", 2.0, node_minus="a")
        net.add_resistor("r", "b", net.GROUND, 1.0)
        result = solve_dc(net)
        assert result.voltage("b") == pytest.approx(7.0)


class TestSolutionQueries:
    def test_loss_by_prefix(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("pcb.r1", "in", "m", 1e-3)
        net.add_resistor("pkg.r1", "m", net.GROUND, 1e-3)
        result = solve_dc(net)
        total = result.total_resistive_loss_w
        assert result.loss_by_prefix("pcb.") + result.loss_by_prefix(
            "pkg."
        ) == pytest.approx(total)

    def test_ground_voltage_is_zero(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("r", "in", net.GROUND, 1.0)
        result = solve_dc(net)
        assert result.voltage("0") == 0.0

    def test_min_voltage(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("r1", "in", "mid", 1.0)
        net.add_resistor("r2", "mid", net.GROUND, 1.0)
        result = solve_dc(net)
        assert result.min_voltage() == pytest.approx(0.5)


class TestFailureModes:
    def test_floating_current_source_network_fails(self):
        # A current source into a node connected only through itself.
        net = Netlist()
        net.add_voltage_source("v", "a", 1.0)
        net.add_resistor("r", "a", net.GROUND, 1.0)
        net.add_current_source("i", "float1", "float2", 1.0)
        net.add_resistor("rf", "float1", "float2", 1.0)
        with pytest.raises(SolverError):
            solve_dc(net)

    def test_power_balance_check_passes_on_valid_network(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 48.0)
        net.add_resistor("r", "in", "out", 0.1)
        net.add_load("l", "out", 10.0)
        result = solve_dc(net, check=True)
        assert result.voltage("out") == pytest.approx(47.0)


def island_netlist(resistors, load=None, source=True) -> Netlist:
    """A netlist of ``(a, b, ohm)`` resistors ("gnd" is ground), with a
    1 V source on ``a0`` and an optional ``(from, to, amp)`` load."""
    net = Netlist()
    if source:
        net.add_voltage_source("v", "a0", 1.0)
    for k, (a, b, ohm) in enumerate(resistors):
        net.add_resistor(
            f"r{k}",
            net.GROUND if a == "gnd" else a,
            net.GROUND if b == "gnd" else b,
            ohm,
        )
    if load is not None:
        net.add_current_source("i", *load)
    return net


class TestFloatingSubcircuits:
    """A part with no path to ground raises by structure, whatever
    pivot order the factorization takes and however small its probe
    error would be."""

    def test_loaded_island_under_the_probe_tolerance(self):
        # The probe error of this island is 2.9e-4, under
        # SINGULARITY_PROBE_TOL; unchecked, it solves to -230.6 V.
        net = island_netlist(
            [
                ("a0", "gnd", 18.444630160455954),
                ("a0", "a1", 667.3451127698698),
                ("f0", "f1", 234.35995835390645),
                ("f0", "f2", 1.9700737508588866),
                ("f1", "f3", 3.067877901141093),
                ("f0", "f2", 78.41268954820855),
            ],
            load=("f0", "f3", 2.6995627908897),
        )
        with pytest.raises(SolverError, match="'f0' floats"):
            solve_dc(net)

    def test_island_missed_by_the_colamd_probe(self):
        net = island_netlist(
            [
                ("a0", "gnd", 59.39496341427966),
                ("a0", "a1", 0.07392682547908994),
                ("f0", "f1", 0.0025836270726722183),
                ("f1", "f2", 6.117913032742271),
                ("f1", "f3", 18.61645212798667),
            ]
        )
        with pytest.raises(SolverError, match="floats"):
            solve_dc(net)

    def test_island_missed_by_the_minimum_degree_probe(self):
        net = island_netlist(
            [
                ("a0", "gnd", 106.40062114493273),
                ("a0", "a1", 3.93384021588026),
                ("a1", "a2", 14.138468288042205),
                ("a2", "a3", 0.9039509157045229),
                ("f0", "f1", 0.005604017653096347),
                ("f0", "f1", 79.02719476700788),
            ]
        )
        with pytest.raises(SolverError, match="floats"):
            solve_dc(net)

    def test_island_behind_a_floating_voltage_source(self):
        # A source between two island nodes fixes their difference,
        # not their level.
        net = island_netlist([("a0", "gnd", 1.0), ("f0", "f1", 1.0)])
        net.add_voltage_source("vf", "f0", 0.5, node_minus="f1")
        with pytest.raises(SolverError, match="floats"):
            solve_dc(net)

    @pytest.mark.parametrize("source", [False, True], ids=["nodal", "mna"])
    def test_random_islands_always_raise(self, source):
        # A grounded chain beside a random floating tree with extra
        # parallel or loop resistors; with a voltage source, half of
        # the islands are also fed by a current source.
        rng = np.random.default_rng([19, int(source)])
        for _ in range(500):
            grounded = [("a0", "gnd", 10 ** rng.uniform(-1, 2.5))]
            for k in range(1, int(rng.integers(1, 4))):
                grounded.append((f"a{k-1}", f"a{k}", 10 ** rng.uniform(-2, 3)))
            size = int(rng.integers(2, 5))
            island = [
                (f"f{rng.integers(0, k)}", f"f{k}", 10 ** rng.uniform(-3, 3))
                for k in range(1, size)
            ]
            for _ in range(int(rng.integers(0, 3))):
                p, q = rng.choice(size, 2, replace=False)
                island.append((f"f{p}", f"f{q}", 10 ** rng.uniform(-3, 3)))
            load = None
            if source and rng.random() < 0.5:
                p, q = rng.choice(size, 2, replace=False)
                load = (f"f{p}", f"f{q}", rng.uniform(0.1, 5.0))
            net = island_netlist(grounded + island, load, source)
            with pytest.raises(SolverError, match="floats"):
                FactorizedPDN(net)


class TestSolveModified:
    """Woodbury-corrected low-rank modified solves."""

    def parallel_feeds(self) -> Netlist:
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("feed_a", "in", "pol", 1e-3)
        net.add_resistor("feed_b", "in", "pol", 2e-3)
        net.add_load("cpu", "pol", 30.0)
        return net

    def dual_source(self) -> Netlist:
        net = Netlist()
        net.add_source_with_impedance("vr0", "bus", 1.0, 1e-3)
        net.add_source_with_impedance("vr1", "bus", 1.0, 2e-3)
        net.add_load("cpu", "bus", 100.0)
        return net

    def rout(self, solver: FactorizedPDN, name: str) -> int:
        """Index of a regulator's ``r_out`` resistor: removing it is the
        MNA form of a failed regulator."""
        return solver.compiled.res_names.index(f"{name}.rout")

    def test_no_modification_equals_solve(self):
        solver = FactorizedPDN(self.parallel_feeds())
        base = solver.solve()
        modified = solver.solve_modified()
        assert modified.node_voltage_array == pytest.approx(
            base.node_voltage_array
        )

    def test_removed_feed_matches_hand_calc(self):
        # Opening feed_a leaves 30 A through 2 mOhm: V_pol = 0.94 V.
        solver = FactorizedPDN(self.parallel_feeds())
        result = solver.solve_modified(remove_resistors=(0,))
        assert result.voltage("pol") == pytest.approx(0.94)
        assert result.resistor_currents["feed_a"] == 0.0
        assert result.resistor_losses["feed_a"] == 0.0
        assert result.resistor_currents["feed_b"] == pytest.approx(30.0)

    def test_disabled_source_matches_hand_calc(self):
        # With vr0's rout removed, vr1 alone carries 100 A through
        # 2 mOhm.
        solver = FactorizedPDN(self.dual_source())
        result = solver.solve_modified(remove_resistors=self.rout(solver, "vr0"))
        assert result.voltage("bus") == pytest.approx(0.8)
        assert result.source_currents["vr1.v"] == pytest.approx(100.0)
        assert result.resistor_currents["vr0.rout"] == 0.0
        # The dead source's row stays: it carries no current (to
        # rounding, not snapped) and holds its EMF node at its EMF.
        assert result.source_currents["vr0.v"] == pytest.approx(0.0, abs=1e-9)
        assert result.voltage(("vr0", "emf")) == pytest.approx(1.0)

    def test_methods_agree(self):
        solver = FactorizedPDN(self.dual_source())
        failed = self.rout(solver, "vr1")
        fast = solver.solve_modified(remove_resistors=failed, method="woodbury")
        oracle = solver.solve_modified(remove_resistors=failed, method="refactor")
        assert fast.node_voltage_array == pytest.approx(
            oracle.node_voltage_array, rel=1e-9
        )

    def test_base_factorization_is_untouched(self):
        solver = FactorizedPDN(self.dual_source())
        before = solver.solve().node_voltage_array.copy()
        solver.solve_modified(remove_resistors=self.rout(solver, "vr0"))
        after = solver.solve().node_voltage_array
        assert after == pytest.approx(before)

    def test_rejects_bad_indices(self):
        solver = FactorizedPDN(self.parallel_feeds())
        with pytest.raises(SolverError):
            solver.solve_modified(remove_resistors=(5,))
        with pytest.raises(SolverError):
            solver.solve_modified(remove_resistors=(-1,))

    def test_rejects_an_unknown_method_by_name(self):
        # The same ConfigError as GridPDN.solve_disabled_many's, before
        # any solve; the valid methods agree.
        solver = FactorizedPDN(self.dual_source())
        rout = self.rout(solver, "vr0")
        with pytest.raises(ConfigError, match="^unknown method 'sideways'"):
            solver.solve_modified(remove_resistors=(rout,), method="sideways")
        with pytest.raises(ConfigError, match="method"):
            solver.solve_modified_many([(), (rout,)], method="")
        oracle = solver.solve_modified(remove_resistors=(rout,), method="refactor")
        for method in ("auto", "woodbury"):
            got = solver.solve_modified(remove_resistors=(rout,), method=method)
            assert got.node_voltage_array == pytest.approx(
                oracle.node_voltage_array, rel=1e-9
            )

    def test_rejects_non_index_values_by_name(self):
        # A fraction or a boolean is not an element index (an int64
        # cast would quietly pick element 1), and NaN fails by name.
        feeds = FactorizedPDN(self.parallel_feeds())
        for bad in ((1.7,), (True,), (float("nan"),)):
            with pytest.raises(ConfigError, match="^remove_resistors "):
                feeds.solve_modified(remove_resistors=bad)
        # Whole-valued floats name the same element.
        np.testing.assert_array_equal(
            feeds.solve_modified(remove_resistors=(1.0,)).node_voltage_array,
            feeds.solve_modified(remove_resistors=(1,)).node_voltage_array,
        )

    @pytest.mark.parametrize(
        "scenario",
        [((0,), (1,)), ((), ()), [[0, 1]]],
        ids=["pair", "empty-pair", "nested"],
    )
    def test_rejects_a_two_dimensional_scenario_by_name(self, scenario):
        # A scenario is one flat set of removed resistors: a nested
        # pair must not be read as the union of its entries.
        solver = FactorizedPDN(self.parallel_feeds())
        with pytest.raises(ConfigError, match="^remove_resistors "):
            solver.solve_modified_many([scenario])

    def test_rejects_a_ragged_scenario_by_name(self):
        solver = FactorizedPDN(self.parallel_feeds())
        with pytest.raises(ConfigError, match="^remove_resistors .*ragged"):
            solver.solve_modified_many([((0,), (1, 0))])

    def test_disabling_only_source_fails(self):
        # Removing the only source's only feed islands the load: the
        # Woodbury correction is ill-conditioned and the fallback must
        # reject the singular refactorization too.
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("r", "in", "pol", 1e-3)
        net.add_load("cpu", "pol", 10.0)
        solver = FactorizedPDN(net)
        with pytest.raises(SolverError):
            solver.solve_modified(remove_resistors=(0,))

    def test_woodbury_method_raises_on_ill_conditioned(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("r", "in", "pol", 1e-3)
        net.add_load("cpu", "pol", 10.0)
        solver = FactorizedPDN(net)
        with pytest.raises(SolverError):
            solver.solve_modified(remove_resistors=(0,), method="woodbury")

    def test_scenario_overrides_compose(self):
        # Load/source overrides and modifications apply together.
        solver = FactorizedPDN(self.dual_source())
        result = solver.solve_modified(
            remove_resistors=self.rout(solver, "vr0"),
            cs_amp=np.array([50.0]),
            vs_volt=np.array([1.0, 2.0]),
        )
        assert result.voltage("bus") == pytest.approx(2.0 - 50.0 * 2e-3)
