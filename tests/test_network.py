"""Netlist construction tests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SolverError
from repro.pdn.mna import solve_dc
from repro.pdn.network import (
    CurrentSource,
    Netlist,
    Resistor,
    VoltageSource,
    series_chain,
)


class TestElements:
    def test_resistor_valid(self):
        r = Resistor("r1", "a", "b", 1.0)
        assert r.resistance_ohm == 1.0

    def test_resistor_rejects_zero(self):
        with pytest.raises(ConfigError):
            Resistor("r1", "a", "b", 0.0)

    def test_resistor_rejects_short(self):
        with pytest.raises(ConfigError):
            Resistor("r1", "a", "a", 1.0)

    def test_current_source_rejects_negative(self):
        with pytest.raises(ConfigError):
            CurrentSource("i1", "a", "b", -1.0)

    def test_current_source_rejects_short(self):
        with pytest.raises(ConfigError):
            CurrentSource("i1", "a", "a", 1.0)

    def test_voltage_source_rejects_short(self):
        with pytest.raises(ConfigError):
            VoltageSource("v1", "a", "a", 1.0)


class TestNetlistBuilder:
    def test_add_resistor(self):
        net = Netlist()
        net.add_resistor("r1", "a", "b", 2.0)
        assert len(net.resistors) == 1

    def test_duplicate_names_rejected(self):
        net = Netlist()
        net.add_resistor("x", "a", "b", 1.0)
        with pytest.raises(ConfigError):
            net.add_resistor("x", "b", "c", 1.0)

    def test_duplicate_names_across_kinds_rejected(self):
        net = Netlist()
        net.add_resistor("x", "a", "b", 1.0)
        with pytest.raises(ConfigError):
            net.add_voltage_source("x", "a", 1.0)

    def test_add_load_sinks_to_ground(self):
        net = Netlist()
        load = net.add_load("l1", "a", 3.0)
        assert load.node_to == net.GROUND

    def test_source_with_impedance_creates_two_elements(self):
        net = Netlist()
        source, resistor = net.add_source_with_impedance("s", "out", 1.0, 1e-3)
        assert source.name == "s.v"
        assert resistor.name == "s.rout"
        assert resistor.node_b == "out"

    def test_nodes_excludes_ground(self):
        net = Netlist()
        net.add_resistor("r1", "a", net.GROUND, 1.0)
        assert net.nodes() == ["a"]

    def test_nodes_first_seen_order(self):
        net = Netlist()
        net.add_resistor("r1", "b", "a", 1.0)
        net.add_resistor("r2", "c", "a", 1.0)
        assert net.nodes() == ["b", "a", "c"]

    def test_element_count(self):
        net = Netlist()
        net.add_resistor("r1", "a", "b", 1.0)
        net.add_voltage_source("v1", "a", 5.0)
        net.add_load("l1", "b", 1.0)
        assert net.element_count == 3

    def test_total_load_current(self):
        net = Netlist()
        net.add_load("l1", "a", 2.0)
        net.add_load("l2", "b", 3.0)
        assert net.total_load_current_a() == pytest.approx(5.0)

    def test_validate_empty_rejected(self):
        with pytest.raises(ConfigError):
            Netlist().validate()

    def test_loads_without_a_path_to_ground_are_rejected_by_the_solver(self):
        # validate() leaves connectivity to the structural check, which
        # rejects the floating part by name (a Norton feed needs no
        # voltage source, see test_compiled_netlist.TestNortonStamp).
        net = Netlist()
        net.add_resistor("r", "a", "b", 1.0)
        net.add_load("l", "a", 1.0)
        net.validate()
        with pytest.raises(SolverError, match="^node '[ab]' floats"):
            solve_dc(net)

    def test_extend_merges(self):
        first = Netlist()
        first.add_resistor("r1", "a", "b", 1.0)
        second = Netlist()
        second.add_resistor("r2", "b", "c", 1.0)
        second.add_voltage_source("v", "a", 1.0)
        first.extend(second)
        assert first.element_count == 3

    def test_extend_name_clash_rejected(self):
        first = Netlist()
        first.add_resistor("r1", "a", "b", 1.0)
        second = Netlist()
        second.add_resistor("r1", "b", "c", 1.0)
        with pytest.raises(ConfigError):
            first.extend(second)


class TestSeriesChain:
    def test_builds_chain(self):
        net = Netlist()
        resistors = series_chain(net, "c", ["a", "b", "c"], [1.0, 2.0])
        assert [r.name for r in resistors] == ["c[0]", "c[1]"]
        assert resistors[1].resistance_ohm == 2.0

    def test_length_mismatch_rejected(self):
        net = Netlist()
        with pytest.raises(ConfigError):
            series_chain(net, "c", ["a", "b"], [1.0, 2.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "name, add",
    [
        ("resistance_ohm", lambda net, bad: net.add_resistor("r", "a", "b", bad)),
        ("current_a", lambda net, bad: net.add_load("l", "a", bad)),
        ("voltage_v", lambda net, bad: net.add_voltage_source("v", "a", bad)),
    ],
    ids=["resistor", "current-source", "voltage-source"],
)
def test_non_finite_element_values_are_rejected_by_name(name, add, bad):
    # An infinite resistor used to solve as an open edge, and a NaN one
    # surfaced only as a singular system.
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        add(Netlist(), bad)
