"""Unit tests for the compiled netlist and cached-factorization API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, SolverError
from repro.pdn.fast_poisson import StructuredGridPDN
from repro.pdn.grid import GridPDN
from repro.pdn.mna import FactorizedPDN, solve_dc
from repro.pdn.network import GROUND_INDEX, CompiledNetlist, Netlist
from repro.pdn.powermap import PowerMap


def feed_netlist() -> Netlist:
    net = Netlist()
    net.add_voltage_source("v", "in", 1.0)
    net.add_resistor("feed", "in", "pol", 1e-3)
    net.add_load("cpu", "pol", 100.0)
    return net


class TestCompile:
    def test_roundtrip_counts(self):
        compiled = feed_netlist().compile()
        assert compiled.n_nodes == 2
        assert compiled.n_vsources == 1
        assert compiled.size == 3
        assert compiled.element_count == 3

    def test_ground_encoded_as_sentinel(self):
        compiled = feed_netlist().compile()
        assert compiled.cs_to[0] == GROUND_INDEX
        assert compiled.vs_minus[0] == GROUND_INDEX

    def test_names_preserved(self):
        compiled = feed_netlist().compile()
        assert compiled.res_names == ("feed",)
        assert compiled.cs_names == ("cpu",)
        assert compiled.vs_names == ("v",)

    def test_node_index_maps_ground(self):
        compiled = feed_netlist().compile()
        assert compiled.node_index["0"] == GROUND_INDEX
        assert set(compiled.node_index) == {"in", "pol", "0"}

    def test_compile_is_snapshot(self):
        net = feed_netlist()
        compiled = net.compile()
        net.add_load("late", "pol", 5.0)
        assert len(compiled.cs_amp) == 1

    def test_total_load_current(self):
        compiled = feed_netlist().compile()
        assert compiled.total_load_current_a() == pytest.approx(100.0)

    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(ConfigError):
            CompiledNetlist(
                nodes=("a",),
                res_a=np.array([0]),
                res_b=np.array([GROUND_INDEX]),
                res_ohm=np.array([0.0]),
            )

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ConfigError):
            CompiledNetlist(
                nodes=("a",),
                res_a=np.array([5]),
                res_b=np.array([GROUND_INDEX]),
                res_ohm=np.array([1.0]),
            )

    def test_lazy_default_names(self):
        compiled = CompiledNetlist(
            nodes=("a",),
            res_a=np.array([0]),
            res_b=np.array([GROUND_INDEX]),
            res_ohm=np.array([1.0]),
            vs_plus=np.array([0]),
            vs_minus=np.array([GROUND_INDEX]),
            vs_volt=np.array([1.0]),
        )
        assert compiled.res_names == ("R[0]",)
        assert compiled.vs_names == ("V[0]",)

    def test_wrong_length_names_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            CompiledNetlist(
                nodes=("a", "b"),
                res_a=np.array([0, 1]),
                res_b=np.array([GROUND_INDEX, GROUND_INDEX]),
                res_ohm=np.array([1.0, 2.0]),
                vs_plus=np.array([0]),
                vs_minus=np.array([GROUND_INDEX]),
                vs_volt=np.array([1.0]),
                res_names=("only-one",),
            )

    def test_wrong_length_callable_names_rejected_on_resolution(self):
        compiled = CompiledNetlist(
            nodes=("a",),
            res_a=np.array([0]),
            res_b=np.array([GROUND_INDEX]),
            res_ohm=np.array([1.0]),
            vs_plus=np.array([0]),
            vs_minus=np.array([GROUND_INDEX]),
            vs_volt=np.array([1.0]),
            res_names=lambda: ["a", "b"],
        )
        with pytest.raises(ConfigError):
            compiled.res_names

    def test_callable_names_resolved_once(self):
        calls = {"n": 0}

        def names():
            calls["n"] += 1
            return ["only"]

        compiled = CompiledNetlist(
            nodes=("a",),
            res_a=np.array([0]),
            res_b=np.array([GROUND_INDEX]),
            res_ohm=np.array([1.0]),
            vs_plus=np.array([0]),
            vs_minus=np.array([GROUND_INDEX]),
            vs_volt=np.array([1.0]),
            res_names=names,
        )
        assert compiled.res_names == ("only",)
        assert compiled.res_names == ("only",)
        assert calls["n"] == 1


class TestWithSources:
    def test_shares_structure(self):
        compiled = feed_netlist().compile()
        scaled = compiled.with_sources(cs_amp=np.array([50.0]))
        assert scaled.res_ohm is compiled.res_ohm
        assert scaled.cs_amp[0] == 50.0
        assert compiled.cs_amp[0] == 100.0

    def test_shape_checked(self):
        compiled = feed_netlist().compile()
        with pytest.raises(ConfigError):
            compiled.with_sources(cs_amp=np.array([1.0, 2.0]))
        with pytest.raises(ConfigError):
            compiled.with_sources(vs_volt=np.array([1.0, 2.0]))


class TestFactorizedPDN:
    def test_solve_matches_solve_dc(self):
        net = feed_netlist()
        solver = FactorizedPDN(net)
        direct = solve_dc(net)
        reused = solver.solve()
        assert reused.voltage("pol") == pytest.approx(direct.voltage("pol"))

    def test_rhs_override_scales_linearly(self):
        solver = FactorizedPDN(feed_netlist())
        half = solver.solve(cs_amp=np.array([50.0]))
        full = solver.solve()
        assert 1.0 - half.voltage("pol") == pytest.approx(
            (1.0 - full.voltage("pol")) / 2.0
        )

    def test_voltage_override(self):
        solver = FactorizedPDN(feed_netlist())
        boosted = solver.solve(vs_volt=np.array([2.0]))
        assert boosted.voltage("pol") == pytest.approx(1.9)

    def test_solve_many_columns_match_individual_solves(self):
        solver = FactorizedPDN(feed_netlist())
        base = solver.rhs()
        stacked = np.column_stack([base, 2.0 * base, 0.5 * base])
        batch = solver.solve_many(stacked)
        for column, scale in zip(batch.T, (1.0, 2.0, 0.5)):
            single = solver.solve_rhs(base * scale)
            assert np.allclose(column, single, rtol=1e-12, atol=1e-12)

    def test_solve_many_rejects_wrong_shape(self):
        solver = FactorizedPDN(feed_netlist())
        with pytest.raises(SolverError):
            solver.solve_many(np.zeros((2, 4)))

    def test_singular_topology_raises_at_factorization(self):
        net = Netlist()
        net.add_voltage_source("v", "a", 1.0)
        net.add_resistor("r", "a", net.GROUND, 1.0)
        net.add_resistor("island", "f1", "f2", 1.0)
        net.add_current_source("i", "f1", "f2", 1.0)
        with pytest.raises(SolverError):
            FactorizedPDN(net)


class TestDCSolutionViews:
    def test_dict_views_match_arrays(self):
        solution = solve_dc(feed_netlist())
        compiled = solution.compiled
        for i, name in enumerate(compiled.res_names):
            assert solution.resistor_currents[name] == (
                solution.resistor_current_array[i]
            )
            assert solution.resistor_losses[name] == (
                solution.resistor_loss_array[i]
            )
        for i, node in enumerate(compiled.nodes):
            assert solution.node_voltages[node] == (
                solution.node_voltage_array[i]
            )
        for i, name in enumerate(compiled.vs_names):
            assert solution.source_currents[name] == (
                solution.source_current_array[i]
            )

    def test_loss_by_prefix_matches_dict_sum(self):
        net = Netlist()
        net.add_voltage_source("v", "in", 1.0)
        net.add_resistor("pcb.r1", "in", "m", 1e-3)
        net.add_resistor("pkg.r1", "m", net.GROUND, 1e-3)
        solution = solve_dc(net)
        assert solution.loss_by_prefix("pcb.") == pytest.approx(
            solution.resistor_losses["pcb.r1"]
        )


def hotspot_grid(n: int = 12) -> GridPDN:
    grid = GridPDN(0.02, 0.02, 1e-3, nx=n, ny=n)
    grid.set_sinks(PowerMap.hotspot_mixture(), 100.0)
    grid.add_source("a", 0.0, 0.5, 1.0, 1e-3)
    grid.add_source("b", 1.0, 0.5, 1.0, 1e-3)
    return grid


class TestGridFactorizationCache:
    """The factorization is cached under the design key, which sink
    and voltage edits keep and topology edits change."""

    def test_sink_change_reuses_factorization(self):
        grid = hotspot_grid()
        grid.solve()
        key, structure = grid.design.key, grid._ensure_structure()
        grid.set_sinks(PowerMap.uniform(), 50.0)
        assert grid.design.key == key
        grid.solve()
        assert grid._ensure_structure() is structure

    def test_voltage_change_reuses_factorization(self):
        grid = hotspot_grid()
        grid.solve()
        key, structure = grid.design.key, grid._ensure_structure()
        grid.clear_sources()
        grid.add_source("a", 0.0, 0.5, 0.95, 1e-3)
        grid.add_source("b", 1.0, 0.5, 0.95, 1e-3)
        assert grid.design.key == key
        grid.solve()
        assert grid._ensure_structure() is structure

    def test_source_move_refactorizes(self):
        grid = hotspot_grid()
        grid.solve()
        key, structure = grid.design.key, grid._ensure_structure()
        grid.clear_sources()
        grid.add_source("a", 0.5, 0.5, 1.0, 1e-3)
        grid.add_source("b", 1.0, 0.5, 1.0, 1e-3)
        assert grid.design.key != key
        grid.solve()
        assert grid._ensure_structure() is not structure

    def test_cached_solution_matches_fresh_grid(self):
        """A sink change solved through the cache equals a cold solve."""
        grid = hotspot_grid()
        grid.solve()  # prime with the hotspot map
        grid.set_sinks(PowerMap.uniform(), 73.0)
        warm = grid.solve()

        cold = GridPDN(0.02, 0.02, 1e-3, nx=12, ny=12)
        cold.set_sinks(PowerMap.uniform(), 73.0)
        cold.add_source("a", 0.0, 0.5, 1.0, 1e-3)
        cold.add_source("b", 1.0, 0.5, 1.0, 1e-3)
        fresh = cold.solve()
        assert warm.lateral_loss_w == pytest.approx(
            fresh.lateral_loss_w, rel=1e-12
        )
        assert np.allclose(warm.voltage_map, fresh.voltage_map)

    def test_fast_path_matches_netlist_path(self):
        """The compiled mesh agrees with build_netlist + solve_dc."""
        grid = hotspot_grid()
        fast = grid.solve()
        slow = solve_dc(grid.build_netlist())
        assert fast.lateral_loss_w == pytest.approx(
            (
                slow.loss_by_prefix("grid.") + slow.loss_by_prefix("ring[")
            ) * grid.rail_pair_factor,
            rel=1e-9,
        )
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                assert fast.voltage_map[iy, ix] == pytest.approx(
                    slow.node_voltages[("g", ix, iy)], rel=1e-9, abs=1e-12
                )

    def test_edge_current_stats_match_name_filtered_dict(self):
        grid = hotspot_grid()
        stats = grid.solve().edge_current_stats()
        oracle = solve_dc(grid.build_netlist())
        by_name = np.abs(
            np.array(
                [
                    current
                    for name, current in oracle.resistor_currents.items()
                    if name.startswith("grid.")
                ]
            )
        )
        assert stats["max_a"] == pytest.approx(by_name.max(), rel=1e-12)
        assert stats["mean_a"] == pytest.approx(by_name.mean(), rel=1e-12)

    def test_compile_names_and_solves_like_build_netlist(self):
        """compile(), derived from the nodal stamp, names every node,
        resistor and voltage source as build_netlist() does and solves
        to the same operating point."""
        grid = hotspot_grid()
        grid.add_source("c", 0.5, 1.0, 1.0, 1e-3)
        grid.connect_sources_with_ring_bus(5e-3)
        derived = solve_dc(grid.compile())
        built = solve_dc(grid.build_netlist())
        assert derived.node_voltages.keys() == built.node_voltages.keys()
        for node, volts in built.node_voltages.items():
            assert derived.node_voltages[node] == pytest.approx(
                volts, rel=1e-9
            )
        assert derived.resistor_currents.keys() == (
            built.resistor_currents.keys()
        )
        for name, amps in built.resistor_currents.items():
            assert derived.resistor_currents[name] == pytest.approx(
                amps, rel=1e-6, abs=1e-9
            )
        assert derived.source_currents == pytest.approx(
            built.source_currents, rel=1e-9
        )

    def test_grid_compile_exposes_sinks_and_voltages(self):
        grid = hotspot_grid()
        compiled = grid.compile()
        assert compiled.total_load_current_a() == pytest.approx(100.0)
        assert np.all(compiled.vs_volt == 1.0)

    def test_duplicate_source_name_rejected_at_attachment(self):
        grid = GridPDN(0.02, 0.02, 1e-3, nx=8, ny=8)
        grid.add_source("a", 0.0, 0.0, 1.0, 1e-3)
        with pytest.raises(ConfigError):
            grid.add_source("a", 1.0, 1.0, 1.0, 1e-3)

    def test_compile_does_not_factorize(self):
        """grid.compile() hands out the array form without paying for
        (or later duplicating) an LU decomposition."""
        grid = hotspot_grid()
        grid.compile()
        structure = grid._ensure_structure()
        assert "solver" not in vars(structure)
        grid.solve()
        assert "solver" in vars(structure)

    def test_packager_check_scales_kcl_by_physical_currents(
        self, monkeypatch
    ):
        """One interior node moved by 1e-7 V leaves a 3.7e-4 A KCL
        residual, over 1e-6 of the 50 A source currents, so check=True
        rejects it; scaled by the nodal stamp's Norton injections
        (V/r_out = 1000 A) the same check would let it through."""
        grid = hotspot_grid()
        clean = grid.solve().voltage_map
        solve_rhs = FactorizedPDN.solve_rhs

        def nudged(self, rhs):
            x = solve_rhs(self, rhs).copy()
            x[5 * grid.nx + 5] += 1e-7
            return x

        monkeypatch.setattr(FactorizedPDN, "solve_rhs", nudged)
        with pytest.raises(SolverError, match="KCL violated"):
            grid.solve()
        unchecked = grid.solve(check=False).voltage_map
        assert unchecked[5, 5] - clean[5, 5] == pytest.approx(1e-7, rel=1e-6)

    @pytest.mark.parametrize(
        "engine, design",
        [
            ("factorized", "plain"),
            ("factorized", "ring"),
            ("factorized", "scaled"),
            ("structured", "plain"),
            ("structured", "ring"),
        ],
    )
    def test_packager_check_catches_a_nudge_at_every_node_kind(
        self, monkeypatch, engine, design
    ):
        """The stencil KCL sum covers every kind of node: a 1e-7 V nudge
        at an interior node, a corner, a mesh-edge node or an attach
        node (ring-joined on the ring design) raises "KCL violated" on
        both engines and on edge-scaled metal, and the clean solve
        passes.  A corner's two edges leave the smallest residual,
        ~1.8e-4 A against a 3.3e-5 A bound."""
        n = 12
        grid = GridPDN(0.02, 0.02, 1e-3, nx=n, ny=n, engine=engine)
        grid.set_sinks(PowerMap.hotspot_mixture(), 100.0)
        for k, (x, y) in enumerate([(0.25, 0.25), (0.75, 0.5), (0.5, 0.8)]):
            grid.add_source(f"s{k}", x, y, 1.0, 1e-3)
        if design == "ring":
            grid.connect_sources_with_ring_bus(2e-3)
        if design == "scaled":
            rng = np.random.default_rng(1)
            grid.set_edge_resistance_scale(
                rng.uniform(0.5, 2.0, (n, n - 1)),
                rng.uniform(0.5, 2.0, (n - 1, n)),
            )
        grid.solve()
        attach = int(grid.design.attach_rows()[1])
        nodes = {
            "interior": 3 * n + 8,
            "corner": n * n - 1,
            "edge": 6 * n,
            "attach": attach,
        }
        assert attach not in {nodes["interior"], nodes["corner"], nodes["edge"]}
        nudge = {"node": None}
        if engine == "structured":
            solve_reduced = StructuredGridPDN.solve_reduced

            def nudged(self, b, live=None):
                x = solve_reduced(self, b, live).copy()
                x[:, nudge["node"]] += 1e-7
                return x

            monkeypatch.setattr(StructuredGridPDN, "solve_reduced", nudged)
        else:
            solve_rhs = FactorizedPDN.solve_rhs

            def nudged(self, rhs):
                x = solve_rhs(self, rhs).copy()
                x[nudge["node"]] += 1e-7
                return x

            monkeypatch.setattr(FactorizedPDN, "solve_rhs", nudged)
        for kind, node in nodes.items():
            nudge["node"] = node
            with pytest.raises(SolverError, match="KCL violated"):
                grid.solve()


class TestNortonStamp:
    """A current source needs no voltage source: a Norton feed (a
    grounded resistor plus a current source) is the nodal form of a
    regulator, and whether every node reaches ground is the structural
    check's call."""

    R_OUT = 0.5e-3

    def test_norton_feed_solves_and_equals_its_mna_twin(self):
        twin = Netlist()
        twin.add_source_with_impedance("src", "in", 1.0, self.R_OUT)
        twin.add_resistor("feed", "in", "pol", 1e-3)
        twin.add_load("cpu", "pol", 100.0)
        mna = solve_dc(twin)
        norton = CompiledNetlist(
            nodes=("in", "pol"),
            res_a=[0, 0],
            res_b=[GROUND_INDEX, 1],
            res_ohm=[self.R_OUT, 1e-3],
            cs_from=[GROUND_INDEX, 1],
            cs_to=[0, GROUND_INDEX],
            cs_amp=[1.0 / self.R_OUT, 100.0],
        )
        solver = FactorizedPDN(norton)
        assert solver.compiled.size == 2
        nodal = solver.solve()
        for node in ("in", "pol"):
            assert nodal.voltage(node) == pytest.approx(
                mna.voltage(node), rel=1e-12
            )
        assert nodal.resistor_currents["R[1]"] == pytest.approx(
            mna.resistor_currents["feed"], rel=1e-12
        )

    def test_current_source_into_a_floating_island_names_a_node(self):
        compiled = CompiledNetlist(
            nodes=("in", "c", "d"),
            res_a=[0, 1],
            res_b=[GROUND_INDEX, 2],
            res_ohm=[self.R_OUT, 1.0],
            cs_from=[GROUND_INDEX, GROUND_INDEX],
            cs_to=[0, 1],
            cs_amp=[1.0, 1.0],
        )
        with pytest.raises(SolverError, match="^node 'c' floats"):
            FactorizedPDN(compiled)

    def test_builder_norton_feed_solves_like_its_compiled_form(self):
        # The builder form needs no voltage source either: the
        # structural check decides for both forms.
        net = Netlist()
        net.add_resistor("r", "a", Netlist.GROUND, 2.0)
        net.add_load("load", "a", 1.0)
        assert solve_dc(net).voltage("a") == pytest.approx(-2.0, rel=1e-15)
        assert solve_dc(net.compile()).voltage("a") == pytest.approx(
            -2.0, rel=1e-15
        )

    def test_builder_current_source_into_a_floating_island_names_a_node(self):
        net = Netlist()
        net.add_resistor("r", "a", Netlist.GROUND, 2.0)
        net.add_resistor("island", "c", "d", 1.0)
        net.add_load("load", "a", 1.0)
        net.add_current_source("feed", Netlist.GROUND, "c", 1.0)
        with pytest.raises(SolverError, match="^node '[cd]' floats"):
            solve_dc(net)

    def test_scenario_rows_of_a_load_stack(self):
        solver = FactorizedPDN(feed_netlist().compile())
        stack = np.array([[100.0], [40.0], [0.0]])
        scenarios = [()] * len(stack)
        for row, got in zip(stack, solver.solve_modified_many(scenarios, cs_amp=stack)):
            want = solver.solve(cs_amp=row)
            np.testing.assert_array_equal(
                got.node_voltage_array, want.node_voltage_array
            )
        with pytest.raises(SolverError, match="load currents"):
            solver.solve_modified_many(scenarios[:2], cs_amp=stack)


NON_FINITE = pytest.mark.parametrize(
    "bad", [np.nan, np.inf], ids=["nan", "inf"]
)


@NON_FINITE
@pytest.mark.parametrize("name", ["res_ohm", "cs_amp", "vs_volt"])
def test_compiled_arrays_reject_non_finite_values_by_name(name, bad):
    arrays = dict(res_ohm=[1e-3], cs_amp=[100.0], vs_volt=[1.0])
    arrays[name] = [bad]
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        CompiledNetlist(
            nodes=("in", "pol"),
            res_a=[0],
            res_b=[1],
            cs_from=[1],
            cs_to=[GROUND_INDEX],
            vs_plus=[0],
            vs_minus=[GROUND_INDEX],
            **arrays,
        )


@NON_FINITE
@pytest.mark.parametrize("name", ["cs_amp", "vs_volt"])
def test_with_sources_rejects_non_finite_values_by_name(name, bad):
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        feed_netlist().compile().with_sources(**{name: [bad]})


#: Every FactorizedPDN entry point that takes load/source overrides;
#: ``bad_row`` spoils one scenario row of a load stack.
OVERRIDE_CALLS = {
    "rhs": lambda solver, kwargs: solver.rhs(**kwargs),
    "solve": lambda solver, kwargs: solver.solve(**kwargs),
    "solve_modified_many": lambda solver, kwargs: solver.solve_modified_many(
        [()], **kwargs
    ),
    "load-stack": lambda solver, kwargs: solver.solve_modified_many(
        [(), ()],
        **{
            key: np.array([[100.0], value]) if key == "cs_amp" else value
            for key, value in kwargs.items()
        },
    ),
}


@NON_FINITE
@pytest.mark.parametrize("name", ["cs_amp", "vs_volt"])
@pytest.mark.parametrize("call", sorted(OVERRIDE_CALLS))
def test_factorized_overrides_reject_non_finite_values_by_name(call, name, bad):
    # These used to surface after the LU, as non-finite solutions.
    solver = FactorizedPDN(feed_netlist().compile())
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        OVERRIDE_CALLS[call](solver, {name: np.array([bad])})
