"""2-D grid PDN tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.pdn.grid import GridACPDN, GridPDN
from repro.pdn.powermap import PowerMap


def make_grid(nx=10, ny=10, sheet=1e-3) -> GridPDN:
    return GridPDN(
        width_m=0.02, height_m=0.02, sheet_ohm_sq=sheet, nx=nx, ny=ny
    )


class TestConstruction:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigError):
            GridPDN(0.02, 0.02, 1e-3, nx=1, ny=4)

    def test_rejects_zero_sheet(self):
        with pytest.raises(ConfigError):
            GridPDN(0.02, 0.02, 0.0)

    def test_rejects_negative_extent(self):
        with pytest.raises(ConfigError):
            GridPDN(-0.02, 0.02, 1e-3)

    def test_edge_resistance_square_cells(self):
        grid = make_grid(nx=11, ny=11)
        # For near-square cells the x and y edge resistances are close.
        assert grid.edge_resistance_x_ohm == pytest.approx(
            grid.edge_resistance_y_ohm, rel=0.3
        )

    def test_edge_resistance_scales_with_sheet(self):
        g1 = make_grid(sheet=1e-3)
        g2 = make_grid(sheet=2e-3)
        assert g2.edge_resistance_x_ohm == pytest.approx(
            2 * g1.edge_resistance_x_ohm
        )


class TestSolveBasics:
    def test_requires_sinks(self):
        grid = make_grid()
        grid.add_source("s", 0.5, 0.5, 1.0, 1e-3)
        with pytest.raises(ConfigError):
            grid.solve()

    def test_requires_sources(self):
        grid = make_grid()
        grid.set_sinks(PowerMap.uniform(), 10.0)
        with pytest.raises(ConfigError):
            grid.solve()

    def test_source_current_equals_load(self):
        grid = make_grid()
        grid.set_sinks(PowerMap.uniform(), 50.0)
        grid.add_source("s", 0.5, 0.5, 1.0, 1e-3)
        solution = grid.solve()
        assert solution.source_currents_a.sum() == pytest.approx(50.0)

    def test_two_symmetric_sources_share_equally(self):
        grid = make_grid(nx=11, ny=11)
        grid.set_sinks(PowerMap.uniform(), 100.0)
        grid.add_source("left", 0.0, 0.5, 1.0, 1e-3)
        grid.add_source("right", 1.0, 0.5, 1.0, 1e-3)
        solution = grid.solve()
        assert solution.source_currents_a[0] == pytest.approx(
            solution.source_currents_a[1], rel=1e-6
        )

    def test_closer_source_carries_more(self):
        grid = make_grid(nx=11, ny=11)
        pmap = PowerMap.gaussian(center=(0.2, 0.5), sigma=0.08)
        grid.set_sinks(pmap, 100.0)
        grid.add_source("near", 0.0, 0.5, 1.0, 1e-4)
        grid.add_source("far", 1.0, 0.5, 1.0, 1e-4)
        solution = grid.solve()
        assert solution.source_currents_a[0] > solution.source_currents_a[1]

    def test_voltage_map_shape(self):
        grid = make_grid(nx=7, ny=9)
        grid.set_sinks(PowerMap.uniform(), 10.0)
        grid.add_source("s", 0.5, 0.5, 1.0, 1e-3)
        solution = grid.solve()
        assert solution.voltage_map.shape == (9, 7)

    def test_all_node_voltages_below_source_emf(self):
        grid = make_grid()
        grid.set_sinks(PowerMap.uniform(), 20.0)
        grid.add_source("s", 0.0, 0.0, 1.0, 1e-3)
        solution = grid.solve()
        assert solution.voltage_map.max() <= 1.0 + 1e-9

    def test_droop_positive_under_load(self):
        grid = make_grid()
        grid.set_sinks(PowerMap.uniform(), 20.0)
        grid.add_source("s", 0.0, 0.0, 1.0, 1e-3)
        solution = grid.solve()
        assert solution.worst_droop_v > 0


class TestLossAccounting:
    def test_rail_pair_factor(self):
        loads = PowerMap.uniform()
        g1 = GridPDN(0.02, 0.02, 1e-3, nx=8, ny=8, rail_pair_factor=1.0)
        g2 = GridPDN(0.02, 0.02, 1e-3, nx=8, ny=8, rail_pair_factor=2.0)
        for g in (g1, g2):
            g.set_sinks(loads, 30.0)
            g.add_source("s", 0.5, 0.5, 1.0, 1e-3)
        assert g2.solve().lateral_loss_w == pytest.approx(
            2 * g1.solve().lateral_loss_w, rel=1e-9
        )

    def test_lateral_loss_scales_with_sheet(self):
        results = []
        for sheet in (0.5e-3, 1e-3):
            grid = make_grid(sheet=sheet)
            grid.set_sinks(PowerMap.uniform(), 30.0)
            grid.add_source("s", 0.5, 0.5, 1.0, 1e-6)
            results.append(grid.solve().lateral_loss_w)
        # Near-ideal source: loss approximately linear in the sheet.
        assert results[1] == pytest.approx(2 * results[0], rel=0.05)

    def test_source_loss_separate_from_lateral(self):
        grid = make_grid()
        grid.set_sinks(PowerMap.uniform(), 30.0)
        grid.add_source("s", 0.5, 0.5, 1.0, 1e-3)
        solution = grid.solve()
        assert solution.source_loss_w > 0
        assert solution.lateral_loss_w > 0


class TestGridConvergence:
    def test_edge_feed_approaches_disk_model(self):
        """A rim-fed uniformly loaded square should dissipate near the
        analytic disk estimate R_sq/(8 pi) (same order; square vs
        disk differ by a geometry factor)."""
        from repro.pdn.planes import disk_edge_feed_resistance

        sheet = 1e-3
        current = 100.0
        grid = GridPDN(0.02, 0.02, sheet, nx=24, ny=24, rail_pair_factor=1.0)
        grid.set_sinks(PowerMap.uniform(), current)
        # Feed from many points along the rim, nearly ideal sources.
        for k in range(24):
            t = k / 24
            if t < 0.25:
                x, y = t * 4, 0.0
            elif t < 0.5:
                x, y = 1.0, (t - 0.25) * 4
            elif t < 0.75:
                x, y = 1.0 - (t - 0.5) * 4, 1.0
            else:
                x, y = 0.0, 1.0 - (t - 0.75) * 4
            grid.add_source(f"s{k}", x, y, 1.0, 1e-6)
        solution = grid.solve()
        analytic = current**2 * disk_edge_feed_resistance(sheet)
        assert solution.lateral_loss_w == pytest.approx(analytic, rel=0.8)
        assert solution.lateral_loss_w > analytic * 0.5

    def test_refinement_stability(self):
        """Lateral loss should be stable under grid refinement."""
        losses = []
        for n in (12, 20, 28):
            grid = GridPDN(0.02, 0.02, 1e-3, nx=n, ny=n)
            grid.set_sinks(PowerMap.uniform(), 50.0)
            grid.add_source("c", 0.5, 0.5, 1.0, 1e-4)
            losses.append(grid.solve().lateral_loss_w)
        assert losses[2] == pytest.approx(losses[1], rel=0.15)


class TestRingBus:
    def test_ring_equalizes_sharing(self):
        def spread(with_ring: bool) -> float:
            grid = make_grid(nx=16, ny=16)
            grid.set_sinks(PowerMap.gaussian(sigma=0.12), 100.0)
            for k, (x, y) in enumerate(
                [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.0)]
            ):
                grid.add_source(f"s{k}", x, y, 1.0, 1e-4)
            if with_ring:
                grid.connect_sources_with_ring_bus(1e-5)
            c = grid.solve().source_currents_a
            return float(c.max() - c.min())

        assert spread(True) < spread(False)

    def test_ring_requires_three_sources(self):
        grid = make_grid()
        grid.set_sinks(PowerMap.uniform(), 10.0)
        grid.add_source("a", 0.0, 0.0, 1.0, 1e-3)
        grid.add_source("b", 1.0, 1.0, 1.0, 1e-3)
        with pytest.raises(ConfigError):
            grid.connect_sources_with_ring_bus(1e-5)

    def test_ring_rejects_zero_resistance(self):
        grid = make_grid()
        grid.set_sinks(PowerMap.uniform(), 10.0)
        for k in range(3):
            grid.add_source(f"s{k}", k / 2.0, 0.0, 1.0, 1e-3)
        with pytest.raises(ConfigError):
            grid.connect_sources_with_ring_bus(0.0)


class TestSinkArray:
    def test_explicit_sink_array(self):
        grid = make_grid(nx=4, ny=4)
        sinks = np.zeros((4, 4))
        sinks[2, 2] = 25.0
        grid.set_sink_array(sinks)
        grid.add_source("s", 0.0, 0.0, 1.0, 1e-3)
        solution = grid.solve()
        assert solution.source_currents_a.sum() == pytest.approx(25.0)

    def test_rejects_wrong_shape(self):
        grid = make_grid(nx=4, ny=4)
        with pytest.raises(ConfigError):
            grid.set_sink_array(np.ones((3, 4)))

    def test_rejects_negative_sinks(self):
        grid = make_grid(nx=4, ny=4)
        with pytest.raises(ConfigError):
            grid.set_sink_array(-np.ones((4, 4)))


class TestEdgeCurrentStats:
    def test_stats_present_and_ordered(self):
        grid = make_grid()
        grid.set_sinks(PowerMap.uniform(), 50.0)
        grid.add_source("s", 0.5, 0.5, 1.0, 1e-3)
        stats = grid.solve().edge_current_stats()
        assert stats["max_a"] >= stats["mean_a"] > 0

    def test_edge_currents_scale_with_load(self):
        results = []
        for load in (25.0, 50.0):
            grid = make_grid()
            grid.set_sinks(PowerMap.uniform(), load)
            grid.add_source("s", 0.5, 0.5, 1.0, 1e-3)
            results.append(grid.solve().edge_current_stats()["max_a"])
        assert results[1] == pytest.approx(2 * results[0], rel=1e-6)

    def test_hotspot_concentrates_edge_current(self):
        def max_edge(pmap) -> float:
            grid = make_grid(nx=14, ny=14)
            grid.set_sinks(pmap, 100.0)
            grid.add_source("s", 0.0, 0.5, 1.0, 1e-3)
            return grid.solve().edge_current_stats()["max_a"]

        assert max_edge(
            PowerMap.gaussian(sigma=0.08)
        ) > max_edge(PowerMap.uniform())


class TestSourceValidation:
    def test_rejects_out_of_die(self):
        grid = make_grid()
        with pytest.raises(ConfigError):
            grid.add_source("s", 1.2, 0.5, 1.0, 1e-3)

    def test_rejects_zero_impedance(self):
        grid = make_grid()
        with pytest.raises(ConfigError):
            grid.add_source("s", 0.5, 0.5, 1.0, 0.0)

    def test_clear_sources(self):
        grid = make_grid()
        grid.add_source("s", 0.5, 0.5, 1.0, 1e-3)
        grid.clear_sources()
        assert grid.source_names == []


class TestSolveDisabled:
    def powered_grid(self, n_sources=4) -> GridPDN:
        grid = make_grid()
        grid.set_sinks(PowerMap.hotspot_mixture(), 120.0)
        for k in range(n_sources):
            t = k / max(n_sources - 1, 1)
            grid.add_source(f"s{k}", t, t, 1.0, 1e-3)
        return grid

    def test_disabled_source_reports_zero_current(self):
        grid = self.powered_grid()
        solution = grid.solve_disabled((1,))
        assert solution.source_currents_a[1] == 0.0
        assert solution.source_currents_a.sum() == pytest.approx(
            120.0, rel=1e-6
        )

    def test_matches_survivor_only_grid_without_ring(self):
        """Without a ring bus, disabling equals detaching: a dead
        source's rout is electrically invisible."""
        full = self.powered_grid()
        disabled = full.solve_disabled((2,))

        survivors = make_grid()
        survivors.set_sinks(PowerMap.hotspot_mixture(), 120.0)
        for k in range(4):
            if k == 2:
                continue
            t = k / 3
            survivors.add_source(f"s{k}", t, t, 1.0, 1e-3)
        detached = survivors.solve()

        assert disabled.voltage_map == pytest.approx(
            detached.voltage_map, rel=1e-9
        )
        kept = np.delete(disabled.source_currents_a, 2)
        assert kept == pytest.approx(
            detached.source_currents_a, rel=1e-9
        )

    def test_shares_one_factorization_across_scenarios(self):
        grid = self.powered_grid()
        grid.solve()
        structure = grid._ensure_structure()
        solver = structure._solver
        for k in range(3):
            grid.solve_disabled((k,))
        assert grid._ensure_structure() is structure
        assert structure._solver is solver

    def test_baseline_empty_disable_equals_solve(self):
        grid = self.powered_grid()
        base = grid.solve()
        empty = grid.solve_disabled(())
        assert empty.voltage_map == pytest.approx(base.voltage_map)

    def test_validation(self):
        grid = self.powered_grid(n_sources=2)
        with pytest.raises(ConfigError):
            grid.solve_disabled((5,))
        with pytest.raises(ConfigError):
            grid.solve_disabled((0, 1))
        # A fraction or a boolean is not a source index (int() would
        # quietly disable source 1), and NaN is rejected by name.
        for bad in ([1.5], [True], [float("nan")]):
            with pytest.raises(ConfigError, match="disabled_sources"):
                grid.solve_disabled(bad)
        with pytest.raises(ConfigError, match="disabled_sources"):
            grid.solve_disabled_many([[0], [1.9]])
        # Whole-valued floats and the empty scenario stay valid.
        assert grid.solve_disabled([1.0]).source_currents_a[1] == 0.0
        assert grid.solve_disabled([]).source_currents_a.sum() > 0.0


class TestGridACDCLimit:
    """Grid-AC driven sweeps must converge to the DC grid solution."""

    def pair(self):
        """One design, two views: the DC view shorts the bump/TSV
        inductance and ignores the decap the AC view attaches."""
        grid = make_grid(nx=6, ny=6)
        grid.set_sinks(PowerMap.hotspot_mixture(), 40.0)
        grid.add_source("a", 0.0, 0.0, 1.0, 1e-3, 1e-11)
        grid.add_source("b", 1.0, 1.0, 1.02, 2e-3, 1e-11)
        ac = GridACPDN.from_design(grid.design)
        ac.set_decap_density(1.0, 1e-6, 2e-3, 1e-10)
        return grid, ac

    def test_low_frequency_limit_matches_dc(self):
        """As f drops the decaps open and the inductors short, so the
        voltage maps must converge to the DC IR-drop solution."""
        grid, ac = self.pair()
        dc_map = grid.solve().voltage_map
        freqs = np.array([1.0, 1e3, 1e6])
        sweep = ac.solve(freqs)
        errors = [
            float(np.abs(np.abs(sweep.voltage_maps[k]) - dc_map).max())
            for k in range(len(freqs))
        ]
        assert errors[0] <= 1e-9
        assert errors[0] < errors[1] < errors[2]

    def test_from_grid_mirrors_topology(self):
        grid, ac = self.pair()
        assert ac.source_names == grid.source_names
        assert ac.design.sources == grid.design.sources
        assert ac.design.sinks is grid.design.sinks
        assert (ac.nx, ac.ny) == (grid.nx, grid.ny)
        assert ac.edge_resistance_x_ohm == grid.edge_resistance_x_ohm

    def test_impedance_map_rejects_nonpositive_frequencies(self):
        _, ac = self.pair()
        for bad in (
            np.array([0.0]),
            np.array([-1.0, 1e6]),
            np.array([]),
            np.array([1e6, np.nan]),
            np.array([np.inf]),
        ):
            with pytest.raises(ConfigError):
                ac.impedance_map(bad)

    def test_driven_solve_rejects_nonpositive_frequencies(self):
        _, ac = self.pair()
        for bad in (np.array([0.0]), np.array([1e3, -5.0]), np.array([])):
            with pytest.raises(ConfigError):
                ac.solve(bad)

    def test_impedance_map_requires_sources(self):
        from repro.pdn.grid import GridACPDN

        bare = GridACPDN(0.02, 0.02, 1e-3, nx=4, ny=4)
        bare.set_decap_density(1.0, 1e-6)
        with pytest.raises(ConfigError):
            bare.impedance_map(np.array([1e6]))

    def test_spectral_requires_eligible_topology(self):
        from repro.pdn.grid import GridACPDN

        pdn = GridACPDN(
            0.02, 0.02, 1e-3, nx=4, ny=4, edge_inductance_x_h=1e-11
        )
        pdn.set_decap_density(1.0, 1e-6)
        pdn.add_source("s", 0.5, 0.5, 1.0, 1e-3)
        with pytest.raises(ConfigError):
            pdn.impedance_map(np.array([1e6]), method="spectral")
        # "auto" runs the general selinv engine instead.
        assert pdn.impedance_engine() == "selinv"
        assert np.all(
            np.isfinite(pdn.impedance_map(np.array([1e6])).z_ohm)
        )


def _ac_grid(**overrides):
    args = dict(width_m=0.02, height_m=0.02, sheet_ohm_sq=1e-3, nx=4, ny=4)
    args.update(overrides)
    return GridACPDN(**args)


def _with_source(voltage=1.0, rout=1e-3, inductance=0.0):
    _ac_grid().add_source("s", 0.0, 0.0, voltage, rout, inductance)


def _with_ring(segment_resistance_ohm):
    pdn = _ac_grid()
    for k in range(3):
        pdn.add_source(f"s{k}", k / 2, 0.0, 1.0, 1e-3)
    pdn.connect_sources_with_ring_bus(segment_resistance_ohm)


def _decapped():
    pdn = _ac_grid()
    pdn.set_decap_density(1.0, 1e-6)
    return pdn


def _partly(value):
    arr = np.ones((4, 4))
    arr[1, 2] = value
    return arr


def _sourced():
    pdn = _decapped()
    pdn.add_source("s", 0.0, 0.0, 1.0, 1e-3)
    return pdn


def _swept():
    return _sourced().impedance_map(np.array([1e5, 1e7]))


# (parameter name, call that passes the non-finite value to it)
NON_FINITE_SETTERS = [
    ("width_m", lambda v: _ac_grid(width_m=v)),
    ("height_m", lambda v: _ac_grid(height_m=v)),
    ("sheet_ohm_sq", lambda v: _ac_grid(sheet_ohm_sq=v)),
    ("edge_inductance_x_h", lambda v: _ac_grid(edge_inductance_x_h=v)),
    ("edge_inductance_y_h", lambda v: _ac_grid(edge_inductance_y_h=v)),
    ("voltage_v", lambda v: _with_source(voltage=v)),
    ("output_resistance_ohm", lambda v: _with_source(rout=v)),
    ("inductance_h", lambda v: _with_source(inductance=v)),
    ("segment_resistance_ohm", _with_ring),
    ("cell_currents", lambda v: _ac_grid().set_sink_array(_partly(v))),
    ("density", lambda v: _ac_grid().set_decap_density(v, 1e-6)),
    ("density", lambda v: _ac_grid().set_decap_density(_partly(v), 1e-6)),
    ("cap_per_unit_f", lambda v: _ac_grid().set_decap_density(1.0, v)),
    ("esr_per_unit_ohm", lambda v: _ac_grid().set_decap_density(1.0, 1e-6, v)),
    (
        "esl_per_unit_h",
        lambda v: _ac_grid().set_decap_density(1.0, 1e-6, 0.0, v),
    ),
    ("cap_f", lambda v: _ac_grid().set_decap_map(v)),
    ("cap_f", lambda v: _ac_grid().set_decap_map(_partly(v) * 1e-6)),
    ("esr_ohm", lambda v: _ac_grid().set_decap_map(np.ones((4, 4)), _partly(v))),
    ("esl_h", lambda v: _ac_grid().set_decap_map(np.ones((4, 4)), 0.0, v)),
    ("factor", lambda v: _decapped().scale_decap(v)),
    ("target_ohm", lambda v: _swept().meets_target(v)),
    ("target_ohm", lambda v: _swept().violating_node_fraction(v)),
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name, call",
    NON_FINITE_SETTERS,
    ids=[f"{name}-{k}" for k, (name, _) in enumerate(NON_FINITE_SETTERS)],
)
def test_grid_ac_rejects_non_finite_inputs_by_name(name, call, value):
    """NaN and ±inf fail at the GridACPDN boundary with a ConfigError
    naming the parameter — including the all-NaN density that used to
    read as "map is all zero" and partly-NaN maps that used to pass."""
    with pytest.raises(ConfigError, match=name):
        call(value)


def test_node_indices_must_be_whole_numbers():
    """Probe and profile indices follow the node-count rule: a
    fraction, a boolean or a non-number raises a ConfigError naming
    the argument instead of being truncated onto a neighbouring node,
    while a whole-valued float is that node.  The map's target checks
    name ``target_ohm`` for a non-positive target as well."""
    pdn = _sourced()
    for nodes in ([2.7], [True, False], [np.nan], ["2"]):
        with pytest.raises(ConfigError, match="^nodes "):
            pdn.impedance_columns(1e6, nodes)
    np.testing.assert_array_equal(
        pdn.impedance_columns(1e6, [2.0, 5.0]),
        pdn.impedance_columns(1e6, [2, 5]),
    )
    imap = _swept()
    with pytest.raises(ConfigError, match="^ix "):
        imap.node_profile(1.5, 1)
    with pytest.raises(ConfigError, match="^iy "):
        imap.node_profile(1, True)
    np.testing.assert_array_equal(
        imap.node_profile(1.0, 2).impedance_ohm,
        imap.node_profile(1, 2).impedance_ohm,
    )
    for target in (0.0, -1e-3):
        with pytest.raises(ConfigError, match="^target_ohm "):
            imap.meets_target(target)
        with pytest.raises(ConfigError, match="^target_ohm "):
            imap.violating_node_fraction(target)


class TestSolveDisabledMany:
    def powered_grid(self) -> GridPDN:
        grid = make_grid()
        grid.set_sinks(PowerMap.hotspot_mixture(), 120.0)
        for k in range(5):
            t = k / 4
            grid.add_source(f"s{k}", t, t, 1.0, 1e-3)
        return grid

    def test_batched_matches_single_scenario_solves(self):
        grid = self.powered_grid()
        scenarios = [(0,), (1, 3), (4,), ()]
        batched = grid.solve_disabled_many(scenarios)
        for failed, got in zip(scenarios, batched):
            want = (
                grid.solve_disabled(failed) if failed else grid.solve()
            )
            assert got.voltage_map == pytest.approx(
                want.voltage_map, rel=1e-9
            )
            assert got.source_currents_a[list(failed)] == pytest.approx(0.0)

    def test_empty_sweep(self):
        grid = self.powered_grid()
        assert grid.solve_disabled_many([]) == []

    def test_validation(self):
        grid = self.powered_grid()
        with pytest.raises(ConfigError):
            grid.solve_disabled_many([(9,)])
        with pytest.raises(ConfigError):
            grid.solve_disabled_many([(0, 1, 2, 3, 4)])

    @pytest.mark.parametrize(
        "scenario",
        [((0,), (1, 2)), [[0, 1]]],
        ids=["ragged", "nested"],
    )
    def test_rejects_a_non_flat_scenario_by_name(self, scenario):
        # A scenario is one flat set of dead sources: a ragged pair
        # or a nested list raises by name, not as a numpy error.
        grid = self.powered_grid()
        with pytest.raises(ConfigError, match="^disabled_sources "):
            grid.solve_disabled_many([scenario])

    def test_solve_many_rejects_a_ragged_stack_by_name(self):
        grid = self.powered_grid()
        with pytest.raises(ConfigError, match="^sink_maps "):
            grid.solve_many([np.ones((10, 10)), np.ones((3, 3))])


def _bank(n: int, engine: str) -> GridPDN:
    """An n×n grid with a hotspot load and five scattered VRs."""
    grid = GridPDN(0.02, 0.02, 1e-3, nx=n, ny=n, engine=engine)
    grid.set_sinks(PowerMap.hotspot_mixture(), 120.0)
    for k in range(5):
        grid.add_source(f"s{k}", k / 4, (3 * k % 5) / 4, 1.0, 1e-3)
    return grid


def _assert_identical(got, want) -> None:
    np.testing.assert_array_equal(got.voltage_map, want.voltage_map)
    np.testing.assert_array_equal(got.source_currents_a, want.source_currents_a)


MIXED_SWEEP = [(), (0,), (1, 3), (4, 2, 0)]


class TestOneDCBatch:
    """Every DC solve of a grid is one batch on one engine, so a
    single-scenario call is bit-identical to its row in a batch.
    Structured rows of a larger batch differ in the last bits; the
    structured engine keeps its 1e-9 parity tests for those."""

    @pytest.mark.parametrize("engine", ["factorized", "structured"])
    def test_single_scenarios_are_one_row_batches(self, engine):
        grid = _bank(24, engine)
        _assert_identical(grid.solve_disabled(()), grid.solve())
        for scenario in MIXED_SWEEP:
            _assert_identical(
                grid.solve_disabled(scenario),
                grid.solve_disabled_many([scenario])[0],
            )

    @pytest.mark.parametrize("n", [24, 40])
    def test_factorized_load_sweep_rows_are_single_solves(self, n):
        grid = _bank(n, "factorized")
        maps = np.random.default_rng(n).uniform(0.0, 0.2, (3, n, n))
        for sink_map, got in zip(maps, grid.solve_many(maps)):
            view = GridPDN.from_design(grid.design, engine="factorized")
            view.set_sink_array(sink_map)
            _assert_identical(got, view.solve())

    @pytest.mark.parametrize("n", [24, 40])
    def test_factorized_failure_sweep_rows_are_one_scenario_batches(self, n):
        grid = _bank(n, "factorized")
        for scenario, got in zip(MIXED_SWEEP, grid.solve_disabled_many(MIXED_SWEEP)):
            _assert_identical(got, grid.solve_disabled_many([scenario])[0])

    def test_factorized_failure_sweep_is_one_woodbury_call(self, monkeypatch):
        grid = _bank(24, "factorized")
        solver = grid._ensure_structure().solver
        solve_modified_many = solver.solve_modified_many
        batches = []

        def counted(scenarios, **kwargs):
            batches.append(len(scenarios))
            return solve_modified_many(scenarios, **kwargs)

        monkeypatch.setattr(solver, "solve_modified_many", counted)
        assert len(grid.solve_disabled_many(MIXED_SWEEP)) == len(MIXED_SWEEP)
        assert batches == [len(MIXED_SWEEP)]


class TestMethodOption:
    """``method`` is checked on both DC engines: an unknown value raises
    ConfigError naming it before any solve (the structured engine,
    which has no per-scenario method, returned solutions), and the
    three valid values solve as before."""

    @pytest.mark.parametrize(
        "n, engine", [(24, "factorized"), (24, "structured"), (64, "auto")]
    )
    def test_unknown_method_raises_by_name(self, n, engine):
        grid = _bank(n, engine)
        with pytest.raises(ConfigError, match="^unknown method 'bogus'"):
            grid.solve_disabled((0,), method="bogus")
        with pytest.raises(ConfigError, match="method"):
            grid.solve_disabled_many([(), (1, 3)], method="Refactor")

    @pytest.mark.parametrize(
        "n, engine", [(24, "factorized"), (24, "structured"), (64, "auto")]
    )
    def test_valid_methods_solve_as_before(self, n, engine):
        grid = _bank(n, engine)
        oracle = _bank(n, "factorized").solve_disabled_many(
            MIXED_SWEEP, method="refactor"
        )
        default = grid.solve_disabled_many(MIXED_SWEEP)
        for method in ("auto", "woodbury", "refactor"):
            solutions = grid.solve_disabled_many(MIXED_SWEEP, method=method)
            for got, want, ref in zip(solutions, default, oracle):
                if method == "auto" or grid._resolve_engine() == "structured":
                    _assert_identical(got, want)
                gap = np.abs(got.voltage_map - ref.voltage_map).max()
                assert gap <= 1e-9


class TestColocatedSources:
    """Two regulators on one node stay two regulators under N−k: each
    is its own shunt and Norton injection of the nodal stamp."""

    SCENARIOS = [(0,), (1,), (0, 2)]
    SOURCES = [
        ("a", 0.5, 0.5, 1.0, 1e-3),
        ("b", 0.5, 0.5, 0.98, 2.5e-3),
        ("c", 0.0, 0.0, 1.01, 1.5e-3),
        ("d", 1.0, 0.25, 0.99, 1e-3),
    ]

    def grid(self, engine: str, keep=(0, 1, 2, 3)) -> GridPDN:
        grid = GridPDN(0.02, 0.02, 1e-3, nx=12, ny=12, engine=engine)
        grid.set_sinks(PowerMap.hotspot_mixture(), 60.0)
        for k in keep:
            grid.add_source(*self.SOURCES[k])
        return grid

    @pytest.mark.parametrize("engine", ["factorized", "structured"])
    def test_sweep_matches_refactor_and_rebuilt_grids(self, engine):
        swept = self.grid(engine).solve_disabled_many(self.SCENARIOS)
        oracle = self.grid("factorized").solve_disabled_many(
            self.SCENARIOS, method="refactor"
        )
        for failed, got, want in zip(self.SCENARIOS, swept, oracle):
            assert np.abs(got.voltage_map - want.voltage_map).max() <= 1e-9
            scale = np.abs(want.source_currents_a).max()
            assert np.abs(
                got.source_currents_a - want.source_currents_a
            ).max() <= 1e-7 * scale
            assert np.all(got.source_currents_a[list(failed)] == 0.0)
            live = [k for k in range(len(self.SOURCES)) if k not in failed]
            rebuilt = self.grid(engine, keep=live).solve()
            assert np.abs(got.voltage_map - rebuilt.voltage_map).max() <= 1e-9
            np.testing.assert_allclose(
                got.source_currents_a[live], rebuilt.source_currents_a, rtol=1e-7
            )
