"""Design-space exploration / ablation tests."""

from __future__ import annotations

import math

import pytest

from repro.converters.catalog import StageModelMode
from repro.core.exploration import (
    conversion_location_sweep,
    hotspot_sweep,
    intermediate_voltage_sweep,
    rdl_thickness_sweep,
    si_vs_gan_buck,
    stage_mode_comparison,
)


class TestConversionLocationSweep:
    """Fig. 3's message: loss falls as conversion approaches the POL."""

    @pytest.fixture(scope="class")
    def points(self):
        return conversion_location_sweep()

    def test_four_locations(self, points):
        assert [p.label for p in points] == [
            "PCB",
            "package",
            "interposer-periphery",
            "below-die",
        ]

    def test_monotonic_improvement(self, points):
        losses = [p.total_loss_w for p in points]
        assert losses == sorted(losses, reverse=True)

    def test_pcb_worst_by_far(self, points):
        assert points[0].total_loss_w > 2 * points[2].total_loss_w

    def test_package_conversion_already_helps(self, points):
        # Moving conversion past the board planes removes the largest
        # single horizontal term.
        assert points[1].total_loss_w < 0.65 * points[0].total_loss_w

    def test_efficiencies_consistent(self, points):
        for p in points:
            assert p.efficiency == pytest.approx(
                1000.0 / (1000.0 + p.total_loss_w), rel=1e-9
            )


class TestIntermediateVoltageSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return intermediate_voltage_sweep()

    def test_paper_rails_present(self, points):
        values = [p.value for p in points]
        assert 6.0 in values and 12.0 in values

    def test_higher_rail_less_rail_loss(self, points):
        by_v = {p.value: p for p in points if not math.isnan(p.total_loss_w)}
        assert by_v[12.0].total_loss_w < by_v[6.0].total_loss_w

    def test_3v_rail_worst_of_feasible(self, points):
        feasible = [p for p in points if not math.isnan(p.total_loss_w)]
        worst = max(feasible, key=lambda p: p.total_loss_w)
        assert worst.value == 3.0

    def test_all_points_labeled(self, points):
        assert all(p.label.startswith("A3@") for p in points)


class TestStageModeComparison:
    @pytest.fixture(scope="class")
    def results(self):
        return stage_mode_comparison()

    def test_three_entries(self, results):
        assert set(results) == {
            "as-published",
            "ratio-scaled",
            "single-stage-A1",
        }

    def test_paper_mode_orders_dual_below_single(self, results):
        assert (
            results["as-published"].efficiency
            < results["single-stage-A1"].efficiency
        )

    def test_ratio_scaling_flips_or_closes_gap(self, results):
        # With ratio-optimized stages dual-stage beats the published
        # reuse and overtakes single-stage.
        assert (
            results["ratio-scaled"].total_loss_w
            < results["as-published"].total_loss_w
        )
        assert (
            results["ratio-scaled"].efficiency
            > results["single-stage-A1"].efficiency
        )


class TestRDLSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return rdl_thickness_sweep()

    def test_thicker_rdl_less_loss(self, points):
        losses = [p.total_loss_w for p in points]
        assert losses == sorted(losses, reverse=True)

    def test_halving_thickness_near_doubles_horizontal(self, points):
        by_t = {p.value: p for p in points}
        thin = by_t[9.0]
        thick = by_t[27.0]
        # Horizontal detail string carries the wattage; compare totals
        # via loss difference instead.
        assert thin.total_loss_w > thick.total_loss_w


class TestHotspotSweep:
    def test_spread_grows_with_hotspot(self):
        results = hotspot_sweep(uniform_fractions=(1.0, 0.45, 0.1))
        a2_spreads = [a2.spread_ratio for _f, _a1, a2 in results]
        assert a2_spreads == sorted(a2_spreads)

    def test_a1_stays_bounded(self):
        results = hotspot_sweep(uniform_fractions=(1.0, 0.3))
        for _fraction, a1, a2 in results:
            assert a1.spread_ratio <= a2.spread_ratio + 0.5


class TestSiVsGaN:
    @pytest.fixture(scope="class")
    def points(self):
        return si_vs_gan_buck()

    def test_gan_wins_at_every_frequency(self, points):
        by_freq: dict[float, dict[str, float]] = {}
        for p in points:
            if p.feasible:
                by_freq.setdefault(p.frequency_hz, {})[p.technology] = (
                    p.efficiency
                )
        assert by_freq
        for eta in by_freq.values():
            assert eta["GaN"] > eta["Si"]

    def test_gan_advantage_grows_with_frequency(self, points):
        gaps = {}
        by_freq: dict[float, dict[str, float]] = {}
        for p in points:
            if p.feasible:
                by_freq.setdefault(p.frequency_hz, {})[p.technology] = (
                    p.efficiency
                )
        for freq, eta in by_freq.items():
            gaps[freq] = eta["GaN"] - eta["Si"]
        freqs = sorted(gaps)
        assert gaps[freqs[-1]] > gaps[freqs[0]]


class TestIntermediateSweepModes:
    def test_ratio_scaled_sweep_runs(self):
        points = intermediate_voltage_sweep(
            voltages=(6.0, 12.0), mode=StageModelMode.RATIO_SCALED
        )
        assert len(points) == 2
        assert all(not math.isnan(p.total_loss_w) for p in points)


class TestDecapDensitySweep:
    """Worst-node Z(f) vs per-node decap allocation (grid-level AC)."""

    @pytest.fixture(scope="class")
    def points(self):
        import numpy as np

        from repro.core.exploration import decap_density_sweep

        return decap_density_sweep(
            densities=(0.5, 1.0, 4.0),
            grid_nodes=8,
            frequencies_hz=np.logspace(4, 9, 41),
        )

    def test_labels_and_order(self, points):
        assert [p.density for p in points] == [0.5, 1.0, 4.0]
        assert points[0].label == "0.5 cells/node"

    def test_more_decap_never_raises_the_peak(self, points):
        peaks = [p.peak_impedance_ohm for p in points]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(peaks, peaks[1:]))

    def test_peaks_positive_and_in_band(self, points):
        for p in points:
            assert p.peak_impedance_ohm > 0
            assert 1e4 <= p.peak_frequency_hz <= 1e9

    def test_rejects_empty_densities(self):
        from repro.core.exploration import decap_density_sweep
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            decap_density_sweep(densities=())


class TestGridStudyValidation:
    """A bad grid-study sweep axis fails by name before the sweep
    executor starts a single chunk."""

    @pytest.fixture(autouse=True)
    def no_executor(self, monkeypatch):
        import repro.core.exploration as exploration

        def started(*args, **kwargs):
            raise AssertionError("the sweep executor started")

        monkeypatch.setattr(exploration, "run_sweep_collect", started)

    @pytest.mark.parametrize(
        "densities", [(math.nan,), (-1.0,), (1.0, math.inf)]
    )
    def test_decap_density_sweep(self, densities):
        from repro.core.exploration import decap_density_sweep
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="densities"):
            decap_density_sweep(densities=densities)

    def test_load_step_ensemble(self):
        from repro.core.exploration import load_step_ensemble
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="densities"):
            load_step_ensemble(densities=(math.nan,))

    @pytest.mark.parametrize("scales", [(math.nan,), (math.inf,), (0.0,)])
    def test_placement_budget_scales(self, scales):
        from repro.core.exploration import placement_budget_sweep
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="budget_scales"):
            placement_budget_sweep(budget_scales=scales)

    @pytest.mark.parametrize(
        "knob", [{"size_budget": True}, {"budget_f": 1e-6}]
    )
    def test_placement_budget_owns_the_budget(self, knob):
        from repro.core.exploration import placement_budget_sweep
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="budget_f"):
            placement_budget_sweep(**knob)
