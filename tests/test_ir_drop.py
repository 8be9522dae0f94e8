"""Die IR-drop analysis tests."""

from __future__ import annotations

import pytest

from repro.converters.catalog import DPMIH, DSCH
from repro.core.architectures import (
    reference_a0,
    single_stage_a1,
    single_stage_a2,
)
from repro.core.ir_drop import analyze_ir_drop, compare_architectures
from repro.errors import ConfigError
from repro.pdn.powermap import PowerMap


@pytest.fixture(scope="module")
def a1_report():
    return analyze_ir_drop(single_stage_a1(), DSCH)


@pytest.fixture(scope="module")
def a2_report():
    return analyze_ir_drop(single_stage_a2(), DSCH)


class TestBasics:
    def test_min_below_mean(self, a1_report):
        assert a1_report.min_voltage_v < a1_report.mean_voltage_v

    def test_droop_positive(self, a1_report):
        assert a1_report.worst_droop_v >= 0.0

    def test_voltage_map_shape(self, a1_report):
        assert a1_report.voltage_map.shape == (28, 28)

    def test_droop_fraction(self, a1_report):
        assert a1_report.droop_fraction == pytest.approx(
            a1_report.worst_droop_v / 1.0
        )

    def test_worst_node_in_die(self, a1_report):
        x, y = a1_report.worst_node
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


class TestArchitectureComparison:
    def test_a2_beats_a1_on_worst_droop(self, a1_report, a2_report):
        """Distributed under-die VRs sit next to the hotspot; the
        periphery ring must push the hotspot current across half the
        die.  A2 therefore wins on worst-case droop."""
        assert a2_report.worst_droop_v < a1_report.worst_droop_v

    def test_a1_worst_node_near_center(self, a1_report):
        # Periphery feeding: the die center droops the most.
        x, y = a1_report.worst_node
        assert abs(x - 0.5) < 0.25 and abs(y - 0.5) < 0.25

    def test_compare_helper_order(self):
        reports = compare_architectures(
            [single_stage_a1(), single_stage_a2()], DSCH
        )
        assert [r.architecture for r in reports] == ["A1", "A2"]

    def test_dpmih_a2_works_too(self):
        report = analyze_ir_drop(single_stage_a2(), DPMIH)
        assert report.worst_droop_v >= 0.0


class TestBudget:
    def test_a2_meets_5pct_budget(self, a2_report):
        assert a2_report.within_budget

    def test_tight_budget_fails(self):
        report = analyze_ir_drop(
            single_stage_a1(), DSCH, droop_budget_fraction=0.005
        )
        assert not report.within_budget

    def test_budget_value(self, a1_report):
        assert a1_report.droop_budget_v == pytest.approx(0.05)


class TestMapSensitivity:
    def test_uniform_map_less_droop(self):
        hotspot = analyze_ir_drop(single_stage_a1(), DSCH)
        uniform = analyze_ir_drop(
            single_stage_a1(), DSCH, power_map=PowerMap.uniform()
        )
        assert uniform.worst_droop_v < hotspot.worst_droop_v

    def test_finer_grid_consistent(self):
        coarse = analyze_ir_drop(single_stage_a1(), DSCH, grid_nodes=20)
        fine = analyze_ir_drop(single_stage_a1(), DSCH, grid_nodes=36)
        assert fine.worst_droop_v == pytest.approx(
            coarse.worst_droop_v, rel=0.3
        )


class TestValidation:
    def test_a0_rejected(self):
        with pytest.raises(ConfigError):
            analyze_ir_drop(reference_a0(), DSCH)

    def test_budget_range(self):
        with pytest.raises(ConfigError):
            analyze_ir_drop(
                single_stage_a1(), DSCH, droop_budget_fraction=0.6
            )

    def test_empty_comparison_rejected(self):
        with pytest.raises(ConfigError):
            compare_architectures([], DSCH)


class TestImpedanceMap:
    """Grid-level AC impedance maps on the same die grid."""

    @pytest.fixture(scope="class")
    def a2_impedance(self):
        import numpy as np

        from repro.core.ir_drop import analyze_impedance_map

        return analyze_impedance_map(
            single_stage_a2(),
            DSCH,
            grid_nodes=10,
            frequencies_hz=np.logspace(4, 9, 61),
        )

    def test_report_shape(self, a2_impedance):
        report = a2_impedance
        assert report.architecture == "A2"
        assert report.peak_impedance_ohm > 0
        assert 1e4 <= report.peak_frequency_hz <= 1e9
        x, y = report.worst_node
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
        assert report.impedance.impedance_ohm.shape == (100, 61)

    def test_margin_is_target_over_peak(self, a2_impedance):
        assert a2_impedance.margin == pytest.approx(
            a2_impedance.target_ohm / a2_impedance.peak_impedance_ohm
        )

    def test_target_follows_standard_rule(self, a2_impedance):
        from repro.config import SystemSpec
        from repro.pdn.impedance import target_impedance_ohm

        spec = SystemSpec()
        assert a2_impedance.target_ohm == pytest.approx(
            target_impedance_ohm(
                spec.pol_voltage_v, 0.05, 0.5 * spec.pol_current_a
            )
        )

    def test_meets_target_consistent_with_map(self, a2_impedance):
        assert a2_impedance.meets_target == a2_impedance.impedance.meets_target(
            a2_impedance.target_ohm
        )

    def test_more_decap_lowers_peak(self):
        import numpy as np

        from repro.core.ir_drop import analyze_impedance_map

        freqs = np.logspace(4, 9, 41)
        sparse = analyze_impedance_map(
            single_stage_a2(),
            DSCH,
            grid_nodes=8,
            decap_density=0.25,
            frequencies_hz=freqs,
        )
        dense = analyze_impedance_map(
            single_stage_a2(),
            DSCH,
            grid_nodes=8,
            decap_density=8.0,
            frequencies_hz=freqs,
        )
        assert dense.peak_impedance_ohm < sparse.peak_impedance_ohm

    def test_rejects_non_vertical(self):
        from repro.core.ir_drop import analyze_impedance_map

        with pytest.raises(ConfigError):
            analyze_impedance_map(reference_a0(), DSCH)

    def test_rejects_bad_transient_fraction(self):
        from repro.core.ir_drop import analyze_impedance_map

        with pytest.raises(ConfigError):
            analyze_impedance_map(
                single_stage_a2(), DSCH, transient_fraction=0.0
            )

    def test_rejects_bad_density(self):
        from repro.core.ir_drop import analyze_impedance_map

        with pytest.raises(ConfigError):
            analyze_impedance_map(
                single_stage_a2(), DSCH, decap_density=-1.0
            )

    def test_rejects_nan_ripple_before_sweeping(self, monkeypatch):
        from repro.core.ir_drop import analyze_impedance_map
        from repro.pdn.grid import GridACPDN

        def swept(*args, **kwargs):
            raise AssertionError("the impedance map was swept")

        monkeypatch.setattr(GridACPDN, "impedance_map", swept)
        with pytest.raises(ConfigError, match="ripple"):
            analyze_impedance_map(
                single_stage_a2(), DSCH, ripple_fraction=float("nan")
            )

    def test_placement_rejects_budget_with_size_budget(self):
        from repro.core.ir_drop import optimize_decap_placement_map

        with pytest.raises(ConfigError, match="budget_f"):
            optimize_decap_placement_map(
                single_stage_a2(),
                DSCH,
                grid_nodes=8,
                size_budget=True,
                budget_f=1e-6,
            )
