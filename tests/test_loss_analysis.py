"""Loss-analysis engine tests (the Fig. 7 physics)."""

from __future__ import annotations

import math

import pytest

from repro import SystemSpec
from repro.converters.catalog import DPMIH, DSCH, StageModelMode
from repro.core.architectures import (
    dual_stage_a3,
    reference_a0,
    single_stage_a1,
    single_stage_a2,
)
from repro.core.loss_analysis import (
    LossAnalyzer,
    LossComponent,
    LossModelParameters,
)
from repro.errors import ConfigError


class TestA0Breakdown:
    @pytest.fixture(scope="class")
    def a0(self, analyzer):
        return analyzer.analyze(reference_a0(), DSCH)

    def test_total_loss_above_40pct(self, a0):
        assert a0.paper_loss_fraction > 0.40

    def test_horizontal_dominates(self, a0):
        assert a0.horizontal_loss_w > 0.5 * a0.total_loss_w

    def test_vertical_negligible(self, a0):
        assert a0.vertical_loss_w < 0.01 * a0.spec.pol_power_w

    def test_pcb_planes_is_largest_horizontal_term(self, a0):
        pcb = a0.component_loss_w("pcb-planes")
        assert pcb > 0.5 * a0.horizontal_loss_w

    def test_converter_loss_covers_downstream(self, a0):
        # The PCB converter sees POL power plus all interconnect loss
        # at 90%: loss = (P_pol + ppdn)/0.9 * 0.1.
        p_out = a0.spec.pol_power_w + a0.ppdn_loss_w
        expected = p_out * (1 / 0.9 - 1)
        assert a0.converter_loss_w == pytest.approx(expected, rel=1e-9)

    def test_single_stage_report(self, a0):
        assert len(a0.stages) == 1
        assert a0.stages[0].placement == "pcb"

    def test_efficiency_consistent(self, a0):
        assert a0.efficiency == pytest.approx(
            1000.0 / (1000.0 + a0.total_loss_w)
        )

    def test_fig7_bars_sum_to_total(self, a0):
        bars = a0.fig7_bars()
        assert sum(bars.values()) == pytest.approx(
            100 * a0.paper_loss_fraction, rel=1e-9
        )


class TestA1Breakdown:
    @pytest.fixture(scope="class")
    def a1(self, analyzer):
        return analyzer.analyze(single_stage_a1(), DSCH)

    def test_loss_down_vs_a0(self, analyzer, a1):
        a0 = analyzer.analyze(reference_a0(), DSCH)
        assert a1.total_loss_w < 0.5 * a0.total_loss_w

    def test_converter_above_10pct(self, a1):
        assert a1.converter_loss_w > 0.10 * a1.spec.pol_power_w

    def test_ppdn_below_10pct(self, a1):
        assert a1.ppdn_loss_w < 0.10 * a1.spec.pol_power_w

    def test_48_dsch_vrs(self, a1):
        assert a1.stages[0].vr_count == 48

    def test_per_vr_current_near_21a(self, a1):
        assert a1.stages[0].per_vr_current_a == pytest.approx(22.0, rel=0.05)

    def test_periphery_spreading_dominates_horizontal(self, a1):
        spread = a1.component_loss_w("interposer-spread")
        assert spread > 0.5 * a1.horizontal_loss_w

    def test_input_feed_loss_tiny(self, a1):
        # 48 V feed: ~25 A through the board is negligible.
        assert a1.component_loss_w("pcb-planes") < 1.0


class TestA2Breakdown:
    @pytest.fixture(scope="class")
    def a2(self, analyzer):
        return analyzer.analyze(single_stage_a2(), DSCH)

    def test_beats_a1_on_horizontal(self, analyzer, a2):
        a1 = analyzer.analyze(single_stage_a1(), DSCH)
        assert a2.horizontal_loss_w < 0.3 * a1.horizontal_loss_w

    def test_pol_plan_all_below_die(self, a2):
        assert a2.pol_plan.below_die_count == 48

    def test_dpmih_uses_overflow(self, analyzer):
        breakdown = analyzer.analyze(single_stage_a2(), DPMIH)
        assert breakdown.pol_plan.overflow_count > 0

    def test_dpmih_loss_higher_than_dsch(self, analyzer, a2):
        dpmih = analyzer.analyze(single_stage_a2(), DPMIH)
        assert dpmih.converter_loss_w > a2.converter_loss_w


class TestA3Breakdown:
    @pytest.fixture(scope="class")
    def a3_12(self, analyzer):
        return analyzer.analyze(dual_stage_a3(12.0), DSCH)

    @pytest.fixture(scope="class")
    def a3_6(self, analyzer):
        return analyzer.analyze(dual_stage_a3(6.0), DSCH)

    def test_two_stages_reported(self, a3_12):
        assert [s.name for s in a3_12.stages] == ["pol-stage", "stage1"]

    def test_stage1_is_dpmih(self, a3_12):
        assert a3_12.stages[1].converter == "DPMIH"

    def test_stage1_runs_near_peak_current(self, a3_12):
        assert a3_12.stages[1].per_vr_current_a == pytest.approx(
            30.0, rel=0.25
        )

    def test_intermediate_rail_loss_quadruples_at_6v(self, a3_12, a3_6):
        rail_12 = a3_12.component_loss_w("intermediate-rail")
        rail_6 = a3_6.component_loss_w("intermediate-rail")
        assert rail_6 == pytest.approx(4 * rail_12, rel=0.10)

    def test_dual_stage_less_efficient_than_single(self, analyzer, a3_12):
        a1 = analyzer.analyze(single_stage_a1(), DSCH)
        assert a3_12.efficiency < a1.efficiency

    def test_horizontal_far_below_a0(self, analyzer, a3_12):
        a0 = analyzer.analyze(reference_a0(), DSCH)
        ratio = a0.horizontal_loss_w / a3_12.horizontal_loss_w
        assert 10.0 < ratio < 30.0

    def test_6v_horizontal_reduction_smaller(self, analyzer, a3_12, a3_6):
        a0 = analyzer.analyze(reference_a0(), DSCH)
        r12 = a0.horizontal_loss_w / a3_12.horizontal_loss_w
        r6 = a0.horizontal_loss_w / a3_6.horizontal_loss_w
        assert r6 < r12

    def test_ratio_scaled_mode_flips_ordering(self):
        """The ablation: ratio-optimized stage converters make
        dual-stage competitive."""
        published = LossAnalyzer(
            params=LossModelParameters(
                stage_mode=StageModelMode.AS_PUBLISHED
            )
        ).analyze(dual_stage_a3(12.0), DSCH)
        scaled = LossAnalyzer(
            params=LossModelParameters(
                stage_mode=StageModelMode.RATIO_SCALED
            )
        ).analyze(dual_stage_a3(12.0), DSCH)
        assert scaled.total_loss_w < published.total_loss_w


class TestCategoryAccounting:
    def test_categories_partition_total(self, analyzer):
        breakdown = analyzer.analyze(single_stage_a1(), DSCH)
        total = (
            breakdown.vertical_loss_w
            + breakdown.horizontal_loss_w
            + breakdown.converter_loss_w
        )
        assert total == pytest.approx(breakdown.total_loss_w, rel=1e-12)

    def test_component_prefix_query(self, analyzer):
        breakdown = analyzer.analyze(single_stage_a1(), DSCH)
        assert breakdown.component_loss_w("vr-") == pytest.approx(
            breakdown.converter_loss_w
        )

    def test_all_components_nonnegative(self, analyzer):
        breakdown = analyzer.analyze(dual_stage_a3(6.0), DPMIH)
        for component in breakdown.components:
            assert component.loss_w >= 0

    def test_loss_component_category_validated(self):
        with pytest.raises(ConfigError):
            LossComponent(name="x", category="magic", loss_w=1.0)

    def test_loss_component_rejects_negative(self):
        with pytest.raises(ConfigError):
            LossComponent(name="x", category="vertical", loss_w=-1.0)


class TestScaling:
    def test_half_power_system_less_loss(self):
        full = LossAnalyzer(SystemSpec()).analyze(single_stage_a1(), DSCH)
        half = LossAnalyzer(SystemSpec().with_power(500.0)).analyze(
            single_stage_a1(), DSCH
        )
        assert half.total_loss_w < full.total_loss_w

    def test_a0_horizontal_scales_quadratically(self):
        full = LossAnalyzer(SystemSpec()).analyze(reference_a0(), DSCH)
        half = LossAnalyzer(SystemSpec().with_power(500.0)).analyze(
            reference_a0(), DSCH
        )
        # Same die-area... A0's PCB planes carry half the current on
        # the same geometry: ~4x lower loss (within array-size kinks).
        pcb_full = full.component_loss_w("pcb-planes")
        pcb_half = half.component_loss_w("pcb-planes")
        assert pcb_half == pytest.approx(pcb_full / 4, rel=0.05)

    def test_with_params_override(self, analyzer):
        modified = analyzer.with_params(die_grid_resistance_ohm=12e-6)
        base = analyzer.analyze(single_stage_a2(), DSCH)
        heavier = modified.analyze(single_stage_a2(), DSCH)
        assert heavier.component_loss_w("die-grid") == pytest.approx(
            2 * base.component_loss_w("die-grid"), rel=0.01
        )

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            LossModelParameters(die_grid_resistance_ohm=0.0)

    @pytest.mark.parametrize(
        "name",
        [
            "die_grid_resistance_ohm",
            "intermediate_rail_squares",
            "interposer_area_mm2",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_params_reject_non_finite_by_name(self, name, value):
        # Unchecked, NaN fails later inside plan_placement and inf rail
        # squares overflow on A3@12V.
        with pytest.raises(ConfigError, match=name):
            LossModelParameters(**{name: value})
