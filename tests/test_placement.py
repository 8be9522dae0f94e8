"""Placement geometry, budgets, and planner tests."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.converters.catalog import (
    DPMIH,
    DSCH,
    THREE_LEVEL_HYBRID_DICKSON,
)
from repro.errors import ConfigError, InfeasibleError
from repro.placement.area_budget import (
    AreaBudget,
    below_die_budget,
    periphery_budget,
)
from repro.placement.geometry import (
    Position,
    grid_positions,
    mixed_positions,
    multi_ring_positions,
    periphery_positions,
    sunflower_positions,
)
from repro.placement.planner import (
    PlacementStyle,
    optimal_stage_count,
    plan_placement,
    required_count,
)

DIE_MM2 = 500.0


class TestPeripheryPositions:
    def test_count(self):
        assert len(periphery_positions(48)) == 48

    def test_all_on_boundary(self):
        for p in periphery_positions(24, inset=0.02):
            on_edge = (
                math.isclose(p.x, 0.02)
                or math.isclose(p.x, 0.98)
                or math.isclose(p.y, 0.02)
                or math.isclose(p.y, 0.98)
            )
            assert on_edge

    def test_positions_distinct(self):
        points = {(round(p.x, 6), round(p.y, 6)) for p in periphery_positions(48)}
        assert len(points) == 48

    def test_four_fold_symmetry_of_count(self):
        # 4k positions land k per side.
        positions = periphery_positions(8, inset=0.0)
        top = [p for p in positions if p.y == 0.0]
        assert len(top) == 2

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigError):
            periphery_positions(0)

    def test_rejects_bad_inset(self):
        with pytest.raises(ConfigError):
            periphery_positions(4, inset=0.5)


class TestMultiRing:
    def test_total_count(self):
        positions = multi_ring_positions([8, 4])
        assert len(positions) == 12

    def test_ring_indices(self):
        positions = multi_ring_positions([8, 4])
        assert {p.ring for p in positions} == {0, 1}

    def test_deeper_ring_more_inset(self):
        positions = multi_ring_positions([4, 4])
        ring0 = [p for p in positions if p.ring == 0]
        ring1 = [p for p in positions if p.ring == 1]
        min0 = min(min(p.x, p.y, 1 - p.x, 1 - p.y) for p in ring0)
        min1 = min(min(p.x, p.y, 1 - p.x, 1 - p.y) for p in ring1)
        assert min1 > min0

    def test_rejects_too_many_rings(self):
        with pytest.raises(ConfigError):
            multi_ring_positions([4] * 10, ring_spacing=0.08)

    def test_skips_empty_rings(self):
        positions = multi_ring_positions([4, 0, 4])
        assert len(positions) == 8


class TestGridPositions:
    def test_count(self):
        assert len(grid_positions(48)) == 48

    def test_perfect_square(self):
        positions = grid_positions(49)
        xs = sorted({round(p.x, 6) for p in positions})
        assert len(xs) == 7

    def test_positions_inside_margin(self):
        for p in grid_positions(48, margin=0.1):
            assert 0.1 <= p.x <= 0.9
            assert 0.1 <= p.y <= 0.9

    def test_single(self):
        positions = grid_positions(1)
        assert positions[0].x == pytest.approx(0.5)

    def test_distinct(self):
        points = {(round(p.x, 6), round(p.y, 6)) for p in grid_positions(48)}
        assert len(points) == 48


class TestSunflower:
    def test_count(self):
        assert len(sunflower_positions(48)) == 48

    def test_inside_disk(self):
        for p in sunflower_positions(100, radius=0.4):
            assert math.hypot(p.x - 0.5, p.y - 0.5) <= 0.4 + 1e-9

    def test_rejects_big_radius(self):
        with pytest.raises(ConfigError):
            sunflower_positions(10, radius=0.6)


class TestMixedPositions:
    def test_counts(self):
        positions = mixed_positions(7, 5)
        assert len(positions) == 12
        assert sum(1 for p in positions if p.ring == 1) == 5

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            mixed_positions(0, 0)


class TestBudgets:
    def test_periphery_budget_area(self):
        budget = periphery_budget(500.0, 1200.0, usable_fraction=0.95)
        assert budget.available_mm2 == pytest.approx(665.0)

    def test_below_die_budget_area(self):
        budget = below_die_budget(500.0)
        assert budget.available_mm2 == pytest.approx(375.0)

    def test_capacity(self):
        budget = AreaBudget("x", 100.0)
        assert budget.capacity(7.25) == 13

    def test_fits(self):
        budget = AreaBudget("x", 100.0)
        assert budget.fits(13, 7.25)
        assert not budget.fits(14, 7.25)

    def test_used_fraction(self):
        budget = AreaBudget("x", 100.0)
        assert budget.used_fraction(10, 5.0) == pytest.approx(0.5)

    def test_rejects_interposer_smaller_than_die(self):
        with pytest.raises(ConfigError):
            periphery_budget(1300.0, 1200.0)

    def test_dpmih_seven_fit_below_die(self):
        # The Table II "7 VRs below the die" for DPMIH is exactly the
        # 75% die-shadow budget capacity.
        budget = below_die_budget(DIE_MM2)
        assert budget.capacity(DPMIH.area_mm2) == 7

    def test_dsch_48_fit_below_die(self):
        budget = below_die_budget(DIE_MM2)
        assert budget.capacity(DSCH.area_mm2) >= 48


class TestRequiredCount:
    def test_dsch_needs_34_for_1kA(self):
        assert required_count(DSCH, 1000.0) == 34

    def test_dpmih_needs_10_for_1kA(self):
        assert required_count(DPMIH, 1000.0) == 10

    def test_3lhd_needs_84(self):
        assert required_count(THREE_LEVEL_HYBRID_DICKSON, 1000.0) == 84


class TestPlanner:
    def test_dsch_periphery_uses_48_slots(self):
        plan = plan_placement(DSCH, PlacementStyle.PERIPHERY, 1000.0, DIE_MM2)
        assert plan.vr_count == 48
        assert plan.overflow_count == 0
        assert plan.per_vr_current_a == pytest.approx(1000 / 48)

    def test_dsch_below_die_uses_48_slots(self):
        plan = plan_placement(DSCH, PlacementStyle.BELOW_DIE, 1000.0, DIE_MM2)
        assert plan.vr_count == 48
        assert plan.below_die_count == 48

    def test_dpmih_periphery_extends_rows(self):
        # 8 slots cannot carry 1 kA (125 A > 100 A): extra rows appear.
        plan = plan_placement(DPMIH, PlacementStyle.PERIPHERY, 1000.0, DIE_MM2)
        assert plan.vr_count == 12
        assert plan.is_multi_row
        assert plan.per_vr_current_a <= DPMIH.max_load_a

    def test_dpmih_below_die_overflows_to_periphery(self):
        # 7 below-die slots + overflow ring = the 10-93 A pattern.
        plan = plan_placement(DPMIH, PlacementStyle.BELOW_DIE, 1000.0, DIE_MM2)
        assert plan.vr_count == 12
        assert plan.below_die_count == 7
        assert plan.overflow_count == 5

    def test_3lhd_slot_bound_excluded(self):
        # Dense converters cannot extend: the paper's 3LHD exclusion.
        with pytest.raises(InfeasibleError):
            plan_placement(
                THREE_LEVEL_HYBRID_DICKSON,
                PlacementStyle.PERIPHERY,
                1000.0,
                DIE_MM2,
            )

    def test_3lhd_excluded_below_die_too(self):
        with pytest.raises(InfeasibleError):
            plan_placement(
                THREE_LEVEL_HYBRID_DICKSON,
                PlacementStyle.BELOW_DIE,
                1000.0,
                DIE_MM2,
            )

    def test_3lhd_feasible_at_small_system(self):
        # At 500 A, 48 slots x 12 A = 576 A suffices.
        plan = plan_placement(
            THREE_LEVEL_HYBRID_DICKSON,
            PlacementStyle.PERIPHERY,
            500.0,
            DIE_MM2,
        )
        assert plan.vr_count == 48

    def test_positions_match_count(self):
        plan = plan_placement(DPMIH, PlacementStyle.BELOW_DIE, 1000.0, DIE_MM2)
        assert len(plan.positions) == plan.vr_count

    def test_below_die_counts_must_make_the_vr_count(self):
        # The layout is derived from the counts, so they must agree.
        plan = plan_placement(DPMIH, PlacementStyle.BELOW_DIE, 1000.0, DIE_MM2)
        with pytest.raises(ConfigError):
            replace(plan, overflow_count=plan.overflow_count + 1)

    def test_area_accounting(self):
        plan = plan_placement(DSCH, PlacementStyle.PERIPHERY, 1000.0, DIE_MM2)
        assert plan.area_used_mm2 == pytest.approx(48 * DSCH.area_mm2)

    def test_feasibility_guard_on_result(self):
        plan = plan_placement(DPMIH, PlacementStyle.PERIPHERY, 1000.0, DIE_MM2)
        assert plan.per_vr_current_a <= DPMIH.max_load_a * (1 + 1e-9)

    def test_rejects_zero_current(self):
        with pytest.raises(ConfigError):
            plan_placement(DSCH, PlacementStyle.PERIPHERY, 0.0, DIE_MM2)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name", ["total_current_a", "die_area_mm2", "interposer_area_mm2"]
    )
    def test_rejects_non_finite_by_name(self, name, value):
        # Unchecked, NaN fails inside math.ceil and inf overflows it.
        args = {
            "total_current_a": 1000.0,
            "die_area_mm2": DIE_MM2,
            "interposer_area_mm2": 1200.0,
            name: value,
        }
        with pytest.raises(ConfigError, match=name):
            plan_placement(DSCH, PlacementStyle.PERIPHERY, **args)


class TestOptimalStageCount:
    def test_runs_each_vr_near_peak(self):
        model = DPMIH.loss_model
        count = optimal_stage_count(model, 94.0)
        per_vr = 94.0 / count
        # continuous optimum is I*sqrt(c/a) i.e. per-VR = i_peak = 30 A.
        assert per_vr == pytest.approx(30.0, rel=0.35)

    def test_minimum_is_floor_count(self):
        model = DPMIH.loss_model
        assert optimal_stage_count(model, 150.0) >= 2

    def test_obeys_max_count(self):
        model = DPMIH.loss_model
        count = optimal_stage_count(model, 900.0, max_count=12)
        assert count <= 12

    def test_max_count_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            optimal_stage_count(DPMIH.loss_model, 900.0, max_count=2)

    def test_count_is_loss_optimal_among_neighbours(self):
        model = DPMIH.loss_model
        current = 200.0
        best = optimal_stage_count(model, current)

        def loss(n: int) -> float:
            return n * model.loss_w(current / n)

        for neighbour in (best - 1, best + 1):
            if neighbour >= math.ceil(current / model.i_max_a):
                assert loss(best) <= loss(neighbour) + 1e-9


class TestPosition:
    def test_rejects_outside(self):
        with pytest.raises(ConfigError):
            Position(x=1.2, y=0.5)
