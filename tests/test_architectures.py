"""Architecture specification tests."""

from __future__ import annotations

import math

import pytest

from repro.converters.catalog import DPMIH, DSCH
from repro.core.architectures import (
    ALL_ARCHITECTURES,
    ArchitectureKind,
    ArchitectureSpec,
    architecture,
    dual_stage_a3,
    reference_a0,
    single_stage_a1,
    single_stage_a2,
)
from repro.errors import ConfigError
from repro.pdn.interconnect import ADVANCED_CU_PAD, MICRO_BUMP
from repro.placement.planner import PlacementStyle


class TestPaperSet:
    def test_five_architectures(self):
        assert len(ALL_ARCHITECTURES) == 5

    def test_names(self):
        assert [a.name for a in ALL_ARCHITECTURES] == [
            "A0",
            "A1",
            "A2",
            "A3@12V",
            "A3@6V",
        ]

    def test_lookup(self):
        assert architecture("a3@12v").intermediate_voltage_v == 12.0

    def test_unknown_lookup(self):
        with pytest.raises(ConfigError):
            architecture("A9")


class TestA0:
    def test_kind(self):
        assert reference_a0().kind is ArchitectureKind.PCB_CONVERSION

    def test_not_vertical(self):
        assert not reference_a0().is_vertical

    def test_micro_bump_attach(self):
        assert reference_a0().die_attach is MICRO_BUMP

    def test_no_pol_stage(self):
        assert reference_a0().pol_stage_style is None


class TestA1A2:
    def test_a1_periphery(self):
        assert single_stage_a1().pol_stage_style is PlacementStyle.PERIPHERY

    def test_a2_below_die(self):
        assert single_stage_a2().pol_stage_style is PlacementStyle.BELOW_DIE

    def test_vertical_flags(self):
        assert single_stage_a1().is_vertical
        assert single_stage_a2().is_vertical

    def test_single_stage_flags(self):
        assert not single_stage_a1().is_dual_stage
        assert not single_stage_a2().is_dual_stage

    def test_cu_pad_attach(self):
        assert single_stage_a1().die_attach is ADVANCED_CU_PAD
        assert single_stage_a2().die_attach is ADVANCED_CU_PAD


class TestA3:
    def test_names_for_paper_rails(self):
        assert dual_stage_a3(12.0).name == "A3@12V"
        assert dual_stage_a3(6.0).name == "A3@6V"

    def test_exploratory_rail_flagged(self):
        assert dual_stage_a3(8.0).name == "A3@8V*"

    def test_stage1_default_dpmih(self):
        assert dual_stage_a3(12.0).stage1_converter is DPMIH

    def test_stage1_override(self):
        assert dual_stage_a3(12.0, stage1_converter=DSCH).stage1_converter is (
            DSCH
        )

    def test_dual_stage_flag(self):
        assert dual_stage_a3(12.0).is_dual_stage

    def test_pol_stage_below_die(self):
        assert dual_stage_a3(12.0).pol_stage_style is PlacementStyle.BELOW_DIE

    def test_rejects_rail_at_pol_voltage(self):
        with pytest.raises(ConfigError):
            dual_stage_a3(1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_rail_by_name(self, value):
        with pytest.raises(ConfigError, match="intermediate_voltage_v"):
            dual_stage_a3(value)


class TestInvariantValidation:
    def test_a0_cannot_have_pol_stage(self):
        with pytest.raises(ConfigError):
            ArchitectureSpec(
                name="bad",
                kind=ArchitectureKind.PCB_CONVERSION,
                description="",
                die_attach=MICRO_BUMP,
                pol_stage_style=PlacementStyle.PERIPHERY,
            )

    def test_vertical_requires_pol_stage(self):
        with pytest.raises(ConfigError):
            ArchitectureSpec(
                name="bad",
                kind=ArchitectureKind.SINGLE_STAGE_VERTICAL,
                description="",
                die_attach=ADVANCED_CU_PAD,
                pol_stage_style=None,
            )

    def test_dual_stage_requires_rail(self):
        with pytest.raises(ConfigError):
            ArchitectureSpec(
                name="bad",
                kind=ArchitectureKind.DUAL_STAGE_VERTICAL,
                description="",
                die_attach=ADVANCED_CU_PAD,
                pol_stage_style=PlacementStyle.BELOW_DIE,
                stage1_converter=DPMIH,
            )

    def test_single_stage_rejects_rail(self):
        with pytest.raises(ConfigError):
            ArchitectureSpec(
                name="bad",
                kind=ArchitectureKind.SINGLE_STAGE_VERTICAL,
                description="",
                die_attach=ADVANCED_CU_PAD,
                pol_stage_style=PlacementStyle.PERIPHERY,
                intermediate_voltage_v=12.0,
            )

    def test_dual_stage_requires_stage1_converter(self):
        with pytest.raises(ConfigError):
            ArchitectureSpec(
                name="bad",
                kind=ArchitectureKind.DUAL_STAGE_VERTICAL,
                description="",
                die_attach=ADVANCED_CU_PAD,
                pol_stage_style=PlacementStyle.BELOW_DIE,
                intermediate_voltage_v=12.0,
            )
