"""SystemSpec and PCBGeometry tests."""

from __future__ import annotations

import math

import pytest

from repro import ConfigError, SystemSpec
from repro.config import PAPER_SYSTEM, PCBGeometry


class TestSystemSpecDefaults:
    def test_paper_power(self):
        assert PAPER_SYSTEM.pol_power_w == 1000.0

    def test_paper_pol_voltage(self):
        assert PAPER_SYSTEM.pol_voltage_v == 1.0

    def test_paper_input_voltage(self):
        assert PAPER_SYSTEM.input_voltage_v == 48.0

    def test_paper_pol_current_is_1ka(self):
        assert PAPER_SYSTEM.pol_current_a == pytest.approx(1000.0)

    def test_paper_die_area_500mm2(self):
        # 1 kA at 2 A/mm2 -> 500 mm2, the paper's die.
        assert PAPER_SYSTEM.die_area_mm2 == pytest.approx(500.0)

    def test_die_side(self):
        assert PAPER_SYSTEM.die_side_m == pytest.approx(0.02236, rel=1e-3)

    def test_die_perimeter(self):
        assert PAPER_SYSTEM.die_perimeter_m == pytest.approx(
            4 * PAPER_SYSTEM.die_side_m
        )

    def test_conversion_ratio_48(self):
        assert PAPER_SYSTEM.conversion_ratio == pytest.approx(48.0)

    def test_nominal_input_current(self):
        assert PAPER_SYSTEM.input_current_nominal_a == pytest.approx(
            1000.0 / 48.0
        )


class TestSystemSpecDerivations:
    def test_explicit_die_area_overrides_density(self):
        spec = SystemSpec(die_area_m2=1e-4)  # 100 mm2... in m2: 1e-4
        assert spec.die_area == pytest.approx(1e-4)

    def test_with_power_scales_current(self):
        spec = SystemSpec().with_power(500.0)
        assert spec.pol_current_a == pytest.approx(500.0)

    def test_with_power_scales_die(self):
        spec = SystemSpec().with_power(500.0)
        assert spec.die_area_mm2 == pytest.approx(250.0)

    def test_with_density(self):
        spec = SystemSpec().with_density(1.0)
        assert spec.die_area_mm2 == pytest.approx(1000.0)

    def test_with_input_voltage(self):
        spec = SystemSpec().with_input_voltage(12.0)
        assert spec.conversion_ratio == pytest.approx(12.0)

    def test_copies_are_frozen_and_independent(self):
        base = SystemSpec()
        derived = base.with_power(2000.0)
        assert base.pol_power_w == 1000.0
        assert derived.pol_power_w == 2000.0


class TestSystemSpecValidation:
    def test_rejects_zero_power(self):
        with pytest.raises(ConfigError):
            SystemSpec(pol_power_w=0.0)

    def test_rejects_negative_voltage(self):
        with pytest.raises(ConfigError):
            SystemSpec(pol_voltage_v=-1.0)

    def test_rejects_input_below_pol(self):
        with pytest.raises(ConfigError):
            SystemSpec(input_voltage_v=0.5)

    def test_rejects_zero_density(self):
        with pytest.raises(ConfigError):
            SystemSpec(current_density_a_per_mm2=0.0)

    def test_rejects_negative_die_area(self):
        with pytest.raises(ConfigError):
            SystemSpec(die_area_m2=-1.0)

    @pytest.mark.parametrize(
        "name",
        [
            "pol_power_w",
            "pol_voltage_v",
            "input_voltage_v",
            "current_density_a_per_mm2",
            "die_area_m2",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_by_name(self, name, value):
        # The ``<= 0`` guards are false for NaN, and inf passes them.
        with pytest.raises(ConfigError, match=name):
            SystemSpec(**{name: value})


class TestPCBGeometry:
    def test_defaults_positive(self):
        geometry = PCBGeometry()
        assert geometry.vrm_distance_m > 0
        assert geometry.plane_width_m > 0

    def test_rejects_zero_distance(self):
        with pytest.raises(ConfigError):
            PCBGeometry(vrm_distance_m=0.0)

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            PCBGeometry(plane_width_m=0.0)

    def test_rejects_zero_plane_pairs(self):
        with pytest.raises(ConfigError):
            PCBGeometry(plane_pairs=0)

    def test_rejects_zero_thickness(self):
        with pytest.raises(ConfigError):
            PCBGeometry(plane_thickness_m=0.0)

    @pytest.mark.parametrize(
        "name",
        ["vrm_distance_m", "plane_width_m", "plane_pairs", "plane_thickness_m"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_by_name(self, name, value):
        with pytest.raises(ConfigError, match=name):
            PCBGeometry(**{name: value})
