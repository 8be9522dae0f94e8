"""Vertical interconnect (Table I) tests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, InfeasibleError
from repro.pdn.interconnect import (
    ADVANCED_CU_PAD,
    BGA,
    C4_BUMP,
    MICRO_BUMP,
    TABLE_I,
    TSV,
    find_technology,
    table_i_rows,
)
from repro.units import um, um2


class TestTableIData:
    """Direct Table I values must match the paper."""

    def test_five_technologies(self):
        assert len(TABLE_I) == 5

    def test_bga_geometry(self):
        assert BGA.diameter_m == pytest.approx(um(400))
        assert BGA.cross_area_m2 == pytest.approx(um2(125664))
        assert BGA.height_m == pytest.approx(um(300))
        assert BGA.pitch_m == pytest.approx(um(800))

    def test_c4_geometry(self):
        assert C4_BUMP.diameter_m == pytest.approx(um(100))
        assert C4_BUMP.cross_area_m2 == pytest.approx(um2(7854))
        assert C4_BUMP.height_m == pytest.approx(um(70))
        assert C4_BUMP.pitch_m == pytest.approx(um(200))

    def test_tsv_geometry(self):
        assert TSV.diameter_m == pytest.approx(um(5))
        assert TSV.cross_area_m2 == pytest.approx(um2(20))
        assert TSV.height_m == pytest.approx(um(50))
        assert TSV.pitch_m == pytest.approx(um(10))

    def test_micro_bump_geometry(self):
        assert MICRO_BUMP.diameter_m == pytest.approx(um(30))
        assert MICRO_BUMP.cross_area_m2 == pytest.approx(um2(707))
        assert MICRO_BUMP.height_m == pytest.approx(um(25))
        assert MICRO_BUMP.pitch_m == pytest.approx(um(60))

    def test_cu_pad_geometry(self):
        assert ADVANCED_CU_PAD.cross_area_m2 == pytest.approx(um2(100))
        assert ADVANCED_CU_PAD.height_m == pytest.approx(um(10))
        assert ADVANCED_CU_PAD.pitch_m == pytest.approx(um(20))

    def test_platform_areas(self):
        assert BGA.platform_area_m2 == pytest.approx(1800e-6)
        assert C4_BUMP.platform_area_m2 == pytest.approx(1200e-6)
        assert TSV.platform_area_m2 == pytest.approx(1200e-6)
        assert MICRO_BUMP.platform_area_m2 == pytest.approx(500e-6)
        assert ADVANCED_CU_PAD.platform_area_m2 == pytest.approx(500e-6)

    def test_materials(self):
        assert BGA.material.name == "SAC305"
        assert C4_BUMP.material.name == "SAC305"
        assert MICRO_BUMP.material.name == "SAC305"
        assert TSV.material.name == "Cu"
        assert ADVANCED_CU_PAD.material.name == "Cu"

    def test_rows_export(self):
        rows = table_i_rows()
        assert len(rows) == 5
        assert rows[0]["type"] == "BGA"
        assert rows[0]["pitch_um"] == pytest.approx(800)

    def test_find_technology(self):
        assert find_technology("bga") is BGA
        assert find_technology("TSV") is TSV

    def test_find_unknown_raises(self):
        with pytest.raises(ConfigError):
            find_technology("wirebond")


class TestDerivedElectrical:
    def test_bga_element_resistance(self):
        # rho_solder * h / A = 1.32e-7 * 300e-6 / 1.25664e-7 ~ 0.315 mOhm
        assert BGA.element_resistance_ohm == pytest.approx(3.15e-4, rel=0.01)

    def test_c4_element_resistance(self):
        assert C4_BUMP.element_resistance_ohm == pytest.approx(
            1.18e-3, rel=0.01
        )

    def test_tsv_element_resistance(self):
        # Copper TSV: 1.68e-8 * 50e-6 / 20e-12 = 42 mOhm
        assert TSV.element_resistance_ohm == pytest.approx(0.042, rel=0.01)

    def test_micro_bump_element_resistance(self):
        assert MICRO_BUMP.element_resistance_ohm == pytest.approx(
            4.67e-3, rel=0.01
        )

    def test_cu_pad_element_resistance(self):
        assert ADVANCED_CU_PAD.element_resistance_ohm == pytest.approx(
            1.68e-3, rel=0.01
        )

    def test_bga_site_count(self):
        # 1800 mm2 at 800 um pitch -> 2812 sites.
        assert BGA.sites_total == 2812

    def test_c4_site_count(self):
        assert C4_BUMP.sites_total == 30000

    def test_micro_bump_site_count(self):
        assert MICRO_BUMP.sites_total == 138888

    def test_tsv_power_sites_restricted(self):
        # TSVs live in dedicated islands: far fewer than geometric sites.
        assert TSV.power_sites < TSV.sites_total / 100

    def test_sites_on_area_scales(self):
        half = MICRO_BUMP.sites_on_area(250e-6)
        full = MICRO_BUMP.sites_on_area(500e-6)
        assert full == pytest.approx(2 * half, rel=0.01)

    def test_sites_on_area_rejects_zero(self):
        with pytest.raises(ConfigError):
            MICRO_BUMP.sites_on_area(0.0)


class TestArrays:
    def test_parallel_resistance(self):
        array = BGA.array(10)
        assert array.resistance_one_polarity_ohm == pytest.approx(
            BGA.element_resistance_ohm / 10
        )

    def test_rail_pair_doubles(self):
        array = BGA.array(10)
        assert array.resistance_rail_pair_ohm == pytest.approx(
            2 * array.resistance_one_polarity_ohm
        )

    def test_loss_quadratic_in_current(self):
        array = C4_BUMP.array(100)
        assert array.loss_w(20.0) == pytest.approx(4 * array.loss_w(10.0))

    def test_loss_zero_current(self):
        assert BGA.array(5).loss_w(0.0) == 0.0

    def test_loss_rejects_negative(self):
        with pytest.raises(ConfigError):
            BGA.array(5).loss_w(-1.0)

    def test_current_per_element(self):
        array = BGA.array(20)
        assert array.current_per_element_a(30.0) == pytest.approx(1.5)

    def test_within_rating(self):
        array = BGA.array(20)
        assert array.is_within_rating(30.0)  # 1.5 A each, at the rating
        assert not array.is_within_rating(40.0)

    def test_utilization_counts_both_polarities(self):
        array = BGA.array(14)
        assert array.utilization == pytest.approx(28 / BGA.power_sites)

    def test_rejects_empty_array(self):
        with pytest.raises(ConfigError):
            BGA.array(0)


class TestArrayForCurrent:
    def test_sizes_by_rating(self):
        array = BGA.array_for_current(21.0)
        assert array.count_per_polarity == 14  # ceil(21 / 1.5)

    def test_respects_utilization_cap(self):
        with pytest.raises(InfeasibleError):
            # 60% of BGA sites can carry ~1.26 kA; 2 kA must fail.
            BGA.array_for_current(2000.0, utilization_cap=0.60)

    def test_max_current_at_cap(self):
        # 60% cap: int(2812/2 * 0.6) = 843 sites -> 1264.5 A
        assert BGA.max_current_a(0.60) == pytest.approx(843 * 1.5)

    def test_c4_platform_feeds_1ka_at_85pct(self):
        # The paper's 85% C4 cap must just cover the 1 kA reference.
        assert C4_BUMP.max_current_a(0.85) >= 1000.0

    def test_rejects_bad_cap(self):
        with pytest.raises(ConfigError):
            BGA.array_for_current(10.0, utilization_cap=1.5)

    def test_rejects_zero_current(self):
        with pytest.raises(ConfigError):
            BGA.array_for_current(0.0)

    def test_exact_multiple_of_the_rating_is_minimal(self):
        """0.78 A on 60 mA TSVs: 0.78 / 0.06 rounds to
        13.000000000000002, which sized 14 elements although 13 carry
        it within the rating (a property-test draw)."""
        array = TSV.array_for_current(0.78)
        assert array.count_per_polarity == 13
        assert array.is_within_rating(0.78)


class TestRatings:
    """The derated ratings behind the utilization reproduction."""

    def test_bga_rating(self):
        assert BGA.rated_current_a == pytest.approx(1.5)

    def test_c4_rating(self):
        assert C4_BUMP.rated_current_a == pytest.approx(0.080)

    def test_micro_bump_rating_forces_1200mm2(self):
        # 1 kA needs ceil(1000/0.006)=166667 bumps/polarity; at 60 um
        # pitch that is ~1200 mm2 of die - the paper's A0 die size.
        per_polarity = 1000.0 / MICRO_BUMP.rated_current_a
        area_mm2 = 2 * per_polarity * (60e-6) ** 2 / 1e-6
        assert area_mm2 == pytest.approx(1200.0, rel=0.01)

    def test_cu_pad_rating_keeps_util_under_20pct(self):
        per_polarity = 1000.0 / ADVANCED_CU_PAD.rated_current_a
        utilization = 2 * per_polarity / ADVANCED_CU_PAD.sites_total
        assert utilization < 0.20
