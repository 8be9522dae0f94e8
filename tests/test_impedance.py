"""PDN AC impedance analysis tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.pdn.impedance import (
    ladder_ac_netlist,
    pdn_impedance,
    pdn_impedance_mna,
    size_die_decap_for_target,
    target_impedance_ohm,
)
from repro.pdn.transient import PDNStage

NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])


def simple_stages(die_cap: float = 10e-6) -> list[PDNStage]:
    return [
        PDNStage("board", 0.2e-3, 10e-9, 2e-3, 0.2e-3),
        PDNStage("die", 0.05e-3, 50e-12, die_cap, 0.05e-3),
    ]


class TestTargetImpedance:
    def test_rule(self):
        # 1 V, 5% ripple, 500 A transient -> 0.1 mOhm.
        assert target_impedance_ohm(1.0, 0.05, 500.0) == pytest.approx(1e-4)

    def test_rejects_bad_ripple(self):
        with pytest.raises(ConfigError):
            target_impedance_ohm(1.0, 0.0, 100.0)

    def test_rejects_zero_current(self):
        with pytest.raises(ConfigError):
            target_impedance_ohm(1.0, 0.05, 0.0)

    @NON_FINITE
    @pytest.mark.parametrize(
        "name", ["supply_voltage_v", "ripple_fraction", "transient_current_a"]
    )
    def test_rejects_non_finite_values_by_name(self, name, bad):
        values = dict(
            supply_voltage_v=1.0, ripple_fraction=0.05, transient_current_a=100.0
        )
        values[name] = bad
        with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
            target_impedance_ohm(**values)


class TestImpedanceProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        return pdn_impedance(simple_stages())

    def test_low_frequency_plateau_is_resistive(self, profile):
        # At 1 kHz the caps dominate... actually the profile at the
        # lowest frequency approaches the DC series resistance.
        dc_resistance = 0.2e-3 + 0.05e-3
        assert profile.impedance_ohm[0] <= dc_resistance * 1.5

    def test_peak_above_dc(self, profile):
        assert profile.peak_impedance_ohm > profile.impedance_ohm[0]

    def test_peak_frequency_in_band(self, profile):
        assert 1e3 <= profile.peak_frequency_hz <= 1e9

    def test_high_frequency_settles_to_die_esr(self, profile):
        # The die decap is the last shunt element: far above the
        # anti-resonance the profile approaches its ESR (50 uOhm).
        assert profile.impedance_ohm[-1] == pytest.approx(0.05e-3, rel=0.2)

    def test_more_die_decap_lowers_peak(self):
        small = pdn_impedance(simple_stages(die_cap=1e-6))
        large = pdn_impedance(simple_stages(die_cap=100e-6))
        assert large.peak_impedance_ohm < small.peak_impedance_ohm

    def test_meets_target_true_for_generous_target(self, profile):
        assert profile.meets_target(profile.peak_impedance_ohm * 1.01)

    def test_meets_target_false_for_tight_target(self, profile):
        assert not profile.meets_target(profile.peak_impedance_ohm * 0.5)

    def test_violation_band(self, profile):
        target = profile.peak_impedance_ohm * 0.5
        band = profile.violation_band_hz(target)
        assert band is not None
        lo, hi = band
        assert lo <= profile.peak_frequency_hz <= hi

    def test_no_violation_band_when_passing(self, profile):
        target = profile.peak_impedance_ohm * 1.1
        assert profile.violation_band_hz(target) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-3])
    def test_target_checks_reject_non_finite_target(self, profile, bad):
        """A non-finite or non-positive target raises by name."""
        with pytest.raises(ConfigError, match="target_ohm"):
            profile.meets_target(bad)
        with pytest.raises(ConfigError, match="target_ohm"):
            profile.violation_band_hz(bad)

    def test_custom_frequency_grid(self):
        freqs = np.logspace(4, 8, 50)
        profile = pdn_impedance(simple_stages(), frequencies_hz=freqs)
        assert len(profile.impedance_ohm) == 50

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ConfigError):
            pdn_impedance(simple_stages(), frequencies_hz=np.array([0.0, 1e6]))

    def test_rejects_empty_stages(self):
        with pytest.raises(ConfigError):
            pdn_impedance([])

    @NON_FINITE
    def test_rejects_non_finite_frequencies(self, bad):
        with pytest.raises(ConfigError, match="^frequencies must be finite$"):
            pdn_impedance(simple_stages(), frequencies_hz=np.array([1e6, bad]))

    @NON_FINITE
    @pytest.mark.parametrize(
        "entry", [pdn_impedance, pdn_impedance_mna, ladder_ac_netlist]
    )
    def test_rejects_non_finite_source_impedance_by_name(self, entry, bad):
        # NaN would otherwise pass the sign check and build the ideal
        # short: a plausible 0-ohm answer.
        with pytest.raises(
            ConfigError, match="^source_impedance_ohm must be finite$"
        ):
            entry(simple_stages(), source_impedance_ohm=bad)


class TestAnalyticCrossChecks:
    def test_single_stage_resonance_location(self):
        """A single L-C stage anti-resonates near f = 1/(2*pi*sqrt(LC))
        when seen beyond the cap (series branch with source)."""
        stage = PDNStage("only", 0.05e-3, 1e-9, 1e-6, 0.0)
        freqs = np.logspace(5, 9, 2001)
        profile = pdn_impedance([stage], frequencies_hz=freqs)
        expected = 1.0 / (2 * math.pi * math.sqrt(1e-9 * 1e-6))
        assert profile.peak_frequency_hz == pytest.approx(expected, rel=0.05)

    def test_high_frequency_asymptote_is_cap_esr(self):
        """Far above resonance the die cap's ESR short dominates."""
        stage = PDNStage("only", 0.05e-3, 1e-9, 1e-6, 0.3e-3)
        freqs = np.logspace(9.5, 10.5, 50)
        profile = pdn_impedance([stage], frequencies_hz=freqs)
        assert profile.impedance_ohm[-1] == pytest.approx(0.3e-3, rel=0.02)


class TestArchitectureComparison:
    def test_interposer_regulation_flattens_low_mid_band(self):
        """The A1/A2-style short PDN sits well below the A0-style
        board-regulated ladder through the low/mid band (the die-cap
        anti-resonance around tens of MHz is set by the die stage and
        is common to both)."""
        board_style = [
            PDNStage("board", 0.2e-3, 10e-9, 2e-3, 0.2e-3),
            PDNStage("package", 0.1e-3, 0.5e-9, 200e-6, 0.3e-3),
            PDNStage("die", 0.05e-3, 20e-12, 2e-6, 0.05e-3),
        ]
        interposer_style = [
            PDNStage("interposer", 0.05e-3, 100e-12, 100e-6, 0.1e-3),
            PDNStage("die", 0.02e-3, 10e-12, 2e-6, 0.05e-3),
        ]
        freqs = np.logspace(3, 5.9, 120)  # 1 kHz .. ~800 kHz
        z_board = pdn_impedance(board_style, frequencies_hz=freqs)
        z_interposer = pdn_impedance(interposer_style, frequencies_hz=freqs)
        assert np.all(
            z_interposer.impedance_ohm <= z_board.impedance_ohm
        )
        # At DC-ish frequencies the gap is large (>3x).
        assert (
            z_interposer.impedance_ohm[0]
            < z_board.impedance_ohm[0] / 3.0
        )


class TestDecapSizing:
    def test_sizing_reaches_target(self):
        stages = simple_stages(die_cap=0.5e-6)
        profile = pdn_impedance(stages)
        target = profile.peak_impedance_ohm * 0.6
        rec = size_die_decap_for_target(stages, target)
        assert rec.meets_target
        assert rec.recommended_farad > rec.original_farad

    def test_sizing_noop_when_already_passing(self):
        stages = simple_stages(die_cap=10e-6)
        profile = pdn_impedance(stages)
        rec = size_die_decap_for_target(
            stages, profile.peak_impedance_ohm * 1.1
        )
        assert rec.meets_target
        assert rec.recommended_farad == rec.original_farad

    def test_sizing_reports_failure_at_cap_limit(self):
        stages = simple_stages(die_cap=1e-6)
        rec = size_die_decap_for_target(stages, 1e-9, max_farad=10e-6)
        assert not rec.meets_target

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigError, match="target_ohm"):
            size_die_decap_for_target(simple_stages(), 0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="target_ohm"):
                size_die_decap_for_target(simple_stages(), bad)

    @NON_FINITE
    def test_rejects_non_finite_max_farad_by_name(self, bad):
        with pytest.raises(ConfigError, match="^max_farad must be finite$"):
            size_die_decap_for_target(simple_stages(), 1e-3, max_farad=bad)


class TestGridLadderCollapse:
    """A 1xN chain grid with uniform decap IS the analytic ladder.

    Each chain edge (R + jwL) followed by a node decap (C + ESR)
    matches one :class:`PDNStage`, and the source's output resistance
    plays the ladder's source impedance — so the grid-level AC engine
    must collapse onto both closed forms (`pdn_impedance`) and the
    compiled lumped path (`pdn_impedance_mna`) exactly.
    """

    N_STAGES = 4
    EDGE_R = 1.2e-3
    EDGE_L = 1e-10
    DECAP_C = 2e-6
    DECAP_ESR = 1.5e-3
    SOURCE_R = 1e-4

    @pytest.fixture(scope="class")
    def collapse(self):
        import numpy as np

        from repro.pdn.grid import GridACPDN

        nx = self.N_STAGES + 1
        stages = [
            PDNStage(
                f"seg{k}",
                self.EDGE_R,
                self.EDGE_L,
                self.DECAP_C,
                self.DECAP_ESR,
            )
            for k in range(self.N_STAGES)
        ]
        # width = nx - 1, height = 1, sheet = R  ==>  each x edge is
        # exactly R ohms; ny = 1 makes the mesh the ladder's chain.
        pdn = GridACPDN(
            width_m=float(nx - 1),
            height_m=1.0,
            sheet_ohm_sq=self.EDGE_R,
            nx=nx,
            ny=1,
            edge_inductance_x_h=self.EDGE_L,
        )
        c_map = np.full((1, nx), self.DECAP_C)
        c_map[0, 0] = 0.0  # the ladder has no shunt at the source node
        esr_map = np.full((1, nx), self.DECAP_ESR)
        esr_map[0, 0] = 0.0
        pdn.set_decap_map(c_map, esr_map, 0.0)
        pdn.add_source("vrm", 0.0, 0.0, 1.0, self.SOURCE_R)
        freqs = np.logspace(4, 9, 61)
        return pdn, stages, freqs

    def test_edge_resistance_matches_stage(self, collapse):
        pdn, _, _ = collapse
        assert pdn.edge_resistance_x_ohm == pytest.approx(self.EDGE_R)

    def test_die_node_matches_closed_form(self, collapse):
        import numpy as np

        pdn, stages, freqs = collapse
        grid_z = pdn.impedance_map(freqs).node_profile(self.N_STAGES, 0)
        ladder = pdn_impedance(
            stages, freqs, source_impedance_ohm=self.SOURCE_R
        )
        np.testing.assert_allclose(
            grid_z.impedance_ohm, ladder.impedance_ohm, rtol=1e-9
        )

    def test_die_node_matches_compiled_mna_ladder(self, collapse):
        import numpy as np

        from repro.pdn.impedance import pdn_impedance_mna

        pdn, stages, freqs = collapse
        grid_z = pdn.impedance_map(freqs).node_profile(self.N_STAGES, 0)
        mna = pdn_impedance_mna(
            stages, freqs, source_impedance_ohm=self.SOURCE_R
        )
        np.testing.assert_allclose(
            grid_z.impedance_ohm, mna.impedance_ohm, rtol=1e-9
        )

    def test_low_frequency_impedance_grows_along_chain(self, collapse):
        """At the resistive plateau, Z accumulates edge resistance
        with distance from the source."""
        pdn, _, freqs = collapse
        impedance = pdn.impedance_map(freqs)
        plateau = impedance.impedance_ohm[:, 0]
        assert all(
            later >= earlier * (1 - 1e-9)
            for earlier, later in zip(plateau, plateau[1:])
        )
        assert impedance.worst_node()[0] == self.N_STAGES


class TestGridDecapSizing:
    """`size_grid_decap_for_target` against the real mesh Z(f)."""

    def make_pdn(self):
        import numpy as np

        from repro.pdn.grid import GridACPDN

        # Deliberately inductance-dominated (large bump L, light mesh)
        # so the anti-resonant peak — the part decap can fix — is the
        # worst point, not the resistive plateau.
        pdn = GridACPDN(0.02, 0.02, 1e-4, nx=6, ny=6)
        pdn.set_decap_density(1.0, 50e-9, 2e-3, 1e-12)
        pdn.add_source("a", 0.0, 0.0, 1.0, 1e-4, 2e-9)
        pdn.add_source("b", 1.0, 1.0, 1.0, 1e-4, 2e-9)
        return pdn, np.logspace(4, 9, 61)

    def test_sizing_reaches_reachable_target(self):
        from repro.pdn.impedance import size_grid_decap_for_target

        pdn, freqs = self.make_pdn()
        baseline = pdn.impedance_map(freqs).peak_impedance_ohm
        original_total = pdn.total_decap_farad
        rec = size_grid_decap_for_target(
            pdn, baseline * 0.5, frequencies_hz=freqs
        )
        assert rec.meets_target
        assert rec.recommended_farad > rec.original_farad
        assert rec.original_farad == pytest.approx(original_total)
        # The search restores the caller's decap allocation.
        assert pdn.total_decap_farad == pytest.approx(original_total)

    def test_sizing_noop_when_already_passing(self):
        from repro.pdn.impedance import size_grid_decap_for_target

        pdn, freqs = self.make_pdn()
        baseline = pdn.impedance_map(freqs).peak_impedance_ohm
        rec = size_grid_decap_for_target(
            pdn, baseline * 1.5, frequencies_hz=freqs
        )
        assert rec.meets_target
        assert rec.recommended_farad == pytest.approx(rec.original_farad)

    def test_sizing_reports_failure_at_scale_limit(self):
        from repro.pdn.impedance import size_grid_decap_for_target

        pdn, freqs = self.make_pdn()
        rec = size_grid_decap_for_target(
            pdn, 1e-12, max_scale=4.0, frequencies_hz=freqs
        )
        assert not rec.meets_target

    def test_rejects_bad_target_and_missing_decap(self):
        import numpy as np

        from repro.pdn.grid import GridACPDN
        from repro.pdn.impedance import size_grid_decap_for_target

        pdn, _ = self.make_pdn()
        with pytest.raises(ConfigError, match="target_ohm"):
            size_grid_decap_for_target(pdn, 0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="target_ohm"):
                size_grid_decap_for_target(pdn, bad)
        bare = GridACPDN(0.02, 0.02, 1e-3, nx=4, ny=4)
        bare.add_source("a", 0.5, 0.5, 1.0, 1e-3)
        with pytest.raises(ConfigError):
            size_grid_decap_for_target(bare, 1e-3)

    @NON_FINITE
    def test_rejects_non_finite_max_scale_by_name(self, bad):
        # NaN passes the >= 1 guard and never ends the doubling loop.
        from repro.pdn.impedance import size_grid_decap_for_target

        pdn, _ = self.make_pdn()
        with pytest.raises(ConfigError, match="^max_scale must be finite$"):
            size_grid_decap_for_target(pdn, 1e-3, max_scale=bad)

    @staticmethod
    def _assert_decap_restored(before, after):
        """``after`` (the grid's design now) carries the decap state of
        ``before`` (the design saved up front) bit for bit."""
        from dataclasses import fields

        import numpy as np

        assert after.key == before.key
        assert type(after.decap) is type(before.decap)
        for field in fields(before.decap):
            part_before = getattr(before.decap, field.name)
            part_after = getattr(after.decap, field.name)
            if isinstance(part_before, np.ndarray):
                assert np.array_equal(
                    part_after, part_before
                ), "decap array not restored bit-exactly"
            else:
                assert part_after == part_before

    def test_sizing_restores_map_representation_bit_exactly(self):
        # Regression: the sizer used to undo trials with
        # scale_decap(1/total_scale), a lossy float round-trip for a
        # "map" allocation; it must put the saved design back instead.
        import numpy as np

        from repro.pdn.grid import GridACPDN
        from repro.pdn.impedance import size_grid_decap_for_target

        pdn = GridACPDN(0.02, 0.02, 1e-4, nx=6, ny=6)
        rng = np.random.default_rng(7)
        cap = 50e-9 * (0.3 + rng.random((6, 6)))
        pdn.set_decap_map(cap, 2e-3, 1e-12)
        pdn.add_source("a", 0.0, 0.0, 1.0, 1e-4, 2e-9)
        freqs = np.logspace(4, 9, 31)
        before = pdn.design
        baseline = pdn.impedance_map(freqs).peak_impedance_ohm
        rec = size_grid_decap_for_target(
            pdn, baseline * 0.5, frequencies_hz=freqs
        )
        assert rec.meets_target
        self._assert_decap_restored(before, pdn.design)
        # The restored grid reproduces the pre-search sweep exactly.
        assert pdn.impedance_map(freqs).peak_impedance_ohm == baseline

    def test_sizing_restores_state_when_sweep_raises(self):
        # Regression: a trial evaluation that raises mid-search used to
        # leave the grid holding the scaled trial allocation.
        from repro.pdn.impedance import size_grid_decap_for_target

        pdn, freqs = self.make_pdn()
        before = pdn.design
        calls = {"n": 0}
        real_map = pdn.impedance_map

        def exploding_map(frequencies):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("solver blew up mid-search")
            return real_map(frequencies)

        pdn.impedance_map = exploding_map
        try:
            with pytest.raises(RuntimeError):
                size_grid_decap_for_target(
                    pdn, 1e-12, frequencies_hz=freqs
                )
        finally:
            del pdn.impedance_map
        self._assert_decap_restored(before, pdn.design)

    def test_sizing_failure_caps_recommendation_at_max_scale(self):
        from repro.pdn.impedance import size_grid_decap_for_target

        pdn, freqs = self.make_pdn()
        before = pdn.design
        rec = size_grid_decap_for_target(
            pdn, 1e-12, max_scale=4.0, frequencies_hz=freqs
        )
        assert not rec.meets_target
        assert rec.recommended_farad == pytest.approx(
            rec.original_farad * 4.0
        )
        self._assert_decap_restored(before, pdn.design)
        assert pdn.total_decap_farad == pytest.approx(rec.original_farad)
