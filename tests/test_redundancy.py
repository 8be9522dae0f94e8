"""VR fault-injection / redundancy tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SystemSpec
from repro.converters.catalog import DPMIH, DSCH
from repro.core.architectures import (
    reference_a0,
    single_stage_a1,
    single_stage_a2,
)
from repro.core.redundancy import (
    failure_tolerance,
    inject_failures,
    multi_failure_samples,
)
from repro.errors import ConfigError
from repro.pdn.powermap import PowerMap


class TestInjectFailures:
    def test_survivor_count(self):
        result = inject_failures(single_stage_a1(), DSCH, (0, 1))
        assert len(result.survivor_currents_a) == 46

    def test_survivors_carry_full_load(self):
        result = inject_failures(single_stage_a1(), DSCH, (3,))
        assert result.survivor_currents_a.sum() == pytest.approx(
            1000.0, rel=1e-6
        )

    def test_no_failure_baseline(self):
        result = inject_failures(single_stage_a1(), DSCH, ())
        assert len(result.survivor_currents_a) == 48
        assert result.survives

    def test_failure_raises_neighbour_load(self):
        baseline = inject_failures(single_stage_a1(), DSCH, ())
        failed = inject_failures(single_stage_a1(), DSCH, (0,))
        assert failed.survivor_currents_a.max() >= (
            baseline.survivor_currents_a.max()
        )

    def test_a2_hotspot_failure_overloads(self):
        """Killing the VR on the hotspot pushes its neighbours (already
        near the 30 A rating) over the edge."""
        sharing = inject_failures(single_stage_a2(), DSCH, ())
        hotspot_vr = int(np.argmax(sharing.survivor_currents_a))
        result = inject_failures(single_stage_a2(), DSCH, (hotspot_vr,))
        assert result.overloaded_count > 0
        assert not result.survives

    def test_validation(self):
        with pytest.raises(ConfigError):
            inject_failures(reference_a0(), DSCH, (0,))
        with pytest.raises(ConfigError):
            inject_failures(single_stage_a1(), DSCH, (99,))
        with pytest.raises(ConfigError):
            inject_failures(single_stage_a1(), DSCH, tuple(range(48)))
        for bad in ((1.5,), (True,), (float("nan"),)):
            with pytest.raises(ConfigError, match="failed_indices"):
                inject_failures(single_stage_a1(), DSCH, bad)


class TestFailureTolerance:
    def test_a1_uniform_map_tolerates_single_failures(self):
        """With a uniform die and ~21 A per VR, losing any one of 48
        units leaves ample margin to the 30 A rating."""
        report = failure_tolerance(
            single_stage_a1(),
            DSCH,
            power_map=PowerMap.uniform(),
            sample_limit=12,
        )
        assert report.tolerates_any_single_failure
        assert report.worst_single_overload_fraction < 1.0

    def test_a2_hotspot_map_does_not_tolerate(self):
        """The hotspot already drives center VRs past the 30 A rating
        even before a failure - N-1 cannot hold."""
        report = failure_tolerance(
            single_stage_a2(), DSCH, sample_limit=8
        )
        assert not report.tolerates_any_single_failure

    def test_worst_index_identified(self):
        report = failure_tolerance(
            single_stage_a1(),
            DSCH,
            power_map=PowerMap.uniform(),
            sample_limit=8,
        )
        assert 0 <= report.worst_single_failure_index < 48

    def test_mirror_image_ties_report_the_lowest_index(self):
        """On the A1 bank under the hotspot map, failing VR 5, 6, 17,
        18, 29, 30, 41 or 42 overloads the survivors by one fraction up
        to ~1e-13; the report names the lowest of them, not whichever
        the last bits favour."""
        report = failure_tolerance(single_stage_a1(), DSCH)
        assert report.worst_single_failure_index == 5
        for index in (5, 6, 17, 18, 29, 30, 41, 42):
            result = inject_failures(single_stage_a1(), DSCH, (index,))
            assert result.worst_overload_fraction == pytest.approx(
                report.worst_single_overload_fraction, rel=1e-9
            )

    def test_dpmih_margin(self):
        """12 DPMIH VRs at ~84 A of a 100 A rating: a single failure
        pushes survivors close to (or beyond) the rating under the
        hotspot map - the analysis quantifies exactly how close."""
        report = failure_tolerance(
            single_stage_a2(), DPMIH, sample_limit=6
        )
        assert report.worst_single_overload_fraction > 0.9

    def test_sample_limit_validation(self):
        with pytest.raises(ConfigError):
            failure_tolerance(single_stage_a1(), DSCH, sample_limit=0)
        for bad in (2.5, True, float("nan")):
            with pytest.raises(ConfigError, match="sample_limit"):
                failure_tolerance(single_stage_a1(), DSCH, sample_limit=bad)


class TestMultiFailure:
    def test_scenario_count(self):
        results = multi_failure_samples(
            single_stage_a1(), DSCH, failure_count=2, max_scenarios=5
        )
        assert len(results) == 5
        assert all(len(r.failed_indices) == 2 for r in results)

    def test_more_failures_more_stress(self):
        single = multi_failure_samples(
            single_stage_a1(), DSCH, 1, max_scenarios=3
        )
        triple = multi_failure_samples(
            single_stage_a1(), DSCH, 3, max_scenarios=3
        )
        worst_single = max(r.worst_overload_fraction for r in single)
        worst_triple = max(r.worst_overload_fraction for r in triple)
        assert worst_triple >= worst_single

    def test_validation(self):
        with pytest.raises(ConfigError):
            multi_failure_samples(single_stage_a1(), DSCH, 0)
        for bad in (1.5, True):
            with pytest.raises(ConfigError, match="failure_count"):
                multi_failure_samples(single_stage_a1(), DSCH, bad)
        with pytest.raises(ConfigError, match="max_scenarios"):
            multi_failure_samples(
                single_stage_a1(), DSCH, 1, max_scenarios=2.5
            )


class TestSmallSystem:
    def test_smaller_system_has_headroom(self):
        """At 600 W the same 48-VR bank runs at ~13 A each: N-1 passes
        even with the hotspot map."""
        spec = SystemSpec().with_power(600.0)
        report = failure_tolerance(
            single_stage_a1(), DSCH, spec=spec, sample_limit=8
        )
        assert report.tolerates_any_single_failure

class TestWoodburySweepParity:
    def test_scenario_matches_refactorized_oracle(self):
        """The sweep's Woodbury scenarios equal full refactorized
        solves of the same failure model (<= 1e-9 relative)."""
        from repro.core.current_sharing import (
            DEFAULT_OUTPUT_RESISTANCE_OHM,
            _die_grid_with_bank,
        )
        from repro.core.redundancy import DEFAULT_GRID_NODES

        spec = SystemSpec()
        grid, _ = _die_grid_with_bank(
            single_stage_a1(),
            DSCH,
            spec,
            PowerMap.hotspot_mixture(),
            DEFAULT_GRID_NODES,
            spec.pol_voltage_v,
            DEFAULT_OUTPUT_RESISTANCE_OHM,
        )
        for failed in [(0,), (7,), (3, 19)]:
            fast = grid.solve_disabled(failed, method="woodbury")
            oracle = grid.solve_disabled(failed, method="refactor")
            scale = float(np.abs(oracle.voltage_map).max())
            assert np.abs(
                fast.voltage_map - oracle.voltage_map
            ).max() <= 1e-9 * scale
            assert fast.source_currents_a == pytest.approx(
                oracle.source_currents_a, rel=1e-9, abs=1e-9
            )

    def test_sweep_reuses_one_factorization(self):
        """failure_tolerance must factorize at most once per topology.

        The process-wide content-hashed cache (repro.parallel.cache)
        shares factorizations across grid rebuilds, so a sweep costs
        one LU on a cold cache and zero on a warm one.
        """
        from unittest.mock import patch

        from repro.parallel import process_cache
        from repro.pdn.mna import FactorizedPDN

        original = FactorizedPDN.__init__
        calls = {"count": 0}

        def counting_init(self, netlist):
            calls["count"] += 1
            original(self, netlist)

        process_cache().clear()
        with patch.object(FactorizedPDN, "__init__", counting_init):
            failure_tolerance(
                single_stage_a1(),
                DSCH,
                power_map=PowerMap.uniform(),
                sample_limit=6,
            )
        assert calls["count"] == 1
