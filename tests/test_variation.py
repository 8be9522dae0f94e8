"""Monte-Carlo variation analysis tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.converters.catalog import DSCH, THREE_LEVEL_HYBRID_DICKSON
from repro.core.architectures import single_stage_a1, single_stage_a2
from repro.core.loss_analysis import LossAnalyzer
from repro.core.variation import (
    VariationSpec,
    monte_carlo_loss,
    sample_variation_factors,
)
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def a1_variation():
    return monte_carlo_loss(single_stage_a1(), DSCH, samples=150)


class TestDistribution:
    def test_sample_count(self, a1_variation):
        assert len(a1_variation.samples_w) + a1_variation.infeasible_count == (
            150
        )

    def test_mean_near_nominal(self, a1_variation):
        assert a1_variation.mean_loss_w == pytest.approx(
            a1_variation.nominal_loss_w, rel=0.10
        )

    def test_spread_positive(self, a1_variation):
        assert a1_variation.std_loss_w > 0.0

    def test_percentiles_ordered(self, a1_variation):
        p5 = a1_variation.percentile_w(5)
        p50 = a1_variation.percentile_w(50)
        p95 = a1_variation.percentile_w(95)
        assert p5 < p50 < p95

    def test_p95_above_nominal(self, a1_variation):
        # The pessimistic corner must cost more than nominal.
        assert a1_variation.percentile_w(95) > a1_variation.nominal_loss_w


class TestDeterminism:
    def test_same_seed_same_samples(self):
        first = monte_carlo_loss(single_stage_a1(), DSCH, samples=50)
        second = monte_carlo_loss(single_stage_a1(), DSCH, samples=50)
        assert np.array_equal(first.samples_w, second.samples_w)

    def test_different_seed_differs(self):
        base = monte_carlo_loss(single_stage_a1(), DSCH, samples=50)
        other = monte_carlo_loss(
            single_stage_a1(),
            DSCH,
            samples=50,
            variation=VariationSpec(seed=7),
        )
        assert not np.array_equal(base.samples_w, other.samples_w)


class TestYield:
    def test_generous_floor_full_yield(self, a1_variation):
        assert a1_variation.yield_at_efficiency(0.5, 1000.0) == 1.0

    def test_tight_floor_partial_yield(self, a1_variation):
        nominal_eta = 1000.0 / (1000.0 + a1_variation.nominal_loss_w)
        result = a1_variation.yield_at_efficiency(nominal_eta, 1000.0)
        assert 0.0 < result < 1.0

    def test_impossible_floor_zero_yield(self, a1_variation):
        assert a1_variation.yield_at_efficiency(0.999, 1000.0) == 0.0

    def test_yield_validation(self, a1_variation):
        with pytest.raises(ConfigError):
            a1_variation.yield_at_efficiency(0.0, 1000.0)

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), 0.0, -5.0])
    def test_yield_rejects_bad_power_by_name(self, a1_variation, power):
        # Unchecked, these give a yield of 0.0 instead of an error.
        with pytest.raises(ConfigError, match="pol_power_w"):
            a1_variation.yield_at_efficiency(0.8, power)


class TestSensitivity:
    def test_larger_sigma_larger_spread(self):
        tight = monte_carlo_loss(
            single_stage_a2(),
            DSCH,
            samples=100,
            variation=VariationSpec(converter_loss_sigma=0.02, rdl_sigma=0.02),
        )
        loose = monte_carlo_loss(
            single_stage_a2(),
            DSCH,
            samples=100,
            variation=VariationSpec(converter_loss_sigma=0.10, rdl_sigma=0.15),
        )
        assert loose.std_loss_w > tight.std_loss_w

    def test_marginal_converter_yields_infeasible_samples(self):
        """At 500 A, 48x 3LHD run at 10.4 A - close to the 12 A limit;
        perturbing the load-dependent losses does not overload them
        (current split is unchanged), so all samples stay feasible.
        This documents that infeasibility only enters through the
        rating check on the shared current."""
        from repro import SystemSpec

        result = monte_carlo_loss(
            single_stage_a1(),
            THREE_LEVEL_HYBRID_DICKSON,
            spec=SystemSpec().with_power(500.0),
            samples=50,
        )
        assert result.infeasible_count == 0


class TestValidation:
    def test_rejects_one_sample(self):
        with pytest.raises(ConfigError):
            monte_carlo_loss(single_stage_a1(), DSCH, samples=1)

    def test_sigma_bounds(self):
        with pytest.raises(ConfigError):
            VariationSpec(converter_loss_sigma=0.6)

    def test_percentile_bounds(self, a1_variation):
        with pytest.raises(ConfigError):
            a1_variation.percentile_w(101.0)

    @pytest.mark.parametrize("samples", [2.5, float("nan"), True, "64", None])
    def test_samples_must_be_a_whole_number(self, samples):
        # Unchecked, 2.5 fails inside numpy with a bare TypeError.
        with pytest.raises(ConfigError, match="samples"):
            monte_carlo_loss(single_stage_a1(), DSCH, samples=samples)

    def test_whole_float_samples_count(self):
        by_float = monte_carlo_loss(single_stage_a1(), DSCH, samples=4.0)
        by_int = monte_carlo_loss(single_stage_a1(), DSCH, samples=4)
        assert np.array_equal(by_float.samples_w, by_int.samples_w)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, -1.0])
    def test_target_ci_must_be_finite_and_positive(self, target):
        # Unchecked, NaN, 0 and -1 never stop the run.
        with pytest.raises(ConfigError, match="target_ci_w"):
            monte_carlo_loss(
                single_stage_a1(), DSCH, samples=8, target_ci_w=target
            )

    @pytest.mark.parametrize("samples", [0, -3, 1.5])
    def test_factor_draw_needs_a_whole_positive_count(self, samples):
        # Unchecked, zero returns empty arrays.
        with pytest.raises(ConfigError, match="samples"):
            sample_variation_factors(VariationSpec(), samples)

    def test_factor_draw_accepts_one_sample(self):
        loss, rdl = sample_variation_factors(VariationSpec(), 1)
        assert loss.shape == (1, 3) and rdl.shape == (1,)


class TestAnalyzeManyValidation:
    @pytest.fixture(scope="class")
    def analyzer(self):
        return LossAnalyzer()

    @pytest.mark.parametrize(
        "loss_scales, rdl_scales, name",
        [
            (np.ones((4, 2)), np.ones(4), "loss_scales"),
            (np.ones(4), np.ones(4), "loss_scales"),
            (np.ones((3, 3)), np.ones(4), "loss_scales"),
            (np.ones((4, 3)), np.ones((4, 1)), "rdl_scales"),
            (np.ones((0, 3)), np.ones(0), "rdl_scales"),
            (np.full((2, 3), np.nan), np.ones(2), "loss_scales"),
            (np.ones((2, 3)), np.array([1.0, np.inf]), "rdl_scales"),
            (np.zeros((2, 3)), np.ones(2), "loss_scales"),
            (np.ones((2, 3)), np.array([1.0, -0.5]), "rdl_scales"),
            (np.ones((2, 3)), ["a", "b"], "rdl_scales"),
        ],
    )
    def test_rejects_bad_scales_by_name(
        self, analyzer, loss_scales, rdl_scales, name
    ):
        with pytest.raises(ConfigError, match=name):
            analyzer.analyze_many(single_stage_a1(), DSCH, loss_scales, rdl_scales)
