"""Monte-Carlo variation analysis.

The calibrated models carry tolerances: converter efficiency spreads
across units, RDL plating thickness varies a few percent, and derated
interconnect ratings are conservative means.  This module perturbs
the loss model's inputs and reports the distribution of total loss,
answering "with what margin does the design meet its efficiency
target?" — the kind of robustness question the paper's companion
methodology [11] centers on.

Sampling is deterministic given the seed (numpy Generator).  All
random factors are drawn in one batched call up front (one
``(samples, 4)`` normal draw instead of per-sample scalar draws).  The
draws route through the sweep executor (:mod:`repro.parallel`), and
each chunk of draws is one :meth:`LossAnalyzer.analyze_many` call on
the nominal analyzer: one batched walk of the loss chain, with no
per-draw converter, parameter set or analyzer.  Because the factors
are drawn in the parent before sharding, ``jobs=N`` evaluates exactly
the draws ``jobs=1`` does — bit-identical results, any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import SystemSpec
from ..converters.catalog import ConverterSpec
from ..core.architectures import ArchitectureSpec
from ..core.loss_analysis import LossAnalyzer
from ..errors import (
    ConfigError,
    InfeasibleError,
    require_count,
    require_finite,
)
from ..parallel import Scenario, SweepPlan, run_sweep


@dataclass(frozen=True)
class VariationSpec:
    """Relative 1-sigma tolerances applied per sample.

    Attributes:
        converter_loss_sigma: on each converter-loss coefficient.
        rdl_sigma: on the die-grid / intermediate-rail resistance
            (plating thickness variation).
        seed: RNG seed (determinism contract).
    """

    converter_loss_sigma: float = 0.05
    rdl_sigma: float = 0.08
    seed: int = 2023

    def __post_init__(self) -> None:
        for name in ("converter_loss_sigma", "rdl_sigma"):
            value = getattr(self, name)
            if not 0.0 <= value < 0.5:
                raise ConfigError(f"{name} must be in [0, 0.5)")


@dataclass(frozen=True)
class VariationResult:
    """Monte-Carlo outcome for one design point.

    Attributes:
        samples_w: total-loss samples (watts).
        nominal_loss_w: the unperturbed total loss.
        infeasible_count: samples where the perturbed converter could
            no longer carry its share.
    """

    samples_w: np.ndarray
    nominal_loss_w: float
    infeasible_count: int

    @property
    def mean_loss_w(self) -> float:
        """Mean of the feasible samples."""
        return float(self.samples_w.mean())

    @property
    def std_loss_w(self) -> float:
        """Standard deviation of the feasible samples."""
        return float(self.samples_w.std())

    def percentile_w(self, q: float) -> float:
        """Loss percentile (e.g. 95 for the pessimistic corner)."""
        if not 0.0 <= q <= 100.0:
            raise ConfigError("percentile must be in [0, 100]")
        return float(np.percentile(self.samples_w, q))

    def yield_at_efficiency(
        self, min_efficiency: float, pol_power_w: float
    ) -> float:
        """Fraction of samples meeting an efficiency floor."""
        if not 0.0 < min_efficiency < 1.0:
            raise ConfigError("efficiency floor must be in (0, 1)")
        require_finite(pol_power_w, "pol_power_w")
        if pol_power_w <= 0:
            raise ConfigError("pol_power_w must be positive")
        max_loss = pol_power_w * (1.0 / min_efficiency - 1.0)
        total = len(self.samples_w) + self.infeasible_count
        good = int(np.count_nonzero(self.samples_w <= max_loss))
        return good / total


def spawn_variation_seeds(
    variation: VariationSpec, count: int
) -> list[np.random.SeedSequence]:
    """Independent child seed sequences rooted at the variation seed.

    ``SeedSequence.spawn`` guarantees non-overlapping streams, so a
    sweep sharded across processes can hand each worker its own child
    and draw locally without any coordination — and without two
    workers ever replaying the same draws.
    """
    if count < 1:
        raise ConfigError("need at least one child seed")
    return np.random.SeedSequence(variation.seed).spawn(count)


def sample_variation_factors(
    variation: VariationSpec,
    samples: int,
    rng: "np.random.Generator | np.random.SeedSequence | int | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw all Monte-Carlo factors in one batch.

    Returns ``(loss_factors, rdl_factors)`` with shapes
    ``(samples, 3)`` and ``(samples,)`` — log-normal multipliers for
    the converter loss coefficients and the RDL resistances.

    ``rng`` selects the random stream: ``None`` keeps the historical
    contract (a fresh generator seeded from ``variation.seed``, so the
    same spec always reproduces the same draws); a ``Generator``,
    ``SeedSequence`` (e.g. a child from :func:`spawn_variation_seeds`),
    or integer seed gives callers — worker processes in particular —
    an explicit, non-overlapping stream.
    """
    samples = require_count(samples, "samples", 1)
    if rng is None:
        rng = np.random.default_rng(variation.seed)
    elif not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    normals = rng.normal(0.0, 1.0, size=(samples, 4))
    loss_factors = np.exp(variation.converter_loss_sigma * normals[:, :3])
    rdl_factors = np.exp(variation.rdl_sigma * normals[:, 3])
    return loss_factors, rdl_factors


def _variation_chunk(payload: tuple, scenarios: tuple) -> list:
    """Evaluate one chunk of Monte-Carlo draws in one batched loss
    evaluation.

    Returns per-scenario ``total_loss_w`` floats, or ``None`` for
    draws where the perturbed converter is infeasible.
    """
    analyzer, arch, topology = payload
    totals, feasible = analyzer.analyze_many(
        arch,
        topology,
        np.array([scenario.params[0] for scenario in scenarios]),
        np.array([scenario.params[1] for scenario in scenarios]),
    )
    return [
        total if ok else None
        for total, ok in zip(totals.tolist(), feasible.tolist())
    ]


def monte_carlo_loss(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    spec: SystemSpec | None = None,
    variation: VariationSpec | None = None,
    samples: int = 200,
    jobs: "int | str | None" = 1,
    chunk_size: int | None = None,
    target_ci_w: float | None = None,
    progress: "Callable[[int, int], None] | None" = None,
) -> VariationResult:
    """Sample the total loss of a design point under tolerances.

    Args:
        jobs: worker processes for the sample sweep (``1`` = serial,
            ``"auto"`` = available CPUs).  Results are bit-identical
            for any value: all factors are drawn up front.
        chunk_size: samples per executor chunk.
        target_ci_w: optional early-stop — stop consuming chunks once
            the 95% confidence-interval half-width of the mean loss is
            below this many watts (at least two chunks are always
            evaluated).  The retained samples are a deterministic
            prefix of the chunk stream.  Finite and positive.
        progress: optional ``callback(samples_done, samples_total)``.
    """
    samples = require_count(samples, "samples", 2)
    if target_ci_w is not None:
        require_finite(target_ci_w, "target_ci_w")
        if target_ci_w <= 0:
            raise ConfigError("target_ci_w must be positive")
    spec = spec or SystemSpec()
    variation = variation or VariationSpec()

    # The nominal analyzer also evaluates every chunk of draws, which
    # scale its converter coefficients and RDL resistances.
    analyzer = LossAnalyzer(spec=spec)
    nominal = analyzer.analyze(arch, topology)

    # Factors are drawn once, in the parent, before sharding: workers
    # receive explicit (loss_factor, rdl_factor) rows, so the result
    # set cannot depend on worker count or scheduling.
    loss_factors, rdl_factors = sample_variation_factors(variation, samples)
    scenarios = tuple(
        Scenario(key=i, params=(loss_factors[i], rdl_factors[i]))
        for i in range(samples)
    )
    plan = SweepPlan(
        scenarios=scenarios,
        runner=_variation_chunk,
        payload=(analyzer, arch, topology),
        chunk_size=chunk_size,
        label="monte-carlo loss",
    )

    # Chunks land in completion order; index them so the retained
    # sample set (and any early-stop decision) follows plan order.
    by_index: dict[int, tuple] = {}
    done = 0
    stream = run_sweep(plan, jobs=jobs)
    for chunk in stream:
        by_index[chunk.index] = chunk.results
        done += len(chunk.results)
        if progress is not None:
            progress(done, samples)
        if target_ci_w is not None and len(by_index) >= 2:
            flat = [
                value
                for index in sorted(by_index)
                for value in by_index[index]
                if value is not None
            ]
            if len(flat) >= 2:
                arr = np.asarray(flat)
                half_width = 1.96 * arr.std(ddof=1) / np.sqrt(len(arr))
                if half_width < target_ci_w:
                    stream.close()
                    break

    results: list[float] = []
    infeasible = 0
    for index in sorted(by_index):
        for value in by_index[index]:
            if value is None:
                infeasible += 1
            else:
                results.append(value)

    if not results:
        raise InfeasibleError(
            "every Monte-Carlo sample was infeasible; the design has no "
            "margin against the modeled tolerances"
        )
    return VariationResult(
        samples_w=np.asarray(results),
        nominal_loss_w=nominal.total_loss_w,
        infeasible_count=infeasible,
    )
