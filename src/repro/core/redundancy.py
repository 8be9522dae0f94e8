"""VR fault injection and N−1 redundancy analysis.

A vertical power delivery system paralleling 48 regulators will see
unit failures in the field; the companion methodology the paper builds
on ([11], "A Robust Integrated Power Delivery Method...") makes
robustness a first-class requirement.  This module answers:

* if *k* VRs drop out, does the remaining bank still carry the load
  within its ratings (`inject_failures`)?
* how many arbitrary failures can the design absorb in the worst case
  (`failure_tolerance`, `multi_failure_samples`)?

Failures are modeled by open-circuiting the failed VRs' sources on
the die-level grid and re-solving: surviving neighbours pick up the
orphaned region through the lateral metal, so *which* VR fails
matters — a corner failure is benign, a hotspot failure is not.  A
failed VR's output resistor and ring-bus tap stay in the metal (the
passives don't vanish when a converter dies); only its regulation
loop drops out, i.e. its source branch is forced to carry zero
current.

That formulation makes every scenario a rank-k correction of one
shared system.  Every entry point builds the full bank once, with the
VR-bank builder shared by current sharing and the die maps
(:func:`repro.core.current_sharing._die_grid_with_bank`), and solves
its failure sets through one batched Sherman–Morrison–Woodbury path
(:meth:`repro.pdn.grid.GridPDN.solve_disabled_many` on
:meth:`repro.pdn.mna.FactorizedPDN.solve_modified_many`) instead of
refactorizing the grid per scenario; `inject_failures` is a
one-scenario sweep.

Sweeps (``failure_tolerance``, ``multi_failure_samples``) route their
scenario lists through the chunked executor (:mod:`repro.parallel`).
The payload is the bank's frozen, picklable
:class:`~repro.pdn.mesh.MeshDesign` (the power map is sampled into its
sink array in the calling process); each chunk views it as a grid, the
process-wide factorization cache makes that view cheap, and fixed chunk
boundaries make ``jobs=N`` results bit-identical to ``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..config import SystemSpec
from ..converters.catalog import ConverterSpec
from ..errors import ConfigError, require_count, require_indices
from ..parallel import Scenario, SweepPlan, run_sweep_collect
from ..pdn.grid import GridPDN
from ..pdn.powermap import PowerMap
from .architectures import ArchitectureSpec
from .current_sharing import DEFAULT_OUTPUT_RESISTANCE_OHM, _die_grid_with_bank

#: Default die-grid resolution for fault-injection solves; shared by
#: every entry point so single- and multi-failure results stay
#: comparable.
DEFAULT_GRID_NODES = 24


@dataclass(frozen=True)
class FailureResult:
    """Outcome of one failure scenario.

    Attributes:
        failed_indices: the VRs removed (plan position order).
        survivor_currents_a: per-surviving-VR currents.
        overloaded_count: survivors beyond the converter rating.
        worst_overload_fraction: max survivor current over the rating
            (1.0 = exactly at rating).
        worst_droop_v: node-voltage spread after the failure.
    """

    failed_indices: tuple[int, ...]
    survivor_currents_a: np.ndarray
    overloaded_count: int
    worst_overload_fraction: float
    worst_droop_v: float

    @property
    def survives(self) -> bool:
        """True when no surviving VR exceeds its rating."""
        return self.overloaded_count == 0


def _check_failed(vr_count: int, failed) -> tuple[int, ...]:
    """One scenario's failed VR indices, validated."""
    failed = tuple(int(i) for i in require_indices(failed, "failed_indices"))
    if any(i < 0 or i >= vr_count for i in failed):
        raise ConfigError("failed index out of range")
    if len(failed) >= vr_count:
        raise ConfigError("cannot fail every VR")
    return failed


def _failure_result(
    topology: ConverterSpec,
    failed: tuple[int, ...],
    solution,
) -> FailureResult:
    """Package one solved fault scenario into a :class:`FailureResult`."""
    currents = np.delete(solution.source_currents_a, list(failed))
    limit = topology.max_load_a
    overloaded = int(np.count_nonzero(currents > limit * (1 + 1e-9)))
    return FailureResult(
        failed_indices=failed,
        survivor_currents_a=currents,
        overloaded_count=overloaded,
        worst_overload_fraction=float(currents.max() / limit),
        worst_droop_v=solution.worst_droop_v,
    )


def _solve_scenarios(
    grid: GridPDN,
    topology: ConverterSpec,
    scenarios: list[tuple[int, ...]],
) -> list[FailureResult]:
    """Solve checked fault scenarios on the full-bank grid in one batch.

    One shared factorization, with the influence columns and modified
    right-hand sides of every scenario stacked into batched
    back-substitutions (:meth:`repro.pdn.grid.GridPDN.solve_disabled_many`).
    """
    solutions = grid.solve_disabled_many(scenarios)
    return [
        _failure_result(topology, failed, solution)
        for failed, solution in zip(scenarios, solutions)
    ]


def _failure_chunk(payload: tuple, scenarios: tuple) -> list:
    """Evaluate one chunk of fault scenarios on a view of the bank.

    The view assembles its matrix per chunk, but the factorization is
    shared through the process-wide content-hashed cache
    (:mod:`repro.parallel.cache`), so each worker pays one LU per
    topology across its whole lifetime.
    """
    design, topology = payload
    return _solve_scenarios(
        GridPDN.from_design(design),
        topology,
        [scenario.params for scenario in scenarios],
    )


def _run_failure_sweep(
    grid: GridPDN,
    topology: ConverterSpec,
    scenarios: list[tuple[int, ...]],
    label: str,
    jobs: "int | str | None",
    chunk_size: int | None,
) -> list[FailureResult]:
    """Route a fault-scenario list through the sweep executor."""
    vr_count = len(grid.source_names)
    scenarios = [_check_failed(vr_count, failed) for failed in scenarios]
    plan_obj = SweepPlan(
        scenarios=tuple(
            Scenario(key=failed, params=failed) for failed in scenarios
        ),
        runner=_failure_chunk,
        payload=(grid.design, topology),
        chunk_size=chunk_size,
        label=label,
    )
    return run_sweep_collect(plan_obj, jobs=jobs)


def inject_failures(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    failed_indices: tuple[int, ...],
    spec: SystemSpec | None = None,
    power_map: PowerMap | None = None,
    grid_nodes: int = DEFAULT_GRID_NODES,
    output_resistance_ohm: float = DEFAULT_OUTPUT_RESISTANCE_OHM,
) -> FailureResult:
    """Remove the given VRs and re-solve the sharing network."""
    if not arch.is_vertical:
        raise ConfigError("fault injection applies to on-package VR banks")
    spec = spec or SystemSpec()
    grid, plan = _die_grid_with_bank(
        arch,
        topology,
        spec,
        power_map or PowerMap.hotspot_mixture(),
        grid_nodes,
        spec.pol_voltage_v,
        output_resistance_ohm,
    )
    failed = _check_failed(plan.vr_count, failed_indices)
    return _solve_scenarios(grid, topology, [failed])[0]


@dataclass(frozen=True)
class ToleranceReport:
    """Worst-case failure tolerance of a design point."""

    architecture: str
    topology: str
    vr_count: int
    tolerates_any_single_failure: bool
    worst_single_failure_index: int
    worst_single_overload_fraction: float


def failure_tolerance(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    spec: SystemSpec | None = None,
    power_map: PowerMap | None = None,
    grid_nodes: int = DEFAULT_GRID_NODES,
    sample_limit: int | None = None,
    jobs: "int | str | None" = 1,
    chunk_size: int | None = None,
) -> ToleranceReport:
    """Exhaustive N−1 sweep: fail each VR in turn, find the worst.

    The worst failure is the lowest VR index whose overload fraction
    lies within 1e-9 relative of the largest, so mirror-image VRs that
    tie up to rounding report one stable index.

    Args:
        sample_limit: optionally only test the first k single-failure
            scenarios (for quick checks on large banks).
        jobs: worker processes for the scenario sweep (``1`` = serial,
            ``"auto"`` = available CPUs); results are identical for
            any value.
        chunk_size: scenarios per executor chunk.
    """
    if not arch.is_vertical:
        raise ConfigError("fault injection applies to on-package VR banks")
    if sample_limit is not None:
        sample_limit = require_count(sample_limit, "sample_limit", 1)
    spec = spec or SystemSpec()
    grid, plan = _die_grid_with_bank(
        arch,
        topology,
        spec,
        power_map or PowerMap.hotspot_mixture(),
        grid_nodes,
        spec.pol_voltage_v,
        DEFAULT_OUTPUT_RESISTANCE_OHM,
    )
    indices = list(range(plan.vr_count))[:sample_limit]

    # One shared topology, one cached factorization, and batched
    # scenarios: the N−1 enumeration goes through stacked
    # back-substitutions, chunked and optionally sharded across
    # processes by the sweep executor.
    results = _run_failure_sweep(
        grid,
        topology,
        [(index,) for index in indices],
        "N-1 failure tolerance",
        jobs,
        chunk_size,
    )
    fractions = np.array(
        [result.worst_overload_fraction for result in results]
    )
    worst_fraction = float(fractions.max())
    # Mirror-image VRs tie to ~1e-13, so the worst is the lowest index
    # within 1e-9 relative of the largest fraction, not whichever the
    # last bits favour.
    ties = np.flatnonzero(fractions >= worst_fraction * (1.0 - 1e-9))
    return ToleranceReport(
        architecture=arch.name,
        topology=topology.name,
        vr_count=plan.vr_count,
        tolerates_any_single_failure=all(
            result.survives for result in results
        ),
        worst_single_failure_index=indices[int(ties[0])],
        worst_single_overload_fraction=worst_fraction,
    )


def multi_failure_samples(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    failure_count: int,
    spec: SystemSpec | None = None,
    max_scenarios: int = 20,
    jobs: "int | str | None" = 1,
    chunk_size: int | None = None,
) -> list[FailureResult]:
    """A deterministic sample of k-failure scenarios (first
    ``max_scenarios`` index combinations).

    ``jobs``/``chunk_size`` shard the scenario list across worker
    processes through the sweep executor; results are identical for
    any worker count.
    """
    failure_count = require_count(failure_count, "failure_count", 1)
    max_scenarios = require_count(max_scenarios, "max_scenarios", 1)
    if not arch.is_vertical:
        raise ConfigError("fault injection applies to on-package VR banks")
    spec = spec or SystemSpec()
    grid, plan = _die_grid_with_bank(
        arch,
        topology,
        spec,
        PowerMap.hotspot_mixture(),
        DEFAULT_GRID_NODES,
        spec.pol_voltage_v,
        DEFAULT_OUTPUT_RESISTANCE_OHM,
    )
    scenarios = []
    for combo in combinations(range(plan.vr_count), failure_count):
        scenarios.append(combo)
        if len(scenarios) >= max_scenarios:
            break
    return _run_failure_sweep(
        grid,
        topology,
        scenarios,
        f"N-{failure_count} failure samples",
        jobs,
        chunk_size,
    )
