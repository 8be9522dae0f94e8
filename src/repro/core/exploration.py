"""Design-space exploration and ablations.

* :func:`conversion_location_sweep` — Fig. 3's message quantified:
  total loss vs where the 48V-to-1V conversion happens (PCB → package
  → interposer periphery → below die).
* :func:`intermediate_voltage_sweep` — A3 total loss vs intermediate
  rail voltage (the paper evaluates 12 V and 6 V; the sweep shows the
  whole curve).
* :func:`stage_mode_comparison` — "as-published" vs "ratio-scaled"
  stage models: the paper's conservative reuse makes dual-stage lose
  to single-stage; ratio-optimized stage converters flip the ordering.
* :func:`rdl_thickness_sweep` / :func:`hotspot_sweep` — substrate
  ablations for the horizontal-loss and current-sharing results.
* :func:`si_vs_gan_buck` — device-technology ablation on a physics
  buck model (the paper's motivation for GaN).
* :func:`decap_density_sweep` — worst-node die-seen Z(f) vs the
  per-node decap allocation, on the real grid-level AC engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemSpec
from ..converters.catalog import DSCH, ConverterSpec, StageModelMode
from ..converters.devices import Capacitor, Inductor, PowerSwitch
from ..converters.topologies.buck import SynchronousBuck
from ..errors import ConfigError, InfeasibleError, require_finite
from ..materials import GAN_100V, SI_POWER_MOSFET, TransistorTechnology
from ..parallel import Scenario, SweepPlan, run_sweep_collect
from ..pdn.powermap import PowerMap
from .architectures import (
    dual_stage_a3,
    reference_a0,
    single_stage_a1,
    single_stage_a2,
)
from .current_sharing import SharingResult, analyze_current_sharing
from .ir_drop import (
    DEFAULT_DECAP_PER_UNIT_F,
    ImpedanceMapReport,
    PlacementReport,
    TransientDroopReport,
    analyze_impedance_map,
    analyze_load_step,
    optimize_decap_placement_map,
)
from .loss_analysis import LossAnalyzer, LossBreakdown, LossModelParameters


@dataclass(frozen=True)
class SweepPoint:
    """One point of a 1-D sweep."""

    label: str
    value: float
    total_loss_w: float
    loss_pct: float
    efficiency: float
    detail: str = ""


#: Fig. 3 sweep locations in presentation order (label -> x value).
_LOCATION_ORDER: tuple[tuple[str, float], ...] = (
    ("PCB", 0.0),
    ("package", 1.0),
    ("interposer-periphery", 2.0),
    ("below-die", 3.0),
)


def _location_chunk(payload: tuple, scenarios: tuple) -> list:
    """Evaluate conversion-location points (one analyzer per chunk)."""
    spec, topology = payload
    analyzer = LossAnalyzer(spec=spec)
    points: list[SweepPoint] = []
    for scenario in scenarios:
        label, value = scenario.params
        if label == "PCB":
            points.append(
                _sweep_point(label, value, analyzer.analyze(reference_a0(), topology))
            )
        elif label == "package":
            # Package-level conversion: A0 minus the PCB lateral run at
            # 1 V, with the board planes recomputed at 48 V.
            a0 = analyzer.analyze(reference_a0(), topology)
            pkg_loss = a0.total_loss_w - a0.component_loss_w("pcb-planes")
            i_input = (spec.pol_power_w + pkg_loss) / spec.input_voltage_v
            pcb_at_48v = i_input**2 * analyzer._pcb_resistance_pair()
            pkg_total = pkg_loss + pcb_at_48v
            points.append(
                SweepPoint(
                    label=label,
                    value=value,
                    total_loss_w=pkg_total,
                    loss_pct=100.0 * pkg_total / spec.pol_power_w,
                    efficiency=spec.pol_power_w
                    / (spec.pol_power_w + pkg_total),
                    detail="A0 with the board lateral run at 48 V",
                )
            )
        elif label == "interposer-periphery":
            points.append(
                _sweep_point(
                    label, value, analyzer.analyze(single_stage_a1(), topology)
                )
            )
        elif label == "below-die":
            points.append(
                _sweep_point(
                    label, value, analyzer.analyze(single_stage_a2(), topology)
                )
            )
        else:
            raise ConfigError(f"unknown conversion location {label!r}")
    return points


def conversion_location_sweep(
    spec: SystemSpec | None = None,
    topology: ConverterSpec = DSCH,
    jobs: "int | str | None" = 1,
) -> list[SweepPoint]:
    """Total loss vs conversion location (Fig. 3 quantified).

    "PCB" is A0; "interposer-periphery" is A1; "below-die" is A2.
    "package" approximates package-level conversion by removing the
    PCB lateral run from A0's 1 V path (conversion after the board
    planes, before the BGA field).  ``jobs`` shards the four points
    across worker processes; results are identical for any value.
    """
    spec = spec or SystemSpec()
    plan = SweepPlan(
        scenarios=tuple(
            Scenario(key=label, params=(label, value))
            for label, value in _LOCATION_ORDER
        ),
        runner=_location_chunk,
        payload=(spec, topology),
        chunk_size=1,
        label="conversion-location sweep",
    )
    return run_sweep_collect(plan, jobs=jobs)


def _sweep_point(
    label: str, value: float, breakdown: LossBreakdown
) -> SweepPoint:
    return SweepPoint(
        label=label,
        value=value,
        total_loss_w=breakdown.total_loss_w,
        loss_pct=100.0 * breakdown.paper_loss_fraction,
        efficiency=breakdown.efficiency,
        detail=f"{breakdown.architecture} ({breakdown.topology})",
    )


def intermediate_voltage_sweep(
    voltages: tuple[float, ...] = (3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0),
    spec: SystemSpec | None = None,
    topology: ConverterSpec = DSCH,
    mode: StageModelMode = StageModelMode.AS_PUBLISHED,
) -> list[SweepPoint]:
    """A3 total loss vs intermediate rail voltage."""
    spec = spec or SystemSpec()
    analyzer = LossAnalyzer(
        spec=spec, params=LossModelParameters(stage_mode=mode)
    )
    points: list[SweepPoint] = []
    for v_int in voltages:
        arch = dual_stage_a3(v_int)
        try:
            breakdown = analyzer.analyze(arch, topology)
        except InfeasibleError as exc:
            points.append(
                SweepPoint(
                    label=arch.name,
                    value=v_int,
                    total_loss_w=float("nan"),
                    loss_pct=float("nan"),
                    efficiency=float("nan"),
                    detail=f"infeasible: {exc}",
                )
            )
            continue
        points.append(_sweep_point(arch.name, v_int, breakdown))
    return points


def stage_mode_comparison(
    spec: SystemSpec | None = None,
    topology: ConverterSpec = DSCH,
    intermediate_voltage_v: float = 12.0,
) -> dict[str, LossBreakdown]:
    """Dual-stage A3 under both stage-model policies, plus the
    single-stage A1 baseline for the ordering comparison."""
    spec = spec or SystemSpec()
    arch = dual_stage_a3(intermediate_voltage_v)
    results: dict[str, LossBreakdown] = {}
    for mode in StageModelMode:
        analyzer = LossAnalyzer(
            spec=spec, params=LossModelParameters(stage_mode=mode)
        )
        results[mode.value] = analyzer.analyze(arch, topology)
    results["single-stage-A1"] = LossAnalyzer(spec=spec).analyze(
        single_stage_a1(), topology
    )
    return results


def rdl_thickness_sweep(
    thicknesses_um: tuple[float, ...] = (9.0, 18.0, 27.0, 54.0, 108.0),
    spec: SystemSpec | None = None,
    topology: ConverterSpec = DSCH,
) -> list[SweepPoint]:
    """A1 horizontal loss vs interposer RDL copper thickness.

    The RDL sheet resistance sets the periphery architecture's
    dominant interconnect loss; this ablation shows the sensitivity.
    """
    from ..pdn.stackup import LateralMetal, PackagingLevel, PackagingStack
    from ..pdn.stackup import default_stack
    from ..units import um

    spec = spec or SystemSpec()
    points: list[SweepPoint] = []
    for thickness in thicknesses_um:
        base = default_stack(spec)
        levels = list(base.levels)
        interposer = levels[2]
        levels[2] = PackagingLevel(
            name=interposer.name,
            lateral=LateralMetal(
                name="interposer RDL", thickness_m=um(thickness)
            ),
            down_interface=interposer.down_interface,
        )
        stack = PackagingStack(levels=tuple(levels), spec=spec)
        analyzer = LossAnalyzer(spec=spec, stack=stack)
        breakdown = analyzer.analyze(single_stage_a1(), topology)
        points.append(
            SweepPoint(
                label=f"RDL {thickness:g} um",
                value=thickness,
                total_loss_w=breakdown.total_loss_w,
                loss_pct=100.0 * breakdown.paper_loss_fraction,
                efficiency=breakdown.efficiency,
                detail=f"horizontal {breakdown.horizontal_loss_w:.1f} W",
            )
        )
    return points


def hotspot_sweep(
    uniform_fractions: tuple[float, ...] = (1.0, 0.7, 0.45, 0.25, 0.1),
    spec: SystemSpec | None = None,
    topology: ConverterSpec = DSCH,
) -> list[tuple[float, SharingResult, SharingResult]]:
    """A1 vs A2 per-VR current spread as the hotspot sharpens.

    Returns (uniform_fraction, A1 sharing, A2 sharing) tuples; as the
    map concentrates, A2's spread explodes while A1's stays bounded —
    the paper's qualitative point.
    """
    spec = spec or SystemSpec()
    results = []
    for fraction in uniform_fractions:
        if fraction >= 1.0:
            pmap = PowerMap.uniform()
        else:
            pmap = PowerMap.hotspot_mixture(uniform_fraction=fraction)
        a1 = analyze_current_sharing(
            single_stage_a1(), topology, spec=spec, power_map=pmap
        )
        a2 = analyze_current_sharing(
            single_stage_a2(), topology, spec=spec, power_map=pmap
        )
        results.append((fraction, a1, a2))
    return results


@dataclass(frozen=True)
class DeviceComparisonPoint:
    """Si vs GaN buck comparison at one switching frequency."""

    frequency_hz: float
    technology: str
    feasible: bool
    efficiency: float
    loss_w: float


def si_vs_gan_buck(
    frequencies_hz: tuple[float, ...] = (0.5e6, 1e6, 2e6, 5e6),
    v_in_v: float = 12.0,
    v_out_v: float = 1.0,
    i_out_a: float = 25.0,
) -> list[DeviceComparisonPoint]:
    """Physics-based buck efficiency for Si vs GaN over frequency.

    Shows GaN's advantage growing with frequency — the paper's case
    for GaN in small-form-factor integrated regulators.
    """
    technologies: list[TransistorTechnology] = [SI_POWER_MOSFET, GAN_100V]
    results: list[DeviceComparisonPoint] = []
    for frequency in frequencies_hz:
        for tech in technologies:
            try:
                buck = SynchronousBuck(
                    v_in_v=v_in_v,
                    v_out_v=v_out_v,
                    frequency_hz=frequency,
                    inductor=Inductor(
                        inductance_h=200e-9 * (1e6 / frequency),
                        dcr_ohm=0.3e-3,
                        rated_current_a=60.0,
                    ),
                    output_capacitor=Capacitor(100e-6, esr_ohm=0.2e-3),
                    high_side=PowerSwitch.sized_for(2e-3, tech),
                    low_side=PowerSwitch.sized_for(1e-3, tech),
                    max_load_a=60.0,
                )
                efficiency = buck.efficiency(i_out_a)
                loss = buck.loss_w(i_out_a)
                feasible = True
            except InfeasibleError:
                efficiency, loss, feasible = 0.0, float("nan"), False
            results.append(
                DeviceComparisonPoint(
                    frequency_hz=frequency,
                    technology=tech.material,
                    feasible=feasible,
                    efficiency=efficiency,
                    loss_w=loss,
                )
            )
    return results


def _sweep_values(values, name: str) -> tuple[float, ...]:
    """A grid-study sweep axis as floats: at least one value, each
    finite and positive, or a :class:`ConfigError` naming ``name`` —
    raised before any sweep chunk starts."""
    values = tuple(float(v) for v in values)
    if not values:
        raise ConfigError(f"{name} needs at least one value")
    require_finite(values, name)
    if min(values) <= 0:
        raise ConfigError(f"{name} must be positive")
    return values


@dataclass(frozen=True)
class DecapDensityPoint:
    """Worst-node impedance at one per-node decap allocation."""

    label: str
    density: float
    peak_impedance_ohm: float
    peak_frequency_hz: float
    meets_target: bool


def _decap_chunk(payload: tuple, scenarios: tuple) -> list:
    """Evaluate decap-density points (full impedance map per point)."""
    spec, topology, arch, grid_nodes, kwargs = payload
    points: list[DecapDensityPoint] = []
    for scenario in scenarios:
        density = scenario.params
        report: ImpedanceMapReport = analyze_impedance_map(
            arch,
            topology,
            spec=spec,
            grid_nodes=grid_nodes,
            decap_density=density,
            **kwargs,
        )
        points.append(
            DecapDensityPoint(
                label=f"{density:g} cells/node",
                density=density,
                peak_impedance_ohm=report.peak_impedance_ohm,
                peak_frequency_hz=report.peak_frequency_hz,
                meets_target=report.meets_target,
            )
        )
    return points


@dataclass(frozen=True)
class TransientEnsemblePoint:
    """Load-step droop at one per-node decap allocation."""

    label: str
    density: float
    droop_v: float
    settle_time_s: float
    within_budget: bool
    engine: str


def _transient_chunk(payload: tuple, scenarios: tuple) -> list:
    """Evaluate load-step points (full transient run per point).

    Module-level so the process-pool executor can pickle it; each
    point factors its (topology, Δt, C_eff) mesh once and steps the
    whole trace at back-substitution cost.
    """
    spec, topology, arch, grid_nodes, kwargs = payload
    points: list[TransientEnsemblePoint] = []
    for scenario in scenarios:
        density = scenario.params
        report: TransientDroopReport = analyze_load_step(
            arch,
            topology,
            spec=spec,
            grid_nodes=grid_nodes,
            decap_density=density,
            **kwargs,
        )
        points.append(
            TransientEnsemblePoint(
                label=f"{density:g} cells/node",
                density=density,
                droop_v=report.droop_v,
                settle_time_s=report.settle_time_s,
                within_budget=report.within_budget,
                engine=report.engine,
            )
        )
    return points


def load_step_ensemble(
    densities: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    spec: SystemSpec | None = None,
    topology: ConverterSpec = DSCH,
    arch=None,
    grid_nodes: int = 12,
    jobs: "int | str | None" = 1,
    chunk_size: int | None = None,
    **kwargs,
) -> list[TransientEnsemblePoint]:
    """Worst-node load-step droop vs per-node decap allocation.

    The time-domain companion of :func:`decap_density_sweep`: each
    point runs the full factor-once grid transient engine
    (:func:`~repro.core.ir_drop.analyze_load_step`) at ``density``
    decap unit cells per mesh node and records the worst-node droop
    and settle time.  Extra keyword arguments are forwarded to
    :func:`~repro.core.ir_drop.analyze_load_step`.

    Each point is a full load-step simulation — factored once, then
    stepped at back-substitution cost; ``jobs`` fans the points across
    worker processes (one density per chunk by default) with results
    identical for any worker count.
    """
    densities = _sweep_values(densities, "densities")
    spec = spec or SystemSpec()
    arch = arch or single_stage_a2()
    plan = SweepPlan(
        scenarios=tuple(Scenario(key=d, params=d) for d in densities),
        runner=_transient_chunk,
        payload=(spec, topology, arch, grid_nodes, kwargs),
        chunk_size=1 if chunk_size is None else chunk_size,
        label="load-step ensemble",
    )
    return run_sweep_collect(plan, jobs=jobs)


def decap_density_sweep(
    densities: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    spec: SystemSpec | None = None,
    topology: ConverterSpec = DSCH,
    arch=None,
    grid_nodes: int = 12,
    jobs: "int | str | None" = 1,
    chunk_size: int | None = None,
    **kwargs,
) -> list[DecapDensityPoint]:
    """Worst-node die-seen Z(f) vs per-node decap allocation.

    The AC ablation the grid-level engine enables: each point re-sweeps
    the full per-node impedance map of the architecture (default A2)
    with ``density`` decap unit cells per mesh node.  More cells in
    parallel push the anti-resonant peak down — the knob a designer
    turns when :class:`~repro.core.ir_drop.ImpedanceMapReport` fails
    its target.  Extra keyword arguments are forwarded to
    :func:`~repro.core.ir_drop.analyze_impedance_map`.

    Each point is a full AC map solve, so the executor defaults to one
    density per chunk; ``jobs`` fans the points across processes with
    identical results for any worker count.
    """
    densities = _sweep_values(densities, "densities")
    spec = spec or SystemSpec()
    arch = arch or single_stage_a2()
    plan = SweepPlan(
        scenarios=tuple(Scenario(key=d, params=d) for d in densities),
        runner=_decap_chunk,
        payload=(spec, topology, arch, grid_nodes, kwargs),
        chunk_size=1 if chunk_size is None else chunk_size,
        label="decap-density sweep",
    )
    return run_sweep_collect(plan, jobs=jobs)


@dataclass(frozen=True)
class PlacementBudgetPoint:
    """Optimized-placement outcome at one total-capacitance budget."""

    label: str
    budget_scale: float
    capacitance_budget_f: float
    peak_impedance_ohm: float
    violating_fraction: float
    iterations: int
    meets_target: bool


def _placement_chunk(payload: tuple, scenarios: tuple) -> list:
    """Evaluate placement-budget points (full optimizer run per point)."""
    spec, topology, arch, grid_nodes, kwargs = payload
    # The attached total the scales multiply: density unit cells on
    # every mesh node.
    base_f = (
        kwargs.get("decap_density", 1.0)
        * grid_nodes
        * grid_nodes
        * kwargs.get("decap_per_unit_f", DEFAULT_DECAP_PER_UNIT_F)
    )
    points: list[PlacementBudgetPoint] = []
    for scenario in scenarios:
        scale = scenario.params
        report: PlacementReport = optimize_decap_placement_map(
            arch,
            topology,
            spec=spec,
            grid_nodes=grid_nodes,
            budget_f=scale * base_f,
            **kwargs,
        )
        points.append(
            PlacementBudgetPoint(
                label=f"{scale:g}x budget",
                budget_scale=scale,
                capacitance_budget_f=report.capacitance_budget_f,
                peak_impedance_ohm=report.placement.peak_impedance_after_ohm,
                violating_fraction=report.placement.violating_fraction_after,
                iterations=report.placement.iterations,
                meets_target=report.meets_target,
            )
        )
    return points


def placement_budget_sweep(
    budget_scales: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    spec: SystemSpec | None = None,
    topology: ConverterSpec = DSCH,
    arch=None,
    grid_nodes: int = 12,
    jobs: "int | str | None" = 1,
    chunk_size: int | None = None,
    **kwargs,
) -> list[PlacementBudgetPoint]:
    """Optimized decap placement vs total-capacitance budget.

    The spatial successor of :func:`decap_density_sweep`: instead of
    asking "what does a uniform density of ``d`` buy", each point asks
    "what does the *optimally placed* budget of ``scale × attached
    total`` buy" — running the full greedy + adjoint placement
    optimizer (:func:`~repro.core.ir_drop.optimize_decap_placement_map`)
    per point and recording the post-optimization peak |Z| and
    violating-node fraction.  Extra keyword arguments are forwarded to
    the optimizer.

    Each point is a full optimization run, so the executor defaults to
    one budget per chunk; ``jobs`` fans the points across worker
    processes with results identical for any worker count.
    """
    budget_scales = _sweep_values(budget_scales, "budget_scales")
    if "budget_f" in kwargs or kwargs.get("size_budget"):
        raise ConfigError(
            "placement_budget_sweep sets budget_f from budget_scales; "
            "pass neither budget_f nor size_budget=True"
        )
    spec = spec or SystemSpec()
    arch = arch or single_stage_a2()
    plan = SweepPlan(
        scenarios=tuple(Scenario(key=s, params=s) for s in budget_scales),
        runner=_placement_chunk,
        payload=(spec, topology, arch, grid_nodes, kwargs),
        chunk_size=1 if chunk_size is None else chunk_size,
        label="placement-budget sweep",
    )
    return run_sweep_collect(plan, jobs=jobs)
