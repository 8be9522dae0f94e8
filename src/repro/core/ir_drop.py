"""Die-level IR-drop (voltage map) and AC impedance-map analysis.

The DC loss numbers say how much power an architecture wastes; the
IR-drop map says whether the die even *works* — every POL node must
stay above the minimum supply voltage (a 3–5% droop budget at 1 V).
This analysis solves the same die-level grid used for current sharing
and reports the spatial voltage statistics per architecture, showing
why distributed under-die regulation (A2) beats the periphery ring
(A1) on worst-case droop even when the loss numbers are close.

:func:`analyze_impedance_map` is the frequency-domain companion: the
same die grid and VR placement, with per-node decap allocation and
bump/TSV inductance, swept for the die-seen impedance Z(f) at every
node (:class:`~repro.pdn.grid.GridACPDN`) and judged against the
standard target impedance ``Z_t = V · ripple / ΔI``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemSpec
from ..converters.catalog import ConverterSpec
from ..errors import ConfigError
from ..pdn.decap_placement import (
    PlacementResult,
    optimize_decap_placement,
    size_decap_placement_for_target,
)
from ..pdn.grid import GridACPDN, GridImpedanceMap
from ..pdn.grid_transient import GridTransientPDN
from ..pdn.impedance import target_impedance_ohm
from ..pdn.powermap import PowerMap
from .architectures import ArchitectureSpec
from .current_sharing import DEFAULT_OUTPUT_RESISTANCE_OHM, _die_grid_with_bank

#: Default droop budget: the die must stay within 5% of nominal.
DEFAULT_DROOP_BUDGET_FRACTION = 0.05

#: Default per-node decap unit cell for the impedance map: on-die /
#: on-interposer MIM-style capacitance with its parasitics.
DEFAULT_DECAP_PER_UNIT_F = 0.2e-6
DEFAULT_DECAP_ESR_OHM = 2e-3
DEFAULT_DECAP_ESL_H = 1e-12

#: Bump/TSV loop inductance in series with each VR output.
DEFAULT_SOURCE_INDUCTANCE_H = 5e-12

#: Fraction of the POL current assumed to swing in a load transient
#: when deriving the target impedance.
DEFAULT_TRANSIENT_FRACTION = 0.5


@dataclass(frozen=True)
class IRDropReport:
    """Spatial voltage statistics of one design point.

    Attributes:
        architecture / topology: design-point labels.
        nominal_v: the POL target voltage.
        min_voltage_v / mean_voltage_v: across all die nodes.
        worst_droop_v: nominal minus the minimum node voltage.
        droop_budget_v: the allowed droop.
        voltage_map: full (ny, nx) node-voltage array.
        worst_node: (x_frac, y_frac) of the worst node.
    """

    architecture: str
    topology: str
    nominal_v: float
    min_voltage_v: float
    mean_voltage_v: float
    worst_droop_v: float
    droop_budget_v: float
    voltage_map: np.ndarray
    worst_node: tuple[float, float]

    @property
    def within_budget(self) -> bool:
        """True if the worst droop respects the budget."""
        return self.worst_droop_v <= self.droop_budget_v + 1e-12

    @property
    def droop_fraction(self) -> float:
        """Worst droop as a fraction of nominal."""
        return self.worst_droop_v / self.nominal_v


def analyze_ir_drop(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    spec: SystemSpec | None = None,
    power_map: PowerMap | None = None,
    grid_nodes: int = 28,
    droop_budget_fraction: float = DEFAULT_DROOP_BUDGET_FRACTION,
    output_resistance_ohm: float = DEFAULT_OUTPUT_RESISTANCE_OHM,
) -> IRDropReport:
    """Solve the die voltage map for a vertical architecture.

    The VRs regulate to ``nominal + budget/2`` (centering the band, as
    a real design would) and the report measures the excursion of the
    worst node from nominal.
    """
    if not arch.is_vertical:
        raise ConfigError("IR-drop maps apply to on-package VR stages")
    if not 0.0 < droop_budget_fraction < 0.5:
        raise ConfigError("droop budget fraction must be in (0, 0.5)")
    spec = spec or SystemSpec()
    power_map = power_map or PowerMap.hotspot_mixture()

    nominal = spec.pol_voltage_v
    budget = droop_budget_fraction * nominal
    setpoint = nominal + budget / 2.0
    grid, _ = _die_grid_with_bank(
        arch,
        topology,
        spec,
        power_map,
        grid_nodes,
        setpoint,
        output_resistance_ohm,
    )

    solution = grid.solve()
    vmap = solution.voltage_map
    iy, ix = np.unravel_index(int(np.argmin(vmap)), vmap.shape)
    return IRDropReport(
        architecture=arch.name,
        topology=topology.name,
        nominal_v=nominal,
        min_voltage_v=float(vmap.min()),
        mean_voltage_v=float(vmap.mean()),
        worst_droop_v=float(nominal - vmap.min()),
        droop_budget_v=budget,
        voltage_map=vmap,
        worst_node=(ix / (grid_nodes - 1), iy / (grid_nodes - 1)),
    )


def compare_architectures(
    architectures: list[ArchitectureSpec],
    topology: ConverterSpec,
    spec: SystemSpec | None = None,
    **kwargs: object,
) -> list[IRDropReport]:
    """IR-drop reports for several architectures, same conditions."""
    if not architectures:
        raise ConfigError("at least one architecture required")
    return [
        analyze_ir_drop(arch, topology, spec=spec, **kwargs)
        for arch in architectures
    ]


@dataclass(frozen=True)
class ImpedanceMapReport:
    """Per-node die-seen Z(f) statistics of one design point.

    Attributes:
        architecture / topology: design-point labels.
        target_ohm: the target impedance the PDN must stay below.
        peak_impedance_ohm: worst |Z| over all nodes and frequencies.
        peak_frequency_hz: frequency of that worst |Z|.
        worst_node: (x_frac, y_frac) of the node with the worst peak.
        meets_target: True when every node passes everywhere.
        impedance: the full per-node impedance map.
    """

    architecture: str
    topology: str
    target_ohm: float
    peak_impedance_ohm: float
    peak_frequency_hz: float
    worst_node: tuple[float, float]
    meets_target: bool
    impedance: GridImpedanceMap

    @property
    def margin(self) -> float:
        """Target over peak: > 1 means the design passes with room."""
        return self.target_ohm / self.peak_impedance_ohm


def analyze_impedance_map(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    spec: SystemSpec | None = None,
    grid_nodes: int = 16,
    ripple_fraction: float = DEFAULT_DROOP_BUDGET_FRACTION,
    transient_fraction: float = DEFAULT_TRANSIENT_FRACTION,
    decap_density: float = 1.0,
    decap_per_unit_f: float = DEFAULT_DECAP_PER_UNIT_F,
    decap_esr_ohm: float = DEFAULT_DECAP_ESR_OHM,
    decap_esl_h: float = DEFAULT_DECAP_ESL_H,
    source_inductance_h: float = DEFAULT_SOURCE_INDUCTANCE_H,
    output_resistance_ohm: float = DEFAULT_OUTPUT_RESISTANCE_OHM,
    frequencies_hz: np.ndarray | None = None,
) -> ImpedanceMapReport:
    """Sweep the die-seen per-node Z(f) of a vertical architecture.

    Builds the *same* die grid and VR placement as
    :func:`analyze_ir_drop`, adds the per-node decap allocation
    (``decap_density`` unit cells per node) and the vertical bump/TSV
    inductance of each VR output, and sweeps the grid-level impedance
    map.  The verdict compares every mesh node against the standard
    target impedance ``Z_t = V · ripple / ΔI`` with
    ``ΔI = transient_fraction · I_pol`` — the real-grid replacement
    for the closed-form ladder check.
    """
    if not arch.is_vertical:
        raise ConfigError("impedance maps apply to on-package VR stages")
    if not 0.0 < transient_fraction <= 1.0:
        raise ConfigError("transient fraction must be in (0, 1]")
    if decap_density <= 0:
        raise ConfigError("decap density must be positive")
    spec = spec or SystemSpec()
    target = target_impedance_ohm(
        spec.pol_voltage_v,
        ripple_fraction,
        transient_fraction * spec.pol_current_a,
    )
    if frequencies_hz is None:
        frequencies_hz = np.logspace(4, 9, 121)

    grid, _ = _die_grid_with_bank(
        arch,
        topology,
        spec,
        None,
        grid_nodes,
        spec.pol_voltage_v,
        output_resistance_ohm,
        source_inductance_h,
    )
    pdn = GridACPDN.from_design(grid.design)
    pdn.set_decap_density(
        decap_density, decap_per_unit_f, decap_esr_ohm, decap_esl_h
    )
    impedance = pdn.impedance_map(frequencies_hz)
    ix, iy = impedance.worst_node()
    denom_x = max(impedance.nx - 1, 1)
    denom_y = max(impedance.ny - 1, 1)
    return ImpedanceMapReport(
        architecture=arch.name,
        topology=topology.name,
        target_ohm=target,
        peak_impedance_ohm=impedance.peak_impedance_ohm,
        peak_frequency_hz=impedance.peak_frequency_hz,
        worst_node=(ix / denom_x, iy / denom_y),
        meets_target=impedance.meets_target(target),
        impedance=impedance,
    )


@dataclass(frozen=True)
class PlacementReport:
    """Spatially-optimized decap placement for one design point.

    Attributes:
        architecture / topology: design-point labels.
        target_ohm: the target impedance the placement was driven to.
        placement: the full optimizer outcome (before/after density
            and peak maps, violating-fraction history, budget).
    """

    architecture: str
    topology: str
    target_ohm: float
    placement: PlacementResult

    @property
    def meets_target(self) -> bool:
        return self.placement.meets_target

    @property
    def capacitance_budget_f(self) -> float:
        return self.placement.capacitance_budget_f

    @property
    def peak_reduction_fraction(self) -> float:
        """Fractional peak-|Z| improvement over the attached map."""
        before = self.placement.peak_impedance_before_ohm
        after = self.placement.peak_impedance_after_ohm
        return 1.0 - after / before


def optimize_decap_placement_map(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    spec: SystemSpec | None = None,
    grid_nodes: int = 16,
    ripple_fraction: float = DEFAULT_DROOP_BUDGET_FRACTION,
    transient_fraction: float = DEFAULT_TRANSIENT_FRACTION,
    decap_density: float = 1.0,
    decap_per_unit_f: float = DEFAULT_DECAP_PER_UNIT_F,
    decap_esr_ohm: float = DEFAULT_DECAP_ESR_OHM,
    decap_esl_h: float = DEFAULT_DECAP_ESL_H,
    source_inductance_h: float = DEFAULT_SOURCE_INDUCTANCE_H,
    output_resistance_ohm: float = DEFAULT_OUTPUT_RESISTANCE_OHM,
    frequencies_hz: np.ndarray | None = None,
    size_budget: bool = False,
    **placement_kwargs,
) -> PlacementReport:
    """Spatially optimize the decap allocation of a design point.

    Builds the identical die grid, VR bank, and decap attachment as
    :func:`analyze_impedance_map`, derives the same target impedance,
    and redistributes the decap budget toward the violating nodes with
    :func:`~repro.pdn.decap_placement.optimize_decap_placement`.  With
    ``size_budget=True`` the total budget itself is searched
    (:func:`~repro.pdn.decap_placement.size_decap_placement_for_target`)
    for the smallest optimized allocation that meets target — the
    spatial replacement for the uniform
    :func:`~repro.pdn.impedance.size_grid_decap_for_target` doubling.
    Extra keyword arguments are forwarded to the optimizer
    (``budget_f``, ``max_iterations``, ``coarse_shape``...).
    """
    if not arch.is_vertical:
        raise ConfigError("impedance maps apply to on-package VR stages")
    if not 0.0 < transient_fraction <= 1.0:
        raise ConfigError("transient fraction must be in (0, 1]")
    if decap_density <= 0:
        raise ConfigError("decap density must be positive")
    if size_budget and "budget_f" in placement_kwargs:
        raise ConfigError(
            "budget_f cannot be given with size_budget=True, which "
            "searches the budget itself"
        )
    spec = spec or SystemSpec()
    target = target_impedance_ohm(
        spec.pol_voltage_v,
        ripple_fraction,
        transient_fraction * spec.pol_current_a,
    )
    if frequencies_hz is None:
        frequencies_hz = np.logspace(4, 9, 121)

    grid, _ = _die_grid_with_bank(
        arch,
        topology,
        spec,
        None,
        grid_nodes,
        spec.pol_voltage_v,
        output_resistance_ohm,
        source_inductance_h,
    )
    pdn = GridACPDN.from_design(grid.design)
    pdn.set_decap_density(
        decap_density, decap_per_unit_f, decap_esr_ohm, decap_esl_h
    )
    if size_budget:
        placement = size_decap_placement_for_target(
            pdn, target, frequencies_hz=frequencies_hz, **placement_kwargs
        )
    else:
        placement = optimize_decap_placement(
            pdn, target, frequencies_hz=frequencies_hz, **placement_kwargs
        )
    return PlacementReport(
        architecture=arch.name,
        topology=topology.name,
        target_ohm=target,
        placement=placement,
    )


@dataclass(frozen=True)
class TransientDroopReport:
    """Spatio-temporal load-step droop of one design point.

    The time-domain closure of the DC map / AC map pair: the same die
    grid, VR bank, and decap allocation, hit with an idle→full load
    step and judged on the worst *dynamic* excursion any node takes
    below nominal.

    Attributes:
        architecture / topology: design-point labels.
        nominal_v: the POL target voltage.
        droop_v: worst per-node dynamic droop below the pre-step DC.
        settle_time_s: when the worst-node trace re-enters the band.
        droop_budget_v: the allowed droop.
        worst_node: (x_frac, y_frac) of the worst-droop node.
        droop_map: full (ny, nx) per-node droop array.
        engine: transient engine that produced the trace.
    """

    architecture: str
    topology: str
    nominal_v: float
    droop_v: float
    settle_time_s: float
    droop_budget_v: float
    worst_node: tuple[float, float]
    droop_map: np.ndarray
    engine: str

    @property
    def within_budget(self) -> bool:
        """True if the worst dynamic droop respects the budget."""
        return self.droop_v <= self.droop_budget_v + 1e-12

    @property
    def droop_fraction(self) -> float:
        """Worst dynamic droop as a fraction of nominal."""
        return self.droop_v / self.nominal_v


def analyze_load_step(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    spec: SystemSpec | None = None,
    power_map: PowerMap | None = None,
    grid_nodes: int = 24,
    droop_budget_fraction: float = DEFAULT_DROOP_BUDGET_FRACTION,
    transient_fraction: float = DEFAULT_TRANSIENT_FRACTION,
    duration_s: float = 2e-7,
    dt_s: float = 2e-10,
    decap_density: float = 1.0,
    decap_per_unit_f: float = DEFAULT_DECAP_PER_UNIT_F,
    decap_esr_ohm: float = DEFAULT_DECAP_ESR_OHM,
    decap_esl_h: float = DEFAULT_DECAP_ESL_H,
    source_inductance_h: float = DEFAULT_SOURCE_INDUCTANCE_H,
    output_resistance_ohm: float = DEFAULT_OUTPUT_RESISTANCE_OHM,
) -> TransientDroopReport:
    """Step the die from partial to full load and report dynamic droop.

    Builds the *same* die grid and VR placement as
    :func:`analyze_ir_drop`, adds the impedance map's decap allocation
    and bump/TSV inductance, then applies a load step from
    ``(1 − transient_fraction)·I_pol`` to ``I_pol`` over the power
    map's spatial profile — the time-domain companion of the
    target-impedance verdict, on the factor-once mesh engine.
    """
    if not arch.is_vertical:
        raise ConfigError("load-step maps apply to on-package VR stages")
    if not 0.0 < droop_budget_fraction < 0.5:
        raise ConfigError("droop budget fraction must be in (0, 0.5)")
    if not 0.0 < transient_fraction <= 1.0:
        raise ConfigError("transient fraction must be in (0, 1]")
    if decap_density <= 0:
        raise ConfigError("decap density must be positive")
    spec = spec or SystemSpec()
    power_map = power_map or PowerMap.hotspot_mixture()

    nominal = spec.pol_voltage_v
    budget = droop_budget_fraction * nominal
    grid, _ = _die_grid_with_bank(
        arch,
        topology,
        spec,
        power_map,
        grid_nodes,
        nominal + budget / 2.0,
        output_resistance_ohm,
        source_inductance_h,
    )
    pdn = GridTransientPDN.from_design(grid.design)
    pdn.set_decap_density(
        decap_density, decap_per_unit_f, decap_esr_ohm, decap_esl_h
    )
    result = pdn.simulate_step(
        (1.0 - transient_fraction) * spec.pol_current_a,
        spec.pol_current_a,
        duration_s=duration_s,
        dt_s=dt_s,
        settle_band_v=budget / 2.0,
    )
    ix, iy = result.worst_node
    denom = max(grid_nodes - 1, 1)
    return TransientDroopReport(
        architecture=arch.name,
        topology=topology.name,
        nominal_v=nominal,
        droop_v=result.droop_v,
        settle_time_s=result.settle_time_s,
        droop_budget_v=budget,
        worst_node=(ix / denom, iy / denom),
        droop_map=result.droop_map,
        engine=result.engine,
    )
