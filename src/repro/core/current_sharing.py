"""Per-VR current sharing via the grid PDN solver.

The paper observes that although A1 and A2 look similar with DSCH or
3LHD converters, the *distribution* of load among the VRs differs
dramatically: periphery VRs (A1) share within 16–27 A, while under-die
VRs (A2) span 10–93 A because converters under the die's hot center
pick up the local demand.

This module reproduces that analysis: it builds the die-level grid
PDN, attaches the architecture's VR placement as droop-controlled
sources (1 V references behind a small output resistance) and the die
power map as distributed sinks, solves the network, and reports the
per-VR current statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemSpec
from ..converters.catalog import ConverterSpec
from ..errors import ConfigError
from ..pdn.grid import GridPDN
from ..pdn.powermap import PowerMap
from ..pdn.stackup import default_stack
from ..placement.planner import PlacementPlan, PlacementStyle, plan_placement
from .architectures import ArchitectureSpec

#: Default droop (output) resistance of each VR used for sharing.
DEFAULT_OUTPUT_RESISTANCE_OHM = 0.15e-3

#: The dedicated periphery output ring bus (Fig. 5(a)): a wide ring of
#: stacked thick metal whose segments equalize A1's periphery VRs.
RING_BUS_SHEET_OHM_SQ = 45.0e-6
RING_BUS_WIDTH_M = 4.0e-3


@dataclass(frozen=True)
class SharingResult:
    """Per-VR current-sharing statistics for one design point.

    Attributes:
        architecture / topology: design-point labels.
        plan: the placement that was analyzed.
        currents_a: per-VR output currents (plan position order).
        lateral_loss_w: rail-pair lateral loss observed in the grid.
        worst_droop_v: max node-voltage spread across the die.
    """

    architecture: str
    topology: str
    plan: PlacementPlan
    currents_a: np.ndarray
    lateral_loss_w: float
    worst_droop_v: float

    @property
    def min_current_a(self) -> float:
        """Lightest-loaded VR."""
        return float(self.currents_a.min())

    @property
    def max_current_a(self) -> float:
        """Heaviest-loaded VR."""
        return float(self.currents_a.max())

    @property
    def mean_current_a(self) -> float:
        """Average VR current."""
        return float(self.currents_a.mean())

    @property
    def spread_ratio(self) -> float:
        """max / min current ratio (sharing imbalance metric)."""
        lo = self.min_current_a
        return float("inf") if lo <= 0 else self.max_current_a / lo

    @property
    def overloaded_count(self) -> int:
        """VRs whose share exceeds the converter's published rating."""
        limit = self.plan.converter.max_load_a * (1.0 + 1e-9)
        return int(np.count_nonzero(self.currents_a > limit))


def _die_grid_with_bank(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    spec: SystemSpec,
    power_map: PowerMap | None,
    grid_nodes: int,
    setpoint_v: float,
    output_resistance_ohm: float,
    source_inductance_h: float = 0.0,
):
    """The die-level grid with the architecture's VR bank attached.

    One builder shared by current sharing, the DC IR-drop, AC impedance
    and load-step maps (:mod:`repro.core.ir_drop`) and the fault sweeps
    (:mod:`repro.core.redundancy`): the AC and transient analyses view
    the returned grid's design, so every analysis sees the identical
    mesh, sheet resistance, VR placement, and ring bus.
    ``source_inductance_h`` is the bump/TSV loop behind each VR output
    (shorted at DC).  Returns ``(grid, plan)``.
    """
    if not arch.is_vertical:
        raise ConfigError("die-grid maps apply to on-package VR stages")
    plan = plan_placement(
        topology,
        arch.pol_stage_style,
        spec.pol_current_a,
        spec.die_area_mm2,
    )
    stack = default_stack(spec)
    sheet = stack.level("Interposer").lateral.sheet_ohm_sq
    grid = GridPDN(
        width_m=spec.die_side_m,
        height_m=spec.die_side_m,
        sheet_ohm_sq=sheet,
        nx=grid_nodes,
        ny=grid_nodes,
    )
    if power_map is not None:
        grid.set_sinks(power_map, spec.pol_current_a)
    design = grid.design
    grid.design = design.with_sources(
        design.source_at(
            f"vr{index}",
            position.x,
            position.y,
            setpoint_v,
            output_resistance_ohm,
            source_inductance_h,
        )
        for index, position in enumerate(plan.positions)
    )
    if plan.style is PlacementStyle.PERIPHERY and plan.vr_count >= 3:
        # Periphery VRs share the contiguous output ring of Fig. 5(a);
        # each inter-VR segment is (spacing / ring width) squares of
        # the dedicated thick ring metal.
        spacing = 4.0 * spec.die_side_m / plan.vr_count
        grid.connect_sources_with_ring_bus(
            RING_BUS_SHEET_OHM_SQ * spacing / RING_BUS_WIDTH_M
        )
    return grid, plan


def analyze_current_sharing(
    arch: ArchitectureSpec,
    topology: ConverterSpec,
    spec: SystemSpec | None = None,
    power_map: PowerMap | None = None,
    grid_nodes: int = 28,
    output_resistance_ohm: float = DEFAULT_OUTPUT_RESISTANCE_OHM,
) -> SharingResult:
    """Solve the die-level network and return per-VR currents.

    Args:
        arch: a vertical architecture (A1/A2/A3 — A0 has no on-package
            VRs to share between).
        topology: the POL-stage converter.
        spec: system spec (paper system by default).
        power_map: die demand map; defaults to the calibrated
            hotspot mixture (DESIGN.md substitution #5).
        grid_nodes: grid resolution per axis.
        output_resistance_ohm: per-VR droop resistance.
    """
    if not arch.is_vertical:
        raise ConfigError("current sharing applies to on-package VR stages")
    if output_resistance_ohm <= 0:
        raise ConfigError("output resistance must be positive")
    spec = spec or SystemSpec()
    power_map = power_map or PowerMap.hotspot_mixture()

    grid, plan = _die_grid_with_bank(
        arch,
        topology,
        spec,
        power_map,
        grid_nodes,
        spec.pol_voltage_v,
        output_resistance_ohm,
    )
    solution = grid.solve()
    return SharingResult(
        architecture=arch.name,
        topology=topology.name,
        plan=plan,
        currents_a=solution.source_currents_a,
        lateral_loss_w=solution.lateral_loss_w,
        worst_droop_v=solution.worst_droop_v,
    )
