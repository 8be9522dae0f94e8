"""The power delivery architectures of Section II.

====== ===========================================================
A0     48V-to-1V at PCB (transformer + multiphase buck, 90%);
       POL current crosses every packaging level laterally and
       vertically.  Die attach: solder micro-bumps.
A1     single-stage 48V-to-1V; power transistors ON the interposer
       along the die periphery, passives embedded in-interposer
       beneath them.  Die attach: advanced Cu-Cu pads.
A2     single-stage 48V-to-1V; transistors and passives embedded IN
       the interposer, distributed below the die.
A3@12V 48V→12V on-interposer periphery (DPMIH), 12V→1V below the
       die (on a dedicated power die / in-interposer).
A3@6V  as A3@12V with a 6 V intermediate rail.
====== ===========================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..converters.catalog import DPMIH, ConverterSpec
from ..errors import ConfigError, require_finite
from ..pdn.interconnect import ADVANCED_CU_PAD, MICRO_BUMP, VerticalInterconnect
from ..placement.planner import PlacementStyle


class ArchitectureKind(enum.Enum):
    """Structural family of an architecture."""

    PCB_CONVERSION = "pcb-conversion"
    SINGLE_STAGE_VERTICAL = "single-stage-vertical"
    DUAL_STAGE_VERTICAL = "dual-stage-vertical"


@dataclass(frozen=True)
class ArchitectureSpec:
    """A power delivery architecture.

    Attributes:
        name: paper name ("A0", "A1", "A2", "A3@12V", "A3@6V").
        kind: structural family.
        description: one-line summary.
        die_attach: interposer-to-die vertical technology.
        pol_stage_style: placement of the POL-voltage regulators
            (None for A0, whose conversion happens at the PCB).
        intermediate_voltage_v: intermediate rail voltage for
            dual-stage architectures (None otherwise).
        stage1_converter: converter used for the first stage of a
            dual-stage architecture (the paper fixes DPMIH).
    """

    name: str
    kind: ArchitectureKind
    description: str
    die_attach: VerticalInterconnect
    pol_stage_style: PlacementStyle | None
    intermediate_voltage_v: float | None = None
    stage1_converter: ConverterSpec | None = None

    def __post_init__(self) -> None:
        if self.intermediate_voltage_v is not None:
            require_finite(self.intermediate_voltage_v, "intermediate_voltage_v")
        if self.kind is ArchitectureKind.PCB_CONVERSION:
            if self.pol_stage_style is not None:
                raise ConfigError("A0 has no on-package POL stage")
            if self.intermediate_voltage_v is not None:
                raise ConfigError("A0 carries no intermediate rail")
        else:
            if self.pol_stage_style is None:
                raise ConfigError(
                    "vertical architectures must place their POL stage"
                )
        if self.kind is ArchitectureKind.DUAL_STAGE_VERTICAL:
            if self.intermediate_voltage_v is None:
                raise ConfigError("dual-stage needs an intermediate voltage")
            if self.intermediate_voltage_v <= 1.0:
                raise ConfigError("intermediate voltage must exceed V_POL")
            if self.stage1_converter is None:
                raise ConfigError("dual-stage needs a stage-1 converter")
        elif self.intermediate_voltage_v is not None:
            raise ConfigError("only dual-stage carries an intermediate rail")

    @property
    def is_vertical(self) -> bool:
        """True for the proposed (non-A0) architectures."""
        return self.kind is not ArchitectureKind.PCB_CONVERSION

    @property
    def is_dual_stage(self) -> bool:
        """True for A3 variants."""
        return self.kind is ArchitectureKind.DUAL_STAGE_VERTICAL


def reference_a0() -> ArchitectureSpec:
    """A0: the traditional PCB-level conversion reference."""
    return ArchitectureSpec(
        name="A0",
        kind=ArchitectureKind.PCB_CONVERSION,
        description=(
            "48V-to-1V at the PCB (transformer 48->12 + multiphase buck), "
            "POL current distributed through the full PPDN"
        ),
        die_attach=MICRO_BUMP,
        pol_stage_style=None,
    )


def single_stage_a1() -> ArchitectureSpec:
    """A1: single-stage conversion, VRs on-interposer along the die
    periphery, passives embedded beneath them (Fig. 4(a))."""
    return ArchitectureSpec(
        name="A1",
        kind=ArchitectureKind.SINGLE_STAGE_VERTICAL,
        description=(
            "single-stage 48V-to-1V, on-interposer periphery power "
            "transistors, in-interposer passives"
        ),
        die_attach=ADVANCED_CU_PAD,
        pol_stage_style=PlacementStyle.PERIPHERY,
    )


def single_stage_a2() -> ArchitectureSpec:
    """A2: single-stage conversion fully embedded in-interposer,
    distributed below the die (Fig. 4(b))."""
    return ArchitectureSpec(
        name="A2",
        kind=ArchitectureKind.SINGLE_STAGE_VERTICAL,
        description=(
            "single-stage 48V-to-1V, in-interposer power transistors and "
            "passives distributed below the die"
        ),
        die_attach=ADVANCED_CU_PAD,
        pol_stage_style=PlacementStyle.BELOW_DIE,
    )


def dual_stage_a3(
    intermediate_voltage_v: float,
    stage1_converter: ConverterSpec = DPMIH,
) -> ArchitectureSpec:
    """A3: dual-stage conversion — 48V to the intermediate rail on the
    interposer periphery, intermediate-to-1V below the die (Fig. 4(c)).

    The paper evaluates 12 V and 6 V intermediate rails (A3@12V and
    A3@6V) with DPMIH as the first stage.
    """
    if intermediate_voltage_v not in (6.0, 12.0):
        # Other rails are allowed for exploration but flagged by name.
        name = f"A3@{intermediate_voltage_v:g}V*"
    else:
        name = f"A3@{intermediate_voltage_v:g}V"
    return ArchitectureSpec(
        name=name,
        kind=ArchitectureKind.DUAL_STAGE_VERTICAL,
        description=(
            f"dual-stage 48V->{intermediate_voltage_v:g}V (periphery) then "
            f"{intermediate_voltage_v:g}V->1V (below die)"
        ),
        die_attach=ADVANCED_CU_PAD,
        pol_stage_style=PlacementStyle.BELOW_DIE,
        intermediate_voltage_v=intermediate_voltage_v,
        stage1_converter=stage1_converter,
    )


def all_architectures() -> list[ArchitectureSpec]:
    """A0 plus the four proposed architectures, in paper order."""
    return [
        reference_a0(),
        single_stage_a1(),
        single_stage_a2(),
        dual_stage_a3(12.0),
        dual_stage_a3(6.0),
    ]


#: The paper's architecture set (A0, A1, A2, A3@12V, A3@6V).
ALL_ARCHITECTURES: tuple[ArchitectureSpec, ...] = tuple(all_architectures())


def architecture(name: str) -> ArchitectureSpec:
    """Look up an architecture by paper name (case-insensitive)."""
    for arch in ALL_ARCHITECTURES:
        if arch.name.lower() == name.lower():
            return arch
    raise ConfigError(f"unknown architecture: {name!r}")
