"""System-level specification of the power delivery problem.

The paper characterizes a high-power, high-current-density system:

* 1 kW delivered to the die at the point of load (POL),
* POL voltage 1 V, hence 1 kA of die current,
* current density 2 A/mm², hence a 500 mm² die,
* 48 V power signal available at the PCB.

:class:`SystemSpec` captures these numbers plus the board-level
geometry knobs the loss model needs.  All values are SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError, require_finite
from .units import mm, mm2


@dataclass(frozen=True)
class PCBGeometry:
    """Board-level geometry relevant to horizontal (lateral) loss.

    Attributes:
        vrm_distance_m: lateral distance from the voltage regulator
            module (or the 48 V entry point) to the package footprint.
        plane_width_m: effective width of the power planes along that
            route.
        plane_pairs: number of copper plane pairs (power + ground)
            allocated to the rail.
        plane_thickness_m: copper thickness per plane (2 oz ≈ 70 µm).
    """

    vrm_distance_m: float = mm(40.0)
    plane_width_m: float = mm(36.0)
    plane_pairs: int = 2
    plane_thickness_m: float = 70e-6

    def __post_init__(self) -> None:
        for name in (
            "vrm_distance_m", "plane_width_m", "plane_pairs", "plane_thickness_m"
        ):
            require_finite(getattr(self, name), name)
        if self.vrm_distance_m <= 0 or self.plane_width_m <= 0:
            raise ConfigError("PCB geometry lengths must be positive")
        if self.plane_pairs < 1:
            raise ConfigError("at least one plane pair is required")
        if self.plane_thickness_m <= 0:
            raise ConfigError("plane thickness must be positive")


@dataclass(frozen=True)
class SystemSpec:
    """Top-level electrical and geometric specification.

    The defaults reproduce the paper's 1 kW / 1 V / 2 A/mm² / 48 V
    study system.  ``die_area_m2`` is derived (P / V / J) unless given
    explicitly.
    """

    pol_power_w: float = 1000.0
    pol_voltage_v: float = 1.0
    input_voltage_v: float = 48.0
    current_density_a_per_mm2: float = 2.0
    die_area_m2: float | None = None
    pcb: PCBGeometry = field(default_factory=PCBGeometry)

    def __post_init__(self) -> None:
        for name in (
            "pol_power_w",
            "pol_voltage_v",
            "input_voltage_v",
            "current_density_a_per_mm2",
        ):
            require_finite(getattr(self, name), name)
        if self.die_area_m2 is not None:
            require_finite(self.die_area_m2, "die_area_m2")
        if self.pol_power_w <= 0:
            raise ConfigError("POL power must be positive")
        if self.pol_voltage_v <= 0:
            raise ConfigError("POL voltage must be positive")
        if self.input_voltage_v <= self.pol_voltage_v:
            raise ConfigError("input voltage must exceed POL voltage")
        if self.current_density_a_per_mm2 <= 0:
            raise ConfigError("current density must be positive")
        if self.die_area_m2 is not None and self.die_area_m2 <= 0:
            raise ConfigError("die area must be positive")

    # -- derived quantities -------------------------------------------------

    @property
    def pol_current_a(self) -> float:
        """Total die current at the point of load (1 kA by default)."""
        return self.pol_power_w / self.pol_voltage_v

    @property
    def die_area(self) -> float:
        """Die area in m² (derived from current density unless overridden)."""
        if self.die_area_m2 is not None:
            return self.die_area_m2
        return mm2(self.pol_current_a / self.current_density_a_per_mm2)

    @property
    def die_area_mm2(self) -> float:
        """Die area in mm² (500 mm² for the default spec)."""
        return self.die_area / mm2(1.0)

    @property
    def die_side_m(self) -> float:
        """Side of the (square) die in meters."""
        return math.sqrt(self.die_area)

    @property
    def die_perimeter_m(self) -> float:
        """Perimeter of the square die in meters."""
        return 4.0 * self.die_side_m

    @property
    def conversion_ratio(self) -> float:
        """Overall step-down ratio (48 for the default 48V-to-1V system)."""
        return self.input_voltage_v / self.pol_voltage_v

    @property
    def input_current_nominal_a(self) -> float:
        """Input-side current assuming lossless conversion (P / V_in)."""
        return self.pol_power_w / self.input_voltage_v

    # -- convenience --------------------------------------------------------

    def with_power(self, pol_power_w: float) -> "SystemSpec":
        """Return a copy of this spec with a different POL power."""
        return replace(self, pol_power_w=pol_power_w)

    def with_density(self, current_density_a_per_mm2: float) -> "SystemSpec":
        """Return a copy with a different current density target."""
        return replace(
            self, current_density_a_per_mm2=current_density_a_per_mm2
        )

    def with_input_voltage(self, input_voltage_v: float) -> "SystemSpec":
        """Return a copy with a different PCB input voltage."""
        return replace(self, input_voltage_v=input_voltage_v)


#: The paper's study system: 1 kW, 1 V POL, 48 V input, 2 A/mm².
PAPER_SYSTEM = SystemSpec()
