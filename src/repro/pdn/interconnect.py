"""Vertical interconnect technologies (Table I of the paper).

Each technology connects two adjacent packaging levels.  From the
published geometry (diameter / cross-area / height / pitch / platform
area) we derive:

* per-element resistance ``rho * h / A``,
* the number of available sites on the platform (``area / pitch^2``),
* array (parallel) resistance for a given element count,
* a derated per-element current rating used by the utilization
  analysis (see DESIGN.md substitution #4 — the paper does not state
  its ratings; ours are electromigration-style derated values chosen
  so the paper's utilization percentages emerge).

Both power and ground rails are considered: delivering current I
requires I through the power elements *and* I back through the ground
elements, so a rail pair doubles the series resistance and halves the
usable site count per polarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError, InfeasibleError
from ..materials import COPPER, SOLDER_SAC305, Conductor
from ..units import mm2, um, um2


@dataclass(frozen=True)
class VerticalInterconnect:
    """One vertical interconnect technology (a Table I row).

    Attributes:
        name: technology name (e.g. ``"C4 bump"``).
        level: packaging interface it spans (e.g. ``"PKG/Interposer"``).
        material: conductor material of the element.
        platform_area_m2: area of the platform on which the elements
            are placed (Table I "Platform area").
        diameter_m: element diameter (0 for pad-style elements where
            only the cross-area is specified).
        cross_area_m2: element cross-sectional area.
        height_m: element height (vertical span).
        pitch_m: minimum element pitch.
        rated_current_a: derated per-element DC current rating.
        power_site_fraction: fraction of platform sites that may be
            allocated to the power delivery network at all (signal and
            keep-out take the rest).  TSVs have a low fraction because
            through-silicon vias are restricted to dedicated islands.
    """

    name: str
    level: str
    material: Conductor
    platform_area_m2: float
    diameter_m: float
    cross_area_m2: float
    height_m: float
    pitch_m: float
    rated_current_a: float
    power_site_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.platform_area_m2 <= 0:
            raise ConfigError(f"{self.name}: platform area must be positive")
        if self.cross_area_m2 <= 0:
            raise ConfigError(f"{self.name}: cross area must be positive")
        if self.height_m <= 0:
            raise ConfigError(f"{self.name}: height must be positive")
        if self.pitch_m <= 0:
            raise ConfigError(f"{self.name}: pitch must be positive")
        if self.rated_current_a <= 0:
            raise ConfigError(f"{self.name}: current rating must be positive")
        if not 0.0 < self.power_site_fraction <= 1.0:
            raise ConfigError(
                f"{self.name}: power site fraction must be in (0, 1]"
            )

    # -- per-element properties ---------------------------------------------

    @property
    def element_resistance_ohm(self) -> float:
        """DC resistance of a single element: rho * h / A."""
        return self.material.wire_resistance(self.height_m, self.cross_area_m2)

    @property
    def sites_total(self) -> int:
        """Number of element sites the platform supports (area / pitch²)."""
        return int(self.platform_area_m2 / (self.pitch_m**2))

    @property
    def power_sites(self) -> int:
        """Sites allocatable to power delivery (both polarities)."""
        return int(self.sites_total * self.power_site_fraction)

    @property
    def power_sites_per_polarity(self) -> int:
        """Sites available for one polarity (power or ground)."""
        return self.power_sites // 2

    def sites_on_area(self, area_m2: float) -> int:
        """Sites available on an arbitrary area (e.g. the die shadow)."""
        if area_m2 <= 0:
            raise ConfigError("area must be positive")
        return int(area_m2 * self.power_site_fraction / (self.pitch_m**2))

    # -- array construction --------------------------------------------------

    def array(self, count_per_polarity: int) -> "InterconnectArray":
        """Build an array of ``count_per_polarity`` parallel elements
        per rail polarity (the same count is used for power and
        ground)."""
        return InterconnectArray(technology=self, count_per_polarity=count_per_polarity)

    def array_for_current(
        self, current_a: float, utilization_cap: float = 1.0
    ) -> "InterconnectArray":
        """Smallest array able to carry ``current_a`` within the rating.

        Args:
            current_a: rail current (same magnitude in power and ground).
            utilization_cap: fraction of available sites that may be
                used (the paper caps BGAs at 60% and C4 at 85%).

        Raises:
            InfeasibleError: if even the full (capped) platform cannot
                carry the current.
        """
        if current_a <= 0:
            raise ConfigError("current must be positive")
        if not 0.0 < utilization_cap <= 1.0:
            raise ConfigError("utilization cap must be in (0, 1]")
        needed = math.ceil(current_a / self.rated_current_a)
        # A rounded quotient can overshoot an exact multiple by one.
        if needed > 1 and self.array(needed - 1).is_within_rating(current_a):
            needed -= 1
        available = int(self.power_sites_per_polarity * utilization_cap)
        if needed > available:
            raise InfeasibleError(
                f"{self.name}: need {needed} elements per polarity for "
                f"{current_a:.1f} A but only {available} available "
                f"(cap {utilization_cap:.0%})"
            )
        return self.array(needed)

    def max_current_a(self, utilization_cap: float = 1.0) -> float:
        """Maximum rail current the (capped) platform can carry."""
        if not 0.0 < utilization_cap <= 1.0:
            raise ConfigError("utilization cap must be in (0, 1]")
        return (
            int(self.power_sites_per_polarity * utilization_cap)
            * self.rated_current_a
        )


@dataclass(frozen=True)
class InterconnectArray:
    """A parallel array of identical vertical elements on both rails."""

    technology: VerticalInterconnect
    count_per_polarity: int

    def __post_init__(self) -> None:
        if self.count_per_polarity < 1:
            raise ConfigError("array needs at least one element per polarity")

    @property
    def resistance_one_polarity_ohm(self) -> float:
        """Parallel resistance of one polarity's elements."""
        return self.technology.element_resistance_ohm / self.count_per_polarity

    @property
    def resistance_rail_pair_ohm(self) -> float:
        """Round-trip (power + ground) resistance of the array."""
        return 2.0 * self.resistance_one_polarity_ohm

    @property
    def utilization(self) -> float:
        """Fraction of the platform's power-allocatable sites in use
        (covers both polarities, matching how the paper quotes it)."""
        return (
            2.0
            * self.count_per_polarity
            / max(self.technology.power_sites, 1)
        )

    def loss_w(self, current_a: float) -> float:
        """I²R loss of the rail pair at the given rail current."""
        if current_a < 0:
            raise ConfigError("current must be non-negative")
        return current_a**2 * self.resistance_rail_pair_ohm

    def current_per_element_a(self, current_a: float) -> float:
        """Per-element current when the rail carries ``current_a``."""
        return current_a / self.count_per_polarity

    def is_within_rating(self, current_a: float) -> bool:
        """True if per-element current respects the derated rating."""
        return (
            self.current_per_element_a(current_a)
            <= self.technology.rated_current_a * (1.0 + 1e-12)
        )


# ---------------------------------------------------------------------------
# Table I catalog
# ---------------------------------------------------------------------------

#: PCB-to-package solder ball grid array.
BGA = VerticalInterconnect(
    name="BGA",
    level="PCB/PKG",
    material=SOLDER_SAC305,
    platform_area_m2=mm2(1800.0),
    diameter_m=um(400.0),
    cross_area_m2=um2(125664.0),
    height_m=um(300.0),
    pitch_m=um(800.0),
    rated_current_a=1.5,
)

#: Package-to-interposer C4 solder bumps.
C4_BUMP = VerticalInterconnect(
    name="C4 bump",
    level="PKG/Interposer",
    material=SOLDER_SAC305,
    platform_area_m2=mm2(1200.0),
    diameter_m=um(100.0),
    cross_area_m2=um2(7854.0),
    height_m=um(70.0),
    pitch_m=um(200.0),
    rated_current_a=0.080,
)

#: Through-silicon (through-interposer) copper vias.  TSVs can only be
#: placed in dedicated keep-out islands, so only a small fraction of
#: the geometric sites is realizable for power (DESIGN.md subst. #4).
TSV = VerticalInterconnect(
    name="TSV",
    level="Through-Interposer",
    material=COPPER,
    platform_area_m2=mm2(1200.0),
    diameter_m=um(5.0),
    cross_area_m2=um2(20.0),
    height_m=um(50.0),
    pitch_m=um(10.0),
    rated_current_a=0.060,
    power_site_fraction=7.0e-4,
)

#: Interposer-to-die solder micro-bumps.
MICRO_BUMP = VerticalInterconnect(
    name="u-bump",
    level="Interposer/Die",
    material=SOLDER_SAC305,
    platform_area_m2=mm2(500.0),
    diameter_m=um(30.0),
    cross_area_m2=um2(707.0),
    height_m=um(25.0),
    pitch_m=um(60.0),
    rated_current_a=0.006,
)

#: Interposer-to-die advanced Cu-Cu direct-bond pads.
ADVANCED_CU_PAD = VerticalInterconnect(
    name="advanced Cu pad",
    level="Interposer/Die",
    material=COPPER,
    platform_area_m2=mm2(500.0),
    diameter_m=0.0,
    cross_area_m2=um2(100.0),
    height_m=um(10.0),
    pitch_m=um(20.0),
    rated_current_a=0.0085,
)

#: All Table I technologies in paper order.
TABLE_I: tuple[VerticalInterconnect, ...] = (
    BGA,
    C4_BUMP,
    TSV,
    MICRO_BUMP,
    ADVANCED_CU_PAD,
)


def table_i_rows() -> list[dict[str, object]]:
    """Table I as dict rows (direct data plus derived quantities)."""
    rows: list[dict[str, object]] = []
    for tech in TABLE_I:
        rows.append(
            {
                "level": tech.level,
                "platform_area_mm2": tech.platform_area_m2 / mm2(1.0),
                "type": tech.name,
                "material": tech.material.name,
                "diameter_um": tech.diameter_m / um(1.0),
                "cross_area_um2": tech.cross_area_m2 / um2(1.0),
                "height_um": tech.height_m / um(1.0),
                "pitch_um": tech.pitch_m / um(1.0),
                "element_resistance_ohm": tech.element_resistance_ohm,
                "sites_total": tech.sites_total,
                "rated_current_a": tech.rated_current_a,
            }
        )
    return rows


def find_technology(name: str) -> VerticalInterconnect:
    """Look up a Table I technology by (case-insensitive) name."""
    for tech in TABLE_I:
        if tech.name.lower() == name.lower():
            return tech
    raise ConfigError(f"unknown interconnect technology: {name!r}")
