"""VR count and position planning.

The count policy mirrors the paper's (reconstructed) procedure:

1. Start from the Table II slot count for the placement style
   (``vrs_along_periphery`` for A1/stage-1, ``vrs_below_die`` for
   A2/stage-2).
2. If the slot count already keeps every VR within its published
   maximum load current, use it (DSCH: 48 slots at ~21 A each).
3. Otherwise the *required* count is ``ceil(I / I_max)``, rounded up
   to a multiple of four for layout symmetry.  Only sparse,
   high-current converters (unit footprint above
   ``OVERFLOW_AREA_THRESHOLD_MM2``) may overflow beyond their slots
   into additional periphery rows — the paper extends rows for DPMIH
   but keeps the dense converters slot-bound, which is exactly what
   excludes 3LHD (48 slots x 12 A < 1 kA) from Fig. 7.
4. Every plan is checked against the region area budgets.

``optimal_stage_count`` implements the efficiency-optimal count used
for the A3 first stage: minimizing ``n · P(I/n)`` over n gives
``n* = I·sqrt(c/a)``, i.e. each VR runs at its peak-efficiency
current.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from ..converters.catalog import ConverterSpec
from ..converters.loss_model import QuadraticLossModel
from ..errors import ConfigError, InfeasibleError, require_finite
from .area_budget import (
    AreaBudget,
    below_die_budget,
    periphery_budget,
)
from .geometry import (
    Position,
    grid_positions,
    mixed_positions,
    multi_ring_positions,
    periphery_positions,
)

#: Converters with a unit footprint above this threshold are "sparse"
#: and may overflow beyond their Table II slot counts (DPMIH);
#: dense converters are slot-bound (DSCH, 3LHD).
OVERFLOW_AREA_THRESHOLD_MM2 = 20.0


class PlacementStyle(enum.Enum):
    """Where the VRs sit."""

    PERIPHERY = "periphery"
    BELOW_DIE = "below-die"


@dataclass(frozen=True)
class PlacementPlan:
    """A concrete VR placement.

    Only :func:`plan_placement` builds plans.  The VR layout is not a
    field: :attr:`positions` is derived from the counts below the first
    time it is read, so the loss engine, which needs only the counts,
    never lays a bank out.  Equality, hashing and pickling see the
    fields alone, whether or not the layout has been read.

    Attributes:
        style: periphery or below-die.
        converter: the converter spec being placed.
        vr_count: number of VRs.
        below_die_count: VRs inside the die shadow (below-die style).
        overflow_count: VRs placed beyond the primary region.
        area_used_mm2: total VR footprint.
        per_vr_current_a: uniform-share current per VR for the load
            this plan was built for.
    """

    style: PlacementStyle
    converter: ConverterSpec
    vr_count: int
    below_die_count: int
    overflow_count: int
    area_used_mm2: float
    per_vr_current_a: float

    def __post_init__(self) -> None:
        if self.vr_count < 1:
            raise ConfigError("plan must place at least one VR")
        if (
            self.style is PlacementStyle.BELOW_DIE
            and self.below_die_count + self.overflow_count != self.vr_count
        ):
            raise ConfigError("below-die and overflow VRs must make the VR count")

    @cached_property
    def positions(self) -> tuple[Position, ...]:
        """Fractional die coordinates per VR, laid out on first read:
        periphery rings, an under-die grid, or the grid plus a ring of
        overflow VRs."""
        if self.style is PlacementStyle.PERIPHERY:
            layout = _periphery_layout(
                self.converter.vrs_along_periphery, self.vr_count
            )
        elif self.overflow_count > 0:
            layout = mixed_positions(self.below_die_count, self.overflow_count)
        else:
            layout = grid_positions(self.vr_count)
        return tuple(layout)

    @property
    def is_multi_row(self) -> bool:
        """True if the plan needed rows beyond the primary region."""
        return self.overflow_count > 0


def _round_up_to_multiple(value: int, multiple: int) -> int:
    """Smallest multiple of ``multiple`` that is >= ``value``."""
    return ((value + multiple - 1) // multiple) * multiple


def required_count(spec: ConverterSpec, current_a: float) -> int:
    """Minimum VR count keeping per-VR load within the rating."""
    if current_a <= 0:
        raise ConfigError("current must be positive")
    return math.ceil(current_a / spec.max_load_a)


def plan_placement(
    spec: ConverterSpec,
    style: PlacementStyle,
    total_current_a: float,
    die_area_mm2: float,
    interposer_area_mm2: float = 1200.0,
) -> PlacementPlan:
    """Plan a placement for one conversion stage.

    Raises:
        InfeasibleError: when no feasible count exists (per-VR current
            above rating with no overflow allowed, or area exhausted) —
            the rule that drops 3LHD from the paper's Fig. 7.
    """
    require_finite(total_current_a, "total_current_a")
    require_finite(die_area_mm2, "die_area_mm2")
    require_finite(interposer_area_mm2, "interposer_area_mm2")
    if total_current_a <= 0:
        raise ConfigError("total current must be positive")
    if die_area_mm2 <= 0:
        raise ConfigError("die area must be positive")
    # Off-nominal dies get a platform scaled like Table I's
    # interposer:die ratio (1200:500 = 2.4).
    interposer_area_mm2 = max(interposer_area_mm2, 2.4 * die_area_mm2)

    slots = (
        spec.vrs_along_periphery
        if style is PlacementStyle.PERIPHERY
        else spec.vrs_below_die
    )
    demand = required_count(spec, total_current_a)
    peripheral = periphery_budget(die_area_mm2, interposer_area_mm2)
    below = below_die_budget(die_area_mm2)

    if demand <= slots:
        count = slots
        overflow = 0
    else:
        if spec.area_mm2 < OVERFLOW_AREA_THRESHOLD_MM2:
            raise InfeasibleError(
                f"{spec.name}: {slots} slots supply at most "
                f"{slots * spec.max_load_a:.0f} A but {total_current_a:.0f} A "
                f"is required ({total_current_a / slots:.1f} A per VR "
                f"exceeds the {spec.max_load_a:.0f} A rating); dense "
                "converters are slot-bound (paper: 3LHD excluded)"
            )
        count = _round_up_to_multiple(demand, 4)
        overflow = count - slots

    area_used = count * spec.area_mm2
    if style is PlacementStyle.PERIPHERY:
        _check_periphery_area(spec, count, peripheral)
        below_count = 0
    else:
        below_count = min(count, slots, below.capacity(spec.area_mm2))
        ring_count = count - below_count
        if ring_count > 0 and not peripheral.fits(
            ring_count, spec.area_mm2
        ):
            raise InfeasibleError(
                f"{spec.name}: below-die overflow of {ring_count} VRs does "
                f"not fit the periphery budget "
                f"({peripheral.available_mm2:.0f} mm2)"
            )
        overflow = ring_count

    per_vr = total_current_a / count
    spec.require_feasible(per_vr)
    return PlacementPlan(
        style=style,
        converter=spec,
        vr_count=count,
        below_die_count=below_count,
        overflow_count=overflow,
        area_used_mm2=area_used,
        per_vr_current_a=per_vr,
    )


def _check_periphery_area(
    spec: ConverterSpec, count: int, budget: AreaBudget
) -> None:
    """Validate a periphery plan against the off-die interposer area."""
    if not budget.fits(count, spec.area_mm2):
        raise InfeasibleError(
            f"{spec.name}: {count} VRs x {spec.area_mm2:.1f} mm2 exceed "
            f"the periphery budget of {budget.available_mm2:.0f} mm2"
        )


def _periphery_layout(slots: int, count: int) -> list[Position]:
    """Positions for a periphery plan, adding rows beyond the slot
    count when needed ("additional rows of VRs farther away from the
    perimeter of the die")."""
    if count <= slots:
        return periphery_positions(count)
    rings: list[int] = []
    remaining = count
    ring_capacity = slots
    while remaining > 0:
        take = min(remaining, ring_capacity)
        rings.append(take)
        remaining -= take
    return multi_ring_positions(rings)


def optimal_stage_count(
    loss_model: QuadraticLossModel,
    total_current_a: float,
    max_count: int | None = None,
) -> int:
    """Efficiency-optimal number of paralleled converters.

    Minimizes total loss ``n · (a + b·I/n + c·(I/n)²)`` over n, whose
    continuous optimum is ``n* = I·sqrt(c/a)`` (each converter at its
    peak-efficiency current).  The integer neighbours of n* are
    compared explicitly, and the count is clamped to keep per-VR
    current feasible.
    """
    if total_current_a <= 0:
        raise ConfigError("total current must be positive")
    floor_count = math.ceil(total_current_a / loss_model.i_max_a)
    if loss_model.a_w == 0.0 or loss_model.c_ohm == 0.0:
        best = floor_count
    else:
        star = total_current_a * math.sqrt(
            loss_model.c_ohm / loss_model.a_w
        )
        candidates = {
            max(floor_count, int(math.floor(star))),
            max(floor_count, int(math.ceil(star))),
            floor_count,
        }

        def total_loss(n: int) -> float:
            return n * loss_model.loss_w(total_current_a / n)

        best = min(candidates, key=total_loss)
    if max_count is not None:
        if max_count < floor_count:
            raise InfeasibleError(
                f"even {max_count} converters leave per-unit current "
                f"above the {loss_model.i_max_a:.0f} A rating"
            )
        best = min(best, max_count)
    return max(best, 1)
