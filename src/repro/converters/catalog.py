"""Converter catalog — the Table II registry.

Binds each of the paper's three 48V-to-1V converters to its published
structural data and calibrated loss curve, and provides the stage-model
policy used by the dual-stage (A3) architectures:

* ``StageModelMode.AS_PUBLISHED`` (paper fidelity): the published
  48V-to-1V loss-vs-current curve is reused for the stage converter,
  only the output voltage (throughput power) changes.  This is the
  conservative choice the paper's numbers imply — no other efficiency
  data existed for these devices.
* ``StageModelMode.RATIO_SCALED`` (ablation): first-order physics
  scaling of the curve with the reduced input voltage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigError, InfeasibleError
from .loss_model import QuadraticLossModel
from .topologies import dickson3l, dpmih, dsch


class StageModelMode(enum.Enum):
    """How stage converters are modeled when V_in/V_out differ from
    the published 48V-to-1V operating point."""

    AS_PUBLISHED = "as-published"
    RATIO_SCALED = "ratio-scaled"


@dataclass(frozen=True)
class ConverterSpec:
    """A Table II row plus the calibrated loss model.

    Attributes mirror the table: conversion scheme, max load current,
    peak efficiency and its current, switch/passive counts and
    densities, and the VR counts the paper uses for periphery and
    under-die placement.
    """

    name: str
    full_name: str
    conversion_scheme: str
    max_load_a: float
    peak_efficiency: float
    i_at_peak_a: float
    switch_count: int
    switches_per_mm2: float
    inductor_count: int
    total_inductance_h: float
    capacitor_count: int
    total_capacitance_f: float
    vrs_along_periphery: int
    vrs_below_die: int
    loss_model: QuadraticLossModel

    def __post_init__(self) -> None:
        if self.max_load_a <= 0:
            raise ConfigError(f"{self.name}: max load must be positive")
        if not 0.0 < self.peak_efficiency < 1.0:
            raise ConfigError(f"{self.name}: peak efficiency out of range")
        if self.switches_per_mm2 <= 0:
            raise ConfigError(f"{self.name}: switch density must be positive")

    @property
    def area_mm2(self) -> float:
        """Converter footprint implied by switch count and density.

        Per the paper, passives are assumed to fit within the switch
        footprint (embedded in interposer / RDL), so this is the VR's
        total placement area.
        """
        return self.switch_count / self.switches_per_mm2

    @property
    def inductance_per_inductor_h(self) -> float:
        """Average inductance per inductor."""
        return self.total_inductance_h / self.inductor_count

    @property
    def capacitance_per_capacitor_f(self) -> float:
        """Average capacitance per capacitor."""
        return self.total_capacitance_f / self.capacitor_count

    # -- feasibility ------------------------------------------------------------

    def is_feasible_load(self, i_out_a: float) -> bool:
        """True if a per-VR output current is within the rating
        (elementwise for an array of currents)."""
        return (0.0 <= i_out_a) & (i_out_a <= self.max_load_a * (1.0 + 1e-9))

    def require_feasible(self, i_out_a: float) -> None:
        """Raise :class:`InfeasibleError` when the rating is exceeded —
        the rule by which the paper drops 3LHD from Fig. 7."""
        if not self.is_feasible_load(i_out_a):
            raise InfeasibleError(
                f"{self.name}: required {i_out_a:.1f} A per VR exceeds the "
                f"published maximum of {self.max_load_a:.1f} A "
                "(efficiency at this load is not reported)"
            )

    # -- stage models -------------------------------------------------------------

    def stage_loss_model(
        self,
        v_in_v: float,
        v_out_v: float,
        mode: StageModelMode = StageModelMode.AS_PUBLISHED,
    ) -> QuadraticLossModel:
        """Loss model for this converter used as a stage of a
        multi-stage architecture.

        Args:
            v_in_v: stage input voltage.
            v_out_v: stage output voltage.
            mode: AS_PUBLISHED reuses the published curve verbatim
                against the new output voltage; RATIO_SCALED re-rates
                the coefficients for the new input voltage first.
        """
        return _stage_model(self.loss_model, v_in_v, v_out_v, mode)

    def stage_coefficient_factors(
        self,
        v_in_v: float,
        v_out_v: float,
        mode: StageModelMode = StageModelMode.AS_PUBLISHED,
    ) -> tuple[float, float, float]:
        """The factors :meth:`stage_loss_model` multiplies the published
        a, b and c by.

        Both modes rescale each coefficient by a function of the
        voltages alone, so the factors are the stage model of a
        unit-coefficient curve.  A caller that scales the published
        coefficients first (Monte-Carlo tolerances) multiplies by these
        after its scale, exactly as the stage model of the scaled curve
        would.
        """
        published = self.loss_model
        unit = QuadraticLossModel(
            v_out_v=published.v_out_v,
            a_w=1.0,
            b_v=1.0,
            c_ohm=1.0,
            i_max_a=published.i_max_a,
        )
        stage = _stage_model(unit, v_in_v, v_out_v, mode)
        return stage.a_w, stage.b_v, stage.c_ohm


def _stage_model(
    loss_model: QuadraticLossModel,
    v_in_v: float,
    v_out_v: float,
    mode: StageModelMode,
) -> QuadraticLossModel:
    """``loss_model`` used as a stage from ``v_in_v`` to ``v_out_v``."""
    if v_out_v >= v_in_v:
        raise ConfigError("stage must step the voltage down")
    if mode is StageModelMode.AS_PUBLISHED:
        return loss_model.reused_at_output_voltage(v_out_v)
    return loss_model.scaled_to_ratio(
        v_in_old_v=48.0, v_in_new_v=v_in_v, v_out_new_v=v_out_v
    )


# ---------------------------------------------------------------------------
# Registry (Table II)
# ---------------------------------------------------------------------------

DPMIH = ConverterSpec(
    name="DPMIH",
    full_name="Dual-phase multi-inductor hybrid",
    conversion_scheme="48V-to-1V",
    max_load_a=dpmih.PUBLISHED_MAX_LOAD_A,
    peak_efficiency=dpmih.PUBLISHED_PEAK_EFFICIENCY,
    i_at_peak_a=dpmih.PUBLISHED_I_AT_PEAK_A,
    switch_count=dpmih.SWITCH_COUNT,
    switches_per_mm2=dpmih.SWITCHES_PER_MM2,
    inductor_count=dpmih.INDUCTOR_COUNT,
    total_inductance_h=dpmih.TOTAL_INDUCTANCE_H,
    capacitor_count=dpmih.CAPACITOR_COUNT,
    total_capacitance_f=dpmih.TOTAL_CAPACITANCE_F,
    vrs_along_periphery=8,
    vrs_below_die=7,
    loss_model=dpmih.published_loss_model(),
)

DSCH = ConverterSpec(
    name="DSCH",
    full_name="Double series-capacitor hybrid",
    conversion_scheme="48V-to-1V",
    max_load_a=dsch.PUBLISHED_MAX_LOAD_A,
    peak_efficiency=dsch.PUBLISHED_PEAK_EFFICIENCY,
    i_at_peak_a=dsch.PUBLISHED_I_AT_PEAK_A,
    switch_count=dsch.SWITCH_COUNT,
    switches_per_mm2=dsch.SWITCHES_PER_MM2,
    inductor_count=dsch.INDUCTOR_COUNT,
    total_inductance_h=dsch.TOTAL_INDUCTANCE_H,
    capacitor_count=dsch.CAPACITOR_COUNT,
    total_capacitance_f=dsch.TOTAL_CAPACITANCE_F,
    vrs_along_periphery=48,
    vrs_below_die=48,
    loss_model=dsch.published_loss_model(),
)

THREE_LEVEL_HYBRID_DICKSON = ConverterSpec(
    name="3LHD",
    full_name="Three-level hybrid Dickson",
    conversion_scheme="48V-to-1V",
    max_load_a=dickson3l.PUBLISHED_MAX_LOAD_A,
    peak_efficiency=dickson3l.PUBLISHED_PEAK_EFFICIENCY,
    i_at_peak_a=dickson3l.PUBLISHED_I_AT_PEAK_A,
    switch_count=dickson3l.SWITCH_COUNT,
    switches_per_mm2=dickson3l.SWITCHES_PER_MM2,
    inductor_count=dickson3l.INDUCTOR_COUNT,
    total_inductance_h=dickson3l.TOTAL_INDUCTANCE_H,
    capacitor_count=dickson3l.CAPACITOR_COUNT,
    total_capacitance_f=dickson3l.TOTAL_CAPACITANCE_F,
    vrs_along_periphery=48,
    vrs_below_die=48,
    loss_model=dickson3l.published_loss_model(),
)

#: Table II order.
CATALOG: tuple[ConverterSpec, ...] = (DPMIH, DSCH, THREE_LEVEL_HYBRID_DICKSON)


def converter(name: str) -> ConverterSpec:
    """Look up a catalog converter by (case-insensitive) name."""
    for spec in CATALOG:
        if spec.name.lower() == name.lower():
            return spec
    raise ConfigError(f"unknown converter: {name!r}")


def table_ii_rows() -> list[dict[str, object]]:
    """Table II as dict rows (direct data plus derived area)."""
    rows: list[dict[str, object]] = []
    for spec in CATALOG:
        rows.append(
            {
                "name": spec.name,
                "conversion_scheme": spec.conversion_scheme,
                "max_load_a": spec.max_load_a,
                "peak_efficiency": spec.peak_efficiency,
                "i_at_peak_a": spec.i_at_peak_a,
                "switch_count": spec.switch_count,
                "switches_per_mm2": spec.switches_per_mm2,
                "inductor_count": spec.inductor_count,
                "total_inductance_uH": spec.total_inductance_h * 1e6,
                "capacitor_count": spec.capacitor_count,
                "total_capacitance_uF": spec.total_capacitance_f * 1e6,
                "vrs_along_periphery": spec.vrs_along_periphery,
                "vrs_below_die": spec.vrs_below_die,
                "area_mm2": spec.area_mm2,
            }
        )
    return rows
