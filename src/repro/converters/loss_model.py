"""Quadratic converter loss curves fitted to published data.

The paper characterizes its architectures with three published
48V-to-1V converters, each reported as "(peak efficiency @ current,
maximum load current)".  We reconstruct a full P_loss(I) curve with
the standard decomposition

    P_loss(I) = a + b·I + c·I²

where ``a`` captures fixed (gate/charge/control) switching loss,
``b`` current-proportional loss, and ``c`` conduction loss.  The
published data pins the curve exactly:

* peak efficiency at I* forces ``a = c·I*²`` (d(P/I)/dI = 0),
* efficiency at the peak fixes ``b + 2·c·I* = V·(1/η* − 1)``,
* a full-load efficiency point fixes ``c``.

The fit therefore *interpolates* the published points rather than
approximating them, which is what "calibrated to the paper" means here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import CalibrationError, ConfigError, InfeasibleError


@dataclass(frozen=True)
class QuadraticLossModel:
    """P_loss(I) = a + b·I + c·I² for a converter with output ``v_out``.

    Attributes:
        v_out_v: output voltage used for efficiency computation.
        a_w: fixed loss (W).
        b_v: current-proportional loss coefficient (V, i.e. W/A).
        c_ohm: conduction-loss coefficient (Ω, i.e. W/A²).
        i_max_a: maximum load current; queries beyond raise unless
            extrapolation is explicitly allowed.
    """

    v_out_v: float
    a_w: float
    b_v: float
    c_ohm: float
    i_max_a: float

    def __post_init__(self) -> None:
        if self.v_out_v <= 0:
            raise ConfigError("output voltage must be positive")
        if self.a_w < 0 or self.b_v < 0 or self.c_ohm < 0:
            raise CalibrationError(
                "loss coefficients must be non-negative: "
                f"a={self.a_w}, b={self.b_v}, c={self.c_ohm}"
            )
        if self.i_max_a <= 0:
            raise ConfigError("maximum load current must be positive")

    # -- construction ----------------------------------------------------------

    @staticmethod
    def fit(
        v_out_v: float,
        i_peak_a: float,
        eta_peak: float,
        i_max_a: float,
        eta_max: float,
    ) -> "QuadraticLossModel":
        """Fit (a, b, c) through the published efficiency points.

        Args:
            v_out_v: converter output voltage.
            i_peak_a: load current at peak efficiency.
            eta_peak: peak efficiency (0..1).
            i_max_a: maximum load current.
            eta_max: efficiency at maximum load (must be < eta_peak).
        """
        if not 0.0 < eta_max < eta_peak < 1.0:
            raise CalibrationError(
                "need 0 < eta_max < eta_peak < 1 "
                f"(got eta_peak={eta_peak}, eta_max={eta_max})"
            )
        if not 0.0 < i_peak_a < i_max_a:
            raise CalibrationError(
                "need 0 < i_peak < i_max "
                f"(got i_peak={i_peak_a}, i_max={i_max_a})"
            )
        c = (
            v_out_v
            * i_max_a
            * (1.0 / eta_max - 1.0 / eta_peak)
            / (i_max_a - i_peak_a) ** 2
        )
        b = v_out_v * (1.0 / eta_peak - 1.0) - 2.0 * c * i_peak_a
        a = c * i_peak_a**2
        if b < 0:
            raise CalibrationError(
                "published points imply a negative linear coefficient "
                f"(b={b:.4g}); the (eta_peak, eta_max) pair is "
                "inconsistent with a quadratic loss curve"
            )
        return QuadraticLossModel(
            v_out_v=v_out_v, a_w=a, b_v=b, c_ohm=c, i_max_a=i_max_a
        )

    # -- evaluation --------------------------------------------------------------

    def loss_w(self, i_out_a: float, allow_extrapolation: bool = False) -> float:
        """Converter loss at the given output current."""
        if i_out_a < 0:
            raise ConfigError("output current must be non-negative")
        if i_out_a > self.i_max_a * (1.0 + 1e-9) and not allow_extrapolation:
            raise InfeasibleError(
                f"load {i_out_a:.2f} A exceeds the converter's maximum "
                f"{self.i_max_a:.2f} A (the paper excludes such points)"
            )
        return self.a_w + self.b_v * i_out_a + self.c_ohm * i_out_a**2

    def efficiency(self, i_out_a: float, allow_extrapolation: bool = False) -> float:
        """Efficiency P_out / (P_out + P_loss) at the given current."""
        if i_out_a <= 0:
            return 0.0
        p_out = self.v_out_v * i_out_a
        return p_out / (p_out + self.loss_w(i_out_a, allow_extrapolation))

    def loss_for_power_w(
        self, p_out_w: float, allow_extrapolation: bool = False
    ) -> float:
        """Loss when delivering ``p_out_w`` at the rated output voltage."""
        if p_out_w < 0:
            raise ConfigError("output power must be non-negative")
        return self.loss_w(p_out_w / self.v_out_v, allow_extrapolation)

    @property
    def i_peak_a(self) -> float:
        """Current of maximum efficiency, sqrt(a/c) (i_max if c = 0)."""
        if self.c_ohm == 0.0:
            return self.i_max_a
        return math.sqrt(self.a_w / self.c_ohm)

    @property
    def peak_efficiency(self) -> float:
        """Efficiency at the optimum current."""
        return self.efficiency(min(self.i_peak_a, self.i_max_a))

    def is_feasible(self, i_out_a: float) -> bool:
        """True if the current is within the converter's rating
        (elementwise for an array of currents)."""
        return (0.0 <= i_out_a) & (i_out_a <= self.i_max_a * (1.0 + 1e-9))

    # -- transformation -----------------------------------------------------------

    def scaled_to_ratio(
        self, v_in_old_v: float, v_in_new_v: float, v_out_new_v: float | None = None
    ) -> "QuadraticLossModel":
        """Physics-based re-rating of the curve for a new input voltage.

        Used by the "ratio-scaled" dual-stage mode (an ablation; the
        paper's own method reuses the published 48V-to-1V curves).
        First-order scaling rules:

        * fixed switching loss ``a`` scales with V_in^1.5 (output-charge
          loss is ~quadratic in V_in, gate loss constant — 1.5 is the
          blended exponent),
        * linear loss ``b`` scales with sqrt(V_in) (overlap loss),
        * conduction ``c`` is unchanged (same devices, same current).
        """
        if v_in_old_v <= 0 or v_in_new_v <= 0:
            raise ConfigError("input voltages must be positive")
        ratio = v_in_new_v / v_in_old_v
        return QuadraticLossModel(
            v_out_v=v_out_new_v if v_out_new_v is not None else self.v_out_v,
            a_w=self.a_w * ratio**1.5,
            b_v=self.b_v * math.sqrt(ratio),
            c_ohm=self.c_ohm,
            i_max_a=self.i_max_a,
        )

    def reused_at_output_voltage(self, v_out_v: float) -> "QuadraticLossModel":
        """Reuse the published efficiency-vs-current behaviour at a new
        output voltage (the paper's "as-published" stage model).

        The published data pins η(I); keeping η(I) while the output
        voltage changes means the loss at current I scales with the
        throughput power, i.e. with v_out:

            loss_new(I) = v_out_new / v_out_old · loss_old(I)

        so all three coefficients scale by the voltage ratio.  This is
        the conservative stage model the paper's numbers imply — no
        ratio-specific efficiency data existed for these devices.
        """
        if v_out_v <= 0:
            raise ConfigError("output voltage must be positive")
        scale = v_out_v / self.v_out_v
        return QuadraticLossModel(
            v_out_v=v_out_v,
            a_w=self.a_w * scale,
            b_v=self.b_v * scale,
            c_ohm=self.c_ohm * scale,
            i_max_a=self.i_max_a,
        )

    def paralleled(self, count: int) -> "QuadraticLossModel":
        """Aggregate model of ``count`` identical converters sharing
        load equally (a scales up, c scales down, b unchanged)."""
        if count < 1:
            raise ConfigError("count must be >= 1")
        return QuadraticLossModel(
            v_out_v=self.v_out_v,
            a_w=self.a_w * count,
            b_v=self.b_v,
            c_ohm=self.c_ohm / count,
            i_max_a=self.i_max_a * count,
        )


def published_efficiency_check(
    model: QuadraticLossModel,
    i_peak_a: float,
    eta_peak: float,
    tolerance: float = 1e-9,
) -> bool:
    """True if the model reproduces a published (I, η) point exactly."""
    return abs(model.efficiency(i_peak_a) - eta_peak) <= tolerance
