"""Linear RLC transient analysis of the PDN (load-step droop).

The paper's DC study is silent on dynamics, but its call for
"accurate system-level models" motivates this extension: a classic
hierarchical PDN ladder (board / package / die decoupling stages
behind rail parasitics) excited by a POL load-current step.  The
response exhibits the familiar first/second/third droops, and lets the
examples show *why* moving regulation closer to the POL (shrinking the
upstream inductance seen by the die) shrinks the droop.

The ladder is integrated as a dense linear state-space system
``x' = A x + B u`` using matrix-exponential stepping (exact for
piecewise-constant input), which is stiff-safe and fast for the small
ladders used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ..errors import ConfigError, require_finite


@dataclass(frozen=True)
class PDNStage:
    """One ladder stage: series R-L into a shunt decoupling C (with ESR).

    Attributes:
        name: stage label (e.g. ``"board"``, ``"package"``, ``"die"``).
        series_resistance_ohm: rail resistance of the stage.
        series_inductance_h: rail (loop) inductance of the stage.
        decap_farad: decoupling capacitance at the stage output.
        decap_esr_ohm: equivalent series resistance of that capacitor.
    """

    name: str
    series_resistance_ohm: float
    series_inductance_h: float
    decap_farad: float
    decap_esr_ohm: float = 0.0

    def __post_init__(self) -> None:
        for field in (
            "series_resistance_ohm",
            "series_inductance_h",
            "decap_farad",
            "decap_esr_ohm",
        ):
            require_finite(getattr(self, field), f"{self.name}: {field}")
        if self.series_resistance_ohm <= 0:
            raise ConfigError(f"{self.name}: series R must be positive")
        if self.series_inductance_h <= 0:
            raise ConfigError(f"{self.name}: series L must be positive")
        if self.decap_farad <= 0:
            raise ConfigError(f"{self.name}: decap C must be positive")
        if self.decap_esr_ohm < 0:
            raise ConfigError(f"{self.name}: ESR must be non-negative")


def droop_and_settle(
    time_s: np.ndarray,
    trace_v: np.ndarray,
    v_pre: float,
    v_final: float,
    band_v: float,
) -> tuple[float, float]:
    """Droop / settle-time metrics shared by every transient result.

    ``trace_v`` is a voltage waveform sampled at ``time_s`` whose first
    sample is the pre-step operating point.  Droop is the worst
    instantaneous deviation below ``v_pre`` (clipped at zero); the
    settle time is the first sample whose *entire suffix* stays within
    ``band_v`` of ``v_final`` — computed with a reversed cumulative AND
    so every suffix verdict comes out of one O(n) pass (the naive scan
    was O(n²) as ``inside[k:].all()`` per k).  Used by both the lumped
    :class:`PDNTransient` ladder and the mesh
    :class:`~repro.pdn.grid_transient.GridTransientPDN` result layers.
    """
    time = np.asarray(time_s, dtype=float)
    trace = np.asarray(trace_v, dtype=float)
    if time.ndim != 1 or trace.shape != time.shape or time.size == 0:
        raise ConfigError("trace and time arrays must match and be 1-D")
    if band_v <= 0:
        raise ConfigError("settle band must be positive")
    droop = float(max(0.0, v_pre - trace.min()))
    inside = np.abs(trace - v_final) <= band_v
    suffix_inside = np.logical_and.accumulate(inside[::-1])[::-1]
    if suffix_inside.any():
        settle = float(time[int(np.argmax(suffix_inside))])
    else:
        settle = float(time[-1])
    return droop, settle


@dataclass(frozen=True)
class TransientResult:
    """Load-step simulation output.

    Attributes:
        time_s: sample times.
        pol_voltage_v: POL (last stage) voltage over time.
        stage_voltages_v: per-stage capacitor voltages, shape
            (stages, samples).
        droop_v: worst instantaneous deviation below the DC-settled
            pre-step POL voltage.
        settle_time_s: first time after the step where the POL voltage
            stays within ``settle_band_v`` of its final value.
    """

    time_s: np.ndarray
    pol_voltage_v: np.ndarray
    stage_voltages_v: np.ndarray
    droop_v: float
    settle_time_s: float


class PDNTransient:
    """Hierarchical PDN ladder driven by an ideal source.

    State vector: inductor currents (one per stage) followed by
    capacitor voltages (one per stage).  The load is a current sink at
    the final stage.
    """

    def __init__(self, supply_voltage_v: float, stages: list[PDNStage]) -> None:
        require_finite(supply_voltage_v, "supply_voltage_v")
        if supply_voltage_v <= 0:
            raise ConfigError("supply voltage must be positive")
        if not stages:
            raise ConfigError("at least one PDN stage is required")
        self.supply_voltage_v = supply_voltage_v
        self.stages = list(stages)
        self._n = len(stages)
        self._build_state_space()

    def _build_state_space(self) -> None:
        """Assemble x' = A x + B u with u = [V_supply, I_load].

        With ESR, the node voltage at stage k is
        ``v_node_k = v_c_k + esr_k * i_c_k`` where ``i_c_k`` is the
        capacitor current; substituting keeps the system linear.
        """
        n = self._n
        size = 2 * n
        a = np.zeros((size, size))
        b = np.zeros((size, 2))

        # Capacitor current of stage k: i_c[k] = i_l[k] - i_out[k],
        # where i_out[k] = i_l[k+1] for interior stages and the load
        # current for the last stage.  Node voltage includes ESR drop.
        for k, stage in enumerate(self.stages):
            il, vc = k, n + k
            l_h = stage.series_inductance_h
            c_f = stage.decap_farad
            esr = stage.decap_esr_ohm

            # dv_c[k]/dt = i_c[k]/C
            a[vc, il] += 1.0 / c_f
            if k + 1 < n:
                a[vc, k + 1] -= 1.0 / c_f
            else:
                b[vc, 1] -= 1.0 / c_f

            # di_l[k]/dt = (v_node[k-1] - v_node[k] - R*i_l[k]) / L
            # v_node[k] = v_c[k] + esr * i_c[k]
            a[il, vc] -= 1.0 / l_h
            a[il, il] -= (stage.series_resistance_ohm + esr) / l_h
            if k + 1 < n:
                a[il, k + 1] += esr / l_h
            else:
                b[il, 1] += esr / l_h
            if k == 0:
                b[il, 0] += 1.0 / l_h
            else:
                prev = self.stages[k - 1]
                esr_prev = prev.decap_esr_ohm
                vc_prev = n + (k - 1)
                a[il, vc_prev] += 1.0 / l_h
                # v_node[k-1] includes prev ESR * (i_l[k-1] - i_l[k])
                a[il, k - 1] += esr_prev / l_h
                a[il, il] -= esr_prev / l_h

        self._a = a
        self._b = b

    def _output_voltage(self, x: np.ndarray, i_load: float) -> np.ndarray:
        """POL node voltage from states (vectorized over columns)."""
        n = self._n
        last = self.stages[-1]
        vc = x[n + (n - 1)]
        il = x[n - 1]
        return vc + last.decap_esr_ohm * (il - i_load)

    def dc_state(self, i_load_a: float) -> np.ndarray:
        """Steady state for a constant load current."""
        u = np.array([self.supply_voltage_v, i_load_a])
        return np.linalg.solve(self._a, -self._b @ u)

    def simulate_step(
        self,
        i_before_a: float,
        i_after_a: float,
        duration_s: float = 20e-6,
        dt_s: float = 2e-9,
        settle_band_v: float | None = None,
    ) -> TransientResult:
        """Simulate a load-current step from ``i_before_a`` to
        ``i_after_a`` at t = 0, starting from the pre-step DC state."""
        if duration_s <= 0 or dt_s <= 0:
            raise ConfigError("duration and dt must be positive")
        if duration_s < 10 * dt_s:
            raise ConfigError("duration must cover at least 10 steps")
        if i_before_a < 0 or i_after_a < 0:
            raise ConfigError("load currents must be non-negative")

        steps = int(round(duration_s / dt_s))
        n = self._n
        u = np.array([self.supply_voltage_v, i_after_a])

        # Exact discretization for piecewise-constant input:
        #   x[k+1] = Phi x[k] + Gamma u
        size = 2 * n
        block = np.zeros((size + 2, size + 2))
        block[:size, :size] = self._a * dt_s
        block[:size, size:] = self._b * dt_s
        exp_block = expm(block)
        phi = exp_block[:size, :size]
        gamma = exp_block[:size, size:]

        x = self.dc_state(i_before_a)
        v_pre = float(self._output_voltage(x.reshape(-1, 1), i_before_a)[0])

        trajectory = np.empty((size, steps + 1))
        trajectory[:, 0] = x
        for k in range(steps):
            x = phi @ x + gamma @ u
            trajectory[:, k + 1] = x

        time = np.arange(steps + 1) * dt_s
        pol = self._output_voltage(trajectory, i_after_a)
        pol[0] = v_pre  # step applies just after t=0

        v_final = float(
            self._output_voltage(
                self.dc_state(i_after_a).reshape(-1, 1), i_after_a
            )[0]
        )
        band = settle_band_v if settle_band_v is not None else 0.02 * abs(
            self.supply_voltage_v
        )
        droop, settle = droop_and_settle(time, pol, v_pre, v_final, band)

        return TransientResult(
            time_s=time,
            pol_voltage_v=pol,
            stage_voltages_v=trajectory[n:, :],
            droop_v=droop,
            settle_time_s=settle,
        )


def default_board_regulated_pdn(supply_voltage_v: float = 1.0) -> PDNTransient:
    """A0-style PDN: regulation on the board, long inductive path."""
    stages = [
        PDNStage("board", 0.2e-3, 10e-9, 2e-3, 0.2e-3),
        PDNStage("package", 0.1e-3, 0.5e-9, 200e-6, 0.3e-3),
        PDNStage("die", 0.05e-3, 20e-12, 2e-6, 0.05e-3),
    ]
    return PDNTransient(supply_voltage_v, stages)


def default_interposer_regulated_pdn(
    supply_voltage_v: float = 1.0,
) -> PDNTransient:
    """A1/A2-style PDN: regulation on the interposer, short path.

    The board and package inductance is hidden behind the regulator,
    so the die only sees the interposer/die parasitics.
    """
    stages = [
        PDNStage("interposer", 0.05e-3, 100e-12, 100e-6, 0.1e-3),
        PDNStage("die", 0.02e-3, 10e-12, 2e-6, 0.05e-3),
    ]
    return PDNTransient(supply_voltage_v, stages)
