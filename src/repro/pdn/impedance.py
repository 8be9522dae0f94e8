"""AC impedance analysis of the hierarchical PDN.

The classic companion to DC IR-drop analysis: the impedance the die
sees looking back into the PDN, Z(f), must stay below the *target
impedance* ``Z_target = V · ripple_budget / I_transient`` across the
frequency band of load activity.  Moving regulation onto the
interposer (A1/A2) removes the board/package inductance from the loop
and pushes the PDN's inductive rise out in frequency — the AC
counterpart of the paper's DC savings.

The ladder of :class:`~repro.pdn.transient.PDNStage` elements is
evaluated analytically with complex phasors: walking from the source
to the die, each stage contributes a series R + jωL followed by a
shunt decoupling capacitor (C with ESR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from .ac import ACNetlist, check_frequencies, impedance_at
from .mesh import require_finite
from .transient import PDNStage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .grid import GridACPDN


@dataclass(frozen=True)
class ImpedanceProfile:
    """Z(f) of a PDN seen from the die.

    Attributes:
        frequencies_hz: evaluation frequencies.
        impedance_ohm: |Z| at each frequency.
        peak_impedance_ohm: the worst (anti-resonant) |Z|.
        peak_frequency_hz: frequency of the worst |Z|.
    """

    frequencies_hz: np.ndarray
    impedance_ohm: np.ndarray

    @property
    def peak_impedance_ohm(self) -> float:
        """Largest impedance magnitude over the profile."""
        return float(self.impedance_ohm.max())

    @property
    def peak_frequency_hz(self) -> float:
        """Frequency at which the impedance peaks."""
        index = int(np.argmax(self.impedance_ohm))
        return float(self.frequencies_hz[index])

    def meets_target(self, target_ohm: float) -> bool:
        """True if |Z| stays at or below the target everywhere."""
        require_finite(target_ohm, "target_ohm")
        if target_ohm <= 0:
            raise ConfigError(
                f"target_ohm must be positive, got {target_ohm}"
            )
        return bool(np.all(self.impedance_ohm <= target_ohm * (1 + 1e-12)))

    def violation_band_hz(self, target_ohm: float) -> tuple[float, float] | None:
        """(first, last) frequency violating the target, or None."""
        require_finite(target_ohm, "target_ohm")
        if target_ohm <= 0:
            raise ConfigError(
                f"target_ohm must be positive, got {target_ohm}"
            )
        mask = self.impedance_ohm > target_ohm
        if not mask.any():
            return None
        indices = np.nonzero(mask)[0]
        return (
            float(self.frequencies_hz[indices[0]]),
            float(self.frequencies_hz[indices[-1]]),
        )


def target_impedance_ohm(
    supply_voltage_v: float,
    ripple_fraction: float,
    transient_current_a: float,
) -> float:
    """The standard target-impedance rule:
    ``Z_t = V · ripple / ΔI`` (e.g. 1 V, 5%, 500 A -> 0.1 mΩ)."""
    require_finite(supply_voltage_v, "supply_voltage_v")
    require_finite(ripple_fraction, "ripple_fraction")
    require_finite(transient_current_a, "transient_current_a")
    if supply_voltage_v <= 0:
        raise ConfigError("supply voltage must be positive")
    if not 0.0 < ripple_fraction < 1.0:
        raise ConfigError("ripple fraction must be in (0, 1)")
    if transient_current_a <= 0:
        raise ConfigError("transient current must be positive")
    return supply_voltage_v * ripple_fraction / transient_current_a


def pdn_impedance(
    stages: list[PDNStage],
    frequencies_hz: np.ndarray | None = None,
    source_impedance_ohm: float = 1e-6,
) -> ImpedanceProfile:
    """Impedance looking back from the die into the ladder.

    Args:
        stages: ladder from the regulator (first) to the die (last).
        frequencies_hz: evaluation grid (default: 1 kHz .. 1 GHz,
            60 points/decade-ish logarithmic).
        source_impedance_ohm: the regulator's output impedance at DC
            (an ideal source would be 0; a small positive value keeps
            the low-frequency plateau realistic).
    """
    if not stages:
        raise ConfigError("at least one PDN stage required")
    require_finite(source_impedance_ohm, "source_impedance_ohm")
    if source_impedance_ohm < 0:
        raise ConfigError("source impedance must be non-negative")
    if frequencies_hz is None:
        frequencies_hz = np.logspace(3, 9, 361)
    freqs = check_frequencies(frequencies_hz)

    omega = 2.0 * math.pi * freqs
    z = np.full_like(freqs, source_impedance_ohm, dtype=complex)
    for stage in stages:
        series = stage.series_resistance_ohm + 1j * omega * (
            stage.series_inductance_h
        )
        z = z + series
        z_cap = stage.decap_esr_ohm + 1.0 / (1j * omega * stage.decap_farad)
        z = z * z_cap / (z + z_cap)
    return ImpedanceProfile(
        frequencies_hz=freqs, impedance_ohm=np.abs(z)
    )


def ladder_ac_netlist(
    stages: list[PDNStage],
    source_impedance_ohm: float = 1e-6,
) -> tuple[ACNetlist, str]:
    """The analytic ladder as an explicit AC netlist.

    Returns ``(netlist, die_node)`` — the exact circuit
    :func:`pdn_impedance` evaluates in closed form: the source
    impedance to ground, then per stage a series R + L into a shunt
    C + ESR branch.  A zero source impedance becomes an ideal (zeroed)
    voltage-source short.  Used by :func:`pdn_impedance_mna` and the
    cross-validation tests.
    """
    if not stages:
        raise ConfigError("at least one PDN stage required")
    require_finite(source_impedance_ohm, "source_impedance_ohm")
    if source_impedance_ohm < 0:
        raise ConfigError("source impedance must be non-negative")
    net = ACNetlist()
    if source_impedance_ohm > 0:
        net.add_resistor("z_source", "ladder[0]", net.GROUND, source_impedance_ohm)
    else:
        net.add_voltage_source("z_source", "ladder[0]", 0.0)
    for k, stage in enumerate(stages):
        node_in = f"ladder[{k}]"
        node_out = f"ladder[{k + 1}]"
        net.add_resistor(
            f"{stage.name}.r[{k}]",
            node_in,
            (node_in, "rl"),
            stage.series_resistance_ohm,
        )
        net.add_inductor(
            f"{stage.name}.l[{k}]",
            (node_in, "rl"),
            node_out,
            stage.series_inductance_h,
        )
        net.add_capacitor(
            f"{stage.name}.c[{k}]",
            node_out,
            (node_out, "esr"),
            stage.decap_farad,
        )
        if stage.decap_esr_ohm > 0:
            net.add_resistor(
                f"{stage.name}.esr[{k}]",
                (node_out, "esr"),
                net.GROUND,
                stage.decap_esr_ohm,
            )
        else:
            net.add_voltage_source(
                f"{stage.name}.esr[{k}]", (node_out, "esr"), 0.0
            )
    return net, f"ladder[{len(stages)}]"


def pdn_impedance_mna(
    stages: list[PDNStage],
    frequencies_hz: np.ndarray | None = None,
    source_impedance_ohm: float = 1e-6,
) -> ImpedanceProfile:
    """:func:`pdn_impedance` evaluated by the compiled AC sweep engine.

    Builds the ladder as an explicit netlist and probes the die node
    with :func:`repro.pdn.ac.impedance_at` — the general MNA path that
    handles arbitrary decap networks.  On pure ladders it must agree
    with the closed form to numerical precision, which is exactly what
    the cross-validation tests assert; keeping both paths exercised
    guards the sweep engine against silent stamp regressions.
    """
    if frequencies_hz is None:
        frequencies_hz = np.logspace(3, 9, 361)
    net, die_node = ladder_ac_netlist(stages, source_impedance_ohm)
    freqs = np.asarray(frequencies_hz, dtype=float)
    return ImpedanceProfile(
        frequencies_hz=freqs,
        impedance_ohm=impedance_at(net, die_node, freqs),
    )


@dataclass(frozen=True)
class DecapRecommendation:
    """Result of the decap sizing helper."""

    stage_name: str
    original_farad: float
    recommended_farad: float
    meets_target: bool


def size_die_decap_for_target(
    stages: list[PDNStage],
    target_ohm: float,
    max_farad: float = 1e-3,
    frequencies_hz: np.ndarray | None = None,
) -> DecapRecommendation:
    """Grow the last (die) stage's decap until Z(f) meets the target.

    A simple geometric search: doubles the die decap until the profile
    passes or ``max_farad`` is reached.  Returns the recommendation
    either way (``meets_target`` reports the outcome).
    """
    require_finite(target_ohm, "target_ohm")
    if target_ohm <= 0:
        raise ConfigError(
            f"target_ohm must be positive, got {target_ohm}"
        )
    if not stages:
        raise ConfigError("at least one PDN stage required")
    require_finite(max_farad, "max_farad")
    if max_farad <= 0:
        raise ConfigError("max capacitance must be positive")

    original = stages[-1].decap_farad
    candidate = original
    while candidate <= max_farad:
        trial = list(stages[:-1])
        last = stages[-1]
        trial.append(
            PDNStage(
                name=last.name,
                series_resistance_ohm=last.series_resistance_ohm,
                series_inductance_h=last.series_inductance_h,
                decap_farad=candidate,
                decap_esr_ohm=last.decap_esr_ohm,
            )
        )
        profile = pdn_impedance(trial, frequencies_hz)
        if profile.meets_target(target_ohm):
            return DecapRecommendation(
                stage_name=last.name,
                original_farad=original,
                recommended_farad=candidate,
                meets_target=True,
            )
        candidate *= 2.0
    return DecapRecommendation(
        stage_name=stages[-1].name,
        original_farad=original,
        recommended_farad=min(candidate, max_farad),
        meets_target=False,
    )


def size_grid_decap_for_target(
    pdn: "GridACPDN",
    target_ohm: float,
    max_scale: float = 1024.0,
    frequencies_hz: np.ndarray | None = None,
) -> DecapRecommendation:
    """Grow the mesh decap allocation until every node meets the target.

    The grid-level replacement for the closed-form ladder search in
    :func:`size_die_decap_for_target`: each trial doubles the per-node
    decap allocation ("more unit cells in parallel", via
    :meth:`~repro.pdn.grid.GridACPDN.scale_decap`) and re-sweeps the
    *real* per-node impedance map, so the verdict reflects the worst
    mesh node under the actual VR placement instead of a lumped die
    stage.  The grid's design is saved and assigned back bit-exactly
    before returning — including when a trial evaluation raises
    mid-search — and the recommendation reports total mesh
    capacitance.  On failure the recommendation is capped at
    ``original * max_scale``, mirroring the lumped sizer's
    ``min(candidate, max_farad)``.
    """
    require_finite(target_ohm, "target_ohm")
    if target_ohm <= 0:
        raise ConfigError(
            f"target_ohm must be positive, got {target_ohm}"
        )
    require_finite(max_scale, "max_scale")
    if max_scale < 1.0:
        raise ConfigError("max decap scale must be >= 1")
    original = pdn.total_decap_farad
    if original <= 0:
        raise ConfigError("grid has no decaps attached; set a decap map first")
    if frequencies_hz is None:
        frequencies_hz = np.logspace(3, 9, 121)
    # Save the design itself: scale_decap(s) then scale_decap(1/s)
    # round-trips C/ESR/ESL through a float multiply-then-divide,
    # which is lossy for non-power-of-two factors, and a trial that
    # raises mid-search would otherwise leave the grid mutated.
    saved = pdn.design
    scale = 1.0
    try:
        while True:
            impedance = pdn.impedance_map(frequencies_hz)
            if impedance.meets_target(target_ohm):
                return DecapRecommendation(
                    stage_name="grid-decap",
                    original_farad=original,
                    recommended_farad=original * scale,
                    meets_target=True,
                )
            if scale * 2.0 > max_scale:
                return DecapRecommendation(
                    stage_name="grid-decap",
                    original_farad=original,
                    recommended_farad=original
                    * min(scale * 2.0, max_scale),
                    meets_target=False,
                )
            pdn.scale_decap(2.0)
            scale *= 2.0
    finally:
        pdn.design = saved
