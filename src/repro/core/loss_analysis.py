"""PCB-to-POL DC loss analysis — the engine behind Fig. 7.

The engine walks each architecture's power path *backwards* from the
POL: interconnect segments below a converter stage add to the power
that stage must deliver, so converter losses are evaluated at the true
throughput.  Interconnect I²R terms use the nominal rail currents
(P/V at each voltage domain), matching the paper's accounting, and the
total is reported as a percentage of the nominal 1 kW "available at
the PCB" — the normalization under which the paper's A0 shows >40%
loss.

Component categories:

* ``vertical``  — BGA, C4, TSV, die-attach arrays (Table I),
* ``horizontal``— PCB planes, package convergence, interposer RDL,
  intermediate rail, die BEOL grid,
* ``converter`` — VR stages.

Vertical arrays are sized per architecture: the 48 V feed of the
vertical architectures uses rating-minimal arrays (which is what makes
the paper's "1% of BGAs / 2% of C4 / 10% of TSVs" utilization claims);
A0's 1 kA path uses the full utilization-capped platforms since a
kilo-amp design has no slack to leave bumps unused.

One chain of arithmetic serves a single design point and a Monte
Carlo chunk alike.  :meth:`LossAnalyzer.analyze_many` walks it over a
batch of draws (numpy columns of converter-coefficient and RDL scales)
and :meth:`LossAnalyzer.analyze` walks the same code over one draw with
unit scales in plain Python floats, then packages a
:class:`LossBreakdown`.  Integer decisions (the VR plan, the array
counts, the stage-1 count) follow the scalar rules draw by draw, and
every square goes through libm ``pow`` (Python's ``x**2``;
``np.float_power(x, 2.0)`` on columns), so draw k of a batch equals
``analyze`` with that draw's perturbed converter and parameters, bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ..config import SystemSpec
from ..converters.catalog import ConverterSpec, StageModelMode
from ..converters.loss_model import QuadraticLossModel
from ..converters.topologies.transformer_stage import pcb_reference_converter
from ..errors import ConfigError, InfeasibleError, require_finite
from ..pdn.interconnect import BGA, C4_BUMP, TSV, VerticalInterconnect
from ..pdn.planes import (
    annular_spreading_resistance,
    disk_edge_feed_resistance,
    distributed_cell_feed_resistance,
    equivalent_radius,
    plane_resistance,
    sheet_resistance,
)
from ..pdn.stackup import PackagingStack, default_stack
from ..placement.planner import (
    PlacementPlan,
    PlacementStyle,
    optimal_stage_count,
    plan_placement,
    required_count,
)
from .architectures import ArchitectureKind, ArchitectureSpec

#: Utilization caps the paper quotes for the reference architecture.
BGA_UTILIZATION_CAP = 0.60
C4_UTILIZATION_CAP = 0.85


@dataclass(frozen=True)
class LossModelParameters:
    """Calibration knobs of the loss engine (defaults reproduce the
    paper's anchors; see EXPERIMENTS.md for the calibration record).

    Attributes:
        die_grid_resistance_ohm: effective rail-pair resistance of the
            on-die global BEOL grid redistribution.  Derived as
            R_sq(BEOL)/(8π·n_clusters) per polarity with
            R_sq ≈ 2.8 mΩ/sq (6 µm Cu) and ~18 feed clusters → ~6 µΩ.
        intermediate_rail_squares: RDL squares (per polarity) of the
            dedicated intermediate-voltage routes from the periphery
            stage-1 ring to the under-die stage-2 region.
        stage_mode: how stage converters are modeled off their
            published 48V-to-1V operating point.
        interposer_area_mm2: interposer platform area for placement
            budgets.
    """

    die_grid_resistance_ohm: float = 6.0e-6
    intermediate_rail_squares: float = 0.97
    stage_mode: StageModelMode = StageModelMode.AS_PUBLISHED
    interposer_area_mm2: float = 1200.0

    def __post_init__(self) -> None:
        for name in (
            "die_grid_resistance_ohm",
            "intermediate_rail_squares",
            "interposer_area_mm2",
        ):
            require_finite(getattr(self, name), name)
        if self.die_grid_resistance_ohm <= 0:
            raise ConfigError("die grid resistance must be positive")
        if self.intermediate_rail_squares <= 0:
            raise ConfigError("rail squares must be positive")
        if self.interposer_area_mm2 <= 0:
            raise ConfigError("interposer area must be positive")


@dataclass(frozen=True)
class LossComponent:
    """One named loss term."""

    name: str
    category: str  # "vertical" | "horizontal" | "converter"
    loss_w: float
    detail: str = ""

    def __post_init__(self) -> None:
        if self.category not in ("vertical", "horizontal", "converter"):
            raise ConfigError(f"unknown category {self.category!r}")
        if self.loss_w < 0:
            raise ConfigError("loss must be non-negative")


@dataclass(frozen=True)
class StageReport:
    """Operating point of one converter stage."""

    name: str
    converter: str
    vr_count: int
    per_vr_current_a: float
    per_vr_efficiency: float
    output_power_w: float
    loss_w: float
    placement: str


@dataclass(frozen=True)
class LossBreakdown:
    """Complete PCB-to-POL loss decomposition for one design point."""

    architecture: str
    topology: str
    spec: SystemSpec
    components: tuple[LossComponent, ...]
    stages: tuple[StageReport, ...]
    pol_plan: PlacementPlan | None = None

    def category_loss_w(self, category: str) -> float:
        """Total loss of one category."""
        return sum(c.loss_w for c in self.components if c.category == category)

    @property
    def vertical_loss_w(self) -> float:
        """Loss in vertical interconnect (BGA + C4 + TSV + die attach)."""
        return self.category_loss_w("vertical")

    @property
    def horizontal_loss_w(self) -> float:
        """Loss in lateral interconnect at all levels."""
        return self.category_loss_w("horizontal")

    @property
    def converter_loss_w(self) -> float:
        """Loss inside the VR stages."""
        return self.category_loss_w("converter")

    @property
    def ppdn_loss_w(self) -> float:
        """Interconnect (non-converter) loss."""
        return self.vertical_loss_w + self.horizontal_loss_w

    @property
    def total_loss_w(self) -> float:
        """Total PCB-to-POL loss."""
        return sum(c.loss_w for c in self.components)

    @property
    def paper_loss_fraction(self) -> float:
        """Loss as a fraction of the nominal power at the PCB (the
        paper's Fig. 7 normalization)."""
        return self.total_loss_w / self.spec.pol_power_w

    @property
    def efficiency(self) -> float:
        """True end-to-end efficiency P_POL / (P_POL + losses)."""
        return self.spec.pol_power_w / (
            self.spec.pol_power_w + self.total_loss_w
        )

    def component_loss_w(self, name_prefix: str) -> float:
        """Sum of losses whose component name starts with a prefix."""
        return sum(
            c.loss_w for c in self.components if c.name.startswith(name_prefix)
        )

    def fig7_bars(self) -> dict[str, float]:
        """The Fig. 7 stacked-bar values (percent of nominal power)."""
        scale = 100.0 / self.spec.pol_power_w
        return {
            "BGA": self.component_loss_w("bga") * scale,
            "C4": self.component_loss_w("c4") * scale,
            "TSV": self.component_loss_w("tsv") * scale,
            "die-attach": self.component_loss_w("die-attach") * scale,
            "horizontal": self.horizontal_loss_w * scale,
            "VR": self.converter_loss_w * scale,
        }


class _Term(NamedTuple):
    """One loss term of a batch: its loss column."""

    loss_w: np.ndarray


def _subtotal(terms: list) -> float | np.ndarray:
    """Sum of the terms' losses in chain order, as
    :attr:`LossBreakdown.total_loss_w` adds its components."""
    return sum(term.loss_w for term in terms)


class _PlanColumns(NamedTuple):
    """The layout counts of each draw's VR plan."""

    style: PlacementStyle
    vr_count: np.ndarray
    below_die_count: np.ndarray
    overflow_count: np.ndarray


class _OneDraw:
    """Chain operations on one draw held in plain Python floats.

    Decisions call the scalar rules directly, a failing check raises
    its own :class:`InfeasibleError`, and each term and stage is
    recorded as a described :class:`LossComponent` or
    :class:`StageReport`.
    """

    maximum = max
    minimum = min
    whole = int
    plan = staticmethod(plan_placement)

    @staticmethod
    def square(x: float) -> float:
        return x**2

    @staticmethod
    def term(
        name: str, category: str, loss_w: float, detail: Callable[[], str]
    ) -> LossComponent:
        return LossComponent(name, category, loss_w, detail())

    @staticmethod
    def report(build: Callable[[], StageReport]) -> StageReport:
        return build()

    @staticmethod
    def each(value, rule: Callable):
        return rule(value)

    @staticmethod
    def require(value: float, holds: Callable, check: Callable) -> None:
        check(value)  # raises the rule's own message


class _Draws:
    """Chain operations on a batch of draws held in numpy columns.

    Each decision applies the scalar rule draw by draw (once per
    distinct input), a draw that fails a check leaves :attr:`live`
    instead of raising (its columns carry placeholders from then on),
    terms are recorded undescribed and stages not at all.
    """

    maximum = np.maximum
    minimum = np.minimum

    def __init__(self, count: int) -> None:
        self.live = np.ones(count, dtype=bool)

    @staticmethod
    def square(x: np.ndarray) -> np.ndarray:
        # libm pow, like Python's x**2; np.square rounds differently.
        return np.float_power(x, 2.0)

    @staticmethod
    def whole(x: np.ndarray) -> np.ndarray:
        return x.astype(np.int64)  # truncates toward zero, as int()

    @staticmethod
    def term(
        name: str, category: str, loss_w: np.ndarray, detail: Callable[[], str]
    ) -> _Term:
        return _Term(loss_w)

    @staticmethod
    def report(build: Callable[[], StageReport]) -> None:
        return None

    def require(self, value: np.ndarray, holds: Callable, check: Callable) -> None:
        self.live &= holds(value)

    def each(self, column, rule: Callable) -> np.ndarray:
        """``rule`` of each live draw's value, called once per distinct
        value; a draw whose call raises :class:`InfeasibleError` drops
        out."""
        rows = np.flatnonzero(self.live)
        keys, inverse = np.unique(
            np.broadcast_to(column, self.live.shape)[rows], return_inverse=True
        )
        results, failed = [], []
        for key in keys.tolist():
            try:
                results.append(rule(key))
                failed.append(False)
            except InfeasibleError:
                results.append(1)
                failed.append(True)
        values = np.array(results)
        out = np.ones(self.live.shape, dtype=values.dtype)
        out[rows] = values[inverse]
        self.live[rows[np.array(failed, dtype=bool)[inverse]]] = False
        return out

    def plan(self, converter, style, current, die_area_mm2, interposer_area_mm2):
        """Each draw's VR counts.  A plan's counts depend on the current
        only through the VR demand, and its own rating check passes
        whenever the demand fits the count, so ``plan_placement`` runs
        once per distinct demand."""
        demand = self.each(current, partial(required_count, converter))
        counts = np.ones((3, len(self.live)), dtype=np.int64)
        rows = np.flatnonzero(self.live)
        for value in np.unique(demand[rows]).tolist():
            members = rows[demand[rows] == value]
            try:
                plan = plan_placement(
                    converter,
                    style,
                    float(current[members[0]]),
                    die_area_mm2,
                    interposer_area_mm2,
                )
            except InfeasibleError:
                self.live[members] = False
                continue
            counts[:, members] = np.array(
                [[plan.vr_count], [plan.below_die_count], [plan.overflow_count]]
            )
        return _PlanColumns(style, *counts)


_ONE_DRAW = _OneDraw()

_ARRAY_NAMES = {BGA.name: "bga", C4_BUMP.name: "c4", TSV.name: "tsv"}
_UTILIZATION_CAPS = {BGA.name: BGA_UTILIZATION_CAP, C4_BUMP.name: C4_UTILIZATION_CAP}


def _quadratic_loss(d, coefficients: tuple, current):
    """Per-converter loss a + b·I + c·I², in the arithmetic of
    :meth:`QuadraticLossModel.loss_w`."""
    a, b, c = coefficients
    return a + b * current + c * d.square(current)


def _as_scales(value, name: str) -> np.ndarray:
    """A finite, positive float array, checked by name."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be numeric") from None
    require_finite(arr, name)
    if not np.all(arr > 0.0):
        raise ConfigError(f"{name} must be positive")
    return arr


class LossAnalyzer:
    """Evaluates the PCB-to-POL loss of an architecture/topology pair."""

    def __init__(
        self,
        spec: SystemSpec | None = None,
        params: LossModelParameters | None = None,
        stack: PackagingStack | None = None,
    ) -> None:
        self.spec = spec or SystemSpec()
        self.params = params or LossModelParameters()
        self.stack = stack or default_stack(self.spec)

    # -- public API -------------------------------------------------------------

    def analyze(
        self, arch: ArchitectureSpec, topology: ConverterSpec
    ) -> LossBreakdown:
        """Full loss breakdown for one design point.

        Raises:
            InfeasibleError: if the topology cannot supply the load
                within its published rating under the paper's count
                policy (3LHD at ~21 A per VR).
        """
        # One draw at unit scales.
        components, stages, plan = self._chain(
            _ONE_DRAW, arch, topology, (1.0, 1.0, 1.0), 1.0
        )
        return LossBreakdown(
            architecture=arch.name,
            topology=topology.name,
            spec=self.spec,
            components=tuple(components),
            stages=tuple(stages),
            pol_plan=plan,
        )

    def analyze_many(
        self,
        arch: ArchitectureSpec,
        topology: ConverterSpec,
        loss_scales,
        rdl_scales,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Total loss of a batch of perturbed draws of one design point.

        Draw ``k`` multiplies the POL converter's loss coefficients a, b
        and c by ``loss_scales[k]``, and this analyzer's
        ``die_grid_resistance_ohm`` and ``intermediate_rail_squares`` by
        ``rdl_scales[k]``.  Its total equals, bit for bit,
        :meth:`analyze` with a converter and parameters built from those
        scaled values.

        Args:
            loss_scales: shape ``(draws, 3)``, finite and positive.
            rdl_scales: shape ``(draws,)``, finite and positive.

        Returns:
            ``(total_loss_w, feasible)``: the total-loss column, NaN
            where a draw is infeasible (where :meth:`analyze` would
            raise :class:`InfeasibleError`), and the feasibility mask.
        """
        loss_scales = _as_scales(loss_scales, "loss_scales")
        rdl_scales = _as_scales(rdl_scales, "rdl_scales")
        if rdl_scales.ndim != 1 or len(rdl_scales) < 1:
            raise ConfigError(
                "rdl_scales must have shape (draws,) with at least one draw"
            )
        if loss_scales.shape != (len(rdl_scales), 3):
            raise ConfigError(
                f"loss_scales must have shape ({len(rdl_scales)}, 3), one "
                f"row per draw; got {loss_scales.shape}"
            )
        draws = _Draws(len(rdl_scales))
        # Infeasible draws carry placeholders through the rest of the
        # chain; their arithmetic may overflow and is discarded.
        with np.errstate(over="ignore", invalid="ignore"):
            terms, _, _ = self._chain(
                draws, arch, topology, tuple(loss_scales.T), rdl_scales
            )
            total = _subtotal(terms)
        return np.where(draws.live, total, np.nan), draws.live

    # -- shared primitives --------------------------------------------------------

    def _rdl_sheet(self) -> float:
        """Interposer RDL sheet resistance (one polarity)."""
        return self.stack.level("Interposer").lateral.sheet_ohm_sq

    def _pkg_sheet(self) -> float:
        """Package plane sheet resistance (one polarity)."""
        return self.stack.level("PKG").lateral.sheet_ohm_sq

    def _pcb_resistance_pair(self) -> float:
        """PCB lateral plane resistance, rail pair."""
        pcb = self.spec.pcb
        sheet = sheet_resistance(pcb.plane_thickness_m * pcb.plane_pairs)
        return 2.0 * plane_resistance(
            sheet, pcb.vrm_distance_m, pcb.plane_width_m
        )

    def _pkg_convergence_pair(self, from_area_m2: float) -> float:
        """Package-plane annular convergence to the die shadow, pair."""
        inner = equivalent_radius(self.spec.die_area)
        outer = equivalent_radius(from_area_m2)
        if outer <= inner:
            return 0.0
        return 2.0 * annular_spreading_resistance(
            self._pkg_sheet(), inner, outer
        )

    def _die_grid(self, d, current: float, rdl_scale):
        """On-die BEOL global grid redistribution loss."""
        resistance = self.params.die_grid_resistance_ohm * rdl_scale
        return d.term(
            "die-grid",
            "horizontal",
            d.square(current) * resistance,
            lambda: "on-die BEOL redistribution",
        )

    @staticmethod
    def _array_term(d, name: str, tech: VerticalInterconnect, count, current):
        """I²R loss of an array of ``count`` elements per polarity."""
        pair = d.each(count, lambda n: tech.array(n).resistance_rail_pair_ohm)
        return d.term(
            name,
            "vertical",
            d.square(current) * pair,
            lambda: f"{tech.name} x{count} per polarity",
        )

    def _die_attach(
        self, d, tech: VerticalInterconnect, current: float, minimal: bool
    ):
        """Die-attach (micro-bump or Cu-pad) array loss.  ``current`` is
        the POL current, the same in every draw."""
        full = max(tech.sites_on_area(self.spec.die_area) // 2, 1)
        if minimal:
            count = min(max(1, int(current / tech.rated_current_a) + 1), full)
        else:
            count = full
        return self._array_term(d, "die-attach", tech, count, current)

    def _feed_arrays(self, d, current, minimal: bool, include_tsv: bool) -> list:
        """BGA / C4 / (TSV) array losses for the board-side feed."""
        terms = []
        for tech in (BGA, C4_BUMP, TSV) if include_tsv else (BGA, C4_BUMP):
            sites = tech.power_sites_per_polarity
            if minimal:
                count = d.minimum(
                    d.maximum(1, d.whole(current / tech.rated_current_a) + 1),
                    sites,
                )
            else:
                cap = _UTILIZATION_CAPS.get(tech.name, 1.0)
                count = max(int(sites * cap), 1)
            terms.append(
                self._array_term(d, _ARRAY_NAMES[tech.name], tech, count, current)
            )
        return terms

    def _chain(
        self,
        d,
        arch: ArchitectureSpec,
        topology: ConverterSpec,
        loss_scales: tuple,
        rdl_scale,
    ) -> tuple:
        """Loss terms, stage reports and POL plan of a design point,
        evaluated with the chain operations ``d``: one draw
        (:class:`_OneDraw`) or a batch (:class:`_Draws`)."""
        if arch.kind is ArchitectureKind.PCB_CONVERSION:
            return self._pcb_conversion(d, arch, topology, rdl_scale)
        return self._vertical(d, arch, topology, loss_scales, rdl_scale)

    # -- A0 ------------------------------------------------------------------------

    def _pcb_conversion(
        self, d, arch: ArchitectureSpec, topology: ConverterSpec, rdl_scale
    ) -> tuple:
        """Reference architecture: conversion at the PCB, POL current
        through the entire PPDN.  ``topology`` and its loss scales are
        ignored (the paper models A0 with its fixed 90% transformer+buck
        converter); the topology is only recorded for reporting."""
        spec = self.spec
        i_pol = spec.pol_current_a
        # Interposer lateral: C4s sit densely under the die shadow, so
        # spreading is distributed over very many cells — negligible
        # but accounted.
        c4_cells = max(C4_BUMP.sites_on_area(spec.die_area) // 2, 1)
        spread = (
            d.square(i_pol)
            * 2.0
            * distributed_cell_feed_resistance(self._rdl_sheet(), c4_cells)
        )
        terms = [
            self._die_grid(d, i_pol, rdl_scale),
            self._die_attach(d, arch.die_attach, i_pol, minimal=False),
            d.term(
                "interposer-spread",
                "horizontal",
                spread,
                lambda: "dense C4 feed under die",
            ),
        ]
        # A0 is the traditional flip-chip stack: C4s land on the
        # package (no passive TSV interposer in the 1 kA path).
        terms += self._feed_arrays(d, i_pol, minimal=False, include_tsv=False)
        terms.append(
            d.term(
                "pkg-convergence",
                "horizontal",
                d.square(i_pol) * self._pkg_convergence_pair(BGA.platform_area_m2),
                lambda: "BGA field -> die shadow through package planes",
            )
        )
        terms.append(
            d.term(
                "pcb-planes",
                "horizontal",
                d.square(i_pol) * self._pcb_resistance_pair(),
                lambda: "VRM -> socket power planes",
            )
        )

        converter = pcb_reference_converter(
            spec.input_voltage_v, spec.pol_voltage_v
        )
        p_out = spec.pol_power_w + _subtotal(terms)
        current = p_out / spec.pol_voltage_v
        conv_loss = d.each(current, converter.loss_w)
        terms.append(
            d.term(
                "vr-pcb",
                "converter",
                conv_loss,
                lambda: "transformer 48->12 + multiphase buck 12->1 @ 90%",
            )
        )
        stage = d.report(
            lambda: StageReport(
                name="pcb-stage",
                converter="transformer+buck",
                vr_count=1,
                per_vr_current_a=current,
                per_vr_efficiency=0.90,
                output_power_w=p_out,
                loss_w=conv_loss,
                placement="pcb",
            )
        )
        return terms, [stage], None

    # -- vertical architectures -------------------------------------------------------

    def _pol_lateral(self, d, plan, current):
        """Interposer-RDL lateral loss from the POL VR outputs into the
        die: rim-fed disk for periphery plans, distributed cells for
        under-die plans (with the overflow share rim-fed)."""
        sheet = self._rdl_sheet()
        if plan.style is PlacementStyle.PERIPHERY:
            loss = d.square(current) * (2.0 * disk_edge_feed_resistance(sheet))
            return d.term(
                "interposer-spread",
                "horizontal",
                loss,
                lambda: "periphery ring -> die (rim-fed disk)",
            )
        i_below = current * (plan.below_die_count / plan.vr_count)
        i_ring = current - i_below
        cells = d.each(
            plan.below_die_count,
            lambda n: distributed_cell_feed_resistance(sheet, max(n, 1)),
        )
        loss = d.square(i_below) * 2.0 * cells
        loss = loss + d.square(i_ring) * 2.0 * disk_edge_feed_resistance(sheet)

        def detail() -> str:
            text = f"{plan.below_die_count} under-die cells"
            if plan.overflow_count:
                text += f" + {plan.overflow_count} periphery overflow"
            return text

        return d.term("interposer-spread", "horizontal", loss, detail)

    def _vertical(
        self,
        d,
        arch: ArchitectureSpec,
        topology: ConverterSpec,
        loss_scales: tuple,
        rdl_scale,
    ) -> tuple:
        spec = self.spec
        params = self.params
        i_pol = spec.pol_current_a
        v_pol = spec.pol_voltage_v

        # 1. POL-voltage side (1 V domain).
        terms = [
            self._die_grid(d, i_pol, rdl_scale),
            self._die_attach(d, arch.die_attach, i_pol, minimal=True),
        ]

        # 2. POL VR stage: planned for the current into the die, then
        # sized for that current plus the lateral loss of its outputs.
        current = (spec.pol_power_w + _subtotal(terms)) / v_pol
        plan = d.plan(
            topology,
            arch.pol_stage_style,
            current,
            spec.die_area_mm2,
            params.interposer_area_mm2,
        )
        terms.append(self._pol_lateral(d, plan, current))
        current = (spec.pol_power_w + _subtotal(terms)) / v_pol
        v_in_pol_stage = (
            arch.intermediate_voltage_v
            if arch.is_dual_stage
            else spec.input_voltage_v
        )
        # The stage model of the converter with its coefficients scaled.
        published = topology.loss_model
        f_a, f_b, f_c = topology.stage_coefficient_factors(
            v_in_pol_stage, v_pol, params.stage_mode
        )
        s_a, s_b, s_c = loss_scales
        pol_model = (
            published.a_w * s_a * f_a,
            published.b_v * s_b * f_b,
            published.c_ohm * s_c * f_c,
        )
        per_vr = current / plan.vr_count
        d.require(per_vr, topology.is_feasible_load, topology.require_feasible)
        # The stage model keeps the published rating, and its loss_w
        # raises beyond it.
        d.require(per_vr, published.is_feasible, published.loss_w)
        per_vr_loss = _quadratic_loss(d, pol_model, per_vr)
        pol_loss = plan.vr_count * per_vr_loss
        terms.append(
            d.term(
                "vr-pol",
                "converter",
                pol_loss,
                lambda: (
                    f"{plan.vr_count}x {topology.name} @ {per_vr:.1f} A "
                    f"({plan.style.value})"
                ),
            )
        )
        stages = [
            d.report(
                lambda: StageReport(
                    name="pol-stage",
                    converter=topology.name,
                    vr_count=plan.vr_count,
                    per_vr_current_a=per_vr,
                    per_vr_efficiency=QuadraticLossModel(
                        v_pol, *pol_model, published.i_max_a
                    ).efficiency(per_vr),
                    output_power_w=current * v_pol,
                    loss_w=pol_loss,
                    placement=plan.style.value,
                )
            )
        ]

        # 3. Intermediate rail + first stage (A3 only).
        if arch.is_dual_stage:
            v_int = arch.intermediate_voltage_v
            p_above_pol_stage = spec.pol_power_w + _subtotal(terms)
            rail_resistance = (
                2.0
                * self._rdl_sheet()
                * (params.intermediate_rail_squares * rdl_scale)
            )
            rail_loss = d.square(p_above_pol_stage / v_int) * rail_resistance
            terms.append(
                d.term(
                    "intermediate-rail",
                    "horizontal",
                    rail_loss,
                    lambda: f"{v_int:g} V RDL routes, periphery -> under-die",
                )
            )
            stage1_spec = arch.stage1_converter
            stage1_model = stage1_spec.stage_loss_model(
                v_in_v=spec.input_voltage_v,
                v_out_v=v_int,
                mode=params.stage_mode,
            )
            i_stage1_out = (p_above_pol_stage + rail_loss) / v_int
            max_count = max(stage1_spec.vrs_along_periphery, 1)
            count1 = d.each(
                i_stage1_out,
                lambda i: optimal_stage_count(stage1_model, i, max_count=max_count),
            )
            per_vr1 = i_stage1_out / count1
            d.require(per_vr1, stage1_model.is_feasible, stage1_model.loss_w)
            stage1_loss = count1 * _quadratic_loss(
                d,
                (stage1_model.a_w, stage1_model.b_v, stage1_model.c_ohm),
                per_vr1,
            )
            terms.append(
                d.term(
                    "vr-stage1",
                    "converter",
                    stage1_loss,
                    lambda: (
                        f"{count1}x {stage1_spec.name} 48->{v_int:g} V @ "
                        f"{per_vr1:.1f} A (periphery)"
                    ),
                )
            )
            stages.append(
                d.report(
                    lambda: StageReport(
                        name="stage1",
                        converter=stage1_spec.name,
                        vr_count=count1,
                        per_vr_current_a=per_vr1,
                        per_vr_efficiency=stage1_model.efficiency(per_vr1),
                        output_power_w=i_stage1_out * v_int,
                        loss_w=stage1_loss,
                        placement="periphery",
                    )
                )
            )

        # 4. 48 V feed from the PCB.
        v_in = spec.input_voltage_v
        i_input = (spec.pol_power_w + _subtotal(terms)) / v_in
        terms += self._feed_arrays(d, i_input, minimal=True, include_tsv=True)
        terms.append(
            d.term(
                "pkg-convergence",
                "horizontal",
                d.square(i_input)
                * self._pkg_convergence_pair(BGA.platform_area_m2),
                lambda: f"{v_in:g} V feed through package planes",
            )
        )
        terms.append(
            d.term(
                "pcb-planes",
                "horizontal",
                d.square(i_input) * self._pcb_resistance_pair(),
                lambda: f"{v_in:g} V feed, VRM/entry -> socket",
            )
        )
        return terms, stages, plan

    # -- convenience -----------------------------------------------------------------

    def with_params(self, **overrides: object) -> "LossAnalyzer":
        """A copy of this analyzer with modified parameters."""
        return LossAnalyzer(
            spec=self.spec,
            params=replace(self.params, **overrides),
            stack=self.stack,
        )
