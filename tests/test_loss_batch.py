"""The loss chain pinned to recorded numbers, and its batch form to its
one-draw form.

``loss_batch_golden.json`` holds breakdowns and VR layouts recorded from
the scalar loss engine before the chain was batched, floats as
``float.hex``: every component, stage field and total of A0–A3 with the
three Table II converters, at three specs and both stage models, must
come out exactly equal, and infeasible points must raise the recorded
message.  ``analyze_many`` draw k must equal, bit for bit, ``analyze``
on a converter and parameters perturbed by that draw's scales.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemSpec
from repro.converters.catalog import (
    DPMIH,
    DSCH,
    THREE_LEVEL_HYBRID_DICKSON,
    StageModelMode,
)
from repro.converters.loss_model import QuadraticLossModel
from repro.core.architectures import (
    ALL_ARCHITECTURES,
    dual_stage_a3,
    single_stage_a1,
    single_stage_a2,
)
from repro.core.loss_analysis import LossAnalyzer, LossModelParameters
from repro.errors import InfeasibleError
from repro.placement.planner import PlacementStyle, plan_placement

GOLDEN = json.loads(Path(__file__).with_name("loss_batch_golden.json").read_text())

SPECS = {
    "default": SystemSpec(),
    "800W@1.6": SystemSpec(pol_power_w=800.0, current_density_a_per_mm2=1.6),
    "1200W@2.4": SystemSpec(pol_power_w=1200.0, current_density_a_per_mm2=2.4),
}
ARCHITECTURES = {arch.name: arch for arch in ALL_ARCHITECTURES}
TOPOLOGIES = {t.name: t for t in (DPMIH, DSCH, THREE_LEVEL_HYBRID_DICKSON)}


def _record_id(record: dict) -> str:
    return "-".join(record[k] for k in ("spec", "mode", "arch", "topology"))


def _analyzer(record: dict) -> LossAnalyzer:
    params = LossModelParameters(stage_mode=StageModelMode(record["mode"]))
    return LossAnalyzer(SPECS[record["spec"]], params)


@pytest.mark.parametrize("record", GOLDEN["breakdowns"], ids=_record_id)
def test_breakdown_equals_recorded_values(record):
    analyzer = _analyzer(record)
    arch = ARCHITECTURES[record["arch"]]
    topology = TOPOLOGIES[record["topology"]]
    if "error" in record:
        with pytest.raises(InfeasibleError) as raised:
            analyzer.analyze(arch, topology)
        assert str(raised.value) == record["error"]
        return
    breakdown = analyzer.analyze(arch, topology)
    assert [
        [c.name, c.category, c.loss_w.hex(), c.detail]
        for c in breakdown.components
    ] == record["components"]
    assert [
        [
            s.name,
            s.converter,
            s.vr_count,
            s.per_vr_current_a.hex(),
            s.per_vr_efficiency.hex(),
            s.output_power_w.hex(),
            s.loss_w.hex(),
            s.placement,
        ]
        for s in breakdown.stages
    ] == record["stages"]
    assert breakdown.total_loss_w.hex() == record["total"]
    plan = breakdown.pol_plan
    assert (
        None
        if plan is None
        else [
            plan.style.value,
            plan.vr_count,
            plan.below_die_count,
            plan.overflow_count,
            plan.area_used_mm2.hex(),
            plan.per_vr_current_a.hex(),
        ]
    ) == record["plan"]


@pytest.mark.parametrize("record", GOLDEN["breakdowns"], ids=_record_id)
def test_unit_scale_batch_equals_recorded_total(record):
    totals, feasible = _analyzer(record).analyze_many(
        ARCHITECTURES[record["arch"]],
        TOPOLOGIES[record["topology"]],
        np.ones((2, 3)),
        np.ones(2),
    )
    if "error" in record:
        assert not feasible.any() and np.isnan(totals).all()
    else:
        assert feasible.all()
        assert [t.hex() for t in totals.tolist()] == [record["total"]] * 2


# -- batch against one draw built the scalar way ----------------------------------


def _perturbed_total(analyzer, arch, topology, loss_scale, rdl_scale):
    """``analyze`` on one draw, with the draw's scales folded into a
    perturbed converter and parameter set; ``None`` when it raises."""
    base = topology.loss_model
    model = QuadraticLossModel(
        v_out_v=base.v_out_v,
        a_w=base.a_w * loss_scale[0],
        b_v=base.b_v * loss_scale[1],
        c_ohm=base.c_ohm * loss_scale[2],
        i_max_a=base.i_max_a,
    )
    params = replace(
        analyzer.params,
        die_grid_resistance_ohm=analyzer.params.die_grid_resistance_ohm
        * rdl_scale,
        intermediate_rail_squares=analyzer.params.intermediate_rail_squares
        * rdl_scale,
    )
    perturbed = LossAnalyzer(analyzer.spec, params, analyzer.stack)
    try:
        return perturbed.analyze(arch, replace(topology, loss_model=model))
    except InfeasibleError:
        return None


def _assert_batch_matches_draws(analyzer, arch, topology, loss_scales, rdl_scales):
    """Check every draw of one batch; returns the draws' breakdowns."""
    totals, feasible = analyzer.analyze_many(
        arch, topology, loss_scales, rdl_scales
    )
    breakdowns = []
    for k in range(len(rdl_scales)):
        breakdown = _perturbed_total(
            analyzer, arch, topology, loss_scales[k].tolist(), float(rdl_scales[k])
        )
        assert feasible[k] == (breakdown is not None), k
        if breakdown is None:
            assert np.isnan(totals[k])
        else:
            assert totals[k].hex() == breakdown.total_loss_w.hex(), k
        breakdowns.append(breakdown)
    return breakdowns


def _scales(seed: int, draws: int, loss_sigma: float, rdl_sigma: float):
    rng = np.random.default_rng(seed)
    loss = np.exp(loss_sigma * rng.standard_normal((draws, 3)))
    rdl = np.exp(rdl_sigma * rng.standard_normal(draws))
    return loss, rdl


@settings(max_examples=60, deadline=None)
@given(
    power=st.floats(300.0, 1300.0),
    density=st.floats(1.2, 2.8),
    arch=st.sampled_from(ALL_ARCHITECTURES),
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    mode=st.sampled_from(StageModelMode),
    die_grid=st.floats(2e-6, 2e-5),
    rail_squares=st.floats(0.3, 3.0),
    interposer=st.sampled_from([900.0, 1200.0, 2400.0]),
    seed=st.integers(0, 2**32 - 1),
    loss_sigma=st.floats(0.0, 0.4),
    rdl_sigma=st.floats(0.0, 0.4),
)
def test_batch_equals_perturbed_draws(
    power,
    density,
    arch,
    topology,
    mode,
    die_grid,
    rail_squares,
    interposer,
    seed,
    loss_sigma,
    rdl_sigma,
):
    spec = SystemSpec(pol_power_w=power, current_density_a_per_mm2=density)
    params = LossModelParameters(
        die_grid_resistance_ohm=die_grid,
        intermediate_rail_squares=rail_squares,
        stage_mode=mode,
        interposer_area_mm2=interposer,
    )
    analyzer = LossAnalyzer(spec, params)
    loss, rdl = _scales(seed, 12, loss_sigma, rdl_sigma)
    _assert_batch_matches_draws(analyzer, arch, TOPOLOGIES[topology], loss, rdl)


@pytest.mark.parametrize(
    "arch, power_w",
    [
        # 48x 3LHD just inside the 12 A rating at the nominal point: the
        # RDL scale decides each draw.
        (single_stage_a1(), 558.55),
        (single_stage_a2(), 569.48),
        (dual_stage_a3(12.0), 569.48),
    ],
    ids=["A1", "A2", "A3@12V"],
)
def test_marginal_converter_batch_is_partly_infeasible(arch, power_w):
    analyzer = LossAnalyzer(SystemSpec().with_power(power_w))
    loss, rdl = _scales(7, 40, 0.05, 0.08)
    _, feasible = analyzer.analyze_many(
        arch, THREE_LEVEL_HYBRID_DICKSON, loss, rdl
    )
    assert 0 < feasible.sum() < len(feasible)
    _assert_batch_matches_draws(
        analyzer, arch, THREE_LEVEL_HYBRID_DICKSON, loss, rdl
    )


def test_batch_of_mixed_vr_plans_matches_draws():
    # Near 1.2 kA, DPMIH's VR demand rounds up to 12 or 16 VRs.  A heavy
    # die grid with wide RDL scales puts draws on both plans, and some
    # past the rating, in one batch.
    analyzer = LossAnalyzer(
        SystemSpec().with_power(1150.0),
        LossModelParameters(die_grid_resistance_ohm=3e-5),
    )
    loss, rdl = _scales(3, 48, 0.1, 0.45)
    breakdowns = _assert_batch_matches_draws(
        analyzer, single_stage_a2(), DPMIH, loss, rdl
    )
    assert {b.pol_plan.vr_count if b else None for b in breakdowns} == {
        12,
        16,
        None,
    }


# -- lazy VR layouts ---------------------------------------------------------------

LAYOUTS = {
    "DSCH-A1": (DSCH, PlacementStyle.PERIPHERY),
    "DSCH-A2": (DSCH, PlacementStyle.BELOW_DIE),
    "DPMIH-A1": (DPMIH, PlacementStyle.PERIPHERY),
    "DPMIH-A2": (DPMIH, PlacementStyle.BELOW_DIE),
}


def _plan(key: str):
    converter, style = LAYOUTS[key]
    spec = SystemSpec()
    return plan_placement(converter, style, spec.pol_current_a, spec.die_area_mm2)


@pytest.mark.parametrize("key", sorted(LAYOUTS))
def test_positions_equal_recorded_layout(key):
    positions = [[p.x.hex(), p.y.hex(), p.ring] for p in _plan(key).positions]
    assert positions == GOLDEN["layouts"][key]


@pytest.mark.parametrize("key", sorted(LAYOUTS))
@pytest.mark.parametrize("read", [False, True])
def test_plans_compare_and_pickle_with_or_without_layout(key, read):
    plan, twin = _plan(key), _plan(key)
    if read:
        assert len(plan.positions) == plan.vr_count
    assert plan == twin and hash(plan) == hash(twin)
    restored = pickle.loads(pickle.dumps(plan))
    assert restored == twin
    assert restored.positions == twin.positions
