"""Seeded design-study workloads for the ``repro`` benchmark.

Every workload is a list of independent *design points*, generated
from the workload seed before timing starts (:func:`generate`) and run
one after another through the public API (:func:`run_point`).  Points
come in *rounds*: each round holds the same mix of point classes (mesh
size, engine family, architecture) with seeded values, so a run that
stops at a round boundary measures the same mix whatever the seed — the
seed changes the inputs, not the amount of work.  The order within a
round is fixed too, so the cache access pattern and the allocation
sequence (and with it peak memory) do not depend on the seed.  :func:`check_point` is the oracle spot-check run outside the
timed region on the points :func:`oracle_indices` picks.

Why each workload exists, and what it leaves idle:

``dc_signoff``
    IR-drop signoff of seeded A1/A2 die grids (``GridPDN``) from 24² to
    128², on both sides of ``STRUCTURED_AUTO_MIN_CELLS``: one solve, 16
    load-rescaled re-solves and a 12-scenario N−2 batch per point.  The
    17 topologies include 12 factorized ones, more than the 8-entry
    factorization cache, visited in an order that gives hits, misses and
    evictions in every round (see :func:`_dc_order`).  Time
    goes to compile → fingerprint → factor / DCT setup → back-substitution
    → Woodbury → package; AC, transient and placement are idle.
``ac_placement``
    Per-node impedance maps (121 frequencies) split across the three AC
    engine families — uniform density (structured), non-uniform density
    (spectral), map-form decap or inductive metal (direct-sparse) — plus
    capped decap-placement runs whose targets are seeded at 0.5–0.9× the
    uniform-allocation peak, so the optimizer has violations to fix.
    The DC layers are idle.
``transient_droop``
    Fresh (mesh, Δt, decap) designs from 16² to 64²: one salted
    factorization each, then 8 seeded traces through ``simulate_many``.
    Every point writes a new cache entry and reads it for hundreds of
    steps — the write-heavy use of the cache; 64² runs the structured
    transient engine.
``paper_study``
    The paper's own reproduction on seeded ``SystemSpec`` points: A0–A3
    loss breakdowns, the intermediate-voltage sweep, a 64-draw Monte
    Carlo through ``repro.parallel``, current sharing and ``run_all``.
    Loss and converter models and executor plumbing dominate; the
    solver kernels barely run, so this is the control that must not
    move when they change.
"""

from __future__ import annotations

import math

import numpy as np

import repro
from repro.core import current_sharing, exploration, ir_drop, variation
from repro.datasets import hpc_demand
from repro.parallel.cache import process_cache
from repro.pdn import decap_placement, powermap
from repro.pdn.grid import GridACPDN, GridPDN
from repro.pdn.grid_transient import GridTransientPDN
from repro.pdn.stackup import default_stack
from repro.placement.planner import PlacementStyle, plan_placement
from repro.reporting import experiments

WORKLOADS = ("dc_signoff", "ac_placement", "transient_droop", "paper_study")

ARCHITECTURES = {"A1": repro.single_stage_a1, "A2": repro.single_stage_a2}

# -- shared design construction -------------------------------------------------


#: The grid workloads design at the paper's spec: the VR count follows
#: the load current, and a seeded count would make the work per point,
#: not just its inputs, depend on the seed.
PAPER_SPEC = repro.SystemSpec()


def _die_grid(cls, arch: str, n: int, voltage: float, rout: float,
              *inductance: float, **mesh):
    """An ``n``×``n`` die grid of ``cls`` with the A1/A2 VR bank attached
    (the construction ``repro.core.ir_drop`` uses for its maps)."""
    spec = PAPER_SPEC
    side = spec.die_side_m
    sheet = default_stack(spec).level("Interposer").lateral.sheet_ohm_sq
    grid = cls(side, side, sheet, nx=n, ny=n, **mesh)
    plan = plan_placement(
        repro.DSCH,
        ARCHITECTURES[arch]().pol_stage_style,
        spec.pol_current_a,
        spec.die_area_mm2,
    )
    for index, position in enumerate(plan.positions):
        grid.add_source(
            f"vr{index}", position.x, position.y, voltage, rout, *inductance
        )
    if plan.style is PlacementStyle.PERIPHERY and plan.vr_count >= 3:
        spacing = 4.0 * side / plan.vr_count
        grid.connect_sources_with_ring_bus(
            current_sharing.RING_BUS_SHEET_OHM_SQ
            * spacing
            / current_sharing.RING_BUS_WIDTH_M
        )
    return grid


def _hotspot_map(rng: np.random.Generator, n: int, total: float) -> np.ndarray:
    """Floor plus one to three Gaussian hotspots, summing to ``total``."""
    y, x = np.mgrid[0:n, 0:n] / (n - 1)
    density = np.full((n, n), rng.uniform(0.2, 0.5))
    for _ in range(int(rng.integers(1, 4))):
        cx, cy = rng.uniform(0.15, 0.85, 2)
        sigma = rng.uniform(0.06, 0.2)
        density += rng.uniform(0.5, 2.0) * np.exp(
            -((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma * sigma)
        )
    return density * (total / density.sum())


def _pairs(fractions: np.ndarray, count: int) -> list[tuple[int, int]]:
    """Distinct source-index pairs from uniform fractions in [0, 1)."""
    pairs = []
    for u, v in fractions:
        first = int(u * count)
        second = (first + 1 + int(v * (count - 1))) % count
        pairs.append((first, second))
    return pairs


# -- dc_signoff -----------------------------------------------------------------

# A1/A2 at each mesh size except A2 at 96²: 17 topologies, 12 of them
# factorized.  The count is odd so the median point latency falls inside
# one topology's class, not in the gap between two neighbouring ones.
DC_TOPOLOGIES = tuple(
    (arch, n)
    for arch in ("A1", "A2")
    for n in (24, 28, 32, 40, 48, 56, 64, 96, 128)
    if (arch, n) != ("A2", 96)
)
DC_LOAD_SCALES = 16
DC_FAILURE_PAIRS = 12


def _dc_order(topologies, forward: bool) -> list[int]:
    """Topology order of one round: two factorized meshes, then one
    structured, repeated.  The factorized meshes run forward on even
    rounds and backward on odd ones, so the last few of a round are the
    first few of the next: with 12 factorized topologies and an 8-entry
    cache every round sees the same mix of hits, misses and evictions."""
    factorized = [i for i, t in enumerate(topologies) if t["n"] ** 2 < 4096]
    structured = [i for i, t in enumerate(topologies) if t["n"] ** 2 >= 4096]
    if not forward:
        factorized.reverse()
    order = []
    for k, index in enumerate(structured):
        order += factorized[2 * k : 2 * k + 2] + [index]
    return order + factorized[2 * len(structured) :]


def _dc_round(rng, topologies, forward: bool):
    points = []
    for index in _dc_order(topologies, forward):
        topo = topologies[index]
        points.append(
            {
                "kind": "dc",
                **topo,
                "sinks": _hotspot_map(rng, topo["n"], PAPER_SPEC.pol_current_a),
                "scales": rng.uniform(0.5, 1.2, DC_LOAD_SCALES),
                "pairs": rng.random((DC_FAILURE_PAIRS, 2)),
            }
        )
    return points


def _dc_grid(point, engine: str = "auto") -> GridPDN:
    grid = _die_grid(
        GridPDN, point["arch"], point["n"], point["setpoint_v"],
        point["rout"], engine=engine,
    )
    grid.set_sink_array(point["sinks"])
    return grid


def _run_dc(point):
    grid = _dc_grid(point)
    base = grid.solve()
    loads = grid.solve_many(point["scales"][:, None, None] * point["sinks"])
    pairs = _pairs(point["pairs"], len(grid.source_names))
    failures = grid.solve_disabled_many(pairs)
    return {
        "vmap": base.voltage_map,
        "load_min_v": np.array([s.voltage_map.min() for s in loads]),
        "nk_currents": np.array([s.source_currents_a for s in failures]),
        "nk_min_v": np.array([s.voltage_map.min() for s in failures]),
    }


def _check_dc(point, out) -> str | None:
    oracle = _dc_grid(point, engine="factorized")
    vmap = oracle.solve().voltage_map
    error = float(np.abs(vmap - out["vmap"]).max())
    if error > 1e-9:
        return f"DC map differs from splu by {error:.3e} V"
    pairs = _pairs(point["pairs"], len(oracle.source_names))
    failures = oracle.solve_disabled_many(pairs, method="refactor")
    currents = np.array([s.source_currents_a for s in failures])
    scale = float(np.abs(currents).max())
    error = float(np.abs(currents - out["nk_currents"]).max())
    if error > 1e-7 * scale:
        return f"N-2 currents differ from refactor by {error:.3e} A"
    nk_min_v = np.array([s.voltage_map.min() for s in failures])
    error = float(np.abs(nk_min_v - out["nk_min_v"]).max())
    if error > 1e-9:
        return f"N-2 minimum voltage differs from refactor by {error:.3e} V"
    return None


def _dc_points(rng, rounds):
    topologies = [
        {
            "arch": arch,
            "n": n,
            "rout": current_sharing.DEFAULT_OUTPUT_RESISTANCE_OHM
            * rng.uniform(0.6, 1.6),
            "setpoint_v": rng.uniform(1.0, 1.05),
        }
        for arch, n in DC_TOPOLOGIES
    ]
    return [_dc_round(rng, topologies, r % 2 == 0) for r in range(rounds)]


# -- ac_placement ---------------------------------------------------------------

AC_FREQUENCIES = np.logspace(4, 9, 121)
PLACEMENT_FREQUENCIES = np.logspace(4, 9, 41)
PLACEMENT_ITERATIONS = 3
PLACEMENT_GRADIENT_STEPS = 1
AC_ORACLE_RTOL = 1e-8

# One round: (kind, mesh, architecture, decap form).  "uniform" runs the
# structured engine, "density" the spectral one, "map" and "inductive"
# the direct-sparse one.  Direct sweeps and placement stay at or below
# 16² so a run still holds dozens of points; the class count is odd so
# the median falls inside one class (see DC_TOPOLOGIES).
AC_ROUND = (
    ("sweep", 12, "A1", "uniform"),
    ("sweep", 24, "A2", "uniform"),
    ("sweep", 12, "A2", "density"),
    ("sweep", 16, "A1", "density"),
    ("sweep", 20, "A2", "density"),
    ("sweep", 12, "A2", "inductive"),
    ("sweep", 16, "A1", "map"),
    ("place", 12, "A1", "uniform"),
    ("place", 16, "A2", "uniform"),
)


def _ac_points(rng, rounds):
    out = []
    for _ in range(rounds):
        # Stratified placement targets: each round spans 0.5–0.9×.
        fractions = list(
            rng.permutation(
                [0.5 + 0.4 * (k + rng.random()) / 2 for k in range(2)]
            )
        )
        points = []
        for kind, n, arch, form in AC_ROUND:
            point = {
                "kind": kind,
                "n": n,
                "arch": arch,
                "form": form,
                "unit": (
                    ir_drop.DEFAULT_DECAP_PER_UNIT_F * rng.uniform(0.7, 1.3),
                    ir_drop.DEFAULT_DECAP_ESR_OHM * rng.uniform(0.7, 1.3),
                    ir_drop.DEFAULT_DECAP_ESL_H * rng.uniform(0.7, 1.3),
                ),
            }
            if form in ("density", "map"):
                point["pattern"] = rng.uniform(0.3, 1.7, (n, n))
            if form == "inductive":
                point["edge_l_h"] = rng.uniform(0.5e-12, 2e-12)
            if kind == "place":
                point["target_fraction"] = fractions.pop()
            points.append(point)
        out.append(points)
    return out


def _vr_grid(cls, point, **mesh):
    """AC/transient die grid: nominal VR setpoint, output resistance and
    bump/TSV inductance."""
    return _die_grid(
        cls, point["arch"], point["n"], PAPER_SPEC.pol_voltage_v,
        current_sharing.DEFAULT_OUTPUT_RESISTANCE_OHM,
        ir_drop.DEFAULT_SOURCE_INDUCTANCE_H, **mesh,
    )


def _ac_grid(point) -> GridACPDN:
    edge_l = point.get("edge_l_h", 0.0)
    pdn = _vr_grid(
        GridACPDN, point,
        edge_inductance_x_h=edge_l, edge_inductance_y_h=edge_l,
    )
    c_u, esr_u, esl_u = point["unit"]
    if point["form"] == "map":
        pdn.set_decap_map(point["pattern"] * c_u, esr_u, esl_u)
    else:
        pdn.set_decap_density(point.get("pattern", 1.0), c_u, esr_u, esl_u)
    return pdn


def _run_ac(point):
    pdn = _ac_grid(point)
    if point["kind"] == "sweep":
        return {"z": pdn.impedance_map(AC_FREQUENCIES).z_ohm}
    uniform = pdn.impedance_map(PLACEMENT_FREQUENCIES)
    target = point["target_fraction"] * uniform.peak_impedance_ohm
    result = decap_placement.optimize_decap_placement(
        pdn,
        target,
        frequencies_hz=PLACEMENT_FREQUENCIES,
        max_iterations=PLACEMENT_ITERATIONS,
        gradient_steps=PLACEMENT_GRADIENT_STEPS,
    )
    tol = target * (1.0 + decap_placement.TARGET_RTOL)
    uniform_peaks = uniform.peak_map()
    return {
        "uniform_peak": float(uniform_peaks.max()),
        "uniform_violating": float(np.mean(uniform_peaks > tol)),
        "budget_f": pdn.total_decap_farad,
        "placed_f": result.total_capacitance_after_f,
        "peak_after": result.peak_impedance_after_ohm,
        "violating_after": result.violating_fraction_after,
    }


def _check_ac(point, out) -> str | None:
    if point["kind"] == "sweep":
        reference = _ac_grid(point).impedance_map(
            AC_FREQUENCIES, method="direct"
        ).z_ohm
        # Relative to each frequency's largest |Z|, as the parity tests
        # measure it.  The spectral engine reaches ~4e-9 at 16², so the
        # gate is the 1e-8 budget the structured engine is held to.
        error = float(
            np.max(
                np.abs(out["z"] - reference).max(axis=0)
                / np.abs(reference).max(axis=0)
            )
        )
        if error > AC_ORACLE_RTOL:
            return f"impedance map differs from direct by {error:.3e} (rel)"
        return None
    if abs(out["placed_f"] - out["budget_f"]) > 1e-9 * out["budget_f"]:
        return "placement changed the capacitance budget"
    worse = out["violating_after"] > out["uniform_violating"] or (
        out["violating_after"] == out["uniform_violating"]
        and out["peak_after"] > out["uniform_peak"] * (1.0 + 1e-9)
    )
    if worse:
        return "placement is worse than the uniform allocation"
    return None


# -- transient_droop ------------------------------------------------------------

TRANSIENT_ROUND = ((16, "A2"), (24, "A1"), (32, "A2"), (48, "A1"), (64, "A2"))
TRANSIENT_SAMPLES = 201
TRANSIENT_STEP_TRACES = 6
TRANSIENT_HOTSPOT_TRACES = 2
TRANSIENT_ORACLE_ATOL_V = 1e-12


def _transient_points(rng, rounds):
    chips = hpc_demand.chips()
    out = []
    for _ in range(rounds):
        points = []
        for n, arch in TRANSIENT_ROUND:
            steps = [
                {
                    "chip": int(rng.integers(len(chips))),
                    "idle": rng.uniform(0.2, 0.6),
                    "step_index": int(rng.integers(1, 20)),
                    "profile": _hotspot_map(rng, n, 1.0),
                }
                for _ in range(TRANSIENT_STEP_TRACES)
            ]
            hotspots = [
                {
                    "waypoints": [
                        tuple(rng.uniform(0.1, 0.9, 2))
                        for _ in range(int(rng.integers(2, 4)))
                    ],
                    "scale": rng.uniform(0.5, 1.0),
                    "sigma": rng.uniform(0.08, 0.2),
                }
                for _ in range(TRANSIENT_HOTSPOT_TRACES)
            ]
            points.append(
                {
                    "kind": "transient",
                    "n": n,
                    "arch": arch,
                    "dt_s": rng.uniform(1.5e-10, 3e-10),
                    "density": rng.uniform(0.6, 1.6),
                    "steps": steps,
                    "hotspots": hotspots,
                }
            )
        out.append(points)
    return out


def _transient_grid(point) -> GridTransientPDN:
    pdn = _vr_grid(GridTransientPDN, point)
    pdn.set_decap_density(
        point["density"],
        ir_drop.DEFAULT_DECAP_PER_UNIT_F,
        ir_drop.DEFAULT_DECAP_ESR_OHM,
        ir_drop.DEFAULT_DECAP_ESL_H,
    )
    return pdn


def _transient_waves(point) -> list[np.ndarray]:
    """The 8 (samples, cells) traces, built with the public adapters."""
    spec = PAPER_SPEC
    n = point["n"]
    chips = hpc_demand.chips()
    traces = []
    for step in point["steps"]:
        total = hpc_demand.load_step_trace(
            chips[step["chip"]],
            pol_voltage_v=spec.pol_voltage_v,
            idle_fraction=step["idle"],
            samples=TRANSIENT_SAMPLES,
            step_index=step["step_index"],
        )
        traces.append(hpc_demand.node_current_waveform(total, step["profile"]))
    for hotspot in point["hotspots"]:
        frames = powermap.hotspot_trajectory(
            hotspot["waypoints"],
            TRANSIENT_SAMPLES,
            n,
            n,
            hotspot["scale"] * spec.pol_current_a,
            sigma=hotspot["sigma"],
        )
        traces.append(frames.reshape(TRANSIENT_SAMPLES, n * n))
    return traces


def _summary(result) -> dict:
    return {
        "v_min_map": result.v_min_map,
        "v_final_map": result.v_final_map,
        "min_trace": result.min_voltage_trace_v,
    }


def _run_transient(point):
    pdn = _transient_grid(point)
    results = pdn.simulate_many(_transient_waves(point), point["dt_s"])
    return {
        "droop_v": np.array([r.droop_v for r in results]),
        "traces": [_summary(r) for r in results],
    }


def _check_transient(point, out) -> str | None:
    # Batched and sequential stepping are bit-identical up to 24²; from
    # 32² the multi-column back-substitution rounds differently, by a
    # few 1e-15 V, so the check allows 1e-12 V.
    pdn = _transient_grid(point)
    for index, wave in enumerate(_transient_waves(point)):
        single = _summary(pdn.simulate(wave, point["dt_s"]))
        for key, value in single.items():
            error = float(np.abs(value - out["traces"][index][key]).max())
            if error > TRANSIENT_ORACLE_ATOL_V:
                return (
                    f"simulate_many trace {index} {key} differs from "
                    f"sequential simulate by {error:.3e} V"
                )
    return None


# -- paper_study ----------------------------------------------------------------

MONTE_CARLO_SAMPLES = 64


def _paper_points(rng, rounds):
    out = []
    for _ in range(rounds):
        points = []
        for arch in list(ARCHITECTURES) * 2:
            points.append(
                {
                    "kind": "paper",
                    "arch": arch,
                    "spec": (rng.uniform(800.0, 1200.0), rng.uniform(1.6, 2.4)),
                    "variation_seed": int(rng.integers(2**31)),
                }
            )
        out.append(points)
    return out


def _run_paper(point):
    power_w, density = point["spec"]
    spec = repro.SystemSpec(
        pol_power_w=power_w, current_density_a_per_mm2=density
    )
    analyzer = repro.LossAnalyzer(spec)
    totals = {
        arch.name: analyzer.analyze(arch, repro.DSCH).total_loss_w
        for arch in repro.ALL_ARCHITECTURES
    }
    sweep = exploration.intermediate_voltage_sweep(spec=spec)
    arch = ARCHITECTURES[point["arch"]]()
    mc = variation.monte_carlo_loss(
        arch,
        repro.DSCH,
        spec,
        variation=variation.VariationSpec(seed=point["variation_seed"]),
        samples=MONTE_CARLO_SAMPLES,
        jobs=1,
    )
    sharing = current_sharing.analyze_current_sharing(arch, repro.DSCH, spec)
    claims = experiments.run_all(spec)
    return {
        "totals": np.array(list(totals.values())),
        "arch_total": totals[arch.name],
        "sweep": np.array([p.total_loss_w for p in sweep]),
        "mc": mc.samples_w,
        "mc_nominal": mc.nominal_loss_w,
        "sharing": sharing.currents_a,
        "pol_current_a": spec.pol_current_a,
        "claims_held": sum(result.holds for result in claims),
    }


def _check_paper(point, out) -> str | None:
    if out["mc_nominal"] != out["arch_total"]:
        return "Monte-Carlo nominal loss differs from the loss breakdown"
    total = float(out["sharing"].sum())
    if abs(total - out["pol_current_a"]) > 1e-6 * out["pol_current_a"]:
        return f"VR currents sum to {total:.6f} A, not the POL current"
    return None


def check_paper_claims() -> str | None:
    """Every paper claim must hold at the paper's default spec."""
    failed = [r.claim for r in experiments.run_all(repro.SystemSpec()) if not r.holds]
    return f"paper claims fail at the default spec: {failed}" if failed else None


# -- dispatch -------------------------------------------------------------------

_GENERATORS = {
    "dc_signoff": (_dc_points, 1.0),
    "ac_placement": (_ac_points, 0.4),
    "transient_droop": (_transient_points, 1.5),
    "paper_study": (_paper_points, 8.0),
}
_RUNNERS = {
    "dc": (_run_dc, _check_dc),
    "sweep": (_run_ac, _check_ac),
    "place": (_run_ac, _check_ac),
    "transient": (_run_transient, _check_transient),
    "paper": (_run_paper, _check_paper),
}


def generate(workload: str, seed: int, seconds: float) -> list[list[dict]]:
    """The workload's rounds of points, deterministic in ``seed``.

    Enough rounds are generated to outlast ``seconds`` on a slow
    machine; a faster one cycles through them again.
    """
    make, rounds_per_s = _GENERATORS[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return make(rng, max(2, math.ceil(rounds_per_s * seconds)))


def run_point(point):
    return _RUNNERS[point["kind"]][0](point)


def check_point(point, out) -> str | None:
    """Oracle spot-check; returns a failure message or ``None``."""
    return _RUNNERS[point["kind"]][1](point, out)


def non_finite(out) -> bool:
    """True when any numeric output of a point is NaN or infinite."""
    if isinstance(out, dict):
        return any(non_finite(value) for value in out.values())
    if isinstance(out, (list, tuple)):
        return any(non_finite(value) for value in out)
    if isinstance(out, (float, np.ndarray, np.floating)):
        return not bool(np.all(np.isfinite(out)))
    return False


def _oracle_stratum(workload: str, point: dict):
    """Which oracle stratum a point falls in; ``None`` keeps it out of
    the sample.  Expensive oracles are limited to small meshes (a 128²
    refactor check or a 24² direct sweep costs more than the whole
    run), and direct-engine sweeps are skipped because their oracle is
    the engine itself."""
    n = point.get("n", 0)
    if workload == "dc_signoff":
        return None if n > 96 else n * n >= 4096
    if workload == "ac_placement":
        if point["form"] in ("map", "inductive") or n > 20:
            return None
        return point["kind"]
    if workload == "transient_droop":
        return None if 32 < n < 64 else n * n >= 4096
    return "paper"


def oracle_indices(workload: str, seed: int, first_round: list[dict]) -> list[int]:
    """Seeded oracle sample: up to two positions per stratum in the
    first round, which always completes (runs stop at round ends)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 1])
    strata: dict = {}
    for index, point in enumerate(first_round):
        stratum = _oracle_stratum(workload, point)
        if stratum is not None:
            strata.setdefault(stratum, []).append(index)
    picks = []
    for members in strata.values():
        picks += rng.choice(members, size=min(2, len(members)), replace=False).tolist()
    return sorted(picks)


def cache_is_empty() -> bool:
    return len(process_cache()) == 0 and process_cache().stats.misses == 0
