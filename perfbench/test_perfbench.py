"""Tests for the benchmark's own code (input generation, metrics, failures).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.parallel.cache import process_cache  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def clean_cache():
    process_cache().clear()
    yield
    process_cache().clear()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    first = pickle.dumps(workloads.generate(workload, 7, 1.0))
    again = pickle.dumps(workloads.generate(workload, 7, 1.0))
    other = pickle.dumps(workloads.generate(workload, 8, 1.0))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_hold_the_same_mix_for_every_seed(workload):
    def mix(seed):
        return [
            sorted((p["kind"], p["n"] if "n" in p else 0, p["arch"]) for p in r)
            for r in workloads.generate(workload, seed, 1.0)
        ]

    assert mix(1) == mix(2)


def test_metric_names_are_valid_and_match_benchmark_json():
    declared = [
        (m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]
    ]
    assert declared == list(run.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layers == list(tracing.LAYER_METRICS)
    names = [name for name, _, _ in declared + layers]
    assert len(names) == len(set(names))
    for name, unit, better in declared + layers:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert SPEC["paths"] == ["perfbench"]


def test_traced_run_reports_every_per_layer_metric(clean_cache, capsys):
    child.main(
        ["--workload", "paper_study", "--seed", "3", "--seconds", "0",
         "--trace", "1"]
    )
    raw = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    reported = set(raw["layers"]) | {
        "pdn.decap_placement.placed_violating_fraction"
    }
    assert reported == {name for name, _, _ in tracing.LAYER_METRICS}
    # Blocks of two rounds alternate, untraced first.
    per_round = len(workloads.generate("paper_study", 3, 0)[0])
    assert raw["attempted"] == 2 * child.BLOCK_ROUNDS * per_round
    assert raw["layers"]["trace.points"] == child.BLOCK_ROUNDS * per_round
    assert raw["layers"]["core.loss_analysis.analyze_calls"] > 0
    assert not raw["failures"]


@pytest.mark.parametrize("n", [1, 10, 11, 12, 57, 400])
def test_tail_keeps_ten_samples_beyond_it(n):
    latencies = list(np.random.default_rng(n).exponential(size=n))
    value, percentile, above, samples = run.tail_percentile(latencies)
    assert samples == n
    if n <= 10:
        assert value == max(latencies) and percentile == 100.0
    else:
        assert above == sum(x > value for x in latencies) >= 10
        assert value == sorted(latencies)[n - 11]
        assert percentile == pytest.approx(100.0 * (n - 11) / (n - 1))


def test_times_scale_with_the_reference_kernel():
    # A host twice as slow doubles both the point and the kernel time.
    assert hostspeed.scale(0.2, hostspeed.REFERENCE_S) == 0.2
    assert hostspeed.scale(0.4, 2 * hostspeed.REFERENCE_S) == pytest.approx(0.2)
    assert hostspeed.reference_s() > 0


def test_injected_failure_is_counted_and_the_loop_goes_on():
    rounds = [[{"i": 0}, {"i": 1}, {"i": 2}]]

    def evaluate(index, point):
        if point["i"] == 1:
            raise FloatingPointError("injected")
        return point["i"]

    latencies, references, failures, outputs = child.run_points(
        rounds, evaluate, deadline_s=0.0, round_multiple=2
    )
    assert len(latencies) == len(references) == 6
    assert all(reference > 0 for reference in references)
    assert sorted(failures) == [1, 4]
    assert "injected" in failures[1]
    assert outputs == {0: 0, 2: 2, 3: 0, 5: 2}


def test_failed_point_fails_the_run(clean_cache, monkeypatch, capsys):
    real = workloads.run_point
    calls = []

    def flaky(point):
        calls.append(point)
        out = real(point)
        if len(calls) == 2:
            out["totals"] = out["totals"] * np.nan
        return out

    monkeypatch.setattr(workloads, "run_point", flaky)
    child.main(["--workload", "paper_study", "--seed", "3", "--seconds", "0"])
    raw = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert list(raw["failures"]) == ["1"]
    assert "non-finite" in raw["failures"]["1"]

    def measured(workload, seed, seconds, trace):
        return {
            "workload": workload,
            "metrics": {"points_per_s": 1.0},
            "notes": {},
            "attempted": raw["attempted"],
            "failed": len(raw["failures"]),
            "failures": raw["failures"],
            "oracle_checked": raw["oracle_checked"],
            "cache": raw["cache"],
            "placed_violating_fraction": None,
        }

    monkeypatch.setattr(run, "measure", measured)
    for var in run.THREAD_VARS:  # main pins them; restore after the test
        monkeypatch.setenv(var, "1")
    status = run.main(["--workload", "paper_study", "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] == 1
    assert any(line.startswith("failed_fraction = 0.25") for line in lines)


def test_tracer_counts_layers_and_restores_the_package(clean_cache):
    from repro.pdn.grid import GridPDN
    from repro.pdn.mna import FactorizedPDN

    originals = (GridPDN.solve, FactorizedPDN.__init__, workloads.decap_placement.optimize_decap_placement)
    point = next(
        p
        for p in workloads.generate("dc_signoff", 1, 1.0)[0]
        if p["n"] == 24
    )
    with tracing.session() as tracer:
        tracer.enable()
        workloads.run_point(point)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["pdn.grid.dc_structured_share"] == 0.0
    assert metrics["pdn.mna.factor_calls"] == 1
    assert metrics["parallel.cache.misses"] == 1
    assert metrics["pdn.mna.woodbury_scenarios"] == workloads.DC_FAILURE_PAIRS
    assert metrics["pdn.network.compile_calls"] >= 1
    assert metrics["pdn.mna.solve_columns"] > metrics["pdn.mna.solve_calls"]
    assert originals == (
        GridPDN.solve,
        FactorizedPDN.__init__,
        workloads.decap_placement.optimize_decap_placement,
    )
