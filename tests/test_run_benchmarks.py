"""The row selection and merge logic of ``benchmarks/run_benchmarks.py``,
on synthetic reports: no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "run_benchmarks.py"
_spec = importlib.util.spec_from_file_location("run_benchmarks", SCRIPT)
rb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rb)


def row(name: str, mean: float) -> dict:
    """A pytest-benchmark row with the fields the script reads."""
    return {
        "name": name,
        "fullname": f"benchmarks/bench_solver_scaling.py::{name}",
        "stats": {"min": 0.9 * mean, "mean": mean, "data": [mean, 1.1e-3]},
    }


def report(*rows: dict, node: str = "vm") -> dict:
    return {"machine_info": {"node": node}, "benchmarks": list(rows)}


def row_text(entry: dict) -> str:
    """A row as ``json.dumps(report, indent=4)`` lays it out."""
    return textwrap.indent(json.dumps(entry, indent=4), " " * 8).lstrip()


@pytest.mark.parametrize(
    "argv, selected",
    [
        ([], False),
        (["-q", "-x"], False),
        (["--benchmark-min-rounds=3"], False),
        (["-k", "grid_transient"], True),
        (["-kgrid_transient"], True),
        (["-m", "not (large_mesh or multiproc)"], True),
        (["--deselect", "benchmarks/bench_solver_scaling.py::a"], True),
        (["--deselect=benchmarks/bench_solver_scaling.py::a"], True),
    ],
)
def test_selects_rows(argv, selected):
    assert rb.selects_rows(argv) is selected


def test_merge_keeps_unselected_rows_byte_for_byte(tmp_path):
    a, b, c = row("a[16]", 1e-3), row("b[16]", 2e-3), row("c[16]", 3e-3)
    baseline = tmp_path / "BENCH.json"
    before = json.dumps(report(a, b, c), indent=4)
    baseline.write_text(before)
    fresh = tmp_path / "fresh.json"
    b_new, d = row("b[16]", 2.5e-3), row("d[16]", 4e-3)
    fresh.write_text(json.dumps(report(d, b_new, node="other"), indent=4))

    rb.merge_into_baseline(fresh, baseline)
    after = baseline.read_text()
    merged = json.loads(after)
    # The fresh row replaces its namesake in place; a new one is
    # appended; the header stays the baseline's.
    assert merged == report(a, b_new, c, d)
    for kept in (a, c):
        assert row_text(kept) in before and row_text(kept) in after
    assert row_text(b) not in after


def test_merge_into_a_missing_baseline_records_the_rows(tmp_path):
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(report(row("a[16]", 1e-3)), indent=4))
    baseline = tmp_path / "BENCH.json"
    rb.merge_into_baseline(fresh, baseline)
    assert baseline.read_text() == fresh.read_text()


def test_recorded_baseline_round_trips():
    """The writer lays a report out as pytest-benchmark does: merging
    a recorded row back into the recorded baseline changes no byte."""
    recorded = (ROOT / "BENCH_solver.json").read_text()
    baseline = json.loads(recorded)
    merged = rb.merge_rows(baseline, report(baseline["benchmarks"][3]))
    assert json.dumps(merged, indent=4) == recorded


def _fake_run(fresh: dict, calls: list):
    def run(output: Path, argv: list[str]) -> int:
        calls.append(argv)
        output.write_text(json.dumps(fresh, indent=4))
        return 0

    return run


@pytest.fixture
def paths(tmp_path, monkeypatch):
    baseline = tmp_path / "BENCH.json"
    scratch = tmp_path / "BENCH.check.json"
    monkeypatch.setattr(rb, "OUTPUT", baseline)
    monkeypatch.setattr(rb, "CHECK_OUTPUT", scratch)
    baseline.write_text(
        json.dumps(report(row("a[16]", 1e-3), row("b[16]", 2e-3)), indent=4)
    )
    return baseline, scratch


def test_selected_write_merges(paths, monkeypatch):
    baseline, scratch = paths
    calls: list = []
    fresh = report(row("b[16]", 5e-3))
    monkeypatch.setattr(rb, "run_pytest_benchmark", _fake_run(fresh, calls))
    assert rb.main(["-k", "b"]) == 0
    assert calls == [["-k", "b"]]
    assert json.loads(baseline.read_text()) == report(
        row("a[16]", 1e-3), row("b[16]", 5e-3)
    )
    assert not scratch.exists()


def test_full_write_replaces_the_baseline(paths, monkeypatch):
    baseline, _ = paths
    fresh = report(row("b[16]", 5e-3))
    monkeypatch.setattr(rb, "run_pytest_benchmark", _fake_run(fresh, []))
    assert rb.main([]) == 0
    assert json.loads(baseline.read_text()) == fresh


@pytest.mark.parametrize(
    "argv, status, stream, verdict",
    [
        # Unselected rows are skipped; the gate is the mean at 2x.
        (["--check", "-k", "b"], 0, "out", "skipped: a[16]"),
        (["--check", "--skip-large"], 0, "out", "skipped: a[16]"),
        # Without a selection a recorded row the run lacks is missing.
        (["--check"], 1, "err", "missing from fresh run: a[16]"),
    ],
)
def test_check_skips_unselected_rows(
    paths, monkeypatch, capsys, argv, status, stream, verdict
):
    baseline, scratch = paths
    before = baseline.read_text()
    fresh = report(row("b[16]", 3.9e-3))
    monkeypatch.setattr(rb, "run_pytest_benchmark", _fake_run(fresh, []))
    assert rb.main(argv) == status
    assert verdict in getattr(capsys.readouterr(), stream)
    assert baseline.read_text() == before
    assert not scratch.exists()


def test_check_gate_is_the_mean_at_twice_the_baseline(paths, monkeypatch):
    slow = row("b[16]", 4.1e-3)
    slow["stats"]["min"] = 1e-3  # a fast best round does not excuse it
    fresh = report(slow)
    monkeypatch.setattr(rb, "run_pytest_benchmark", _fake_run(fresh, []))
    assert rb.main(["--check", "-k", "b"]) == 1
