#!/usr/bin/env python
"""Run the solver benchmarks and record/check BENCH_solver.json.

Executes ``bench_solver_scaling.py`` under pytest-benchmark with
``--benchmark-json`` and writes the machine-readable results to
``BENCH_solver.json`` at the repository root, so the performance
trajectory of the numerical core is tracked across PRs.  Prints a
compact mean-time summary when done.

Usage::

    python benchmarks/run_benchmarks.py [extra pytest args...]
    python benchmarks/run_benchmarks.py --check [extra pytest args...]
    python benchmarks/run_benchmarks.py --check --skip-large

``--check`` is the regression gate: instead of overwriting the
recorded baseline it benchmarks into a scratch file, compares each
benchmark's mean against the baseline by name, and exits non-zero if
any is more than ``REGRESSION_FACTOR`` times slower.  Beside each mean
ratio it prints the ratio of the fastest rounds, which a noisy
stretch of the host moves less; the gate stays the mean.  It is the
opt-in performance verify step to run alongside the tier-1 test
suite.  ``--skip-large`` deselects the ``large_mesh``-marked rows
(the hundreds-of-ms 192/256-mesh solves) and the ``multiproc``-marked
rows (parallel-sweep runs at jobs>1, which spawn worker processes).

A row selection (``-k``, ``-m`` or ``--deselect``; ``--skip-large``
is one) re-records or checks only the rows it selects.  A write
merges the fresh rows into the baseline by name and keeps every other
row and the report's header byte for byte; ``--check`` reports the
unselected rows as skipped.  Without a selection a write records the
whole baseline afresh, and ``--check`` fails on a recorded row the
run lacks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_solver.json"
CHECK_OUTPUT = REPO_ROOT / "BENCH_solver.check.json"
BENCH_FILE = REPO_ROOT / "benchmarks" / "bench_solver_scaling.py"

#: A benchmark failing ``--check`` must be at least this much slower
#: than its recorded baseline mean (2x leaves ample headroom for
#: machine noise while catching real algorithmic regressions).
REGRESSION_FACTOR = 2.0


def selects_rows(argv: list[str]) -> bool:
    """Whether pytest arguments ``argv`` select a subset of the rows:
    a ``-k`` or ``-m`` expression (``-k expr`` or ``-kexpr``) or a
    ``--deselect``."""
    return any(arg.startswith(("-k", "-m", "--deselect")) for arg in argv)


def merge_rows(baseline: dict, fresh: dict) -> dict:
    """``baseline`` with each row of ``fresh`` in place of its
    namesake (new rows appended): the other rows and the header stay
    as recorded."""
    rows = {entry["name"]: entry for entry in fresh["benchmarks"]}
    merged = [rows.pop(row["name"], row) for row in baseline["benchmarks"]]
    return {**baseline, "benchmarks": merged + list(rows.values())}


def merge_into_baseline(fresh: Path, baseline: Path) -> None:
    """Merge the rows of the report ``fresh`` into ``baseline`` (or
    record them as the baseline when there is none), written as
    pytest-benchmark writes its reports, so unchanged rows keep their
    bytes."""
    report = json.loads(fresh.read_text())
    if baseline.exists():
        report = merge_rows(json.loads(baseline.read_text()), report)
    baseline.write_text(json.dumps(report, indent=4))


def run_pytest_benchmark(output: Path, argv: list[str]) -> int:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_FILE),
        "-q",
        f"--benchmark-json={output}",
        *argv,
    ]
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


def load_stats(path: Path) -> dict[str, tuple[float, float]]:
    """Each benchmark's ``(mean, min)`` round time in seconds."""
    report = json.loads(path.read_text())
    return {
        entry["name"]: (entry["stats"]["mean"], entry["stats"]["min"])
        for entry in report.get("benchmarks", [])
    }


def print_summary(path: Path) -> None:
    """The mean of each row of the report ``path``, recorded in
    :data:`OUTPUT`."""
    print(f"\nwrote {OUTPUT}")
    print(f"{'benchmark':<52} {'mean':>12}")
    for name, (mean_s, _) in load_stats(path).items():
        print(f"{name:<52} {mean_s * 1e3:>9.3f} ms")


def check_against_baseline(
    fresh: Path, baseline: Path, allow_missing: bool = False
) -> int:
    """Compare a fresh run to the recorded baseline; 1 on regression."""
    if not baseline.exists():
        print(
            f"no baseline at {baseline}; run without --check to record one",
            file=sys.stderr,
        )
        return 1
    base_stats = load_stats(baseline)
    fresh_stats = load_stats(fresh)
    regressions: list[str] = []
    print(
        f"{'benchmark':<52} {'baseline':>12} {'fresh':>12} {'ratio':>8} "
        f"{'min ratio':>10}"
    )
    for name, (mean_s, min_s) in fresh_stats.items():
        if name not in base_stats:
            print(f"{name:<52} {'(new)':>12} {mean_s * 1e3:>9.3f} ms")
            continue
        base_s, base_min_s = base_stats[name]
        ratio = mean_s / base_s
        flag = "  REGRESSION" if ratio > REGRESSION_FACTOR else ""
        print(
            f"{name:<52} {base_s * 1e3:>9.3f} ms {mean_s * 1e3:>9.3f} ms "
            f"{ratio:>7.2f}x {min_s / base_min_s:>9.2f}x{flag}"
        )
        if ratio > REGRESSION_FACTOR:
            regressions.append(name)
    missing = sorted(set(base_stats) - set(fresh_stats))
    if missing:
        stream = sys.stdout if allow_missing else sys.stderr
        label = "skipped" if allow_missing else "missing from fresh run"
        print(f"{label}: {', '.join(missing)}", file=stream)
        if not allow_missing:
            return 1
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed beyond "
            f"{REGRESSION_FACTOR:.1f}x: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(f"\nall benchmarks within {REGRESSION_FACTOR:.1f}x of baseline")
    return 0


def main(argv: list[str]) -> int:
    check = "--check" in argv
    skip_large = "--skip-large" in argv
    argv = [a for a in argv if a not in ("--check", "--skip-large")]
    if skip_large:
        argv = ["-m", "not (large_mesh or multiproc)", *argv]
    selected = selects_rows(argv)
    output = CHECK_OUTPUT if check or selected else OUTPUT
    status = run_pytest_benchmark(output, argv)
    if status != 0:
        return status
    try:
        if check:
            return check_against_baseline(
                output, OUTPUT, allow_missing=selected
            )
        if selected:
            merge_into_baseline(output, OUTPUT)
        print_summary(output)
    finally:
        CHECK_OUTPUT.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
