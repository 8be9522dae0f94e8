#!/usr/bin/env python3
"""Design-study benchmark for ``repro``: four seeded signoff workloads.

Run from the repository root::

    python3 perfbench/run.py --workload dc_signoff --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload all --repeat 10 --seed 1  # spreads

The design-space study of the paper — which of A0–A3 delivers 1 kW at
2 A/mm² with the least loss while meeting IR-drop, impedance and droop
limits — is many design points evaluated one after another, so the
user-facing numbers are how many design points per second complete,
how long one takes, how much memory the process needs, and how long a
fresh process takes to get going.  The four workloads and why each was
chosen are described in ``workloads.py``.

Measurement:

* Every workload runs in its own fresh interpreter (``child.py``) with
  an empty process factorization cache and no untimed warm-up, in a
  closed loop: one caller, ``jobs=1``, the next point sent only after
  the previous one returned.  BLAS/OMP/MKL threads are pinned to 1.
  Pool scaling (``jobs>1``) is not measured: the reference box has two
  vCPUs, where a pool measures contention, not scaling.
* Inputs are generated from ``--seed`` before timing starts; oracle
  spot-checks on a seeded sample of points run after it ends.
* Every time is scaled to a reference host speed (``hostspeed.py``): a
  fixed kernel is timed right before each point and after each set-up,
  and the time is multiplied by ``REFERENCE_S`` over the kernel's time.
  A shared cloud host can change speed by 1.6x in phases of seconds
  to minutes, which a wall-clock median reports instead of the
  program.  The wall-clock figures are printed beside the scaled ones.
* ``--trace 0`` reports the end-to-end metrics (``BENCHMARK.json``
  ``end_to_end``).  ``setup_s`` is the median over five fresh
  interpreters of ``import repro`` plus input generation.
  ``points_per_s`` is points over their summed latency, so the
  reference kernel's own time is not counted.
* ``--trace 1`` runs the same loop, alternating untraced and traced
  blocks of rounds in one process (``child.py``), and reports the
  per-layer metrics of the traced blocks (``tracing.py``) plus
  ``trace.overhead_fraction``: the mean point latency of traced blocks
  over that of untraced ones, minus one.

Which end-to-end metric each per-layer metric should move, and where:

* ``pdn.network.compile_*`` → ``point_p50_ms`` on dc_signoff and
  transient_droop.
* ``parallel.cache.fingerprint_*`` → ``points_per_s`` on dc_signoff.
* ``parallel.cache.hits/misses/evictions/hit_ratio`` →
  ``point_tail_ms`` on dc_signoff, ``points_per_s`` on transient_droop.
* ``pdn.mna.factor_*`` → ``point_tail_ms`` on dc_signoff,
  ``points_per_s`` on transient_droop.
* ``pdn.mna.solve_*`` and ``pdn.mna.woodbury_*`` /
  ``influence_evictions`` → ``points_per_s`` on dc_signoff.
* ``pdn.fast_poisson.*`` → ``point_tail_ms`` on dc_signoff.
* ``pdn.grid.dc_*`` → ``point_p50_ms`` on dc_signoff.
* ``pdn.grid.ac_*`` → ``points_per_s``, ``point_tail_ms`` and
  ``peak_rss_mb`` on ac_placement; ``pdn.grid.impedance_columns_*`` →
  ``points_per_s`` on ac_placement.
* ``pdn.decap_placement.*`` → ``points_per_s`` on ac_placement, and
  ``placed_violating_fraction`` (the mean violating-node fraction
  after placement) shows whether a speed-up bought worse placements.
  ``accept_ratio`` is accepted moves (greedy and gradient) per
  impedance-map evaluation inside the optimizer.
* ``pdn.grid_transient.*`` → ``points_per_s`` on transient_droop.
* ``parallel.executor.*``, ``core.*`` and ``reporting.*`` →
  ``points_per_s`` on paper_study.
* ``trace.overhead_fraction`` → shows first on paper_study.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any point
failed — it raised, returned non-finite values or failed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dc_signoff", "ac_placement", "transient_droop", "paper_study")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_INTERPRETERS = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

# (name, unit, better) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("point_p50_ms", "ms", "lower"),
    ("point_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def tail_percentile(latencies: list[float], beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, above, samples)``: the value at
    sorted position ``n - beyond - 1``, its linear-interpolation
    percentile, and how many samples lie above it.  With ``beyond`` or
    fewer samples there is no such percentile and the maximum is
    returned as the 100th.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - beyond - 1, 0)
    value = ordered[-1] if n <= beyond else ordered[k]
    percentile = 100.0 if n <= beyond else 100.0 * k / (n - 1)
    return value, percentile, sum(x > value for x in ordered), n


def environment(seed: int) -> dict:
    """What a result depends on besides the code: threads, CPUs, versions."""
    import numpy
    import scipy

    return {
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "seed": seed,
    }


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _child(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    """Run ``child.py`` in a fresh interpreter and parse its JSON line."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        *flags,
    ]
    done = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env={**os.environ, **{var: "1" for var in THREAD_VARS}},
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} child exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns metrics plus bookkeeping."""
    if not trace:
        runs = [
            _child(workload, seed, seconds, "--setup-only")
            for _ in range(SETUP_INTERPRETERS - 1)
        ]
        run = _child(workload, seed, seconds)
        runs.append(run)
        setups = [
            hostspeed.scale(r["setup_s"], r["setup_reference_s"]) for r in runs
        ]
        walls = run["latencies_s"]
        latencies = [
            hostspeed.scale(wall, reference)
            for wall, reference in zip(walls, run["references_s"])
        ]
        tail, percentile, above, samples = tail_percentile(latencies)
        metrics = {
            "setup_s": statistics.median(setups),
            "points_per_s": run["attempted"] / sum(latencies),
            "point_p50_ms": 1e3 * statistics.median(latencies),
            "point_tail_ms": 1e3 * tail,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        speed = sum(walls) / sum(latencies)
        notes = {
            "setup_s": (
                f"median of {len(setups)} interpreters; wall clock "
                f"{statistics.median(r['setup_s'] for r in runs):.4g} s"
            ),
            "points_per_s": (
                f"wall clock {run['attempted'] / sum(walls):.4g} 1/s; "
                f"host ran at {1 / speed:.3g}x the reference speed"
            ),
            "point_p50_ms": (
                f"wall clock {1e3 * statistics.median(walls):.4g} ms"
            ),
            "point_tail_ms": (
                f"p{percentile:.1f}, {above} of {samples} points beyond it"
            ),
        }
    else:
        run = _child(workload, seed, seconds, "--trace", "1")
        metrics = dict(run["layers"])
        notes = {"split": run["split"]}
    violating = run["placed_violating"]
    placed = statistics.fmean(violating) if violating else None
    if trace:
        metrics["pdn.decap_placement.placed_violating_fraction"] = placed or 0.0
    failures = run["failures"]
    return {
        "workload": workload,
        "metrics": metrics,
        "notes": notes,
        "attempted": run["attempted"],
        "failed": len(failures),
        "failures": failures,
        "oracle_checked": run["oracle_checked"],
        "cache": run["cache"],
        "placed_violating_fraction": placed,
    }


def _report(result: dict, units: dict[str, str]) -> None:
    """Human-readable lines for one run."""
    print(f"== {result['workload']}")
    for name, value in result["metrics"].items():
        note = result["notes"].get(name)
        suffix = f"  ({note})" if note else ""
        print(f"{name} = {value:.6g} {units.get(name, '')}{suffix}")
    attempted = result["attempted"]
    print(
        f"failed_fraction = {result['failed'] / attempted:.6g} "
        f"({result['failed']} of {attempted} points)"
    )
    if result["placed_violating_fraction"] is not None:
        print(
            "placed_violating_fraction = "
            f"{result['placed_violating_fraction']:.6g} fraction"
        )
    hits, misses, evictions = result["cache"]
    print(
        f"cache: {hits} hits, {misses} misses, {evictions} evictions; "
        f"{result['oracle_checked']} oracle spot-checks"
    )
    split = result["notes"].get("split")
    if split:
        total = sum(split.values()) or 1.0
        shares = sorted(split.items(), key=lambda item: -item[1])
        print(
            "self-time split: "
            + ", ".join(
                f"{name} {100 * t / total:.1f}%" for name, t in shares if t > 0
            )
        )
    for index, message in result["failures"].items():
        print(f"FAILED point {index}: {message}")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units() -> dict[str, str]:
    import tracing

    return {
        name: unit
        for name, unit, _ in END_TO_END + tracing.LAYER_METRICS
    }


def repeat(workloads, seed: int, seconds: float, count: int) -> int:
    """Run each workload ``count`` times on seeds ``seed..seed+count-1``
    and print, per end-to-end metric, median, quartiles and the spread
    (Q3 − Q1 over the median) against the metric's bound."""
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    summary = {}
    failed = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for offset in range(count):
            result = measure(workload, seed + offset, seconds, trace=False)
            failed += result["failed"]
            for name, value in result["metrics"].items():
                values.setdefault(name, []).append(value)
            print(
                f"{workload} seed {seed + offset}: "
                + ", ".join(
                    f"{k}={v:.4g}" for k, v in result["metrics"].items()
                ),
                flush=True,
            )
        summary[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound,
            }
            print(
                f"  {workload} {name}: median {median:.5g} "
                f"[Q1 {q1:.5g}, Q3 {q3:.5g}] spread {spread:.3f} "
                f"= {spread / bound:.2f} x bound {bound}",
                flush=True,
            )
    print(json.dumps({"failed": failed, "spreads": summary}))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Design-study benchmark for repro (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0,
        help="run each workload this many times on consecutive seeds "
        "and print the spread of every end-to-end metric",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no repro sources under {ROOT / 'src'}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(HERE))
    seconds = (
        args.seconds
        if args.seconds is not None
        else benchmark_spec()["run_seconds"]
    )
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    os.environ.update({var: "1" for var in THREAD_VARS})
    print("env " + json.dumps(environment(args.seed)))
    if args.repeat:
        return repeat(chosen, args.seed, seconds, args.repeat)

    units = _units()
    results = []
    for workload in chosen:
        result = measure(workload, args.seed, seconds, bool(args.trace))
        _report(result, units)
        results.append(result)
    failed = sum(r["failed"] for r in results)
    # One workload reports its metrics by name; several prefix the name.
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {
            "value": value,
            "unit": units[name],
        }
        for r in results
        for name, value in r["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
