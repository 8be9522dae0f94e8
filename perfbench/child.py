"""One workload run in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with BLAS/OMP threads pinned to 1.  Measures its
own set-up (``import repro`` plus input generation), then runs the
points in a closed loop — the next point starts only after the previous
one returned — and stops at the first round boundary after
``--seconds``.  The host-speed reference kernel (``hostspeed.py``) runs
right before every point and after set-up; the JSON line carries both
the raw times and the kernel times.  Oracle spot-checks run after the
timed loop and after peak memory is read.

With ``--trace 1`` the run alternates untraced and traced blocks of
:data:`BLOCK_ROUNDS` rounds, starting untraced.  The per-layer metrics
come from the traced blocks; the tracing overhead compares the mean
scaled point latency of traced blocks with that of the untraced blocks
after the cold first one.  Alternating within one process keeps both sides
under the same host load, which on a shared machine drifts by tens of
percent between processes.

    python3 perfbench/child.py --workload dc_signoff --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Rounds per traced or untraced block: two, because ``dc_signoff``
#: alternates its visiting order (and so its cache hits) between rounds.
BLOCK_ROUNDS = 2

#: Host-speed kernel runs, after set-up, whose median scales ``setup_s``.
SETUP_REFERENCES = 3


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="measure set-up and exit",
    )
    return parser.parse_args(argv)


def traced_round(round_index: int) -> bool:
    return (round_index // BLOCK_ROUNDS) % 2 == 1


def run_points(rounds, run, deadline_s: float, before_round=None,
               round_multiple: int = 1):
    """Closed loop over ``rounds``; returns
    (latencies_s, references_s, failures, outputs).

    ``run(index, point)`` evaluates one point; ``before_round(r)`` runs
    before round ``r``.  The host-speed kernel is timed right before
    each point, outside the point's latency.  A point that raises is
    recorded as failed and the loop goes on.  The loop stops at the
    first boundary of a multiple of ``round_multiple`` rounds after
    ``deadline_s``; rounds are cycled if a fast machine exhausts them.
    """
    import hostspeed

    latencies: list[float] = []
    references: list[float] = []
    failures: dict[int, str] = {}
    outputs: dict[int, object] = {}
    index = 0
    round_index = 0
    start = time.perf_counter()
    while True:
        if before_round is not None:
            before_round(round_index)
        for point in rounds[round_index % len(rounds)]:
            references.append(hostspeed.reference_s())
            t0 = time.perf_counter()
            try:
                outputs[index] = run(index, point)
            except Exception:  # noqa: BLE001 - a failed point is data
                failures[index] = traceback.format_exc(limit=3)
            latencies.append(time.perf_counter() - t0)
            index += 1
        round_index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= deadline_s and round_index % round_multiple == 0:
            return latencies, references, failures, outputs


def _traced(rounds, run, seconds: float):
    """The loop in alternating blocks; returns the loop results plus
    the per-layer metrics and the self-time split of traced blocks."""
    import hostspeed
    import tracing

    with tracing.session() as tracer:

        def before_round(round_index):
            if traced_round(round_index) != tracer.active:
                if tracer.active:
                    tracer.disable()
                else:
                    tracer.enable()

        # End after a traced block, so there is at least one of each.
        loop = run_points(
            rounds, run, seconds, before_round, 2 * BLOCK_ROUNDS
        )
    latencies, references = loop[:2]
    per_round = len(rounds[0])
    traced, plain, cold = [], [], []
    traced_wall = 0.0
    for index, latency in enumerate(latencies):
        round_index = index // per_round
        scaled = hostspeed.scale(latency, references[index])
        if traced_round(round_index):
            traced.append(scaled)
            traced_wall += latency
        elif round_index < BLOCK_ROUNDS:
            cold.append(scaled)
        else:
            plain.append(scaled)
    baseline = statistics.fmean(plain or cold)
    layers = tracing.layer_metrics(tracer)
    layers["trace.points"] = len(traced)
    layers["trace.overhead_fraction"] = (
        statistics.fmean(traced) / baseline - 1.0 if traced else 0.0
    )
    split = tracer.self_time_split()
    # Design construction and the benchmark's own loop.
    split["untraced"] = traced_wall - sum(split.values())
    return loop, layers, split


def main(argv=None) -> int:
    args = _args(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads  # imports repro

    rounds = workloads.generate(args.workload, args.seed, args.seconds)
    setup_s = time.perf_counter() - t0
    import hostspeed  # after the timed set-up: it imports scipy.sparse

    hostspeed.reference_s()  # first call pays for lazy imports
    setup_reference_s = statistics.median(
        hostspeed.reference_s() for _ in range(SETUP_REFERENCES)
    )
    if args.setup_only:
        print(
            json.dumps(
                {"setup_s": setup_s, "setup_reference_s": setup_reference_s}
            )
        )
        return 0
    if not workloads.cache_is_empty():
        raise SystemExit("factorization cache is not empty before the run")

    first_round = rounds[0]
    sample = set(workloads.oracle_indices(args.workload, args.seed, first_round))

    def run(index, point):
        out = workloads.run_point(point)
        if workloads.non_finite(out):
            raise FloatingPointError("point returned non-finite values")
        if index in sample:
            return out
        # Other points keep only the placement quality.
        if "violating_after" in out:
            return {"violating_after": out["violating_after"]}
        return None

    layers, split = {}, {}
    if args.trace:
        loop, layers, split = _traced(rounds, run, args.seconds)
    else:
        loop = run_points(rounds, run, args.seconds)
    latencies, references, failures, outputs = loop
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = workloads.process_cache().stats
    cache = [stats.hits, stats.misses, stats.evictions]

    violating = [
        out["violating_after"]
        for out in outputs.values()
        if isinstance(out, dict) and "violating_after" in out
    ]
    checked = 0
    for index in sorted(sample):
        if index not in outputs:
            continue
        problem = workloads.check_point(first_round[index], outputs[index])
        checked += 1
        if problem is not None:
            failures[index] = f"oracle: {problem}"
    if args.workload == "paper_study":
        problem = workloads.check_paper_claims()
        if problem is not None:
            failures[-1] = problem

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_reference_s": setup_reference_s,
                "latencies_s": latencies,
                "references_s": references,
                "attempted": len(latencies),
                "failures": {str(k): v for k, v in sorted(failures.items())},
                "oracle_checked": checked,
                "peak_rss_mb": peak_rss_mb,
                "cache": cache,
                "placed_violating": violating,
                "layers": layers,
                "split": split,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
