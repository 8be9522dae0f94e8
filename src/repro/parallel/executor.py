"""Chunked process-pool sweep executor with streamed results.

:func:`run_sweep` turns a :class:`~repro.parallel.scenario.SweepPlan`
into a stream of :class:`~repro.parallel.scenario.ChunkResult`\\ s:

* ``jobs <= 1`` (the default everywhere) runs chunks serially
  in-process — no pool, no pickling, and therefore exactly the
  behavior tier-1 tests have always pinned;
* ``jobs > 1`` fans chunks across a ``ProcessPoolExecutor``.  The
  shared payload is installed once per worker via the pool initializer
  (under the ``fork`` start method it is inherited from the parent
  rather than pickled), so per-task traffic is just the scenario list
  and the returned results.

Chunk boundaries are fixed by the plan (never by ``jobs``), every
chunk is evaluated by the same module-level runner, and results are
keyed by chunk index — which is why ``jobs=N`` output is bit-identical
to ``jobs=1``: the per-chunk numerics do not know or care which
process executed them.

Streaming gives progress and cancellation for free: consume the
generator lazily, stop iterating to cancel (pending chunks are
revoked via ``shutdown(cancel_futures=True)``), or pass ``progress``
for a callback per landed chunk.  Worker exceptions surface as
:class:`SweepExecutionError` carrying the scenario keys of the failed
chunk and the remote traceback, so a bad scenario is nameable from the
parent process.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterator

from ..errors import ConfigError, ReproError
from .scenario import ChunkResult, Scenario, SweepPlan

ProgressCallback = Callable[[ChunkResult, int, int], None]


class SweepExecutionError(ReproError):
    """A chunk failed inside a sweep; names the scenarios it covered.

    Attributes:
        label: the sweep's label.
        chunk_index: which chunk failed.
        scenario_keys: keys of the scenarios in the failed chunk.
        worker_traceback: formatted traceback from the worker process
            (or the local traceback on the serial path).
    """

    def __init__(
        self,
        label: str,
        chunk_index: int,
        scenario_keys: tuple,
        cause: BaseException,
        worker_traceback: str | None = None,
    ) -> None:
        keys = ", ".join(repr(k) for k in scenario_keys[:4])
        if len(scenario_keys) > 4:
            keys += f", ... ({len(scenario_keys)} scenarios)"
        message = (
            f"{label}: chunk {chunk_index} failed on scenarios [{keys}]: "
            f"{cause!r}"
        )
        if worker_traceback:
            message += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(message)
        self.label = label
        self.chunk_index = chunk_index
        self.scenario_keys = scenario_keys
        self.worker_traceback = worker_traceback


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a ``--jobs`` value to a worker count.

    Accepts an int, a numeric string, ``"auto"`` (CPUs available to
    this process, via ``os.process_cpu_count`` where the interpreter
    has it, falling back to ``os.cpu_count``), or ``None`` (serial).
    """
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            counter = getattr(os, "process_cpu_count", None) or os.cpu_count
            return max(1, counter() or 1)
        try:
            jobs = int(text)
        except ValueError as exc:
            raise ConfigError(
                f"jobs must be an integer or 'auto', got {jobs!r}"
            ) from exc
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


# -- worker side -----------------------------------------------------------------

# Installed once per worker by the pool initializer; chunk tasks then
# reference the runner/payload through module globals instead of
# pickling them per task.
_WORKER_RUNNER: Any = None
_WORKER_PAYLOAD: Any = None


def _init_worker(runner: Any, payload: Any) -> None:
    global _WORKER_RUNNER, _WORKER_PAYLOAD
    _WORKER_RUNNER = runner
    _WORKER_PAYLOAD = payload


def _run_chunk(index: int, scenarios: tuple[Scenario, ...]) -> tuple:
    """Evaluate one chunk in a worker; errors return as data.

    Exceptions are flattened to ``(False, repr, traceback)`` rather
    than raised: custom exception types may not unpickle cleanly in
    the parent, and we want the remote traceback text regardless.
    """
    try:
        results = tuple(_WORKER_RUNNER(_WORKER_PAYLOAD, scenarios))
        return index, True, results, None
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        return index, False, repr(exc), traceback.format_exc()


def _evaluate_serial(
    plan: SweepPlan, index: int, scenarios: tuple[Scenario, ...]
) -> ChunkResult:
    try:
        results = tuple(plan.runner(plan.payload, scenarios))
    except Exception as exc:
        raise SweepExecutionError(
            plan.label,
            index,
            tuple(s.key for s in scenarios),
            exc,
            traceback.format_exc(),
        ) from exc
    _check_result_count(plan, index, scenarios, results)
    return ChunkResult(index=index, scenarios=scenarios, results=results)


def _check_result_count(
    plan: SweepPlan,
    index: int,
    scenarios: tuple[Scenario, ...],
    results: tuple,
) -> None:
    if len(results) != len(scenarios):
        raise SweepExecutionError(
            plan.label,
            index,
            tuple(s.key for s in scenarios),
            ConfigError(
                f"chunk runner returned {len(results)} results for "
                f"{len(scenarios)} scenarios"
            ),
        )


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` so the initializer payload is inherited, not
    pickled; fall back to the platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


# -- parent side -----------------------------------------------------------------


def run_sweep(
    plan: SweepPlan,
    jobs: int | str | None = 1,
    progress: ProgressCallback | None = None,
) -> Iterator[ChunkResult]:
    """Execute a sweep plan, streaming chunk results as they land.

    Yields :class:`ChunkResult` objects — in plan order on the serial
    path, in completion order under a pool (reassemble with
    :func:`run_sweep_collect` when order matters).  Closing the
    generator early cancels pending chunks.

    Args:
        plan: the sweep to run.
        jobs: worker processes (int, ``"auto"``, or ``None``/1 for the
            in-process serial path).  Chunk boundaries come from the
            plan's ``chunk_size`` and never depend on ``jobs``.
        progress: optional ``callback(chunk, done, total)`` invoked
            after each chunk lands (before it is yielded).
    """
    workers = resolve_jobs(jobs)
    chunks = plan.chunks()
    total = len(chunks)
    effective = min(workers, total)
    if effective <= 1:
        done = 0
        for index, scenarios in enumerate(chunks):
            chunk = _evaluate_serial(plan, index, scenarios)
            done += 1
            if progress is not None:
                progress(chunk, done, total)
            yield chunk
        return

    executor = ProcessPoolExecutor(
        max_workers=effective,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(plan.runner, plan.payload),
    )
    try:
        futures = {
            executor.submit(_run_chunk, index, scenarios): index
            for index, scenarios in enumerate(chunks)
        }
        pending = set(futures)
        done = 0
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                index = futures[future]
                scenarios = chunks[index]
                returned_index, ok, results, remote_tb = future.result()
                if not ok:
                    raise SweepExecutionError(
                        plan.label,
                        returned_index,
                        tuple(s.key for s in scenarios),
                        RuntimeError(results),
                        remote_tb,
                    )
                chunk = ChunkResult(
                    index=returned_index,
                    scenarios=scenarios,
                    results=results,
                )
                _check_result_count(plan, returned_index, scenarios, results)
                done += 1
                if progress is not None:
                    progress(chunk, done, total)
                yield chunk
    finally:
        # Reached on exhaustion, on error, and on early generator close
        # (cancellation): revoke chunks that have not started.
        executor.shutdown(wait=True, cancel_futures=True)


def run_sweep_collect(
    plan: SweepPlan,
    jobs: int | str | None = 1,
    progress: ProgressCallback | None = None,
) -> list:
    """Run a sweep to completion; results flat, in scenario order.

    The convenience wrapper the rewired sweep loops use: chunk results
    are reassembled by chunk index, so the output list aligns with
    ``plan.scenarios`` regardless of worker completion order — this is
    what makes ``jobs=N`` output indistinguishable from ``jobs=1``.
    """
    by_index: dict[int, tuple] = {}
    for chunk in run_sweep(plan, jobs=jobs, progress=progress):
        by_index[chunk.index] = chunk.results
    flat: list = []
    for index in sorted(by_index):
        flat.extend(by_index[index])
    return flat
