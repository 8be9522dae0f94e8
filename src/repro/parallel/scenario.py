"""Scenario model for sweep execution.

Every sweep in the repo — Monte-Carlo variation draws, N−k failure
enumerations, decap-density ablations, conversion-location studies —
is "evaluate one analysis callable over a list of parameter deltas
against one shared topology".  This module gives that shape a single
vocabulary so heterogeneous sweeps share one execution path
(:mod:`repro.parallel.executor`):

* a :class:`Scenario` is one unit of work: a stable ``key`` (sample
  index, failure combination, density label, ...) plus the picklable
  parameter delta that distinguishes it from its siblings,
* a :class:`SweepPlan` is the whole sweep: the scenario list, the
  *chunk runner* (a module-level callable evaluating a whole chunk of
  scenarios against the shared payload, so batched solver entry points
  like ``solve_modified_many``/``solve_many`` stay batched), and the
  shared ``payload`` that is shipped to each worker once — not
  per-task — via the pool initializer.

Chunking is deliberately independent of the worker count: the default
chunk size depends only on the scenario list, so ``jobs=1`` and
``jobs=N`` runs evaluate bit-identical batches and the equivalence
suite can assert exact result equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

from ..errors import ConfigError

#: Default scenarios per chunk.  Sized for the batched solver entry
#: points (``solve_modified_many`` stacks one RHS column per scenario)
#: and chosen independently of ``jobs`` so chunk boundaries — and
#: therefore results — do not depend on the worker count.
DEFAULT_CHUNK_SIZE = 32

#: A chunk runner: ``(payload, scenarios) -> results`` with exactly one
#: result per scenario, in order.  Must be a module-level callable so
#: process pools can import it by reference.
ChunkRunner = Callable[[Any, "tuple[Scenario, ...]"], Sequence[Any]]


@dataclass(frozen=True)
class Scenario:
    """One unit of sweep work.

    Attributes:
        key: stable identifier within the sweep (sample index, failure
            combination, density value, location label...).  Results
            are reported against it, and executor errors carry it so a
            failing scenario is nameable across process boundaries.
        params: the picklable parameter delta the chunk runner needs
            to evaluate this scenario against the shared payload.
    """

    key: Hashable
    params: Any = None


@dataclass(frozen=True)
class ChunkResult:
    """One evaluated chunk, as streamed by the executor.

    Attributes:
        index: chunk position in the plan (0-based); chunks may land
            out of order under a process pool.
        scenarios: the scenarios this chunk evaluated.
        results: one result per scenario, aligned with ``scenarios``.
    """

    index: int
    scenarios: tuple[Scenario, ...]
    results: tuple[Any, ...]


@dataclass(frozen=True)
class SweepPlan:
    """A complete, executable description of one sweep.

    Attributes:
        scenarios: the units of work, in result order.
        runner: module-level chunk runner ``(payload, scenarios) ->
            results``.
        payload: the shared, scenario-independent inputs (compiled
            arrays, specs, placement plans...).  Shipped to each
            worker once via the pool initializer — under a ``fork``
            start method it is inherited, not pickled per task.
        chunk_size: scenarios per chunk (``None`` = adaptive default).
        label: short sweep name for progress and error messages.
    """

    scenarios: tuple[Scenario, ...]
    runner: ChunkRunner
    payload: Any = None
    chunk_size: int | None = None
    label: str = "sweep"

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigError(f"{self.label}: plan has no scenarios")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigError(f"{self.label}: chunk size must be >= 1")

    @classmethod
    def from_params(
        cls,
        runner: ChunkRunner,
        params: Iterable[Any],
        payload: Any = None,
        chunk_size: int | None = None,
        label: str = "sweep",
    ) -> "SweepPlan":
        """Build a plan from bare parameter values (keys = positions)."""
        scenarios = tuple(
            Scenario(key=i, params=p) for i, p in enumerate(params)
        )
        return cls(
            scenarios=scenarios,
            runner=runner,
            payload=payload,
            chunk_size=chunk_size,
            label=label,
        )

    def resolved_chunk_size(self) -> int:
        """The chunk size this plan will run with: its own
        ``chunk_size``, else :data:`DEFAULT_CHUNK_SIZE`, capped at the
        scenario count.  It never depends on the worker count — see
        the module docstring.
        """
        return min(self.chunk_size or DEFAULT_CHUNK_SIZE, len(self.scenarios))

    def chunks(self) -> list[tuple[Scenario, ...]]:
        """Shard the scenario list into runner-sized batches."""
        size = self.resolved_chunk_size()
        return [
            self.scenarios[start : start + size]
            for start in range(0, len(self.scenarios), size)
        ]
