"""Per-layer tracing of ``repro`` from outside the package.

The tracer wraps the public entry points of each solver layer (plus
the few private methods that are the only boundary of a layer, such as
the three AC engines behind ``GridACPDN.impedance_map``) and records,
per layer, a call count, its self time and a few layer-specific
counters.  Nothing under ``src/`` changes: wrappers are installed on
the classes and modules by :meth:`Tracer.enable` and removed by
:meth:`Tracer.disable`, so one process can alternate traced and
untraced stretches of the same workload (see ``child.py``).

Span rules:

* A span's self time is its duration minus the time its child spans
  cover, so layer self times add up to the traced wall time.
* A call that re-enters the layer whose span is innermost (the
  coarse-grid recursion of the placement optimizer, ``simulate``
  calling ``simulate_many``, ``CompiledNetlist`` built inside mesh
  assembly) is folded into the open span: it is neither counted nor
  timed separately.
* Generator functions (the sweep executor) get one span per ``next``,
  so time the consumer spends between items is not charged to them.

The benchmark is a single-threaded closed loop (``jobs=1``), so one
span stack per tracer is enough.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

# The per-layer metrics the traced run reports, in BENCHMARK.json order:
# (name, unit, better).  Each names the layer as ``<module>.<metric>``.
LAYER_METRICS = (
    ("pdn.network.compile_calls", "count", "lower"),
    ("pdn.network.compile_s", "s", "lower"),
    ("parallel.cache.fingerprint_calls", "count", "lower"),
    ("parallel.cache.fingerprint_s", "s", "lower"),
    ("parallel.cache.fingerprint_mb", "MB", "lower"),
    ("parallel.cache.hits", "count", "higher"),
    ("parallel.cache.misses", "count", "lower"),
    ("parallel.cache.evictions", "count", "lower"),
    ("parallel.cache.hit_ratio", "fraction", "higher"),
    ("pdn.mna.factor_calls", "count", "lower"),
    ("pdn.mna.factor_s", "s", "lower"),
    ("pdn.mna.solve_calls", "count", "lower"),
    ("pdn.mna.solve_columns", "count", "lower"),
    ("pdn.mna.solve_s", "s", "lower"),
    ("pdn.mna.woodbury_calls", "count", "lower"),
    ("pdn.mna.woodbury_scenarios", "count", "higher"),
    ("pdn.mna.woodbury_s", "s", "lower"),
    ("pdn.mna.influence_evictions", "count", "lower"),
    ("pdn.fast_poisson.setup_calls", "count", "lower"),
    ("pdn.fast_poisson.setup_s", "s", "lower"),
    ("pdn.fast_poisson.solve_s", "s", "lower"),
    ("pdn.grid.dc_structured_share", "fraction", "higher"),
    ("pdn.grid.dc_fallbacks", "count", "lower"),
    ("pdn.grid.dc_self_s", "s", "lower"),
    ("pdn.grid.ac_structured_calls", "count", "higher"),
    ("pdn.grid.ac_structured_s", "s", "lower"),
    ("pdn.grid.ac_spectral_calls", "count", "higher"),
    ("pdn.grid.ac_spectral_s", "s", "lower"),
    ("pdn.grid.ac_direct_calls", "count", "higher"),
    ("pdn.grid.ac_direct_s", "s", "lower"),
    ("pdn.grid.ac_freq_points", "count", "higher"),
    ("pdn.grid.impedance_columns_calls", "count", "lower"),
    ("pdn.grid.impedance_columns_s", "s", "lower"),
    ("pdn.decap_placement.runs", "count", "higher"),
    ("pdn.decap_placement.iterations", "count", "higher"),
    ("pdn.decap_placement.gradient_steps", "count", "higher"),
    ("pdn.decap_placement.accept_ratio", "fraction", "higher"),
    ("pdn.decap_placement.placed_violating_fraction", "fraction", "lower"),
    ("pdn.grid_transient.traces", "count", "higher"),
    ("pdn.grid_transient.trace_steps", "count", "higher"),
    ("pdn.grid_transient.self_s", "s", "lower"),
    ("pdn.grid_transient.step_us", "us", "lower"),
    ("parallel.executor.sweeps", "count", "higher"),
    ("parallel.executor.chunks", "count", "higher"),
    ("parallel.executor.self_s", "s", "lower"),
    ("core.loss_analysis.analyze_calls", "count", "higher"),
    ("core.loss_analysis.analyze_s", "s", "lower"),
    ("core.variation.draws", "count", "higher"),
    ("core.current_sharing.calls", "count", "higher"),
    ("core.current_sharing.s", "s", "lower"),
    ("reporting.experiments.run_all_s", "s", "lower"),
    ("trace.points", "count", "higher"),
    ("trace.overhead_fraction", "fraction", "lower"),
)


class Tracer:
    """Span stack plus per-layer accumulators."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self.calls: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        self.total_ns: defaultdict = defaultdict(int)
        self.counts: Counter = Counter()
        self.active = False
        self._undo: list[tuple[object, str, object]] = []
        self._cache_mark = (0, 0, 0)

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> bool:
        """Open a span; False when the call folds into the open one."""
        if self._stack and self._stack[-1][0] == name:
            return False
        self._stack.append([name, time.perf_counter_ns(), 0])
        self.calls[name] += 1
        return True

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter_ns() - start
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name: str | None, hook):
        """``fn`` under span ``name`` (``None``: count-only) with an
        optional ``hook(tracer, args, kwargs, result)`` run after each
        call that opened its own span."""
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                if hook is not None:
                    hook(tracer, args, kwargs, None)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        opened = tracer._enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            if opened:
                                tracer._exit()
                        yield item
                finally:
                    inner.close()

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = True if name is None else tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if opened and name is not None:
                    tracer._exit()
            if opened and hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str | None, hook=None):
        self._set(cls, attr, self._wrap(cls.__dict__[attr], name, hook))

    def wrap_function(self, module, attr: str, name: str | None, hook=None):
        """Wrap a module-level function everywhere it was imported: the
        package re-exports functions by name, so every ``repro`` module
        holding the same object gets the wrapper."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def enable(self) -> None:
        """Wrap every traced layer entry point."""
        _wrap_layers(self)
        self._cache_mark = _cache_counts()
        self.active = True

    def disable(self) -> None:
        """Restore the package; cache counters keep the traced deltas."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        now = _cache_counts()
        for key, after, before in zip(
            ("hits", "misses", "evictions"), now, self._cache_mark
        ):
            self.counts[f"parallel.cache.{key}"] += after - before
        self.active = False

    # -- results ---------------------------------------------------------------

    def seconds(self, name: str, inclusive: bool = False) -> float:
        table = self.total_ns if inclusive else self.self_ns
        return table[name] / 1e9

    def self_time_split(self) -> dict[str, float]:
        """Self seconds per layer span, for the human-readable split."""
        return {name: ns / 1e9 for name, ns in self.self_ns.items()}


class _CountingLU:
    """SuperLU stand-in that traces ``solve`` as ``pdn.mna.solve``."""

    def __init__(self, lu, tracer: Tracer) -> None:
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        tracer = self._tracer
        if not tracer.active:
            return self._lu.solve(rhs, *args, **kwargs)
        opened = tracer._enter("pdn.mna.solve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            if opened:
                tracer._exit()
                shape = np.shape(rhs)
                tracer.counts["pdn.mna.solve_columns"] += (
                    shape[1] if len(shape) == 2 else 1
                )

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _array_bytes(compiled) -> int:
    return sum(
        array.nbytes
        for array in (
            compiled.res_a,
            compiled.res_b,
            compiled.res_ohm,
            compiled.cs_from,
            compiled.cs_to,
            compiled.cs_amp,
            compiled.vs_plus,
            compiled.vs_minus,
            compiled.vs_volt,
        )
    )


def _cache_counts() -> tuple[int, int, int]:
    from repro.parallel.cache import process_cache

    stats = process_cache().stats
    return stats.hits, stats.misses, stats.evictions


@contextlib.contextmanager
def session():
    """A disabled tracer for one run; toggle it with ``enable``/``disable``.

    LU objects outlive any one traced stretch inside cached
    factorizations, so for the whole session every SuperLU object the
    MNA layer creates is a counting proxy, which passes straight
    through while the tracer is disabled.
    """
    from repro.pdn import mna

    tracer = Tracer()
    real = mna.spla
    proxy = types.ModuleType(real.__name__)
    proxy.__dict__.update(vars(real))
    proxy.splu = lambda *a, **k: _CountingLU(real.splu(*a, **k), tracer)
    mna.spla = proxy
    try:
        yield tracer
    finally:
        if tracer.active:
            tracer.disable()
        mna.spla = real


def _wrap_layers(tracer: Tracer) -> None:
    from repro.core import current_sharing, loss_analysis, variation
    from repro.datasets import hpc_demand
    from repro.parallel import cache, executor
    from repro.pdn import (
        decap_placement,
        fast_poisson,
        grid,
        grid_transient,
        mna,
        network,
        powermap,
    )
    from repro.reporting import experiments

    count = tracer.counts

    # pdn.network: compile = building the array-form netlist.
    compile_span = "pdn.network.compile"
    for cls, attr in (
        (network.Netlist, "compile"),
        (network.CompiledNetlist, "__init__"),
        (network.CompiledNetlist, "mna_coo"),
        (network.CompiledNetlist, "with_sources"),
        (grid.GridPDN, "_build_structure"),
        (grid_transient._TransientStructure, "__init__"),
    ):
        tracer.wrap_method(cls, attr, compile_span)

    # parallel.cache: fingerprint plus the cache bookkeeping itself.
    def fingerprint(tr, args, kwargs, result):
        extra = args[1] if len(args) > 1 else kwargs.get("extra")
        count["parallel.cache.fingerprint_bytes"] += _array_bytes(args[0]) + (
            len(extra) if extra else 0
        )

    tracer.wrap_function(
        cache, "compiled_fingerprint", "parallel.cache.fingerprint", fingerprint
    )
    tracer.wrap_method(cache.FactorizationCache, "get", "parallel.cache.get")

    # pdn.mna: factorization, LU back-substitution, Woodbury.
    tracer.wrap_method(mna.FactorizedPDN, "__init__", "pdn.mna.factor")
    tracer.wrap_method(
        mna.FactorizedPDN, "_refactorize_modified", "pdn.mna.factor"
    )

    def woodbury(method):
        def hook(tr, args, kwargs, result):
            count["pdn.mna.woodbury_scenarios"] += (
                len(result) if method == "solve_modified_many" else 1
            )

        return hook

    for method in ("solve_modified", "solve_modified_many"):
        original = mna.FactorizedPDN.__dict__[method]

        def evictions(self, *args, _original=original, **kwargs):
            before = self.influence_evictions
            try:
                return _original(self, *args, **kwargs)
            finally:
                count["pdn.mna.influence_evictions"] += (
                    self.influence_evictions - before
                )

        tracer._set(
            mna.FactorizedPDN,
            method,
            tracer._wrap(evictions, "pdn.mna.woodbury", woodbury(method)),
        )

    # pdn.fast_poisson: structured DC setup and solves.
    for cls in (fast_poisson.StructuredGridPDN, fast_poisson.FastPoissonOperator):
        tracer.wrap_method(cls, "__init__", "pdn.fast_poisson.setup")
    for cls, attr in (
        (fast_poisson.StructuredGridPDN, "solve_reduced"),
        (fast_poisson.FastPoissonOperator, "solve"),
        (fast_poisson.FastPoissonOperator, "solve_rows"),
    ):
        tracer.wrap_method(cls, attr, "pdn.fast_poisson.solve")

    # pdn.grid DC: engine selection, fallback, package and verify.
    def dc_engine(tr, args, kwargs, result):
        if args[0]._resolve_engine() == "structured":
            count["pdn.grid.dc_structured"] += 1

    for attr in ("solve", "solve_many", "solve_disabled", "solve_disabled_many"):
        tracer.wrap_method(grid.GridPDN, attr, "pdn.grid.dc", dc_engine)
    structured_call = grid.GridPDN.__dict__["_structured_call"]

    def counted_structured_call(self, structure, run, fallback):
        def counted_fallback():
            count["pdn.grid.dc_fallbacks"] += 1
            return fallback()

        return structured_call(self, structure, run, counted_fallback)

    tracer._set(grid.GridPDN, "_structured_call", counted_structured_call)

    # pdn.grid AC: the three impedance-map engines and the adjoint probe.
    def freq_points(tr, args, kwargs, result):
        count["pdn.grid.ac_freq_points"] += result.frequencies_hz.size
        if tr.inside("pdn.decap_placement"):
            count["pdn.decap_placement.evaluations"] += 1

    tracer.wrap_method(
        grid.GridACPDN, "impedance_map", "pdn.grid.impedance_map", freq_points
    )
    for engine in ("structured", "spectral", "direct"):
        tracer.wrap_method(
            grid.GridACPDN, f"_impedance_{engine}", f"pdn.grid.ac_{engine}"
        )
    tracer.wrap_method(
        grid.GridACPDN, "impedance_columns", "pdn.grid.impedance_columns"
    )

    # pdn.decap_placement.
    def placement(tr, args, kwargs, result):
        count["pdn.decap_placement.iterations"] += result.iterations
        count["pdn.decap_placement.gradient_steps"] += (
            result.gradient_steps_taken
        )

    tracer.wrap_function(
        decap_placement,
        "optimize_decap_placement",
        "pdn.decap_placement",
        placement,
    )

    # pdn.grid_transient.
    def transient(tr, args, kwargs, result):
        count["pdn.grid_transient.traces"] += len(result)
        count["pdn.grid_transient.trace_steps"] += sum(
            r.time_s.size - 1 for r in result
        )

    for attr in ("simulate", "simulate_step"):
        tracer.wrap_method(
            grid_transient.GridTransientPDN, attr, "pdn.grid_transient"
        )
    tracer.wrap_method(
        grid_transient.GridTransientPDN,
        "simulate_many",
        "pdn.grid_transient",
        transient,
    )

    # The waveform adapters feeding the transient engine (split only).
    for module, attr in (
        (hpc_demand, "load_step_trace"),
        (hpc_demand, "node_current_waveform"),
        (powermap, "hotspot_trajectory"),
    ):
        tracer.wrap_function(module, attr, "datasets.waveforms")

    # parallel.executor: sweeps, chunks, plumbing self time.
    def sweep(tr, args, kwargs, result):
        count["parallel.executor.sweeps"] += 1

    tracer.wrap_function(executor, "run_sweep", "parallel.executor", sweep)

    def chunk(tr, args, kwargs, result):
        count["parallel.executor.chunks"] += 1

    tracer.wrap_function(executor, "_evaluate_serial", None, chunk)

    # core and reporting.
    tracer.wrap_method(
        loss_analysis.LossAnalyzer, "analyze", "core.loss_analysis.analyze"
    )

    def draws(tr, args, kwargs, result):
        count["core.variation.draws"] += len(args[1])

    tracer.wrap_function(variation, "_variation_chunk", None, draws)
    tracer.wrap_function(
        current_sharing, "analyze_current_sharing", "core.current_sharing"
    )
    tracer.wrap_function(experiments, "run_all", "reporting.experiments.run_all")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except ``trace.points`` and
    ``trace.overhead_fraction``, which the traced loop adds, and the
    placement quality the workload itself reports."""
    calls, count = tracer.calls, tracer.counts
    s = tracer.seconds
    hits = count["parallel.cache.hits"]
    lookups = hits + count["parallel.cache.misses"]
    dc_calls = calls["pdn.grid.dc"]
    evaluations = count["pdn.decap_placement.evaluations"]
    accepted = (
        count["pdn.decap_placement.iterations"]
        + count["pdn.decap_placement.gradient_steps"]
    )
    steps = count["pdn.grid_transient.trace_steps"]
    return {
        "pdn.network.compile_calls": calls["pdn.network.compile"],
        "pdn.network.compile_s": s("pdn.network.compile"),
        "parallel.cache.fingerprint_calls": calls["parallel.cache.fingerprint"],
        "parallel.cache.fingerprint_s": s("parallel.cache.fingerprint"),
        "parallel.cache.fingerprint_mb": (
            count["parallel.cache.fingerprint_bytes"] / 1e6
        ),
        "parallel.cache.hits": hits,
        "parallel.cache.misses": count["parallel.cache.misses"],
        "parallel.cache.evictions": count["parallel.cache.evictions"],
        "parallel.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "pdn.mna.factor_calls": calls["pdn.mna.factor"],
        "pdn.mna.factor_s": s("pdn.mna.factor"),
        "pdn.mna.solve_calls": calls["pdn.mna.solve"],
        "pdn.mna.solve_columns": count["pdn.mna.solve_columns"],
        "pdn.mna.solve_s": s("pdn.mna.solve"),
        "pdn.mna.woodbury_calls": calls["pdn.mna.woodbury"],
        "pdn.mna.woodbury_scenarios": count["pdn.mna.woodbury_scenarios"],
        "pdn.mna.woodbury_s": s("pdn.mna.woodbury"),
        "pdn.mna.influence_evictions": count["pdn.mna.influence_evictions"],
        "pdn.fast_poisson.setup_calls": calls["pdn.fast_poisson.setup"],
        "pdn.fast_poisson.setup_s": s("pdn.fast_poisson.setup"),
        "pdn.fast_poisson.solve_s": s("pdn.fast_poisson.solve"),
        "pdn.grid.dc_structured_share": (
            count["pdn.grid.dc_structured"] / dc_calls if dc_calls else 0.0
        ),
        "pdn.grid.dc_fallbacks": count["pdn.grid.dc_fallbacks"],
        "pdn.grid.dc_self_s": s("pdn.grid.dc"),
        "pdn.grid.ac_structured_calls": calls["pdn.grid.ac_structured"],
        "pdn.grid.ac_structured_s": s("pdn.grid.ac_structured"),
        "pdn.grid.ac_spectral_calls": calls["pdn.grid.ac_spectral"],
        "pdn.grid.ac_spectral_s": s("pdn.grid.ac_spectral"),
        "pdn.grid.ac_direct_calls": calls["pdn.grid.ac_direct"],
        "pdn.grid.ac_direct_s": s("pdn.grid.ac_direct"),
        "pdn.grid.ac_freq_points": count["pdn.grid.ac_freq_points"],
        "pdn.grid.impedance_columns_calls": calls["pdn.grid.impedance_columns"],
        "pdn.grid.impedance_columns_s": s("pdn.grid.impedance_columns"),
        "pdn.decap_placement.runs": calls["pdn.decap_placement"],
        "pdn.decap_placement.iterations": count["pdn.decap_placement.iterations"],
        "pdn.decap_placement.gradient_steps": (
            count["pdn.decap_placement.gradient_steps"]
        ),
        "pdn.decap_placement.accept_ratio": (
            accepted / evaluations if evaluations else 0.0
        ),
        "pdn.grid_transient.traces": count["pdn.grid_transient.traces"],
        "pdn.grid_transient.trace_steps": steps,
        "pdn.grid_transient.self_s": s("pdn.grid_transient"),
        "pdn.grid_transient.step_us": (
            1e6 * s("pdn.grid_transient", inclusive=True) / steps
            if steps
            else 0.0
        ),
        "parallel.executor.sweeps": count["parallel.executor.sweeps"],
        "parallel.executor.chunks": count["parallel.executor.chunks"],
        "parallel.executor.self_s": s("parallel.executor"),
        "core.loss_analysis.analyze_calls": calls["core.loss_analysis.analyze"],
        "core.loss_analysis.analyze_s": s("core.loss_analysis.analyze"),
        "core.variation.draws": count["core.variation.draws"],
        "core.current_sharing.calls": calls["core.current_sharing"],
        "core.current_sharing.s": s("core.current_sharing"),
        "reporting.experiments.run_all_s": s(
            "reporting.experiments.run_all", inclusive=True
        ),
    }
