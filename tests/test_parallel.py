"""Sweep executor, factorization cache, and pickle-payload tests.

Covers the `repro.parallel` engine end to end:

* content-hash fingerprints and the bounded LRU factorization cache,
* the bounded influence-column cache in `FactorizedPDN`,
* pickle round-trips for the compiled payloads that cross process
  boundaries (`CompiledNetlist`, `CompiledACNetlist`, sweep payloads),
* the chunked executor (serial path, pool path, streaming, progress,
  error context, early cancellation),
* the equivalence contract: `jobs=N` results are **bit-identical** to
  `jobs=1` for the rewired variation / redundancy / decap sweeps.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.config import SystemSpec
from repro.converters.catalog import DSCH
from repro.core.architectures import single_stage_a1
from repro.core.exploration import conversion_location_sweep, decap_density_sweep
from repro.core.redundancy import failure_tolerance, multi_failure_samples
from repro.core.variation import (
    VariationSpec,
    monte_carlo_loss,
    sample_variation_factors,
    spawn_variation_seeds,
)
from repro.errors import ConfigError
from repro.parallel import (
    FactorizationCache,
    Scenario,
    SweepExecutionError,
    SweepPlan,
    compiled_fingerprint,
    process_cache,
    resolve_jobs,
    run_sweep,
    run_sweep_collect,
)
from repro.pdn import mna
from repro.pdn.grid import GridPDN, dc_stamp
from repro.pdn.grid_transient import GridTransientPDN
from repro.pdn.mna import FactorizedPDN
from repro.pdn.powermap import PowerMap


def _small_grid(nx: int = 6, sheet: float = 1e-3) -> GridPDN:
    grid = GridPDN(
        width_m=0.02, height_m=0.02, sheet_ohm_sq=sheet, nx=nx, ny=nx
    )
    grid.set_sink_array(np.full((nx, nx), 100.0 / nx**2))
    for i, (x, y) in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]):
        grid.add_source(f"vr{i}", x, y, 1.0, 1e-3)
    return grid


# -- fingerprint + factorization cache ------------------------------------------


class TestFingerprint:
    def test_identical_topologies_match(self):
        a = _small_grid().compile()
        b = _small_grid().compile()
        assert compiled_fingerprint(a) == compiled_fingerprint(b)

    def test_structure_changes_fingerprint(self):
        a = _small_grid(sheet=1e-3).compile()
        b = _small_grid(sheet=2e-3).compile()
        assert compiled_fingerprint(a) != compiled_fingerprint(b)

    def test_rhs_values_change_fingerprint(self):
        a = _small_grid().compile()
        b = a.with_sources(vs_volt=a.vs_volt + 0.1)
        assert compiled_fingerprint(a) != compiled_fingerprint(b)

    def test_survives_pickle(self):
        compiled = _small_grid().compile()
        clone = pickle.loads(pickle.dumps(compiled))
        assert compiled_fingerprint(clone) == compiled_fingerprint(compiled)

    def test_dtype_distinguishes_identical_bytes(self):
        # An int64 view of float64 data has the *same* byte payload;
        # the fingerprint must still separate them or a factorization
        # built for the wrong numeric interpretation could be reused.
        from types import SimpleNamespace

        compiled = _small_grid().compile()
        fields = (
            "res_a",
            "res_b",
            "res_ohm",
            "cs_from",
            "cs_to",
            "cs_amp",
            "vs_plus",
            "vs_minus",
            "vs_volt",
        )
        stub = SimpleNamespace(
            n_nodes=compiled.n_nodes,
            **{name: getattr(compiled, name) for name in fields},
        )
        assert compiled_fingerprint(stub) == compiled_fingerprint(compiled)
        stub.res_ohm = compiled.res_ohm.view(np.int64)
        assert stub.res_ohm.tobytes() == compiled.res_ohm.tobytes()
        assert compiled_fingerprint(stub) != compiled_fingerprint(compiled)

    def test_full_shape_distinguishes_identical_bytes(self):
        # Same bytes, same shape[0], different trailing dims: a (2,)
        # array vs a (2, 2) array starting with the same two rows.
        from types import SimpleNamespace

        compiled = _small_grid().compile()
        fields = (
            "res_a",
            "res_b",
            "res_ohm",
            "cs_from",
            "cs_to",
            "cs_amp",
            "vs_plus",
            "vs_minus",
            "vs_volt",
        )
        stub = SimpleNamespace(
            n_nodes=compiled.n_nodes,
            **{name: getattr(compiled, name) for name in fields},
        )
        flat = np.arange(4, dtype=float)
        stub.cs_amp = flat
        one = compiled_fingerprint(stub)
        stub.cs_amp = flat.reshape(2, 2)
        assert stub.cs_amp.tobytes() == flat.tobytes()
        assert compiled_fingerprint(stub) != one


class TestFactorizationCache:
    def test_hit_returns_same_instance(self):
        cache = FactorizationCache(maxsize=4)
        compiled = _small_grid().compile()
        first = cache.get(compiled)
        second = cache.get(_small_grid().compile())
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = FactorizationCache(maxsize=2)
        grids = [_small_grid(sheet=s) for s in (1e-3, 2e-3, 3e-3)]
        for grid in grids:
            cache.get(grid.compile())
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest topology was evicted; re-requesting it rebuilds.
        cache.get(grids[0].compile())
        assert cache.stats.misses == 4

    def test_concurrent_miss_returns_single_instance(self, monkeypatch):
        # Two threads racing on the same cold key must converge on one
        # factorization: the loser of the race discards its build and
        # adopts the winner's entry instead of overwriting it.
        import threading

        import repro.parallel.cache as cache_module

        real_factory = cache_module.FactorizedPDN
        barrier = threading.Barrier(2, timeout=10.0)

        class RendezvousFactory:
            def __call__(self, compiled):
                # Both threads reach the expensive build before either
                # inserts, guaranteeing a duplicate-build race.
                barrier.wait()
                return real_factory(compiled)

        monkeypatch.setattr(
            cache_module, "FactorizedPDN", RendezvousFactory()
        )
        cache = FactorizationCache(maxsize=4)
        compiled = _small_grid().compile()
        results = [None, None]

        def worker(slot):
            results[slot] = cache.get(compiled)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert results[0] is not None
        assert results[0] is results[1]
        assert len(cache) == 1
        assert cache.stats.misses == 2
        assert cache.stats.evictions == 0

    def test_solutions_match_direct_factorization(self):
        cache = FactorizationCache()
        grid = _small_grid()
        compiled = grid.compile()
        direct = FactorizedPDN(compiled)
        cached = cache.get(compiled)
        rhs = direct.rhs()
        assert np.array_equal(direct.solve_rhs(rhs), cached.solve_rhs(rhs))

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ConfigError):
            FactorizationCache(maxsize=0)

    def test_rejects_non_count_maxsize_by_name(self):
        # A fraction, a boolean or NaN is not an entry count.
        for bad in (2.5, True, float("nan")):
            with pytest.raises(ConfigError, match="^maxsize "):
                FactorizationCache(maxsize=bad)

    def test_grid_structure_uses_process_cache(self):
        process_cache().clear()
        a = _small_grid()
        b = _small_grid()
        sol_a = a.solve()
        sol_b = b.solve()
        assert process_cache().stats.hits >= 1
        assert np.array_equal(sol_a.voltage_map, sol_b.voltage_map)

    def test_grid_and_transient_dc_init_share_one_nodal_lu(self):
        # Both factor dc_stamp(design): no voltage-source rows, so the
        # LU runs in symmetric mode, and one process-cache entry.
        process_cache().clear()
        grid = _small_grid(nx=10)
        grid.engine = "factorized"
        grid.solve()
        solver = grid._ensure_structure().solver
        # One stamp per topology: the LU factors the stamp solutions
        # are packaged on.
        assert solver.compiled is grid._ensure_structure().stamp
        assert solver.compiled.n_vsources == 0
        assert compiled_fingerprint(solver.compiled) == compiled_fingerprint(
            dc_stamp(grid.design)
        )
        hits = process_cache().stats.hits
        view = GridTransientPDN.from_design(grid.design, engine="factorized")
        assert view._structure(1e-9).dc.solver is solver
        assert process_cache().stats.hits == hits + 1


class TestInfluenceCacheBound:
    def test_eviction_counter_and_bound(self, monkeypatch):
        monkeypatch.setattr(mna, "INFLUENCE_CACHE_COLUMNS", 4)
        grid = _small_grid(nx=8)
        compiled = grid.compile()
        solver = FactorizedPDN(compiled)
        # Sweep resistor removals over more elements than the cap.
        for i in range(12):
            solver.solve_modified(remove_resistors=(i,))
        assert len(solver._influence) <= 4
        assert solver.influence_evictions > 0

    def test_results_unaffected_by_tiny_cache(self, monkeypatch):
        compiled = _small_grid(nx=8).compile()
        # The r_out resistors of sources 0..3 follow the lateral ones.
        rout = len(compiled.res_ohm) - 4
        scenarios = [(rout,), (rout + 1,), (rout, rout + 2), (rout + 3,), (rout,)]
        unbounded = FactorizedPDN(compiled)
        want = [unbounded.solve_modified(remove_resistors=s) for s in scenarios]
        monkeypatch.setattr(mna, "INFLUENCE_CACHE_COLUMNS", 1)
        bounded = FactorizedPDN(compiled)
        for failed, b in zip(scenarios, want):
            a = bounded.solve_modified(remove_resistors=failed)
            assert np.array_equal(
                np.asarray(list(a.node_voltages.values())),
                np.asarray(list(b.node_voltages.values())),
            )
        assert bounded.influence_evictions > 0

    def test_sweep_wider_than_the_cap_matches_an_unbounded_memo(
        self, monkeypatch
    ):
        # A sweep that touches more elements than the memo holds solves
        # its whole union in one call and keeps the columns it solved,
        # so it returns the same bits as a sweep that fits.
        compiled = _small_grid(nx=40).compile()
        rout = len(compiled.res_ohm) - 4
        scenarios = [(rout,), (rout + 1, 5, 9), (rout, rout + 2, 17), (3, 9)]
        bounded = FactorizedPDN(compiled)
        unbounded = FactorizedPDN(compiled)
        want = unbounded.solve_modified_many(scenarios)
        monkeypatch.setattr(mna, "INFLUENCE_CACHE_COLUMNS", 2)
        for a, b in zip(bounded.solve_modified_many(scenarios), want):
            np.testing.assert_array_equal(
                a.node_voltage_array, b.node_voltage_array
            )
        assert len(bounded._influence) == 2
        assert bounded.influence_evictions > 0


# -- pickle round-trips ----------------------------------------------------------


class TestPicklePayloads:
    def test_compiled_netlist_from_grid(self):
        compiled = _small_grid().compile()
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.n_nodes == compiled.n_nodes
        assert np.array_equal(clone.res_ohm, compiled.res_ohm)
        assert clone.nodes == compiled.nodes
        assert clone.res_names == compiled.res_names
        assert clone.vs_names == compiled.vs_names
        # The clone must be solvable on the other side.
        sol = FactorizedPDN(clone).solve()
        ref = FactorizedPDN(compiled).solve()
        assert np.array_equal(
            np.asarray(list(sol.node_voltages.values())),
            np.asarray(list(ref.node_voltages.values())),
        )

    def test_compiled_ac_netlist(self):
        from repro.pdn.ac import ACNetlist

        net = ACNetlist()
        net.add_voltage_source("vin", "in", 1.0)
        net.add_resistor("r1", "in", "mid", 1e-3)
        net.add_inductor("l1", "mid", "out", 1e-9)
        net.add_capacitor("c1", "out", "0", 1e-6)
        compiled = net.compile_ac()
        clone = pickle.loads(pickle.dumps(compiled))
        freqs = np.logspace(4, 8, 9)
        ref = compiled.solve(freqs)
        got = clone.solve(freqs)
        assert ref.nodes == got.nodes
        assert np.array_equal(ref.voltage_matrix, got.voltage_matrix)

    def test_sweep_plan_payloads_pickle(self):
        spec = SystemSpec()
        sink_cells = PowerMap.hotspot_mixture().cell_currents(
            12, 12, spec.pol_current_a
        )
        payload = (spec, sink_cells, 12)
        clone = pickle.loads(pickle.dumps(payload))
        assert np.array_equal(clone[1], sink_cells)


# -- executor --------------------------------------------------------------------


def _square_chunk(payload, scenarios):
    return [scenario.params**2 + payload for scenario in scenarios]


def _failing_chunk(payload, scenarios):
    for scenario in scenarios:
        if scenario.params == 13:
            raise ValueError("unlucky scenario")
    return [scenario.params for scenario in scenarios]


class TestResolveJobs:
    def test_serial_defaults(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs("3") == 3

    def test_auto_is_positive(self):
        assert resolve_jobs("auto") >= 1

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            resolve_jobs("many")
        with pytest.raises(ConfigError):
            resolve_jobs(0)


class TestSweepPlan:
    def test_chunking_is_jobs_independent(self):
        plan = SweepPlan.from_params(_square_chunk, range(100), payload=0)
        chunks = plan.chunks()
        assert sum(len(c) for c in chunks) == 100
        assert all(len(c) == 32 for c in chunks[:-1])

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigError):
            SweepPlan(scenarios=(), runner=_square_chunk)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigError):
            SweepPlan(
                scenarios=(Scenario(0, 0),),
                runner=_square_chunk,
                chunk_size=0,
            )


class TestExecutorSerial:
    def test_results_in_order(self):
        plan = SweepPlan.from_params(
            _square_chunk, range(10), payload=1, chunk_size=3
        )
        results = run_sweep_collect(plan)
        assert results == [i**2 + 1 for i in range(10)]

    def test_streaming_yields_chunks(self):
        plan = SweepPlan.from_params(
            _square_chunk, range(10), payload=0, chunk_size=4
        )
        chunks = list(run_sweep(plan))
        assert [c.index for c in chunks] == [0, 1, 2]
        assert chunks[0].results == (0, 1, 4, 9)

    def test_progress_callback(self):
        plan = SweepPlan.from_params(
            _square_chunk, range(10), payload=0, chunk_size=5
        )
        seen = []
        run_sweep_collect(plan, progress=lambda c, done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_error_carries_scenario_context(self):
        plan = SweepPlan.from_params(
            _failing_chunk, range(20), chunk_size=5, label="unlucky"
        )
        with pytest.raises(SweepExecutionError) as err:
            run_sweep_collect(plan)
        assert "unlucky" in str(err.value)
        assert 13 in err.value.scenario_keys
        assert err.value.chunk_index == 2

    def test_early_stop_skips_remaining_chunks(self):
        evaluated = []

        plan = SweepPlan.from_params(
            _square_chunk, range(100), payload=0, chunk_size=10
        )
        stream = run_sweep(
            plan, progress=lambda c, done, total: evaluated.append(c.index)
        )
        for chunk in stream:
            if chunk.index == 1:
                stream.close()
                break
        assert evaluated == [0, 1]


class TestExecutorPool:
    def test_pool_matches_serial(self):
        plan = SweepPlan.from_params(
            _square_chunk, range(40), payload=7, chunk_size=8
        )
        assert run_sweep_collect(plan, jobs=2) == run_sweep_collect(plan)

    def test_pool_error_carries_worker_traceback(self):
        plan = SweepPlan.from_params(
            _failing_chunk, range(20), chunk_size=5, label="unlucky"
        )
        with pytest.raises(SweepExecutionError) as err:
            run_sweep_collect(plan, jobs=2)
        assert "unlucky scenario" in str(err.value)
        assert err.value.worker_traceback is not None

    def test_auto_jobs_runs(self):
        plan = SweepPlan.from_params(
            _square_chunk, range(8), payload=0, chunk_size=4
        )
        assert run_sweep_collect(plan, jobs="auto") == [
            i**2 for i in range(8)
        ]


# -- RNG sharding ----------------------------------------------------------------


class TestVariationRNG:
    def test_default_matches_seeded_generator(self):
        variation = VariationSpec(seed=99)
        a = sample_variation_factors(variation, 16)
        b = sample_variation_factors(
            variation, 16, rng=np.random.default_rng(99)
        )
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_explicit_generator_advances(self):
        variation = VariationSpec()
        rng = np.random.default_rng(7)
        a = sample_variation_factors(variation, 8, rng=rng)
        b = sample_variation_factors(variation, 8, rng=rng)
        assert not np.array_equal(a[0], b[0])

    def test_seed_sequence_accepted(self):
        variation = VariationSpec(seed=5)
        seeds = spawn_variation_seeds(variation, 4)
        draws = [
            sample_variation_factors(variation, 8, rng=seed) for seed in seeds
        ]
        # Spawned streams are pairwise distinct (non-overlapping).
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i][0], draws[j][0])

    def test_spawn_is_deterministic(self):
        variation = VariationSpec(seed=5)
        a = spawn_variation_seeds(variation, 3)
        b = spawn_variation_seeds(variation, 3)
        for x, y in zip(a, b):
            assert np.array_equal(
                np.random.default_rng(x).normal(size=4),
                np.random.default_rng(y).normal(size=4),
            )

    def test_spawn_rejects_zero(self):
        with pytest.raises(ConfigError):
            spawn_variation_seeds(VariationSpec(), 0)


# -- jobs=1 vs jobs=4 equivalence -------------------------------------------------


class TestParallelEquivalence:
    def test_monte_carlo_bit_identical(self):
        arch = single_stage_a1()
        serial = monte_carlo_loss(arch, DSCH, samples=64, jobs=1)
        parallel = monte_carlo_loss(arch, DSCH, samples=64, jobs=4)
        assert np.array_equal(serial.samples_w, parallel.samples_w)
        assert serial.infeasible_count == parallel.infeasible_count
        assert serial.nominal_loss_w == parallel.nominal_loss_w

    def test_failure_tolerance_bit_identical(self):
        arch = single_stage_a1()
        serial = failure_tolerance(arch, DSCH, jobs=1)
        parallel = failure_tolerance(arch, DSCH, jobs=4, chunk_size=8)
        assert serial == parallel

    def test_multi_failure_bit_identical(self):
        arch = single_stage_a1()
        serial = multi_failure_samples(arch, DSCH, 2, max_scenarios=24)
        parallel = multi_failure_samples(
            arch, DSCH, 2, max_scenarios=24, jobs=4
        )
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.failed_indices == b.failed_indices
            assert np.array_equal(a.survivor_currents_a, b.survivor_currents_a)
            assert a.worst_droop_v == b.worst_droop_v

    def test_decap_density_bit_identical(self):
        kwargs = dict(
            densities=(0.5, 1.0, 2.0),
            grid_nodes=8,
            frequencies_hz=np.logspace(5, 8, 13),
        )
        serial = decap_density_sweep(jobs=1, **kwargs)
        parallel = decap_density_sweep(jobs=4, **kwargs)
        assert serial == parallel

    def test_conversion_location_bit_identical(self):
        assert conversion_location_sweep() == conversion_location_sweep(
            jobs=4
        )

    def test_monte_carlo_early_stop_is_prefix(self):
        arch = single_stage_a1()
        full = monte_carlo_loss(arch, DSCH, samples=96, jobs=1, chunk_size=16)
        stopped = monte_carlo_loss(
            arch,
            DSCH,
            samples=96,
            jobs=1,
            chunk_size=16,
            target_ci_w=1e6,  # absurdly loose: stops after two chunks
        )
        assert len(stopped.samples_w) == 32
        assert np.array_equal(
            stopped.samples_w, full.samples_w[: len(stopped.samples_w)]
        )
