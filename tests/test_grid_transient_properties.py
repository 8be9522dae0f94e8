"""Property-based tests of the factor-once grid transient engine.

Three pillars:

* **Oracle parity** — a 1xN chain mesh is electrically identical to an
  N-stage lumped ladder, so :class:`GridTransientPDN` must reproduce
  :class:`PDNTransient` (an independent state-space integrator) to
  1e-6 relative over randomized R/L/C ladders.
* **Engine equivalence** — the DCT-diagonalized structured engine and
  the LU-factorized engine solve the same discretized system; their
  traces must agree to 1e-8.
* **DC limit** — a constant waveform must hold the mesh exactly at the
  :meth:`GridPDN.solve` operating point (capacitors open, inductors
  short).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import chips, load_step_trace, node_current_waveform
from repro.errors import ConfigError, DatasetError
from repro.pdn import (
    GridPDN,
    GridTransientPDN,
    PDNStage,
    PDNTransient,
    PowerMap,
    hotspot_trajectory,
)


#: The chain's axis: a 1xN mesh of x edges or an Nx1 mesh of y edges.
CHAIN_AXES = ("x", "y")


def chain_pair(n, r_src, l_src, r_edge, l_edge, caps, esrs, axis, volt=1.0):
    """An n-stage lumped ladder and its chain-mesh twin along ``axis``:
    a 1xN mesh of inductive x edges or an Nx1 mesh of inductive y
    edges.

    Ladder stage 1 is the mesh's VR branch (rout + source inductance);
    stages 2..n are the uniform chain edges; stage k's C/ESR shunt is
    node k-1's decap.  Returns the ladder, the mesh and the (ix, iy)
    of the chain's far end, where the load sits.
    """
    stages = [PDNStage("s1", r_src, l_src, caps[0], esrs[0])]
    for k in range(1, n):
        stages.append(PDNStage(f"s{k + 1}", r_edge, l_edge, caps[k], esrs[k]))
    oracle = PDNTransient(volt, stages)

    shape = (1, n) if axis == "x" else (n, 1)
    mesh = GridTransientPDN(
        1.0, 1.0, r_edge * (n - 1), nx=shape[1], ny=shape[0],
        **{f"edge_inductance_{axis}_h": l_edge},
    )
    mesh.add_source("vr", 0.0, 0.0, volt, r_src, inductance_h=l_src)
    mesh.set_decap_map(
        np.reshape(caps, shape), np.reshape(esrs, shape), 0.0
    )
    sink = np.zeros(n)
    sink[-1] = 1.0
    mesh.set_sink_array(sink.reshape(shape))
    far = (n - 1, 0) if axis == "x" else (0, n - 1)
    return oracle, mesh, far


@st.composite
def ladders(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    r_src = draw(st.floats(min_value=0.1, max_value=2.0))
    l_src = draw(st.floats(min_value=2e-7, max_value=5e-6))
    r_edge = draw(st.floats(min_value=0.2, max_value=3.0))
    l_edge = draw(st.floats(min_value=2e-7, max_value=5e-6))
    caps = [
        draw(st.floats(min_value=5e-7, max_value=5e-6)) for _ in range(n)
    ]
    esrs = [
        draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(n)
    ]
    return n, r_src, l_src, r_edge, l_edge, caps, esrs


class TestOracleParity:
    """Mesh chain vs the independent lumped state-space integrator,
    along each axis: the step loop keeps the x and y edge inductor
    histories apart, so each needs its own pin."""

    @given(params=ladders())
    @settings(max_examples=20, deadline=None)
    def test_chain_matches_lumped_ladder(self, params):
        n, r_src, l_src, r_edge, l_edge, caps, esrs = params
        # dt resolves the fastest admissible branch mode (~0.05 esr*C
        # at the strategy corner): trapezoidal error is O((rate*dt)^2),
        # and this step size keeps the worst corner ~2e-7, a 5x margin
        # under the 1e-6 bound.
        dt, steps = 2.5e-10, 1024
        for axis in CHAIN_AXES:
            oracle, mesh, far = chain_pair(
                n, r_src, l_src, r_edge, l_edge, caps, esrs, axis
            )
            ref = oracle.simulate_step(
                0.05, 0.18, duration_s=steps * dt, dt_s=dt
            )
            res = mesh.simulate_step(
                0.05, 0.18, duration_s=steps * dt, dt_s=dt,
                probe_nodes=[far],
            )
            pol = ref.pol_voltage_v
            err = np.max(
                np.abs(res.probe_voltages_v[:, 0] - pol)
            ) / np.max(np.abs(pol))
            assert err <= 1e-6, axis

    def test_droop_and_settle_match_oracle(self):
        caps = [2e-6, 1.5e-6, 3e-6, 1e-6]
        esrs = [0.5, 0.3, 0.8, 0.4]
        dt, steps = 1e-9, 512
        for axis in CHAIN_AXES:
            oracle, mesh, far = chain_pair(
                4, 0.8, 2e-6, 1.2, 1.5e-6, caps, esrs, axis
            )
            ref = oracle.simulate_step(
                0.05, 0.18, duration_s=steps * dt, dt_s=dt
            )
            res = mesh.simulate_step(
                0.05, 0.18, duration_s=steps * dt, dt_s=dt,
                probe_nodes=[far],
            )
            pol = ref.pol_voltage_v
            err = np.max(
                np.abs(res.probe_voltages_v[:, 0] - pol)
            ) / np.max(np.abs(pol))
            assert err <= 1e-6, axis
            assert res.droop_v == pytest.approx(ref.droop_v, rel=1e-6)
            assert res.settle_time_s == pytest.approx(
                ref.settle_time_s, abs=2 * dt
            )


def mesh_fixture(engine: str, n: int = 12) -> GridTransientPDN:
    pdn = GridTransientPDN(0.02, 0.02, 0.004, nx=n, ny=n, engine=engine)
    for i, (x, y) in enumerate([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)]):
        pdn.add_source(f"vr{i}", x, y, 1.0, 0.02, inductance_h=5e-12)
    pdn.connect_sources_with_ring_bus(0.005)
    pdn.set_sinks(PowerMap.hotspot_mixture(), 120.0)
    return pdn


class TestEngineEquivalence:
    """Structured (DCT + Woodbury) vs factorized (LU) engines."""

    def run_both(self, decap_density):
        results = []
        for engine in ("factorized", "structured"):
            pdn = mesh_fixture(engine)
            pdn.set_decap_density(decap_density, 0.2e-6, 2e-3, 1e-12)
            results.append(
                pdn.simulate_step(
                    60.0, 120.0, duration_s=1e-7, dt_s=1e-10,
                    probe_nodes=[(6, 6)],
                )
            )
        return results

    @given(
        density=st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_engines_agree(self, density):
        fact, struct = self.run_both(density)
        assert fact.engine == "factorized"
        assert struct.engine == "structured"
        scale = np.max(np.abs(fact.probe_voltages_v))
        probe_err = np.max(
            np.abs(fact.probe_voltages_v - struct.probe_voltages_v)
        ) / scale
        assert probe_err <= 1e-8
        assert np.max(np.abs(fact.droop_map - struct.droop_map)) <= 1e-8

    def test_nonuniform_decap_map_agrees(self):
        # Mostly uniform with a handful of hotspot allocations — the
        # sparse-deviation regime the rank-s Woodbury correction covers.
        rng = np.random.default_rng(3)
        density = np.ones((12, 12))
        rows = rng.choice(144, size=10, replace=False)
        density.ravel()[rows] = 1.0 + rng.random(10) * 3.0
        results = []
        for engine in ("factorized", "structured"):
            pdn = mesh_fixture(engine)
            pdn.set_decap_density(density, 0.2e-6, 2e-3, 1e-12)
            results.append(
                pdn.simulate_step(60.0, 120.0, duration_s=5e-8, dt_s=1e-10)
            )
        fact, struct = results
        assert np.max(np.abs(fact.v_min_map - struct.v_min_map)) <= 1e-8

    def test_dense_deviations_fall_back_under_auto(self):
        # A fully random decap map exceeds the Woodbury rank budget:
        # explicit 'structured' refuses, 'auto' falls back to the LU.
        from repro.pdn import StructuredSolveError

        rng = np.random.default_rng(5)
        density = 0.5 + rng.random((12, 12))
        strict = mesh_fixture("structured")
        strict.set_decap_density(density, 0.2e-6, 2e-3, 1e-12)
        with pytest.raises(StructuredSolveError):
            strict.simulate_step(60.0, 120.0, duration_s=1e-8, dt_s=1e-10)
        auto = mesh_fixture("auto")
        auto.set_decap_density(density, 0.2e-6, 2e-3, 1e-12)
        res = auto.simulate_step(60.0, 120.0, duration_s=1e-8, dt_s=1e-10)
        assert res.engine == "factorized"

    def test_auto_prefers_factorized_on_small_mesh(self):
        pdn = mesh_fixture("auto")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        res = pdn.simulate_step(60.0, 120.0, duration_s=2e-8, dt_s=1e-10)
        assert res.engine == "factorized"

    @pytest.mark.parametrize(
        "n, engine", [(40, "factorized"), (48, "structured")]
    )
    def test_auto_crossover(self, n, engine):
        # The transient's own crossover (TRANSIENT_AUTO_MIN_CELLS), not
        # the DC one: a 48² mesh steps structured, a 40² one on the LU.
        pdn = mesh_fixture("auto", n)
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        res = pdn.simulate_step(60.0, 120.0, duration_s=1e-9, dt_s=1e-10)
        assert res.engine == engine


class TestDCLimit:
    """Constant drive holds the GridPDN.solve operating point."""

    def dc_pair(self):
        grid = GridPDN(0.02, 0.02, 0.004, nx=12, ny=12)
        for i, (x, y) in enumerate([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)]):
            grid.add_source(f"vr{i}", x, y, 1.0, 0.02, 5e-12)
        grid.connect_sources_with_ring_bus(0.005)
        grid.set_sinks(PowerMap.hotspot_mixture(), 120.0)
        tp = GridTransientPDN.from_design(grid.design)
        tp.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        return grid, tp

    def test_initial_map_matches_dc_solve(self):
        grid, tp = self.dc_pair()
        sol = grid.solve()
        wave = np.repeat(grid.design.sinks.ravel()[None, :], 64, axis=0)
        res = tp.simulate(wave, 1e-10)
        assert np.max(np.abs(res.v_pre_map - sol.voltage_map)) <= 1e-9

    def test_constant_load_does_not_drift(self):
        grid, tp = self.dc_pair()
        wave = np.repeat(grid.design.sinks.ravel()[None, :], 64, axis=0)
        res = tp.simulate(wave, 1e-10)
        assert np.max(np.abs(res.v_min_map - res.v_pre_map)) <= 1e-9
        assert res.droop_v <= 1e-9

    def test_batched_traces_match_single_runs(self):
        grid, tp = self.dc_pair()
        base = grid.design.sinks.ravel()
        rng = np.random.default_rng(11)
        waves = np.stack(
            [
                np.repeat(base[None, :], 32, axis=0)
                * (0.5 + rng.random(32))[:, None]
                for _ in range(4)
            ]
        )
        batch = tp.simulate_many(waves, 1e-10, probe_nodes=[(3, 4)])
        singles = [
            tp.simulate(w, 1e-10, probe_nodes=[(3, 4)]) for w in waves
        ]
        for b, s in zip(batch, singles):
            assert np.array_equal(b.probe_voltages_v, s.probe_voltages_v)
            assert b.droop_v == s.droop_v


class TestWaveformAdapters:
    """The dataset-trace and moving-hotspot drive-signal helpers."""

    def test_load_step_trace_shape_and_levels(self):
        chip = chips()[0]
        trace = load_step_trace(chip, samples=64, idle_fraction=0.25)
        full = chip.power_w / 1.0
        assert trace.shape == (64,)
        assert trace[0] == pytest.approx(0.25 * full)
        assert np.all(trace[1:] == full)

    def test_load_step_trace_rejects_servers(self):
        from repro.datasets import servers

        with pytest.raises(DatasetError):
            load_step_trace(servers()[0])

    def test_node_current_waveform_conserves_total(self):
        trace = np.array([10.0, 40.0, 40.0])
        profile = PowerMap.hotspot_mixture().cell_currents(6, 6, 1.0)
        wave = node_current_waveform(trace, profile)
        assert wave.shape == (3, 36)
        np.testing.assert_allclose(wave.sum(axis=1), trace)

    def test_trace_drives_the_mesh(self):
        chip = chips()[0]
        trace = load_step_trace(chip, samples=48)
        pdn = mesh_fixture("factorized")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        profile = PowerMap.hotspot_mixture().cell_currents(12, 12, 1.0)
        res = pdn.simulate(node_current_waveform(trace, profile), 1e-10)
        assert res.droop_v > 0

    def test_hotspot_trajectory_frames(self):
        frames = hotspot_trajectory(
            [(0.2, 0.2), (0.8, 0.8)], steps=10, nx=8, ny=6,
            total_current_a=50.0,
        )
        assert frames.shape == (10, 6, 8)
        np.testing.assert_allclose(frames.sum(axis=(1, 2)), 50.0)
        # The hotspot actually moves: first and last frames differ.
        assert np.max(np.abs(frames[0] - frames[-1])) > 0

    def test_trajectory_drives_the_mesh(self):
        pdn = mesh_fixture("factorized")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        frames = hotspot_trajectory(
            [(0.1, 0.5), (0.9, 0.5)], steps=32, nx=12, ny=12,
            total_current_a=120.0,
        )
        res = pdn.simulate(frames, 1e-10)
        assert res.droop_v > 0
        assert res.v_min_map.shape == (12, 12)

    def test_trajectory_validation(self):
        with pytest.raises(ConfigError):
            hotspot_trajectory([(0.5, 0.5)], 10, 4, 4, 1.0)
        with pytest.raises(ConfigError):
            hotspot_trajectory([(0.2, 0.2), (1.5, 0.5)], 10, 4, 4, 1.0)


def _assert_same_results(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in (
            "v_pre_map", "v_min_map", "v_final_map",
            "min_voltage_trace_v", "probe_voltages_v",
        ):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert (a.droop_v, a.settle_time_s) == (b.droop_v, b.settle_time_s)


class TestLoadPath:
    """simulate_many reads the caller's traces where they are: every
    accepted layout steps to the same bits, each trace is checked on
    its own, and no trace is copied or written."""

    def traces(self, count=3, samples=6):
        rng = np.random.default_rng(17)
        return [
            rng.uniform(0.0, 2.0, (samples, 144)) for _ in range(count)
        ]

    @pytest.mark.parametrize("engine", ["factorized", "structured"])
    def test_every_layout_steps_to_the_same_bits(self, engine):
        pdn = mesh_fixture(engine)
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        traces = self.traces()
        frames = [t.reshape(-1, 12, 12) for t in traces]

        def run(waves):
            return pdn.simulate_many(waves, 1e-10, probe_nodes=[(3, 4)])

        want = run(traces)
        for waves in (
            tuple(traces),
            np.stack(traces),
            np.stack(frames),
            frames,
            [np.asfortranarray(t) for t in traces],
            [np.repeat(t, 2, axis=1)[:, ::2] for t in traces],  # strided
        ):
            _assert_same_results(run(waves), want)
        # One trace: (S, cells), (S, ny, nx), a list of (ny, nx) frames,
        # a list of (cells,) rows, Fortran order, and whole-valued ints.
        # (A structured batch rounds by its width, so one trace is
        # compared with a one-trace run.)
        one = traces[0]
        want = run([one])
        for wave in (
            one,
            frames[0],
            list(frames[0]),
            list(one),
            np.asfortranarray(one),
        ):
            _assert_same_results(run(wave), want)
        counts = np.rint(one * 5.0)
        _assert_same_results(run(counts.astype(np.int64)), run(counts))

    def test_caller_traces_are_not_written(self):
        pdn = mesh_fixture("factorized")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        traces = self.traces()
        before = [t.copy() for t in traces]
        pdn.simulate_many(traces, 1e-10)
        for t, b in zip(traces, before):
            np.testing.assert_array_equal(t, b)

    def test_each_trace_is_checked(self):
        pdn = mesh_fixture("factorized")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        good, other, last = self.traces()
        with pytest.raises(ConfigError, match="^waveforms_a .*shape"):
            pdn.simulate_many([good, other[:4]], 1e-10)
        last[3, 7] = np.nan
        with pytest.raises(ConfigError, match="^waveforms_a must be finite"):
            pdn.simulate_many([good, other, last], 1e-10)
        other[2, 5] = -1e-3
        with pytest.raises(ConfigError, match="non-negative"):
            pdn.simulate_many([good, other], 1e-10)

    def test_simulate_checks_its_trace_once(self, monkeypatch):
        """simulate checks its one trace under its own name and hands
        it on without a second scan; NaN and negative samples still
        raise."""
        import repro.pdn.grid_transient as gt

        pdn = mesh_fixture("factorized")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        trace, _, _ = self.traces()
        checked = []
        original = gt.require_finite

        def spy(value, name):
            checked.append(name)
            return original(value, name)

        monkeypatch.setattr(gt, "require_finite", spy)
        pdn.simulate(trace, 1e-10)
        assert checked == ["waveform_a", "dt_s"]
        bad = trace.copy()
        bad[3, 7] = np.nan
        with pytest.raises(ConfigError, match="^waveform_a must be finite"):
            pdn.simulate(bad, 1e-10)
        bad[3, 7] = -1e-3
        with pytest.raises(ConfigError, match="non-negative"):
            pdn.simulate(bad, 1e-10)

    def test_peak_memory_stays_below_the_traces(self):
        # A warm 8 × 201 sample run allocates a few (8, cells) frames,
        # far below the 3.3 MB of traces it reads; a stacked and a
        # transposed copy of the traces read 2.07x.
        import tracemalloc

        pdn = mesh_fixture("factorized", 16)
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        rng = np.random.default_rng(5)
        traces = [rng.uniform(0.0, 1.0, (201, 256)) for _ in range(8)]
        pdn.simulate_many(traces, 1e-10)  # factor once
        tracemalloc.start()
        try:
            pdn.simulate_many(traces, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * sum(t.nbytes for t in traces)


class TestValidation:
    def test_rejects_single_node_grid(self):
        with pytest.raises(ConfigError):
            GridTransientPDN(1.0, 1.0, 1.0, nx=1, ny=1)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            GridTransientPDN(1.0, 1.0, 1.0, nx=4, ny=4, engine="magic")

    def test_simulate_requires_sources(self):
        pdn = GridTransientPDN(1.0, 1.0, 1.0, nx=4, ny=4)
        wave = np.zeros((4, 16))
        with pytest.raises(ConfigError):
            pdn.simulate(wave, 1e-9)

    def test_simulate_step_requires_sink_map(self):
        pdn = GridTransientPDN(1.0, 1.0, 1.0, nx=4, ny=4)
        pdn.add_source("vr", 0.5, 0.5, 1.0, 0.1)
        with pytest.raises(ConfigError):
            pdn.simulate_step(0.0, 10.0)

    @pytest.mark.parametrize(
        "probe",
        [(12, 0), (0, 12), (-1, 3), 144, -1, 1.5, (True, 2), (2.7, 3),
         (float("nan"), 1), True],
    )
    def test_rejects_bad_probe_nodes(self, probe):
        """Each probe axis is a whole-number index inside the mesh: an
        x index past the edge does not wrap onto the next row, and a
        fraction, NaN or boolean raises by name."""
        pdn = mesh_fixture("factorized")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        wave = np.full((4, 144), 0.1)
        with pytest.raises(ConfigError, match="probe"):
            pdn.simulate(wave, 1e-10, probe_nodes=[probe])

    def test_probe_nodes_accept_rows_and_pairs(self):
        pdn = mesh_fixture("factorized")
        pdn.set_decap_density(1.0, 0.2e-6, 2e-3, 1e-12)
        wave = np.full((4, 144), 0.1)
        res = pdn.simulate(
            wave, 1e-10, probe_nodes=[13, (1, 1), (11.0, 11), np.int64(143)]
        )
        assert res.probe_rows == (13, 13, 143, 143)

    def test_rejects_bad_waveform_shape(self):
        pdn = GridTransientPDN(1.0, 1.0, 1.0, nx=4, ny=4)
        pdn.add_source("vr", 0.5, 0.5, 1.0, 0.1)
        with pytest.raises(ConfigError):
            pdn.simulate(np.zeros((4, 7)), 1e-9)

    def test_from_grid_rejects_scaled_meshes(self):
        grid = GridPDN(0.02, 0.02, 0.004, nx=6, ny=6)
        grid.add_source("vr", 0.5, 0.5, 1.0, 0.02)
        grid.set_edge_resistance_scale(x_scale=np.full((6, 5), 1.1))
        with pytest.raises(ConfigError, match="per-edge variation"):
            GridTransientPDN.from_design(grid.design)
        pdn = GridTransientPDN.from_design(grid.design.with_edge_scales())
        with pytest.raises(ConfigError, match="per-edge variation"):
            pdn.set_edge_resistance_scale(x_scale=np.full((6, 5), 1.1))
