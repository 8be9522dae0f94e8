"""Spatially-resolved decap placement and VR-site selection.

Covers the ISSUE acceptance criterion head-on: on a mesh whose
high-band peaks are locally decap-controlled, uniform doubling
(:func:`~repro.pdn.impedance.size_grid_decap_for_target`) must need
>= 4x total capacitance while the placement optimizer meets the same
per-node target with <= 60% of that capacitance.  Property tests pin
the structural guarantees: the optimizer is never worse than the
uniform allocation at the same budget, the recorded violating-node
fraction is monotonically non-increasing, the budget projection is
exact, and coarse-to-fine grid mapping round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pdn.decap_placement import (
    TARGET_RTOL,
    _project_budget,
    optimize_decap_placement,
    prolong_density,
    restrict_density,
    select_vr_sites,
    size_decap_placement_for_target,
)
from repro.pdn.grid import GridACPDN, GridPDN
from repro.pdn.impedance import size_grid_decap_for_target


def _contrast_pdn():
    """12x12 mesh whose 100 MHz-1 GHz peaks are decap-starved far from
    the two co-located sources: per-node required density spans ~1.9x
    to ~4.5x the attached allocation, so uniform doubling over-pays
    while placement water-fills."""
    pdn = GridACPDN(0.01, 0.01, 2e-2, nx=12, ny=12)
    pdn.set_decap_density(1.0, 10e-9, 1e-3, 1e-12)
    pdn.add_source("a", 0.0, 0.0, 1.0, 1e-4, 1e-11)
    pdn.add_source("b", 0.25, 0.0, 1.0, 1e-4, 1e-11)
    return pdn, np.logspace(8, 9, 25), 0.005


def _uniform_peaks(pdn, freqs):
    """Peak map of the uniform allocation at the attached budget."""
    saved = pdn.design
    decap = saved.decap
    uniform = np.full_like(decap.density, decap.density.sum() / decap.density.size)
    try:
        pdn.set_decap_density(
            uniform, decap.cap_per_unit_f, decap.esr_per_unit_ohm, decap.esl_per_unit_h
        )
        return pdn.impedance_map(freqs).peak_map()
    finally:
        pdn.design = saved


class TestGridMapping:
    """Coarse-to-fine density transfer (SNIPPETS.md section 2 idiom)."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fine=st.tuples(
            st.integers(min_value=2, max_value=11),
            st.integers(min_value=2, max_value=11),
        ),
        coarse=st.tuples(
            st.integers(min_value=1, max_value=11),
            st.integers(min_value=1, max_value=11),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_prolong_then_restrict_is_identity(self, seed, fine, coarse):
        if coarse[0] > fine[0] or coarse[1] > fine[1]:
            with pytest.raises(ConfigError):
                prolong_density(np.ones(coarse), fine)
            return
        rng = np.random.default_rng(seed)
        density = rng.uniform(0.1, 5.0, coarse)
        fine_density = prolong_density(density, fine)
        assert fine_density.shape == fine
        assert fine_density.sum() == pytest.approx(density.sum())
        back = restrict_density(fine_density, coarse)
        np.testing.assert_allclose(back, density, rtol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_restrict_preserves_total(self, seed):
        rng = np.random.default_rng(seed)
        density = rng.uniform(0.0, 3.0, (9, 7))
        coarse = restrict_density(density, (4, 3))
        assert coarse.shape == (4, 3)
        assert coarse.sum() == pytest.approx(density.sum())


class TestBudgetProjection:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_projection_is_feasible_and_idempotent(self, seed, n):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.0, 10.0, n)
        total = float(rng.uniform(0.5, 20.0))
        floor = float(rng.uniform(0.0, 0.9)) * total / n
        out = _project_budget(alpha, floor, total)
        assert out.sum() == pytest.approx(total, rel=1e-9)
        assert np.all(out >= floor - 1e-12 * max(total, 1.0))
        again = _project_budget(out, floor, total)
        np.testing.assert_allclose(again, out, atol=1e-9 * total)

    def test_infeasible_floor_rejected(self):
        with pytest.raises(ConfigError):
            _project_budget(np.ones(4), floor=1.0, total=2.0)


class TestOptimizer:
    def test_acceptance_beats_uniform_doubling(self):
        """The ISSUE acceptance criterion: uniform sizing needs >= 4x
        capacitance; optimized placement meets the same target with
        <= 60% of the uniform recommendation."""
        pdn, freqs, target = _contrast_pdn()
        base_f = pdn.total_decap_farad

        uniform = size_grid_decap_for_target(
            pdn, target, frequencies_hz=freqs
        )
        assert uniform.meets_target
        assert uniform.recommended_farad >= 4.0 * base_f

        placed = size_decap_placement_for_target(
            pdn, target, frequencies_hz=freqs
        )
        assert placed.meets_target
        assert (
            placed.capacitance_budget_f
            <= 0.6 * uniform.recommended_farad
        )
        assert placed.total_capacitance_after_f == pytest.approx(
            placed.capacitance_budget_f
        )
        # The search left the caller's allocation untouched.
        assert pdn.total_decap_farad == pytest.approx(base_f)

    def test_history_monotone_and_state_restored(self):
        pdn, freqs, target = _contrast_pdn()
        before = pdn.design
        density = before.decap.density.copy()
        result = optimize_decap_placement(
            pdn,
            target,
            frequencies_hz=freqs,
            budget_f=pdn.total_decap_farad * 8.0,
        )
        history = result.violating_fraction_history
        assert len(history) >= 1
        assert all(
            later <= earlier
            for earlier, later in zip(history, history[1:])
        )
        assert history[-1] == result.violating_fraction_after
        # The saved design is assigned back: same key, same decap bits.
        assert pdn.design is before
        assert pdn.design.key == before.key
        np.testing.assert_array_equal(pdn.design.decap.density, density)

    def test_budget_exact_and_apply_to(self):
        pdn, freqs, target = _contrast_pdn()
        budget = pdn.total_decap_farad * 3.0
        result = optimize_decap_placement(
            pdn, target, frequencies_hz=freqs, budget_f=budget
        )
        assert result.total_capacitance_after_f == pytest.approx(budget)
        assert np.all(result.density_after > 0.0)
        result.apply_to(pdn)
        assert pdn.total_decap_farad == pytest.approx(budget)
        # The applied map reproduces the reported peak map.
        peaks = pdn.impedance_map(freqs).peak_map()
        np.testing.assert_allclose(
            peaks, result.peak_map_after, rtol=1e-6
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_never_worse_than_uniform(self, seed, n):
        """At any budget, the optimized allocation's (violating
        fraction, peak) is lexicographically <= the uniform
        allocation's: uniform is always a candidate start and steps
        are accept-only-on-improvement."""
        rng = np.random.default_rng(seed)
        pdn = GridACPDN(
            0.01, 0.01, float(10.0 ** rng.uniform(-3.0, -1.5)), nx=n, ny=n
        )
        pdn.set_decap_density(
            rng.uniform(0.5, 1.5, (n, n)), 20e-9, 1e-3, 1e-12
        )
        pdn.add_source(
            "a",
            float(rng.random()),
            float(rng.random()),
            1.0,
            1e-4,
            1e-10,
        )
        freqs = np.logspace(6, 9, 13)
        uniform_peaks = _uniform_peaks(pdn, freqs)
        target = float(np.quantile(uniform_peaks, 0.5))
        tol = target * (1 + TARGET_RTOL)
        uniform_vf = np.count_nonzero(uniform_peaks > tol) / (n * n)
        result = optimize_decap_placement(
            pdn,
            target,
            frequencies_hz=freqs,
            max_iterations=3,
            gradient_steps=1,
            multi_resolution=False,
        )
        assert result.violating_fraction_after <= uniform_vf + 1e-12
        if result.violating_fraction_after == uniform_vf:
            assert result.peak_impedance_after_ohm <= float(
                uniform_peaks.max()
            ) * (1 + 1e-9)
        history = result.violating_fraction_history
        assert all(
            later <= earlier
            for earlier, later in zip(history, history[1:])
        )

    def test_multi_resolution_uses_coarse_warm_start(self):
        pdn, freqs, target = _contrast_pdn()
        result = optimize_decap_placement(
            pdn,
            target,
            frequencies_hz=freqs,
            budget_f=pdn.total_decap_farad * 8.0,
            multi_resolution=True,
        )
        assert result.coarse_shape == (6, 6)
        explicit = optimize_decap_placement(
            pdn,
            target,
            frequencies_hz=freqs,
            budget_f=pdn.total_decap_farad * 8.0,
            multi_resolution=True,
            coarse_shape=(4, 4),
        )
        assert explicit.coarse_shape == (4, 4)
        off = optimize_decap_placement(
            pdn,
            target,
            frequencies_hz=freqs,
            budget_f=pdn.total_decap_farad * 8.0,
            multi_resolution=False,
        )
        assert off.coarse_shape is None

    def test_each_allocation_is_evaluated_once(self, monkeypatch):
        """A capped multi-resolution run on a uniform allocation sweeps
        each (design, frequency grid) pair once: at both levels the
        attached allocation is also the budget-rescaled and the uniform
        start, and its evaluation supplies the "before" map."""
        pdn = GridACPDN(0.01, 0.01, 2e-2, nx=8, ny=8)
        pdn.set_decap_density(1.0, 10e-9, 1e-3, 1e-12)
        pdn.add_source("a", 0.0, 0.0, 1.0, 1e-4, 1e-11)
        pdn.add_source("b", 1.0, 0.25, 1.0, 1e-4, 1e-11)
        freqs = np.logspace(6, 9, 13)
        uniform = pdn.impedance_map(freqs).peak_map()
        swept = []
        impedance_map = GridACPDN.impedance_map

        def spy(self, frequencies_hz, method="auto"):
            freqs_key = np.asarray(frequencies_hz).tobytes()
            swept.append((self.design.key, freqs_key))
            return impedance_map(self, frequencies_hz, method)

        monkeypatch.setattr(GridACPDN, "impedance_map", spy)
        result = optimize_decap_placement(
            pdn,
            0.6 * float(uniform.max()),
            frequencies_hz=freqs,
            max_iterations=3,
            gradient_steps=1,
            multi_resolution=True,
        )
        assert result.coarse_shape == (4, 4)
        assert len(swept) == len(set(swept))
        np.testing.assert_array_equal(result.peak_map_before, uniform)

    def test_zero_budgets_return_best_start(self):
        pdn, freqs, target = _contrast_pdn()
        result = optimize_decap_placement(
            pdn,
            target,
            frequencies_hz=freqs,
            max_iterations=0,
            gradient_steps=0,
            multi_resolution=False,
        )
        assert result.iterations == 0
        assert result.gradient_steps_taken == 0
        assert len(result.violating_fraction_history) == 1

    def test_rejects_bad_inputs(self):
        pdn, freqs, target = _contrast_pdn()
        for bad in (0.0, -target):
            with pytest.raises(ConfigError, match="target_ohm"):
                optimize_decap_placement(pdn, bad)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="target_ohm"):
                optimize_decap_placement(pdn, bad)
        with pytest.raises(ConfigError):
            optimize_decap_placement(pdn, target, floor_fraction=0.0)
        with pytest.raises(ConfigError):
            optimize_decap_placement(
                pdn, target, multi_resolution="always"
            )
        with pytest.raises(ConfigError):
            optimize_decap_placement(pdn, target, budget_f=-1.0)
        # Iteration budgets are counts: a fraction, a boolean or a
        # negative raises by name.
        for name in ("max_iterations", "gradient_steps"):
            for bad in (1.5, True, -1):
                with pytest.raises(ConfigError, match=f"^{name} "):
                    optimize_decap_placement(pdn, target, **{name: bad})
        with pytest.raises(ConfigError):
            optimize_decap_placement(
                pdn,
                target,
                multi_resolution=True,
                coarse_shape=(1, 1),
            )
        # "map" representation has no unit-cell density to move.
        mapped = GridACPDN(0.01, 0.01, 1e-2, nx=4, ny=4)
        mapped.set_decap_map(np.full((4, 4), 1e-8), 1e-3, 1e-12)
        mapped.add_source("a", 0.0, 0.0, 1.0, 1e-4, 1e-11)
        with pytest.raises(ConfigError):
            optimize_decap_placement(mapped, target)
        # No sources attached.
        bare = GridACPDN(0.01, 0.01, 1e-2, nx=4, ny=4)
        bare.set_decap_density(1.0, 1e-8, 1e-3, 1e-12)
        with pytest.raises(ConfigError):
            optimize_decap_placement(bare, target)


class TestSizer:
    def test_returns_failing_result_when_capped(self):
        pdn, freqs, _ = _contrast_pdn()
        result = size_decap_placement_for_target(
            pdn,
            1e-9,
            frequencies_hz=freqs,
            max_budget_factor=2.0,
            max_iterations=2,
            gradient_steps=0,
            multi_resolution=False,
        )
        assert not result.meets_target
        assert pdn.total_decap_farad == pytest.approx(
            pdn.nx * pdn.ny * 10e-9
        )

    def test_rejects_bad_parameters(self):
        """Each search knob is checked by name before any trial: a
        NaN/inf cap or growth used to lift the 1024× cap, skip the
        growth trials or fail on ``density``, and a fractional or
        boolean ``refine_steps`` was accepted."""
        pdn, freqs, target = _contrast_pdn()
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="target_ohm"):
                size_decap_placement_for_target(pdn, bad)
        cases = [
            ("max_budget_factor", 0.5),
            ("max_budget_factor", np.nan),
            ("max_budget_factor", np.inf),
            ("growth", 1.0),
            ("growth", np.nan),
            ("growth", np.inf),
            ("refine_steps", -1),
            ("refine_steps", 1.5),
            ("refine_steps", True),
        ]
        for name, bad in cases:
            with pytest.raises(ConfigError, match=name):
                size_decap_placement_for_target(pdn, target, **{name: bad})


def _candidate_bank(load_corner=(0.9, 0.9)):
    """6x6 DC grid with a concentrated load and four corner candidate
    VR sites; the site nearest the load is the obvious first pick."""
    grid = GridPDN(0.02, 0.02, 5e-3, nx=6, ny=6)
    sinks = np.zeros((6, 6))
    lx, ly = load_corner
    sinks[int(ly * 5), int(lx * 5)] = 50.0
    grid.set_sink_array(sinks)
    for i, (x, y) in enumerate(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    ):
        grid.add_source(f"vr{i}", x, y, 1.0, 2e-3)
    return grid


class TestVRSiteSelection:
    def test_first_pick_is_nearest_the_load(self):
        grid = _candidate_bank(load_corner=(0.9, 0.9))
        selection = select_vr_sites(grid, 1)
        assert selection.chosen_names == ("vr3",)
        assert selection.objective == "min-voltage"
        assert selection.min_voltage_v < 1.0

    def test_scores_non_decreasing_as_sites_are_added(self):
        grid = _candidate_bank()
        selection = select_vr_sites(grid, 3)
        assert len(selection.chosen_indices) == 3
        assert len(set(selection.chosen_indices)) == 3
        history = selection.score_history
        assert all(
            later >= earlier - 1e-12
            for earlier, later in zip(history, history[1:])
        )

    def test_parallel_matches_serial(self):
        grid = _candidate_bank()
        serial = select_vr_sites(grid, 2, jobs=1)
        parallel = select_vr_sites(grid, 2, jobs=2, chunk_size=1)
        assert parallel.chosen_indices == serial.chosen_indices
        assert parallel.score_history == pytest.approx(
            serial.score_history
        )

    def test_rejects_non_count_site_count_by_name(self):
        # A fraction, a boolean or NaN is not a site count; a
        # whole-valued float is.
        grid = _candidate_bank()
        for bad in (2.5, True, float("nan")):
            with pytest.raises(ConfigError, match="^count "):
                select_vr_sites(grid, bad)
        assert select_vr_sites(grid, 1.0).chosen_indices == (
            select_vr_sites(grid, 1).chosen_indices
        )

    def test_rejects_bad_count_and_missing_sinks(self):
        grid = _candidate_bank()
        with pytest.raises(ConfigError):
            select_vr_sites(grid, 0)
        with pytest.raises(ConfigError):
            select_vr_sites(grid, 5)
        bare = GridPDN(0.02, 0.02, 5e-3, nx=4, ny=4)
        bare.add_source("vr0", 0.0, 0.0, 1.0, 1e-3)
        with pytest.raises(ConfigError):
            select_vr_sites(bare, 1)
