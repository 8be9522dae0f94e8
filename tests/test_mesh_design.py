"""The one validated mesh model under the DC, AC and transient views.

:class:`repro.pdn.mesh.MeshDesign` is a frozen value: an edit returns a
new design and leaves the original bit-identical, every value is
checked once where it enters (finite first, then range, with a
:class:`~repro.errors.ConfigError` naming the parameter), and one
content key — blind to the sink map and the source voltages — tags
every structure a view caches.  Generated designs (1-D chains, ring
buses, density or map decap, optional sinks) pin that contract, and
the cross-view agreements that follow from analyzing one design three
ways.
"""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import DSCH, SystemSpec, single_stage_a1, single_stage_a2
from repro.core import current_sharing
from repro.errors import ConfigError
from repro.pdn import (
    DecapDensity,
    DecapMap,
    GridACPDN,
    GridPDN,
    GridTransientPDN,
    MeshDesign,
    PowerMap,
    Source,
)


@st.composite
def mesh_designs(draw, two_d: bool = False, sinks: bool | None = None):
    """Small random designs: 1-D chains unless ``two_d``, one to four
    sources, an optional ring bus, no/density/map decap, and sinks
    when ``sinks`` (drawn when ``None``)."""
    low = 2 if two_d else 1
    nx = draw(st.integers(low, 5))
    ny = draw(st.integers(low, 5))
    assume(nx * ny >= 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.floats(5e-3, 3e-2))
    design = MeshDesign(
        width,
        width * draw(st.floats(0.5, 2.0)),
        draw(st.floats(1e-3, 1e-2)),
        nx=nx,
        ny=ny,
        edge_inductance_x_h=draw(st.sampled_from([0.0, 2e-12])),
        edge_inductance_y_h=draw(st.sampled_from([0.0, 2e-12])),
    )
    for k in range(draw(st.integers(1, 4))):
        design = design.with_source(
            Source(
                f"vr{k}",
                int(rng.integers(nx)),
                int(rng.integers(ny)),
                float(rng.uniform(0.9, 1.1)),
                float(rng.uniform(1e-3, 1e-2)),
                draw(st.sampled_from([0.0, 1e-11])),
            )
        )
    if len(design.sources) >= 3 and draw(st.booleans()):
        design = design.with_ring_bus(float(rng.uniform(1e-3, 1e-2)))
    if draw(st.booleans()) if sinks is None else sinks:
        design = design.with_sinks(rng.uniform(0.0, 0.1, (ny, nx)))
    decap = draw(st.sampled_from(["none", "uniform", "density", "map"]))
    if decap == "uniform":
        design = design.with_decap_density(1.5, 1e-7, 1e-3, 1e-12)
    elif decap == "density":
        design = design.with_decap_density(
            rng.uniform(0.5, 2.0, (ny, nx)), 1e-7, 1e-3, 1e-12
        )
    elif decap == "map":
        design = design.with_decap_map(
            rng.uniform(1e-8, 1e-7, (ny, nx)),
            rng.uniform(1e-3, 1e-2, (ny, nx)),
            0.0,
        )
    return design


def _content(value):
    """Every field of a design (or of its sources and decap) as plain
    comparable data: arrays become ``(dtype, shape, bytes)``."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (MeshDesign, Source, DecapDensity, DecapMap)):
        return tuple(
            (field.name, _content(getattr(value, field.name)))
            for field in fields(value)
        )
    if isinstance(value, tuple):
        return tuple(_content(item) for item in value)
    return value


def _with_voltages(design: MeshDesign, delta: float) -> MeshDesign:
    """The design with every source voltage shifted by ``delta``."""
    return replace(
        design,
        sources=tuple(
            replace(source, voltage_v=source.voltage_v + delta)
            for source in design.sources
        ),
    )


#: Edits that change what the system matrices are built from; each
#: must change the key.  ``None`` marks an edit the design cannot take.
TOPOLOGY_EDITS = {
    "add source": lambda d: d.with_source_at("extra", 0.5, 0.5, 1.0, 2e-3),
    "remove sources": lambda d: d.without_sources(),
    "move source": lambda d: replace(
        d,
        ring_bus_ohm=None,
        sources=(replace(d.sources[0], ix=(d.sources[0].ix + 1) % d.nx),),
    )
    if d.nx > 1
    else None,
    "output resistance": lambda d: replace(
        d,
        sources=tuple(
            replace(s, output_resistance_ohm=2 * s.output_resistance_ohm)
            for s in d.sources
        ),
    ),
    "source inductance": lambda d: replace(
        d,
        sources=tuple(
            replace(s, inductance_h=s.inductance_h + 1e-12) for s in d.sources
        ),
    ),
    "ring bus": lambda d: (
        d.with_ring_bus(7e-3) if len(d.sources) >= 3 else None
    ),
    "edge scales": lambda d: (
        d.with_edge_scales(x_scale=np.full((d.ny, d.nx - 1), 1.5))
        if d.nx > 1
        else None
    ),
    "sheet resistance": lambda d: replace(d, sheet_ohm_sq=2 * d.sheet_ohm_sq),
    "edge inductance": lambda d: replace(
        d, edge_inductance_x_h=d.edge_inductance_x_h + 1e-12
    ),
    "decap density": lambda d: d.with_decap_density(
        np.full((d.ny, d.nx), 0.7), 1e-7
    ),
    "decap map": lambda d: d.with_decap_map(np.full((d.ny, d.nx), 3e-8)),
    "decap scale": lambda d: (
        d.with_decap_scaled(2.0) if d.decap is not None else None
    ),
}

#: Edits of right-hand-side data only; each must keep the key.
RHS_EDITS = {
    "sinks": lambda d: d.with_sinks(np.full((d.ny, d.nx), 0.25)),
    "voltages": lambda d: _with_voltages(d, 0.05),
}


class TestDesignValue:
    @settings(max_examples=40, deadline=None)
    @given(mesh_designs(), st.sampled_from(sorted(TOPOLOGY_EDITS | RHS_EDITS)))
    def test_edit_returns_new_design_and_keeps_original(self, design, edit):
        before = _content(design)
        edited = (TOPOLOGY_EDITS | RHS_EDITS)[edit](design)
        assume(edited is not None)
        assert edited is not design
        assert _content(design) == before
        assert _content(edited) != before

    @settings(max_examples=40, deadline=None)
    @given(mesh_designs())
    def test_equal_content_gives_equal_keys(self, design):
        rebuilt = replace(design)
        assert rebuilt is not design
        assert _content(rebuilt) == _content(design)
        assert rebuilt.key == design.key

    @settings(max_examples=40, deadline=None)
    @given(mesh_designs(), st.sampled_from(sorted(RHS_EDITS)))
    def test_sink_and_voltage_edits_keep_the_key(self, design, edit):
        assert RHS_EDITS[edit](design).key == design.key

    @settings(max_examples=60, deadline=None)
    @given(mesh_designs(), st.sampled_from(sorted(TOPOLOGY_EDITS)))
    def test_any_other_edit_changes_the_key(self, design, edit):
        edited = TOPOLOGY_EDITS[edit](design)
        assume(edited is not None and _content(edited) != _content(design))
        assert edited.key != design.key

    @settings(max_examples=40, deadline=None)
    @given(mesh_designs())
    def test_pickle_round_trip_keeps_the_key(self, design):
        loaded = pickle.loads(pickle.dumps(design))
        assert "key" not in loaded.__dict__  # recomputed, not carried
        assert _content(loaded) == _content(design)
        assert loaded.key == design.key

    def test_key_tells_x_scales_from_y_scales(self):
        """On a square mesh the x- and y-scale maps have one byte
        length; swapping which axis carries the same bytes must still
        change the key."""
        design = MeshDesign(0.01, 0.01, 0.01, nx=3, ny=3)
        x_only = design.with_edge_scales(x_scale=np.full((3, 2), 1.5))
        y_only = design.with_edge_scales(y_scale=np.full((2, 3), 1.5))
        assert x_only.key != y_only.key

    def test_node_counts_and_indices_must_be_whole(self):
        with pytest.raises(ConfigError, match="^nx must be an integer$"):
            MeshDesign(0.01, 0.01, 0.01, nx=2.5, ny=3)
        with pytest.raises(ConfigError, match="^iy must be an integer$"):
            Source("a", 1, 0.5, 1.0, 1e-3)
        assert MeshDesign(0.01, 0.01, 0.01, nx=np.int64(3), ny=4.0).ny == 4

    def test_design_arrays_are_read_only(self):
        design = MeshDesign(0.01, 0.01, 0.01, nx=3, ny=2).with_sinks(
            np.ones((2, 3))
        )
        with pytest.raises(ValueError):
            design.sinks[0, 0] = 5.0


class TestBulkSourceEdit:
    """``MeshDesign.with_sources``: several sources, one edit."""

    BASE = MeshDesign(0.01, 0.01, 0.01, nx=3, ny=3).with_source(
        Source("a", 0, 0, 1.0, 2e-3)
    )
    BATCH = tuple(
        Source(f"vr{k}", k % 3, k // 3, 1.0 + 0.01 * k, 1e-3) for k in range(5)
    )

    def test_one_edit_equals_the_one_at_a_time_chain(self):
        chain = self.BASE
        for source in self.BATCH:
            chain = chain.with_source(source)
        bulk = self.BASE.with_sources(iter(self.BATCH))
        assert bulk.sources == chain.sources == self.BASE.sources + self.BATCH
        assert bulk.key == chain.key
        assert self.BASE.with_sources(()).key == self.BASE.key

    @pytest.mark.parametrize(
        "batch, message",
        [
            (
                (Source("x", 0, 0, 1.0, 1e-3), Source("x", 1, 1, 1.0, 1e-3)),
                "duplicate source name: 'x'",
            ),
            ((Source("b", 1, 1, 1.0, 1e-3), Source("a", 2, 2, 1.0, 1e-3)),
             "duplicate source name: 'a'"),
            ((Source("b", 1, 1, 1.0, 1e-3), Source("far", 3, 0, 1.0, 1e-3)),
             "source 'far' is outside the mesh"),
        ],
        ids=["within-batch", "against-attached", "outside"],
    )
    def test_bad_batches_raise_by_source_name(self, batch, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            self.BASE.with_sources(batch)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            replace(self.BASE, sources=self.BASE.sources + batch)

    @pytest.mark.parametrize("arch", [single_stage_a1, single_stage_a2])
    def test_bank_builder_matches_one_source_at_a_time(self, arch):
        """The 48-VR bank attached in one edit is the design that one
        ``add_source`` per VR builds: same sources, same key."""
        spec = SystemSpec()
        grid, plan = current_sharing._die_grid_with_bank(
            arch(), DSCH, spec, PowerMap.hotspot_mixture(), 12, 1.0,
            0.15e-3, 5e-12,
        )
        chain = GridPDN(
            spec.die_side_m, spec.die_side_m, grid.sheet_ohm_sq, nx=12, ny=12
        )
        chain.set_sinks(PowerMap.hotspot_mixture(), spec.pol_current_a)
        for index, position in enumerate(plan.positions):
            chain.add_source(
                f"vr{index}", position.x, position.y, 1.0, 0.15e-3, 5e-12
            )
        if grid.design.ring_bus_ohm is not None:
            chain.connect_sources_with_ring_bus(grid.design.ring_bus_ohm)
        assert grid.design.sources == chain.design.sources
        assert grid.design.key == chain.design.key


class TestViewsAgree:
    @settings(max_examples=40, deadline=None)
    @given(mesh_designs(two_d=True, sinks=True))
    def test_dc_solve_matches_ac_at_one_hertz(self, design):
        """On one design the DC map and the 1 Hz driven |V| map agree:
        the decaps are open and the inductances short at 1 Hz."""
        dc = GridPDN.from_design(design).solve().voltage_map
        assert dc.min() > 0.5  # |V| compares like with like
        ac = GridACPDN.from_design(design).solve(np.array([1.0]))
        assert np.abs(np.abs(ac.voltage_maps[0]) - dc).max() <= 1e-9

    def test_views_share_the_design(self):
        grid = GridPDN(0.01, 0.01, 0.01, nx=4, ny=4)
        grid.add_source("a", 0.0, 0.0, 1.0, 1e-3, 1e-11)
        ac = GridACPDN.from_design(grid.design)
        tp = GridTransientPDN.from_design(grid.design, engine="factorized")
        assert ac.design is grid.design is tp.design
        assert tp.engine == "factorized"


class TestCachesFollowTheKey:
    def pdn(self) -> GridACPDN:
        pdn = GridACPDN(0.01, 0.01, 0.01, nx=5, ny=4)
        pdn.set_sink_array(np.full((4, 5), 0.2))
        for k, x in enumerate((0.0, 0.5, 1.0)):
            pdn.add_source(f"s{k}", x, 0.0, 1.0, 5e-3, 1e-11)
        pdn.set_decap_density(
            np.linspace(0.5, 1.5, 20).reshape(4, 5), 1e-7, 1e-3, 1e-12
        )
        return pdn

    def test_sink_and_voltage_edits_keep_ac_structures(self):
        """A selinv map builds its level plan and no reduced CSC
        pattern; the adjoint columns, an LU path, build that pattern.
        Both survive sink and voltage edits."""
        pdn = self.pdn()
        freqs = np.logspace(5, 8, 4)
        pdn.impedance_map(freqs)
        assert getattr(pdn, "_reduced", None) is None
        pdn.impedance_columns(freqs[0], [0, 7])
        reduced, plan = pdn._reduced[1], pdn._selinv[1]
        pdn.set_sink_array(np.full((4, 5), 0.9))
        pdn.design = _with_voltages(pdn.design, 0.1)
        pdn.impedance_map(freqs)
        pdn.impedance_columns(freqs[0], [0, 7])
        assert pdn._reduced[1] is reduced and pdn._selinv[1] is plan

    def test_compiled_sweep_tags_its_baked_in_sinks(self):
        pdn = self.pdn()
        freqs = np.array([1e3, 1e6])
        first = pdn.solve(freqs).voltage_maps
        pdn.set_sink_array(np.full((4, 5), 0.9))
        second = pdn.solve(freqs).voltage_maps
        fresh = GridACPDN.from_design(pdn.design).solve(freqs).voltage_maps
        assert not np.allclose(first, second)
        np.testing.assert_array_equal(second, fresh)

    @pytest.mark.parametrize("engine", ["factorized", "structured"])
    def test_transient_voltage_edit_matches_a_fresh_view(self, engine):
        """Only the source voltages change between two simulate calls:
        the companions are reused and the trace matches a fresh view
        of the edited design bit for bit."""
        pdn = GridTransientPDN(0.01, 0.01, 0.01, nx=6, ny=5, engine=engine)
        pdn.set_sinks(PowerMap.hotspot_mixture(), 20.0)
        for k, x in enumerate((0.0, 0.5, 1.0)):
            pdn.add_source(f"s{k}", x, 0.5, 1.0, 5e-3, 1e-11)
        pdn.set_decap_density(1.0, 2e-7, 2e-3, 1e-12)
        before = pdn.simulate_step(5.0, 20.0, duration_s=40e-9, dt_s=1e-9)
        structure = pdn._companions[1]
        pdn.design = _with_voltages(pdn.design, 0.03)
        after = pdn.simulate_step(5.0, 20.0, duration_s=40e-9, dt_s=1e-9)
        assert pdn._companions[1] is structure
        fresh = GridTransientPDN.from_design(pdn.design, engine=engine)
        reference = fresh.simulate_step(5.0, 20.0, duration_s=40e-9, dt_s=1e-9)
        assert not np.allclose(before.v_pre_map, after.v_pre_map)
        for name in (
            "v_pre_map",
            "v_min_map",
            "v_final_map",
            "min_voltage_trace_v",
        ):
            np.testing.assert_array_equal(
                getattr(after, name), getattr(reference, name)
            )
        assert after.settle_time_s == reference.settle_time_s
        assert after.engine == reference.engine == engine


class TestEdgeVariation:
    """The AC and transient views have no per-edge variation path, so
    a scaled design is rejected instead of silently solved uniform."""

    def scaled_grid(self) -> GridPDN:
        grid = GridPDN(0.01, 0.01, 0.01, nx=4, ny=4)
        grid.set_sinks(PowerMap.hotspot_mixture(), 20.0)
        grid.add_source("a", 0.0, 0.0, 1.0, 1e-3)
        grid.add_source("b", 1.0, 1.0, 1.0, 1e-3)
        grid.set_edge_resistance_scale(
            x_scale=np.full((4, 3), 5.0), y_scale=np.full((3, 4), 5.0)
        )
        return grid

    def test_scaling_moves_the_dc_map(self):
        grid = self.scaled_grid()
        uniform = GridPDN.from_design(grid.design.with_edge_scales())
        gap = np.abs(grid.solve().voltage_map - uniform.solve().voltage_map)
        assert gap.max() > 1e-3

    @pytest.mark.parametrize("view", [GridACPDN, GridTransientPDN])
    def test_views_reject_scaled_designs(self, view):
        grid = self.scaled_grid()
        with pytest.raises(ConfigError, match="per-edge variation"):
            view.from_design(grid.design)
        pdn = view.from_design(grid.design.with_edge_scales())
        with pytest.raises(ConfigError, match="per-edge variation"):
            pdn.set_edge_resistance_scale(x_scale=np.full((4, 3), 5.0))
        assert pdn.design.edge_scale_x is None


# -- boundary validation ------------------------------------------------------

VIEWS = {"dc": GridPDN, "ac": GridACPDN, "transient": GridTransientPDN}
BAD = object()  # where a _mutate argument takes the non-finite value


def _view(kind: str):
    pdn = VIEWS[kind](0.01, 0.01, 0.01, nx=4, ny=4)
    pdn.set_sink_array(np.full((4, 4), 0.5))
    for k, (x, y) in enumerate(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))):
        pdn.add_source(f"s{k}", x, y, 1.0, 1e-3, 1e-11)
    pdn.set_decap_density(1.0, 1e-7, 1e-3, 1e-12)
    return pdn


def _spoiled(shape, bad):
    arr = np.ones(shape)
    arr[0, -1] = bad
    return arr


def _construct(name):
    def enter(kind, bad):
        args = dict(width_m=0.01, height_m=0.01, sheet_ohm_sq=0.01, nx=4, ny=4)
        args[name] = bad
        VIEWS[kind](**args)

    return enter


def _through_design(name):
    """Fields a view's constructor does not take enter as a design."""

    def enter(kind, bad):
        pdn = _view(kind)
        pdn.design = replace(pdn.design, **{name: bad})

    return enter


def _mutate(method, *args, **kwargs):
    def enter(kind, bad):
        pdn = _view(kind)
        getattr(pdn, method)(
            *(bad if a is BAD else a for a in args),
            **{k: bad if v is BAD else v for k, v in kwargs.items()},
        )

    return enter


def _mutate_array(method, shape, **fixed):
    def enter(kind, bad):
        getattr(_view(kind), method)(_spoiled(shape, bad), **fixed)

    return enter


def _source_index(name):
    def enter(kind, bad):
        pdn = _view(kind)
        args = dict(name="x", ix=1, iy=1, voltage_v=1.0, output_resistance_ohm=1e-3)
        args[name] = bad
        pdn.design = pdn.design.with_source(Source(**args))

    return enter


#: (parameter named in the error, how it enters a view)
ENTRY_POINTS = [
    ("width_m", _construct("width_m")),
    ("height_m", _construct("height_m")),
    ("sheet_ohm_sq", _construct("sheet_ohm_sq")),
    ("nx", _construct("nx")),
    ("ny", _construct("ny")),
    ("edge_inductance_x_h", _through_design("edge_inductance_x_h")),
    ("edge_inductance_y_h", _through_design("edge_inductance_y_h")),
    ("edge_scale_x", _through_design("edge_scale_x")),
    ("ring_bus_ohm", _through_design("ring_bus_ohm")),
    ("sinks", _through_design("sinks")),
    ("x_scale", _mutate_array("set_edge_resistance_scale", (4, 3))),
    ("y_scale", lambda kind, bad: _view(kind).set_edge_resistance_scale(
        y_scale=_spoiled((3, 4), bad)
    )),
    ("cell_currents", _mutate_array("set_sink_array", (4, 4))),
    ("total_current_a", _mutate("set_sinks", PowerMap.uniform(), BAD)),
    ("x_frac", _mutate("add_source", "x", BAD, 0.5, 1.0, 1e-3)),
    ("y_frac", _mutate("add_source", "x", 0.5, BAD, 1.0, 1e-3)),
    ("voltage_v", _mutate("add_source", "x", 0.5, 0.5, BAD, 1e-3)),
    ("output_resistance_ohm", _mutate("add_source", "x", 0.5, 0.5, 1.0, BAD)),
    ("inductance_h", _mutate("add_source", "x", 0.5, 0.5, 1.0, 1e-3, BAD)),
    ("ix", _source_index("ix")),
    ("iy", _source_index("iy")),
    ("segment_resistance_ohm", _mutate("connect_sources_with_ring_bus", BAD)),
    ("density", _mutate_array("set_decap_density", (4, 4), cap_per_unit_f=1e-7)),
    ("cap_per_unit_f", _mutate("set_decap_density", 1.0, BAD)),
    ("esr_per_unit_ohm", _mutate("set_decap_density", 1.0, 1e-7, BAD)),
    ("esl_per_unit_h", _mutate("set_decap_density", 1.0, 1e-7, 0.0, BAD)),
    ("cap_f", _mutate_array("set_decap_map", (4, 4))),
    ("esr_ohm", lambda kind, bad: _view(kind).set_decap_map(
        np.full((4, 4), 1e-7), _spoiled((4, 4), bad)
    )),
    ("esl_h", lambda kind, bad: _view(kind).set_decap_map(
        np.full((4, 4), 1e-7), 0.0, _spoiled((4, 4), bad)
    )),
    ("factor", _mutate("scale_decap", BAD)),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", sorted(VIEWS))
@pytest.mark.parametrize(
    "name, enter", ENTRY_POINTS, ids=[name for name, _ in ENTRY_POINTS]
)
def test_non_finite_design_values_are_rejected_by_name(name, enter, kind, bad):
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        enter(kind, bad)


@pytest.mark.parametrize("kind", sorted(VIEWS))
def test_negative_source_voltage_is_rejected_by_name(kind):
    # The DC engines stamp a regulator's EMF as a Norton current
    # V/r_out, and current sources are non-negative.
    with pytest.raises(ConfigError, match="^voltage_v must be non-negative$"):
        _view(kind).add_source("x", 0.5, 0.5, -0.1, 1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_view_options_are_rejected_by_name(bad):
    with pytest.raises(ConfigError, match="^rail_pair_factor must be finite$"):
        GridPDN(0.01, 0.01, 0.01, rail_pair_factor=bad)
    with pytest.raises(ConfigError, match="^sink_maps must be finite$"):
        _view("dc").solve_many(_spoiled((4, 4), bad)[None])


SIMULATE_CALLS = [
    ("dt_s", lambda pdn, bad: pdn.simulate(np.ones((3, 16)), bad)),
    ("dt_s", lambda pdn, bad: pdn.simulate_step(1.0, 2.0, 1e-8, bad)),
    ("duration_s", lambda pdn, bad: pdn.simulate_step(1.0, 2.0, bad, 1e-9)),
    ("i_before_a", lambda pdn, bad: pdn.simulate_step(bad, 2.0, 1e-8, 1e-9)),
    ("i_after_a", lambda pdn, bad: pdn.simulate_step(1.0, bad, 1e-8, 1e-9)),
    ("waveform_a", lambda pdn, bad: pdn.simulate(_spoiled((3, 16), bad), 1e-9)),
    (
        "waveforms_a",
        lambda pdn, bad: pdn.simulate_many(_spoiled((3, 16), bad)[None], 1e-9),
    ),
    (
        "settle_band_v",
        lambda pdn, bad: pdn.simulate(np.ones((3, 16)), 1e-9, settle_band_v=bad),
    ),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "name, call", SIMULATE_CALLS, ids=[f"{n}-{i}" for i, (n, _) in enumerate(SIMULATE_CALLS)]
)
def test_non_finite_simulate_arguments_are_rejected_by_name(name, call, bad):
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        call(_view("transient"), bad)
