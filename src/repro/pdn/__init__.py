"""Packaging power distribution network (PPDN) substrate.

This package models the physical path from PCB to point-of-load:

* :mod:`~repro.pdn.interconnect` — vertical interconnect technologies
  (BGA, C4, TSV, micro-bump, Cu-Cu pad) per Table I of the paper,
* :mod:`~repro.pdn.stackup` — the packaging hierarchy and rail pairs,
* :mod:`~repro.pdn.planes` — horizontal plane / RDL resistance models,
* :mod:`~repro.pdn.network` / :mod:`~repro.pdn.mna` — generic resistive
  netlists and the sparse modified-nodal-analysis DC solver,
* :mod:`~repro.pdn.mesh` — the validated die mesh (:class:`MeshDesign`)
  that the grid analyses view,
* :mod:`~repro.pdn.grid` — 2-D lateral grids for die/interposer metal,
* :mod:`~repro.pdn.powermap` — die current-demand maps,
* :mod:`~repro.pdn.transient` — linear RLC load-step (droop) analysis.
"""

from .interconnect import (
    ADVANCED_CU_PAD,
    BGA,
    C4_BUMP,
    MICRO_BUMP,
    TABLE_I,
    TSV,
    InterconnectArray,
    VerticalInterconnect,
    table_i_rows,
)
from .network import (
    CompiledNetlist,
    CurrentSource,
    Netlist,
    Resistor,
    VoltageSource,
)
from .mna import DCSolution, FactorizedPDN, solve_dc
from .fast_poisson import (
    FastPoissonOperator,
    StructuredGridPDN,
    StructuredSolveError,
    dct2_basis,
    poisson_mode_eigenvalues,
)
from .planes import (
    annular_spreading_resistance,
    disk_edge_feed_resistance,
    plane_resistance,
    sheet_resistance,
)
from .powermap import PowerMap, hotspot_trajectory
from .mesh import DecapDensity, DecapMap, MeshDesign, Source
from .grid import (
    GridACPDN,
    GridACSweepSolution,
    GridImpedanceMap,
    GridPDN,
    GridSolution,
)
from .decap_placement import (
    PlacementResult,
    VRSiteSelection,
    optimize_decap_placement,
    prolong_density,
    restrict_density,
    select_vr_sites,
    size_decap_placement_for_target,
)
from .stackup import PackagingLevel, PackagingStack, default_stack
from .impedance import (
    ImpedanceProfile,
    ladder_ac_netlist,
    pdn_impedance,
    pdn_impedance_mna,
    size_die_decap_for_target,
    size_grid_decap_for_target,
    target_impedance_ohm,
)
from .transient import PDNStage, PDNTransient, droop_and_settle
from .grid_transient import (
    GridTransientPDN,
    GridTransientResult,
)
from .thermal import StackTemperatures, ThermalStack
from .ac import (
    ACNetlist,
    ACSolution,
    ACSweepSolution,
    CompiledACNetlist,
    impedance_at,
    solve_ac,
)

__all__ = [
    "VerticalInterconnect",
    "InterconnectArray",
    "BGA",
    "C4_BUMP",
    "TSV",
    "MICRO_BUMP",
    "ADVANCED_CU_PAD",
    "TABLE_I",
    "table_i_rows",
    "Netlist",
    "CompiledNetlist",
    "Resistor",
    "CurrentSource",
    "VoltageSource",
    "solve_dc",
    "DCSolution",
    "FactorizedPDN",
    "FastPoissonOperator",
    "StructuredGridPDN",
    "StructuredSolveError",
    "dct2_basis",
    "poisson_mode_eigenvalues",
    "sheet_resistance",
    "plane_resistance",
    "annular_spreading_resistance",
    "disk_edge_feed_resistance",
    "PowerMap",
    "hotspot_trajectory",
    "MeshDesign",
    "Source",
    "DecapDensity",
    "DecapMap",
    "GridPDN",
    "GridSolution",
    "GridACPDN",
    "GridACSweepSolution",
    "GridImpedanceMap",
    "PackagingLevel",
    "PackagingStack",
    "default_stack",
    "ImpedanceProfile",
    "pdn_impedance",
    "pdn_impedance_mna",
    "ladder_ac_netlist",
    "target_impedance_ohm",
    "size_die_decap_for_target",
    "size_grid_decap_for_target",
    "PlacementResult",
    "VRSiteSelection",
    "optimize_decap_placement",
    "prolong_density",
    "restrict_density",
    "select_vr_sites",
    "size_decap_placement_for_target",
    "PDNStage",
    "PDNTransient",
    "droop_and_settle",
    "GridTransientPDN",
    "GridTransientResult",
    "ThermalStack",
    "StackTemperatures",
    "ACNetlist",
    "ACSolution",
    "ACSweepSolution",
    "CompiledACNetlist",
    "solve_ac",
    "impedance_at",
]
