"""phasetop: topological invariants of fermionic time-reversal-invariant
band bundles over two-dimensional phase spaces (sphere and torus)."""

from .bands import (
    AntiUnitary,
    BandGroup,
    Frame,
    HamiltonianField,
    Spectrum,
    Tolerances,
    check_tri,
    find_gapped_groups,
    group_for_range,
    kramers_check,
    smooth_frame,
    spectrum_on_grid,
    transition_loops,
)
from .invariants import (
    InvariantReport,
    analyze_model,
    chern_plaquette,
    chern_winding,
    curvature_tr_evenness,
    km_boundary,
    km_census,
    m_field,
    verify_group,
)
from .numkit import det_winding, pfaffian, polar_unitary, winding_number
from .phasespace import Grid, Manifold, build_grid, refine_grid

__version__ = "0.1.0"

__all__ = [
    "AntiUnitary",
    "BandGroup",
    "Frame",
    "Grid",
    "HamiltonianField",
    "InvariantReport",
    "Manifold",
    "Spectrum",
    "Tolerances",
    "analyze_model",
    "build_grid",
    "check_tri",
    "chern_plaquette",
    "chern_winding",
    "curvature_tr_evenness",
    "det_winding",
    "find_gapped_groups",
    "group_for_range",
    "km_boundary",
    "km_census",
    "kramers_check",
    "m_field",
    "pfaffian",
    "polar_unitary",
    "refine_grid",
    "smooth_frame",
    "spectrum_on_grid",
    "transition_loops",
    "verify_group",
    "winding_number",
]
