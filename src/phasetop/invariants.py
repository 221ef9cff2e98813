"""Topological invariants: Chern numbers by two independent routes, the
Kane-Mele integer by boundary winding and by zero census, Berry curvature
fields, and the per-group verification pipeline.

Orientation convention.  Plaquette corner lists are stored in coordinate
orientation; Berry fluxes are accumulated traversing each plaquette in the
reverse (d(phi)^d(theta), dp^dq) order.  With that declared orientation the
lattice total (1/2pi) sum F_P equals the boundary-winding Chern number
exactly, so the two pipelines can be required to agree integer-for-integer.
The boundary winding is one oriented sum over the fundamental domain's
boundary loops, whose induced orientation alternates in sign:
chern_winding gives c = sum_i (-1)^i wn det U_i over the loops that
transition_loops builds (wn det U on the sphere equator, wn det U+ -
wn det U- on the torus lines p = 0, pi), and km_boundary takes the same sum
of Pfaffian windings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import numkit
from .bands import (
    AntiUnitary,
    BandGroup,
    Frame,
    HamiltonianField,
    Spectrum,
    TransitionLoop,
    find_gapped_groups,
    frame_residuals,
    kramers_check,
    rotated_field,
    smooth_frame,
    spectrum_on_grid,
    transition_loops,
)
from .errors import (
    BoundaryZeroError,
    DegenerateConfigurationError,
    DomainError,
    GapError,
    PhasetopError,
    ResolutionError,
    TRIViolationError,
)
from .numkit import max_abs
from .phasespace import FundamentalDomain, Grid, Manifold, fundamental_domain, refine_grid


@dataclass(frozen=True)
class Tolerances:
    """The numerical thresholds a config can set; the underlying identities
    are exact integers, floating-point pipelines need these cutoffs."""

    tri_tol: float = 1e-9
    gap_floor: float = 1e-6
    zero_floor: float = 1e-4
    evenness_rel: float = 1e-6


# fixed cutoffs; a config cannot set these
LINK_FLOOR = 1e-6                 # smallest admissible |det| of a plaquette link
FLUX_CAP = np.pi - 0.1            # largest admissible |plaquette flux|
CENSUS_EDGE_CAP = np.pi - 0.2     # pf M phase step that puts a zero on an edge
PF_HARD_FLOOR = 1e-12             # |pf M| below which the zeros are not isolated
MAX_GRID_REFINEMENTS = 1          # each refinement doubles both grid directions
MAX_LOOP_SAMPLES = 2 ** 14        # no refinement past this many boundary samples


@dataclass(frozen=True)
class CurvatureField:
    """Per-plaquette Berry flux (radians) over the closed manifold."""

    grid: Grid
    flux: np.ndarray
    total: float

    @property
    def chern(self) -> int:
        return int(round(self.total / (2.0 * np.pi)))


def chern_plaquette(vectors: np.ndarray, grid: Grid):
    """Gauge-invariant lattice Chern number from per-vertex spanning frames.

    vectors is a (V, N_A, N_B) stack of orthonormal columns spanning the band
    group at each vertex; no smoothness is required.  The link on an oriented
    edge is det(u(x)^dagger u(y)) normalized to unit modulus; the flux F_P is
    the principal-value arg of the link product around the plaquette in the
    declared flux orientation; c = (1/2pi) sum F_P is an exact integer.
    """
    plq = grid.plaquettes
    link_prod = np.ones(plq.shape[0], dtype=complex)
    for a in range(4):
        va = plq[:, a]
        vb = plq[:, (a + 1) % 4]
        ov = np.einsum("vji,vjk->vik", vectors[va].conj(), vectors[vb])
        dets = np.linalg.det(ov)
        mags = np.abs(dets)
        # self-links at a repeated pole corner are exactly 1 and harmless
        if np.any(mags <= LINK_FLOOR):
            raise ResolutionError(
                "vanishing link modulus: band group aliased between adjacent "
                "vertices; refine the grid or re-check the gap"
            )
        link_prod *= dets / mags
    flux = -np.angle(link_prod)  # declared flux orientation (see module docstring)
    worst = float(np.max(np.abs(flux)))
    if worst >= FLUX_CAP:
        raise ResolutionError(
            f"plaquette flux {worst:.3f} too close to pi; refine the grid"
        )
    total = float(flux.sum())
    c = total / (2.0 * np.pi)
    c_int = int(round(c))
    if abs(c - c_int) > 1e-6:
        raise ResolutionError(f"total flux/2pi = {c!r} is not an integer")
    return CurvatureField(grid=grid, flux=flux, total=total), c_int


def curvature_tr_evenness(curv: CurvatureField, grid: Grid) -> float:
    """Max |F_P - F_{tau(P)}|; zero for exactly TRI fields."""
    return float(np.max(np.abs(curv.flux - curv.flux[grid.tau_plaq])))


def evenness_tolerance(curv: CurvatureField, rel: float = 1e-6) -> float:
    return rel * float(np.max(np.abs(curv.flux))) + 1e-9


def _oriented_sum(windings) -> int:
    """sum_i (-1)^i w_i: the boundary loops' induced orientation alternates."""
    return sum((-1) ** i * w for i, w in enumerate(windings))


def chern_winding(loops: tuple[TransitionLoop, ...]) -> int:
    """Chern number as the oriented boundary sum of det U windings; always
    even for TRI groups on the torus."""
    return _oriented_sum(numkit.winding_number(loop.det_loop()) for loop in loops)


@dataclass(frozen=True)
class MField:
    """Overlap matrix field M(x) = <u_n(x), T u_n'(x)> over a domain."""

    domain: FundamentalDomain
    values: np.ndarray           # (n_dom, N_B, N_B), skew-symmetric
    pf: np.ndarray | None        # (n_dom,) Pfaffians (even rank only)
    skew_residual: float
    small_pf_vertices: np.ndarray | None  # vids with |pf| below the zero floor

    @property
    def rank(self) -> int:
        return self.values.shape[1]


def m_field(frame: Frame, t: AntiUnitary, zero_floor: float = 1e-4) -> MField:
    """M(x) per domain vertex; skew-symmetry is exact for fermionic TR."""
    m = np.einsum("vji,vjk->vik", frame.data.conj(), t.apply(frame.data))
    skew = float(max_abs(m + m.transpose(0, 2, 1)))
    if skew > 1e-8:
        raise DomainError(f"M field is not skew-symmetric ({skew:.2e})")
    nb = m.shape[1]
    pf = None
    small = None
    if nb % 2 == 0:
        pf = numkit.pfaffian(m)
        small = frame.domain.vertex_ids[np.abs(pf) < zero_floor]
    return MField(domain=frame.domain, values=m, pf=pf,
                  skew_residual=skew, small_pf_vertices=small)


def _pf_on_loop(mf: MField, loop: np.ndarray, zero_floor: float) -> np.ndarray:
    pf = mf.pf[mf.domain.local_index[loop]]
    lo = float(np.min(np.abs(pf)))
    if lo <= zero_floor:
        raise BoundaryZeroError(
            f"|pf M| = {lo:.3e} <= zero floor {zero_floor:g} on a boundary loop; "
            "rotate the fundamental domain and retry"
        )
    return pf


def km_boundary(mf: MField, zero_floor: float = 1e-4) -> int:
    """Kane-Mele integer: the oriented boundary sum of pf M windings."""
    if mf.pf is None:
        raise DomainError("Kane-Mele index needs even band-group rank")
    return _oriented_sum(numkit.winding_number(_pf_on_loop(mf, loop, zero_floor))
                         for loop in mf.domain.boundary_loops)


@dataclass(frozen=True)
class ZeroCensus:
    """Indexed zeros of pf M inside the fundamental domain."""

    entries: list          # (plaquette id, index) with nonzero index
    total: int


def km_census(mf: MField, edge_cap: float = CENSUS_EDGE_CAP) -> ZeroCensus:
    """Per-plaquette winding of pf M over the domain interior.

    The sum of principal-value phase steps telescopes, so the census total
    equals the boundary winding exactly.  A step within `edge_cap` of pi means
    a zero sits essentially on an edge and its plaquette attribution is
    ambiguous: refine and retry.  (A plaquette that simply contains a zero has
    steps around pi/2; that is fine and expected.)
    """
    if mf.pf is None:
        raise DomainError("zero census needs even band-group rank")
    dom = mf.domain
    pf = mf.pf
    tiny = np.abs(pf) < PF_HARD_FLOOR
    if np.any(tiny):
        raise DegenerateConfigurationError(
            f"pf M vanishes at {int(tiny.sum())} domain vertices; zeros are not "
            "isolated points (symmetric stratum)"
        )
    vals = pf[dom.local_index[dom.grid.plaquettes[dom.plaq_ids]]]  # (P, 4)
    steps = np.angle(np.roll(vals, -1, axis=1) / vals)
    on_edge = np.max(np.abs(steps), axis=1) >= edge_cap
    w = steps.sum(axis=1) / (2.0 * np.pi)
    wi = np.round(w)
    fractional = ~(np.abs(w - wi) <= 1e-6)  # a NaN winding is not integral either
    failed = np.flatnonzero(on_edge | fractional)
    if failed.size:
        first = failed[0]  # report the first failure in plaquette order
        if on_edge[first]:
            raise ResolutionError(
                f"pf M phase step near pi on plaquette {int(dom.plaq_ids[first])}; "
                "a zero lies on an edge, refine the grid"
            )
        raise ResolutionError("plaquette winding is not integral")
    wi = wi.astype(int)
    nonzero = np.flatnonzero(wi)
    entries = [(int(dom.plaq_ids[p]), int(wi[p])) for p in nonzero]
    return ZeroCensus(entries=entries, total=int(wi.sum()))


@dataclass
class InvariantReport:
    """Everything the pipeline verifies for one gapped band group."""

    group_id: int
    first_band: int            # 1-based in reports
    last_band: int
    rank: int
    min_gap: float
    c_plaquette: int
    c_winding: int
    consistent: bool
    parity_ok: bool
    k: int | None = None
    km_relation_ok: bool | None = None
    census_total: int | None = None
    census_ok: bool | None = None
    census_entries: list = field(default_factory=list)
    census_same_sign: bool | None = None
    kramers_residual: float | None = None
    curvature_evenness: float | None = None
    evenness_ok: bool | None = None
    residuals: dict = field(default_factory=dict)
    grid_n_lat: int = 0
    grid_n_lon: int = 0
    refinements: int = 0
    domain_rotations: int = 0
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = asdict(self)
        for key, val in out.items():
            if isinstance(val, (np.integer,)):
                out[key] = int(val)
            elif isinstance(val, (np.floating,)):
                out[key] = float(val)
        out["residuals"] = {k: float(v) for k, v in out["residuals"].items()}
        out["census_entries"] = [[int(p), int(w)] for p, w in out["census_entries"]]
        return out


_ROTATION_ANGLES = (0.0, 0.37, 0.81, 1.33, 1.91, 2.47, 2.95, 0.59)


def _km_with_rotations(h_field, group, grid, domain, mf, tol):
    """Boundary winding and census, reseating the domain away from pf zeros.

    Returns (k, census, rotations_used, notes).  The boundary index k is kept
    as soon as one rotated domain has an admissible boundary; the census gets
    a few more rotations of its own when a zero hugs a plaquette edge, and is
    reported as undefined (with a note) when none works.
    """
    notes = []
    k = None
    census = None
    census_note = None
    for attempt, angle in enumerate(_ROTATION_ANGLES):
        if attempt > 0:
            h_rot = rotated_field(h_field, angle)
            spec = spectrum_on_grid(h_rot, grid)
            frame = smooth_frame(spec, group, domain)
            mf = m_field(frame, h_rot.t, tol.zero_floor)
        try:
            k_here = km_boundary(mf, tol.zero_floor)
        except BoundaryZeroError:
            continue
        if k is None:
            k = k_here
        elif k_here != k:
            # winding is domain-rotation invariant; a mismatch means the
            # boundary loop was under-resolved somewhere
            raise ResolutionError(
                f"boundary Pfaffian winding changed under domain rotation "
                f"({k} vs {k_here}); refine the grid"
            )
        try:
            census = km_census(mf)
            census_note = None
            break
        except DegenerateConfigurationError as exc:
            census_note = f"census undefined: {exc}"
            break
        except ResolutionError as exc:
            census_note = f"census unresolved: {exc}"
            continue
    if k is None:
        raise DegenerateConfigurationError(
            "no admissible fundamental domain found: pf M not bounded away "
            f"from zero on any of {len(_ROTATION_ANGLES)} rotated boundaries"
        )
    if census_note:
        notes.append(census_note)
    return k, census, attempt, notes


@dataclass(frozen=True)
class GroupFields:
    """The fields behind one group's report, on the grid the report names."""

    curvature: CurvatureField
    m_field: MField | None     # unrotated domain; even rank only


def _verify_once(h_field: HamiltonianField, group: BandGroup, grid: Grid,
                 tol: Tolerances, group_id: int, refinements: int,
                 spectrum: Spectrum | None) -> tuple[InvariantReport, GroupFields]:
    if spectrum is None:
        spectrum = spectrum_on_grid(h_field, grid)
    min_gap = spectrum.bounding_gap(group.first, group.last)
    if min_gap <= tol.gap_floor:
        raise GapError(f"group [{group.first}, {group.last}] not gapped on this grid")

    slabs = spectrum.band_vectors(group)
    curv, c_plq = chern_plaquette(slabs, grid)
    evenness = curvature_tr_evenness(curv, grid)
    evenness_ok = evenness <= evenness_tolerance(curv, tol.evenness_rel)

    domain = fundamental_domain(grid)
    frame = smooth_frame(spectrum, group, domain)
    orth, span = frame_residuals(frame, slabs[domain.vertex_ids])

    residuals = {
        "frame_orthonormality": orth,
        "frame_span": span,
        "frame_max_step": frame.max_step,
        "frame_continuity_const": frame.continuity_const,
    }

    loops = transition_loops(frame, h_field.t)
    c_wind = chern_winding(loops)
    sphere = grid.manifold == Manifold.SPHERE
    residuals["loop_unitarity"] = max(loop.unitarity for loop in loops)
    residuals["loop_antisymmetry" if sphere else "loop_skewness"] = max(
        loop.symmetry_residual for loop in loops
    )
    kram = None if sphere else kramers_check(spectrum, grid)

    consistent = c_plq == c_wind
    nb = group.rank
    parity_ok = (c_plq - nb) % 2 == 0 if sphere else (c_plq % 2 == 0 and nb % 2 == 0)

    report = InvariantReport(
        group_id=group_id,
        first_band=group.first + 1,
        last_band=group.last + 1,
        rank=nb,
        min_gap=min_gap,
        c_plaquette=c_plq,
        c_winding=c_wind,
        consistent=consistent,
        parity_ok=parity_ok,
        kramers_residual=kram,
        curvature_evenness=evenness,
        evenness_ok=evenness_ok,
        residuals=residuals,
        grid_n_lat=grid.n_lat,
        grid_n_lon=grid.n_lon,
        refinements=refinements,
    )

    mf = None
    if nb % 2 == 0:
        mf = m_field(frame, h_field.t, tol.zero_floor)
        residuals["m_skew"] = mf.skew_residual
        try:
            k, census, rotations, notes = _km_with_rotations(
                h_field, group, grid, domain, mf, tol
            )
            report.k = k
            report.domain_rotations = rotations
            report.notes.extend(notes)
            report.km_relation_ok = 2 * k == c_plq
            if census is not None:
                report.census_total = census.total
                report.census_entries = census.entries
                report.census_ok = census.total == k
                signs = {np.sign(w) for _, w in census.entries}
                report.census_same_sign = len(signs) <= 1
        except DegenerateConfigurationError as exc:
            report.k = None
            report.km_relation_ok = None
            report.notes.append(f"KM index undefined: {exc}")
    else:
        report.notes.append("odd rank: Pfaffian and KM index undefined")

    return report, GroupFields(curvature=curv, m_field=mf)


def verify_group(h_field: HamiltonianField, group: BandGroup, grid: Grid,
                 tol: Tolerances = Tolerances(), group_id: int = 0,
                 spectrum: Spectrum | None = None) -> InvariantReport:
    """Run every invariant check for one gapped group, refining the grid once
    on resolution failures or cross-method disagreement before giving up.

    spectrum, when given, is h_field's spectrum on grid; the unrefined
    attempt uses it instead of solving its own.  A persisting
    c_plaquette != c_winding is returned with consistent=False rather than
    raised, so callers can surface it in reports.
    """
    return verify_group_fields(h_field, group, grid, tol, group_id, spectrum)[0]


def verify_group_fields(h_field: HamiltonianField, group: BandGroup, grid: Grid,
                        tol: Tolerances = Tolerances(), group_id: int = 0,
                        spectrum: Spectrum | None = None,
                        ) -> tuple[InvariantReport, GroupFields]:
    """verify_group, also returning the report's GroupFields, taken from the
    final (possibly refined) grid."""
    for refinements in range(MAX_GRID_REFINEMENTS + 1):
        # both triggers, a ResolutionError and a cross-method disagreement,
        # refine only within the refinement count and the loop-sample cap
        may_refine = (refinements < MAX_GRID_REFINEMENTS
                      and grid.n_lon * 2 <= MAX_LOOP_SAMPLES)
        try:
            report, fields = _verify_once(h_field, group, grid, tol, group_id,
                                          refinements, spectrum)
        except ResolutionError:
            if not may_refine:
                raise
        else:
            if report.consistent or not may_refine:
                if not report.consistent:
                    report.notes.append("cross-method Chern disagreement persisted"
                                        + (" after refinement" if refinements else ""))
                return report, fields
        grid = refine_grid(grid)
        spectrum = None


def analyze_model(h_field: HamiltonianField, grid: Grid,
                  tol: Tolerances = Tolerances()):
    """The per-model pipeline: TRI check, spectrum, gapped groups, and the
    verification of each group against that one spectrum.

    Returns (tri_residual, groups, results), where results[i] is group i's
    (InvariantReport, GroupFields) or the PhasetopError that stopped it.
    Raises TRIViolationError, which carries the residual, when the field is
    not TRI at tri_tol (controls are reported upstream).
    """
    hs = h_field(grid.points)  # one evaluation serves the TRI check and eigh
    tri_residual = h_field.t.tri_residual(hs, grid)
    if not tri_residual <= tol.tri_tol:  # a NaN residual fails as well
        raise TRIViolationError(tri_residual, tol.tri_tol)
    spectrum = Spectrum.from_stack(hs, grid)
    groups = find_gapped_groups(spectrum, tol.gap_floor)
    results = []
    for gid, group in enumerate(groups):
        try:
            results.append(verify_group_fields(h_field, group, grid, tol, gid,
                                               spectrum))
        except PhasetopError as exc:
            results.append(exc)
    return tri_residual, groups, results
