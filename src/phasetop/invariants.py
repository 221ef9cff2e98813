"""Topological invariants: Chern numbers by two independent routes, the
Kane-Mele integer by boundary winding and by zero census, Berry curvature
fields, the per-group verification pipeline, and the scan of a linear TRI
deformation path.

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
    Tolerances,
    check_tri,
    find_gapped_groups,
    frame_residuals,
    group_for_range,
    kramers_check,
    smooth_frame,
    spectrum_on_grid,
    transition_loops,
)
from .errors import (
    ConfigError,
    DomainError,
    LoopStepError,
    PhasetopError,
    ResolutionError,
    TRIViolationError,
)
from .phasespace import (
    MAX_LOOP_SAMPLES,
    Grid,
    Manifold,
    edge_points,
    plaquette_sums,
    refine_grid,
)


# fixed cutoffs; a config cannot set these
LINK_FLOOR = 1e-6                 # smallest admissible |det| of a plaquette link
FLUX_CAP = np.pi - 0.1            # largest admissible |plaquette flux|
CENSUS_EDGE_CAP = np.pi - 0.2     # pf M phase step that puts a zero on an edge
PF_HARD_FLOOR = 1e-12             # |pf M| below which pf M vanishes at a point
CENSUS_EDGE_PARTS = 16            # equal parts a census edge is cut into


def chern_plaquette(vectors: np.ndarray, grid: Grid) -> tuple[np.ndarray, int]:
    """(flux, c): per-plaquette Berry flux (radians) and the gauge-invariant
    lattice Chern number, from per-vertex spanning frames.

    vectors is a (V, N_A, N_B) stack of orthonormal columns spanning the band
    group at each vertex; no smoothness is required.  The link on a grid
    edge, from its lower vid x to its higher y, is det(u(x)^dagger u(y)), one
    per edge; a side that runs against the edge reads its conjugate.  The
    flux F_P is the principal value of the summed link phases around the
    plaquette in the declared flux orientation; c = (1/2pi) sum F_P is an
    exact integer.  A square frame (N_B = N_A, the whole bundle) is unitary,
    so its link is conj(det u(x)) det u(y): one determinant per vertex.  Any
    other frame takes its links from _links, the link kernel that the census
    split shares, on the frames of at most n_plaquettes edges at a time.
    """
    if vectors.shape[-1] == vectors.shape[-2]:
        dets = np.linalg.det(vectors)
        links = dets[grid.edges[:, 0]].conj() * dets[grid.edges[:, 1]]
    else:  # one link per grid edge, gathering the frames of at most P edges at a time
        step = grid.n_plaquettes
        links = np.concatenate([
            _links(vectors[a], vectors[b])
            for a, b in (grid.edges[s:s + step].T for s in range(0, len(grid.edges), step))])
    # self-links at a repeated pole corner are exactly 1 and harmless
    if np.any(np.abs(links) <= LINK_FLOOR):
        raise ResolutionError(
            "vanishing link modulus: band group aliased between adjacent "
            "vertices; refine the grid or re-check the gap"
        )
    # declared flux orientation (see module docstring)
    flux = -np.angle(np.exp(1j * plaquette_sums(grid, np.angle(links))))
    worst = float(np.max(np.abs(flux)))
    if worst >= FLUX_CAP:
        raise ResolutionError(
            f"plaquette flux {worst:.3f} too close to pi; refine the grid"
        )
    c = float(flux.sum()) / (2.0 * np.pi)
    c_int = int(round(c))
    if abs(c - c_int) > 1e-6:
        raise ResolutionError(f"total flux/2pi = {c!r} is not an integer")
    return flux, c_int


def _links(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """det(ua^dagger ub) for two aligned stacks of (N_A, N_B) frames, of any
    leading shape: rank 1 to 3 by Leibniz over the column inner products,
    wider frames by einsum overlaps and np.linalg.det."""
    ua = ua.conj()
    nb = ua.shape[-1]
    if nb > 3:
        return np.linalg.det(np.einsum("...ji,...jk->...ik", ua, ub))
    overlaps = [[np.einsum("...j,...j->...", ua[..., i], ub[..., k]) for k in range(nb)]
                for i in range(nb)]
    return numkit.leibniz_det(np.moveaxis(np.array(overlaps), (0, 1), (-2, -1)))


def curvature_tr_evenness(flux: np.ndarray, grid: Grid) -> float:
    """Max |F_P - F_{tau(P)}|; zero for exactly TRI fields."""
    return float(np.max(np.abs(flux - flux[grid.tau_plaq])))


def evenness_tolerance(flux: np.ndarray, rel: float = Tolerances.evenness_rel) -> float:
    return rel * float(np.max(np.abs(flux))) + 1e-9


def _oriented_sum(windings) -> int:
    """sum_i (-1)^i w_i: the boundary loops' induced orientation alternates."""
    return sum((-1) ** i * w for i, w in enumerate(windings))


def chern_winding(loops: np.ndarray) -> int:
    """Chern number as the oriented boundary sum of det U windings over a
    stack of transition loops; always even for TRI groups on the torus."""
    return _oriented_sum(numkit.det_winding(u) for u in loops)


def _m_values(data: np.ndarray, t: AntiUnitary) -> np.ndarray:
    """M = u^dagger T u for a (V, N_A, N_B) stack of frames."""
    return np.einsum("vji,vjk->vik", data.conj(), t.apply(data))


def m_field(frame: Frame, t: AntiUnitary) -> np.ndarray:
    """pf M per domain vertex for M(x) = <u_n(x), T u_n'(x)>; an odd rank
    raises DomainError.  For fermionic T, M is skew for every frame, and
    numkit.pfaffian refuses one that is not."""
    if frame.group.rank % 2:
        raise DomainError("Kane-Mele index needs even band-group rank")
    return numkit.pfaffian(_m_values(frame.data, t))


def km_boundary(grid: Grid, steps: np.ndarray) -> int:
    """The Kane-Mele integer: the oriented sum of pf M windings over grid's
    boundary loops, from steps, the pf M step along each grid edge, lower
    vid to higher.  A loop step reads its edge's step signed by loop_sign.
    Raises ResolutionError when a loop winding is not integral."""
    w = np.sum(grid.loop_sign * steps[grid.loop_edge], axis=1) / (2.0 * np.pi)
    if not np.all(np.abs(w - np.round(w)) <= 1e-6):
        raise ResolutionError(f"pf M boundary windings {w.tolist()} are not integral")
    return _oriented_sum(np.round(w).astype(int).tolist())


def km_census(grid: Grid, steps: np.ndarray) -> list:
    """The indexed zeros of pf M inside the fundamental domain of grid: a
    (plaquette id, index) entry per plaquette of nonzero winding, from the
    same steps as km_boundary.  Every interior edge enters its two
    plaquettes with opposite signs, so the indices sum to the boundary
    winding exactly.  Raises ResolutionError when a plaquette winding is
    not integral."""
    w = plaquette_sums(grid, steps, slice(grid.n_domain_plaquettes)) / (2.0 * np.pi)
    wi = np.round(w)
    if not np.all(np.abs(w - wi) <= 1e-6):  # a NaN winding is not integral either
        raise ResolutionError("plaquette winding is not integral")
    return [(int(p), int(wi[p])) for p in np.flatnonzero(wi)]


def _split_failure(edge: int, cause: str) -> ResolutionError:
    return ResolutionError(f"split of grid edge {int(edge)} failed: {cause}")


def _split_steps(h_field: HamiltonianField, frame: Frame, pf: np.ndarray,
                 edge_ids: np.ndarray, gap_floor: float) -> np.ndarray:
    """The pf M step along each grid edge of edge_ids, lower vid to higher,
    re-measured on sub-points of the edge.

    Each edge is cut once into CENSUS_EDGE_PARTS equal parts, and H is
    solved at the interior points only.  No frame is moved there: the frame
    that parallel transport from the edge's first vertex would give is the
    sub-point's slab times a unitary G, and pf M(u G) = conj(det G) pf M(u),
    where det G is the running product of the phases of the links
    det(chain[k+1]^dagger chain[k]) (_links) along the chain from that
    vertex through the sub-points.  The last sub-step ends on the vertex
    value of pf M, so the summed sub-steps differ from the principal step by
    a whole number of turns.  An edge whose sub-steps all stay below
    CENSUS_EDGE_CAP takes their sum; an edge still at the cap is settled
    when that sum equals, within 1e-6, the sum over every other point of the
    same walk (half as many parts): along a sub-segment that misses a simple
    zero, the phase of pf M changes by less than pi.  Raises ResolutionError
    naming the edge and the cause when a split fails: a group gap at or
    below gap_floor, a link modulus at or below LINK_FLOOR or |pf M| below
    PF_HARD_FLOOR at a sub-point, or an edge at the cap whose two sums
    differ.
    """
    grid, group = frame.grid, frame.group
    edges = grid.edges[edge_ids]
    shape = frame.data.shape[1:]
    n = CENSUS_EDGE_PARTS
    pts = edge_points(grid.manifold, grid.points[edges[:, 0]], grid.points[edges[:, 1]], n)
    spec = Spectrum.from_stack(h_field(pts.reshape(-1, 2)))  # off-grid points
    gaps = spec.gaps_around(group.first, group.last)
    worst = np.argmin(gaps)
    if gaps[worst] <= gap_floor:
        raise _split_failure(edge_ids[worst // (n - 1)], f"group gap {gaps[worst]:.3e} <= "
                             f"gap floor {gap_floor:g} at a sub-point")
    slabs = spec.band_vectors(group).reshape(len(edges), n - 1, *shape)
    # the links along the chain from the edge's first vertex through the sub-points
    chain = np.concatenate([frame.data[edges[:, :1]], slabs], axis=1)
    links = _links(chain[:, 1:], chain[:, :-1])
    worst = np.argmin(np.abs(links))
    if abs(links.flat[worst]) <= LINK_FLOOR:
        raise _split_failure(edge_ids[worst // (n - 1)], f"|link| = "
                             f"{abs(links.flat[worst]):.3e} <= link floor {LINK_FLOOR:g} "
                             "at a sub-point")
    # pf M(u G) = conj(det G) pf M(u), det G the running product of link phases
    inner = (numkit.pfaffian(_m_values(slabs.reshape(-1, *shape), h_field.t))
             * np.cumprod(links / np.abs(links), axis=1).conj().ravel())
    worst = np.argmin(np.abs(inner))
    if abs(inner[worst]) < PF_HARD_FLOOR:
        raise _split_failure(edge_ids[worst // (n - 1)], f"|pf M| = {abs(inner[worst]):.3e} "
                             f"< {PF_HARD_FLOOR:g} at a sub-point")
    walk = np.concatenate([pf[edges[:, :1]], inner.reshape(len(edges), n - 1),
                           pf[edges[:, 1:]]], axis=1)
    sub = np.angle(walk[:, 1:] / walk[:, :-1])
    summed, half = sub.sum(axis=1), np.angle(walk[:, 2::2] / walk[:, :-2:2]).sum(axis=1)
    stuck = np.max(np.abs(sub), axis=1) >= CENSUS_EDGE_CAP
    off = np.flatnonzero(stuck & (np.abs(summed - half) > 1e-6))
    if off.size:
        e = off[0]
        raise _split_failure(edge_ids[e], f"a sub-step is at the cap after {n} parts, and "
                             f"the summed step {summed[e]:.6f} differs from the {n // 2}-part "
                             f"sum {half[e]:.6f}")
    return summed


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
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report as a strict-JSON-ready dict of Python scalars; a group
        that holds every band has no bounding gap, so its min_gap is None."""
        return {**asdict(self), "min_gap": None if self.min_gap == np.inf else self.min_gap}

    def violations(self) -> list:
        """One record per theorem check that this verified group fails: the
        parity rule, the cross-method Chern match, curvature TR evenness,
        2k = c and census total = k.  On the torus parity_ok holds only when
        c and the rank are both even.  An undefined k or census fails
        nothing."""
        checks = (
            (self.parity_ok, {"kind": "parity", "c": self.c_plaquette, "rank": self.rank}),
            (self.consistent, {"kind": "cross-method", "c_plaquette": self.c_plaquette,
                               "c_winding": self.c_winding}),
            (self.evenness_ok, {"kind": "curvature-evenness",
                                "residual": self.curvature_evenness}),
            (self.km_relation_ok is not False, {"kind": "km-relation", "k": self.k,
                                                "c": self.c_plaquette}),
            (self.census_ok is not False, {"kind": "census", "k": self.k,
                                           "census_total": self.census_total}),
        )
        return [record for ok, record in checks if not ok]


def _km_and_census(h_field, frame, pf, tol):
    """The Kane-Mele integer k and the zero census of pf M on the one
    fundamental domain, as two sums over one array of pf M steps, one per
    domain edge, lower vid to higher.

    The principal steps are taken once.  A step that is too large to trust
    is re-measured by _split_steps, and each edge is split at most once:
    first the boundary-loop edges whose step reaches numkit.MAX_LOOP_STEP,
    then the edges at CENSUS_EDGE_CAP that the boundary did not settle (a
    zero essentially on an edge, whose plaquette attribution is ambiguous;
    a plaquette that simply contains a zero has steps around pi/2).

    Returns (k, census, notes), the census as km_census's entries.  k and
    the census are None, with a note, on the symmetric stratum (|pf M| <
    PF_HARD_FLOOR at every domain vertex; it is frame-independent and
    tau-even, so it vanishes on the whole grid), when |pf M| <=
    tol.zero_floor on a boundary loop, and when a boundary split fails or a
    loop winding is not integral.  A refinement could not mend that: a
    split samples its edge more finely than a doubled grid, and a sub-point
    that fails a floor lies on the finer grid's edge too.  The census alone
    is None, with a note naming the cause, when |pf M| < PF_HARD_FLOOR at a
    domain vertex (a zero on a vertex lies in no one plaquette), when a
    census split fails, or when a plaquette winding is not integral.
    """
    grid = frame.grid
    tiny = np.flatnonzero(np.abs(pf) < PF_HARD_FLOOR)
    if tiny.size == pf.size:
        return None, None, ["KM index undefined: pf M vanishes at every domain "
                            "vertex (symmetric stratum)"]
    v = int(grid.boundary_loops.flat[np.argmin(np.abs(pf[grid.boundary_loops]))])
    if abs(pf[v]) <= tol.zero_floor:
        x, y = grid.points[v]
        return None, None, [f"KM index undefined: |pf M| = {abs(pf[v]):.3e} <= zero floor "
                            f"{tol.zero_floor:g} at boundary vertex {v}, ({x:.4f}, {y:.4f})"]
    a, b = grid.edges[grid.domain_edge_ids].T
    steps = np.zeros(len(grid.edges))
    # an edge at a vertex zero divides by zero; the census is then undefined
    with np.errstate(divide="ignore", invalid="ignore"):
        steps[grid.domain_edge_ids] = np.angle(pf[b] / pf[a])
    capped = np.abs(steps) >= CENSUS_EDGE_CAP
    # each loop step is its own edge, taken in loop order
    edges = grid.loop_edge[np.abs(steps[grid.loop_edge]) >= numkit.MAX_LOOP_STEP]
    try:
        if edges.size:
            steps[edges] = _split_steps(h_field, frame, pf, edges, tol.gap_floor)
        k = km_boundary(grid, steps)
    except ResolutionError as exc:
        return None, None, [f"KM index unresolved: {exc}"]
    notes = [f"KM boundary: {edges.size} steps split"] if edges.size else []
    if tiny.size:
        x, y = grid.points[tiny[0]]
        return k, None, notes + [
            f"census undefined: |pf M| < {PF_HARD_FLOOR:g} at {tiny.size} of "
            f"{grid.n_domain_vertices} domain vertices, the first vertex {int(tiny[0])} at "
            f"({x:.4f}, {y:.4f}); the census cannot place a zero that sits on a vertex"]
    n_capped = np.count_nonzero(capped)  # the note counts the boundary's edges too
    capped[edges] = False
    rest = np.flatnonzero(capped)
    try:
        if rest.size:
            steps[rest] = _split_steps(h_field, frame, pf, rest, tol.gap_floor)
        census = km_census(grid, steps)
    except ResolutionError as exc:
        return k, None, notes + [f"census unresolved: {exc}"]
    return k, census, notes + ([f"census: {n_capped} edges split"] if n_capped else [])


@dataclass(frozen=True)
class GroupFields:
    """The fields behind one group's report, on the grid the report names."""

    flux: np.ndarray                    # per-plaquette Berry flux (chern_plaquette)
    frame: Frame
    loops: np.ndarray                   # (loops, L, N_B, N_B) transition_loops of frame
    pf: np.ndarray | None               # pf M per domain vertex; None for odd rank


def _verify_once(h_field: HamiltonianField, band_range: tuple, grid: Grid, tol: Tolerances,
                 group_id: int, refinements: int) -> tuple[InvariantReport, GroupFields]:
    spectrum = spectrum_on_grid(h_field, grid)
    group = group_for_range(spectrum, *band_range, tol.gap_floor)

    slabs = spectrum.band_vectors(group)
    flux, c_plq = chern_plaquette(slabs, grid)
    evenness = curvature_tr_evenness(flux, grid)
    evenness_ok = evenness <= evenness_tolerance(flux, tol.evenness_rel)

    frame = smooth_frame(spectrum, group, grid)
    residuals = frame_residuals(frame, slabs[:grid.n_domain_vertices])

    loops, unitarity, symmetry = transition_loops(frame, h_field.t)
    c_wind = chern_winding(loops)
    sphere = grid.manifold == Manifold.SPHERE
    residuals["loop_unitarity"] = unitarity
    residuals["loop_antisymmetry" if sphere else "loop_skewness"] = symmetry
    kram = None if sphere else kramers_check(spectrum, grid)

    consistent = c_plq == c_wind
    nb = group.rank
    parity_ok = (c_plq - nb) % 2 == 0 if sphere else (c_plq % 2 == 0 and nb % 2 == 0)

    report = InvariantReport(
        group_id=group_id,
        first_band=group.first + 1,
        last_band=group.last + 1,
        rank=nb,
        min_gap=group.min_gap,
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

    pf = None
    if nb % 2 == 0:
        pf = m_field(frame, h_field.t)
        k, census, notes = _km_and_census(h_field, frame, pf, tol)
        report.k = k
        report.notes.extend(notes)
        if k is not None:
            report.km_relation_ok = 2 * k == c_plq
        if census is not None:
            report.census_total = sum(w for _, w in census)
            report.census_entries = census
            report.census_ok = report.census_total == k
            report.census_same_sign = len({np.sign(w) for _, w in census}) <= 1
    else:
        report.notes.append("odd rank: Pfaffian and KM index undefined")

    return report, GroupFields(flux=flux, frame=frame, loops=loops, pf=pf)


def verify_group(h_field: HamiltonianField, group: BandGroup, grid: Grid,
                 tol: Tolerances = Tolerances(), group_id: int = 0) -> InvariantReport:
    """verify_group_fields for group's band range, the report alone."""
    return verify_group_fields(h_field, (group.first, group.last), grid, tol, group_id)[0]


def verify_group_fields(h_field: HamiltonianField, band_range: tuple, grid: Grid,
                        tol: Tolerances = Tolerances(), group_id: int = 0,
                        ) -> tuple[InvariantReport, GroupFields]:
    """Run every invariant check for the band range (first, last), retrying on
    finer grids on resolution failures or cross-method disagreement before
    giving up; returns the report and its GroupFields, from the final
    (possibly refined) grid.  Each rung takes its BandGroup, and so its
    GapError, from its own spectrum.

    The retry goes after the direction that failed.  A det U boundary-loop
    phase step (LoopStepError; a pf M step is split instead)
    first doubles n_lon alone; any other trigger, or a failure on that grid,
    doubles n_lat as well, so no grid is finer than the first with both
    directions doubled once, and none has loops longer than
    MAX_LOOP_SAMPLES.  The report counts its retries in refinements and
    names each rung and its trigger in its notes ("refined to 24x256: phase
    step ...").  A resolution failure on the last rung is raised as a plain
    ResolutionError, so LoopStepError stays inside the ladder; a GapError is
    raised as it is, on any rung.  Each attempt reads h_field's spectrum
    through spectrum_on_grid, so the groups of one field share its spectrum
    on each grid, and a finer grid solves only its new vertices.  A
    persisting c_plaquette != c_winding is returned with consistent=False
    rather than raised, so callers can surface it in reports.
    """
    start, rungs = grid, []
    while True:
        lat, lon = _doublings(start, grid)
        last_rung = not (lat or lon)
        try:
            report, fields = _verify_once(h_field, band_range, grid, tol, group_id, len(rungs))
        except ResolutionError as exc:
            # only the message is kept: holding exc would tie its traceback
            # to this frame in a reference cycle
            if last_rung:
                if type(exc) is ResolutionError:
                    raise
                raise ResolutionError(str(exc)) from exc
            # a loop step doubles n_lon alone while n_lon may still double
            lat = lat and not (lon and isinstance(exc, LoopStepError))
            trigger = str(exc)
        else:
            if report.consistent or last_rung:
                report.notes[:0] = rungs
                if not report.consistent:
                    report.notes.append("cross-method Chern disagreement persisted"
                                        + (" after refinement" if rungs else ""))
                return report, fields
            trigger = (f"cross-method Chern disagreement, c_plaquette "
                       f"{report.c_plaquette} != c_winding {report.c_winding}")
        grid = refine_grid(grid, lat, lon)
        rungs.append(f"refined to {grid.n_lat}x{grid.n_lon}: {trigger}")


def _doublings(start: Grid, grid: Grid) -> tuple[bool, bool]:
    """Whether the retry ladder may still double n_lat and n_lon of grid:
    each direction at most once from start, and neither when the doubled
    loops of start would pass MAX_LOOP_SAMPLES.  The rung where neither may
    double is the last."""
    if 2 * start.n_lon > MAX_LOOP_SAMPLES:
        return False, False
    return grid.n_lat == start.n_lat, grid.n_lon == start.n_lon


def analyze_model(h_field: HamiltonianField, grid: Grid,
                  tol: Tolerances = Tolerances()):
    """The per-model pipeline: TRI check, spectrum, gapped groups, and the
    verification of each group against the field's one memoized spectrum.

    Returns (tri_residual, groups, results), where results[i] is group i's
    (InvariantReport, GroupFields) or the PhasetopError that stopped it.
    Raises TRIViolationError, which carries the residual, when the field is
    not TRI at tri_tol (controls are reported upstream).
    """
    tri_residual, tri_ok = check_tri(h_field, grid, tol.tri_tol)
    if not tri_ok:  # a NaN residual fails as well
        raise TRIViolationError(tri_residual, tol.tri_tol)
    groups = find_gapped_groups(spectrum_on_grid(h_field, grid), tol.gap_floor)
    results = []
    for gid, g in enumerate(groups):
        try:
            results.append(verify_group_fields(h_field, (g.first, g.last), grid, tol, gid))
        except PhasetopError as exc:
            results.append(exc)
    return tri_residual, groups, results


@dataclass(frozen=True)
class TriPath:
    """Gap and Chern record along a linear TRI interpolation."""

    samples: list                  # (s, min_gap, c or None) per sample
    verdict: str                   # "GAPPED-CONSTANT-C" or "GAP-CLOSES"
    closing_bracket: tuple | None  # (s_lo, s_hi) around a detected closing
    chern: int | None = None


def tri_path(
    h0: HamiltonianField,
    h1: HamiltonianField,
    grid: Grid,
    band_range: tuple,
    steps: int = 11,
    gap_floor: float = 1e-3,
    tri_tol: float = Tolerances.tri_tol,
) -> TriPath:
    """Scan H_s = (1-s) H0 + s H1 for gap closings and Chern constancy.

    Convex combinations of TRI fields with the same operator are TRI, so the
    tracked group's Chern number must be constant on gapped stretches; an
    endpoint whose TRI residual on grid exceeds tri_tol raises
    TRIViolationError, and one that is not gapped raises GapError.  When
    the Chern number differs between two gapped samples, a closing is certain
    in between.  A sample's c comes from chern_plaquette alone; it is None
    when the gap is at or below the floor, and also when chern_plaquette
    refuses the sample with a ResolutionError (flux cap or link floor), which
    the record does not tell apart.  All `steps` samples are probed first;
    then only the first event is bracketed: the first sample without c, or
    the first gapped change of c.  A change of c is bisected until the
    bracket is 1e-6 wide or a bisection sample has no c; that sample ends
    the bisection with the bracket as it stands, so a refused sample whose
    gap is well above the floor can leave it wide (see the deform item of
    ROADMAP.md).  The verdict is GAP-CLOSES either way.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ConfigError(f"steps must be an integer >= 2, got {steps!r}")
    if h0.n_a != h1.n_a or h0.manifold != h1.manifold:
        raise ConfigError("endpoints live on different spaces")
    if np.max(np.abs(h0.t.j - h1.t.j)) > 1e-12:
        raise ConfigError("endpoints carry different time-reversal operators")
    first, last = band_range
    # each endpoint field is evaluated and solved once: every probe mixes the
    # two stacks, and the s = 0 and s = 1 samples read the endpoint spectra
    ends = []
    for h in (h0, h1):
        hs = h(grid.points)
        residual = h.t.tri_residual(hs, grid)
        if not residual <= tri_tol:  # a NaN residual fails as well
            raise TRIViolationError(residual, tri_tol)
        spec = Spectrum.from_stack(hs)
        group_for_range(spec, first, last, gap_floor)
        ends.append((hs, spec))
    (hs0, spec0), (hs1, spec1) = ends
    solved = {0.0: spec0, 1.0: spec1}

    def probe(s: float):
        """(min_gap, c or None) of the tracked range at parameter s."""
        spec = solved[s] if s in solved else Spectrum.from_stack((1.0 - s) * hs0 + s * hs1)
        min_gap = spec.bounding_gap(first, last)
        if min_gap <= gap_floor:
            return min_gap, None
        group = BandGroup(first, last, min_gap)
        try:
            _, c = chern_plaquette(spec.band_vectors(group), grid)
        except ResolutionError:
            # flux concentration the grid cannot resolve: the group is
            # effectively degenerate at this scale, same as a closing
            return min_gap, None
        return min_gap, c

    records = [(float(s), *probe(float(s))) for s in np.linspace(0.0, 1.0, steps)]
    bracket = None
    for i, (s, _, c) in enumerate(records[:steps]):
        lo, _, c_lo = records[max(i - 1, 0)]
        if c is None:
            bracket = (lo, min(s + 1.0 / (steps - 1), 1.0))
            break
        if c != c_lo:
            # invariant forbids a gapped change of c: localize the closing
            hi = s
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                g_mid, c_mid = probe(mid)
                records.append((mid, g_mid, c_mid))
                if c_mid is None:
                    break
                if c_mid == c_lo:
                    lo = mid
                else:
                    hi = mid
            bracket = (lo, hi)
            break

    records.sort(key=lambda r: r[0])
    if bracket is not None:
        return TriPath(records, "GAP-CLOSES", bracket)
    # every sample is gapped and no two neighbours differ: c is constant
    return TriPath(records, "GAPPED-CONSTANT-C", None, chern=records[0][2])
