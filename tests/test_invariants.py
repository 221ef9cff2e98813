import dataclasses
import gc
import re

import numpy as np
import pytest

from phasetop import bands, gauge, invariants, models, numkit, phasespace
from phasetop.errors import (
    DomainError,
    GapError,
    PhasetopError,
    ResolutionError,
    TRIViolationError,
)
from phasetop.invariants import Tolerances
from phasetop.phasespace import Manifold, build_grid
from finer_grid import doubled_grid_moves
from oracles import m_matrices
from test_phasespace import domain_rows, plaquette_solid_angles

SPHERE_GRID = build_grid(Manifold.SPHERE, 16, 32)
TORUS_GRID = build_grid(Manifold.TORUS, 16, 128)
TOL = Tolerances(gap_floor=0.05)


def sphere_setup(h, first, last, grid=SPHERE_GRID, gap_floor=0.05):
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, first, last, gap_floor)
    frame = bands.smooth_frame(spec, group, grid)
    return spec, group, grid, frame


# ---------------------------------------------------------------------------
# plaquette Chern and curvature


def test_chern_plaquette_monopole_flux():
    # spin-1/2 lower band carries uniform curvature: flux per plaquette is
    # half the plaquette solid angle, total 2*pi in magnitude
    h = models.rotor_spin(0.5)
    spec = bands.spectrum_on_grid(h, SPHERE_GRID)
    group = bands.group_for_range(spec, 0, 0, 0.5)
    flux, c = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    assert c == 1
    assert abs(flux.sum()) == pytest.approx(2 * np.pi, abs=1e-9)
    omega = plaquette_solid_angles(SPHERE_GRID)
    assert np.max(np.abs(flux - 0.5 * omega)) <= 2e-3


def test_chern_plaquette_constant_band_is_zero():
    t = bands.AntiUnitary(np.kron(1j * np.array([[0, -1j], [1j, 0]]), np.eye(2)))

    def const(pts):
        pts = np.atleast_2d(pts)
        flat = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
        return np.broadcast_to(flat, (pts.shape[0], 4, 4)).copy()

    h = bands.HamiltonianField(Manifold.SPHERE, t, const)
    spec = bands.spectrum_on_grid(h, SPHERE_GRID)
    group = bands.group_for_range(spec, 0, 1, 0.5)
    flux, c = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    assert c == 0
    assert numkit.max_abs(flux) <= 1e-12


def test_chern_plaquette_stable_across_resolutions():
    h = models.torus_doubled_chern(m=1.0)
    values = []
    for n in (12, 16, 24):
        grid = build_grid(Manifold.TORUS, n, n)
        spec = bands.spectrum_on_grid(h, grid)
        group = bands.group_for_range(spec, 0, 1, 0.5)
        _, c = invariants.chern_plaquette(spec.band_vectors(group), grid)
        values.append(c)
    assert len(set(values)) == 1
    assert abs(values[0]) == 2


def test_curvature_evenness_tri_vs_broken():
    h = models.random_tri("sphere", 4, seed=12)
    spec = bands.spectrum_on_grid(h, SPHERE_GRID)
    group = bands.find_gapped_groups(spec, 0.05)[0]
    flux, _ = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    res = invariants.curvature_tr_evenness(flux, SPHERE_GRID)
    assert res <= invariants.evenness_tolerance(flux)

    broken = models.tri_broken(h, breaking_strength=0.5, seed=2)
    bspec = bands.spectrum_on_grid(broken, SPHERE_GRID)
    bgroup = bands.find_gapped_groups(bspec, 0.05)[0]
    bflux, _ = invariants.chern_plaquette(bspec.band_vectors(bgroup), SPHERE_GRID)
    bres = invariants.curvature_tr_evenness(bflux, SPHERE_GRID)
    assert bres > 100 * invariants.evenness_tolerance(bflux)


# ---------------------------------------------------------------------------
# winding Chern


def test_chern_winding_normal_form_loops():
    loop = gauge.normal_form_loop(3, 1, 64)
    assert invariants.chern_winding((loop,)) == 3
    loop = gauge.normal_form_loop(2, 2, 64)
    assert invariants.chern_winding((loop,)) == 2


def test_cross_method_equality_rotor():
    h = models.rotor_spin(0.5)
    spec, group, grid, frame = sphere_setup(h, 0, 0)
    _, c_p = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    loops, _, _ = bands.transition_loops(frame, h.t)
    assert invariants.chern_winding(loops) == c_p


def test_chern_winding_torus_even_and_cross_method():
    h = models.torus_doubled_chern(m=1.0, epsilon=0.1, seed=3)
    spec = bands.spectrum_on_grid(h, TORUS_GRID)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    frame = bands.smooth_frame(spec, group, TORUS_GRID)
    loops, _, _ = bands.transition_loops(frame, h.t)
    c_w = invariants.chern_winding(loops)
    _, c_p = invariants.chern_plaquette(spec.band_vectors(group), TORUS_GRID)
    assert c_w == c_p
    assert c_w % 2 == 0 and abs(c_w) == 2


# ---------------------------------------------------------------------------
# M field, Kane-Mele boundary and census

RANK_REFUSAL = r"^Kane-Mele index needs even band-group rank$"


def test_m_field_skew_and_pf_det_consistency():
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    spec, group, grid, frame = sphere_setup(h, 0, 1)
    pf = invariants.m_field(frame, h.t)
    m = m_matrices(frame.data, h.t)
    assert numkit.max_abs(m + m.transpose(0, 2, 1)) <= 1e-12
    dets = np.linalg.det(m)
    assert np.max(np.abs(np.abs(pf) ** 2 - np.abs(dets))) <= 1e-6


def test_m_field_rank1_vanishes_identically():
    # Kramers orthogonality: <u, T u> = 0 pointwise for a single band, and
    # m_field refuses the odd rank
    h = models.rotor_spin(0.5)
    spec, group, grid, frame = sphere_setup(h, 0, 0)
    assert numkit.max_abs(m_matrices(frame.data, h.t)) <= 1e-12
    with pytest.raises(DomainError, match=RANK_REFUSAL):
        invariants.m_field(frame, h.t)


def test_m_field_trivial_bundle_unit_pf():
    t = bands.AntiUnitary(np.kron(1j * np.array([[0, -1j], [1j, 0]]), np.eye(2)))

    def const(pts):
        pts = np.atleast_2d(pts)
        flat = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
        return np.broadcast_to(flat, (pts.shape[0], 4, 4)).copy()

    h = bands.HamiltonianField(Manifold.SPHERE, t, const)
    spec, group, grid, frame = sphere_setup(h, 0, 1, gap_floor=0.5)
    pf = invariants.m_field(frame, h.t)
    assert np.max(np.abs(np.abs(pf) - 1.0)) <= 1e-12
    k, census, notes = invariants._km_and_census(h, frame, pf, Tolerances(gap_floor=0.5))
    assert k == 0 and census == [] and sum(w for _, w in census) == 0 and notes == []


def test_km_boundary_equals_half_chern():
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    spec, group, grid, frame = sphere_setup(h, 0, 1)
    _, c = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    pf = invariants.m_field(frame, h.t)
    k, _, _ = invariants._km_and_census(h, frame, pf, TOL)
    assert 2 * k == c


def test_km_census_matches_boundary_exactly():
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    spec, group, grid, frame = sphere_setup(h, 0, 1)
    pf = invariants.m_field(frame, h.t)
    k, census, _ = invariants._km_and_census(h, frame, pf, TOL)
    assert sum(w for _, w in census) == k
    signs = {np.sign(w) for _, w in census}
    assert len(signs) == 1


def test_boundary_sums_match_explicit_torus_differences():
    # chern_winding and km_boundary against wn U+ - wn U- and w0 - w1; the
    # unperturbed model winds on both lines, so the sign of loop 1 matters
    minus_windings = []
    for epsilon, seed in ((0.1, 3), (0.0, 0)):
        h = models.torus_doubled_chern(m=1.0, epsilon=epsilon, seed=seed)
        spec = bands.spectrum_on_grid(h, TORUS_GRID)
        group = bands.group_for_range(spec, 0, 1, 0.05)
        frame = bands.smooth_frame(spec, group, TORUS_GRID)
        loops, _, _ = bands.transition_loops(frame, h.t)
        wn_plus, wn_minus = (numkit.det_winding(u) for u in loops)
        c = invariants.chern_winding(loops)
        assert c == wn_plus - wn_minus
        pf = invariants.m_field(frame, h.t)
        w0, w1 = (numkit.winding_number(pf[loop])
                  for loop in TORUS_GRID.boundary_loops)
        k, _, _ = invariants._km_and_census(h, frame, pf, TOL)
        assert k == w0 - w1
        assert abs(c) == 2 and 2 * k == c
        minus_windings.append((wn_minus, w1))
    assert any(wn != 0 and w != 0 for wn, w in minus_windings)


def test_km_transform_identity_under_tr_shift():
    # exact sample-level law: M(phi+pi) = U(phi) conj(M(phi)) U(phi)^t, hence
    # pf M(phi+pi) = det U(phi) conj(pf M(phi)); the constant prefactor drops
    # out of every winding, so no integer output depends on it
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    spec, group, grid, frame = sphere_setup(h, 0, 1)
    pf = invariants.m_field(frame, h.t)
    (u,), _, _ = bands.transition_loops(frame, h.t)
    eq = grid.boundary_loops[0]
    m_eq = m_matrices(frame.data, h.t)[eq]
    L = eq.size
    lhs = np.roll(m_eq, -L // 2, axis=0)
    rhs = np.einsum("vij,vjk,vlk->vil", u, m_eq.conj(), u)
    assert numkit.max_abs(lhs - rhs) <= 1e-10
    pf_eq = pf[eq]
    dets = np.linalg.det(u)
    assert np.max(np.abs(np.roll(pf_eq, -L // 2) - dets * pf_eq.conj())) <= 1e-10


def test_km_torus_boundary_and_rank1_rejection():
    h = models.torus_doubled_chern(m=1.0, epsilon=0.1, seed=3)
    spec = bands.spectrum_on_grid(h, TORUS_GRID)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    frame = bands.smooth_frame(spec, group, TORUS_GRID)
    pf = invariants.m_field(frame, h.t)
    k, census, _ = invariants._km_and_census(h, frame, pf, TOL)
    _, c = invariants.chern_plaquette(spec.band_vectors(group), TORUS_GRID)
    assert 2 * k == c
    assert sum(w for _, w in census) == k

    h1 = models.rotor_spin(0.5)
    spec1, group1, grid1, frame1 = sphere_setup(h1, 0, 0)
    with pytest.raises(DomainError, match=RANK_REFUSAL):
        invariants.m_field(frame1, h1.t)


def test_km_census_degenerate_stratum_raises():
    # unperturbed doubled torus model: pf M has an isolated zero exactly on
    # the vertex (q, p) = (0, pi/2), which lies in no one plaquette, so the
    # census is undefined while k is not; its steps there divide by zero
    # without a RuntimeWarning
    h = models.torus_doubled_chern(m=1.0, epsilon=0.0)
    spec = bands.spectrum_on_grid(h, TORUS_GRID)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    frame = bands.smooth_frame(spec, group, TORUS_GRID)
    pf = invariants.m_field(frame, h.t)
    k, census, notes = invariants._km_and_census(h, frame, pf, TOL)
    assert k in (-1, 1)  # TRI lines stay unitary
    assert census is None and notes == [
        "census undefined: |pf M| < 1e-12 at 1 of 1152 domain vertices, the first vertex "
        "512 at (0.0000, 1.5708); the census cannot place a zero that sits on a vertex"]


# ---------------------------------------------------------------------------
# additivity, sum rule, reports


def test_chern_additivity_adjacent_groups():
    h = models.rotor_spin(1.5)
    grid = SPHERE_GRID
    spec = bands.spectrum_on_grid(h, grid)
    c = {}
    for first, last in ((0, 0), (1, 1), (0, 1)):
        group = bands.group_for_range(spec, first, last, 0.5)
        _, c[(first, last)] = invariants.chern_plaquette(
            spec.band_vectors(group), grid
        )
    assert c[(0, 1)] == c[(0, 0)] + c[(1, 1)]


def test_chern_sum_rule_full_decomposition():
    for h, grid in (
        (models.rotor_spin(1.5, 0.1, seed=4), SPHERE_GRID),
        (models.random_tri("sphere", 4, seed=3), SPHERE_GRID),
        (models.random_tri("torus", 4, seed=3), TORUS_GRID),
    ):
        spec = bands.spectrum_on_grid(h, grid)
        groups = bands.find_gapped_groups(spec, 0.05)
        total = 0
        for g in groups:
            _, c = invariants.chern_plaquette(spec.band_vectors(g), grid)
            total += c
        assert total == 0, h.label


def test_verify_group_report_fields():
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    spec = bands.spectrum_on_grid(h, SPHERE_GRID)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    rep = invariants.verify_group(h, group, SPHERE_GRID, TOL)
    assert rep.consistent and rep.parity_ok and rep.km_relation_ok
    assert rep.census_ok and rep.census_same_sign
    assert rep.first_band == 1 and rep.last_band == 2 and rep.rank == 2
    d = rep.to_dict()
    assert isinstance(d["c_plaquette"], int)
    assert isinstance(d["residuals"]["loop_antisymmetry"], float)


def test_verify_group_refines_on_poor_resolution():
    # a coarse grid under-resolves the doubled torus windings; verify_group
    # must refine once and succeed
    h = models.torus_doubled_chern(m=1.0)
    grid = build_grid(Manifold.TORUS, 16, 32)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    rep = invariants.verify_group(h, group, grid, TOL)
    assert rep.consistent
    assert rep.refinements == 1
    assert abs(rep.c_plaquette) == 2


def test_inconsistent_result_does_not_refine_past_loop_sample_cap(monkeypatch):
    # a cross-method disagreement refines like a ResolutionError does, and
    # neither may refine a grid whose loops would pass MAX_LOOP_SAMPLES
    grid = build_grid(Manifold.SPHERE, 16, 32)
    calls = []

    def inconsistent(h_field, group, grid, tol, group_id, refinements):
        calls.append((grid.n_lat, grid.n_lon, refinements))
        rep = invariants.InvariantReport(
            group_id=group_id, first_band=1, last_band=1, rank=1, min_gap=1.0,
            c_plaquette=1, c_winding=-1, consistent=False, parity_ok=True,
            refinements=refinements)
        return rep, None

    monkeypatch.setattr(invariants, "_verify_once", inconsistent)
    monkeypatch.setattr(invariants, "MAX_LOOP_SAMPLES", 2 * grid.n_lon - 1)
    rep = invariants.verify_group(models.rotor_spin(0.5), bands.BandGroup(0, 0, 1.0),
                                  grid, TOL)
    assert calls == [(16, 32, 0)]
    assert not rep.consistent and rep.refinements == 0
    assert rep.notes == ["cross-method Chern disagreement persisted"]
    # under the cap the same result is refined once before it is returned
    calls.clear()
    monkeypatch.setattr(invariants, "MAX_LOOP_SAMPLES", 2 * grid.n_lon)
    rep = invariants.verify_group(models.rotor_spin(0.5), bands.BandGroup(0, 0, 1.0),
                                  grid, TOL)
    assert calls == [(16, 32, 0), (32, 64, 1)]
    assert rep.notes == ["refined to 32x64: cross-method Chern disagreement, "
                         "c_plaquette 1 != c_winding -1",
                         "cross-method Chern disagreement persisted after refinement"]


def test_analyze_model_rejects_control():
    h = models.tri_broken(models.rotor_spin(0.5), 0.5, seed=1)
    with pytest.raises(DomainError) as err:
        invariants.analyze_model(h, SPHERE_GRID, TOL)
    assert isinstance(err.value, TRIViolationError)
    assert err.value.residual == bands.check_tri(h, SPHERE_GRID)[0]


def test_analyze_model_solves_one_spectrum(monkeypatch):
    # four rank-1 groups with no refinement: every group is verified against
    # the discovery spectrum, and one evaluation of H serves the TRI check and
    # that spectrum
    rotor = models.rotor_spin(1.5)
    evaluated = []

    def evaluate(pts):
        evaluated.append(len(pts))
        return rotor.evaluate(pts)

    h = dataclasses.replace(rotor, evaluate=evaluate)
    calls = []
    eigh_many = numkit.eigh_many

    def counted(hs):
        calls.append(len(hs))
        return eigh_many(hs)

    monkeypatch.setattr(numkit, "eigh_many", counted)
    _, groups, results = invariants.analyze_model(h, SPHERE_GRID, TOL)
    assert len(calls) == 1
    assert evaluated == [SPHERE_GRID.n_vertices]
    monkeypatch.undo()
    assert len(groups) == 4
    for group, (rep, _) in zip(groups, results):
        assert rep.refinements == 0
        # a new field has an empty memo, so this solves its spectrum afresh
        fresh = invariants.verify_group(models.rotor_spin(1.5), group, SPHERE_GRID,
                                        TOL, group_id=rep.group_id)
        assert rep.to_dict() == fresh.to_dict()


def _counted(monkeypatch, h):
    """A copy of h (empty memo) that logs the points of each evaluation, and
    the log of numkit.eigh_many stack sizes."""
    evaluated, solved = [], []
    eigh_many = numkit.eigh_many

    def counted(hs):
        solved.append(len(hs))
        return eigh_many(hs)

    def evaluate(pts):
        evaluated.append(len(pts))
        return h.evaluate(pts)

    monkeypatch.setattr(numkit, "eigh_many", counted)
    return dataclasses.replace(h, evaluate=evaluate), evaluated, solved


def _verify_each_group(h, grid, tol):
    """The public per-model sequence, one verify_group per group; returns
    each group's report or the error that stopped it."""
    assert bands.check_tri(h, grid, tol.tri_tol)[1]
    groups = bands.find_gapped_groups(bands.spectrum_on_grid(h, grid), tol.gap_floor)
    out = []
    for gid, group in enumerate(groups):
        try:
            out.append(invariants.verify_group(h, group, grid, tol, group_id=gid))
        except PhasetopError as exc:
            out.append(exc)
    return out


def test_groups_share_the_discovery_spectrum(monkeypatch):
    # four rank-1 groups, none refines: one evaluation of H serves check_tri
    # and the spectrum, and one eigh serves every verify_group
    h, evaluated, solved = _counted(monkeypatch, models.rotor_spin(1.5))
    reports = _verify_each_group(h, SPHERE_GRID, TOL)
    assert len(reports) == 4
    assert all(rep.refinements == 0 for rep in reports)
    assert evaluated == [SPHERE_GRID.n_vertices]
    assert solved == [SPHERE_GRID.n_vertices]


def test_groups_that_refine_share_one_refined_spectrum(monkeypatch):
    # both groups of torus seed 210 fail a boundary-loop step, refine n_lon
    # and then fail the gap floor on 24x256; the two refined attempts share
    # one 24x256 spectrum, which solves only the 3072 vertices that 24x128
    # lacks
    grid = build_grid(Manifold.TORUS, 24, 128)
    h, evaluated, solved = _counted(monkeypatch,
                                    models.random_tri("torus", 4, cutoff=3, seed=210))
    outcomes = _verify_each_group(h, grid, Tolerances(gap_floor=0.03))
    assert [type(o) for o in outcomes] == [GapError, GapError]
    assert all("not gapped" in str(o) for o in outcomes)
    assert solved == evaluated == [3072, 3072]


# the criterion-5 models whose groups refine: sphere at 32x64 (floor 0.05),
# torus at 24x128 (floor 0.03)
REFINING_MODELS = ([("sphere", seed, (32, 64), 0.05) for seed in (129, 130, 139, 140)]
                   + [("torus", seed, (24, 128), 0.03)
                      for seed in (200, 210, 211, 225, 226, 249)])


@pytest.mark.parametrize("manifold, seed, shape, gap_floor", REFINING_MODELS,
                         ids=[f"{m}-{seed}" for m, seed, _, _ in REFINING_MODELS])
def test_retry_spectra_reuse_coarse_solves_bit_for_bit(manifold, seed, shape, gap_floor):
    # both retry grids, reached through the n_lon rung or directly, take the
    # coarse solves and solve only their new vertices: every energy and
    # vector equals a fresh solve of the whole grid
    start = build_grid(Manifold(manifold), *shape)
    ladders = [[phasespace.refine_grid(start, lat=False), phasespace.refine_grid(start)],
               [phasespace.refine_grid(start)]]
    fresh = {}
    for ladder in ladders:
        h = models.random_tri(manifold, 4, cutoff=3, seed=seed)
        assert bands.check_tri(h, start)[1]
        bands.spectrum_on_grid(h, start)
        for grid in ladder:
            spec = bands.spectrum_on_grid(h, grid)
            if grid.n_vertices not in fresh:
                fresh[grid.n_vertices] = bands.Spectrum.from_stack(h(grid.points))
            want = fresh[grid.n_vertices]
            assert np.array_equal(spec.energies, want.energies)
            assert np.array_equal(spec.vectors, want.vectors)


def test_retries_leave_no_reference_cycles():
    # a retry keeps the failure's message, never the exception: a caught
    # exception held in a local ties its traceback to the frame in a cycle
    cases = [("torus", 225, (24, 128), 0.03), ("torus", 211, (24, 128), 0.03),
             ("sphere", 129, (32, 64), 0.05)]
    fields = [(models.random_tri(m, 4, cutoff=3, seed=seed), build_grid(Manifold(m), *shape),
               Tolerances(gap_floor=floor)) for m, seed, shape, floor in cases]
    outcomes = []
    gc.collect()
    gc.disable()
    try:
        for h, grid, tol in fields:
            assert bands.check_tri(h, grid, tol.tri_tol)[1]
            groups = bands.find_gapped_groups(bands.spectrum_on_grid(h, grid), tol.gap_floor)
            for gid, group in enumerate(groups):
                try:
                    rep = invariants.verify_group(h, group, grid, tol, gid)
                    outcomes.append(rep.refinements)
                except PhasetopError as exc:
                    outcomes.append(type(exc).__name__)
        unreachable = gc.collect()
    finally:
        gc.enable()
    # sphere seed 129 splits its pf M boundary steps and takes no rung
    assert outcomes == ["ResolutionError"] * 2 + ["GapError"] * 2 + [0, 0, 0]
    assert unreachable == 0


def test_pf_loop_steps_split_on_the_start_grid():
    # sphere seeds 129, 130 and 139 have pf M boundary steps at or above pi/2
    # on 32x64; they are split as the census splits its edges, so each
    # group verifies on its start grid
    grid, tol = build_grid(Manifold.SPHERE, 32, 64), Tolerances(gap_floor=0.05)
    for seed, gid, k, split in ((129, 1, 0, 2), (130, 1, 0, 2), (139, 2, 1, 1)):
        h = models.random_tri("sphere", 4, cutoff=3, seed=seed)
        group = bands.find_gapped_groups(bands.spectrum_on_grid(h, grid), tol.gap_floor)[gid]
        rep = invariants.verify_group(h, group, grid, tol, gid)
        assert (rep.grid_n_lat, rep.grid_n_lon, rep.refinements) == (32, 64, 0)
        assert rep.violations() == [] and rep.c_plaquette == rep.c_winding == 2 * k
        assert rep.k == rep.census_total == k and rep.km_relation_ok and rep.census_ok
        assert rep.notes[0] == f"KM boundary: {split} steps split"


def test_last_rung_pf_loop_step_leaves_k_undefined(monkeypatch):
    # a pf M boundary step whose split fails leaves k and the census
    # undefined on the last rung, as on every rung before it: refining
    # cannot mend it, so the group keeps its start-grid report, with both
    # Chern routes, and takes no rung.  A sub-point of sphere seed 129's
    # group 1 boundary edge 2040 has |pf M| = 1.586e-02; a hard floor of
    # 0.03 puts it under, while every grid vertex stays above
    grid, tol = build_grid(Manifold.SPHERE, 32, 64), Tolerances(gap_floor=0.05)
    h = models.random_tri("sphere", 4, cutoff=3, seed=129)
    group = bands.find_gapped_groups(bands.spectrum_on_grid(h, grid), tol.gap_floor)[1]
    monkeypatch.setattr(invariants, "PF_HARD_FLOOR", 0.03)
    for rungs in (invariants.MAX_GRID_REFINEMENTS, 0):
        monkeypatch.setattr(invariants, "MAX_GRID_REFINEMENTS", rungs)
        rep = invariants.verify_group(h, group, grid, tol, 1)
        assert (rep.grid_n_lat, rep.grid_n_lon, rep.refinements) == (32, 64, 0)
        assert rep.c_plaquette == rep.c_winding == 0 and rep.violations() == []
        assert rep.k is None and rep.km_relation_ok is None
        assert rep.census_total is None and rep.census_ok is None
        assert rep.notes == ["KM index unresolved: split of grid edge 2040 failed: "
                             "|pf M| = 1.586e-02 < 0.03 at a sub-point"]


def test_last_rung_det_loop_step_is_a_plain_resolution_error(monkeypatch):
    # with no rung to climb, sphere seed 140's det U loop step fails on the
    # start grid, and the ladder raises it as a plain ResolutionError, the
    # name that a caller records, so LoopStepError stays inside the ladder
    monkeypatch.setattr(invariants, "MAX_GRID_REFINEMENTS", 0)
    h = models.random_tri("sphere", 4, cutoff=3, seed=140)
    _, groups, results = invariants.analyze_model(h, build_grid(Manifold.SPHERE, 32, 64),
                                                  Tolerances(gap_floor=0.05))
    assert len(groups) == len(results) == 2
    for res in results:
        assert type(res) is ResolutionError
        assert str(res) == ("phase step 1.6896 rad >= pi/2 between samples 23 and 24 "
                            "of 64; loop under-resolved, refine sampling")


# the criterion-5 groups checked against the n_lon rung, (manifold, seed,
# start shape, gap floor, group ids, refinements): sphere seeds 129, 130 and
# 139 split their pf M boundary steps and verify on the start grid, the
# rest settle on the n_lon rung
N_LON_RUNG_GROUPS = [("sphere", 129, (32, 64), 0.05, [1], 0),
                     ("sphere", 130, (32, 64), 0.05, [1], 0),
                     ("sphere", 139, (32, 64), 0.05, [2], 0),
                     ("sphere", 140, (32, 64), 0.05, [0, 1], 1),
                     ("torus", 200, (24, 128), 0.03, [0, 1], 1)]


@pytest.mark.parametrize("manifold, seed, shape, gap_floor, ids, refinements",
                         N_LON_RUNG_GROUPS,
                         ids=[f"{m}-{seed}" for m, seed, *_ in N_LON_RUNG_GROUPS])
def test_n_lon_rung_integers_hold_on_the_doubled_grid(manifold, seed, shape, gap_floor, ids,
                                                      refinements):
    # the two Chern routes and the KM index read one spectrum on one grid,
    # so an aliased grid can fool them alike; each group keeps the integers
    # it verifies with on the n_lon rung, the start grid with n_lon doubled,
    # and on the grid doubled in both directions
    h = models.random_tri(manifold, 4, cutoff=3, seed=seed)
    start, tol = build_grid(Manifold(manifold), *shape), Tolerances(gap_floor=gap_floor)
    groups = bands.find_gapped_groups(bands.spectrum_on_grid(h, start), gap_floor)
    finer = [phasespace.refine_grid(start, lat=False), phasespace.refine_grid(start)]
    for gid in ids:
        rep = invariants.verify_group(h, groups[gid], start, tol, gid)
        assert rep.refinements == refinements and rep.violations() == []
        assert (rep.grid_n_lat, rep.grid_n_lon) == (start.n_lat, start.n_lon << refinements)
        for grid in finer:
            fine = invariants.verify_group(h, groups[gid], grid, tol, gid)
            assert fine.refinements == 0 and fine.violations() == []
            assert ((rep.c_plaquette, rep.c_winding, rep.k, rep.census_total)
                    == (fine.c_plaquette, fine.c_winding, fine.k, fine.census_total))


# (manifold, seed block, floor on the groups checked): 21 sphere and 9 torus
# groups verify on the start grid without a refinement
SEED_BLOCKS = [(Manifold.SPHERE, range(100, 110), 18), (Manifold.TORUS, range(200, 210), 7)]


@pytest.mark.parametrize("manifold, seeds, floor", SEED_BLOCKS,
                         ids=[m.value for m, _, _ in SEED_BLOCKS])
def test_seed_block_integers_hold_on_the_doubled_grid(manifold, seeds, floor):
    # every group of the block that verifies without a refinement keeps
    # (c_plaquette, c_winding, k) on the grid doubled in both directions;
    # tests/finer_grid.py runs the same comparison over all 100 models
    checked, moved = doubled_grid_moves(manifold, seeds)
    assert len(checked) >= floor
    assert moved == [], [f"seed {s} group {g}: {a} -> {b}" for s, g, a, b in moved]


def test_memo_spectrum_matches_a_fresh_solve():
    h = models.random_tri("sphere", 4, cutoff=2, seed=9)
    assert bands.check_tri(h, SPHERE_GRID)[1]
    served = [bands.spectrum_on_grid(h, SPHERE_GRID) for _ in range(2)]
    fresh = dataclasses.replace(h)
    solved = bands.Spectrum.from_stack(fresh(SPHERE_GRID.points))
    for spec in served:
        assert np.array_equal(spec.energies, solved.energies)
        assert np.array_equal(spec.vectors, solved.vectors)


SEED_200_GRID = build_grid(Manifold.TORUS, 24, 128)
SEED_200_TOL = Tolerances(gap_floor=0.03)


def test_groups_that_refine_share_one_refined_grid():
    h = models.random_tri("torus", 4, cutoff=3, seed=200)
    _, _, results = invariants.analyze_model(h, SEED_200_GRID, SEED_200_TOL)
    (rep0, fields0), (rep1, fields1) = results
    assert rep0.refinements == rep1.refinements == 1
    grid = fields0.frame.grid
    assert (grid.n_lat, grid.n_lon) == (24, 256)
    assert fields1.frame.grid is grid
    assert len(fields0.flux) == len(fields1.flux) == grid.n_plaquettes
    assert len(fields0.pf) == len(fields1.pf) == fields0.frame.grid.n_domain_vertices


# (model, start grid, the grid every group settles on)
FIELD_CASES = [
    (models.kramers_pair_sphere(epsilon=0.1), (Manifold.SPHERE, 32, 64), (32, 64)),
    (models.torus_doubled_chern(m=1.0, epsilon=0.1, seed=3), (Manifold.TORUS, 16, 128),
     (16, 128)),
    (models.random_tri("sphere", 4, cutoff=3, seed=140), (Manifold.SPHERE, 32, 64), (32, 128)),
]


@pytest.mark.parametrize("h, start, settled", FIELD_CASES,
                         ids=["kramers-sphere", "torus-m1", "random-sphere-140"])
def test_group_fields_are_on_the_reported_grid(h, start, settled):
    # the flux covers the report's grid and sums to its c_plaquette, the
    # frame lives on that grid, and pf M is given at every domain vertex for
    # even rank and not at all for odd rank
    _, _, results = invariants.analyze_model(h, build_grid(*start), TOL)
    assert results and all(not isinstance(res, PhasetopError) for res in results)
    for rep, fields in results:
        assert (rep.grid_n_lat, rep.grid_n_lon) == settled
        assert fields.flux.shape == (rep.grid_n_lat * rep.grid_n_lon,)
        assert round(fields.flux.sum() / (2 * np.pi)) == rep.c_plaquette
        grid = fields.frame.grid
        assert (grid.n_lat, grid.n_lon) == (rep.grid_n_lat, rep.grid_n_lon)
        if rep.rank % 2:
            assert fields.pf is None
        else:
            assert fields.pf.shape == (fields.frame.grid.n_domain_vertices,)


def _kramers_group(h):
    return bands.find_gapped_groups(bands.spectrum_on_grid(h, SPHERE_GRID),
                                    TOL.gap_floor)[0]


def test_boundary_zero_leaves_k_undefined(monkeypatch):
    # a zero floor above every |pf M| puts a zero on the boundary: k and the
    # census are undefined, the note names the zero, and nothing is re-solved
    h, _, solved = _counted(monkeypatch, models.kramers_pair_sphere(epsilon=0.1))
    tol = Tolerances(gap_floor=TOL.gap_floor, zero_floor=2.0)
    g = _kramers_group(h)
    rep, fields = invariants.verify_group_fields(h, (g.first, g.last), SPHERE_GRID, tol)
    assert rep.k is None and rep.km_relation_ok is None
    assert rep.census_total is None and rep.census_entries == []
    (equator,) = fields.frame.grid.boundary_loops
    vid = int(equator[np.argmin(np.abs(fields.pf[equator]))])
    theta, phi = SPHERE_GRID.points[vid]
    assert len(rep.notes) == 1
    assert re.fullmatch(rf"KM index undefined: \|pf M\| = \S+ <= zero floor 2 at "
                        rf"boundary vertex {vid}, \({theta:.4f}, {phi:.4f}\)",
                        rep.notes[0])
    assert solved == [SPHERE_GRID.n_vertices]


def test_symmetric_stratum_is_undefined_without_rotations():
    # at eps = 0 pf M vanishes at every vertex
    h = models.kramers_pair_sphere(epsilon=0.0)
    rep = invariants.verify_group(h, _kramers_group(h), SPHERE_GRID, TOL)
    assert rep.k is None and rep.census_total is None and rep.census_ok is None
    assert rep.notes == ["KM index undefined: pf M vanishes at every domain vertex "
                         "(symmetric stratum)"]


# ---------------------------------------------------------------------------
# a census zero on an edge: torus seed 200 refines to 24x256, and at 48x256
# pf M has zeros within a small fraction of an edge length of long p edges

LOOP_STEP_RUNG = (r"refined to {}: phase step \S+ rad >= pi/2 between samples \d+ "
                  r"and \d+ of \d+; loop under-resolved, refine sampling")


def test_census_edge_split_resolves_seed_200():
    h = models.random_tri("torus", 4, cutoff=3, seed=200)
    _, _, results = invariants.analyze_model(h, SEED_200_GRID, SEED_200_TOL)
    reports = [rep for rep, _ in results]
    assert [rep.k for rep in reports] == [1, -1]
    for rep in reports:
        assert rep.refinements == 1
        assert rep.census_total == rep.k and rep.census_ok
        assert len(rep.notes) == 2
        assert re.fullmatch(LOOP_STEP_RUNG.format("24x256"), rep.notes[0])
        assert re.fullmatch(r"census: \d+ edges split", rep.notes[1])


def _seed_200_refined_census():
    h = models.random_tri("torus", 4, cutoff=3, seed=200)
    grid = build_grid(Manifold.TORUS, 48, 256)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, SEED_200_TOL.gap_floor)
    frame = bands.smooth_frame(spec, group, grid)
    return h, group, frame, invariants.m_field(frame, h.t)


def _flagged_edges(frame, pf):
    """The domain edges whose principal pf M step reaches the cap."""
    grid = frame.grid
    a, b = grid.edges[grid.domain_edge_ids].T
    return grid.domain_edge_ids[np.abs(np.angle(pf[b] / pf[a])) >= invariants.CENSUS_EDGE_CAP]


def _recorded_km(monkeypatch, h, frame, pf, tol):
    """_km_and_census with every _split_steps call recorded: (k, census,
    notes, [(edge ids, steps) per call])."""
    calls, split_steps = [], invariants._split_steps

    def recorded(*args):
        calls.append((args[3], split_steps(*args)))
        return calls[-1][1]

    monkeypatch.setattr(invariants, "_split_steps", recorded)
    k, census, notes = invariants._km_and_census(h, frame, pf, tol)
    monkeypatch.undo()
    return k, census, notes, calls


def _fine_walks(h, group, frame, pf, edges, n):
    """The (E, n) pf M sub-steps along grid edges a -> b, each cut into n
    parts: one eigh stack, the frames transported from a one point at a time
    (all edges at once), Pfaffians."""
    grid = frame.grid
    a, b = edges.T
    pts = phasespace.edge_points(grid.manifold, grid.points[a], grid.points[b], n)
    _, v = np.linalg.eigh(h(pts.reshape(-1, 2)))
    slabs = v[:, :, group.first:group.last + 1].reshape(len(edges), n - 1,
                                                        *frame.data.shape[1:])
    u, walk = frame.data[a], [pf[a]]
    for k in range(n - 1):
        slab = slabs[:, k]
        u = slab @ numkit.polar_unitary(np.swapaxes(slab.conj(), 1, 2) @ u)
        walk.append(numkit.pfaffian(np.swapaxes(u.conj(), 1, 2) @ h.t.apply(u)))
    walk = np.array(walk + [pf[b]]).T
    return np.angle(walk[:, 1:] / walk[:, :-1])


def test_split_step_matches_a_fine_walk_and_enters_both_plaquettes(monkeypatch):
    h, group, frame, pf = _seed_200_refined_census()
    k, census, notes, calls = _recorded_km(monkeypatch, h, frame, pf, SEED_200_TOL)
    ids = _flagged_edges(frame, pf)
    # no boundary step is split, so the one split is the census's, of the flagged edges
    (split_ids, steps), = calls
    assert ids.size and np.array_equal(split_ids, ids)
    assert notes == [f"census: {ids.size} edges split"]
    edges = frame.grid.edges[ids]
    fine = _fine_walks(h, group, frame, pf, edges, 64)
    assert np.max(np.abs(fine)) < invariants.CENSUS_EDGE_CAP
    assert np.max(np.abs(steps - fine.sum(axis=1))) <= 1e-9
    # every split step ends on the vertex values: the principal step plus
    # whole turns, and on one edge the principal step misses a full turn
    grid = frame.grid
    pf_a, pf_b = (pf[edges[:, i]] for i in (0, 1))
    turns = (steps - np.angle(pf_b / pf_a)) / (2 * np.pi)
    assert np.max(np.abs(turns - np.round(turns))) <= 1e-9
    assert np.sum(np.round(np.abs(turns))) == 1
    a, b = edges[np.argmax(np.abs(turns))].tolist()

    # per-plaquette oracle: principal steps, with the split edges' steps
    # substituted, negated on a side that runs b -> a
    split = {}
    for (ea, eb), step in zip(edges.tolist(), steps):
        split[ea, eb], split[eb, ea] = step, -step
    windings, shared = {}, []
    for pid in domain_rows(grid)[1]:
        corners = grid.plaquettes[pid].tolist()
        total = 0.0
        for va, vb in zip(corners, corners[1:] + corners[:1]):
            step = split.get((va, vb))
            if step is None:
                step = np.angle(pf[vb] / pf[va])
            if {va, vb} == {a, b}:
                shared.append(step)
            total += step
        w = total / (2 * np.pi)
        assert abs(w - round(w)) <= 1e-6
        if round(w):
            windings[int(pid)] = int(round(w))
    assert len(shared) == 2 and shared[0] == -shared[1]
    assert dict(census) == windings
    assert sum(w for _, w in census) == k == 1


def test_split_takes_one_eigh_call_per_pass_and_no_polar_call(monkeypatch):
    # the one pass solves the 15 sub-points of each of the 6 flagged edges in
    # one eigh call and reads their pf M phases through link determinants, so
    # no frame is moved
    h, group, frame, pf = _seed_200_refined_census()
    solved, polars = [], []
    eigh_many, polar_unitary = numkit.eigh_many, numkit.polar_unitary

    def eigh(hs):
        solved.append(len(hs))
        return eigh_many(hs)

    def polar(a):
        polars.append(a.shape)
        return polar_unitary(a)

    monkeypatch.setattr(numkit, "eigh_many", eigh)
    monkeypatch.setattr(numkit, "polar_unitary", polar)
    ids = _flagged_edges(frame, pf)
    steps = invariants._split_steps(h, frame, pf, ids, SEED_200_TOL.gap_floor)
    monkeypatch.undo()
    assert len(ids) == 6 and solved == [6 * (invariants.CENSUS_EDGE_PARTS - 1)] == [90]
    assert polars == []
    fine = _fine_walks(h, group, frame, pf, frame.grid.edges[ids], 64)
    assert np.max(np.abs(steps - fine.sum(axis=1))) <= 1e-9


@pytest.mark.parametrize("seed", [210, 211, 225, 226, 249])
def test_split_link_phases_match_the_polar_transport(seed):
    # the split takes each sub-point's pf M phase from link determinants; the
    # oracle moves the frame there one polar step at a time.  Seeds 211 and
    # 225 meet a sub-point gap below 0.03, so the split runs at a floor of
    # 1e-3 here: this test is about the phases, not the gap guard
    h = models.random_tri("torus", 4, cutoff=3, seed=seed)
    spec = bands.spectrum_on_grid(h, SEED_200_GRID)
    groups = bands.find_gapped_groups(spec, SEED_200_TOL.gap_floor)
    assert [group.rank for group in groups] == [2, 2]
    for group in groups:
        frame = bands.smooth_frame(spec, group, SEED_200_GRID)
        pf = invariants.m_field(frame, h.t)
        ids = _flagged_edges(frame, pf)
        assert ids.size
        steps = invariants._split_steps(h, frame, pf, ids, 1e-3)
        fine = _fine_walks(h, group, frame, pf, SEED_200_GRID.edges[ids], 64)
        assert np.max(np.abs(steps - fine.sum(axis=1))) <= 1e-9


def test_census_edge_split_on_the_sphere():
    # sphere seed 107 group 1 splits two pf M boundary steps and one census
    # edge, which carries a zero, and verifies on its start grid
    h = models.random_tri("sphere", 4, cutoff=3, seed=107)
    group = bands.find_gapped_groups(bands.spectrum_on_grid(h, SPHERE_GRID),
                                     TOL.gap_floor)[1]
    rep, fields = invariants.verify_group_fields(h, (group.first, group.last), SPHERE_GRID,
                                                 TOL, group_id=1)
    assert (rep.refinements, rep.k, rep.census_total) == (0, 0, 0)
    assert (rep.grid_n_lat, rep.grid_n_lon) == (16, 32)
    assert rep.notes == ["KM boundary: 2 steps split", "census: 1 edges split"]

    frame, pf = fields.frame, fields.pf
    ids = _flagged_edges(frame, pf)
    assert len(ids) == 1
    steps = invariants._split_steps(h, frame, pf, ids, TOL.gap_floor)
    fine = _fine_walks(h, group, frame, pf, SPHERE_GRID.edges[ids], 64)
    assert np.max(np.abs(fine)) < invariants.CENSUS_EDGE_CAP
    assert abs(steps[0] - fine.sum()) <= 1e-9


def test_unconverged_last_split_names_its_cause(monkeypatch):
    # cut only in halves, a seed-200 edge keeps a sub-step at the cap, and its
    # summed step differs by a whole turn from the 1-part sum (the principal
    # step): the census is unresolved, the note says why, and only the
    # flagged edges' midpoints are solved after the discovery spectrum and
    # the new vertices of the 24x256 spectrum
    monkeypatch.setattr(invariants, "CENSUS_EDGE_PARTS", 2)
    h, _, solved = _counted(monkeypatch, models.random_tri("torus", 4, cutoff=3, seed=200))
    _, _, results = invariants.analyze_model(h, SEED_200_GRID, SEED_200_TOL)
    reports = [rep for rep, _ in results]
    assert [rep.k for rep in reports] == [1, -1]
    for rep in reports:
        assert rep.census_total is None and rep.refinements == 1
        assert len(rep.notes) == 2
        assert re.fullmatch(LOOP_STEP_RUNG.format("24x256"), rep.notes[0])
        match = re.fullmatch(r"census unresolved: split of grid edge 2482 failed: a sub-step "
                             r"is at the cap after 2 parts, and the summed step (\S+) "
                             r"differs from the 1-part sum (\S+)", rep.notes[1])
        assert match
        summed, half = float(match[1]), float(match[2])
        assert abs(half) < np.pi and abs(abs(summed - half) - 2 * np.pi) <= 1e-5
    # then one midpoint per flagged edge, 10 edges in each group
    assert solved == [3072, 3072, 10, 10]


GAP_FAILURE = r"split of grid edge (\d+) failed: group gap \S+ <= gap floor 10 at a sub-point"


def test_split_names_a_gap_at_a_sub_point():
    h, _, frame, pf = _seed_200_refined_census()
    flagged = _flagged_edges(frame, pf)
    with pytest.raises(ResolutionError) as err:
        invariants._split_steps(h, frame, pf, flagged, gap_floor=10.0)
    match = re.fullmatch(GAP_FAILURE, str(err.value))
    assert match and int(match[1]) in flagged


def test_km_census_raises_a_failed_split():
    # no boundary step of this group is split, so the failed split of a
    # flagged edge leaves the census alone unresolved, with k defined
    h, _, frame, pf = _seed_200_refined_census()
    k, census, notes = invariants._km_and_census(h, frame, pf, Tolerances(gap_floor=10.0))
    assert k == 1 and census is None and len(notes) == 1
    match = re.fullmatch("census unresolved: " + GAP_FAILURE, notes[0])
    assert match and int(match[1]) in _flagged_edges(frame, pf)


@pytest.mark.parametrize("cause", ["transport", "pfaffian"])
def test_split_names_a_singular_sub_point(monkeypatch, cause):
    # the two causes no model of the suites reaches, forced at one flagged edge
    h, _, frame, pf = _seed_200_refined_census()
    flagged = _flagged_edges(frame, pf)
    at = invariants.CENSUS_EDGE_PARTS   # the sub-points of one edge, then one more
    if cause == "transport":
        eigh_many = numkit.eigh_many

        def eigh(hs):  # no eigenvectors at the second edge's second sub-point
            w, v = eigh_many(hs)
            v = v.copy()
            v[at] = 0.0
            return w, v

        monkeypatch.setattr(numkit, "eigh_many", eigh)
        expected = r"\|link\| = 0.000e\+00 <= link floor 1e-06 at a sub-point"
    else:
        pfaffian = numkit.pfaffian
        monkeypatch.setattr(numkit, "pfaffian", lambda m: pfaffian(m) * (
            np.arange(len(m)) != at))
        expected = r"\|pf M\| = 0.000e\+00 < 1e-12 at a sub-point"
    with pytest.raises(ResolutionError,
                       match=rf"^split of grid edge {flagged[1]} failed: {expected}$"):
        invariants._split_steps(h, frame, pf, flagged, SEED_200_TOL.gap_floor)


@pytest.mark.parametrize("manifold, seed, shape, gap_floor", [
    ("sphere", 1081, (32, 64), 0.05),
    ("torus", 2063, (24, 128), 0.03),
])
def test_settled_edges_match_a_4096_part_walk(manifold, seed, shape, gap_floor):
    # each group 0 has an edge still at the cap after 16 parts, settled by
    # the agreement of the 16-part sum and the 8-part sum over every other
    # point of the same walk; a 4096-part walk, with every sub-step below the
    # cap, gives each split edge's step
    h = models.random_tri(manifold, 4, seed=seed)
    grid, tol = build_grid(Manifold(manifold), *shape), Tolerances(gap_floor=gap_floor)
    group = bands.find_gapped_groups(bands.spectrum_on_grid(h, grid), gap_floor)[0]
    rep, fields = invariants.verify_group_fields(h, (group.first, group.last), grid, tol)
    assert rep.k is not None and rep.census_total == rep.k
    grid, pf = fields.frame.grid, fields.pf
    frame = bands.smooth_frame(bands.spectrum_on_grid(h, grid), group, grid)
    # the returned frame and pf M are the ones on the refined grid, bit for bit
    assert np.array_equal(fields.frame.data, frame.data)
    assert np.array_equal(pf, invariants.m_field(frame, h.t))
    ids = _flagged_edges(frame, pf)
    steps = invariants._split_steps(h, frame, pf, ids, gap_floor)
    # the torus group fails a loop step first and verifies on 24x256
    assert len(rep.notes) == rep.refinements + 1 == (1 if manifold == "sphere" else 2)
    assert all(re.fullmatch(LOOP_STEP_RUNG.format(f"{grid.n_lat}x{grid.n_lon}"), note)
               for note in rep.notes[:-1])
    assert rep.notes[-1] == f"census: {len(ids)} edges split"
    edges = grid.edges[ids]
    fine = _fine_walks(h, group, frame, pf, edges, 4096)
    assert np.max(np.abs(fine)) < invariants.CENSUS_EDGE_CAP
    assert np.max(np.abs(steps - fine.sum(axis=1))) <= 1e-6
    coarse = _fine_walks(h, group, frame, pf, edges, invariants.CENSUS_EDGE_PARTS)
    settled = np.sum(np.max(np.abs(coarse), axis=1) >= invariants.CENSUS_EDGE_CAP)
    assert settled >= 1


def _sphere_frame(h, gid, grid):
    """The group gid of h at gap floor 0.05, its frame on grid and pf M."""
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.find_gapped_groups(spec, 0.05)[gid]
    frame = bands.smooth_frame(spec, group, grid)
    return group, frame, invariants.m_field(frame, h.t)


@pytest.mark.parametrize("seed, gid, k", [(129, 1, 0), (139, 2, 1)])
def test_boundary_split_steps_match_a_4096_part_walk(monkeypatch, seed, gid, k):
    # each boundary step at or above pi/2 is re-measured through
    # _split_steps, in the first call; a 4096-part walk along each such edge
    # gives the step it received, and the loop sum with those steps in place
    # of the principal ones gives k
    h = models.random_tri("sphere", 4, cutoff=3, seed=seed)
    grid = build_grid(Manifold.SPHERE, 32, 64)
    group, frame, pf = _sphere_frame(h, gid, grid)
    got, _, notes, calls = _recorded_km(monkeypatch, h, frame, pf, TOL)
    (ids, steps), = calls
    assert got == k and notes == [f"KM boundary: {len(ids)} steps split"]
    fine = _fine_walks(h, group, frame, pf, grid.edges[ids], 4096)
    assert np.max(np.abs(fine)) < invariants.CENSUS_EDGE_CAP
    assert np.max(np.abs(steps - fine.sum(axis=1))) <= 1e-6
    # oracle: walk the loop sample by sample, looking each flagged step up by
    # its two vids
    fine_step = {tuple(e): w for e, w in zip(grid.edges[ids].tolist(), fine.sum(axis=1))}
    (loop,) = grid.boundary_loops.tolist()
    total, flagged = 0.0, set()
    for va, vb in zip(loop, loop[1:] + loop[:1]):
        step = np.angle(pf[vb] / pf[va])
        if abs(step) >= numkit.MAX_LOOP_STEP:
            flagged.add((min(va, vb), max(va, vb)))
            step = fine_step[va, vb] if va < vb else -fine_step[vb, va]
        total += step
    assert flagged == set(fine_step)
    assert abs(total / (2 * np.pi) - k) <= 1e-6


def test_boundary_split_on_the_wrap_edge(monkeypatch):
    # sphere seed 139 group 2 turned by -pi/4 in phi is TRI and puts its one
    # flagged boundary step on the wrap from sample 63 to sample 0, which
    # runs against its grid edge: the split step enters the loop negated
    h = models.random_tri("sphere", 4, cutoff=3, seed=139)
    turned = dataclasses.replace(
        h, evaluate=lambda pts: h.evaluate(pts - [0.0, 2 * np.pi * 8 / 64]))
    grid = build_grid(Manifold.SPHERE, 32, 64)
    assert bands.check_tri(turned, grid)[1]
    _, frame, pf = _sphere_frame(turned, 2, grid)
    k, census, _, calls = _recorded_km(monkeypatch, turned, frame, pf, TOL)
    (loop,) = grid.boundary_loops
    (ids, _), = calls
    assert k == sum(w for _, w in census) == 1 and grid.edges[ids].tolist() == [[loop[0], loop[63]]]
    assert grid.loop_sign[0, 63] == -1
    rep = invariants.verify_group(turned, frame.group, grid, TOL, group_id=2)
    assert (rep.refinements, rep.c_plaquette, rep.k, rep.census_total) == (0, 2, 1, 1)


def test_no_edge_is_split_twice(monkeypatch):
    # six-band sphere seed 504 group 2 has four boundary steps at or above
    # pi/2, two of them at the cap: the boundary split settles those two, so
    # the census splits no edge again and no second call is made
    h = models.random_tri("sphere", 6, cutoff=1, seed=504)
    grid = build_grid(Manifold.SPHERE, 32, 64)
    _, frame, pf = _sphere_frame(h, 2, grid)
    k, census, notes, calls = _recorded_km(monkeypatch, h, frame, pf, TOL)
    ids = np.concatenate([ids for ids, _ in calls]).tolist()
    assert len(calls) == 1 and len(set(ids)) == len(ids) == 4
    assert set(_flagged_edges(frame, pf).tolist()) < set(ids)
    assert notes == ["KM boundary: 4 steps split", "census: 2 edges split"]
    assert k == sum(w for _, w in census) == 0 and census == [(971, -1), (987, 1)]


def test_failed_boundary_split_leaves_k_unresolved():
    # refining cannot mend a boundary split that fails, so the group keeps
    # its report with k and the census undefined and a note naming the edge
    h = models.random_tri("sphere", 4, cutoff=3, seed=129)
    _, frame, pf = _sphere_frame(h, 1, build_grid(Manifold.SPHERE, 32, 64))
    assert invariants._km_and_census(h, frame, pf, Tolerances(gap_floor=10.0)) == (
        None, None, ["KM index unresolved: split of grid edge 2040 failed: group gap "
                     "1.404e-01 <= gap floor 10 at a sub-point"])


# each report flag that a theorem check reads, and the kind of record it fails with
THEOREM_CHECKS = [
    (None, None), ("parity_ok", "parity"), ("consistent", "cross-method"),
    ("evenness_ok", "curvature-evenness"), ("km_relation_ok", "km-relation"),
    ("census_ok", "census"),
]


def theorem_report(failed=None):
    """A rank-2 group that holds every theorem, but for the one named failed."""
    rep = invariants.InvariantReport(
        group_id=0, first_band=1, last_band=2, rank=2, min_gap=0.5, c_plaquette=0,
        c_winding=0, consistent=True, parity_ok=True, k=0, km_relation_ok=True,
        census_total=0, census_ok=True, evenness_ok=True,
    )
    if failed:
        setattr(rep, failed, False)
    return rep


@pytest.mark.parametrize("failed, kind", THEOREM_CHECKS)
def test_violations_name_each_failed_check(failed, kind):
    assert [v["kind"] for v in theorem_report(failed).violations()] == (
        [kind] if kind else [])


def test_violations_records_in_check_order():
    # every check fails, and every number differs, so each record must read
    # its own fields
    rep = invariants.InvariantReport(
        group_id=0, first_band=1, last_band=3, rank=3, min_gap=0.5, c_plaquette=2,
        c_winding=4, consistent=False, parity_ok=False, k=5, km_relation_ok=False,
        census_total=7, census_ok=False, curvature_evenness=0.25, evenness_ok=False,
    )
    assert rep.violations() == [
        {"kind": "parity", "c": 2, "rank": 3},
        {"kind": "cross-method", "c_plaquette": 2, "c_winding": 4},
        {"kind": "curvature-evenness", "residual": 0.25},
        {"kind": "km-relation", "k": 5, "c": 2},
        {"kind": "census", "k": 5, "census_total": 7},
    ]


def test_violations_pass_an_undefined_km_index_and_census():
    # an odd-rank group, or an even one whose k or census is undefined,
    # leaves km_relation_ok and census_ok at None: no theorem fails
    rep = invariants.InvariantReport(
        group_id=0, first_band=1, last_band=1, rank=1, min_gap=0.5, c_plaquette=1,
        c_winding=1, consistent=True, parity_ok=True, evenness_ok=True,
    )
    assert rep.violations() == []
    rep = theorem_report()
    rep.census_total = rep.census_ok = None
    assert rep.violations() == []
    rep.k = rep.km_relation_ok = None
    assert rep.violations() == []


def test_parity_theorem_on_random_sample():
    grid = build_grid(Manifold.SPHERE, 32, 64)
    for seed in range(110, 118):
        h = models.random_tri("sphere", 4, seed=seed)
        _, groups, results = invariants.analyze_model(h, grid, TOL)
        for rep, _ in results:
            assert rep.violations() == [], (seed, rep)


def test_torus_theorems_on_proper_subbundles():
    # the criterion-5 torus suite meets one proper group pair; cutoff-1
    # fields split into rank-2 groups far more often, and every one of them
    # must satisfy all the torus theorems through the census and the windings
    grid, tol = build_grid(Manifold.TORUS, 24, 128), Tolerances(gap_floor=0.03)
    proper = []
    for seed in range(300, 350):
        h = models.random_tri("torus", 4, cutoff=1, seed=seed)
        _, _, results = invariants.analyze_model(h, grid, tol)
        proper += [(seed, res[0]) for res in results
                   if not isinstance(res, Exception) and res[0].rank < h.n_a]
    for seed, rep in proper:
        assert rep.violations() == [], (seed, rep)
        assert rep.rank % 2 == 0 and rep.c_plaquette % 2 == 0, (seed, rep)
        assert rep.k is not None and 2 * rep.k == rep.c_plaquette, (seed, rep)
        assert rep.census_total == rep.k and rep.census_ok, (seed, rep)
    assert len(proper) >= 40
    assert sum(rep.c_plaquette != 0 for _, rep in proper) >= 15



def test_six_band_theorems_on_rank_3_4_and_5_groups():
    # six-band cutoff-1 fields on the criterion-5 grids and floors give torus
    # groups of rank 4 with k != 0 and sphere groups of rank 3 and 5, which
    # the four-band suites never reach; every criterion-5 theorem must hold
    proper = {}
    for manifold, shape, floor in (("torus", (24, 128), 0.03), ("sphere", (32, 64), 0.05)):
        grid, tol = build_grid(Manifold(manifold), *shape), Tolerances(gap_floor=floor)
        proper[manifold] = []
        for seed in range(500, 550):
            h = models.random_tri(manifold, 6, cutoff=1, seed=seed)
            _, _, results = invariants.analyze_model(h, grid, tol)
            proper[manifold] += [(seed, res[0]) for res in results
                                 if not isinstance(res, Exception) and res[0].rank < h.n_a]
    torus, sphere = proper["torus"], proper["sphere"]
    assert len(torus) >= 25
    assert sum(rep.rank == 4 and rep.k not in (None, 0) for _, rep in torus) >= 8
    assert sum(rep.rank in (3, 5) for _, rep in sphere) >= 20
    undefined = []
    for seed, rep in torus + sphere:
        assert rep.violations() == [], (seed, rep)
        if rep.rank % 2 == 0 and rep.k is None:
            undefined.append((seed, rep.group_id))
        elif rep.rank % 2 == 0:
            assert 2 * rep.k == rep.c_plaquette, (seed, rep)
            assert rep.census_total == rep.k and rep.census_ok, (seed, rep)
    assert undefined == []
    # two rank-2 groups with pf M boundary steps at or above pi/2 on 32x64
    # split them there and take no rung
    settled = {(seed, rep.group_id): (rep.grid_n_lat, rep.grid_n_lon, rep.rank, rep.k)
               for seed, rep in sphere}
    assert settled[504, 2] == (32, 64, 2, 0) and settled[548, 1] == (32, 64, 2, -1)
    for seed, rep in torus:
        assert rep.rank % 2 == 0 and rep.c_plaquette % 2 == 0, (seed, rep)

def test_trivial_torus_bundle_zero_by_both_routes():
    t = bands.AntiUnitary(
        np.kron(np.array([[0, -1], [1, 0]], dtype=complex), np.eye(2))
    )

    def const(pts):
        pts = np.atleast_2d(pts)
        flat = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
        return np.broadcast_to(flat, (pts.shape[0], 4, 4)).copy()

    h = bands.HamiltonianField(Manifold.TORUS, t, const)
    grid = build_grid(Manifold.TORUS, 8, 16)
    residual, ok = bands.check_tri(h, grid, 1e-12)
    assert ok, residual
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.5)
    _, c_p = invariants.chern_plaquette(spec.band_vectors(group), grid)
    frame = bands.smooth_frame(spec, group, grid)
    loops, _, _ = bands.transition_loops(frame, h.t)
    assert c_p == 0
    assert invariants.chern_winding(loops) == 0
