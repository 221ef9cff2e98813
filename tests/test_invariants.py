import dataclasses

import numpy as np
import pytest

from phasetop import bands, gauge, invariants, models, numkit
from phasetop.errors import (
    DegenerateConfigurationError,
    DomainError,
    ResolutionError,
    TRIViolationError,
)
from phasetop.invariants import Tolerances
from phasetop.phasespace import (
    Manifold,
    build_grid,
    fundamental_domain,
    plaquette_solid_angles,
)

SPHERE_GRID = build_grid(Manifold.SPHERE, 16, 32)
TORUS_GRID = build_grid(Manifold.TORUS, 16, 128)
TOL = Tolerances(gap_floor=0.05)


def sphere_setup(h, first, last, grid=SPHERE_GRID, gap_floor=0.05):
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, first, last, gap_floor)
    dom = fundamental_domain(grid)
    frame = bands.smooth_frame(spec, group, dom)
    return spec, group, dom, frame


# ---------------------------------------------------------------------------
# plaquette Chern and curvature


def test_chern_plaquette_monopole_flux():
    # spin-1/2 lower band carries uniform curvature: flux per plaquette is
    # half the plaquette solid angle, total 2*pi in magnitude
    h = models.rotor_spin(0.5)
    spec = bands.spectrum_on_grid(h, SPHERE_GRID)
    group = bands.group_for_range(spec, 0, 0, 0.5)
    curv, c = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    assert c == 1
    assert abs(curv.total) == pytest.approx(2 * np.pi, abs=1e-9)
    omega = plaquette_solid_angles(SPHERE_GRID)
    assert np.max(np.abs(curv.flux - 0.5 * omega)) <= 2e-3


def test_chern_plaquette_constant_band_is_zero():
    t = bands.AntiUnitary(np.kron(1j * np.array([[0, -1j], [1j, 0]]), np.eye(2)))

    def const(pts):
        pts = np.atleast_2d(pts)
        flat = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
        return np.broadcast_to(flat, (pts.shape[0], 4, 4)).copy()

    h = bands.HamiltonianField(4, Manifold.SPHERE, t, const)
    spec = bands.spectrum_on_grid(h, SPHERE_GRID)
    group = bands.group_for_range(spec, 0, 1, 0.5)
    curv, c = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    assert c == 0
    assert numkit.max_abs(curv.flux) <= 1e-12


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
    curv, _ = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    res = invariants.curvature_tr_evenness(curv, SPHERE_GRID)
    assert res <= invariants.evenness_tolerance(curv)

    broken = models.tri_broken(h, breaking_strength=0.5, seed=2)
    bspec = bands.spectrum_on_grid(broken, SPHERE_GRID)
    bgroup = bands.find_gapped_groups(bspec, 0.05)[0]
    bcurv, _ = invariants.chern_plaquette(bspec.band_vectors(bgroup), SPHERE_GRID)
    bres = invariants.curvature_tr_evenness(bcurv, SPHERE_GRID)
    assert bres > 100 * invariants.evenness_tolerance(bcurv)


# ---------------------------------------------------------------------------
# winding Chern


def test_chern_winding_normal_form_loops():
    loop = gauge.normal_form_loop(3, 1, 64)
    assert invariants.chern_winding((loop,)) == 3
    loop = gauge.normal_form_loop(2, 2, 64)
    assert invariants.chern_winding((loop,)) == 2


def test_cross_method_equality_rotor():
    h = models.rotor_spin(0.5)
    spec, group, dom, frame = sphere_setup(h, 0, 0)
    _, c_p = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    loop = bands.transition_loops(frame, h.t)[0]
    assert invariants.chern_winding((loop,)) == c_p


def test_chern_winding_torus_even_and_cross_method():
    h = models.torus_doubled_chern(m=1.0, epsilon=0.1, seed=3)
    spec = bands.spectrum_on_grid(h, TORUS_GRID)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    dom = fundamental_domain(TORUS_GRID)
    frame = bands.smooth_frame(spec, group, dom)
    u_plus, u_minus = bands.transition_loops(frame, h.t)
    c_w = invariants.chern_winding((u_plus, u_minus))
    _, c_p = invariants.chern_plaquette(spec.band_vectors(group), TORUS_GRID)
    assert c_w == c_p
    assert c_w % 2 == 0 and abs(c_w) == 2


# ---------------------------------------------------------------------------
# M field, Kane-Mele boundary and census


def test_m_field_skew_and_pf_det_consistency():
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    spec, group, dom, frame = sphere_setup(h, 0, 1)
    mf = invariants.m_field(frame, h.t)
    assert mf.skew_residual <= 1e-12
    dets = np.linalg.det(mf.values)
    assert np.max(np.abs(np.abs(mf.pf) ** 2 - np.abs(dets))) <= 1e-6


def test_m_field_rank1_vanishes_identically():
    # Kramers orthogonality: <u, T u> = 0 pointwise for a single band
    h = models.rotor_spin(0.5)
    spec, group, dom, frame = sphere_setup(h, 0, 0)
    mf = invariants.m_field(frame, h.t)
    assert mf.pf is None
    assert numkit.max_abs(mf.values) <= 1e-12


def test_m_field_trivial_bundle_unit_pf():
    t = bands.AntiUnitary(np.kron(1j * np.array([[0, -1j], [1j, 0]]), np.eye(2)))

    def const(pts):
        pts = np.atleast_2d(pts)
        flat = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
        return np.broadcast_to(flat, (pts.shape[0], 4, 4)).copy()

    h = bands.HamiltonianField(4, Manifold.SPHERE, t, const)
    spec, group, dom, frame = sphere_setup(h, 0, 1, gap_floor=0.5)
    mf = invariants.m_field(frame, h.t)
    assert np.max(np.abs(np.abs(mf.pf) - 1.0)) <= 1e-12
    assert invariants.km_boundary(mf) == 0
    census = invariants.km_census(mf)
    assert census.entries == [] and census.total == 0


def test_km_boundary_equals_half_chern():
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    spec, group, dom, frame = sphere_setup(h, 0, 1)
    _, c = invariants.chern_plaquette(spec.band_vectors(group), SPHERE_GRID)
    mf = invariants.m_field(frame, h.t)
    k = invariants.km_boundary(mf)
    assert 2 * k == c


def test_km_census_matches_boundary_exactly():
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    spec, group, dom, frame = sphere_setup(h, 0, 1)
    mf = invariants.m_field(frame, h.t)
    k = invariants.km_boundary(mf)
    census = invariants.km_census(mf)
    assert census.total == k
    signs = {np.sign(w) for _, w in census.entries}
    assert len(signs) == 1


def test_boundary_sums_match_explicit_torus_differences():
    # chern_winding and km_boundary against wn U+ - wn U- and w0 - w1; the
    # unperturbed model winds on both lines, so the sign of loop 1 matters
    minus_windings = []
    for epsilon, seed in ((0.1, 3), (0.0, 0)):
        h = models.torus_doubled_chern(m=1.0, epsilon=epsilon, seed=seed)
        spec = bands.spectrum_on_grid(h, TORUS_GRID)
        group = bands.group_for_range(spec, 0, 1, 0.05)
        dom = fundamental_domain(TORUS_GRID)
        frame = bands.smooth_frame(spec, group, dom)
        u_plus, u_minus = bands.transition_loops(frame, h.t)
        wn_plus = numkit.winding_number(u_plus.det_loop())
        wn_minus = numkit.winding_number(u_minus.det_loop())
        c = invariants.chern_winding((u_plus, u_minus))
        assert c == wn_plus - wn_minus
        mf = invariants.m_field(frame, h.t)
        w0, w1 = (numkit.winding_number(mf.pf[dom.local_index[loop]])
                  for loop in dom.boundary_loops)
        k = invariants.km_boundary(mf)
        assert k == w0 - w1
        assert abs(c) == 2 and 2 * k == c
        minus_windings.append((wn_minus, w1))
    assert any(wn != 0 and w != 0 for wn, w in minus_windings)


def test_km_transform_identity_under_tr_shift():
    # exact sample-level law: M(phi+pi) = U(phi) conj(M(phi)) U(phi)^t, hence
    # pf M(phi+pi) = det U(phi) conj(pf M(phi)); the constant prefactor drops
    # out of every winding, so no integer output depends on it
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    spec, group, dom, frame = sphere_setup(h, 0, 1)
    mf = invariants.m_field(frame, h.t)
    loop = bands.transition_loops(frame, h.t)[0]
    eq = dom.boundary_loops[0]
    m_eq = mf.values[dom.local_index[eq]]
    L = eq.size
    u = loop.samples
    lhs = np.roll(m_eq, -L // 2, axis=0)
    rhs = np.einsum("vij,vjk,vlk->vil", u, m_eq.conj(), u)
    assert numkit.max_abs(lhs - rhs) <= 1e-10
    pf_eq = mf.pf[dom.local_index[eq]]
    dets = np.linalg.det(u)
    assert np.max(np.abs(np.roll(pf_eq, -L // 2) - dets * pf_eq.conj())) <= 1e-10


def test_km_torus_boundary_and_rank1_rejection():
    h = models.torus_doubled_chern(m=1.0, epsilon=0.1, seed=3)
    spec = bands.spectrum_on_grid(h, TORUS_GRID)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    dom = fundamental_domain(TORUS_GRID)
    frame = bands.smooth_frame(spec, group, dom)
    mf = invariants.m_field(frame, h.t)
    k = invariants.km_boundary(mf)
    _, c = invariants.chern_plaquette(spec.band_vectors(group), TORUS_GRID)
    assert 2 * k == c
    census = invariants.km_census(mf)
    assert census.total == k

    h1 = models.rotor_spin(0.5)
    spec1, group1, dom1, frame1 = sphere_setup(h1, 0, 0)
    with pytest.raises(DomainError):
        invariants.km_boundary(invariants.m_field(frame1, h1.t))


def test_km_census_degenerate_stratum_raises():
    # unperturbed doubled torus model: pf M vanishes on interior symmetry points
    h = models.torus_doubled_chern(m=1.0, epsilon=0.0)
    spec = bands.spectrum_on_grid(h, TORUS_GRID)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    dom = fundamental_domain(TORUS_GRID)
    frame = bands.smooth_frame(spec, group, dom)
    mf = invariants.m_field(frame, h.t)
    assert invariants.km_boundary(mf) in (-1, 1)  # TRI lines stay unitary
    with pytest.raises(DegenerateConfigurationError):
        invariants.km_census(mf)


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

    def inconsistent(h_field, group, grid, tol, group_id, refinements, spectrum):
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
    assert rep.notes == ["cross-method Chern disagreement persisted after refinement"]


def test_analyze_model_rejects_control():
    h = models.tri_broken(models.rotor_spin(0.5), 0.5, seed=1)
    with pytest.raises(DomainError) as err:
        invariants.analyze_model(h, SPHERE_GRID, TOL)
    assert isinstance(err.value, TRIViolationError)
    assert err.value.residual == bands.check_tri(h, SPHERE_GRID)[0]


def test_analyze_model_solves_one_spectrum(monkeypatch):
    # four rank-1 groups with no refinement and no domain rotation: every
    # group is verified against the discovery spectrum, and one evaluation of
    # H serves the TRI check and that spectrum
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
        assert rep.refinements == 0 and rep.domain_rotations == 0
        fresh = invariants.verify_group(h, group, SPHERE_GRID, TOL,
                                        group_id=rep.group_id)
        assert rep.to_dict() == fresh.to_dict()


def test_parity_theorem_on_random_sample():
    grid = build_grid(Manifold.SPHERE, 32, 64)
    for seed in range(110, 118):
        h = models.random_tri("sphere", 4, seed=seed)
        _, groups, results = invariants.analyze_model(h, grid, TOL)
        for rep, _ in results:
            assert rep.parity_ok, (seed, rep.rank, rep.c_plaquette)
            assert rep.consistent


def test_trivial_torus_bundle_zero_by_both_routes():
    t = bands.AntiUnitary(
        np.kron(np.array([[0, -1], [1, 0]], dtype=complex), np.eye(2))
    )

    def const(pts):
        pts = np.atleast_2d(pts)
        flat = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
        return np.broadcast_to(flat, (pts.shape[0], 4, 4)).copy()

    h = bands.HamiltonianField(4, Manifold.TORUS, t, const)
    grid = build_grid(Manifold.TORUS, 8, 16)
    residual, ok = bands.check_tri(h, grid, 1e-12)
    assert ok, residual
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.5)
    _, c_p = invariants.chern_plaquette(spec.band_vectors(group), grid)
    dom = fundamental_domain(grid)
    frame = bands.smooth_frame(spec, group, dom)
    u_plus, u_minus = bands.transition_loops(frame, h.t)
    assert c_p == 0
    assert invariants.chern_winding((u_plus, u_minus)) == 0
