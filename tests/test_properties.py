"""Property tests: stacked kernels against per-matrix and per-plaquette
references, gauge invariance of the lattice Chern number, the declared
orientation, TRI random fields, and deformation brackets."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetop import bands, invariants, models, numkit
from phasetop.errors import PhasetopError, ResolutionError, SingularityError
from phasetop.phasespace import Manifold, build_grid, fundamental_domain, tr_image_batch

SEEDS = st.integers(0, 2**32 - 1)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# polar_unitary


@given(seed=SEEDS, m=st.integers(1, 6), n=st.integers(1, 4), extra=st.integers(0, 2))
def test_polar_stack_matches_per_matrix(seed, m, n, extra):
    rng = np.random.default_rng(seed)
    a = complex_normal(rng, (m, n + extra, n))
    a[:, :n, :] += 3.0 * np.eye(n)  # keep every matrix well conditioned
    stacked = numkit.polar_unitary(a)
    assert stacked.shape == a.shape
    for x, u in zip(a, stacked):
        assert numkit.max_abs(u - numkit.polar_unitary(x)) <= 1e-12


@given(seed=SEEDS, m=st.integers(1, 6), n=st.integers(2, 4), data=st.data())
def test_polar_stack_refuses_one_singular_matrix(seed, m, n, data):
    rng = np.random.default_rng(seed)
    a = complex_normal(rng, (m, n, n)) + 3.0 * np.eye(n)
    bad = data.draw(st.integers(0, m - 1))
    a[bad, :, -1] = a[bad, :, 0]  # two equal columns: rank n - 1
    with pytest.raises(SingularityError):
        numkit.polar_unitary(a)


def test_transport_stack_reraises_rank_deficiency():
    rng = np.random.default_rng(4)
    q = np.linalg.qr(complex_normal(rng, (5, 4, 4)))[0]
    slab = q[:, :, :2]
    u = slab.copy()
    u[3] = q[3, :, 2:]  # orthogonal to its target eigenspace
    assert numkit.max_abs(bands._transport(slab[:3], u[:3]) - slab[:3]) <= 1e-12
    with pytest.raises(SingularityError, match="projector alignment is rank-deficient"):
        bands._transport(slab, u)


# ---------------------------------------------------------------------------
# pfaffian


@given(seed=SEEDS, n=st.sampled_from([2, 4, 6, 8]), m=st.integers(1, 6),
       pivot=st.sampled_from(["plain", "swap", "zero"]), data=st.data())
def test_pfaffian_stack(seed, n, m, pivot, data):
    rng = np.random.default_rng(seed)
    g = complex_normal(rng, (m, n, n))
    s = g - np.swapaxes(g, -1, -2)
    k = data.draw(st.integers(0, m - 1))
    if pivot == "swap":  # the first pivot has to come from a lower row
        s[k, 0, 1] = s[k, 1, 0] = 0.0
    elif pivot == "zero":  # the first column vanishes: pf = 0
        s[k, 0, :] = s[k, :, 0] = 0.0
    pf = numkit.pfaffian(s)
    assert pf.shape == (m,)
    det = np.linalg.det(s)
    assert np.all(np.abs(pf**2 - det) <= 1e-9 * np.maximum(np.abs(det), 1.0))
    single = [numkit.pfaffian(x) for x in s]
    assert all(isinstance(v, complex) for v in single)
    assert np.allclose(pf, single, rtol=1e-12, atol=1e-12)
    if pivot == "zero":
        assert pf[k] == 0
    nested = numkit.pfaffian(np.stack([s, s]))
    assert nested.shape == (2, m)
    assert np.allclose(nested, pf, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# zero census


def census_by_loop(mf, edge_cap):
    """The census one plaquette at a time: (entries, total), or the first
    ResolutionError in plaquette order."""
    dom = mf.domain
    entries, total = [], 0
    for pid, corners in zip(dom.plaq_ids, dom.grid.plaquettes[dom.plaq_ids]):
        vals = mf.pf[dom.local_index[corners]]
        steps = np.angle(np.roll(vals, -1) / vals)
        if np.max(np.abs(steps)) >= edge_cap:
            raise ResolutionError(
                f"pf M phase step near pi on plaquette {int(pid)}; a zero lies "
                "on an edge, refine the grid"
            )
        w = float(steps.sum()) / (2.0 * np.pi)
        wi = int(round(w))
        if abs(w - wi) > 1e-6:
            raise ResolutionError("plaquette winding is not integral")
        if wi != 0:
            entries.append((int(pid), wi))
            total += wi
    return entries, total


CENSUS_DOMAINS = {
    m: fundamental_domain(build_grid(m, 8, 16)) for m in (Manifold.SPHERE, Manifold.TORUS)
}


@given(seed=SEEDS, manifold=st.sampled_from(list(CENSUS_DOMAINS)),
       noise=st.sampled_from([0.0, 0.3, 3.0]),
       edge_cap=st.sampled_from([np.pi - 0.2, 2.0, 1.2]))
def test_km_census_matches_plaquette_loop(seed, manifold, noise, edge_cap):
    rng = np.random.default_rng(seed)
    dom = CENSUS_DOMAINS[manifold]
    x = dom.grid.points[dom.vertex_ids]
    modes = rng.integers(-2, 3, size=(4, 2))
    pf = np.exp(1j * x @ modes.T) @ complex_normal(rng, 4)
    pf += noise * complex_normal(rng, pf.shape)
    mf = invariants.MField(domain=dom, values=np.zeros((pf.size, 2, 2)), pf=pf,
                           skew_residual=0.0, small_pf_vertices=None)
    try:
        want = census_by_loop(mf, edge_cap)
    except ResolutionError as exc:
        with pytest.raises(ResolutionError) as got:
            invariants.km_census(mf, edge_cap)
        assert str(got.value) == str(exc)
        return
    census = invariants.km_census(mf, edge_cap)
    assert (census.entries, census.total) == want


# ---------------------------------------------------------------------------
# gauge invariance of the lattice Chern number


GAUGE_CASES = [
    (models.kramers_pair_sphere(0.1, seed=0), build_grid(Manifold.SPHERE, 16, 32), (0, 1)),
    (models.rotor_spin(1.5), build_grid(Manifold.SPHERE, 16, 32), (1, 1)),
    (models.torus_doubled_chern(1.0, 0.1, seed=3), build_grid(Manifold.TORUS, 16, 32), (0, 1)),
]


@given(seed=SEEDS, case=st.integers(0, len(GAUGE_CASES) - 1))
def test_chern_plaquette_gauge_invariant(seed, case):
    h, grid, (first, last) = GAUGE_CASES[case]
    spec = bands.spectrum_on_grid(h, grid)
    slabs = spec.band_vectors(bands.group_for_range(spec, first, last, 0.05))
    curv, c = invariants.chern_plaquette(slabs, grid)
    rng = np.random.default_rng(seed)
    nb = slabs.shape[2]
    gauge = np.linalg.qr(complex_normal(rng, (grid.n_vertices, nb, nb)))[0]
    curv_g, c_g = invariants.chern_plaquette(slabs @ gauge, grid)
    assert c_g == c
    assert numkit.max_abs(curv_g.flux - curv.flux) <= 1e-9


# ---------------------------------------------------------------------------
# the declared orientation


# perturbed zoo models whose lower pair has c = +-2 and k = +-1
ORIENTATION_CASES = [
    (lambda seed: models.kramers_pair_sphere(0.1, seed), build_grid(Manifold.SPHERE, 16, 32)),
    (lambda seed: models.torus_doubled_chern(1.0, 0.1, seed), build_grid(Manifold.TORUS, 16, 32)),
    (lambda seed: models.torus_doubled_chern(-1.0, 0.1, seed), build_grid(Manifold.TORUS, 16, 32)),
]


def reversed_orientation(domain):
    """The domain with every plaquette and boundary loop traversed backwards."""
    grid = dataclasses.replace(domain.grid, plaquettes=domain.grid.plaquettes[:, ::-1])
    return dataclasses.replace(
        domain, grid=grid, boundary_loops=tuple(loop[::-1] for loop in domain.boundary_loops)
    )


def assert_negated(run, original, flipped):
    """run(flipped) == -run(original), or both fail with the same error type."""
    try:
        want = run(original)
    except PhasetopError as exc:
        with pytest.raises(type(exc)):
            run(flipped)
        return
    assert run(flipped) == -want


@settings(max_examples=6)
@given(seed=st.integers(0, 10**6), case=st.integers(0, len(ORIENTATION_CASES) - 1))
def test_orientation_flip_negates_c_and_k(seed, case):
    build, grid = ORIENTATION_CASES[case]
    h = build(seed)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    domain = fundamental_domain(spec.grid)
    mf = invariants.m_field(bands.smooth_frame(spec, group, domain), h.t)
    flipped = reversed_orientation(domain)
    vectors = spec.band_vectors(group)
    assert_negated(lambda g: invariants.chern_plaquette(vectors, g)[1],
                   domain.grid, flipped.grid)
    flipped_mf = dataclasses.replace(mf, domain=flipped)
    assert_negated(invariants.km_boundary, mf, flipped_mf)
    assert_negated(lambda m: invariants.km_census(m).total, mf, flipped_mf)


# ---------------------------------------------------------------------------
# TRI random fields: projecting the coefficients equals projecting the samples


def tr_part(raw, t, manifold, parity, pts):
    """The sample formula (B(x) + parity J conj(B(tau x)) J^dagger) / 2."""
    return 0.5 * (raw(pts) + parity * t.conjugate_field(raw(tr_image_batch(manifold, pts))))


@given(seed=SEEDS, manifold=st.sampled_from([Manifold.SPHERE, Manifold.TORUS]),
       n_a=st.sampled_from([2, 4, 6]), cutoff=st.sampled_from([1, 2, 3]),
       parity=st.sampled_from([1, -1]))
def test_random_tri_averages_coefficients_like_samples(seed, manifold, n_a, cutoff,
                                                       parity):
    h = models.random_tri(manifold, n_a, cutoff=cutoff, seed=seed)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 2 * np.pi, (200, 2))
    if manifold == Manifold.SPHERE:
        pts[:, 0] = np.arccos(rng.uniform(-1.0, 1.0, 200))
        pts[:2, 0] = [0.0, np.pi]  # both poles
    else:
        pts[:50, 1] = 0.0  # the TRI lines p = 0 and p = pi
        pts[50:100, 1] = np.pi
    if parity == 1:
        # RandomTRI is the TR-even part of its raw field
        raw = models.random_hermitian_field(manifold, n_a, cutoff, seed)
        got, scale = h(pts), 1.0
    else:
        # TRIBrokenControl adds the TR-odd part of a cutoff-2 raw field, at
        # the breaking strength over its sup norm on the probe set
        raw = models.random_hermitian_field(manifold, n_a, 2, seed)
        got = models.tri_broken(h, 0.5, seed)(pts) - h(pts)
        probe = tr_part(raw, h.t, manifold, -1, models._probe_points(manifold))
        scale = 0.5 / np.max(np.linalg.norm(probe, 2, axis=(1, 2)))
    assert numkit.max_abs(got - scale * tr_part(raw, h.t, manifold, parity, pts)) <= 1e-13


# ---------------------------------------------------------------------------
# deformation paths


TRI_PATH_GRID = build_grid(Manifold.TORUS, 16, 32)


@settings(max_examples=5)
@given(m0=st.floats(0.5, 1.5), m1=st.floats(2.5, 3.5), steps=st.integers(5, 11))
def test_tri_path_brackets_doubled_chern_closing(m0, m1, steps):
    # H_s is TorusDoubledChern at m = (1 - s) m0 + s m1, whose lower pair
    # closes its gap at m = 2 only
    path = models.tri_path(models.torus_doubled_chern(m0), models.torus_doubled_chern(m1),
                           TRI_PATH_GRID, (0, 1), steps=steps, gap_floor=1e-3)
    assert path.verdict == "GAP-CLOSES"
    lo, hi = path.closing_bracket
    assert lo <= (2.0 - m0) / (m1 - m0) <= hi
