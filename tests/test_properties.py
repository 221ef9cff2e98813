"""Property tests: stacked kernels against per-matrix and per-plaquette
references, and gauge invariance of the lattice Chern number."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasetop import bands, invariants, models, numkit
from phasetop.errors import ResolutionError, SingularityError
from phasetop.phasespace import Manifold, build_grid, fundamental_domain

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
