"""Property tests: stacked kernels against per-matrix and per-plaquette
references, gauge invariance of the lattice Chern number, the declared
orientation, TRI random fields, and deformation brackets."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetop import bands, invariants, models, numkit
from phasetop.errors import PhasetopError, ResolutionError, SingularityError
from phasetop.invariants import Tolerances
from phasetop.phasespace import Manifold, build_grid, plaquette_sums
from oracles import random_hermitian_field, tr_image_batch
from test_phasespace import domain_rows

SEEDS = st.integers(0, 2**32 - 1)
TOL = Tolerances(gap_floor=0.05)


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


def svd_polar(a):
    w, _, vh = np.linalg.svd(a, full_matrices=False)
    return w @ vh


def with_singular_values(rng, m, rows, sigma):
    """(m, rows, n) stack W diag(sigma) V^dagger with Haar-random W and V."""
    n = sigma.shape[-1]
    w = np.linalg.qr(complex_normal(rng, (m, rows, n)))[0]
    v = np.linalg.qr(complex_normal(rng, (m, n, n)))[0]
    return (w * sigma[:, None, :]) @ np.swapaxes(v.conj(), -1, -2)


@pytest.mark.parametrize("low, high", [(0.5, 1.5), (2.0, 20.0), (1.0, 1.0)],
                         ids=["moderate", "above_sqrt3", "unitary"])
@settings(max_examples=15)
@given(seed=SEEDS, m=st.integers(1, 6), n=st.integers(1, 4), extra=st.integers(0, 2))
def test_polar_matches_an_svd_polar(low, high, seed, m, n, extra):
    rng = np.random.default_rng(seed)
    a = with_singular_values(rng, m, n + extra, rng.uniform(low, high, (m, n)))
    want = svd_polar(a)
    # singular values within a factor 10 of each other converge within the
    # sweep cap, the ones above sqrt(3) after the Gram scale: no SVD is taken
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("took the SVD")):
        u = numkit.polar_unitary(a)
    assert numkit.max_abs(u - want) <= 1e-12
    if low == high == 1.0:  # already unitary: it leaves at sweep 0, untouched
        assert np.array_equal(u, a)


@settings(max_examples=15)
@given(seed=SEEDS, m=st.integers(1, 6), n=st.integers(1, 4), extra=st.integers(0, 2),
       data=st.data())
def test_polar_refuses_one_singular_value_below_the_floor(seed, m, n, extra, data):
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.5, 5.0, (m, n))
    sigma[data.draw(st.integers(0, m - 1)), -1] = 1e-11
    with pytest.raises(SingularityError):
        numkit.polar_unitary(with_singular_values(rng, m, n + extra, sigma))


# 1x1 and 2x2 stacks take closed forms after sweep 0; singular values from
# just above the 1e-10 refusal up to 10, with a condition number up to 1e11
SMALL_SIGMA = st.floats(np.log10(1.01e-10), 1.0)


@settings(max_examples=40)
@given(seed=SEEDS, m=st.integers(1, 6), n=st.integers(1, 2), low=SMALL_SIGMA,
       spread=st.floats(0.0, 3.0))
def test_small_polar_matches_an_svd_polar(seed, m, n, low, spread):
    rng = np.random.default_rng(seed)
    sigma = 10.0 ** np.minimum(low + spread * rng.uniform(0.0, 1.0, (m, n)), 1.0)
    sigma[:, -1] = 10.0 ** low
    a = with_singular_values(rng, m, n, sigma)
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("took the SVD")):
        u = numkit.polar_unitary(a)
    eye = np.eye(n)
    assert numkit.max_abs(np.swapaxes(u.conj(), -1, -2) @ u - eye) <= 1e-14
    # the polar factor's condition number is sigma_max / sigma_min
    kappa = sigma.max(axis=1) / sigma.min(axis=1)
    err = np.max(np.abs(u - svd_polar(a)), axis=(1, 2))
    assert np.all(err <= 1e-14 * kappa)


@pytest.mark.parametrize("smallest, refused", [(0.99e-10, True), (1.01e-10, False)],
                         ids=["below_floor", "above_floor"])
@settings(max_examples=15)
@given(seed=SEEDS, m=st.integers(1, 6), n=st.integers(1, 2), data=st.data())
def test_small_polar_refuses_below_the_floor_only(smallest, refused, seed, m, n, data):
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.5, 5.0, (m, n))
    sigma[data.draw(st.integers(0, m - 1)), -1] = smallest
    a = with_singular_values(rng, m, n, sigma)
    if refused:
        with pytest.raises(SingularityError, match=r"^smallest singular value 9\.9\d\de-11 "
                                                   r"<= 1e-10; input is near-singular$"):
            numkit.polar_unitary(a)
    else:
        u = numkit.polar_unitary(a)
        assert numkit.max_abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(n)) <= 1e-14


@settings(max_examples=30)
@given(seed=SEEDS, m=st.integers(1, 6), n=st.integers(1, 2), data=st.data())
def test_small_polar_returns_unitary_inputs_untouched(seed, m, n, data):
    # unitary matrices leave at sweep 0, the others of the stack take the
    # closed form
    rng = np.random.default_rng(seed)
    a = np.linalg.qr(complex_normal(rng, (m, n, n)))[0]
    scaled = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    a[scaled] *= 2.0
    u = numkit.polar_unitary(a)
    assert np.array_equal(u[~scaled], a[~scaled])
    assert numkit.max_abs(u[scaled] - a[scaled] / 2.0) <= 1e-15


@settings(max_examples=40)
@given(seed=SEEDS, v=st.integers(2, 8), rank=st.integers(1, 3), extra=st.integers(1, 3))
def test_small_rank_links_match_einsum_determinants(seed, v, rank, extra):
    # rank 1 to 3 links from column inner products and the Leibniz formula
    rng = np.random.default_rng(seed)
    frames = np.linalg.qr(complex_normal(rng, (v, rank + extra, rank + extra)))[0][..., :rank]
    a, b = rng.integers(0, v, (2, 3 * v))
    want = np.linalg.det(np.einsum("vji,vjk->vik", frames[a].conj(), frames[b]))
    assert numkit.max_abs(invariants._links(frames[a], frames[b]) - want) <= 1e-14


@given(seed=SEEDS, m=st.integers(1, 4), n=st.integers(2, 5), rank=st.integers(1, 5),
       extra=st.integers(0, 2))
def test_links_take_chains_of_any_leading_shape(seed, m, n, rank, extra):
    # the census split passes (m, n, N_A, N_B) chains: link k of chain i is
    # det(chain[i, k+1]^dagger chain[i, k]), by Leibniz up to rank 3
    rng = np.random.default_rng(seed)
    chain = np.linalg.qr(complex_normal(rng, (m, n, rank + extra, rank + extra)))[0][..., :rank]
    want = np.linalg.det(np.swapaxes(chain[:, 1:].conj(), -1, -2) @ chain[:, :-1])
    links = invariants._links(chain[:, 1:], chain[:, :-1])
    assert links.shape == (m, n - 1)
    assert numkit.max_abs(links - want) <= 1e-14


def test_transport_stack_reraises_rank_deficiency():
    # one eigenbasis at every vertex makes every transport step the identity,
    # until one vertex's group columns turn orthogonal to its chain neighbour's
    grid = build_grid(Manifold.TORUS, 8, 8)
    q = np.linalg.qr(complex_normal(np.random.default_rng(4), (4, 4)))[0]
    energies = np.broadcast_to(np.arange(4.0), (grid.n_vertices, 4))
    vectors = np.broadcast_to(q, (grid.n_vertices, 4, 4)).copy()
    group = bands.BandGroup(0, 1, 1.0)
    frame = bands.smooth_frame(bands.Spectrum(energies, vectors), group, grid)
    assert numkit.max_abs(frame.data - q[:, :2]) <= 1e-12
    vectors[grid.transport_chains[1, 2]] = np.roll(q, 2, axis=1)
    with pytest.raises(SingularityError, match="projector alignment is rank-deficient"):
        bands.smooth_frame(bands.Spectrum(energies, vectors), group, grid)


# ---------------------------------------------------------------------------
# smooth_frame


def sequential_frame(spectrum, group, grid):
    """The frame one transport step at a time, each step with its own SVD
    polar factor: the loop smooth_frame ran before its steps were stacked."""
    def transport(slab, u):
        return slab @ svd_polar(np.swapaxes(slab.conj(), -1, -2) @ u)

    slabs = spectrum.band_vectors(group)
    data = np.zeros((grid.n_domain_vertices, spectrum.n_a, group.rank), dtype=complex)
    chains = grid.transport_chains
    seed_vid = chains[0, 0]
    if grid.manifold == Manifold.SPHERE:
        data[seed_vid] = slabs[seed_vid]
        u = np.broadcast_to(slabs[seed_vid], (chains.shape[0],) + slabs.shape[1:])
    else:
        base = chains[:, 0]
        n_lon = grid.n_lon
        raw = [slabs[seed_vid]]
        for vid in base[1:]:
            raw.append(transport(slabs[vid], raw[-1]))
        holonomy = raw[0].conj().T @ transport(slabs[seed_vid], raw[-1])
        u = np.stack(raw) @ numkit.unitary_powers(holonomy, -np.arange(n_lon) / n_lon)
        data[base] = u
    for row in chains.T[1:]:
        u = transport(slabs[row], u)
        data[row] = u
    return data


def four_band_spectrum(seed, manifold, n_lat, n_lon):
    """Spectrum of H(x) = diag(0, 2, 4, 6) + sum_k f_k(x) A_k, smooth f_k and
    random Hermitian A_k of total norm below 1: every band range is gapped."""
    grid = build_grid(manifold, n_lat, n_lon)
    pts = grid.points
    if manifold == Manifold.SPHERE:
        f = models.directions(pts)
    else:
        f = np.stack([np.cos(pts[:, 0]), np.sin(pts[:, 0]),
                      np.cos(pts[:, 1]), np.sin(pts[:, 1])], axis=1)
    g = complex_normal(np.random.default_rng(seed), (f.shape[1], 4, 4))
    a = g + np.swapaxes(g.conj(), -1, -2)
    a *= 0.9 / np.sum(np.linalg.norm(a, ord=2, axis=(1, 2)))
    hs = np.diag([0.0, 2.0, 4.0, 6.0]) + np.einsum("vk,kij->vij", f, a)
    return bands.Spectrum.from_stack(hs), grid



def gaps_by_point(energies, first, last):
    """Each point's gap between bands [first, last] and their neighbours, one
    point at a time; inf when the range holds every band."""
    out = []
    for e in energies:
        gaps = ([e[first] - e[first - 1]] if first > 0 else []) + (
            [e[last + 1] - e[last]] if last < len(e) - 1 else [])
        out.append(min(gaps, default=np.inf))
    return np.array(out)


@settings(max_examples=30)
@given(seed=SEEDS, n_a=st.integers(3, 6), points=st.integers(1, 12),
       kind=st.sampled_from(["interior", "edge", "full"]), data=st.data())
def test_gaps_around_matches_a_per_point_loop(seed, n_a, points, kind, data):
    g = complex_normal(np.random.default_rng(seed), (points, n_a, n_a))
    spec = bands.Spectrum.from_stack(g + np.swapaxes(g.conj(), -1, -2))
    if kind == "full":
        first, last = 0, n_a - 1
    elif kind == "interior":
        first = data.draw(st.integers(1, n_a - 2))
        last = data.draw(st.integers(first, n_a - 2))
    else:  # touches the lowest or the highest band, not both
        first, last = data.draw(st.sampled_from(
            [(0, b) for b in range(n_a - 1)] + [(a, n_a - 1) for a in range(1, n_a)]))
    want = gaps_by_point(spec.energies, first, last)
    got = spec.gaps_around(first, last)
    assert got.shape == (points,)
    assert np.array_equal(got, want)
    assert np.all(np.isinf(want)) == (kind == "full")
    assert spec.bounding_gap(first, last) == want.min()

@settings(max_examples=24)
@given(seed=SEEDS, manifold=st.sampled_from([Manifold.SPHERE, Manifold.TORUS]),
       rank=st.integers(1, 4), data=st.data())
def test_smooth_frame_matches_sequential_transport(seed, manifold, rank, data):
    first = data.draw(st.integers(0, 4 - rank))
    spec, grid = four_band_spectrum(seed, manifold, 8, 16)
    group = bands.group_for_range(spec, first, first + rank - 1, 0.1)
    frame = bands.smooth_frame(spec, group, grid)
    assert numkit.max_abs(frame.data - sequential_frame(spec, group, grid)) <= 1e-12


@pytest.mark.parametrize("manifold", [Manifold.SPHERE, Manifold.TORUS])
def test_whole_bundle_frame_takes_no_transport_step(manifold):
    # the whole bundle's frame is the seed slab at every domain vertex, with
    # no polar factor or twist; a partial group still transports
    spec, grid = four_band_spectrum(5, manifold, 8, 16)
    calls = {"polar_unitary": 0, "unitary_powers": 0}

    def counted(name):
        kernel = getattr(numkit, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    with mock.patch.multiple(numkit, **{name: counted(name) for name in calls}):
        frame = bands.smooth_frame(spec, bands.group_for_range(spec, 0, 3, 0.1), grid)
        assert calls == {"polar_unitary": 0, "unitary_powers": 0}
        seed = spec.vectors[grid.transport_chains[0, 0]]
        assert frame.data.shape == (grid.n_domain_vertices, 4, 4)
        assert np.all(frame.data == seed)
        bands.smooth_frame(spec, bands.group_for_range(spec, 0, 1, 0.1), grid)
    torus = manifold == Manifold.TORUS
    # the torus twist takes unitary_powers, which takes one polar factor itself
    assert calls == {"polar_unitary": 1 + torus, "unitary_powers": int(torus)}


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


def whole_turns(edge_ids):
    """The whole turns the stub split adds to each flagged edge's step."""
    return edge_ids % 3 - 1


def census_by_loop(grid, pf):
    """The census one plaquette at a time, an edge whose principal step
    reaches the cap, or a boundary-loop edge whose step reaches
    numkit.MAX_LOOP_STEP, taking its whole_turns: (entries, total, the
    boundary edge ids so flagged in loop order, the edge ids at the cap), or
    the first ResolutionError in plaquette order."""
    edge_id = {tuple(e): i for i, e in enumerate(grid.edges.tolist())}

    def principal(a, b):
        lo, hi = min(a, b), max(a, b)
        return edge_id[lo, hi], np.angle(pf[hi] / pf[lo])

    boundary = [e for loop in grid.boundary_loops.tolist()
                for e, step in (principal(a, b) for a, b in zip(loop, loop[1:] + loop[:1]))
                if abs(step) >= numkit.MAX_LOOP_STEP]
    entries, total, capped = [], 0, set()
    plaqs = domain_rows(grid)[1]
    for pid, corners in zip(plaqs, grid.plaquettes[plaqs].tolist()):
        w = 0.0
        for a, b in zip(corners, corners[1:] + corners[:1]):
            if a == b:  # a repeated pole corner
                continue
            e, step = principal(a, b)
            if abs(step) >= invariants.CENSUS_EDGE_CAP:
                capped.add(e)
            if abs(step) >= invariants.CENSUS_EDGE_CAP or e in boundary:
                step += 2 * np.pi * whole_turns(e)
            w += (step if a < b else -step) / (2.0 * np.pi)
        wi = int(round(w))
        if abs(w - wi) > 1e-6:
            raise ResolutionError("plaquette winding is not integral")
        if wi != 0:
            entries.append((int(pid), wi))
            total += wi
    return entries, total, boundary, sorted(capped)


CENSUS_GRIDS = {m: build_grid(m, 8, 16) for m in (Manifold.SPHERE, Manifold.TORUS)}


@given(seed=SEEDS, manifold=st.sampled_from(list(CENSUS_GRIDS)),
       noise=st.sampled_from([0.0, 0.3, 3.0]), tie=st.none() | st.integers(0, 10**6))
def test_km_census_matches_plaquette_loop(seed, manifold, noise, tie):
    rng = np.random.default_rng(seed)
    grid = CENSUS_GRIDS[manifold]
    x = grid.points[domain_rows(grid)[0]]
    modes = rng.integers(-2, 3, size=(4, 2))
    pf = np.exp(1j * x @ modes.T) @ complex_normal(rng, 4)
    pf += noise * complex_normal(rng, pf.shape)
    if tie is not None:  # one edge's principal step exactly at the cap
        edges = grid.edges[grid.domain_edge_ids]
        lo, hi = edges[tie % len(edges)]
        pf[lo], pf[hi] = 1.0, np.exp(1j * invariants.CENSUS_EDGE_CAP)
    # the stub split reads no frame data
    frame = bands.Frame(grid, bands.BandGroup(0, 1, 1.0), np.zeros((pf.size, 2, 2)))
    split = []

    def stub(h_field, frame, pf, edge_ids, gap_floor):
        # a split that ends on the vertex values: the principal step plus whole turns
        split.append(edge_ids.tolist())
        a, b = frame.grid.edges[edge_ids].T
        return np.angle(pf[b] / pf[a]) + 2 * np.pi * whole_turns(edge_ids)

    with mock.patch.object(invariants, "_split_steps", stub):
        k, census, notes = invariants._km_and_census(None, frame, pf, TOL)
    try:
        entries, total, boundary, capped = census_by_loop(grid, pf)
    except ResolutionError as exc:
        assert census is None and notes[-1] == f"census unresolved: {exc}"
        return
    assert (census, sum(w for _, w in census)) == (entries, total)
    assert sum(w for _, w in census) == k
    # each flagged edge is split once: the boundary's first, then the rest at the cap
    rest = sorted(set(capped) - set(boundary))
    assert split == [ids for ids in (boundary, rest) if ids]
    assert notes == ([f"KM boundary: {len(boundary)} steps split"] if boundary else []) + (
        [f"census: {len(capped)} edges split"] if capped else [])


@pytest.mark.parametrize("manifold", list(CENSUS_GRIDS))
@settings(max_examples=5)
@given(seed=SEEDS)
def test_census_total_equals_k_for_any_steps(manifold, seed):
    # k and the census are two sums over one array of steps, and the census
    # telescopes to the boundary sum: whole turns added to any edges move
    # windings, never the match
    rng = np.random.default_rng(seed)
    grid = CENSUS_GRIDS[manifold]
    pf = complex_normal(rng, grid.n_domain_vertices)
    a, b = grid.edges[grid.domain_edge_ids].T
    turns = rng.integers(-2, 3, size=a.size) * (rng.random(a.size) < 0.3)
    steps = np.zeros(len(grid.edges))
    steps[grid.domain_edge_ids] = np.angle(pf[b] / pf[a]) + 2 * np.pi * turns
    census = invariants.km_census(grid, steps)
    assert sum(w for _, w in census) == invariants.km_boundary(grid, steps)


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
    flux, c = invariants.chern_plaquette(slabs, grid)
    rng = np.random.default_rng(seed)
    nb = slabs.shape[2]
    gauge = np.linalg.qr(complex_normal(rng, (grid.n_vertices, nb, nb)))[0]
    flux_g, c_g = invariants.chern_plaquette(slabs @ gauge, grid)
    assert c_g == c
    assert numkit.max_abs(flux_g - flux) <= 1e-9


def chern_by_corners(vectors, grid):
    """The lattice fluxes one plaquette side at a time: four links per
    plaquette, corner a to corner a + 1, so each edge is met twice."""
    corners = grid.plaquettes
    link_prod = np.ones(len(corners), dtype=complex)
    for a in range(4):
        dets = np.linalg.det(np.einsum("vji,vjk->vik", vectors[corners[:, a]].conj(),
                                       vectors[corners[:, (a + 1) % 4]]))
        link_prod *= dets / np.abs(dets)
    return -np.angle(link_prod)


def chern_by_edges(vectors, grid):
    """The fluxes from one det(u(x)^dagger u(y)) per grid edge, the link of
    every frame before square frames read theirs from vertex determinants."""
    a, b = grid.edges.T
    links = np.linalg.det(np.einsum("vji,vjk->vik", vectors[a].conj(), vectors[b]))
    return -np.angle(np.exp(1j * plaquette_sums(grid, np.angle(links))))


@settings(max_examples=12)
@given(seed=SEEDS, manifold=st.sampled_from([Manifold.SPHERE, Manifold.TORUS]),
       rank=st.integers(1, 4))
def test_chern_plaquette_square_frames_match_edge_links(seed, manifold, rank):
    spec, grid = four_band_spectrum(seed, manifold, 8, 16)
    rng = np.random.default_rng(seed)
    gauge = np.linalg.qr(complex_normal(rng, (grid.n_vertices, rank, rank)))[0]
    vectors = spec.vectors[:, :, :rank] @ gauge  # rank 4: a square frame
    flux, c = invariants.chern_plaquette(vectors, grid)
    want = chern_by_edges(vectors, grid)
    assert numkit.max_abs(flux - want) <= 1e-12
    assert c == round(want.sum() / (2 * np.pi))


EDGE_LINK_CASES = [
    (lambda seed: models.kramers_pair_sphere(0.1, seed), build_grid(Manifold.SPHERE, 8, 16)),
    (lambda seed: models.rotor_spin(1.5, 0.1, seed), build_grid(Manifold.SPHERE, 16, 32)),
    (lambda seed: models.torus_doubled_chern(1.0, 0.1, seed), build_grid(Manifold.TORUS, 8, 16)),
]


@settings(max_examples=12)
@given(seed=st.integers(0, 10**6), case=st.integers(0, len(EDGE_LINK_CASES) - 1))
def test_chern_plaquette_edge_links_match_corner_loop(seed, case):
    build, grid = EDGE_LINK_CASES[case]
    spec = bands.spectrum_on_grid(build(seed), grid)
    vectors = spec.band_vectors(bands.group_for_range(spec, 0, 1, 1e-3))
    rng = np.random.default_rng(seed)
    vectors = vectors @ np.linalg.qr(complex_normal(rng, (grid.n_vertices, 2, 2)))[0]
    flux, c = invariants.chern_plaquette(vectors, grid)
    want = chern_by_corners(vectors, grid)
    assert numkit.max_abs(flux - want) <= 1e-12
    assert c == round(want.sum() / (2 * np.pi))


# ---------------------------------------------------------------------------
# the declared orientation


# perturbed zoo models whose lower pair has c = +-2 and k = +-1
ORIENTATION_CASES = [
    (lambda seed: models.kramers_pair_sphere(0.1, seed), build_grid(Manifold.SPHERE, 16, 32)),
    (lambda seed: models.torus_doubled_chern(1.0, 0.1, seed), build_grid(Manifold.TORUS, 16, 32)),
    (lambda seed: models.torus_doubled_chern(-1.0, 0.1, seed), build_grid(Manifold.TORUS, 16, 32)),
]


def reversed_orientation(grid):
    """The grid with every plaquette and boundary loop traversed backwards."""
    flipped = dataclasses.replace(grid, plaquettes=grid.plaquettes[:, ::-1])
    # boundary_loops is derived from the shape; reverse it on this private copy.
    # Step i of a reversed loop is step L - 2 - i of the original, run backwards
    object.__setattr__(flipped, "boundary_loops", grid.boundary_loops[:, ::-1])
    for name, sign in (("loop_edge", 1), ("loop_sign", -1)):
        object.__setattr__(flipped, name, sign * np.roll(getattr(grid, name)[:, ::-1], -1, axis=1))
    return flipped


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
    frame = bands.smooth_frame(spec, group, grid)
    pf = invariants.m_field(frame, h.t)
    flipped = reversed_orientation(grid)
    vectors = spec.band_vectors(group)
    assert_negated(lambda g: invariants.chern_plaquette(vectors, g)[1], grid, flipped)
    (k, census, _), (k_flipped, census_flipped, _) = (
        invariants._km_and_census(h, f, pf, TOL)
        for f in (frame, dataclasses.replace(frame, grid=flipped)))
    assert k_flipped == -k and (sum(w for _, w in census_flipped)
                                == -sum(w for _, w in census))


# ---------------------------------------------------------------------------
# time reversal as index data against the dense products it stands for


def phased_involution(rng, n):
    """A random fermionic J with one nonzero entry per row and column: a
    fixed-point-free involution pairs the indices, and each pair (a, b) takes
    J[a, b] = p and J[b, a] = -p for a random phase p."""
    j = np.zeros((n, n), dtype=complex)
    for a, b in rng.permutation(n).reshape(-1, 2):
        p = np.exp(2j * np.pi * rng.uniform())
        j[a, b], j[b, a] = p, -p
    return j


@settings(max_examples=25)
@given(seed=SEEDS, half=st.integers(1, 4))
def test_time_reversal_gathers_match_dense_products(seed, half):
    n = 2 * half
    rng = np.random.default_rng(seed)
    j = phased_involution(rng, n)
    t = bands.AntiUnitary(j)
    assert np.array_equal(j[np.arange(n), t.perm], t.phase)
    # a vector (one column), a column block, and stacks of blocks
    for shape in [(n, 1), (n, 3), (7, n, 2), (2, 5, n, n)]:
        x = complex_normal(rng, shape)
        assert numkit.max_abs(t.apply(x) - j @ x.conj()) <= 1e-15
    # fields: a Hermitian stack and a general one
    g = complex_normal(rng, (9, n, n))
    for h in (g + np.swapaxes(g.conj(), 1, 2), g):
        dense = j @ h.conj() @ j.conj().T
        assert numkit.max_abs(t.conjugate_field(h) - dense) <= 1e-14
        assert numkit.max_abs(t.conjugate_field(h[0]) - dense[0]) <= 1e-14


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
        raw = random_hermitian_field(manifold, n_a, cutoff, seed)
        got, scale = h(pts), 1.0
    else:
        # TRIBrokenControl adds the TR-odd part of a cutoff-2 raw field, at
        # the breaking strength over its sup norm on the probe set
        raw = random_hermitian_field(manifold, n_a, 2, seed)
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
    path = invariants.tri_path(models.torus_doubled_chern(m0),
                               models.torus_doubled_chern(m1),
                               TRI_PATH_GRID, (0, 1), steps=steps, gap_floor=1e-3)
    assert path.verdict == "GAP-CLOSES"
    lo, hi = path.closing_bracket
    assert lo <= (2.0 - m0) / (m1 - m0) <= hi
