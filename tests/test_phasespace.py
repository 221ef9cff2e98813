import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetop import invariants, phasespace
from phasetop.errors import ConfigError
from phasetop.phasespace import Manifold, build_grid
from oracles import tr_image_batch


def domain_rows(grid):
    """The fundamental domain built through grid.vid, apart from the grid's
    own domain fields: (vertex ids of rows 0 .. n_lat/2, the sphere's north
    pole once, ascending; ids of the plaquettes between those rows)."""
    half = grid.n_lat // 2
    vids = np.unique(grid.vid(np.arange(half + 1)[:, None], np.arange(grid.n_lon)))
    return vids, np.flatnonzero(grid.plaq_lat < half)


def test_tr_image_sphere_equator():
    ((th, ph),) = tr_image_batch(Manifold.SPHERE, np.array([[np.pi / 2, 0.0]]))
    assert th == pytest.approx(np.pi / 2)
    assert ph == pytest.approx(np.pi)


def test_tr_image_torus_fixed_lines():
    assert tr_image_batch(Manifold.TORUS, np.array([[1.0, 0.0]])).tolist() == [[1.0, 0.0]]
    ((q, p),) = tr_image_batch(Manifold.TORUS, np.array([[0.7, 1.3]]))
    assert (q, p) == (0.7, pytest.approx(2 * np.pi - 1.3))


def test_tr_image_sphere_no_fixed_points():
    grid = build_grid(Manifold.SPHERE, 8, 16)
    assert np.all(grid.tau_vertex != np.arange(grid.n_vertices))


def test_build_grid_shares_the_shapes_it_built_last():
    grid = build_grid(Manifold.TORUS, 8, 16)
    assert build_grid("torus", 8, 16) is grid
    assert phasespace.refine_grid(grid) is build_grid(Manifold.TORUS, 16, 32)
    assert build_grid(Manifold.SPHERE, 8, 16) is not grid
    # a shared grid cannot be changed in place
    for name in ("points", "plaquettes", "tau_vertex", "edges", "side_edge"):
        with pytest.raises(ValueError):
            getattr(grid, name)[0] = 0


def test_build_grid_rejects_odd_or_small():
    with pytest.raises(ConfigError):
        build_grid(Manifold.SPHERE, 7, 16)
    with pytest.raises(ConfigError):
        build_grid(Manifold.TORUS, 8, 6)


@pytest.mark.parametrize("size", [2 ** 14 + 2, 10 ** 400], ids=["2**14+2", "401-digit"])
def test_build_grid_refuses_a_size_above_max_loop_samples(monkeypatch, size):
    # the size is refused before any grid array is built; 2**14 itself passes
    built = []
    monkeypatch.setattr(phasespace, "_shared_grid", lambda *shape: built.append(shape))
    for shape in ((size, 32), (32, size)):
        with pytest.raises(ConfigError, match="within 8..16384"):
            build_grid(Manifold.TORUS, *shape)
    assert built == []
    build_grid(Manifold.SPHERE, 8, 2 ** 14)
    assert built == [(Manifold.SPHERE, 8, 2 ** 14)]
    assert invariants.MAX_LOOP_SAMPLES is phasespace.MAX_LOOP_SAMPLES == 2 ** 14


def test_sphere_grid_counts():
    grid = build_grid(Manifold.SPHERE, 8, 16)
    assert grid.n_vertices == 2 + 7 * 16
    assert grid.n_plaquettes == 8 * 16
    # pole-adjacent plaquettes are triangles: the pole corner is repeated
    first = grid.plaquettes[0]
    assert first[0] == 0 and first[3] == 0
    last = grid.plaquettes[-1]
    assert last[1] == grid.n_vertices - 1 and last[2] == grid.n_vertices - 1
    # equator is a grid line at row n_lat/2
    eq = grid.vid(4, np.arange(grid.n_lon))
    assert np.allclose(grid.points[eq, 0], np.pi / 2)


def test_torus_grid_counts():
    grid = build_grid(Manifold.TORUS, 8, 8)
    assert grid.n_vertices == 64
    assert grid.n_plaquettes == 64
    # p = 0 and p = pi are grid rows fixed pointwise by tau
    for row in (0, 4):
        vids = grid.vid(row, np.arange(grid.n_lon))
        assert np.array_equal(grid.tau_vertex[vids], vids)


@pytest.mark.parametrize("manifold,n_lat,n_lon", [
    (Manifold.SPHERE, 8, 16),
    (Manifold.SPHERE, 10, 12),
    (Manifold.TORUS, 8, 8),
    (Manifold.TORUS, 12, 10),
])
def test_tau_is_an_involution(manifold, n_lat, n_lon):
    grid = build_grid(manifold, n_lat, n_lon)
    assert np.array_equal(grid.tau_vertex[grid.tau_vertex], np.arange(grid.n_vertices))
    assert np.array_equal(grid.tau_plaq[grid.tau_plaq], np.arange(grid.n_plaquettes))
    # tau of a plaquette is the plaquette of the tau'd corners (as a set)
    for pid in range(0, grid.n_plaquettes, 7):
        img = grid.tau_plaq[pid]
        assert set(grid.tau_vertex[grid.plaquettes[pid]]) == set(grid.plaquettes[img])


def test_tau_vertex_coordinates_match():
    grid = build_grid(Manifold.SPHERE, 8, 16)
    pts = grid.points
    img = tr_image_batch(Manifold.SPHERE, pts)
    got = pts[grid.tau_vertex]
    # poles carry a conventional phi = 0; compare theta everywhere, phi off-pole
    assert np.allclose(got[:, 0], img[:, 0], atol=1e-12)
    off_pole = (grid.vertex_lat > 0) & (grid.vertex_lat < 8)
    dphi = np.mod(got[off_pole, 1] - img[off_pole, 1], 2 * np.pi)
    dphi = np.minimum(dphi, 2 * np.pi - dphi)
    assert np.max(dphi) <= 1e-12


def test_sphere_tau_maps_hemispheres():
    grid = build_grid(Manifold.SPHERE, 8, 16)
    north = [grid.vid(i, j) for i in range(4) for j in range(16) if i > 0] + [0]
    south = set(
        [grid.vid(i, j) for i in range(5, 9) for j in range(16) if i < 8]
        + [grid.n_vertices - 1]
    )
    assert set(grid.tau_vertex[north]) == south
    # equator maps to itself shifted by half a turn
    eq = grid.vid(4, np.arange(grid.n_lon))
    assert np.array_equal(grid.tau_vertex[eq], np.roll(eq, -8))


def test_fundamental_domain_sphere():
    grid = build_grid(Manifold.SPHERE, 8, 16)
    assert grid.n_domain_vertices == 1 + 4 * 16
    (eq,) = grid.boundary_loops
    assert np.array_equal(eq, grid.vid(4, np.arange(grid.n_lon)))
    # covering: domain plus its tau image is everything; overlap is the boundary
    vids, _ = domain_rows(grid)
    all_vids = set(vids) | set(grid.tau_vertex[vids])
    assert all_vids == set(range(grid.n_vertices))
    overlap = set(vids) & set(grid.tau_vertex[vids])
    assert overlap == set(eq.tolist())


def test_fundamental_domain_torus():
    grid = build_grid(Manifold.TORUS, 8, 8)
    assert grid.n_domain_vertices == 5 * 8
    lo, hi = grid.boundary_loops
    assert np.array_equal(lo, grid.vid(0, np.arange(grid.n_lon)))
    assert np.array_equal(hi, grid.vid(4, np.arange(grid.n_lon)))
    vids, _ = domain_rows(grid)
    all_vids = set(vids) | set(grid.tau_vertex[vids])
    assert all_vids == set(range(grid.n_vertices))
    overlap = set(vids) & set(grid.tau_vertex[vids])
    assert overlap == set(lo.tolist()) | set(hi.tolist())


def test_transport_chains_sphere():
    grid = build_grid(Manifold.SPHERE, 8, 16)
    chains = grid.transport_chains
    assert chains[0, 0] == 0
    assert len(chains) == 16
    for chain in chains:
        assert chain[0] == 0
        assert grid.vertex_lat[chain[-1]] == 4


def test_edge_points_torus_segment_wraps_the_short_way():
    grid = build_grid(Manifold.TORUS, 8, 16)
    a = grid.points[[grid.vid(2, 15), grid.vid(3, 4)]]   # q edge across the seam,
    b = grid.points[[grid.vid(2, 0), grid.vid(4, 4)]]    # p edge inside
    pts = phasespace.edge_points(Manifold.TORUS, a, b, 4)
    assert pts.shape == (2, 3, 2)
    h_q, h_p = 2 * np.pi / 16, 2 * np.pi / 8
    want = np.array([[[(15 + t) * h_q, 2 * h_p] for t in (0.25, 0.5, 0.75)],
                     [[4 * h_q, (3 + t) * h_p] for t in (0.25, 0.5, 0.75)]])
    assert np.max(np.abs(pts - want)) <= 1e-12


def test_edge_points_sphere_arc_from_the_pole_and_along_a_row():
    grid = build_grid(Manifold.SPHERE, 8, 16)
    ends = [(grid.vid(0, 0), grid.vid(1, 5)), (grid.vid(3, 15), grid.vid(3, 0))]
    a, b = (grid.points[[e[i] for e in ends]] for i in (0, 1))
    pts = phasespace.edge_points(Manifold.SPHERE, a, b, 8)
    # a meridian from the pole, at the column's longitude
    assert np.max(np.abs(pts[0, :, 0] - np.arange(1, 8) / 8 * np.pi / 8)) <= 1e-12
    assert np.max(np.abs(pts[0, :, 1] - 2 * np.pi * 5 / 16)) <= 1e-12
    # equal steps on the great circle through both ends
    walk = phasespace.directions(np.concatenate([a[1:], pts[1], b[1:]]))
    gaps = np.arccos(np.clip(np.sum(walk[1:] * walk[:-1], axis=1), -1, 1))
    assert np.max(np.abs(gaps - gaps[0])) <= 1e-12
    normal = np.cross(walk[0], walk[-1])
    assert np.max(np.abs(walk @ normal)) <= 1e-12


def plaquette_solid_angles(grid):
    """Spherical area of each plaquette of a sphere grid: a test oracle."""
    th0 = np.pi * grid.plaq_lat / grid.n_lat
    th1 = np.pi * (grid.plaq_lat + 1) / grid.n_lat
    return (np.cos(th0) - np.cos(th1)) * (2 * np.pi / grid.n_lon)


def test_plaquette_solid_angles_sum_to_sphere_area():
    grid = build_grid(Manifold.SPHERE, 16, 32)
    omega = plaquette_solid_angles(grid)
    assert omega.sum() == pytest.approx(4 * np.pi)
    assert np.all(omega > 0)


def test_domain_boundary_loops():
    sphere = build_grid(Manifold.SPHERE, 8, 16)
    (eq,) = sphere.boundary_loops
    assert np.allclose(sphere.points[eq, 0], np.pi / 2)
    assert np.all(np.diff(sphere.points[eq, 1]) > 0)  # increasing phi
    torus = build_grid(Manifold.TORUS, 8, 8)
    lo, hi = torus.boundary_loops
    assert np.allclose(torus.points[lo, 1], 0.0)
    assert np.allclose(torus.points[hi, 1], np.pi)
    for loop in (lo, hi):
        assert np.all(np.diff(torus.points[loop, 0]) > 0)  # increasing q
    # tau maps sample i of each loop to sample i + tau_shift: a half turn of
    # the equator, the identity on the torus TRI lines
    for grid, shift in ((sphere, 8), (torus, 0)):
        assert grid.tau_shift == shift
        for loop in grid.boundary_loops:
            assert np.array_equal(grid.tau_vertex[loop], np.roll(loop, -shift))


def _grid_by_loops(manifold, n_lat, n_lon):
    """Grid and domain arrays built one vertex, plaquette and edge at a time."""
    L, half = n_lon, n_lat // 2
    sphere = manifold == Manifold.SPHERE
    cells = [(i, j) for i in range(n_lat) for j in range(L)]
    if sphere:
        nv = 2 + (n_lat - 1) * L

        def vid(i, j):
            if i == 0:
                return 0
            if i == n_lat:
                return nv - 1
            return 1 + (i - 1) * L + j % L

        points = ([(0.0, 0.0)]
                  + [(np.pi * i / n_lat, 2 * np.pi * j / L)
                     for i in range(1, n_lat) for j in range(L)]
                  + [(np.pi, 0.0)])
        tau_vertex = np.empty(nv, dtype=int)
        for i in range(n_lat + 1):
            for j in range(L):
                tau_vertex[vid(i, j)] = vid(n_lat - i, j + L // 2)
        plaquettes = [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
                      for i, j in cells]
        tau_plaq = [(n_lat - 1 - i) * L + (j + L // 2) % L for i, j in cells]
        edges = [(0, vid(1, j)) for j in range(L)]
        loops = [[vid(half, j) for j in range(L)]]
    else:
        def vid(i, j):
            return (i % n_lat) * L + j % L

        points = [(2 * np.pi * j / L, 2 * np.pi * i / n_lat) for i, j in cells]
        tau_vertex = [vid(n_lat - i, j) for i, j in cells]
        plaquettes = [(vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j))
                      for i, j in cells]
        tau_plaq = [((n_lat - 1 - i) % n_lat) * L + j for i, j in cells]
        edges = []
        loops = [[vid(0, j) for j in range(L)], [vid(half, j) for j in range(L)]]
    for i in range(1 if sphere else 0, half + 1):
        for j in range(L):
            edges.append((vid(i, j), vid(i, j + 1)))
            if i < half:
                edges.append((vid(i, j), vid(i + 1, j)))
    # the grid's canonical edge order: lower vid first, pairs sorted
    edges = sorted((min(e), max(e)) for e in edges)
    return {"points": points, "plaquettes": plaquettes, "tau_vertex": tau_vertex,
            "tau_plaq": tau_plaq, "edges": edges, "loops": loops}


@pytest.mark.parametrize("manifold", [Manifold.SPHERE, Manifold.TORUS])
@pytest.mark.parametrize("n_lat,n_lon", [(8, 8), (8, 16)])
def test_grid_arrays_match_loop_construction(manifold, n_lat, n_lon):
    grid = build_grid(manifold, n_lat, n_lon)
    ref = _grid_by_loops(manifold, n_lat, n_lon)
    for name in ("points", "plaquettes", "tau_vertex", "tau_plaq"):
        assert np.array_equal(getattr(grid, name), np.asarray(ref[name])), name
    assert np.array_equal(grid.edges[grid.domain_edge_ids], np.asarray(ref["edges"]))
    assert len(grid.boundary_loops) == len(ref["loops"])
    for got, want in zip(grid.boundary_loops, ref["loops"]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("manifold", [Manifold.SPHERE, Manifold.TORUS])
def test_side_table_reads_each_edge_from_both_plaquettes(manifold):
    grid = build_grid(manifold, 8, 16)
    corners = grid.plaquettes
    ends = np.roll(corners, -1, axis=1)
    sign, ids = grid.side_sign, grid.side_edge
    assert np.all(grid.edges[:, 0] <= grid.edges[:, 1])
    # side a reads corner a -> corner a + 1: along the edge, against it, or
    # (sign 0) a repeated pole corner
    oriented = np.where((sign >= 0)[..., None], grid.edges[ids], grid.edges[ids][..., ::-1])
    assert np.array_equal(oriented, np.stack([corners, ends], axis=-1))
    poles = {0, grid.n_vertices - 1} if manifold == Manifold.SPHERE else set()
    assert np.array_equal(sign == 0, corners == ends)
    assert set(corners[sign == 0].tolist()) == poles
    # every other edge is read by two sides with opposite signs, so an edge
    # quantity summed over all plaquettes cancels
    reads = np.zeros(len(grid.edges), dtype=int)
    signed = np.zeros(len(grid.edges), dtype=int)
    np.add.at(reads, ids[sign != 0], 1)
    np.add.at(signed, ids, sign)
    proper = grid.edges[:, 0] != grid.edges[:, 1]
    assert np.all(reads[proper] == 2) and np.all(reads[~proper] == 0)
    assert not np.any(signed)
    values = np.random.default_rng(0).standard_normal(len(grid.edges))
    assert abs(phasespace.plaquette_sums(grid, values).sum()) <= 1e-12
    # the domain's edges: every proper edge with both ends in the domain
    inside = set(domain_rows(grid)[0].tolist())
    want = [e for e, (a, b) in enumerate(grid.edges.tolist())
            if a != b and a in inside and b in inside]
    assert grid.domain_edge_ids.tolist() == want


EVEN_SIZES = st.integers(4, 32).map(lambda n: 2 * n)


@settings(max_examples=8)
@given(manifold=st.sampled_from(list(Manifold)), n_lat=EVEN_SIZES, n_lon=EVEN_SIZES)
def test_fundamental_domain_is_a_prefix_of_the_grid(manifold, n_lat, n_lon):
    # rows 0 .. n_lat/2 come first in the vid and plaquette numbering, so
    # frames, M fields and the census index the domain by grid id
    grid = build_grid(manifold, n_lat, n_lon)
    vids, plaqs = domain_rows(grid)
    assert vids.tolist() == list(range(grid.n_domain_vertices))
    assert plaqs.tolist() == list(range(grid.n_domain_plaquettes))
    if manifold == Manifold.SPHERE:
        assert grid.vid(n_lat // 2, np.arange(grid.n_lon)).tolist() == list(
            range(grid.n_domain_vertices - n_lon, grid.n_domain_vertices))
    inside = set(vids.tolist())
    want = [e for e, (a, b) in enumerate(grid.edges.tolist())
            if a != b and a in inside and b in inside]
    assert grid.domain_edge_ids.tolist() == want
    # the boundary rows, the equator or the lines p = 0 and p = pi in that order
    half = n_lat // 2
    rows = [half] if manifold == Manifold.SPHERE else [0, half]
    assert grid.boundary_loops.tolist() == [
        [grid.vid(i, j) for j in range(n_lon)] for i in rows]
    # one chain per column, walked from row 0 up to the boundary row
    assert grid.transport_chains.tolist() == [
        [grid.vid(i, j) for i in range(half + 1)] for j in range(n_lon)]


@pytest.mark.parametrize("manifold", list(Manifold))
@settings(max_examples=4)
@given(n_lat=EVEN_SIZES, n_lon=EVEN_SIZES)
def test_loop_steps_read_their_grid_edges(manifold, n_lat, n_lon):
    # step j -> j + 1 of each boundary row, the wrap n_lon - 1 -> 0 included,
    # reads the grid edge between its two vids: along it (+1) when the step
    # climbs in vid, against it (-1) otherwise
    grid = build_grid(manifold, n_lat, n_lon)
    edge_id = {tuple(e): i for i, e in enumerate(grid.edges.tolist())}
    rows = [n_lat // 2] if manifold == Manifold.SPHERE else [0, n_lat // 2]
    walks = [[(grid.vid(i, j), grid.vid(i, j + 1)) for j in range(n_lon)] for i in rows]
    assert grid.loop_edge.tolist() == [[edge_id[min(a, b), max(a, b)] for a, b in walk]
                                       for walk in walks]
    assert grid.loop_sign.tolist() == [[1 if a < b else -1 for a, b in walk] for walk in walks]
    assert grid.loop_sign[:, -1].tolist() == [-1] * len(rows)  # the wrap step
