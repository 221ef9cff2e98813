import re

import numpy as np
import pytest

from phasetop import bands, gauge, invariants, models, numkit
from phasetop.errors import DomainError, ExtensionError
from phasetop.phasespace import Manifold, build_grid
from test_phasespace import domain_rows


def rotor_equator_loop(n_lat=16, n_lon=32, band=(0, 0)):
    h = models.rotor_spin(0.5)
    grid = build_grid(Manifold.SPHERE, n_lat, n_lon)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, band[0], band[1], 0.5)
    frame = bands.smooth_frame(spec, group, grid)
    return h, grid, frame, bands.transition_loops(frame, h.t)[0][0]


def kramers_equator_loop(n_lat, n_lon):
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    grid = build_grid(Manifold.SPHERE, n_lat, n_lon)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    frame = bands.smooth_frame(spec, group, grid)
    return bands.transition_loops(frame, h.t)[0][0]


# ---------------------------------------------------------------------------
# normal forms


def antisymmetry(v):
    """max |V(phi + pi)^t + V(phi)| over a loop."""
    return numkit.max_abs(np.roll(v, -len(v) // 2, axis=0).transpose(0, 2, 1) + v)


def test_normal_form_scalar():
    loop = gauge.normal_form_loop(1, 1, 32)
    phi = 2 * np.pi * np.arange(32) / 32
    assert np.allclose(loop[:, 0, 0], np.exp(1j * phi))
    assert antisymmetry(loop) <= 1e-12


def test_normal_form_rank2_winds_twice():
    loop = gauge.normal_form_loop(2, 2, 64)
    assert np.allclose(loop[0], np.eye(2))
    assert numkit.det_winding(loop) == 2
    assert antisymmetry(loop) <= 1e-12


def test_normal_form_parity_violation():
    with pytest.raises(DomainError):
        gauge.normal_form_loop(0, 1, 32)


# ---------------------------------------------------------------------------
# boundary gauge solve


def test_solve_gauge_identity_case():
    _, _, _, u = rotor_equator_loop()
    w, residual_pi, residual_2pi = gauge.solve_equator_gauge(u, u)
    assert numkit.max_abs(w[0] - np.eye(1)) <= 1e-12
    assert residual_pi <= 1e-12 and residual_2pi <= 1e-12
    assert gauge.gauge_relation_residual(u, u, w) <= 1e-10
    assert numkit.det_winding(w) == 0


def test_solve_gauge_against_normal_form():
    h, grid, frame, u = rotor_equator_loop()
    c = invariants.chern_winding((u,))
    v = gauge.normal_form_loop(c, 1, grid.n_lon)
    w, residual_pi, residual_2pi = gauge.solve_equator_gauge(u, v)
    assert residual_pi <= 1e-8
    assert residual_2pi <= 1e-8
    assert gauge.gauge_relation_residual(u, v, w) <= 1e-8
    assert numkit.det_winding(w) == 0


@pytest.mark.parametrize("c_u,c_v,n_b", [(1, 1, 1), (1, 3, 1), (1, -3, 1),
                                         (2, 2, 2), (0, 4, 2), (-2, 2, 4)])
def test_obstruction_is_half_winding_difference(c_u, c_v, n_b):
    u = gauge.normal_form_loop(c_u, n_b, 128)
    v = gauge.normal_form_loop(c_v, n_b, 128)
    w, residual_pi, residual_2pi = gauge.solve_equator_gauge(u, v)
    assert residual_pi <= 1e-10 and residual_2pi <= 1e-10
    assert numkit.det_winding(w) == (c_v - c_u) // 2


def test_solve_gauge_rank2_model_loop():
    u = kramers_equator_loop(16, 64)
    c = invariants.chern_winding((u,))
    v = gauge.normal_form_loop(c, 2, 64)
    w, residual_pi, residual_2pi = gauge.solve_equator_gauge(u, v)
    assert residual_pi <= 1e-8 and residual_2pi <= 1e-8
    assert gauge.gauge_relation_residual(u, v, w) <= 1e-8
    assert numkit.det_winding(w) == 0


@pytest.mark.parametrize("n_b,c_v", [(1, 1), (1, 3), (2, 2), (2, 4)])
def test_solve_gauge_second_half_matches_recurrence(n_b, c_v):
    # the per-sample geodesic from W(0) = U(0)^-1 V(0) to W(pi) = I on the
    # first half and the recurrence W(phi) = (V(psi) W(psi)^-1 U(psi)^-1)^t,
    # psi = phi - pi, on the second are the reference; the stacked solve must
    # equal them bitwise
    u = rotor_equator_loop()[3] if n_b == 1 else kramers_equator_loop(16, 32)
    v = gauge.normal_form_loop(c_v, n_b, u.shape[0])
    w = gauge.solve_equator_gauge(u, v)[0]
    L = w.shape[0]
    ref = np.empty_like(w)
    w0 = u[0].conj().T @ v[0]
    for j in range(L // 2 + 1):
        ref[j] = w0 @ numkit.unitary_powers(w0.conj().T, j / (L // 2))
    for j in range(L // 2 + 1, L):
        psi = j - L // 2
        ref[j] = (v[psi] @ ref[psi].conj().T @ u[psi].conj().T).T
    assert ref.tobytes() == w.tobytes()


@pytest.mark.parametrize("n_b", [1, 2, 4])
def test_stacked_unitary_powers_match_per_sample_loops(n_b):
    # the per-sample loops are the reference for the geodesic samples of
    # solve_equator_gauge and for the holonomy spreading of _pair_congruence;
    # the stacks equal them bitwise
    rng = np.random.default_rng(n_b)
    start, end = (np.linalg.qr(rng.standard_normal((n_b, n_b))
                                + 1j * rng.standard_normal((n_b, n_b)))[0]
                  for _ in range(2))
    step = start.conj().T @ end
    ts = np.arange(33) / 32
    ref = np.stack([start @ numkit.unitary_powers(step, t) for t in ts])
    assert ref.tobytes() == (start @ numkit.unitary_powers(step, ts)).tobytes()
    L = 64
    spread = numkit.unitary_powers(step, -np.arange(L) / L)
    ref = np.stack([numkit.unitary_powers(step, -j / L) for j in range(L)])
    assert ref.tobytes() == spread.tobytes()


def test_normal_form_and_block_target_match_loops():
    for n_b in (1, 2, 4, 6):
        phi = 2 * np.pi * np.arange(32) / 32
        ref = np.zeros((32, n_b, n_b), dtype=complex)
        ref[:, 0, 0] = np.exp(3j * phi)  # c = n_b + 2
        for k in range(1, n_b):
            ref[:, k, k] = np.exp(1j * phi)
        assert ref.tobytes() == gauge.normal_form_loop(n_b + 2, n_b, 32).tobytes()
        if n_b % 2:
            continue
        alphas = np.linspace(0.0, 3.0, 32)
        ref = np.zeros((32, n_b, n_b), dtype=complex)
        ref[:, 0, 1], ref[:, 1, 0] = -np.exp(1j * alphas), np.exp(1j * alphas)
        for b in range(1, n_b // 2):
            ref[:, 2 * b, 2 * b + 1], ref[:, 2 * b + 1, 2 * b] = -1.0, 1.0
        assert ref.tobytes() == gauge._block_target(alphas, n_b).tobytes()


# ---------------------------------------------------------------------------
# disk extension


def test_extend_identity_loop():
    _, grid, _, _ = rotor_equator_loop()
    w = np.broadcast_to(np.eye(1, dtype=complex), (grid.n_lon, 1, 1)).copy()
    ext = gauge.extend_to_disk(w, grid)
    assert numkit.max_abs(ext.values - 1.0) <= 1e-12


def test_extend_contractible_scalar_loop_matches_explicit():
    # boundary e^{i sin(phi)} has winding 0 and the explicit interior field
    # e^{i r sin(phi)} extends it; the relaxed extension stays near it
    n_lat, n_lon = 16, 64
    grid = build_grid(Manifold.SPHERE, n_lat, n_lon)
    phi = 2 * np.pi * np.arange(n_lon) / n_lon
    w = np.exp(1j * np.sin(phi))[:, None, None]
    ext = gauge.extend_to_disk(w, grid)
    eq = grid.boundary_loops[0]
    assert numkit.max_abs(ext.values[eq] - w) <= 1e-12
    vids, _ = domain_rows(grid)
    r = grid.vertex_lat[vids] / (n_lat // 2)
    explicit = np.exp(1j * r * np.sin(phi[grid.vertex_lon[vids]]))
    mismatch = np.max(np.abs(np.angle(ext.values[:, 0, 0] / explicit)))
    assert mismatch <= 0.35  # graph-harmonic vs separable profile, loose bound


def test_extend_rejects_nonzero_winding():
    n_lon = 32
    grid = build_grid(Manifold.SPHERE, 16, n_lon)
    phi = 2 * np.pi * np.arange(n_lon) / n_lon
    w = np.exp(1j * phi)[:, None, None]
    with pytest.raises(DomainError):
        gauge.extend_to_disk(w, grid)


def test_regauge_refuses_an_extension_on_another_grid():
    # an extension built on 16x32 does not regauge a frame on 32x64
    _, grid, frame, _ = rotor_equator_loop(32, 64)
    small = build_grid(Manifold.SPHERE, 16, 32)
    phi = 2 * np.pi * np.arange(small.n_lon) / small.n_lon
    w = np.exp(1j * np.sin(phi))[:, None, None]
    ext = gauge.extend_to_disk(w, small)
    assert ext.grid is small and frame.grid is grid
    with pytest.raises(DomainError, match="^frame and extension live on different grids$"):
        gauge.regauge_frame(frame, ext)


def test_extension_regauges_to_normal_form():
    h, grid, frame, u = rotor_equator_loop()
    c = invariants.chern_winding((u,))
    v = gauge.normal_form_loop(c, 1, grid.n_lon)
    w, _, _ = gauge.solve_equator_gauge(u, v)
    ext = gauge.extend_to_disk(w, grid)
    regauged = gauge.regauge_frame(frame, ext)
    (vloop,), _, _ = bands.transition_loops(regauged, h.t)
    assert numkit.max_abs(vloop - v) <= 1e-6


def test_regauged_frame_residuals_read_the_regauged_data():
    # the Kramers pair's extension W varies over the disk, so v = u conj(W)
    # steps across the domain edges unlike u: frame_residuals measures v itself
    h = models.kramers_pair_sphere(0.1, seed=0)
    grid = build_grid(Manifold.SPHERE, 24, 96)
    spec = bands.spectrum_on_grid(h, grid)
    frame = bands.smooth_frame(spec, bands.group_for_range(spec, 0, 1, 0.05), grid)
    (u,), _, _ = bands.transition_loops(frame, h.t)
    v = gauge.normal_form_loop(invariants.chern_winding((u,)), 2, grid.n_lon)
    ext = gauge.extend_to_disk(gauge.solve_equator_gauge(u, v)[0], grid)
    assert numkit.max_abs(ext.values - ext.values[0]) > 0.5  # not a constant gauge
    regauged = gauge.regauge_frame(frame, ext)
    slabs = spec.band_vectors(frame.group)[:grid.n_domain_vertices]
    for f in (frame, regauged):
        want = max(np.linalg.norm(f.data[a] - f.data[b])
                   for a, b in grid.edges[grid.domain_edge_ids])
        got = bands.frame_residuals(f, slabs)["frame_max_step"]
        assert got == pytest.approx(want, rel=1e-12)
    source, moved = (bands.frame_residuals(f, slabs)["frame_max_step"] for f in (frame, regauged))
    assert abs(moved - source) > 1e-3

@pytest.mark.parametrize("n_lat,n_lon", [(24, 96), (32, 128)])
def test_extend_kramers_loop_from_harmonic_start(n_lat, n_lon):
    # criterion 7's rank-2 loop: the radial blend seeds a defect pair and
    # stalls (after 59 sweeps at 32x128), while the harmonic profile meets the
    # step target as it stands, so the extension runs no sweeps at all
    h = models.kramers_pair_sphere(0.1, seed=0)
    grid = build_grid(Manifold.SPHERE, n_lat, n_lon)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    frame = bands.smooth_frame(spec, group, grid)
    (u,), _, _ = bands.transition_loops(frame, h.t)
    v = gauge.normal_form_loop(invariants.chern_winding((u,)), 2, grid.n_lon)
    ext = gauge.extend_to_disk(gauge.solve_equator_gauge(u, v)[0], grid)
    assert ext.start == "harmonic"
    assert ext.sweeps == 0
    assert ext.max_interior_step <= gauge.EXTENSION_STEP_TARGET
    (vloop,), _, _ = bands.transition_loops(gauge.regauge_frame(frame, ext), h.t)
    assert numkit.max_abs(vloop - v) <= 1e-6


def _start_sweeps(err) -> list:
    return [int(n) for n in re.findall(r"after (\d+) sweeps", str(err.value))]


def test_extend_stops_stalled_two_cycle():
    # bands 2:3 of RandomTRI sphere seed 108 at 32x64: each start's max step
    # is best within 8 sweeps (2.46 and 1.67 rad) and then alternates up and
    # down far above the target; the stall rule must see through that
    # two-cycle (27 and 33 sweeps here, where a step-to-step rule ran 95 and 88)
    h = models.random_tri("sphere", 4, cutoff=3, seed=108)
    grid = build_grid(Manifold.SPHERE, 32, 64)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 2, 3, 0.05)
    (u,), _, _ = bands.transition_loops(bands.smooth_frame(spec, group, grid), h.t)
    v = gauge.normal_form_loop(invariants.chern_winding((u,)), 2, grid.n_lon)
    with pytest.raises(ExtensionError) as err:
        gauge.extend_to_disk(gauge.solve_equator_gauge(u, v)[0], grid)
    assert "harmonic: max step" in str(err.value)
    assert "blend: max step" in str(err.value)
    assert all(25 <= n < 50 for n in _start_sweeps(err))


def test_extend_falls_back_to_blend(monkeypatch):
    # the harmonic field of boundary e^{2.5 i sin(phi)} has a vortex pair near
    # the pole (its pole value is the loop mean J0(2.5) < 0), so at 32x96 that
    # start stalls and only the radial blend extends the loop
    grid = build_grid(Manifold.SPHERE, 32, 96)
    phi = 2 * np.pi * np.arange(grid.n_lon) / grid.n_lon
    w = np.exp(2.5j * np.sin(phi))[:, None, None]
    ext = gauge.extend_to_disk(w, grid)
    assert ext.start == "blend"
    assert ext.max_interior_step <= gauge.EXTENSION_STEP_TARGET
    eq = grid.boundary_loops[0]
    assert numkit.max_abs(ext.values[eq] - w) == 0.0

    # the count covers both starts: the blend alone takes fewer sweeps, and
    # the harmonic start ran until the stall rule stopped it
    with monkeypatch.context() as m:
        m.setattr(gauge, "_harmonic_profile", gauge._blend_profile)
        blend_sweeps = gauge.extend_to_disk(w, grid).sweeps
    harmonic_sweeps = ext.sweeps - blend_sweeps
    assert blend_sweeps > 0 and harmonic_sweeps >= 25

    # one sweep short of the total: the blend gets what the first start left
    monkeypatch.setattr(gauge, "EXTENSION_MAX_SWEEPS", ext.sweeps - 1)
    with pytest.raises(ExtensionError) as err:
        gauge.extend_to_disk(w, grid)
    assert _start_sweeps(err) == [harmonic_sweeps, blend_sweeps - 1]


# ---------------------------------------------------------------------------
# torus skew congruence normal form


def torus_line_loops(epsilon=0.0, seed=2, n_lat=16, n_lon=128):
    h = models.torus_doubled_chern(m=1.0, epsilon=epsilon, seed=seed)
    grid = build_grid(Manifold.TORUS, n_lat, n_lon)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.05)
    frame = bands.smooth_frame(spec, group, grid)
    loops, _, _ = bands.transition_loops(frame, h.t)
    return loops[0], loops[1], invariants.chern_winding(loops)


def minus_line_congruence(samples):
    """The congruence loop W and block target V that skew_normal_form builds
    for its p = pi line, where every alpha is zero."""
    L, nb, _ = samples.shape
    return gauge._pair_congruence(samples), gauge._block_target(np.zeros(L), nb)


def test_skew_normal_form_doubled_model():
    u_plus, u_minus, c = torus_line_loops()
    residual, wd = gauge.skew_normal_form(u_plus, u_minus, c)
    assert residual <= 1e-8
    assert wd["det_v_plus"] == c
    assert wd["det_v_minus"] == 0
    # extendability over the cylinder and the per-line det bookkeeping
    assert wd["det_w_plus"] - wd["det_w_minus"] == 0
    assert 2 * wd["det_w_plus"] == wd["det_v_plus"] - wd["det_u_plus"]
    assert 2 * wd["det_w_minus"] == wd["det_v_minus"] - wd["det_u_minus"]


def test_skew_normal_form_perturbed_model():
    u_plus, u_minus, c = torus_line_loops(epsilon=0.1, seed=5)
    residual, wd = gauge.skew_normal_form(u_plus, u_minus, c)
    assert residual <= 1e-8
    assert wd["det_w_plus"] - wd["det_w_minus"] == 0


def test_skew_normal_form_block_input_gives_identity():
    # a loop already in the canonical alpha = 0 block form: W must be the
    # identity family
    L, nb = 64, 4
    block = np.zeros((nb, nb), dtype=complex)
    for b in range(nb // 2):
        block[2 * b, 2 * b + 1] = -1.0
        block[2 * b + 1, 2 * b] = 1.0
    samples = np.broadcast_to(block, (L, nb, nb)).copy()
    residual, _ = gauge.skew_normal_form(samples, samples, 0)
    w, target = minus_line_congruence(samples)
    assert numkit.max_abs(w - np.eye(nb)[None]) <= 1e-12
    assert numkit.max_abs(target - samples) <= 1e-12
    assert residual <= 1e-12


def test_skew_normal_form_rejects_odd_chern():
    u_plus, u_minus, c = torus_line_loops()
    with pytest.raises(DomainError):
        gauge.skew_normal_form(u_plus, u_minus, 1)


def test_skew_normal_form_nontrivial_pairing_holonomy():
    # partner vector conj(U x1) sweeps a cone, so the pair-complement seeds
    # pick up a genuine compact-symplectic holonomy that must be distributed
    # along the loop for W to close
    L, nb, alpha = 256, 4, 0.8
    q = 2 * np.pi * np.arange(L) / L
    v0 = np.zeros((nb, nb), dtype=complex)
    for b in range(nb // 2):
        v0[2 * b, 2 * b + 1] = -1.0
        v0[2 * b + 1, 2 * b] = 1.0
    samples = np.empty((L, nb, nb), dtype=complex)
    for j, qq in enumerate(q):
        w = np.array([0, np.cos(alpha), np.sin(alpha) * np.cos(qq),
                      np.sin(alpha) * np.sin(qq)], dtype=complex)
        u3 = np.array([0, -np.sin(alpha), np.cos(alpha) * np.cos(qq),
                       np.cos(alpha) * np.sin(qq)], dtype=complex)
        u4 = np.array([0, 0, -np.sin(qq), np.cos(qq)], dtype=complex)
        x = np.column_stack([np.eye(nb, dtype=complex)[:, 0], w, u3, u4])
        samples[j] = x.conj() @ v0 @ x.conj().T
    residual, _ = gauge.skew_normal_form(samples, samples, 0)
    assert residual <= 1e-12
    w, target = minus_line_congruence(samples)
    rebuilt = np.einsum("vji,vjk,vkl->vil", w, samples, w)
    assert numkit.max_abs(rebuilt - target) <= 1e-12
    # and W itself closes as a loop: adjacent steps stay small across the seam
    seam = numkit.max_abs(w[0] - w[-1])
    step = max(numkit.max_abs(w[j + 1] - w[j]) for j in range(L - 1))
    assert seam <= 3 * step + 1e-12


def test_skew_normal_form_rank4_random_model():
    h = models.random_tri("torus", 4, seed=2001)
    grid = build_grid(Manifold.TORUS, 16, 128)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.BandGroup(0, 3, np.inf)
    frame = bands.smooth_frame(spec, group, grid)
    loops, _, _ = bands.transition_loops(frame, h.t)
    residual, wd = gauge.skew_normal_form(*loops, invariants.chern_winding(loops))
    assert residual <= 1e-12
    assert 2 * wd["det_w_plus"] == wd["det_v_plus"] - wd["det_u_plus"]
    assert 2 * wd["det_w_minus"] == wd["det_v_minus"] - wd["det_u_minus"]
    assert wd["det_w_plus"] - wd["det_w_minus"] == 0


def _blend_of_minus_identity():
    """_blend_profile of the constant loop -I at 16x32, seeded as extend_to_disk
    seeds it, with the domain's row index of each vertex."""
    grid = build_grid(Manifold.SPHERE, 16, 32)
    n = grid.n_domain_vertices
    radii = grid.vertex_lat[:n] / (grid.n_lat // 2)
    w_b = np.broadcast_to(-np.eye(2, dtype=complex), (grid.n_lon, 2, 2))
    rng = np.random.default_rng(gauge._EXTENSION_SEED)
    return gauge._blend_profile(w_b, radii, grid.vertex_lon[:n], rng), grid.vertex_lat[:n]


def test_blend_retraction_jitters_its_singular_entries():
    # the blend (1 - r) I + r (-I) = (1 - 2r) I is exactly zero on row 4,
    # at radius 1/2: each of those entries is jittered to its own unitary,
    # the same ones on a second call, and the other rows retract to +-I
    values, rows = _blend_of_minus_identity()
    again, _ = _blend_of_minus_identity()
    assert np.array_equal(values, again)
    eye = np.eye(2)
    assert np.max(np.abs(values @ np.swapaxes(values.conj(), 1, 2) - eye)) <= 1e-12
    jittered = values[rows == 4]
    assert len(jittered) == 32 and len({v.tobytes() for v in jittered}) == 32
    assert np.min(np.max(np.abs(jittered - eye), axis=(1, 2))) > 1e-3
    sign = np.where(rows < 4, 1.0, -1.0)[:, None, None]
    assert np.max(np.abs(values[rows != 4] - sign[rows != 4] * eye)) <= 1e-12


def test_retraction_that_stays_singular_raises(monkeypatch):
    svd = np.linalg.svd

    def singular(a):
        u, s, vh = svd(a)
        return u, np.zeros_like(s), vh

    monkeypatch.setattr(np.linalg, "svd", singular)
    with pytest.raises(ExtensionError, match="^polar retraction stayed singular after jitter$"):
        _blend_of_minus_identity()
