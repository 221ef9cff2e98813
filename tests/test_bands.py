import dataclasses

import numpy as np
import pytest

from phasetop import bands, models, numkit
from phasetop.bands import AntiUnitary, HamiltonianField
from phasetop.errors import DomainError
from phasetop.phasespace import Manifold, build_grid
from oracles import random_hermitian_field, tr_image_batch
from test_phasespace import domain_rows

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_field(pts):
    return np.einsum("vk,kij->vij", models.directions(np.atleast_2d(pts)),
                     np.stack([SX, SY, SZ]))


def spin_half_tr():
    return AntiUnitary(1j * SY)


def constant_field(mat, manifold, t):
    mat = np.asarray(mat, dtype=complex)

    def evaluate(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(mat, (pts.shape[0],) + mat.shape).copy()

    return HamiltonianField(manifold, t, evaluate)


def symmetrize_tri(evaluate, t, manifold):
    """Oracle: the TRI field of an arbitrary Hermitian field B by group
    averaging, H(x) = (B(x) + J conj(B(tau x)) J^dagger) / 2, evaluating B at
    x and tau x on every call."""
    def tri_eval(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        mirrored = evaluate(tr_image_batch(manifold, pts))
        return 0.5 * (evaluate(pts) + t.conjugate_field(mirrored))

    return HamiltonianField(manifold, t, tri_eval)


def trivial_rank2_bundle():
    # constant TRI model: two flat rank-2 bands with constant Kramers pairing
    t = AntiUnitary(np.kron(1j * SY, np.eye(2)))
    return constant_field(np.kron(np.eye(2), SZ), Manifold.SPHERE, t)


# ---------------------------------------------------------------------------
# AntiUnitary


def test_antiunitary_accepts_fermionic():
    t = spin_half_tr()
    assert numkit.max_abs(t.j @ t.j.conj() + np.eye(2)) <= 1e-15


def test_antiunitary_rejects_bosonic():
    with pytest.raises(DomainError):
        AntiUnitary(np.eye(2))  # squares to +1


def test_antiunitary_rejects_odd_dimension():
    with pytest.raises(DomainError):
        AntiUnitary(np.eye(3))


def test_antiunitary_holds_j_as_a_permutation_and_phases():
    t = AntiUnitary(np.kron(1j * SY, np.eye(2)))
    assert t.perm.tolist() == [2, 3, 0, 1]
    assert t.phase.tolist() == [1, 1, -1, -1]


def test_antiunitary_refuses_a_j_that_is_not_a_phased_permutation():
    # U J U^t is a valid fermionic J for every unitary U (it is unitary and
    # squares to -1), but it has no index form
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    j = u @ np.kron(1j * SY, np.eye(2)) @ u.T
    assert numkit.max_abs(j.conj().T @ j - np.eye(4)) <= 1e-13
    assert numkit.max_abs(j @ j.conj() + np.eye(4)) <= 1e-13
    with pytest.raises(DomainError, match=r"not a phased permutation \(one nonzero entry "
                                          r"in each row and column\)"):
        AntiUnitary(j)


def test_fermionic_j_is_skew():
    for t in (spin_half_tr(), models.spin_time_reversal(1.5)):
        assert numkit.max_abs(t.j + t.j.T) <= 1e-12


# ---------------------------------------------------------------------------
# check_tri / symmetrize_tri


def test_check_tri_pauli_model():
    h = HamiltonianField(Manifold.SPHERE, spin_half_tr(), pauli_field)
    grid = build_grid(Manifold.SPHERE, 8, 16)
    residual, ok = bands.check_tri(h, grid)
    assert ok and residual <= 1e-12


def test_check_tri_sigma_z_breaks_tr():
    h = constant_field(SZ, Manifold.SPHERE, spin_half_tr())
    grid = build_grid(Manifold.SPHERE, 8, 16)
    residual, ok = bands.check_tri(h, grid)
    assert not ok
    assert residual == pytest.approx(2.0)  # T sz T^-1 = -sz


def test_symmetrize_fixed_point():
    grid = build_grid(Manifold.SPHERE, 8, 16)
    t = spin_half_tr()
    h = symmetrize_tri(pauli_field, t, Manifold.SPHERE)
    hs = h(grid.points)
    assert numkit.max_abs(hs - pauli_field(grid.points)) <= 1e-14


def test_symmetrize_kills_odd_part():
    grid = build_grid(Manifold.SPHERE, 8, 16)
    t = spin_half_tr()
    const = constant_field(SZ, Manifold.SPHERE, t)
    h = symmetrize_tri(const.evaluate, t, Manifold.SPHERE)
    assert numkit.max_abs(h(grid.points)) <= 1e-15


def test_symmetrize_random_field_is_tri():
    t = AntiUnitary(np.kron(1j * SY, np.eye(2)))
    raw = random_hermitian_field(Manifold.SPHERE, 4, 2, seed=5)
    h = symmetrize_tri(raw, t, Manifold.SPHERE)
    grid = build_grid(Manifold.SPHERE, 8, 16)
    residual, ok = bands.check_tri(h, grid, tol=1e-12)
    assert ok, residual


# ---------------------------------------------------------------------------
# spectra and groups


def test_spectrum_deterministic_and_tr_even():
    h = models.random_tri("sphere", 4, cutoff=2, seed=9)
    grid = build_grid(Manifold.SPHERE, 8, 16)
    s1 = bands.spectrum_on_grid(h, grid)
    s2 = bands.spectrum_on_grid(dataclasses.replace(h), grid)  # a new memo: a real solve
    assert np.array_equal(s1.vectors, s2.vectors)
    # antiunitary conjugation preserves spectra: E_i(tau x) = E_i(x)
    assert numkit.max_abs(s1.energies[grid.tau_vertex] - s1.energies) <= 1e-9


def test_find_gapped_groups_pauli():
    h = HamiltonianField(Manifold.SPHERE, spin_half_tr(), pauli_field)
    grid = build_grid(Manifold.SPHERE, 8, 16)
    spec = bands.spectrum_on_grid(h, grid)
    groups = bands.find_gapped_groups(spec, 1e-6)
    assert [(g.first, g.last) for g in groups] == [(0, 0), (1, 1)]
    assert groups[0].min_gap == pytest.approx(2.0)


def test_find_gapped_groups_kramers_doublets():
    h = models.kramers_pair_sphere(epsilon=0.0)
    grid = build_grid(Manifold.SPHERE, 8, 16)
    spec = bands.spectrum_on_grid(h, grid)
    groups = bands.find_gapped_groups(spec, 1e-6)
    assert [(g.first, g.last, g.rank) for g in groups] == [(0, 1, 2), (2, 3, 2)]


def test_find_gapped_groups_closing_parameter():
    # m = 2 closes the gap: fewer groups than in the gapped phase
    h = models.torus_doubled_chern(m=2.0)
    grid = build_grid(Manifold.TORUS, 16, 16)
    spec = bands.spectrum_on_grid(h, grid)
    groups = bands.find_gapped_groups(spec, 1e-3)
    assert len(groups) == 1 and groups[0].rank == 4


# ---------------------------------------------------------------------------
# frames


def test_smooth_frame_rank1_covers_domain():
    h = HamiltonianField(Manifold.SPHERE, spin_half_tr(), pauli_field)
    grid = build_grid(Manifold.SPHERE, 16, 32)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 0, 0.5)
    frame = bands.smooth_frame(spec, group, grid)
    vids, _ = domain_rows(grid)
    res = bands.frame_residuals(frame, spec.band_vectors(group)[vids])
    assert res["frame_orthonormality"] <= 1e-10
    assert res["frame_span"] <= 1e-8
    assert res["frame_continuity_const"] < 5.0


def test_torus_continuity_const_reads_the_torus_row_spacing():
    # torus rows are 2 pi / n_lat apart in p (sphere rows pi / n_lat in theta);
    # at 16x128 the row spacing is the larger grid step
    h = models.torus_doubled_chern(m=1.0)
    grid = build_grid(Manifold.TORUS, 16, 128)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.5)
    frame = bands.smooth_frame(spec, group, grid)
    res = bands.frame_residuals(frame, spec.band_vectors(group)[domain_rows(grid)[0]])
    h_step = max(2 * np.pi / grid.n_lat, 2 * np.pi / grid.n_lon)
    assert res["frame_max_step"] > 0
    assert res["frame_continuity_const"] * h_step == pytest.approx(res["frame_max_step"],
                                                                   rel=1e-12)


def test_smooth_frame_constant_hamiltonian_is_constant():
    t = AntiUnitary(np.kron(1j * SY, np.eye(2)))
    h = constant_field(np.kron(np.eye(2), SZ), Manifold.SPHERE, t)
    grid = build_grid(Manifold.SPHERE, 8, 16)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.5)
    frame = bands.smooth_frame(spec, group, grid)
    assert numkit.max_abs(frame.data - frame.data[0][None]) <= 1e-12
    slabs = spec.band_vectors(group)[domain_rows(grid)[0]]
    assert bands.frame_residuals(frame, slabs)["frame_max_step"] <= 1e-12


def test_torus_frame_seam_twist_closes():
    h = models.torus_doubled_chern(m=1.0)
    grid = build_grid(Manifold.TORUS, 16, 64)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.5)
    frame = bands.smooth_frame(spec, group, grid)

    def transport(slab, u):  # one step, with an SVD polar factor
        w, _, vh = np.linalg.svd(slab.conj().T @ u)
        return slab @ w @ vh

    # transporting the twisted base-row frame across the seam and applying the
    # full-loop twist must reproduce the frame at q = 0 exactly
    slabs = spec.band_vectors(group)
    base = [grid.vid(0, j) for j in range(grid.n_lon)]
    raw = [slabs[base[0]]]
    for vid in base[1:]:
        raw.append(transport(slabs[vid], raw[-1]))
    back = transport(slabs[base[0]], raw[-1])
    hol = raw[0].conj().T @ back
    wrap = transport(slabs[base[0]], frame.data[base[-1]])
    twist_step = numkit.unitary_powers(hol, -1.0 / grid.n_lon)
    assert numkit.max_abs(wrap @ twist_step - frame.data[base[0]]) <= 1e-8


# ---------------------------------------------------------------------------
# transition loops


def test_transition_loop_sphere_antisymmetry_exact():
    h = models.rotor_spin(0.5)
    grid = build_grid(Manifold.SPHERE, 16, 32)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 0, 0.5)
    frame = bands.smooth_frame(spec, group, grid)
    _, unitarity, symmetry = bands.transition_loops(frame, h.t)
    assert unitarity <= 1e-9
    assert symmetry <= 1e-12


def test_transition_loop_trivial_bundle_even_winding():
    h = trivial_rank2_bundle()
    grid = build_grid(Manifold.SPHERE, 8, 16)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.5)
    frame = bands.smooth_frame(spec, group, grid)
    (u,), _, _ = bands.transition_loops(frame, h.t)
    w = numkit.det_winding(u)
    assert w % 2 == 0 and w == 0


def test_transition_loop_rejects_non_spanning_frame():
    h = models.rotor_spin(0.5)
    grid = build_grid(Manifold.SPHERE, 8, 16)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 0, 0.5)
    frame = bands.smooth_frame(spec, group, grid)
    broken = bands.Frame(grid, group, np.roll(frame.data, 3, axis=0))
    with pytest.raises(DomainError):
        bands.transition_loops(broken, h.t)


def test_transition_loops_torus_skew():
    h = models.torus_doubled_chern(m=1.0, epsilon=0.1, seed=3)
    grid = build_grid(Manifold.TORUS, 16, 64)
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 1, 0.5)
    frame = bands.smooth_frame(spec, group, grid)
    u, unitarity, symmetry = bands.transition_loops(frame, h.t)
    assert u.shape == (2, grid.n_lon, 2, 2)
    assert unitarity <= 1e-9
    assert symmetry <= 1e-8


def _unitarity(u):
    """max |U^dagger U - I| over one loop."""
    return numkit.max_abs(np.einsum("vji,vjk->vik", u.conj(), u) - np.eye(u.shape[1]))


def _sphere_loop_oracle(frame, t):
    """The explicit equator formula: T u(phi + pi) = u(phi) U(phi)^t, with the
    antisymmetry residual max |U(phi + pi)^t + U(phi)| and the unitarity
    residual."""
    eq = frame.data[frame.grid.boundary_loops[0]]
    L = eq.shape[0]
    shifted = t.apply(np.roll(eq, -L // 2, axis=0))
    u = np.einsum("vji,vjk->vik", eq.conj(), shifted).transpose(0, 2, 1)
    anti = float(numkit.max_abs(np.roll(u, -L // 2, axis=0).transpose(0, 2, 1) + u))
    return [(u, anti, _unitarity(u))]


def _torus_loops_oracle(frame, t):
    """The explicit TRI-line formula: tau fixes p = 0 and p = pi pointwise, so
    U = (u^dagger T u)^t on each line, with the skewness residual max |U + U^t|
    and the unitarity residual."""
    out = []
    for loop in frame.grid.boundary_loops:
        row = frame.data[loop]
        u = np.einsum("vji,vjk->vik", row.conj(), t.apply(row)).transpose(0, 2, 1)
        out.append((u, float(numkit.max_abs(u + u.transpose(0, 2, 1))), _unitarity(u)))
    return out


@pytest.mark.parametrize("case", ["sphere", "torus", "torus-rank4"])
def test_transition_loops_match_explicit_formulas(case):
    # in the rank-4 torus case both residuals are largest on the p = pi line,
    # so a maximum over the p = 0 line alone would not match
    last = 1
    if case == "sphere":
        h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
        grid, oracle, shift = build_grid(Manifold.SPHERE, 16, 64), _sphere_loop_oracle, 32
    else:
        if case == "torus":
            h = models.torus_doubled_chern(m=1.0, epsilon=0.1, seed=3)
        else:
            h, last = models.random_tri("torus", 4, seed=205), 3
        grid, oracle, shift = build_grid(Manifold.TORUS, 16, 64), _torus_loops_oracle, 0
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.BandGroup(0, last, spec.bounding_gap(0, last))
    frame = bands.smooth_frame(spec, group, grid)
    assert frame.grid.tau_shift == shift
    u, unitarity, symmetry = bands.transition_loops(frame, h.t)
    expected = oracle(frame, h.t)
    assert len(u) == len(expected)
    for u_i, (ref, _, _) in zip(u, expected):
        assert u_i.tobytes() == ref.tobytes()
    # the residuals are maxima over every loop of the stack
    assert symmetry == max(sym for _, sym, _ in expected)
    assert unitarity == max(unit for _, _, unit in expected)
    assert unitarity <= 1e-9 and symmetry <= 1e-8


# ---------------------------------------------------------------------------
# Kramers pairing


def test_kramers_doubling_on_tri_lines():
    h = models.torus_doubled_chern(m=1.0, epsilon=0.1, seed=1)
    grid = build_grid(Manifold.TORUS, 16, 16)
    spec = bands.spectrum_on_grid(h, grid)
    assert bands.kramers_check(spec, grid) <= 1e-10


def test_kramers_broken_control_splits():
    base = models.torus_doubled_chern(m=1.0)
    h = models.tri_broken(base, breaking_strength=0.8, seed=7)
    grid = build_grid(Manifold.TORUS, 16, 16)
    spec = bands.spectrum_on_grid(h, grid)
    assert bands.kramers_check(spec, grid) > 1e-3


@pytest.mark.parametrize("seed", [7, 8])
def test_kramers_check_reads_both_tri_lines(seed):
    # the TRI lines are the vertices that tau fixes; the largest splitting
    # sits on p = 0 for seed 7 and on p = pi for seed 8
    h = models.tri_broken(models.torus_doubled_chern(m=1.0), breaking_strength=0.8, seed=seed)
    grid = build_grid(Manifold.TORUS, 16, 16)
    spec = bands.spectrum_on_grid(h, grid)
    fixed = np.flatnonzero(grid.tau_vertex == np.arange(grid.n_vertices))
    assert fixed.size == 2 * grid.n_lon
    e = spec.energies[fixed]
    assert bands.kramers_check(spec, grid) == np.max(np.abs(e[:, 0::2] - e[:, 1::2]))


def test_kramers_rejects_sphere():
    h = models.rotor_spin(0.5)
    grid = build_grid(Manifold.SPHERE, 8, 16)
    spec = bands.spectrum_on_grid(h, grid)
    with pytest.raises(DomainError):
        bands.kramers_check(spec, grid)
