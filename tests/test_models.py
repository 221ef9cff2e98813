import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import phasetop
from phasetop import bands, invariants, models, numkit
from phasetop.errors import ConfigError, GapError, ResolutionError, TrackingError
from phasetop.phasespace import Manifold, build_grid

SPHERE_GRID = build_grid(Manifold.SPHERE, 16, 32)
TORUS_GRID = build_grid(Manifold.TORUS, 16, 64)

# RandomTRI N_A=2 sphere seeds with known lower-band Chern (plaquette oracle,
# gap > 0.05 on a 16x32 grid)
SEED_C_PLUS_ONE = 0
SEED_C_MINUS_ONE = 6


def lower_band_chern(h, grid, gap_floor=0.05):
    spec = bands.spectrum_on_grid(h, grid)
    group = bands.group_for_range(spec, 0, 0, gap_floor)
    _, c = invariants.chern_plaquette(spec.band_vectors(group), grid)
    return c


def test_angular_momentum_algebra():
    jx, jy, jz = models.angular_momentum(1.5)
    comm = jx @ jy - jy @ jx
    assert numkit.max_abs(comm - 1j * jz) <= 1e-12
    casimir = jx @ jx + jy @ jy + jz @ jz
    assert numkit.max_abs(casimir - 1.5 * 2.5 * np.eye(4)) <= 1e-12


def test_spin_time_reversal_squares_to_minus_one():
    for j in (0.5, 1.5, 2.5):
        t = models.spin_time_reversal(j)
        assert numkit.max_abs(t.j @ t.j.conj() + np.eye(t.dim)) <= 1e-12


def test_rotor_spin_bands_and_gaps():
    h = models.rotor_spin(1.5)
    spec = bands.spectrum_on_grid(h, SPHERE_GRID)
    groups = bands.find_gapped_groups(spec, 1e-6)
    assert [g.rank for g in groups] == [1, 1, 1, 1]
    for g in groups[:-1]:
        assert g.min_gap == pytest.approx(1.0, abs=1e-9)


def test_rotor_spin_all_bands_odd_chern_and_sum_zero():
    h = models.rotor_spin(1.5, perturbation_strength=0.1, seed=2)
    spec = bands.spectrum_on_grid(h, SPHERE_GRID)
    groups = bands.find_gapped_groups(spec, 0.05)
    cs = []
    for g in groups:
        _, c = invariants.chern_plaquette(spec.band_vectors(g), SPHERE_GRID)
        cs.append(c)
    assert all(c % 2 == 1 for c in cs)
    assert sum(cs) == 0
    assert sorted(map(abs, cs)) == [1, 1, 3, 3]


def test_zoo_models_pass_check_tri():
    cases = [
        (models.rotor_spin(0.5, 0.2, seed=1), SPHERE_GRID),
        (models.kramers_pair_sphere(0.1, seed=1), SPHERE_GRID),
        (models.torus_doubled_chern(1.0, 0.1, seed=1), TORUS_GRID),
        (models.random_tri("sphere", 4, seed=1), SPHERE_GRID),
        (models.random_tri("torus", 4, seed=1), TORUS_GRID),
    ]
    for h, grid in cases:
        residual, ok = bands.check_tri(h, grid, 1e-9)
        assert ok, (h.label, residual)


def test_control_fails_check_tri_by_half_strength():
    strength = 0.6
    base = models.rotor_spin(0.5)
    for seed in range(5):
        control = models.tri_broken(base, strength, seed=seed)
        residual, ok = bands.check_tri(control, SPHERE_GRID, 1e-9)
        assert not ok
        assert residual >= strength / 2


def test_models_deterministic_under_seed():
    pts = SPHERE_GRID.points[:50]
    a = models.random_tri("sphere", 4, seed=42)(pts)
    b = models.random_tri("sphere", 4, seed=42)(pts)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, models.random_tri("sphere", 4, seed=43)(pts))


def test_torus_field_matches_mode_sum():
    # the blocked real product against the mode sum it stands for, on more
    # points than one product block holds
    n, cutoff, seed = 4, 3, 11
    rng = np.random.default_rng(seed)
    modes = [(0, 0)] + [(a, b) for a in range(cutoff + 1)
                        for b in range(-cutoff, cutoff + 1) if a > 0 or b > 0]
    coefs = [models._random_hermitian(rng, n)] + [
        models._random_complex(rng, n) for _ in modes[1:]
    ]

    def mode_sum(pts):
        out = np.zeros((pts.shape[0], n, n), dtype=complex)
        for (a, b), c in zip(modes, coefs):
            wave = np.exp(1j * (a * pts[:, 0] + b * pts[:, 1]))[:, None, None]
            out += wave * c
            if (a, b) != (0, 0):
                out += wave.conj() * c.conj().T
        return out

    probe = mode_sum(models._probe_points(Manifold.TORUS))
    norm = np.max(np.linalg.norm(probe, 2, axis=(1, 2)))
    pts = np.random.default_rng(0).uniform(0.0, 2 * np.pi, (1000, 2))
    field = models.random_hermitian_field(Manifold.TORUS, n, cutoff, seed)
    assert numkit.max_abs(field(pts) - mode_sum(pts) / norm) <= 1e-12


def test_sphere_field_matches_monomial_sum():
    # the blocked real product against the monomial sum it stands for, on more
    # points than one product block holds, both poles included
    n, cutoff, seed = 4, 3, 11
    rng = np.random.default_rng(seed)
    monos = [(a, b, c) for a in range(cutoff + 1) for b in range(cutoff + 1 - a)
             for c in range(cutoff + 1 - a - b)]
    coefs = [models._random_hermitian(rng, n) for _ in monos]

    def monomial_sum(pts):
        nvec = models.directions(pts)
        out = np.zeros((pts.shape[0], n, n), dtype=complex)
        for (a, b, c), coef in zip(monos, coefs):
            value = nvec[:, 0] ** a * nvec[:, 1] ** b * nvec[:, 2] ** c
            out += value[:, None, None] * coef
        return out

    probe = monomial_sum(models._probe_points(Manifold.SPHERE))
    norm = np.max(np.linalg.norm(probe, 2, axis=(1, 2)))
    rng = np.random.default_rng(0)
    pts = np.stack([np.arccos(rng.uniform(-1.0, 1.0, 1000)),
                    rng.uniform(0.0, 2 * np.pi, 1000)], axis=1)
    pts[:2] = [[0.0, 0.0], [np.pi, 1.0]]
    field = models.random_hermitian_field(Manifold.SPHERE, n, cutoff, seed)
    assert numkit.max_abs(field(pts) - monomial_sum(pts) / norm) <= 1e-12


def test_field_products_run_on_calling_thread():
    # BLAS worker threads would charge the process more CPU time than wall
    # time; the measurement runs in a fresh interpreter, so threads that other
    # tests left spinning do not count
    script = textwrap.dedent("""
        import os, time
        from phasetop import models, phasespace
        fields = [(models.random_tri(m, 4, seed=1), phasespace.build_grid(m, 128, 256))
                  for m in ("sphere", "torus")]
        for h, grid in fields:
            h(grid.points)
        cpu0, wall0 = os.times(), time.perf_counter()
        for _ in range(5):
            for h, grid in fields:
                h(grid.points)
        cpu1, wall1 = os.times(), time.perf_counter()
        print(cpu1.user - cpu0.user + cpu1.system - cpu0.system, wall1 - wall0)
    """)
    src = str(Path(phasetop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    cpu, wall = map(float, run.stdout.split())
    # 0.05 s covers the 10 ms clock ticks of user and system time
    assert cpu <= 1.2 * wall + 0.05, f"CPU {cpu:.2f} s in {wall:.2f} s of wall time"


def test_build_dispatch_and_validation():
    h = models.build({"variant": "RotorSpin", "j": 0.5, "seed": 7})
    assert h.label == "RotorSpin" and h.n_a == 2
    with pytest.raises(ConfigError):
        models.build({"variant": "RotorSpin"})  # missing j
    with pytest.raises(ConfigError):
        models.build({"variant": "NoSuchModel"})
    with pytest.raises(ConfigError):
        models.build({"variant": "RotorSpin", "j": 0.5, "bogus": 1})
    broken = models.build({
        "variant": "TRIBrokenControl",
        "base": {"variant": "RotorSpin", "j": 0.5},
        "breaking_strength": 0.5,
    })
    assert broken.label == "TRIBrokenControl"


def test_kramers_pair_known_invariants():
    h = models.kramers_pair_sphere(epsilon=0.0)
    spec = bands.spectrum_on_grid(h, SPHERE_GRID)
    groups = bands.find_gapped_groups(spec, 1e-6)
    assert [g.rank for g in groups] == [2, 2]
    cs = [invariants.chern_plaquette(spec.band_vectors(g), SPHERE_GRID)[1]
          for g in groups]
    assert sorted(cs) == [-2, 2]


def test_torus_doubled_known_invariants():
    h = models.torus_doubled_chern(m=1.0)
    spec = bands.spectrum_on_grid(h, TORUS_GRID)
    groups = bands.find_gapped_groups(spec, 1e-6)
    assert [g.rank for g in groups] == [2, 2]
    cs = [invariants.chern_plaquette(spec.band_vectors(g), TORUS_GRID)[1]
          for g in groups]
    assert sorted(cs) == [-2, 2]
    assert bands.kramers_check(spec, TORUS_GRID) <= 1e-10


def test_random_seeds_have_frozen_chern():
    h_plus = models.random_tri("sphere", 2, cutoff=2, seed=SEED_C_PLUS_ONE)
    h_minus = models.random_tri("sphere", 2, cutoff=2, seed=SEED_C_MINUS_ONE)
    assert lower_band_chern(h_plus, SPHERE_GRID) == 1
    assert lower_band_chern(h_minus, SPHERE_GRID) == -1


# ---------------------------------------------------------------------------
# deformation paths


def test_tri_path_same_class_constant():
    h0 = models.rotor_spin(0.5)
    h1 = models.rotor_spin(0.5, perturbation_strength=0.2, seed=5)
    path = models.tri_path(h0, h1, SPHERE_GRID, (0, 0), steps=9, gap_floor=1e-3)
    assert path.verdict == "GAPPED-CONSTANT-C"
    assert path.chern == 1
    assert all(c == 1 for (_, _, c) in path.samples)


def test_tri_path_intermediate_fields_remain_tri():
    h0 = models.rotor_spin(0.5)
    h1 = models.rotor_spin(0.5, perturbation_strength=0.2, seed=5)

    def halfway(pts):
        return 0.5 * h0.evaluate(pts) + 0.5 * h1.evaluate(pts)

    h_mid = bands.HamiltonianField(2, Manifold.SPHERE, h0.t, halfway)
    residual, ok = bands.check_tri(h_mid, SPHERE_GRID, 1e-9)
    assert ok, residual


def test_tri_path_distinct_chern_detects_closing():
    h0 = models.random_tri("sphere", 2, cutoff=2, seed=SEED_C_PLUS_ONE)
    h1 = models.random_tri("sphere", 2, cutoff=2, seed=SEED_C_MINUS_ONE)
    path = models.tri_path(h0, h1, SPHERE_GRID, (0, 0), steps=21, gap_floor=1e-3)
    assert path.verdict == "GAP-CLOSES"
    lo, hi = path.closing_bracket
    assert 0.0 < lo < hi <= 1.0


def test_tri_path_kramers_to_trivial_closes():
    h0 = models.kramers_pair_sphere(epsilon=0.0)
    t = h0.t
    flat = np.kron(np.eye(2), np.diag([1.0, -1.0]))

    def const(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(flat.astype(complex), (pts.shape[0], 4, 4)).copy()

    h1 = bands.HamiltonianField(4, Manifold.SPHERE, t, const)
    residual, ok = bands.check_tri(h1, SPHERE_GRID, 1e-9)
    assert ok
    path = models.tri_path(h0, h1, SPHERE_GRID, (0, 1), steps=13, gap_floor=1e-3)
    assert path.verdict == "GAP-CLOSES"


def test_tri_path_evaluates_each_endpoint_once():
    # every probe mixes the two endpoint stacks, so one evaluation of each
    # endpoint on the grid serves the gap checks, the scan and the bisection
    evaluated = []

    def counted(h, tag):
        def evaluate(pts):
            evaluated.append((tag, len(pts)))
            return h.evaluate(pts)

        return dataclasses.replace(h, evaluate=evaluate)

    h0 = counted(models.random_tri("sphere", 2, cutoff=2, seed=SEED_C_PLUS_ONE), "h0")
    h1 = counted(models.random_tri("sphere", 2, cutoff=2, seed=SEED_C_MINUS_ONE), "h1")
    path = models.tri_path(h0, h1, SPHERE_GRID, (0, 0), steps=21, gap_floor=1e-3)
    assert path.verdict == "GAP-CLOSES" and len(path.samples) >= 21
    n = SPHERE_GRID.n_vertices
    assert evaluated == [("h0", n), ("h1", n)]


def interleaved_tri_path(h0, h1, grid, band_range, steps, gap_floor):
    """Reference scan: each sample is checked for an event as soon as it is
    probed, and the scan goes on after the first event."""
    first, last = band_range
    hs0, hs1 = h0(grid.points), h1(grid.points)

    def probe(s):
        spec = bands.Spectrum.from_stack((1.0 - s) * hs0 + s * hs1, grid)
        min_gap = spec.bounding_gap(first, last)
        if min_gap <= gap_floor:
            return min_gap, None
        group = bands.BandGroup(first, last, min_gap)
        try:
            _, c = invariants.chern_plaquette(spec.band_vectors(group), grid)
        except ResolutionError:
            return min_gap, None
        return min_gap, c

    records, bracket, prev = [], None, None
    for s in np.linspace(0.0, 1.0, steps):
        min_gap, c = probe(float(s))
        records.append((float(s), min_gap, c))
        if c is None and bracket is None:
            lo = prev[0] if prev else float(s)
            bracket = (lo, min(float(s) + 1.0 / (steps - 1), 1.0))
        if (bracket is None and prev is not None and prev[1] is not None
                and c is not None and c != prev[1]):
            lo, c_lo = prev
            hi = float(s)
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                g_mid, c_mid = probe(mid)
                records.append((mid, g_mid, c_mid))
                if c_mid is None:
                    bracket = (lo, hi)
                    break
                if c_mid == c_lo:
                    lo = mid
                else:
                    hi = mid
            if bracket is None:
                bracket = (lo, hi)
        prev = (float(s), c)
    records.sort(key=lambda r: r[0])
    if bracket is not None:
        return models.TriPath(records, "GAP-CLOSES", bracket)
    (chern,) = {c for (_, _, c) in records}
    return models.TriPath(records, "GAPPED-CONSTANT-C", None, chern=chern)


@pytest.mark.parametrize("m1,steps,event", [(3.0, 11, "ungapped sample"),
                                             (3.3, 10, "gapped change of c")])
def test_tri_path_matches_interleaved_scan(m1, steps, event):
    # H_s is TorusDoubledChern at m = 1 + (m1 - 1) s, whose lower pair closes
    # its gap at m = 2: with m1 = 3 the sample s = 1/2 sits on the closing;
    # with m1 = 3.3 it falls between two gapped samples of different c
    h0, h1 = models.torus_doubled_chern(1.0), models.torus_doubled_chern(m1)
    path = models.tri_path(h0, h1, TORUS_GRID, (0, 1), steps=steps, gap_floor=1e-3)
    assert path == interleaved_tri_path(h0, h1, TORUS_GRID, (0, 1), steps, 1e-3)
    assert path.verdict == "GAP-CLOSES"
    assert (len(path.samples) > steps) == (event == "gapped change of c")


def test_tri_path_rejects_mismatched_operators():
    h0 = models.rotor_spin(0.5)
    h1 = models.random_tri("torus", 2, seed=1)
    with pytest.raises(TrackingError):
        models.tri_path(h0, h1, SPHERE_GRID, (0, 0))


def test_tri_path_rejects_ungapped_endpoint():
    h0 = models.rotor_spin(0.5)
    h1 = models.torus_doubled_chern(m=2.0)  # wrong manifold anyway
    with pytest.raises(TrackingError):
        models.tri_path(h0, h1, SPHERE_GRID, (0, 0))
    ungapped = models.torus_doubled_chern(m=2.0)
    gapped = models.torus_doubled_chern(m=1.0)
    with pytest.raises(GapError):
        models.tri_path(gapped, ungapped, TORUS_GRID, (0, 1), gap_floor=1e-3)


def test_rotor_spin_five_halves_full_ladder():
    # six rank-1 bands with c = (5, 3, 1, -1, -3, -5): all odd, sum zero,
    # both Chern routes agreeing at every rung
    h = models.rotor_spin(2.5)
    grid = build_grid(Manifold.SPHERE, 32, 96)
    _, _, results = invariants.analyze_model(
        h, grid, invariants.Tolerances(gap_floor=0.5)
    )
    cs = [r.c_plaquette for r, _ in results]
    assert cs == [5, 3, 1, -1, -3, -5]
    assert all(r.consistent and r.parity_ok for r, _ in results)
