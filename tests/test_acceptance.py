"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS line (visible with `pytest -s` or `-rA`).
Criterion 3's KM sub-case at epsilon = 0 is a strict expected failure: for
that model the band group and its time-reversal image are orthogonal at every
point, so pf M vanishes identically and the Kane-Mele index is undefined (the
non-generic symmetric stratum excluded by the theory).  See the test body.
"""

import json
import time

import numpy as np
import pytest

from phasetop import bands, cli, gauge, invariants, models, numkit
from phasetop.invariants import Tolerances
from phasetop.phasespace import Manifold, build_grid

TOL = Tolerances(gap_floor=0.05)


def _ok(n, msg):
    print(f"[criterion {n:2d}] PASS: {msg}")


def analyze(h, grid, tol=TOL):
    """analyze_model with each group's report; a group that failed fails the test."""
    tri_residual, groups, results = invariants.analyze_model(h, grid, tol)
    for res in results:
        if isinstance(res, Exception):
            raise res
    return tri_residual, groups, [rep for rep, _ in results]


# ---------------------------------------------------------------------------


def test_criterion_1_rotor_spin_half():
    started = time.perf_counter()
    h = models.rotor_spin(0.5)
    grid = build_grid(Manifold.SPHERE, 32, 64)
    _, groups, reports = analyze(h, grid)
    assert [g.rank for g in groups] == [1, 1]
    cs = sorted(r.c_plaquette for r in reports)
    assert cs == [-1, 1]
    for r in reports:
        assert r.c_plaquette % 2 == 1
        assert r.c_plaquette == r.c_winding
        assert r.parity_ok
    # independent refine-and-stabilize oracle: constant integer across three
    # resolutions of the gauge-invariant plaquette method
    stable = []
    for n in (16, 32, 48):
        g = build_grid(Manifold.SPHERE, n, 2 * n)
        spec = bands.spectrum_on_grid(h, g)
        group = bands.group_for_range(spec, 0, 0, 0.5)
        stable.append(invariants.chern_plaquette(spec.band_vectors(group), g)[1])
    assert len(set(stable)) == 1 and stable[0] == cs[1]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _ok(1, f"rotor j=1/2: c = {cs}, cross-method exact, {elapsed:.2f}s < 10s")


def test_criterion_2_rotor_spin_three_halves():
    h = models.rotor_spin(1.5)
    grid = build_grid(Manifold.SPHERE, 32, 64)
    _, groups, reports = analyze(h, grid)
    assert [g.rank for g in groups] == [1, 1, 1, 1]
    cs = [r.c_plaquette for r in reports]
    assert all(c % 2 == 1 for c in cs)
    assert sum(cs) == 0
    assert all(r.c_plaquette == r.c_winding for r in reports)
    _ok(2, f"rotor j=3/2: four rank-1 bands, c = {cs}, all odd, sum 0")


def test_criterion_3_kramers_pair_bands_and_km():
    started = time.perf_counter()
    grid = build_grid(Manifold.SPHERE, 32, 64)
    for eps in (0.0, 0.1):
        h = models.kramers_pair_sphere(epsilon=eps, seed=0)
        _, groups, reports = analyze(h, grid)
        assert [g.rank for g in groups] == [2, 2]
        assert sorted(r.c_plaquette for r in reports) == [-2, 2]
        assert all(abs(r.c_plaquette) == 2 for r in reports)
        assert all(r.c_plaquette == r.c_winding for r in reports)
    # KM parts at eps = 0.1: boundary winding and zero census agree with c/2
    h = models.kramers_pair_sphere(epsilon=0.1, seed=0)
    _, groups, reports = analyze(h, grid)
    for r in reports:
        assert r.k is not None
        assert 2 * r.k == r.c_plaquette
        assert r.km_relation_ok
        assert r.census_total == r.k
        assert r.census_ok
        assert r.census_same_sign
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    _ok(3, f"Kramers pair: rank-2 bands |c|=2 (eps 0, 0.1); k = c/2 by both "
           f"routes at eps=0.1, zeros same sign, {elapsed:.2f}s < 20s")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: KramersPairSphere at eps=0 has T E(x) orthogonal to "
           "E(x) at every point, so pf M vanishes identically; this is the "
           "non-generic symmetric stratum the theory excludes (see decisions "
           "ledger).  The pipeline reports k: null with the note 'KM index "
           "undefined: pf M vanishes at every domain vertex (symmetric stratum)'.",
)
def test_criterion_3_kramers_pair_km_at_eps_zero():
    grid = build_grid(Manifold.SPHERE, 32, 64)
    h = models.kramers_pair_sphere(epsilon=0.0)
    _, groups, reports = analyze(h, grid)
    for r in reports:
        assert r.k is not None and 2 * r.k == r.c_plaquette  # unattainable


def test_criterion_4_torus_doubled_chern():
    started = time.perf_counter()
    h = models.torus_doubled_chern(m=1.0)
    grid = build_grid(Manifold.TORUS, 16, 128)
    _, groups, reports = analyze(h, grid)
    assert all(g.rank % 2 == 0 for g in groups)
    assert sorted(r.c_plaquette for r in reports) == [-2, 2]
    for r in reports:
        assert r.c_plaquette % 2 == 0
        assert r.c_plaquette == r.c_winding
        assert r.k is not None and 2 * r.k == r.c_plaquette
        assert r.kramers_residual <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    _ok(4, f"doubled torus m=1: even ranks, |c| = 2, k = c/2, Kramers "
           f"residual <= 1e-10, {elapsed:.2f}s < 20s")


def test_criterion_5_randomized_theorem_suite(tmp_path):
    started = time.perf_counter()
    out_s = tmp_path / "sphere.json"
    out_t = tmp_path / "torus.json"
    assert cli.main([
        "random-suite", "--count", "50", "--manifold", "sphere", "--n-a", "4",
        "--seed", "100", "--gap-floor", "0.05", "--grid", "32x64",
        "--out", str(out_s),
    ]) == 0
    assert cli.main([
        "random-suite", "--count", "50", "--manifold", "torus", "--n-a", "4",
        "--seed", "200", "--gap-floor", "0.03", "--grid", "24x128",
        "--out", str(out_t),
    ]) == 0
    sphere = json.loads(out_s.read_text())
    torus = json.loads(out_t.read_text())
    for rep in (sphere, torus):
        t = rep["tally"]
        assert rep["violations"] == []
        assert t["parity_ok"] == t["groups"]
        assert t["evenness_ok"] == t["groups"]
        assert t["consistent"] == t["groups"]
        assert t["km_ok"] == t["km_defined"]
        assert t["census_defined"] == t["km_defined"]  # every census resolves
        assert t["full_bundle_groups"] <= t["groups"]
        assert sum(t["skipped_by_cause"].values()) == t["skipped_marginal"]
        assert rep["max_symmetry_residual"] <= 1e-8
    assert sphere["tally"]["models"] == 50
    assert torus["tally"]["models"] == 50
    assert sphere["tally"]["km_defined"] >= 10  # even-rank groups genuinely hit
    assert torus["tally"]["km_defined"] >= 10
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _ok(5, f"random suite: {sphere['tally']['groups']} sphere + "
           f"{torus['tally']['groups']} torus gapped groups "
           f"({sphere['tally']['full_bundle_groups']} + "
           f"{torus['tally']['full_bundle_groups']} full bundles), all theorems hold, "
           f"{elapsed:.1f}s < 600s")


def test_criterion_6_cross_method_equality_everywhere():
    checked = 0
    cases = [
        (models.rotor_spin(0.5), build_grid(Manifold.SPHERE, 32, 64)),
        (models.rotor_spin(1.5), build_grid(Manifold.SPHERE, 32, 64)),
        (models.kramers_pair_sphere(0.1, seed=0), build_grid(Manifold.SPHERE, 32, 64)),
        (models.torus_doubled_chern(1.0), build_grid(Manifold.TORUS, 16, 128)),
        (models.random_tri("sphere", 4, seed=104), build_grid(Manifold.SPHERE, 32, 64)),
        (models.random_tri("torus", 4, seed=207), build_grid(Manifold.TORUS, 24, 128)),
    ]
    for h, grid in cases:
        _, _, reports = analyze(h, grid)
        for r in reports:
            assert r.c_plaquette == r.c_winding, (h.label, r.group_id)
            checked += 1
    _ok(6, f"c_plaquette == c_winding on {checked} gapped groups, exactly")


def test_criterion_7_gauge_pipeline(tmp_path):
    zoo = [
        (models.rotor_spin(0.5), (0, 0), 32, 64),
        (models.rotor_spin(1.5), (0, 0), 32, 64),   # |c| = 3 band
        (models.rotor_spin(1.5), (1, 1), 32, 64),
        (models.kramers_pair_sphere(0.1, seed=0), (0, 1), 32, 128),
    ]
    for h, (first, last), n_lat, n_lon in zoo:
        grid = build_grid(Manifold.SPHERE, n_lat, n_lon)
        spec = bands.spectrum_on_grid(h, grid)
        group = bands.group_for_range(spec, first, last, 0.05)
        frame = bands.smooth_frame(spec, group, grid)
        (u,), _, _ = bands.transition_loops(frame, h.t)
        c = invariants.chern_winding((u,))
        v = gauge.normal_form_loop(c, group.rank, grid.n_lon)
        w, residual_pi, residual_2pi = gauge.solve_equator_gauge(u, v)
        assert residual_pi <= 1e-8, h.label
        assert residual_2pi <= 1e-8, h.label
        assert numkit.det_winding(w) == 0
        ext = gauge.extend_to_disk(w, grid)
        (regauged,), _, _ = bands.transition_loops(gauge.regauge_frame(frame, ext), h.t)
        assert numkit.max_abs(regauged - v) <= 1e-6, h.label
        # mismatched class: obstruction +-1 and no extension
        v2 = gauge.normal_form_loop(c + 2, group.rank, grid.n_lon)
        w2, _, _ = gauge.solve_equator_gauge(u, v2)
        assert abs(numkit.det_winding(w2)) == 1
    _ok(7, "gauge pipeline: seam residuals <= 1e-8, obstruction 0, disk "
           "extension regauges onto the normal form <= 1e-6; mismatched "
           "class obstructed by 1")


def test_criterion_8_deformation_classification():
    grid = build_grid(Manifold.SPHERE, 16, 32)
    same = invariants.tri_path(
        models.rotor_spin(0.5),
        models.rotor_spin(0.5, perturbation_strength=0.2, seed=5),
        grid, (0, 0), steps=11, gap_floor=1e-3,
    )
    assert same.verdict == "GAPPED-CONSTANT-C"
    assert same.chern == 1

    opposite = invariants.tri_path(
        models.random_tri("sphere", 2, cutoff=2, seed=0),   # c = +1
        models.random_tri("sphere", 2, cutoff=2, seed=6),   # c = -1
        grid, (0, 0), steps=21, gap_floor=1e-3,
    )
    assert opposite.verdict == "GAP-CLOSES"
    lo, hi = opposite.closing_bracket
    assert 0.0 < lo < hi <= 1.0
    _ok(8, f"same-class path constant c = {same.chern}; opposite-class path "
           f"closes its gap inside ({lo:.4f}, {hi:.4f})")


def test_criterion_9_negative_controls():
    grid = build_grid(Manifold.SPHERE, 16, 32)
    base = models.random_tri("sphere", 4, seed=12)
    control = models.tri_broken(base, breaking_strength=0.5, seed=2)
    residual, ok = bands.check_tri(control, grid, 1e-9)
    assert not ok and residual >= 0.25
    spec = bands.spectrum_on_grid(control, grid)
    group = bands.find_gapped_groups(spec, 0.05)[0]
    flux, _ = invariants.chern_plaquette(spec.band_vectors(group), grid)
    evenness = invariants.curvature_tr_evenness(flux, grid)
    assert evenness > 100 * invariants.evenness_tolerance(flux)
    with pytest.raises(Exception):
        invariants.analyze_model(control, grid, TOL)  # reported, not silently run
    _ok(9, f"TRI-broken control: check_tri residual {residual:.2f} and "
           f"curvature evenness {evenness:.2e} both fail as expected")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "rotor.json"
    cfg.write_text(json.dumps({
        "model": {"variant": "RotorSpin", "j": 1.5,
                  "perturbation_strength": 0.1, "seed": 11},
        "grid": {"n_lat": 16, "n_lon": 32},
        "tolerances": {"gap_floor": 0.05},
    }))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    _ok(10, "repeated runs with a fixed seed produce byte-identical reports")
