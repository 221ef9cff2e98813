import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from phasetop import numkit
from phasetop.errors import DomainError, ResolutionError, SingularityError


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


# ---------------------------------------------------------------------------
# eigh_many of one matrix


def test_eigh_diagonal():
    (w,), (v,) = numkit.eigh_many(np.diag([2.0, 1.0])[None])
    assert np.allclose(w, [1.0, 2.0])
    # permutation of the identity with positive leading entries
    assert np.allclose(np.abs(v), [[0, 1], [1, 0]])
    assert np.allclose(v, np.abs(v))


def test_eigh_sigma_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    (w,), (v,) = numkit.eigh_many(sx[None])
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)))


def test_eigh_random_residuals():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 8)
    (w,), (v,) = numkit.eigh_many(h[None])
    scale = np.linalg.norm(h, 2)
    assert numkit.max_abs(h @ v - v * w[None, :]) <= 1e-10 * scale
    assert numkit.max_abs(v.conj().T @ v - np.eye(8)) <= 1e-12
    assert np.all(np.diff(w) >= 0)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(DomainError):
        numkit.eigh_many(np.array([[[0, 1], [0, 0]]], dtype=complex))


def test_eigh_deterministic_gauge():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 6)
    _, (v1,) = numkit.eigh_many(h[None])
    _, (v2,) = numkit.eigh_many(h.copy()[None])
    assert np.array_equal(v1, v2)


# ---------------------------------------------------------------------------
# polar_unitary


def test_polar_identity():
    assert np.allclose(numkit.polar_unitary(np.eye(3)), np.eye(3))


def test_polar_strips_positive_scale():
    rng = np.random.default_rng(11)
    q = random_unitary(rng, 4)
    assert np.allclose(numkit.polar_unitary(2.0 * q), q, atol=1e-12)


def test_polar_minimizes_frobenius_distance():
    # independent oracle: numerical minimization over a U(2) parametrization
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a += 3.0 * np.eye(2)  # keep it well conditioned

    def unitary_from(params):
        h = np.array(
            [
                [params[0], params[2] + 1j * params[3]],
                [params[2] - 1j * params[3], params[1]],
            ]
        )
        w, v = np.linalg.eigh(h)
        return (v * np.exp(1j * w)[None, :]) @ v.conj().T

    def cost(params):
        return np.linalg.norm(unitary_from(params) - a)

    best = min(
        (
            minimize(cost, rng.standard_normal(4), method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
            for _ in range(6)
        ),
        key=lambda r: r.fun,
    )
    u = numkit.polar_unitary(a)
    assert np.linalg.norm(u - a) <= best.fun + 1e-6


def test_polar_svd_fallback_returns_the_polar_factor():
    # sigma_min = 1e-6 grows by at most 3/2 a sweep, so this entry is still
    # iterating after POLAR_SWEEPS sweeps and takes the SVD; the unitary
    # entry next to it converges before any sweep and comes back untouched
    rng = np.random.default_rng(7)
    q1, q2, unitary = (np.linalg.qr(rng.standard_normal((3, 3))
                                    + 1j * rng.standard_normal((3, 3)))[0] for _ in range(3))
    a = q1 @ np.diag([1.0, 0.5, 1e-6]) @ q2
    u = numkit.polar_unitary(np.stack([a, unitary]))
    assert numkit.max_abs(u[0] - q1 @ q2) <= 1e-10
    assert np.array_equal(u[1], unitary)


def test_polar_rejects_singular():
    with pytest.raises(SingularityError):
        numkit.polar_unitary(np.diag([1.0, 1e-14]))


# ---------------------------------------------------------------------------
# pfaffian


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(1, 6))
def test_leibniz_det_matches_lapack(seed, n, m):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    assert numkit.max_abs(numkit.leibniz_det(a) - np.linalg.det(a)) <= 1e-13


def test_leibniz_det_refuses_four_by_four():
    with pytest.raises(DomainError):
        numkit.leibniz_det(np.eye(4)[None])


def test_pfaffian_2x2():
    a = 2.0 + 3.0j
    s = np.array([[0, a], [-a, 0]])
    assert numkit.pfaffian(s) == pytest.approx(a)


def test_pfaffian_canonical_4x4():
    block = np.array([[0, 1], [-1, 0]], dtype=complex)
    s = np.zeros((4, 4), dtype=complex)
    s[:2, :2] = block
    s[2:, 2:] = block
    assert numkit.pfaffian(s) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_pfaffian_squares_to_determinant(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = g - g.T
    pf = numkit.pfaffian(s)
    det = np.linalg.det(s)
    assert abs(pf**2 - det) <= 1e-8 * abs(det)


def test_pfaffian_congruence_covariance():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    s = g - g.T
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    lhs = numkit.pfaffian(b @ s @ b.T)
    rhs = np.linalg.det(b) * numkit.pfaffian(s)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(DomainError):
        numkit.pfaffian(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        numkit.pfaffian(np.eye(4))


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_constant_loop():
    assert numkit.winding_number(np.ones(16, dtype=complex)) == 0


def test_winding_fundamental():
    phi = 2 * np.pi * np.arange(64) / 64
    assert numkit.winding_number(np.exp(1j * phi)) == 1


def test_winding_analytic_triple():
    # e^{3 i phi} (2 + cos phi) never vanishes, so its winding is exactly 3
    phi = 2 * np.pi * np.arange(256) / 256
    z = np.exp(3j * phi) * (2 + np.cos(phi))
    assert numkit.winding_number(z) == 3


def test_winding_under_resolved():
    phi = 2 * np.pi * np.arange(4) / 4
    with pytest.raises(ResolutionError):
        numkit.winding_number(np.exp(1j * phi))


@pytest.mark.parametrize("at", [17, 63])
def test_winding_under_resolved_names_the_step(at):
    # one step of 1.9013 rad from sample at to the next, the others equal
    # and small, so the loop closes after one turn
    steps = np.full(64, (2 * np.pi - 1.9013) / 63)
    steps[at] = 1.9013
    z = np.exp(1j * np.concatenate([[0.0], np.cumsum(steps[:-1])]))
    message = f"phase step 1.9013 rad >= pi/2 between samples {at} and {(at + 1) % 64} of 64"
    with pytest.raises(ResolutionError, match=re.escape(message)):
        numkit.winding_number(z)


@pytest.mark.parametrize("larger", [23, 55])
def test_winding_names_the_lowest_of_two_tied_steps(larger):
    # steps 23 and 55 agree to 1e-12 rad, as tau-paired steps of a sphere
    # equator loop agree to rounding; either order names samples 23 and 24
    steps = np.full(64, (2 * np.pi - 2 * 1.7) / 62)
    steps[[23, 55]] = 1.7
    steps[larger] += 1e-12
    z = np.exp(1j * np.concatenate([[0.0], np.cumsum(steps[:-1])]))
    message = "phase step 1.7000 rad >= pi/2 between samples 23 and 24 of 64"
    with pytest.raises(ResolutionError, match=re.escape(message)):
        numkit.winding_number(z)


def test_winding_rejects_too_few_samples():
    # a constant loop winds 0 times, but 3 samples are too few to say so
    with pytest.raises(DomainError, match="at least 4 samples"):
        numkit.winding_number(np.ones(3, dtype=complex))
    assert numkit.winding_number(np.ones(4, dtype=complex)) == 0


def test_det_winding_is_winding_of_det():
    phi = 2 * np.pi * np.arange(64) / 64
    loops = np.zeros((64, 2, 2), dtype=complex)
    loops[:, 0, 0] = np.exp(3j * phi)
    loops[:, 1, 1] = np.exp(-1j * phi)
    assert numkit.det_winding(loops) == 2
    with pytest.raises(DomainError):
        numkit.det_winding(loops[:3])


def test_winding_rejects_small_magnitudes():
    z = np.ones(16, dtype=complex)
    z[3] = 1e-12
    with pytest.raises(DomainError):
        numkit.winding_number(z)


def test_winding_additive_under_products():
    rng = np.random.default_rng(23)
    phi = 2 * np.pi * np.arange(512) / 512
    for _ in range(5):
        k1, k2 = rng.integers(-3, 4, size=2)
        f = np.exp(1j * k1 * phi) * (2.0 + np.cos(phi + rng.uniform(0, 2 * np.pi)))
        g = np.exp(1j * k2 * phi) * (1.5 + 0.5 * np.sin(phi))
        wf = numkit.winding_number(f)
        wg = numkit.winding_number(g)
        assert numkit.winding_number(f * g) == wf + wg


def test_winding_invariant_under_positive_scaling():
    phi = 2 * np.pi * np.arange(128) / 128
    z = np.exp(1j * 2 * phi)
    r = 0.5 + np.cos(phi) ** 2
    assert numkit.winding_number(z * r) == numkit.winding_number(z)


# ---------------------------------------------------------------------------
# unitary powers and their log branches


def test_unitary_powers_roundtrip():
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 4)
    rebuilt = numkit.unitary_powers(u, 1.0)
    assert numkit.max_abs(rebuilt - u) <= 1e-10
    assert numkit.max_abs(numkit.unitary_powers(u, 0.0) - np.eye(4)) <= 1e-12


def test_unitary_powers_avoid_minus_one():
    # principal branch would split at the -1 eigenvalue; the gap branch must not
    u = np.diag([-1.0 + 0j, np.exp(0.3j)])
    half = numkit.unitary_powers(u, 0.5)
    assert numkit.max_abs(half @ half - u) <= 1e-10


def schur_powers(u, ts):
    """Oracle: u^t from scipy's complex Schur form, with the branch cut in the
    middle of the widest gap between cyclically neighbouring eigenphases."""
    tri, q = scipy.linalg.schur(u, output="complex")
    ph = np.angle(np.diagonal(tri))
    order = np.sort(ph)
    gaps = np.diff(np.append(order, order[0] + 2.0 * np.pi))
    i = int(np.argmax(gaps))
    cut = order[i] + 0.5 * gaps[i]
    rebased = cut - np.mod(cut - ph, 2.0 * np.pi)
    return np.stack([(q * np.exp(1j * t * rebased)) @ q.conj().T for t in ts])


POWERS = np.array([-1.0, -0.5, -1.0 / 3.0, 0.0, 0.25, 0.5, 1.0])


def conjugated(rng, phases):
    q = random_unitary(rng, len(phases))
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


@pytest.mark.parametrize("phases", [
    [0.0, 0.0, 0.0, 0.0],                              # identity
    [0.4, 0.4, -2.0, -2.0],                            # exact Kramers pairs
    [1.1, 1.1, 1.1, 1.1, 2.9, 2.9],
    [np.pi, 0.3],                                      # a -1 eigenvalue
    [np.pi, np.pi, -0.7, -0.7],
    [0.4, 0.4 + 1e-9, -2.0, -2.0 + 1e-9],              # pairs split by 1e-9
    [3.0, 3.0 + 1e-9, -3.1, -3.1 - 1e-9, 0.0, 1e-9],
])
def test_unitary_powers_match_schur_oracle_on_degenerate_spectra(phases):
    u = conjugated(np.random.default_rng(len(phases)), phases)
    stack = numkit.unitary_powers(u, POWERS)
    assert stack.shape == (len(POWERS),) + u.shape
    assert numkit.max_abs(stack - schur_powers(u, POWERS)) <= 1e-12


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_unitary_powers_match_schur_oracle_on_random_unitaries(seed, n):
    u = random_unitary(np.random.default_rng(seed), n)
    assert numkit.max_abs(numkit.unitary_powers(u, POWERS)
                          - schur_powers(u, POWERS)) <= 1e-12


@pytest.mark.parametrize("u", [
    2.0 * np.eye(2),
    np.array([[1.0, 1.0], [0.0, 1.0]]),  # defective: eigenvectors are parallel
    np.array([[1.0, 0.5], [0.0, -1.0]]),  # unit eigenvalues, not normal
])
def test_unitary_powers_refuse_non_unitary(u):
    with pytest.raises(DomainError):
        numkit.unitary_powers(u, 0.5)
