"""Model zoo: TRI band Hamiltonians with known invariants, random TRI
ensembles, and TRI-breaking controls.

All evaluators are batched: (m, 2) coordinate arrays in, (m, N, N) Hermitian
stacks out, and deterministic under a fixed seed.  A random field is a table
of coefficients over a fixed basis; its TR-even part (RandomTRI and the
perturbations that _perturbed adds to the structured models) and its TR-odd
part (TRIBrokenControl) are two projections of that table.
"""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

from . import numkit
from .bands import AntiUnitary, HamiltonianField
from .errors import ConfigError
from .phasespace import Manifold, directions

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def angular_momentum(j: float):
    """Spin-j matrices (Jx, Jy, Jz) in the standard |j, m> basis, m descending."""
    if not (isinstance(j, (int, float)) and 0 < j < np.inf
            and abs(2 * j - round(2 * j)) <= 1e-12):
        raise ConfigError(f"j must be a positive half-integer or integer, got {j!r}")
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jx = 0.5 * (jp + jp.conj().T)
    jy = -0.5j * (jp - jp.conj().T)
    return jx, jy, jz


def spin_time_reversal(j: float) -> AntiUnitary:
    """Standard spin TR, J = exp(-i pi Jy) with m descending, in closed form:
    it sends |j, m> to (-1)^(j - m) |j, -m>, so J[a, d - 1 - a] = -(-1)^a for
    d = 2j + 1 even.  An integer j gives an odd d, which AntiUnitary refuses."""
    d = len(angular_momentum(j)[2])   # refuses a j that is not a half-integer or integer
    return AntiUnitary(np.fliplr(np.diag(-(-1.0) ** np.arange(d))))


def _probe_points(manifold: Manifold) -> np.ndarray:
    """Fixed coarse point set used to normalize random fields."""
    if manifold == Manifold.SPHERE:
        th = np.linspace(0.05, np.pi - 0.05, 14)
        ph = np.linspace(0.0, 2 * np.pi, 27, endpoint=False)
    else:
        th = np.linspace(0.0, 2 * np.pi, 14, endpoint=False)
        ph = np.linspace(0.0, 2 * np.pi, 27, endpoint=False)
    a, b = np.meshgrid(th, ph, indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1)


def _coefficient_table(manifold: Manifold, n: int, cutoff: int, seed: int):
    """Random low-frequency field H(x) = basis(x) @ table, and how tau acts.

    Sphere: the monomials in the direction vector up to total degree
    `cutoff`.  Torus: the trigonometric modes with |a|, |b| <= cutoff.
    Returns (basis, table, partner, sign): basis maps (m, 2) points to an
    (m, R) real array, table is an (R, n, n) stack of Hermitian coefficients,
    and basis(tau x)[:, r] = sign[r] * basis(x)[:, partner[r]].
    """
    rng = np.random.default_rng(seed)

    def complex_draws(count: int) -> np.ndarray:  # one call, each real part before its imaginary
        draws = rng.standard_normal((count, 2, n, n))
        return draws[:, 0] + 1j * draws[:, 1]

    if manifold == Manifold.SPHERE:
        monos = np.array([
            (a, b, c)
            for a in range(cutoff + 1)
            for b in range(cutoff + 1 - a)
            for c in range(cutoff + 1 - a - b)
        ])
        g = complex_draws(len(monos))
        table = 0.5 * (g + g.conj().transpose(0, 2, 1))

        def basis(pts: np.ndarray) -> np.ndarray:
            nvec = directions(pts)
            powers = np.ones((nvec.shape[0], 3, cutoff + 1))
            for k in range(1, cutoff + 1):
                powers[:, :, k] = powers[:, :, k - 1] * nvec
            return (powers[:, 0, monos[:, 0]] * powers[:, 1, monos[:, 1]]
                    * powers[:, 2, monos[:, 2]])

        # tau is the antipodal map n -> -n: a degree-d monomial picks up (-1)^d
        return basis, table, np.arange(len(monos)), (-1.0) ** monos.sum(axis=1)

    modes = [(0, 0)]
    for a in range(0, cutoff + 1):
        for b in range(-cutoff, cutoff + 1):
            if a == 0 and b <= 0:
                continue
            modes.append((a, b))
    c = complex_draws(len(modes))
    c[0] = 0.5 * (c[0] + c[0].conj().T)   # the (0, 0) coefficient is Hermitian
    # e^{i theta} C + e^{-i theta} C^dagger = cos(theta) (C + C^dagger)
    # + sin(theta) i (C - C^dagger), so the basis is [cos | sin] of the mode
    # phases; the (0, 0) mode contributes C_00 alone
    c_h = c.conj().transpose(0, 2, 1)
    cos_part = np.concatenate([c[:1], c[1:] + c_h[1:]])
    sin_part = np.concatenate([np.zeros_like(c[:1]), 1j * (c[1:] - c_h[1:])])
    mode_a, mode_b = np.array(modes).T

    def basis(pts: np.ndarray) -> np.ndarray:
        theta = np.multiply.outer(pts[:, 0], mode_a) + np.multiply.outer(pts[:, 1], mode_b)
        return np.hstack([np.cos(theta), np.sin(theta)])

    # tau maps mode (a, b) to (a, -b); for a = 0 that is the mode itself with
    # its sine negated
    index = {mode: i for i, mode in enumerate(modes)}
    mirror = np.array([index[(a, -b)] if a > 0 else i for i, (a, b) in enumerate(modes)])
    flip = np.where((mode_a == 0) & (mode_b != 0), -1.0, 1.0)
    return (basis, np.concatenate([cos_part, sin_part]),
            np.concatenate([mirror, mirror + len(modes)]),
            np.concatenate([np.ones(len(modes)), flip]))


def _table_field(basis, table: np.ndarray):
    """The field x -> basis(x) @ table as an (m, n, n) stack.

    The complex table entries are read as (re, im) float pairs, so this is
    one real product, numkit.blocked_matmul.
    """
    n = table.shape[1]
    flat = table.reshape(len(table), n * n).view(float)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        out = numkit.blocked_matmul(basis(np.atleast_2d(pts)), flat)
        return out.view(complex).reshape(-1, n, n)

    return evaluate


def _probe_norm(evaluate, manifold: Manifold) -> float:
    """Largest spectral norm, as max |eigenvalue|, of a Hermitian field on the probe set."""
    return float(np.max(np.abs(np.linalg.eigvalsh(evaluate(_probe_points(manifold))))))


def _normalized_table(manifold: Manifold, n: int, cutoff: int, seed: int):
    """_coefficient_table divided by the field's largest spectral norm over
    the fixed probe set, so spectra spread over an O(1) range for every seed."""
    basis, table, partner, sign = _coefficient_table(manifold, n, cutoff, seed)
    return basis, table / _probe_norm(_table_field(basis, table), manifold), partner, sign


def _random_tri_field(t: AntiUnitary, manifold: Manifold, cutoff: int, seed: int,
                      scale: float, parity: int = 1):
    """scale times the TR-even (parity 1) or TR-odd (parity -1) part of the
    random field of _normalized_table.

    The condition J conj(H(tau x)) J^dagger = H(x) is linear in H, so each
    part is one projection of the coefficient table: row r becomes
    (C_r + parity sign_r J conj(C_partner(r)) J^dagger) / 2.  The norm is that
    of the raw field B, so the even part equals the sample average
    (B(x) + J conj(B(tau x)) J^dagger) / 2 up to rounding, which the
    symmetrize_tri oracle in tests/test_bands.py computes.
    """
    basis, table, partner, sign = _normalized_table(manifold, t.dim, cutoff, seed)
    part = 0.5 * (table + parity * sign[:, None, None] * t.conjugate_field(table[partner]))
    return _table_field(basis, scale * part)


# mode cutoff of the random TRI perturbations added to the structured models
_PERTURBATION_CUTOFF = 2


def _perturbed(evaluate, t: AntiUnitary, manifold: Manifold, label: str,
               strength: float, seed: int) -> HamiltonianField:
    """The field evaluate plus, for strength > 0, a TRI random field of sup
    norm <= strength."""
    if strength > 0:
        pert = _random_tri_field(t, manifold, _PERTURBATION_CUTOFF, seed, strength)
        unperturbed = evaluate

        def evaluate(pts: np.ndarray) -> np.ndarray:
            return unperturbed(pts) + pert(pts)

    return HamiltonianField(manifold=manifold, t=t, evaluate=evaluate, label=label)


def _spin_texture(mats: np.ndarray):
    """The sphere field n(x) . (Mx, My, Mz) for a (3, N, N) stack."""
    def evaluate(pts: np.ndarray) -> np.ndarray:
        return np.einsum("vk,kij->vij", directions(np.atleast_2d(pts)), mats)

    return evaluate


# ---------------------------------------------------------------------------
# zoo builders


def rotor_spin(j: float, perturbation_strength: float = 0.0, seed: int = 0) -> HamiltonianField:
    """Rigid-rotor spin model H0(n) = n . J on the sphere, 2j+1 rank-1 bands.

    Fermionic TR requires half-integer j.  An optional TRI-symmetrized random
    perturbation keeps the band gaps but removes accidental structure.
    """
    spin = np.stack(angular_momentum(j))
    if isinstance(j, bool) or spin.shape[1] % 2:  # dimension 2j + 1 must be even
        raise ConfigError(f"RotorSpin needs a half-integer j, got {j!r}")
    return _perturbed(_spin_texture(spin), spin_time_reversal(j),
                      Manifold.SPHERE, "RotorSpin", perturbation_strength, seed)


def kramers_pair_sphere(epsilon: float = 0.1, seed: int = 0) -> HamiltonianField:
    """Doubled spin-1/2 sphere model H0 = (n . sigma) x I2, T = (i sigma_y x I2) K.

    Two rank-2 groups with |c| = 2.  The TRI perturbation splits the
    accidental intra-doublet degeneracy while preserving the group gap.
    """
    t = AntiUnitary(np.kron(1j * SIGMA["y"], np.eye(2)))
    base = np.stack([np.kron(SIGMA[k], np.eye(2)) for k in "xyz"])
    return _perturbed(_spin_texture(base), t, Manifold.SPHERE, "KramersPairSphere",
                      epsilon, seed)


def torus_doubled_chern(m: float = 1.0, epsilon: float = 0.0, seed: int = 0) -> HamiltonianField:
    """Two conjugate Chern blocks on the torus; lower group has |c| = 2.

    Upper block A(q,p) = sin(q) sx + sin(p) sy + (m - cos q - cos p) sz, lower
    block conj(A(q,-p)); T(x, y) = (-conj y, conj x).  Gapped for m not in
    {0, +-2}.
    """

    def block(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        d = np.stack([np.sin(q), np.sin(p), m - np.cos(q) - np.cos(p)], axis=1)
        return np.einsum("vk,kij->vij", d, np.stack([SIGMA["x"], SIGMA["y"], SIGMA["z"]]))

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        q, p = pts[:, 0], pts[:, 1]
        h = np.zeros((pts.shape[0], 4, 4), dtype=complex)
        h[:, :2, :2] = block(q, p)
        h[:, 2:, 2:] = np.conj(block(q, -p))
        return h

    t = AntiUnitary(np.kron(np.array([[0, -1], [1, 0]], dtype=complex), np.eye(2)))
    return _perturbed(evaluate, t, Manifold.TORUS, "TorusDoubledChern", epsilon, seed)


def random_tri(manifold, n_a: int = 4, cutoff: int = 3, seed: int = 0,
               scale: float = 1.0) -> HamiltonianField:
    """TRI-symmetrized random trigonometric-polynomial field."""
    try:
        manifold = Manifold(manifold)
    except ValueError:
        raise ConfigError(f"manifold must be 'sphere' or 'torus', got {manifold!r}") from None
    if not isinstance(n_a, (int, np.integer)) or n_a % 2 != 0 or n_a < 2:
        raise ConfigError(f"N_A must be even and >= 2, got {n_a!r}")
    if not isinstance(cutoff, (int, np.integer)) or cutoff < 0:
        raise ConfigError(f"cutoff must be an integer >= 0, got {cutoff!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    # J = i sigma_y (x) I on the sphere, save that two bands take the spin-1/2
    # J = -i sigma_y (x) I, as every torus field does
    sign = 1 if manifold == Manifold.SPHERE and n_a > 2 else -1
    t = AntiUnitary(np.kron(sign * np.array([[0, 1], [-1, 0]]), np.eye(n_a // 2)))
    return HamiltonianField(manifold=manifold, t=t,
                            evaluate=_random_tri_field(t, manifold, cutoff, seed, scale),
                            label="RandomTRI")


def tri_broken(base: HamiltonianField, breaking_strength: float, seed: int = 1) -> HamiltonianField:
    """Control model: base plus a TR-odd random term of the given strength.

    The odd part D(x) = (B(x) - J conj(B(tau x)) J^dagger)/2 of a random
    field B is taken on B's coefficient table, so it is exactly TR-odd; it is
    normalized to unit sup norm on the probe set, so the TRI residual of the
    control is ~ 2 * strength, always above the strength/2 detection bar.
    """
    odd = _random_tri_field(base.t, base.manifold, 2, seed, 1.0, parity=-1)
    norm = _probe_norm(odd, base.manifold)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        return base.evaluate(pts) + (breaking_strength / norm) * odd(pts)

    return HamiltonianField(manifold=base.manifold, t=base.t, evaluate=evaluate,
                            label="TRIBrokenControl")


def _broken_control(base: dict, breaking_strength: float = 0.5,
                    seed: int = 1) -> HamiltonianField:
    if breaking_strength <= 0:
        raise ConfigError("breaking_strength must be positive")
    return tri_broken(build(base), breaking_strength, seed)


# each variant's builder; its signature names the required keys and the defaults
_VARIANTS = {
    "RotorSpin": rotor_spin,
    "KramersPairSphere": kramers_pair_sphere,
    "TorusDoubledChern": torus_doubled_chern,
    "RandomTRI": random_tri,
    "TRIBrokenControl": _broken_control,
}


def build(spec: dict) -> HamiltonianField:
    """Build a zoo model from a specification mapping.

    The mapping carries a "variant" key plus the parameters of the variant's
    builder, e.g. {"variant": "RotorSpin", "j": 0.5, "perturbation_strength":
    0.1, "seed": 3}.  The builder's signature is the one record of them: a
    parameter without a default is required, and one left out takes the
    builder's default.  Each optional parameter must have its default's type,
    where an integer may stand for a float and a bool stands for neither, and
    a float parameter must be finite.
    """
    if not isinstance(spec, dict) or "variant" not in spec:
        raise ConfigError("model spec must be a mapping with a 'variant' key")
    variant = spec["variant"]
    if variant not in _VARIANTS:
        raise ConfigError(
            f"unknown model variant {variant!r}; expected one of {sorted(_VARIANTS)}"
        )
    fn = _VARIANTS[variant]
    kwargs = {}
    for param in inspect.signature(fn).parameters.values():
        key, default = param.name, param.default
        if default is param.empty:
            if key not in spec:
                raise ConfigError(f"{variant} spec is missing required key {key!r}")
            kwargs[key] = spec[key]
            continue
        value = spec.get(key, default)
        kind = numbers.Real if isinstance(default, float) else numbers.Integral
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{variant} parameter {key!r} must be "
                              f"{type(default).__name__}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{variant} parameter {key!r} must be finite, got {value!r}")
        if key == "seed" and value < 0:
            raise ConfigError(f"{variant} parameter 'seed' must be >= 0, got {value}")
        kwargs[key] = value
    extra = set(spec) - {"variant"} - set(kwargs)
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} for variant {variant}")
    return fn(**kwargs)
