"""Model zoo: TRI band Hamiltonians with known invariants, random TRI
ensembles, TRI-breaking controls, and linear TRI deformation paths.

All evaluators are batched: (m, 2) coordinate arrays in, (m, N, N) Hermitian
stacks out, and deterministic under a fixed seed.  A random field is a table
of coefficients over a fixed basis; its TR-even part (RandomTRI and the
perturbations that _perturbed adds to the structured models) and its TR-odd
part (TRIBrokenControl) are two projections of that table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import AntiUnitary, BandGroup, HamiltonianField, Spectrum, group_for_range
from .errors import ConfigError, ResolutionError, TrackingError
from .invariants import chern_plaquette
from .phasespace import Grid, Manifold

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def directions(pts: np.ndarray) -> np.ndarray:
    """Unit vectors n(theta, phi) for a batch of sphere points."""
    th, ph = pts[:, 0], pts[:, 1]
    return np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
    )


def angular_momentum(j: float):
    """Spin-j matrices (Jx, Jy, Jz) in the standard |j, m> basis, m descending."""
    if not (isinstance(j, (int, float)) and 0 < j < np.inf
            and abs(2 * j - round(2 * j)) <= 1e-12):
        raise ConfigError(f"j must be a positive half-integer or integer, got {j!r}")
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jp = np.zeros((dim, dim), dtype=complex)
    for a in range(1, dim):
        ma = m[a]
        jp[a - 1, a] = np.sqrt(j * (j + 1) - ma * (ma + 1))
    jx = 0.5 * (jp + jp.conj().T)
    jy = -0.5j * (jp - jp.conj().T)
    return jx, jy, jz


def spin_time_reversal(j: float) -> AntiUnitary:
    """Standard spin TR: J-matrix = exp(-i pi Jy); squares to -1 iff j is half-integer."""
    _, jy, _ = angular_momentum(j)
    w, v = np.linalg.eigh(jy)
    jmat = (v * np.exp(-1j * np.pi * w)[None, :]) @ v.conj().T
    return AntiUnitary(jmat)


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def _random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


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


# multiply-adds per field product: small enough that BLAS runs it on the
# calling thread and its operands stay in cache
_FIELD_PRODUCT = 1 << 17


def _coefficient_table(manifold: Manifold, n: int, cutoff: int, seed: int):
    """Random low-frequency field H(x) = basis(x) @ table, and how tau acts.

    Sphere: the monomials in the direction vector up to total degree
    `cutoff`.  Torus: the trigonometric modes with |a|, |b| <= cutoff.
    Returns (basis, table, partner, sign): basis maps (m, 2) points to an
    (m, R) real array, table is an (R, n, n) stack of Hermitian coefficients,
    and basis(tau x)[:, r] = sign[r] * basis(x)[:, partner[r]].
    """
    rng = np.random.default_rng(seed)
    if manifold == Manifold.SPHERE:
        monos = np.array([
            (a, b, c)
            for a in range(cutoff + 1)
            for b in range(cutoff + 1 - a)
            for c in range(cutoff + 1 - a - b)
        ])
        table = np.stack([_random_hermitian(rng, n) for _ in monos])

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
    c = np.stack([_random_hermitian(rng, n)] + [_random_complex(rng, n) for _ in modes[1:]])
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
    one real product, split into blocks of _FIELD_PRODUCT multiply-adds.
    """
    n = table.shape[1]
    flat = table.reshape(len(table), n * n).view(float)
    block_points = max(1, _FIELD_PRODUCT // flat.size)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        b = basis(np.atleast_2d(pts))
        out = np.empty((b.shape[0], flat.shape[1]))
        for start in range(0, b.shape[0], block_points):
            np.matmul(b[start:start + block_points], flat,
                      out=out[start:start + block_points])
        return out.view(complex).reshape(-1, n, n)

    return evaluate


def _normalized_table(manifold: Manifold, n: int, cutoff: int, seed: int):
    """_coefficient_table divided by the field's largest spectral norm over
    the fixed probe set, so spectra spread over an O(1) range for every seed."""
    basis, table, partner, sign = _coefficient_table(manifold, n, cutoff, seed)
    probe = _table_field(basis, table)(_probe_points(manifold))
    norm = float(np.max(np.linalg.norm(probe, 2, axis=(1, 2))))
    return basis, table / norm, partner, sign


def random_hermitian_field(manifold: Manifold, n: int, cutoff: int, seed: int):
    """Random low-frequency Hermitian field with sup operator norm ~ 1.

    Sphere: polynomial in the direction vector up to total degree `cutoff`.
    Torus: trigonometric polynomial with mode indices |a|, |b| <= cutoff.
    The field is normalized by its largest spectral norm over a fixed probe
    set, so spectra spread over an O(1) range for every seed.
    """
    basis, table, _, _ = _normalized_table(manifold, n, cutoff, seed)
    return _table_field(basis, table)


def _random_tri_field(t: AntiUnitary, manifold: Manifold, cutoff: int, seed: int,
                      scale: float, parity: int = 1):
    """scale times the TR-even (parity 1) or TR-odd (parity -1) part of
    random_hermitian_field.

    The condition J conj(H(tau x)) J^dagger = H(x) is linear in H, so each
    part is one projection of the coefficient table: row r becomes
    (C_r + parity sign_r J conj(C_partner(r)) J^dagger) / 2.  The norm is that
    of the raw field, so the even part equals symmetrize_tri of it up to
    rounding.
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

    return HamiltonianField(n_a=t.dim, manifold=manifold, t=t, evaluate=evaluate,
                            label=label)


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
    return _perturbed(_spin_texture(np.stack(angular_momentum(j))), spin_time_reversal(j),
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
    if manifold == Manifold.SPHERE:
        t = spin_time_reversal(0.5) if n_a == 2 else AntiUnitary(
            np.kron(1j * SIGMA["y"], np.eye(n_a // 2))
        )
    else:
        t = AntiUnitary(
            np.kron(np.array([[0, -1], [1, 0]], dtype=complex), np.eye(n_a // 2))
        )
    return HamiltonianField(
        n_a=n_a, manifold=manifold, t=t,
        evaluate=_random_tri_field(t, manifold, cutoff, seed, scale),
        label="RandomTRI",
    )


def tri_broken(base: HamiltonianField, breaking_strength: float, seed: int = 1) -> HamiltonianField:
    """Control model: base plus a TR-odd random term of the given strength.

    The odd part D(x) = (B(x) - J conj(B(tau x)) J^dagger)/2 of a random
    field B is taken on B's coefficient table, so it is exactly TR-odd; it is
    normalized to unit sup norm on the probe set, so the TRI residual of the
    control is ~ 2 * strength, always above the strength/2 detection bar.
    """
    odd = _random_tri_field(base.t, base.manifold, 2, seed, 1.0, parity=-1)
    norm = float(np.max(np.linalg.norm(odd(_probe_points(base.manifold)),
                                       2, axis=(1, 2))))

    def evaluate(pts: np.ndarray) -> np.ndarray:
        return base.evaluate(pts) + (breaking_strength / norm) * odd(pts)

    return HamiltonianField(
        n_a=base.n_a, manifold=base.manifold, t=base.t, evaluate=evaluate,
        label="TRIBrokenControl",
    )


_VARIANTS = {
    "RotorSpin": (rotor_spin, ("j",), {"perturbation_strength": 0.0, "seed": 0}),
    "KramersPairSphere": (kramers_pair_sphere, (), {"epsilon": 0.1, "seed": 0}),
    "TorusDoubledChern": (torus_doubled_chern, (), {"m": 1.0, "epsilon": 0.0, "seed": 0}),
    "RandomTRI": (random_tri, ("manifold",), {"n_a": 4, "cutoff": 3, "seed": 0, "scale": 1.0}),
}


def build(spec: dict) -> HamiltonianField:
    """Build a zoo model from a specification mapping.

    The mapping carries a "variant" key plus the variant's parameters, e.g.
    {"variant": "RotorSpin", "j": 0.5, "perturbation_strength": 0.1, "seed": 3}.
    """
    if not isinstance(spec, dict) or "variant" not in spec:
        raise ConfigError("model spec must be a mapping with a 'variant' key")
    variant = spec["variant"]
    if variant == "TRIBrokenControl":
        if "base" not in spec:
            raise ConfigError("TRIBrokenControl needs a 'base' model spec")
        strength = spec.get("breaking_strength", 0.5)
        if not isinstance(strength, (int, float)) or strength <= 0:
            raise ConfigError("breaking_strength must be positive")
        return tri_broken(build(spec["base"]), float(strength), int(spec.get("seed", 1)))
    if variant not in _VARIANTS:
        raise ConfigError(
            f"unknown model variant {variant!r}; expected one of "
            f"{sorted(_VARIANTS) + ['TRIBrokenControl']}"
        )
    fn, required, defaults = _VARIANTS[variant]
    kwargs = {}
    for key in required:
        if key not in spec:
            raise ConfigError(f"{variant} spec is missing required key {key!r}")
        kwargs[key] = spec[key]
    for key, default in defaults.items():
        kwargs[key] = spec.get(key, default)
    extra = set(spec) - {"variant"} - set(required) - set(defaults)
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} for variant {variant}")
    return fn(**kwargs)


# ---------------------------------------------------------------------------
# TRI deformation paths


@dataclass(frozen=True)
class TriPath:
    """Gap and Chern record along a linear TRI interpolation."""

    samples: list                  # (s, min_gap, c or None) per sample
    verdict: str                   # "GAPPED-CONSTANT-C" or "GAP-CLOSES"
    closing_bracket: tuple | None  # (s_lo, s_hi) around a detected closing
    chern: int | None = None


def tri_path(
    h0: HamiltonianField,
    h1: HamiltonianField,
    grid: Grid,
    band_range: tuple,
    steps: int = 11,
    gap_floor: float = 1e-3,
) -> TriPath:
    """Scan H_s = (1-s) H0 + s H1 for gap closings and Chern constancy.

    Convex combinations of TRI fields with the same operator are TRI, so the
    tracked group's Chern number must be constant on gapped stretches.  When
    the Chern number differs between two gapped samples, a closing is certain
    in between.  All `steps` samples are probed first; then only the first
    event is bracketed: the first ungapped sample, or the first gapped change
    of c, whose interval is bisected until the gap dips below the floor or
    the bracket is tight.  The verdict is GAP-CLOSES either way.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ConfigError(f"steps must be an integer >= 2, got {steps!r}")
    if h0.n_a != h1.n_a or h0.manifold != h1.manifold:
        raise TrackingError("endpoints live on different spaces")
    if np.max(np.abs(h0.t.j - h1.t.j)) > 1e-12:
        raise TrackingError("endpoints carry different time-reversal operators")
    first, last = band_range
    # each endpoint field is evaluated once; every probe mixes the two stacks
    ends = []
    for h in (h0, h1):
        hs = h(grid.points)
        # GapError when an endpoint is not gapped
        group_for_range(Spectrum.from_stack(hs, grid), first, last, gap_floor)
        ends.append(hs)
    hs0, hs1 = ends

    def probe(s: float):
        """(min_gap, c or None) of the tracked range at parameter s."""
        spec = Spectrum.from_stack((1.0 - s) * hs0 + s * hs1, grid)
        min_gap = spec.bounding_gap(first, last)
        if min_gap <= gap_floor:
            return min_gap, None
        group = BandGroup(first, last, min_gap)
        try:
            _, c = chern_plaquette(spec.band_vectors(group), grid)
        except ResolutionError:
            # flux concentration the grid cannot resolve: the group is
            # effectively degenerate at this scale, same as a closing
            return min_gap, None
        return min_gap, c

    records = [(float(s), *probe(float(s))) for s in np.linspace(0.0, 1.0, steps)]
    bracket = None
    for i, (s, _, c) in enumerate(records[:steps]):
        lo, _, c_lo = records[max(i - 1, 0)]
        if c is None:
            bracket = (lo, min(s + 1.0 / (steps - 1), 1.0))
            break
        if c != c_lo:
            # invariant forbids a gapped change of c: localize the closing
            hi = s
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                g_mid, c_mid = probe(mid)
                records.append((mid, g_mid, c_mid))
                if c_mid is None:
                    break
                if c_mid == c_lo:
                    lo = mid
                else:
                    hi = mid
            bracket = (lo, hi)
            break

    records.sort(key=lambda r: r[0])
    if bracket is not None:
        return TriPath(records, "GAP-CLOSES", bracket)
    # every sample is gapped and no two neighbours differ: c is constant
    return TriPath(records, "GAPPED-CONSTANT-C", None, chern=records[0][2])
