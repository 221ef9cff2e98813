"""Gauge constructions: normal-form transition loops, the boundary gauge
solver and its winding obstruction, extension of a boundary gauge into the
hemisphere, and the skew congruence normal form on torus TRI lines.

The boundary solver works with the relation V(phi) = W(phi+pi)^t U(phi) W(phi)
that a frame change v = u conj(W) induces on transition matrices.  Solving it
gives W(0) = U(0)^{-1} V(0), a free continuous path to W(pi) = I, and
W(phi) = (V(psi) W(psi)^{-1} U(psi)^{-1})^t on the second half (psi = phi-pi);
both half-seam continuity checks then close exactly, given the fermionic
antisymmetry of U and V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .bands import Frame
from .errors import BranchError, DomainError, ExtensionError
from .numkit import max_abs
from .phasespace import Grid, Manifold


def normal_form_loop(c: int, n_b: int, samples: int) -> np.ndarray:
    """Canonical transition loop diag(e^{i(c-N_B+1) phi}, e^{i phi}, ...),
    an (L, N_B, N_B) array.

    Exists only when c and N_B share parity; satisfies V(phi+pi)^t = -V(phi)
    identically and det winds c times.
    """
    if (c - n_b) % 2 != 0:
        raise DomainError(
            f"no normal form: Chern number {c} and rank {n_b} have different parity"
        )
    if samples % 2 != 0 or samples < 8:
        raise DomainError("normal form loop needs an even sample count >= 8")
    phi = 2.0 * np.pi * np.arange(samples) / samples
    v = np.zeros((samples, n_b, n_b), dtype=complex)
    diag = np.arange(n_b)
    v[:, diag, diag] = np.exp(1j * phi)[:, None]
    v[:, 0, 0] = np.exp(1j * (c - n_b + 1) * phi)
    return v


def solve_equator_gauge(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(w, residual_pi, residual_2pi): the boundary gauge W turning transition
    loop U into V (same rank, even L), and its two seam residuals."""
    if u.shape != v.shape:
        raise DomainError("transition loops must have equal rank and sampling")
    L = u.shape[0]
    if L % 2 != 0:
        raise DomainError("gauge solve needs an even sample count")
    half = L // 2

    w = np.empty_like(u)
    w0 = u[0].conj().T @ v[0]
    # the unitary-group geodesic from w0 to the identity
    w[: half + 1] = w0 @ numkit.unitary_powers(w0.conj().T, np.arange(half + 1) / half)
    # w[half + psi] reads only w[psi], 0 < psi < half, all set above
    w_h = w[1:half].conj().transpose(0, 2, 1)
    u_h = u[1:half].conj().transpose(0, 2, 1)
    w[half + 1:] = (v[1:half] @ w_h @ u_h).transpose(0, 2, 1)

    rel_pi = (v[0] @ w[0].conj().T @ u[0].conj().T).T
    rel_2pi = (v[half] @ w[half].conj().T @ u[half].conj().T).T
    return w, max_abs(rel_pi - w[half]), max_abs(rel_2pi - w[0])


def gauge_relation_residual(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Max residual of V(phi) - W(phi+pi)^t U(phi) W(phi) over all samples."""
    L = u.shape[0]
    wp = np.roll(w, -L // 2, axis=0)
    rebuilt = np.einsum("vji,vjk,vkl->vil", wp, u, w)
    return float(max_abs(rebuilt - v))


@dataclass(frozen=True)
class DiskExtension:
    """Unitary field over the hemisphere matching a boundary gauge loop."""

    grid: Grid
    values: np.ndarray      # (grid.n_domain_vertices, N_B, N_B)
    sweeps: int             # smoothing sweeps over all starts tried
    max_interior_step: float
    start: str              # the start profile that met the target


def _retract_stack(stack: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Batched polar retraction with random unitary jitter on singular entries."""
    u, s, vh = np.linalg.svd(stack)
    bad = np.where(s[:, -1] <= 1e-10)[0]
    for idx in bad:
        a = stack[idx]
        for _ in range(4):
            g = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
            a = a + 1e-3 * np.linalg.qr(g)[0]
            try:
                u1, s1, vh1 = np.linalg.svd(a)
            except np.linalg.LinAlgError:
                continue
            if s1[-1] > 1e-10:
                u[idx], vh[idx] = u1, vh1
                break
        else:
            raise ExtensionError("polar retraction stayed singular after jitter")
    return u @ vh


def _harmonic_profile(w_b: np.ndarray, radii: np.ndarray, cols: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Entrywise harmonic disk extension of the boundary loop, retracted.

    Boundary Fourier mode k is damped by r^{|k|}; at r = 0 only the loop mean
    survives, so the pole value is single-valued.  For zero-winding loops the
    harmonic matrix field stays well-conditioned and retracts cleanly.
    """
    L = w_b.shape[0]
    modes = np.fft.fft(w_b, axis=0) / L
    k = np.fft.fftfreq(L, d=1.0 / L)
    # (n_vertices, L) weights, built in place: they are the largest arrays here
    weights = np.outer(cols * (2.0 * np.pi / L), k) * 1j
    np.exp(weights, out=weights)
    weights *= radii[:, None] ** np.abs(k)[None, :]
    field = np.einsum("vk,kij->vij", weights, modes)
    return _retract_stack(field, rng)


def _blend_profile(w_b: np.ndarray, radii: np.ndarray, cols: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Radial blend from the identity at the pole to the boundary loop, retracted."""
    eye = np.eye(w_b.shape[1])
    blend = (1.0 - radii)[:, None, None] * eye + radii[:, None, None] * w_b[cols]
    return _retract_stack(blend, rng)


EXTENSION_STEP_TARGET = 0.2   # rad, largest admissible interior neighbor step
EXTENSION_MAX_SWEEPS = 2000   # shared by all starts
_EXTENSION_SEED = 0           # seeds the retraction jitter


def extend_to_disk(w_b: np.ndarray, grid: Grid) -> DiskExtension:
    """Extend a zero-winding boundary gauge w_b, an (n_lon, N_B, N_B) loop on
    the equator of grid, over the northern hemisphere.

    Tries two start profiles in turn, each with the equator rows pinned to the
    boundary loop: the entrywise harmonic extension of the loop, then the
    radial blend toward the identity.  Each start runs Jacobi smoothing sweeps
    (neighbor averages retracted back to the unitary group) until the largest
    interior neighbor step falls below EXTENSION_STEP_TARGET; the first start
    that meets it wins, and all starts share the EXTENSION_MAX_SWEEPS budget.
    The harmonic profile goes first because it usually meets the target as it
    stands, while the blend's retraction seeds defect pairs (boundary
    eigenvalues crossing -1 make it singular at mid-radius) that stall the
    sweeps: the criterion-7 KramersPairSphere 0:1 loop at 32x128 extends in 0
    sweeps from the harmonic profile, where the blend stalled after 59.  The
    blend stays as the fallback because the harmonic field can vanish inside
    the disk, which seeds a defect pair of its own: for a scalar boundary
    e^{i a sin(phi)} its pole value is the loop mean J0(a), so past a = 2.405
    it has a vortex pair near the pole, and at 32x96 the a = 2.5 loop extends
    only from the blend.  4 of 113 random zero-winding loops measured also
    extend only from the blend.  Failure raises ExtensionError naming each
    start's final max step and sweep count; it is never silently accepted.

    Stall rule: a start stops after 25 sweeps in a row that do not lower
    the best max step so far by 1e-4.  The best step, not the previous one,
    is the reference because the sweeps oscillate with period 2: away from
    the pole the latitude-longitude lattice is bipartite (checkerboard), and
    a Jacobi sweep updates every vertex from its neighbors' old values at
    once, so it multiplies the checkerboard mode of the field by nearly -1.
    A stalled start's max step then alternates up and down, and every other
    sweep would look like a gain against its predecessor.
    """
    if grid.manifold != Manifold.SPHERE:
        raise DomainError("disk extension is defined over the sphere hemisphere")
    wn = numkit.det_winding(w_b)   # the obstruction: extends iff 0
    if wn != 0:
        raise DomainError(
            f"boundary gauge has winding {wn}; only zero-winding loops extend"
        )
    L = w_b.shape[0]
    if L != grid.n_lon:
        raise DomainError("gauge loop sampling does not match the grid equator")
    rng = np.random.default_rng(_EXTENSION_SEED)
    n = grid.n_domain_vertices
    radii = grid.vertex_lat[:n] / (grid.n_lat // 2)
    cols = grid.vertex_lon[:n]
    # the equator is the domain's last row: vids n - L .. n - 1
    interior = slice(n - L)

    edges = grid.edges[grid.domain_edge_ids]
    ea, eb = edges.T
    iea, ieb = edges[ea < n - L].T  # lower end off the equator: not along it

    def interior_step(vals: np.ndarray) -> float:
        rel = np.einsum("eji,ejk->eik", vals[iea].conj(), vals[ieb])
        return float(np.max(np.abs(np.angle(np.linalg.eigvals(rel)))))

    def smooth(vals: np.ndarray, budget: int):
        """Relax vals in place; acc holds the old values' neighbor sums."""
        sweeps = 0
        step = interior_step(vals)
        stall = 0
        best = step
        while step > EXTENSION_STEP_TARGET and sweeps < budget:
            acc = np.zeros_like(vals)
            np.add.at(acc, ea, vals[eb])
            np.add.at(acc, eb, vals[ea])
            vals[interior] = _retract_stack(acc[interior], rng)
            sweeps += 1
            step = interior_step(vals)
            stall = stall + 1 if step > best - 1e-4 else 0
            best = min(best, step)
            if stall >= 25:
                break  # defect pair: no longer improving
        return step, sweeps

    sweeps = 0
    tried = []
    for start, profile in (("harmonic", _harmonic_profile), ("blend", _blend_profile)):
        values = profile(w_b, radii, cols, rng)
        values[n - L:] = w_b
        step, used = smooth(values, EXTENSION_MAX_SWEEPS - sweeps)
        sweeps += used
        if step <= EXTENSION_STEP_TARGET:
            return DiskExtension(grid=grid, values=values, sweeps=sweeps,
                                 max_interior_step=step, start=start)
        tried.append(f"{start}: max step {step:.3f} after {used} sweeps")
    raise ExtensionError(
        f"smoothing did not reach step target {EXTENSION_STEP_TARGET} rad "
        f"from any start ({'; '.join(tried)})"
    )


def regauge_frame(frame: Frame, extension: DiskExtension) -> Frame:
    """New frame v(x) = u(x) conj(W(x)) on the same grid."""
    if extension.grid is not frame.grid:
        raise DomainError("frame and extension live on different grids")
    data = np.einsum("vij,vjk->vik", frame.data, extension.values.conj())
    return Frame(grid=frame.grid, group=frame.group, data=data)


# ---------------------------------------------------------------------------
# torus skew congruence normal form


def _pair_congruence(u_samples: np.ndarray) -> np.ndarray:
    """Closed loop X(q) with X^t U X = blockdiag([[0,-1],[1,0]], ...).

    Pairs (x, conj(U x)) are built per sample with seeds parallel-transported
    in q; the seed-loop holonomy (a compact-symplectic element) is distributed
    along the loop so X closes.
    """
    L, nb, _ = u_samples.shape
    x_cols = np.empty((L, nb, nb), dtype=complex)

    def build(j: int, seeds):
        u = u_samples[j]
        cols = []
        used = np.zeros((nb, 0), dtype=complex)
        new_seeds = []
        for a in range(nb // 2):
            seed = seeds[a]
            if used.shape[1]:
                seed = seed - used @ (used.conj().T @ seed)
            nrm = np.linalg.norm(seed)
            if nrm < 0.2:
                raise BranchError(
                    "pairing transport lost continuity; refine the q sampling"
                )
            x = seed / nrm
            y = np.conj(u @ x)
            y = y - x * (x.conj() @ y)
            if used.shape[1]:
                y = y - used @ (used.conj().T @ y)
            y = y / np.linalg.norm(y)
            cols.extend([x, y])
            used = np.column_stack([used, x, y])
            new_seeds.append(x)
        return np.column_stack(cols), new_seeds

    seeds = [np.eye(nb, dtype=complex)[:, 2 * a] for a in range(nb // 2)]
    for j in range(L):
        x_cols[j], seeds = build(j, seeds)
    closed, _ = build(0, seeds)  # transport once more across the seam
    holonomy = x_cols[0].conj().T @ closed
    if max_abs(holonomy - np.eye(nb)) > 1e-12:
        x_cols = x_cols @ numkit.unitary_powers(holonomy, -np.arange(L) / L)
    return x_cols


def _block_target(alphas: np.ndarray, nb: int) -> np.ndarray:
    """blockdiag([[0, -e^{i a1}], [e^{i a1}, 0]], rest with alpha = 0)."""
    L = alphas.shape[0]
    v = np.zeros((L, nb, nb), dtype=complex)
    even = np.arange(2, nb, 2)
    v[:, even, even + 1] = -1.0
    v[:, even + 1, even] = 1.0
    phase = np.exp(1j * alphas)
    v[:, 0, 1] = -phase
    v[:, 1, 0] = phase
    return v


def skew_normal_form(u_plus: np.ndarray, u_minus: np.ndarray,
                     c: int) -> tuple[float, dict]:
    """(residual, windings): congruence of the TRI-line loops to the
    canonical skew block form.

    The p = 0 target carries the whole twist through alpha_1(q) = (c/2) q; the
    p = pi target has all alphas zero.  residual is max |V - W^t U W| over
    both lines and all samples; windings holds the det windings of U, V and
    W per line (wn det W = (wn det V - wn det U)/2 per line, difference
    zero), for verification.
    """
    if c % 2 != 0:
        raise DomainError("torus Chern number must be even")
    L, nb, _ = u_plus.shape
    if nb % 2 != 0 or u_minus.shape[1] != nb:
        raise DomainError("skew normal form needs matching even ranks")
    q = 2.0 * np.pi * np.arange(L) / L

    windings = {}
    residual = 0.0
    for tag, u, alphas in (
        ("plus", u_plus, 0.5 * c * q),
        ("minus", u_minus, np.zeros(L)),
    ):
        x = _pair_congruence(u)
        d = np.broadcast_to(np.eye(nb, dtype=complex), (L, nb, nb)).copy()
        d[:, 0, 0] = np.exp(1j * alphas)
        w = np.einsum("vij,vjk->vik", x, d)
        target = _block_target(alphas, nb)
        rebuilt = np.einsum("vji,vjk,vkl->vil", w, u, w)
        residual = max(residual, float(max_abs(rebuilt - target)))
        windings[f"det_v_{tag}"] = numkit.det_winding(target)
        windings[f"det_u_{tag}"] = numkit.det_winding(u)
        windings[f"det_w_{tag}"] = numkit.det_winding(w)
    return residual, windings
