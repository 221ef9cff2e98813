"""Fermionic time reversal, TRI Hamiltonian fields, band groups, and frames.

A time-reversal operator is T = J * complex conjugation with J unitary and
J conj(J) = -I (fermionic, T^2 = -1; equivalently J is skew-symmetric).
A Hamiltonian field is TRI when J conj(H(tau x)) J^dagger = H(x).

Frames over a fundamental domain are built by parallel transport with
polar-decomposition orthonormalization, seeded at a single vertex, so they
are continuous by construction.  Transition matrices relate a frame to the
time reverse of the frame on the opposite domain along the common boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numkit
from .errors import DomainError, GapError, SingularityError
from .numkit import max_abs
from .phasespace import Grid, Manifold


@dataclass(frozen=True)
class Tolerances:
    """The numerical thresholds a config can set; the underlying identities
    are exact integers, floating-point pipelines need these cutoffs.  Every
    function that takes one of them defaults to the value here."""

    tri_tol: float = 1e-9
    gap_floor: float = 1e-6
    zero_floor: float = 1e-4
    evenness_rel: float = 1e-6


@dataclass(frozen=True)
class AntiUnitary:
    """Fermionic time reversal x -> J conj(x), with J a phased permutation:
    phase[a] = J[a, perm[a]] is the one nonzero entry of row a and of its
    column, so (J conj x)[a] = phase[a] conj(x[perm[a]]) and T acts by a gather."""

    j: np.ndarray
    perm: np.ndarray = field(init=False, repr=False, compare=False)   # derived from j
    phase: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        j = np.asarray(self.j, dtype=complex)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise DomainError("J must be square")
        n = j.shape[0]
        if n % 2 != 0:
            raise DomainError("fermionic time reversal needs even dimension")
        if max_abs(j.conj().T @ j - np.eye(n)) > 1e-12:
            raise DomainError("J is not unitary within 1e-12")
        if max_abs(j @ j.conj() + np.eye(n)) > 1e-12:
            raise DomainError("J conj(J) != -I; operator does not square to -1")
        nonzero = j != 0
        if np.any(nonzero.sum(axis=0) != 1) or np.any(nonzero.sum(axis=1) != 1):
            raise DomainError("J is not a phased permutation (one nonzero entry in each "
                              "row and column), so T cannot act by index")
        perm = np.argmax(nonzero, axis=1)
        for name, value in (("j", j), ("perm", perm), ("phase", j[np.arange(n), perm])):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.j.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """J conj(x) for the columns of x, an (N_A, k) block or a stack of them
        (last two axes); a single vector is an (N_A, 1) column."""
        return self.phase[:, None] * np.conj(np.take(x, self.perm, axis=-2))

    def conjugate_field(self, h_stack: np.ndarray) -> np.ndarray:
        """J conj(H) J^dagger for a stack of matrices H (last two axes): entry
        (a, b) is phase[a] conj(phase[b] H[perm[a], perm[b]]), one flat gather
        of the n^2 entries times a phase product, conjugated in place."""
        n = self.dim
        h_stack = np.asarray(h_stack, dtype=complex)
        entries = (n * self.perm[:, None] + self.perm).ravel()
        out = np.take(h_stack.reshape(-1, n * n), entries, axis=1)
        out *= np.outer(self.phase.conj(), self.phase).ravel()
        return np.conj(out, out=out).reshape(h_stack.shape)

    def tri_residual(self, hs: np.ndarray, grid: Grid) -> float:
        """Max vertex residual of J conj(H(tau x)) J^dagger - H(x) for the
        evaluated stack hs = H(grid.points)."""
        if hs.shape[1] != self.dim:
            raise DomainError("Hamiltonian and J dimensions differ")
        return max_abs(self.conjugate_field(hs[grid.tau_vertex]) - hs)


@dataclass(frozen=True)
class HamiltonianField:
    """Hermitian matrix field over a phase space, with its TR metadata.

    evaluate maps an (m, 2) array of coordinate pairs to an (m, n_a, n_a)
    stack of Hermitian matrices, n_a = t.dim.  The field keeps no record of
    its parameters; the model spec given to models.build is that record.
    """

    manifold: Manifold
    t: AntiUnitary
    evaluate: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    # keyed by grid: H(grid.points) until spectrum_on_grid takes it, then its
    # read-only Spectrum (no grid inside) for the field's life; replace() starts anew
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n_a(self) -> int:
        return self.t.dim

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.evaluate(np.atleast_2d(np.asarray(pts, dtype=float)))


def check_tri(h_field: HamiltonianField, grid: Grid, tol: float = Tolerances.tri_tol):
    """Max vertex residual of J conj(H(tau x)) J^dagger - H(x), and pass flag;
    the evaluated stack waits in the field's memo for spectrum_on_grid."""
    key = ("stack", grid.manifold, grid.n_lat, grid.n_lon)
    if key not in h_field._memo:
        h_field._memo[key] = h_field(grid.points)
    residual = h_field.t.tri_residual(h_field._memo[key], grid)
    return residual, residual <= tol


@dataclass(frozen=True)
class Spectrum:
    """Per-point eigendecomposition, deterministic gauge; point v is row v of
    the stack it was solved from (a grid's vids, or census sub-points)."""

    energies: np.ndarray   # (V, N_A) ascending
    vectors: np.ndarray    # (V, N_A, N_A) unitary columns

    @property
    def n_a(self) -> int:
        return self.energies.shape[1]

    @classmethod
    def from_stack(cls, hs: np.ndarray) -> "Spectrum":
        """Eigendecomposition of the evaluated stack hs, one matrix per point."""
        return cls(*numkit.eigh_many(hs))

    def band_vectors(self, group: "BandGroup") -> np.ndarray:
        return self.vectors[:, :, group.first : group.last + 1]

    def gaps_around(self, first: int, last: int) -> np.ndarray:
        """Each point's gap between bands [first, last] and their neighbours,
        the smaller of the gaps below and above; inf when the range holds
        every band."""
        bounding = [i for i in (first - 1, last) if 0 <= i < self.n_a - 1]
        return np.diff(self.energies, axis=1)[:, bounding].min(axis=1, initial=np.inf)

    def bounding_gap(self, first: int, last: int) -> float:
        """Min over points of gaps_around(first, last)."""
        return float(np.min(self.gaps_around(first, last)))


def spectrum_on_grid(h_field: HamiltonianField, grid: Grid) -> Spectrum:
    """h_field's spectrum on grid, solved once per field and grid: the memo
    keys it by (manifold, n_lat, n_lon), which names a grid because grids come
    only from build_grid and refine_grid.  It takes check_tri's stack, if any.

    When the memo holds a spectrum on a grid whose rows and columns are every
    r-th row and s-th column of this one, its energies and vectors are copied
    to those vertices and H is evaluated and solved at the others alone; the
    solve is per point, so the result is the full solve's, bit for bit.
    """
    key = (grid.manifold, grid.n_lat, grid.n_lon)
    memo = h_field._memo
    hs = memo.pop(("stack",) + key, None)
    if key not in memo:
        coarse = max((k for k in memo if len(k) == 3 and k[0] == grid.manifold
                      and grid.n_lat % k[1] == 0 and grid.n_lon % k[2] == 0),
                     key=lambda k: k[1] * k[2], default=None)
        if coarse is None:
            spec = Spectrum.from_stack(h_field(grid.points) if hs is None else hs)
        else:
            spec = _extend_spectrum(h_field, grid, hs, memo[coarse],
                                    grid.n_lat // coarse[1], grid.n_lon // coarse[2])
        # shared by every caller
        spec.energies.flags.writeable = spec.vectors.flags.writeable = False
        memo[key] = spec
    return memo[key]


def _extend_spectrum(h_field: HamiltonianField, grid: Grid, hs, coarse: Spectrum,
                     r: int, s: int) -> Spectrum:
    """The spectrum on grid from the spectrum on its sub-grid of every r-th row
    and s-th column, solving the other vertices; hs is H on grid, or None."""
    # both grids number their vertices row-major, poles first and last, so the
    # sub-grid's vertices come in its own vid order
    kept = (grid.vertex_lat % r == 0) & (grid.vertex_lon % s == 0)
    new = np.flatnonzero(~kept)
    solved = Spectrum.from_stack(h_field(grid.points[new]) if hs is None else hs[new])
    energies = np.empty((grid.n_vertices, coarse.n_a))
    vectors = np.empty((grid.n_vertices, coarse.n_a, coarse.n_a), dtype=complex)
    energies[kept], vectors[kept] = coarse.energies, coarse.vectors
    energies[new], vectors[new] = solved.energies, solved.vectors
    return Spectrum(energies, vectors)


@dataclass(frozen=True)
class BandGroup:
    """Contiguous band index range [first, last] (0-based), gapped from the rest."""

    first: int
    last: int
    min_gap: float

    @property
    def rank(self) -> int:
        return self.last - self.first + 1


def find_gapped_groups(spectrum: Spectrum, gap_floor: float = Tolerances.gap_floor):
    """Maximal contiguous index ranges separated by gaps above the floor.

    The returned groups partition all bands; with no internal gap above the
    floor the single full-range group (min_gap = inf) is returned.
    """
    gaps = np.min(np.diff(spectrum.energies, axis=1), axis=0)  # above each band
    cuts = [i for i, g in enumerate(gaps) if g > gap_floor]
    firsts = [0] + [c + 1 for c in cuts]
    lasts = cuts + [spectrum.n_a - 1]
    return [BandGroup(a, b, spectrum.bounding_gap(a, b)) for a, b in zip(firsts, lasts)]


def group_for_range(spectrum: Spectrum, first: int, last: int, gap_floor: float) -> BandGroup:
    """BandGroup for an explicit index range, verifying it is gapped."""
    min_gap = spectrum.bounding_gap(first, last)
    if min_gap <= gap_floor:
        raise GapError(
            f"bands [{first}, {last}] are not gapped: min boundary gap "
            f"{min_gap:.3e} <= floor {gap_floor:g}"
        )
    return BandGroup(first, last, min_gap)


@dataclass(frozen=True)
class Frame:
    """Orthonormal frame field spanning a band group over the fundamental
    domain of its grid."""

    grid: Grid
    group: BandGroup
    data: np.ndarray         # (grid.n_domain_vertices, N_A, N_B), by grid vid


def frame_residuals(frame: Frame, slabs: np.ndarray) -> dict:
    """The frame_* report residuals: orthonormality and span against the
    eigenvector slabs, the largest frame distance across a domain edge
    (max_step), and that step over the grid spacing (continuity_const)."""
    data = frame.data
    orth = max_abs(np.einsum("vij,vik->vjk", data.conj(), data) - np.eye(data.shape[2]))
    span = max_abs(data - slabs @ (np.swapaxes(slabs.conj(), -1, -2) @ data))
    grid = frame.grid
    a, b = grid.edges[grid.domain_edge_ids].T
    max_step = float(np.max(np.sqrt(np.sum(np.abs(data[a] - data[b]) ** 2, axis=(1, 2)))))
    # sphere rows are pi / n_lat apart in theta, torus rows 2 pi / n_lat in p
    row = (np.pi if grid.manifold == Manifold.SPHERE else 2.0 * np.pi) / grid.n_lat
    h = max(row, 2.0 * np.pi / grid.n_lon)
    return {"frame_orthonormality": float(orth), "frame_span": float(span),
            "frame_max_step": max_step, "frame_continuity_const": max_step / h}


def _running_products(steps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Running products of transport steps along axis -3, from start:
    out[k] = steps[k - 1] @ ... @ steps[0] @ start, and out[0] = start."""
    out = np.empty(steps.shape[:-3] + (steps.shape[-3] + 1,) + steps.shape[-2:], dtype=complex)
    out[..., 0, :, :] = start
    for k in range(steps.shape[-3]):
        np.matmul(steps[..., k, :, :], out[..., k, :, :], out=out[..., k + 1, :, :])
    return out


def smooth_frame(spectrum: Spectrum, group: BandGroup, grid: Grid) -> Frame:
    """Continuous orthonormal frame for a gapped group over the fundamental
    domain of grid, built from the spectrum on grid.

    Sphere: the eigenframe at the north pole is parallel-transported down
    every meridian; all meridians share the pole value, so the field is
    continuous across the domain.  Torus: the frame is transported along the
    p = 0 line, the loop holonomy is spread out as a fractional twist
    exp(-(q/2pi) log V0) to make it periodic in q, then each column is
    transported upward in p.

    A transport step from slab a to slab b (each vertex's eigenvector
    columns) maps the frame a W to b polar(b^dagger a W) = b polar(b^dagger a) W
    for unitary W, so every frame is its slab times a running product of
    the steps' polar factors.  The overlaps b^dagger a of all steps (the
    columns, then the base row with its closing step, or the meridians)
    take one stacked numkit.polar_unitary call, and a running product along
    each chain composes them; a step between nearly orthogonal slabs raises
    SingularityError.  smooth_frame is the one code that moves a frame.
    The frame holds its values alone; its
    continuity is measured by frame_residuals.
    """
    chains = grid.transport_chains
    L, rows = chains.shape
    nb = group.rank
    path = spectrum.band_vectors(group)[chains]       # (L, rows, N_A, N_B)
    # one overlap per step up every chain, then on the torus one per step
    # along the base row, the last of them back to the seed
    steps = (np.swapaxes(path[:, 1:].conj(), -1, -2) @ path[:, :-1]).reshape(-1, nb, nb)
    torus = grid.manifold == Manifold.TORUS
    if torus:
        base = path[:, 0]
        ring = np.swapaxes(np.roll(base, -1, axis=0).conj(), -1, -2) @ base
        steps = np.concatenate([steps, ring])
    try:
        polar = numkit.polar_unitary(steps)
    except SingularityError as exc:
        raise SingularityError(
            "projector alignment is rank-deficient; refine the grid") from exc
    start = np.eye(nb)
    if torus:  # the base row, twisted so that it closes: ring[L] is the holonomy
        ring = _running_products(polar[L * (rows - 1):], start)
        start = ring[:L] @ numkit.unitary_powers(ring[L], -np.arange(L) / L)
    gauge = _running_products(polar[:L * (rows - 1)].reshape(L, rows - 1, nb, nb), start)
    data = np.zeros((grid.n_domain_vertices, spectrum.n_a, nb), dtype=complex)
    data[chains] = path @ gauge
    return Frame(grid=grid, group=group, data=data)


def transition_loops(frame: Frame, t: AntiUnitary) -> tuple[np.ndarray, float, float]:
    """(u, unitarity, symmetry): the transition matrices U with
    T u(tau x) = u(x) U(x)^t as one (loops, L, N_B, N_B) stack over the
    boundary loops of the frame's grid, max |U^dagger U - I| and
    max |U(tau x)^t + U(x)| over the stack.

    tau moves each loop's samples by the grid's tau_shift (a half turn of
    the sphere equator, none on the torus TRI lines), and fermionic TR forces
    U(tau x)^t = -U(x) exactly at sample level.  A unitarity residual above
    1e-9 raises DomainError.
    """
    shift = frame.grid.tau_shift
    u_b = frame.data[frame.grid.boundary_loops]
    mirrored = t.apply(np.roll(u_b, -shift, axis=1))
    u = np.einsum("lvji,lvjk->lvik", u_b.conj(), mirrored).swapaxes(-1, -2)
    unit = max_abs(np.einsum("lvji,lvjk->lvik", u.conj(), u) - np.eye(u.shape[-1]))
    if unit > 1e-9:
        raise DomainError(
            f"transition matrices not unitary ({unit:.2e}); frame does not span "
            "the band group or the gap failed"
        )
    return u, unit, max_abs(np.roll(u, -shift, axis=1).swapaxes(-1, -2) + u)


def kramers_check(spectrum: Spectrum, grid: Grid) -> float:
    """Max pairing residual |E_{2i} - E_{2i+1}| on the TRI lines p = 0, pi."""
    if grid.manifold != Manifold.TORUS:
        raise DomainError("Kramers pairing is defined on torus TRI lines only")
    if spectrum.n_a % 2 != 0:
        raise DomainError("Kramers check needs an even number of bands")
    e = spectrum.energies[grid.boundary_loops]   # the torus loops are the TRI lines
    return float(np.max(np.abs(e[..., 0::2] - e[..., 1::2])))
