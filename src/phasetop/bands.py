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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkit
from .errors import DomainError, GapError, SingularityError
from .numkit import max_abs
from .phasespace import (
    FundamentalDomain,
    Grid,
    Manifold,
    transport_chains,
    tr_image_batch,
)


@dataclass(frozen=True)
class AntiUnitary:
    """Fermionic time reversal x -> J conj(x)."""

    j: np.ndarray

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
        object.__setattr__(self, "j", j)

    @property
    def dim(self) -> int:
        return self.j.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply T to a vector, matrix of columns, or a stack of them."""
        x = np.asarray(x, dtype=complex)
        if x.ndim <= 2:
            return self.j @ x.conj()
        return np.einsum("ij,vjk->vik", self.j, x.conj())

    def conjugate_field(self, h_stack: np.ndarray) -> np.ndarray:
        """J conj(H) J^dagger applied to a stack of matrices."""
        return self.j @ np.conj(h_stack) @ self.j.conj().T

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
    stack of Hermitian matrices.  The field keeps no record of its
    parameters; the model spec given to models.build is that record.
    """

    n_a: int
    manifold: Manifold
    t: AntiUnitary
    evaluate: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.evaluate(np.atleast_2d(np.asarray(pts, dtype=float)))


def check_tri(h_field: HamiltonianField, grid: Grid, tol: float = 1e-9):
    """Max vertex residual of J conj(H(tau x)) J^dagger - H(x), and pass flag."""
    residual = h_field.t.tri_residual(h_field(grid.points), grid)
    return residual, residual <= tol


def symmetrize_tri(
    evaluate: Callable[[np.ndarray], np.ndarray],
    t: AntiUnitary,
    manifold: Manifold,
    label: str = "",
) -> HamiltonianField:
    """TRI field from an arbitrary Hermitian field by group averaging:
    H(x) = (B(x) + J conj(B(tau x)) J^dagger) / 2."""
    manifold = Manifold(manifold)

    def tri_eval(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        direct = evaluate(pts)
        mirrored = evaluate(tr_image_batch(manifold, pts))
        return 0.5 * (direct + t.conjugate_field(mirrored))

    return HamiltonianField(
        n_a=t.dim, manifold=manifold, t=t, evaluate=tri_eval,
        label=label or "tri-symmetrized",
    )


def rotated_field(h_field: HamiltonianField, angle: float) -> HamiltonianField:
    """Precompose with a rotation of the domain (sphere: about the y axis;
    torus: shift of the q origin).  Both commute with time reversal, so the
    result is TRI with the same operator; used to reseat the fundamental
    domain away from Pfaffian zeros."""
    if h_field.manifold == Manifold.SPHERE:
        c, s = np.cos(angle), np.sin(angle)

        def rotated(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            th, ph = pts[:, 0], pts[:, 1]
            n = np.stack(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
            )
            rn = n.copy()
            rn[:, 0] = c * n[:, 0] + s * n[:, 2]
            rn[:, 2] = -s * n[:, 0] + c * n[:, 2]
            th2 = np.arccos(np.clip(rn[:, 2], -1.0, 1.0))
            ph2 = np.mod(np.arctan2(rn[:, 1], rn[:, 0]), 2.0 * np.pi)
            return h_field.evaluate(np.stack([th2, ph2], axis=1))

        new_eval = rotated
    else:

        def shifted(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
            pts[:, 0] = np.mod(pts[:, 0] + angle, 2.0 * np.pi)
            return h_field.evaluate(pts)

        new_eval = shifted

    return HamiltonianField(
        n_a=h_field.n_a, manifold=h_field.manifold, t=h_field.t,
        evaluate=new_eval, label=h_field.label,
    )


@dataclass(frozen=True)
class Spectrum:
    """Per-vertex eigendecomposition over a grid, deterministic gauge."""

    grid: Grid
    energies: np.ndarray   # (V, N_A) ascending
    vectors: np.ndarray    # (V, N_A, N_A) unitary columns

    @property
    def n_a(self) -> int:
        return self.energies.shape[1]

    @classmethod
    def from_stack(cls, hs: np.ndarray, grid: Grid) -> "Spectrum":
        """Eigendecomposition of the evaluated stack hs = H(grid.points)."""
        w, v = numkit.eigh_many(hs)
        return cls(grid=grid, energies=w, vectors=v)

    def band_vectors(self, group: "BandGroup") -> np.ndarray:
        return self.vectors[:, :, group.first : group.last + 1]

    def boundary_gaps(self) -> np.ndarray:
        """Min over vertices of the gap above each band (length N_A - 1)."""
        return np.min(np.diff(self.energies, axis=1), axis=0)

    def bounding_gap(self, first: int, last: int) -> float:
        """Min gap between bands [first, last] and their neighbours; inf when
        the range holds every band."""
        gaps = self.boundary_gaps()
        bounding = []
        if first > 0:
            bounding.append(gaps[first - 1])
        if last < self.n_a - 1:
            bounding.append(gaps[last])
        return float(min(bounding)) if bounding else np.inf


def spectrum_on_grid(h_field: HamiltonianField, grid: Grid) -> Spectrum:
    return Spectrum.from_stack(h_field(grid.points), grid)


@dataclass(frozen=True)
class BandGroup:
    """Contiguous band index range [first, last] (0-based), gapped from the rest."""

    first: int
    last: int
    min_gap: float

    @property
    def rank(self) -> int:
        return self.last - self.first + 1


def find_gapped_groups(spectrum: Spectrum, gap_floor: float = 1e-6):
    """Maximal contiguous index ranges separated by gaps above the floor.

    The returned groups partition all bands; with no internal gap above the
    floor the single full-range group (min_gap = inf) is returned.
    """
    gaps = spectrum.boundary_gaps()
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
    """Orthonormal frame field spanning a band group over a fundamental domain."""

    domain: FundamentalDomain
    group: BandGroup
    data: np.ndarray         # (n_domain_vertices, N_A, N_B)
    max_step: float          # largest adjacent-vertex frame distance
    continuity_const: float  # max_step / grid spacing

    def at(self, vid: int) -> np.ndarray:
        return self.data[self.domain.local_index[vid]]


def _transport(slab: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Move frame u into the eigenspace spanned by slab's columns.

    Projects onto the target eigenspace and re-orthonormalizes with the
    polar factor of the small overlap, i.e. discrete parallel transport.
    Works on one frame or on a stack of frames (last two axes) at once.
    """
    overlap = np.swapaxes(slab.conj(), -1, -2) @ u
    try:
        return slab @ numkit.polar_unitary(overlap)
    except SingularityError as exc:
        raise SingularityError(
            "projector alignment is rank-deficient; refine the grid"
        ) from exc


def frame_residuals(frame: Frame, slabs: np.ndarray):
    """(orthonormality, span) residuals of a frame against eigenvector slabs."""
    data = frame.data
    nb = data.shape[2]
    eye = np.eye(nb)
    orth = max_abs(np.einsum("vij,vik->vjk", data.conj(), data) - eye)
    proj = np.einsum("vij,vkj->vik", slabs, slabs.conj())
    span = max_abs(data - np.einsum("vij,vjk->vik", proj, data))
    return float(orth), float(span)


def _continuity(domain: FundamentalDomain, data: np.ndarray):
    a = domain.local_index[domain.edges[:, 0]]
    b = domain.local_index[domain.edges[:, 1]]
    diffs = data[a] - data[b]
    max_step = float(np.max(np.sqrt(np.sum(np.abs(diffs) ** 2, axis=(1, 2)))))
    grid = domain.grid
    h = max(np.pi / grid.n_lat, 2.0 * np.pi / grid.n_lon)
    return max_step, max_step / h


def smooth_frame(spectrum: Spectrum, group: BandGroup, domain: FundamentalDomain) -> Frame:
    """Continuous orthonormal frame for a gapped group over the domain,
    built from the spectrum on the domain's grid.

    Sphere: the eigenframe at the north pole is parallel-transported down
    every meridian; all meridians share the pole value, so the field is
    continuous across the domain.  Torus: the frame is transported along the
    p = 0 line, the loop holonomy is spread out as a fractional twist
    exp(-(q/2pi) log V0) to make it periodic in q, then each column is
    transported upward in p.
    """
    grid = domain.grid
    slabs = spectrum.band_vectors(group)
    n_dom = domain.n_vertices
    data = np.zeros((n_dom, spectrum.n_a, group.rank), dtype=complex)
    loc = domain.local_index

    if grid.manifold == Manifold.SPHERE:
        seed_vid, chains = transport_chains(domain)
        data[loc[seed_vid]] = slabs[seed_vid]
        u = np.broadcast_to(slabs[seed_vid], (chains.shape[0],) + slabs.shape[1:])
    else:
        seed_vid, (base, chains) = transport_chains(domain)
        L = grid.n_lon
        raw = [slabs[seed_vid]]
        for vid in base[1:]:
            raw.append(_transport(slabs[vid], raw[-1]))
        back = _transport(slabs[base[0]], raw[-1])
        holonomy = raw[0].conj().T @ back
        q_h, ph_h = numkit.unitary_gap_log(holonomy)
        twists = numkit.unitary_power(q_h, ph_h, -np.arange(L) / L)
        u = np.stack(raw) @ twists
        data[loc[base]] = u
    # every meridian (sphere) or column (torus) steps in lock-step, one row
    # of the domain at a time
    for row in chains.T[1:]:
        u = _transport(slabs[row], u)
        data[loc[row]] = u

    max_step, const = _continuity(domain, data)
    frame = Frame(domain=domain, group=group, data=data,
                  max_step=max_step, continuity_const=const)
    return frame


@dataclass(frozen=True)
class TransitionLoop:
    """Unitary transition matrices sampled along a boundary loop."""

    samples: np.ndarray        # (L, N_B, N_B)
    unitarity: float
    symmetry_residual: float   # max |U(tau x)^t + U(x)| over the loop

    @property
    def rank(self) -> int:
        return self.samples.shape[1]

    def det_loop(self) -> numkit.PhaseLoop:
        return numkit.PhaseLoop(np.linalg.det(self.samples))


def _unitarity(samples: np.ndarray) -> float:
    nb = samples.shape[1]
    prods = np.einsum("vji,vjk->vik", samples.conj(), samples)
    return float(max_abs(prods - np.eye(nb)))


def transition_loops(frame: Frame, t: AntiUnitary) -> tuple[TransitionLoop, ...]:
    """Transition matrices U with T u(tau x) = u(x) U(x)^t, one TransitionLoop
    per boundary loop of the frame's domain.

    tau moves each loop's samples by the domain's tau_shift (a half turn of
    the sphere equator, none on the torus TRI lines), and fermionic TR forces
    U(tau x)^t = -U(x) exactly at sample level.
    """
    dom = frame.domain
    shift = dom.tau_shift
    loops = []
    for loop in dom.boundary_loops:
        u_b = frame.data[dom.local_index[loop]]
        mirrored = t.apply(np.roll(u_b, -shift, axis=0))
        u = np.einsum("vji,vjk->vik", u_b.conj(), mirrored).transpose(0, 2, 1)
        unit = _unitarity(u)
        if unit > 1e-9:
            raise DomainError(
                f"transition matrices not unitary ({unit:.2e}); frame does not span "
                "the band group or the gap failed"
            )
        sym = float(max_abs(np.roll(u, -shift, axis=0).transpose(0, 2, 1) + u))
        loops.append(TransitionLoop(u, unit, sym))
    return tuple(loops)


def kramers_check(spectrum: Spectrum, grid: Grid) -> float:
    """Max pairing residual |E_{2i} - E_{2i+1}| on the TRI lines p = 0, pi."""
    if grid.manifold != Manifold.TORUS:
        raise DomainError("Kramers pairing is defined on torus TRI lines only")
    if spectrum.n_a % 2 != 0:
        raise DomainError("Kramers check needs an even number of bands")
    rows = np.concatenate([grid.row_vids(0), grid.row_vids(grid.n_lat // 2)])
    e = spectrum.energies[rows]
    return float(np.max(np.abs(e[:, 0::2] - e[:, 1::2])))
