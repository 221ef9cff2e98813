"""Test oracles: plain restatements of what the package stores as data.

tr_image_batch writes tau as coordinates, where the package holds it as
index data on the grid (Grid.tau_vertex and Grid.tau_plaq).
random_hermitian_field is the raw random field that RandomTRI and
TRIBrokenControl project onto its TR-even and TR-odd parts.  m_matrices is
the overlap matrix field M whose Pfaffian invariants.m_field returns.
"""

import numpy as np

from phasetop import models
from phasetop.phasespace import Manifold

TWO_PI = 2.0 * np.pi


def tr_image_batch(manifold: Manifold, pts: np.ndarray) -> np.ndarray:
    """Time-reversal image of each row of an (m, 2) point array.

    The sphere involution is fixed-point free; on the torus the fixed-point
    set is exactly the two lines p = 0 and p = pi.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.empty_like(pts)
    if manifold == Manifold.SPHERE:
        out[:, 0] = np.pi - pts[:, 0]
        out[:, 1] = np.mod(pts[:, 1] + np.pi, TWO_PI)
    else:
        out[:, 0] = pts[:, 0]
        out[:, 1] = np.mod(-pts[:, 1], TWO_PI)
    return out


def random_hermitian_field(manifold: Manifold, n: int, cutoff: int, seed: int):
    """Random low-frequency Hermitian field with sup operator norm ~ 1.

    Sphere: polynomial in the direction vector up to total degree `cutoff`.
    Torus: trigonometric polynomial with mode indices |a|, |b| <= cutoff.
    The field is normalized by its largest spectral norm over a fixed probe
    set, so spectra spread over an O(1) range for every seed.
    """
    basis, table, _, _ = models._normalized_table(manifold, n, cutoff, seed)
    return models._table_field(basis, table)


def m_matrices(frames: np.ndarray, t) -> np.ndarray:
    """M = u^dagger (J conj u) for a (V, N_A, N_B) stack of frames, with the
    dense matrix J of the antiunitary t."""
    return np.einsum("vji,jk,vkl->vil", frames.conj(), t.j, frames.conj())
