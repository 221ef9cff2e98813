"""Phase-space manifolds, time-reversal involutions, and tau-closed grids.

Two manifolds are supported: the two-sphere in spherical polars (theta, phi)
with the antipodal involution tau(theta, phi) = (pi - theta, phi + pi), and
the two-torus in canonical coordinates (q, p) with tau(q, p) = (q, -p).

Grids are built so that tau maps vertices to vertices and plaquettes to
plaquettes exactly (index-level pairing, no floating-point matching).
Plaquette corner lists are stored in coordinate orientation, d(theta)^d(phi)
and dq^dp positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * np.pi
MAX_LOOP_SAMPLES = 2 ** 14   # the largest grid size, so no loop is longer


class Manifold(str, Enum):
    SPHERE = "sphere"
    TORUS = "torus"


def directions(pts: np.ndarray) -> np.ndarray:
    """Unit vectors n(theta, phi) for a batch of sphere points."""
    th, ph = pts[:, 0], pts[:, 1]
    return np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
    )


@dataclass(frozen=True)
class Grid:
    """tau-closed grid on a phase-space manifold.

    Sphere: rows are latitude lines theta_i = pi*i/n_lat (poles are single
    vertices, rows 0 and n_lat); columns are phi_j = 2*pi*j/n_lon.  Torus:
    rows are p_i = 2*pi*i/n_lat, columns q_j = 2*pi*j/n_lon, both periodic.

    plaquettes holds 4 corner vertex ids per cell in coordinate orientation;
    pole-adjacent sphere cells are triangles stored with the pole id repeated.
    Side a of plaquette P, corner a to corner a + 1, reads edge side_edge[P, a]
    along (side_sign +1) or against (-1) it, or is a repeated pole corner (0).

    The grid carries the closed fundamental domain of tau, rows 0 .. n_lat/2:
    on the sphere the northern hemisphere, boundary the equator; on the torus
    the cylinder 0 <= p <= pi, boundaries the TRI lines p = 0 and p = pi.
    Those rows come first in both numberings, so the domain is a prefix: vids
    0 .. n_domain_vertices - 1 (the sphere equator last) and plaquettes
    0 .. n_domain_plaquettes - 1.  Frames, M fields and the census index by
    grid id.

    Each boundary loop runs along its row in increasing column order.  The
    orientation the domain induces on its boundary alternates in sign, loop 0
    first: the equator and the p = 0 line count with +1, the p = pi line with
    -1, so a boundary integral is sum_i (-1)^i over the stored loops.  tau
    maps every boundary loop to itself, sample i to sample i + tau_shift
    (mod n_lon): a half turn of the equator (n_lon/2) on the sphere, the
    identity on the torus lines, which tau fixes point by point.  The step
    from sample i to i + 1 of a loop reads edge loop_edge[loop, i] along
    (loop_sign +1) or against (-1) it; the wrap step n_lon - 1 -> 0 runs
    against its edge.

    transport_chains[j] is column j from row 0 up to the boundary row: on the
    sphere each chain starts at the north pole, on the torus
    transport_chains[:, 0] is the base row p = 0.  Either way
    transport_chains[0, 0] is the transport seed.
    """

    manifold: Manifold
    n_lat: int
    n_lon: int
    points: np.ndarray        # (V, 2) coordinates per vertex
    vertex_lat: np.ndarray    # (V,) row index
    vertex_lon: np.ndarray    # (V,) column index (0 for poles)
    plaquettes: np.ndarray    # (P, 4) corner vertex ids
    plaq_lat: np.ndarray      # (P,) latitude band index
    plaq_lon: np.ndarray      # (P,) column index
    tau_vertex: np.ndarray    # (V,)
    tau_plaq: np.ndarray      # (P,)
    edges: np.ndarray = field(init=False, repr=False)      # (E, 2) vids, lower first
    side_edge: np.ndarray = field(init=False, repr=False)  # (P, 4) edge ids
    side_sign: np.ndarray = field(init=False, repr=False)  # (P, 4) +1, -1 or 0
    n_domain_vertices: int = field(init=False, repr=False)
    n_domain_plaquettes: int = field(init=False, repr=False)
    domain_edge_ids: np.ndarray = field(init=False, repr=False)   # joining two domain vertices
    boundary_loops: np.ndarray = field(init=False, repr=False)    # (loops, n_lon) vids
    loop_edge: np.ndarray = field(init=False, repr=False)         # (loops, n_lon) edge ids
    loop_sign: np.ndarray = field(init=False, repr=False)         # (loops, n_lon) +1 or -1
    tau_shift: int = field(init=False, repr=False)                # tau on a loop, in samples
    transport_chains: np.ndarray = field(init=False, repr=False)  # (n_lon, n_lat/2 + 1) vids

    def __post_init__(self):
        a, b, n = self.plaquettes, np.roll(self.plaquettes, -1, axis=1), len(self.points)
        keys, side = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
        edges = np.stack(np.divmod(keys, n), axis=1)
        half, cols = self.n_lat // 2, np.arange(self.n_lon)
        sphere = self.manifold == Manifold.SPHERE
        n_domain = self.vid(half, self.n_lon - 1) + 1
        loops = self.vid(np.array([[half]] if sphere else [[0], [half]]), cols)
        ahead = np.roll(loops, -1, axis=1)
        derived = {
            "edges": edges,
            "side_edge": side.reshape(a.shape),
            "side_sign": np.sign(b - a),
            "n_domain_vertices": n_domain,
            "n_domain_plaquettes": half * self.n_lon,
            # lower vid first: an edge is inside when its higher end is
            "domain_edge_ids": np.flatnonzero((edges[:, 1] < n_domain)
                                              & (edges[:, 0] != edges[:, 1])),
            "boundary_loops": loops,
            "loop_edge": np.searchsorted(keys, np.minimum(loops, ahead) * n
                                         + np.maximum(loops, ahead)),
            "loop_sign": np.sign(ahead - loops),
            "tau_shift": self.n_lon // 2 if sphere else 0,
            "transport_chains": self.vid(np.arange(half + 1), cols[:, None]),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # grids are shared, see build_grid

    @property
    def n_vertices(self) -> int:
        return self.points.shape[0]

    @property
    def n_plaquettes(self) -> int:
        return self.plaquettes.shape[0]

    def vid(self, i, j):
        """Vertex id for row i, column j (columns wrap); index arrays give an
        array of ids."""
        ids = _vids(self.manifold, self.n_lat, self.n_lon, i, j)
        return int(ids) if ids.ndim == 0 else ids


def _vids(manifold: Manifold, n_lat: int, n_lon: int, i, j) -> np.ndarray:
    """Vertex ids for broadcastable row and column index arrays.

    Sphere: the poles (rows 0 and n_lat) are single vertices, first and
    last; the rows in between are numbered row-major from 1.  Torus: both
    directions wrap, row-major from 0.
    """
    i = np.asarray(i)
    j = np.mod(j, n_lon)
    if manifold == Manifold.SPHERE:
        south = 1 + (n_lat - 1) * n_lon
        return np.where(i == 0, 0, np.where(i == n_lat, south, 1 + (i - 1) * n_lon + j))
    return np.mod(i, n_lat) * n_lon + j


def build_grid(manifold: Manifold, n_lat: int, n_lon: int) -> Grid:
    """The tau-closed grid of a shape; subdivisions must be even, >= 8 and at
    most MAX_LOOP_SAMPLES.  The two latest shapes are kept and shared, so a
    grid's arrays are read-only."""
    manifold = Manifold(manifold)
    for name, n in (("n_lat", n_lat), ("n_lon", n_lon)):
        if not (8 <= n <= MAX_LOOP_SAMPLES and n % 2 == 0):
            raise ConfigError(f"{name} must be even and within 8..{MAX_LOOP_SAMPLES}, got {n}")
    return _shared_grid(manifold, n_lat, n_lon)


@lru_cache(maxsize=2)  # a model's grid and its latest retry grid; more only holds memory
def _shared_grid(manifold: Manifold, n_lat: int, n_lon: int) -> Grid:
    L = n_lon
    # plaquette (i, j) spans rows i, i+1 and columns j, j+1, row-major
    i, j = np.meshgrid(np.arange(n_lat), np.arange(L), indexing="ij")
    i, j = i.ravel(), j.ravel()

    def vid(a, b):
        return _vids(manifold, n_lat, L, a, b)

    if manifold == Manifold.SPHERE:
        vlat = np.concatenate([[0], np.repeat(np.arange(1, n_lat), L), [n_lat]])
        vlon = np.concatenate([[0], np.tile(np.arange(L), n_lat - 1), [0]])
        points = np.stack([np.pi * vlat / n_lat, TWO_PI * vlon / L], axis=1)
        points[-1, 0] = np.pi  # exact, whatever n_lat
        tau_vertex = vid(n_lat - vlat, vlon + L // 2)
        # coordinate orientation: (i,j) -> (i+1,j) -> (i+1,j+1) -> (i,j+1)
        plaqs = np.stack([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)], axis=1)
        tau_plaq = (n_lat - 1 - i) * L + (j + L // 2) % L
    else:
        vlat, vlon = i.copy(), j.copy()
        points = np.stack([TWO_PI * vlon / L, TWO_PI * vlat / n_lat], axis=1)  # (q, p)
        tau_vertex = vid(n_lat - vlat, vlon)
        # coordinate orientation dq^dp: (i,j) -> (i,j+1) -> (i+1,j+1) -> (i+1,j)
        plaqs = np.stack([vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j)], axis=1)
        tau_plaq = ((n_lat - 1 - i) % n_lat) * L + j

    return Grid(
        manifold=manifold,
        n_lat=n_lat,
        n_lon=n_lon,
        points=points,
        vertex_lat=vlat,
        vertex_lon=vlon,
        plaquettes=plaqs,
        plaq_lat=i,
        plaq_lon=j,
        tau_vertex=tau_vertex,
        tau_plaq=tau_plaq,
    )


def refine_grid(grid: Grid, lat: bool = True, lon: bool = True) -> Grid:
    """The grid with n_lat doubled when lat is true and n_lon doubled when
    lon is true; by default both.  The old grid's rows and columns are every
    other row or column of the new one."""
    return build_grid(grid.manifold, grid.n_lat * (1 + lat), grid.n_lon * (1 + lon))


def plaquette_sums(grid: Grid, edge_values: np.ndarray, plaqs=slice(None)) -> np.ndarray:
    """Per plaquette, the sum over its sides of the side's sign times the
    value of the edge it reads: an edge quantity taken around the plaquette."""
    return np.sum(grid.side_sign[plaqs] * edge_values[grid.side_edge[plaqs]], axis=1)


def edge_points(manifold: Manifold, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The (E, n - 1, 2) interior points that cut each edge a[e] -> b[e] into n
    equal parts: on the torus a straight segment in (q, p), the short way
    round each periodic direction; on the sphere the great-circle arc."""
    t = np.arange(1, n) / n
    if manifold == Manifold.SPHERE:
        na, nb = directions(a), directions(b)
        angle = np.arccos(np.clip(np.sum(na * nb, axis=1), -1.0, 1.0))[:, None]
        wa = np.sin((1.0 - t) * angle) / np.sin(angle)
        wb = np.sin(t * angle) / np.sin(angle)
        n_pts = wa[..., None] * na[:, None] + wb[..., None] * nb[:, None]
        th = np.arccos(np.clip(n_pts[..., 2], -1.0, 1.0))
        ph = np.mod(np.arctan2(n_pts[..., 1], n_pts[..., 0]), TWO_PI)
        return np.stack([th, ph], axis=-1)
    d = np.mod(b - a + np.pi, TWO_PI) - np.pi
    return np.mod(a[:, None] + t[:, None] * d[:, None], TWO_PI)
