"""Re-verify the criterion-5 groups on the grid doubled in both directions.

The two Chern routes and the KM index read one spectrum on one grid, so a
grid that aliases can fool them alike and the cross-method check still
passes.  A finer grid shares no vertex data with them: every group that
verifies on its start grid without a refinement must keep (c_plaquette,
c_winding, k) when verify_group runs it again on the grid refined 2x in both
directions, and verify there without a refinement.

    PYTHONPATH=src python tests/finer_grid.py    # all 100 models; exit 1 on a move

tests/test_invariants.py runs the same comparison on a block of ten seeds
per manifold.
"""

from __future__ import annotations

import sys
import time

from phasetop import models
from phasetop.errors import PhasetopError
from phasetop.invariants import Tolerances, analyze_model, verify_group
from phasetop.phasespace import Manifold, build_grid, refine_grid

# the criterion-5 suites: RandomTRI N_A = 4, cutoff 3; (seeds, start shape, gap floor)
SUITES = {
    Manifold.SPHERE: (range(100, 150), (32, 64), 0.05),
    Manifold.TORUS: (range(200, 250), (24, 128), 0.03),
}


def _integers(h, group, grid, tol, gid):
    """(c_plaquette, c_winding, k) of a group verified on grid without a
    refinement, or what happened instead."""
    try:
        rep = verify_group(h, group, grid, tol, gid)
    except PhasetopError as exc:
        return f"{type(exc).__name__}: {exc}"
    if rep.refinements:
        return f"refined to {rep.grid_n_lat}x{rep.grid_n_lon}"
    return rep.c_plaquette, rep.c_winding, rep.k


def doubled_grid_moves(manifold: Manifold, seeds) -> tuple[list, list]:
    """(checked, moved) over the given seeds of a criterion-5 suite: checked
    names (seed, group id) for every group that verifies on the suite's start
    grid without a refinement; moved holds (seed, group id, start value,
    doubled value) for each of them whose doubled-grid value differs."""
    _, shape, gap_floor = SUITES[manifold]
    start = build_grid(manifold, *shape)
    doubled = refine_grid(start)
    tol = Tolerances(gap_floor=gap_floor)
    checked, moved = [], []
    for seed in seeds:
        h = models.random_tri(manifold, 4, cutoff=3, seed=seed)
        _, groups, results = analyze_model(h, start, tol)
        for gid, (group, res) in enumerate(zip(groups, results)):
            if isinstance(res, PhasetopError) or res[0].refinements:
                continue
            rep = res[0]
            coarse = rep.c_plaquette, rep.c_winding, rep.k
            fine = _integers(h, group, doubled, tol, gid)
            checked.append((seed, gid))
            if fine != coarse:
                moved.append((seed, gid, coarse, fine))
    return checked, moved


def main() -> int:
    failed = False
    for manifold, (seeds, shape, _) in SUITES.items():
        began = time.perf_counter()
        checked, moved = doubled_grid_moves(manifold, seeds)
        print(f"{manifold.value} seeds {seeds.start}-{seeds.stop - 1}, {shape[0]}x{shape[1]} "
              f"-> {2 * shape[0]}x{2 * shape[1]}: {len(checked)} groups, {len(moved)} moved "
              f"in {time.perf_counter() - began:.1f} s")
        for seed, gid, coarse, fine in moved:
            print(f"  MOVED {manifold.value} seed {seed} group {gid}: {coarse} -> {fine}")
        failed = failed or bool(moved)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
