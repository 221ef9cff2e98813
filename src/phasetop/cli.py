"""Command-line entry point.

Subcommands: analyze, random-suite, deform, gauge-demo.  Configs and reports
are JSON; field dumps are comma-separated tables.  Exit codes: 0 success (or
expected-negative result), 2 config error, 3 numerical failure.

Reports are deterministic for a fixed config and seed; wall-clock timing is
logged to stderr and only embedded in the report with --timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, gauge, models
from .bands import check_tri, transition_loops
from .errors import (
    ConfigError,
    ExtensionError,
    GapError,
    PhasetopError,
    ResolutionError,
    TRIViolationError,
)
from .invariants import Tolerances, analyze_model, tri_path, verify_group_fields
from .numkit import det_winding
from .phasespace import Manifold, build_grid

SCHEMA_VERSION = 1

_DEFAULT_GRIDS = {Manifold.SPHERE: (32, 64), Manifold.TORUS: (16, 128)}


def _fail(msg: str, code: int) -> int:
    print(f"phasetop: error: {msg}", file=sys.stderr)
    return code


def _load_config(path: str) -> dict:
    """The config at path, checked: its top-level keys, a 'model' object,
    integer grid sizes, and tolerances that are Tolerances fields and
    positive finite numbers."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ConfigError(f"config cannot be read: {exc}")
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"config cannot be decoded: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    extra = set(cfg) - {"model", "grid", "tolerances"}
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    if not isinstance(cfg.get("model"), dict):
        raise ConfigError("config needs a 'model' object")
    grid = cfg.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("'grid' must be an object with n_lat/n_lon")
    for key in ("n_lat", "n_lon"):
        val = grid.get(key, 0)
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"grid.{key} must be an integer, got {val!r}")
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("'tolerances' must be an object")
    bad = set(tol) - {f.name for f in dataclasses.fields(Tolerances)}
    if bad:
        raise ConfigError(f"unknown tolerance keys: {sorted(bad)}")
    for key, val in tol.items():
        _positive(f"tolerance {key}", val)
    return cfg


def _positive(name: str, val):
    """val, as given, if it is a positive models.finite_real."""
    if not models.finite_real(name, val) > 0:
        raise ConfigError(f"{name} must be positive, got {val!r}")
    return val


def _tolerances(cfg: dict, flag=None, default: float = Tolerances.gap_floor) -> Tolerances:
    """The config's tolerances, with the gap floor a given --gap-floor, else
    the config's tolerances.gap_floor, else the command's default."""
    tol = cfg.get("tolerances", {})
    gap_floor = tol.get("gap_floor", default) if flag is None else _positive("--gap-floor", flag)
    return Tolerances(**{**tol, "gap_floor": gap_floor})


def _grid_for(manifold: Manifold, cfg: dict, override: str | None):
    """The grid of a --grid LATxLON, else of the config's grid, else the
    manifold's default; build_grid checks that each size is even and >= 8."""
    if override:
        try:
            n_lat, n_lon = (int(n) for n in override.lower().split("x"))
        except ValueError:
            raise ConfigError(f"--grid expects LATxLON, got {override!r}")
    else:
        grid = cfg.get("grid", {})
        n_lat, n_lon = (grid.get(key, n) for key, n in
                        zip(("n_lat", "n_lon"), _DEFAULT_GRIDS[manifold]))
    return build_grid(manifold, n_lat, n_lon)


def _band_range(text: str, n_a: int) -> tuple[int, int]:
    """The (first, last) of a --group value FIRST:LAST, 0 <= first <= last < n_a."""
    try:
        first, last = (int(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"--group expects FIRST:LAST, got {text!r}")
    if not 0 <= first <= last < n_a:
        raise ConfigError(f"--group {text} is not a band range within 0..{n_a - 1}")
    return first, last


def _json_dump(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _report_header(config: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "phasetop", "version": __version__},
        "config": config,
    }


def _failed_global(status: str, tri_residual, error: str) -> dict:
    return {"status": status, "tri_residual": tri_residual, "chern_sum": None,
            "sum_rule_ok": None, "error": error}


def _write_table(path: Path, header: str, *columns) -> None:
    """A CSV table with one row per entry of the equal-length columns."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    path.write_text("\n".join([header, *(",".join(map(repr, row)) for row in rows)])
                    + "\n")


def _write_dumps(dump_dir: str, verified) -> None:
    """Per-group tables, each on the grid its report names; a group whose
    census is undefined (census_total null) gets no census table."""
    out = Path(dump_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rep, fld in verified:
        grid = fld.frame.grid
        gid = rep.group_id
        _write_table(out / f"curvature_group{gid}.csv", "lat_index,lon_index,flux",
                     grid.plaq_lat, grid.plaq_lon, fld.flux)
        pf = fld.pf
        if pf is None:
            continue
        vids = slice(len(pf))
        # hypot is the scalar complex modulus; np.abs of a complex array can
        # differ from it in the last bit
        _write_table(out / f"pf_abs_group{gid}.csv", "lat_index,lon_index,abs_pf",
                     grid.vertex_lat[vids], grid.vertex_lon[vids], np.hypot(pf.real, pf.imag))
        if rep.census_total is not None:
            _write_table(out / f"census_group{gid}.csv", "plaquette,index",
                         *zip(*rep.census_entries))


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = {**cfg, "model": {**cfg["model"], "seed": args.seed}}
    h_field = models.build(cfg["model"])
    grid = _grid_for(h_field.manifold, cfg, args.grid)
    tol = _tolerances(cfg)
    report = {**_report_header(cfg), "groups": [], "global": {}}
    report["config"]["grid"] = {"n_lat": grid.n_lat, "n_lon": grid.n_lon}
    started = time.perf_counter()

    try:
        tri_residual, _, results = analyze_model(h_field, grid, tol)
    except TRIViolationError as exc:
        report["global"] = _failed_global(
            "tri-violation", exc.residual,
            "field is not time-reversal invariant; invariants skipped")
        _json_dump(report, args.out)
        print(
            f"phasetop: TRI check failed (residual {exc.residual:.3e}); "
            "invariants skipped",
            file=sys.stderr,
        )
        return 3
    errors = [res for res in results if isinstance(res, PhasetopError)]
    if errors:
        report["global"] = _failed_global("numerical-failure", tri_residual,
                                          str(errors[0]))
        _json_dump(report, args.out)
        return _fail(str(errors[0]), 3)

    reports = [rep for rep, _ in results]
    chern_sum = int(sum(r.c_plaquette for r in reports))
    all_ok = not any(r.violations() for r in reports)
    report["groups"] = [r.to_dict() for r in reports]
    report["global"] = {
        "status": "ok" if all_ok and chern_sum == 0 else "theorem-violation",
        "tri_residual": tri_residual,
        "chern_sum": chern_sum,
        "sum_rule_ok": chern_sum == 0,
    }
    elapsed = time.perf_counter() - started
    print(f"phasetop: analyze finished in {elapsed:.2f}s", file=sys.stderr)
    if args.timing:
        report["timing"] = {"analyze_seconds": elapsed}
    _json_dump(report, args.out)
    if args.dump:
        _write_dumps(args.dump, results)
    return 0 if report["global"]["status"] == "ok" else 3


def cmd_random_suite(args) -> int:
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    manifold = Manifold(args.manifold)
    grid = _grid_for(manifold, {}, args.grid)
    tol = _tolerances({}, args.gap_floor)
    started = time.perf_counter()

    tally = {
        "models": 0,
        "groups": 0,
        "parity_ok": 0,
        "even_rank_groups": 0,
        "km_ok": 0,
        "km_defined": 0,
        "census_defined": 0,
        "evenness_ok": 0,
        "consistent": 0,
        "full_bundle_groups": 0,
        "skipped_marginal": 0,
        "skipped_by_cause": {"GapError": 0, "ResolutionError": 0},
    }
    violations = []
    max_antisym = 0.0

    for seed in range(args.seed, args.seed + args.count):
        h_field = models.random_tri(manifold, args.n_a, cutoff=args.cutoff,
                                    seed=seed)
        try:
            _, _, results = analyze_model(h_field, grid, tol)
        except TRIViolationError as exc:
            violations.append({"seed": seed, "kind": "tri",
                               "residual": exc.residual})
            continue
        tally["models"] += 1
        for res in results:
            if isinstance(res, (GapError, ResolutionError)):
                # gap indistinguishable from a closing at finer resolution:
                # not a reliably gapped group, excluded from theorem tallies
                tally["skipped_marginal"] += 1
                cause = "GapError" if isinstance(res, GapError) else "ResolutionError"
                tally["skipped_by_cause"][cause] += 1
                continue
            if isinstance(res, PhasetopError):
                raise res
            rep, _ = res
            tally["groups"] += 1
            tally["parity_ok"] += rep.parity_ok
            tally["consistent"] += rep.consistent
            tally["evenness_ok"] += bool(rep.evenness_ok)
            tally["full_bundle_groups"] += rep.rank == args.n_a
            sym = rep.residuals.get("loop_antisymmetry",
                                    rep.residuals.get("loop_skewness", 0.0))
            max_antisym = max(max_antisym, sym)
            violations.extend({"seed": seed, "group": rep.group_id, **record}
                              for record in rep.violations())
            if rep.rank % 2 == 0:
                tally["even_rank_groups"] += 1
                if rep.k is not None:
                    tally["km_defined"] += 1
                    tally["km_ok"] += bool(rep.km_relation_ok)
                tally["census_defined"] += rep.census_total is not None

    elapsed = time.perf_counter() - started
    report = {
        **_report_header({
            "count": args.count,
            "manifold": manifold.value,
            "n_a": args.n_a,
            "cutoff": args.cutoff,
            "seed": args.seed,
            "grid": {"n_lat": grid.n_lat, "n_lon": grid.n_lon},
            "gap_floor": args.gap_floor,
        }),
        "tally": tally,
        "max_symmetry_residual": max_antisym,
        "violations": violations,
    }
    print(f"phasetop: random-suite finished in {elapsed:.2f}s", file=sys.stderr)
    if args.timing:
        report["timing"] = {"suite_seconds": elapsed}
    _json_dump(report, args.out)
    return 3 if violations else 0


def cmd_deform(args) -> int:
    cfg_a = _load_config(args.config_a)
    cfg_b = _load_config(args.config_b)
    tol = _tolerances(cfg_a, args.gap_floor, 1e-3)
    h0 = models.build(cfg_a["model"])
    h1 = models.build(cfg_b["model"])
    grid = _grid_for(h0.manifold, cfg_a, args.grid)
    first, last = _band_range(args.group, h0.n_a)
    path = tri_path(h0, h1, grid, (first, last), steps=args.steps, gap_floor=tol.gap_floor,
                    tri_tol=tol.tri_tol)
    report = {
        **_report_header({
            "model_a": cfg_a["model"],
            "model_b": cfg_b["model"],
            "steps": args.steps,
            "group": [first, last],
            "grid": {"n_lat": grid.n_lat, "n_lon": grid.n_lon},
            "gap_floor": tol.gap_floor,
        }),
        "verdict": path.verdict,
        "chern": path.chern,
        "closing_bracket": list(path.closing_bracket) if path.closing_bracket else None,
        # a range that holds every band has no bounding gap: null, not Infinity
        "samples": [{"s": s, "min_gap": None if g == np.inf else g, "c": c}
                    for (s, g, c) in path.samples],
    }
    _json_dump(report, args.out)
    return 0


def cmd_gauge_demo(args) -> int:
    cfg = _load_config(args.config)
    tol = _tolerances(cfg, args.gap_floor, 0.05)
    h_field = models.build(cfg["model"])
    sphere = h_field.manifold == Manifold.SPHERE
    if args.target_c is not None and not sphere:
        raise ConfigError("--target-c applies to sphere models only")
    grid = _grid_for(h_field.manifold, cfg, args.grid)
    first, last = _band_range(args.group, h_field.n_a)
    tri_residual, tri_ok = check_tri(h_field, grid, tol.tri_tol)
    if not tri_ok:  # a NaN residual fails as well
        raise TRIViolationError(tri_residual, tol.tri_tol)
    rep, fields = verify_group_fields(h_field, (first, last), grid, tol)
    frame, loops, measured_c = fields.frame, fields.loops, rep.c_winding

    report = {**_report_header({
        "model": cfg["model"],
        "group": [first, last],
        "target_c": args.target_c,
        "grid": {"n_lat": grid.n_lat, "n_lon": grid.n_lon},
    }), "group": rep.to_dict(), "violations": rep.violations()}
    if sphere:
        (loop,) = loops
        target_c = measured_c if args.target_c is None else args.target_c
        if (target_c - rep.rank) % 2 != 0:
            raise ConfigError(
                f"target Chern {target_c} has wrong parity for rank {rep.rank}"
            )
        nf = gauge.normal_form_loop(target_c, rep.rank, rep.grid_n_lon)
        w, residual_pi, residual_2pi = gauge.solve_equator_gauge(loop, nf)
        obstruction = det_winding(w)   # wn det W: extends iff 0
        report.update({
            "measured_c": measured_c,
            "target_c": target_c,
            "continuity_residual_pi": residual_pi,
            "continuity_residual_2pi": residual_2pi,
            "gauge_relation_residual": gauge.gauge_relation_residual(loop, nf, w),
            "obstruction_winding": obstruction,
        })
        if obstruction == 0:
            try:
                ext = gauge.extend_to_disk(w, frame.grid)
            except ExtensionError as exc:
                report.update({"extension_success": False, "expected_failure": False,
                               "reason": str(exc)})
                _json_dump(report, args.out)
                return _fail(str(exc), exc.exit_code)
            (regauged,), _, _ = transition_loops(gauge.regauge_frame(frame, ext), h_field.t)
            mismatch = float(np.max(np.abs(regauged - nf)))
            report.update({
                "extension_success": True,
                "extension_start": ext.start,
                "extension_sweeps": ext.sweeps,
                "extension_max_step": ext.max_interior_step,
                "regauged_normal_form_mismatch": mismatch,
            })
        else:
            report.update({
                "extension_success": False,
                "expected_failure": True,
                "reason": "nonzero winding obstruction: requested class differs "
                          "from the measured one",
            })
    else:
        residual, wd = gauge.skew_normal_form(*loops, measured_c)
        report.update({
            "measured_c": measured_c,
            "congruence_residual": residual,
            "windings": wd,
            "extendability_winding": wd["det_w_plus"] - wd["det_w_minus"],
        })
    _json_dump(report, args.out)
    return 3 if report["violations"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasetop",
        description="Topological invariants of TRI band bundles over "
                    "two-dimensional phase spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for one model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None, help="directory for field dumps")
    p.add_argument("--grid", default=None, help="LATxLON override")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("random-suite", help="randomized theorem verification")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--manifold", choices=["sphere", "torus"], required=True)
    p.add_argument("--n-a", type=int, default=4, dest="n_a")
    p.add_argument("--cutoff", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default=None)
    p.add_argument("--gap-floor", type=float, default=0.05, dest="gap_floor")
    p.add_argument("--out", default=None)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_random_suite)

    p = sub.add_parser("deform", help="linear TRI deformation path scan")
    p.add_argument("--config-a", required=True, dest="config_a")
    p.add_argument("--config-b", required=True, dest="config_b")
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--group", default="0:0", help="band index range first:last")
    p.add_argument("--grid", default=None)
    p.add_argument("--gap-floor", type=float, default=None, dest="gap_floor",
                   help="default: config_a's tolerances.gap_floor, else 1e-3")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("gauge-demo", help="normal-form gauge construction")
    p.add_argument("--config", required=True)
    p.add_argument("--group", default="0:0", help="band index range first:last")
    p.add_argument("--target-c", type=int, default=None, dest="target_c")
    p.add_argument("--grid", default=None)
    p.add_argument("--gap-floor", type=float, default=None, dest="gap_floor",
                   help="default: the config's tolerances.gap_floor, else 0.05")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gauge_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PhasetopError as exc:
        return _fail(str(exc), exc.exit_code)


if __name__ == "__main__":
    sys.exit(main())
