"""The three benchmark workloads and their correctness gates.

All workloads are closed loop: one client in one process, and each item
starts only after the previous one has finished.  A pass runs every item of
the workload once; the workload seed fixes the order of the items in a pass.
The item set itself is fixed, so every run does the same work and every
result can be compared with the outcome recorded at the seed commit
(reference.json):

- suite-sphere: the criterion-5 sphere suite, RandomTRI models 100-149 at
  32x64 with gap floor 0.05.  Field evaluation, eigh, frame transport and
  the census carry the work; most groups have odd rank and gauge is unused.
  Seed 140 refines its grid.
- suite-torus: the criterion-5 torus suite, models 200-249 at 24x128 with
  gap floor 0.03.  Every group has even rank, so the Pfaffian and the census
  run on all of them, and seed 200 drives the refinement and domain-rotation
  retry path to an unresolved census.
- zoo: the CLI run on the acceptance models: analyze with dumps on seven
  configs, gauge-demo on the criterion-7 cases, their mismatched classes and
  the doubled torus, and deform on the two criterion-8 paths.  Only this
  workload exercises gauge and cli, and deform makes many small eigh and
  plaquette calls on a 16x32 grid instead of a few large stacks.

The suites drive the library the way `phasetop random-suite` does, one
model per item through `runtime.map_chunks`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from phasetop import bands, cli, invariants, models, phasespace, runtime
from phasetop.errors import GapError, ResolutionError

SYMMETRY_TOL = 1e-8            # criterion 5: max symmetry residual
SEAM_TOL = 1e-8                # criterion 7: gauge seam residuals
REGAUGE_TOL = 1e-6             # criterion 7: regauged loop vs normal form
MIN_KM_DEFINED = 10            # criterion 5: even-rank groups genuinely hit


def group_outcome(rep) -> list:
    return [rep.rank, rep.c_plaquette, rep.c_winding, rep.k, rep.census_total]


def _theorems_hold(rep, torus: bool) -> bool:
    ok = (rep.parity_ok and rep.consistent and bool(rep.evenness_ok)
          and rep.km_relation_ok is not False and rep.census_ok is not False)
    if torus:
        ok = ok and rep.rank % 2 == 0 and rep.c_plaquette % 2 == 0
    return ok


def outcome_matches(ref, got) -> bool:
    """Compare one group's outcome with the seed commit's.

    Outcomes are [rank, c_plaquette, c_winding, k, census_total] or the name
    of the exception that made the group count as skipped.  Besides equality,
    two changes are accepted: a skipped group that is now verified, and a
    census that was unresolved (None) and now resolves to k.  Callers check
    the theorems on every verified group separately.
    """
    if ref == got:
        return True
    if not isinstance(got, list):
        return False
    if isinstance(ref, str):
        return True
    return ref[:4] == got[:4] and ref[4] is None and got[4] == got[3]


# ---------------------------------------------------------------------------
# suites


@dataclass
class ModelResult:
    seed: int
    tri_ok: bool
    outcomes: list                          # group_outcome() or exception name
    reports: list = field(default_factory=list)


@dataclass
class Suite:
    manifold: str
    grid: tuple
    gap_floor: float
    first_seed: int
    warmup: int                 # a cheap model of the suite, run before timing
    count: int = 50
    n_a: int = 4
    cutoff: int = 3

    def setup(self, seed: int, out_dir: Path, only=None) -> dict:
        seeds = [s for s in range(self.first_seed, self.first_seed + self.count)
                 if only is None or s in only]
        random.Random(seed).shuffle(seeds)
        return {
            "grid": phasespace.build_grid(self.manifold, *self.grid),
            "tol": invariants.Tolerances(gap_floor=self.gap_floor),
            "items": seeds,
            "warmup": self.warmup,
        }

    def run_item(self, state: dict, seed: int) -> ModelResult:
        grid, tol = state["grid"], state["tol"]
        h = models.random_tri(self.manifold, self.n_a, cutoff=self.cutoff, seed=seed)
        _, tri_ok = bands.check_tri(h, grid, tol.tri_tol)
        if not tri_ok:
            return ModelResult(seed, False, [])
        spectrum = bands.spectrum_on_grid(h, grid)
        groups = bands.find_gapped_groups(spectrum, tol.gap_floor)
        result = ModelResult(seed, True, [])
        for gid, group in enumerate(groups):
            try:
                rep = invariants.verify_group(h, group, grid, tol, group_id=gid)
            except (GapError, ResolutionError) as exc:
                result.outcomes.append(type(exc).__name__)
                continue
            result.reports.append(rep)
            result.outcomes.append(group_outcome(rep))
        return result

    def run_pass(self, state: dict, on_item) -> list:
        """Run every item once; returns (result, seconds) per item."""
        def item(seed):
            on_item()
            started = perf_counter()
            result = self.run_item(state, seed)
            return result, perf_counter() - started

        return runtime.map_chunks(item, state["items"])

    def check(self, results: list, reference: dict, full: bool) -> tuple[list, dict]:
        """Gate one pass; returns (errors, tally)."""
        errors = []
        torus = self.manifold == "torus"
        tally = {"models": 0, "groups": 0, "km_defined": 0, "skipped_marginal": 0,
                 "found": 0, "census_unresolved": 0}
        max_sym = 0.0
        for res in results:
            ref = reference["models"][str(res.seed)]
            if not res.tri_ok:
                errors.append(f"model {res.seed}: field failed the TRI check")
                continue
            tally["models"] += 1
            tally["found"] += len(res.outcomes)
            if len(ref) != len(res.outcomes) or not all(
                outcome_matches(r, g) for r, g in zip(ref, res.outcomes)
            ):
                errors.append(f"model {res.seed}: outcomes {res.outcomes} != "
                              f"reference {ref}")
            tally["skipped_marginal"] += sum(isinstance(o, str) for o in res.outcomes)
            for rep in res.reports:
                tally["groups"] += 1
                tally["km_defined"] += rep.k is not None
                tally["census_unresolved"] += any(
                    n.startswith("census unresolved") for n in rep.notes)
                max_sym = max(max_sym, rep.residuals.get(
                    "loop_antisymmetry", rep.residuals.get("loop_skewness", 0.0)))
                if not _theorems_hold(rep, torus):
                    errors.append(f"model {res.seed} group {rep.group_id}: "
                                  f"theorem violation {group_outcome(rep)}")
        if max_sym > SYMMETRY_TOL:
            errors.append(f"max symmetry residual {max_sym:.3e} > {SYMMETRY_TOL}")
        if full:
            expected = reference["tally"]
            if tally["models"] != expected["models"]:
                errors.append(f"{tally['models']} models verified, "
                              f"expected {expected['models']}")
            if tally["found"] != expected["groups"] + expected["skipped_marginal"]:
                errors.append(f"{tally['found']} gapped groups found, expected "
                              f"{expected['groups'] + expected['skipped_marginal']}")
            if tally["skipped_marginal"] > expected["skipped_marginal"]:
                errors.append(f"{tally['skipped_marginal']} groups skipped, "
                              f"expected at most {expected['skipped_marginal']}")
            if tally["km_defined"] < MIN_KM_DEFINED:
                errors.append(f"only {tally['km_defined']} groups with KM defined")
        return errors, tally

    def verified(self, tally: dict) -> tuple[int, int]:
        return tally["groups"], tally["found"]


# ---------------------------------------------------------------------------
# zoo

ROTOR_HALF = {"variant": "RotorSpin", "j": 0.5}
ROTOR_3HALF = {"variant": "RotorSpin", "j": 1.5}
KRAMERS = {"variant": "KramersPairSphere", "epsilon": 0.1, "seed": 0}
TORUS_M1 = {"variant": "TorusDoubledChern", "m": 1.0}

# (name, model, (n_lat, n_lon))
ANALYZE = [
    ("rotor-j1_2", ROTOR_HALF, (32, 64)),
    ("rotor-j3_2-p0.1-s11",
     {"variant": "RotorSpin", "j": 1.5, "perturbation_strength": 0.1, "seed": 11},
     (32, 64)),
    ("kramers-e0.1-s0", KRAMERS, (32, 64)),
    ("kramers-e0", {"variant": "KramersPairSphere", "epsilon": 0.0, "seed": 0},
     (32, 64)),
    ("torus-m1", TORUS_M1, (16, 128)),
    ("torus-m1-e0.1-s3",
     {"variant": "TorusDoubledChern", "m": 1.0, "epsilon": 0.1, "seed": 3},
     (16, 128)),
    ("random-sphere-s140", {"variant": "RandomTRI", "manifold": "sphere", "seed": 140},
     (32, 64)),
]

# (name, model, grid, band range, target Chern or None for the measured one);
# each criterion-7 case also runs with the mismatched class c + 2
_GAUGE_CASES = [
    ("rotor-j1_2-0_0", ROTOR_HALF, (32, 64), "0:0", 1),
    ("rotor-j3_2-0_0", ROTOR_3HALF, (32, 64), "0:0", 3),
    ("rotor-j3_2-1_1", ROTOR_3HALF, (32, 64), "1:1", 1),
    ("kramers-0_1", KRAMERS, (32, 128), "0:1", 2),
]
GAUGE = (
    [(n, m, g, r, None) for n, m, g, r, _ in _GAUGE_CASES]
    + [(f"{n}-mismatch", m, g, r, c + 2) for n, m, g, r, c in _GAUGE_CASES]
    + [("torus-m1-0_1", TORUS_M1, (16, 128), "0:1", None)]
)

# (name, model a, model b, steps)
DEFORM = [
    ("same-class", ROTOR_HALF,
     {"variant": "RotorSpin", "j": 0.5, "perturbation_strength": 0.2, "seed": 5}, 11),
    ("opposite-class",
     {"variant": "RandomTRI", "manifold": "sphere", "n_a": 2, "cutoff": 2, "seed": 0},
     {"variant": "RandomTRI", "manifold": "sphere", "n_a": 2, "cutoff": 2, "seed": 6},
     21),
]


@dataclass
class Command:
    name: str
    kind: str
    argv: list
    out: Path
    dump: Path | None = None


@dataclass
class CommandResult:
    name: str
    kind: str
    exit_code: int
    report: dict | None = None
    out_bytes: int = 0
    dump_grid_mismatches: int = 0


def _write_config(path: Path, model: dict, grid: tuple) -> str:
    cfg = {"model": model, "grid": {"n_lat": grid[0], "n_lon": grid[1]},
           "tolerances": {"gap_floor": 0.05}}
    path.write_text(json.dumps(cfg, sort_keys=True))
    return str(path)


def zoo_commands(work: Path) -> list:
    """Write the zoo configs under `work` and return the commands."""
    cfgs = work / "configs"
    cfgs.mkdir(parents=True, exist_ok=True)
    cmds = []
    for name, model, grid in ANALYZE:
        name = f"analyze-{name}"
        out, dump = work / f"{name}.json", work / f"{name}-dump"
        argv = ["analyze", "--config", _write_config(cfgs / f"{name}.json", model, grid),
                "--out", str(out), "--dump", str(dump)]
        cmds.append(Command(name, "analyze", argv, out, dump))
    for name, model, grid, group, target in GAUGE:
        name = f"gauge-demo-{name}"
        out = work / f"{name}.json"
        argv = ["gauge-demo", "--config", _write_config(cfgs / f"{name}.json", model, grid),
                "--group", group, "--out", str(out)]
        if target is not None:
            argv += ["--target-c", str(target)]
        cmds.append(Command(name, "gauge-demo", argv, out))
    for name, model_a, model_b, steps in DEFORM:
        name = f"deform-{name}"
        out = work / f"{name}.json"
        argv = ["deform",
                "--config-a", _write_config(cfgs / f"{name}-a.json", model_a, (16, 32)),
                "--config-b", _write_config(cfgs / f"{name}-b.json", model_b, (16, 32)),
                "--steps", str(steps), "--group", "0:0", "--gap-floor", "1e-3",
                "--out", str(out)]
        cmds.append(Command(name, "deform", argv, out))
    return cmds


def summarize(kind: str, report: dict) -> dict:
    """The parts of a CLI report the gate compares with the reference."""
    if kind == "analyze":
        return {
            "status": report["global"]["status"],
            "groups": [[g["rank"], g["c_plaquette"], g["c_winding"], g["k"],
                        g["census_total"]] for g in report["groups"]],
        }
    if kind == "gauge-demo":
        keys = ("measured_c", "target_c", "obstruction_winding", "extension_success",
                "extendability_winding")
        return {k: report[k] for k in keys if k in report}
    return {"verdict": report["verdict"], "chern": report["chern"]}


def _report_errors(kind: str, report: dict) -> list:
    """Acceptance thresholds that are not integers."""
    errs = []
    if kind == "gauge-demo" and "continuity_residual_pi" in report:
        seam = max(report["continuity_residual_pi"], report["continuity_residual_2pi"])
        if seam > SEAM_TOL:
            errs.append(f"seam residual {seam:.3e} > {SEAM_TOL}")
        if report.get("extension_success") and (
            report["regauged_normal_form_mismatch"] > REGAUGE_TOL
        ):
            errs.append("regauged loop misses the normal form: "
                        f"{report['regauged_normal_form_mismatch']:.3e}")
    if kind == "deform" and report["verdict"] == "GAP-CLOSES":
        lo, hi = report["closing_bracket"]
        if not 0.0 < lo < hi <= 1.0:
            errs.append(f"closing bracket ({lo}, {hi}) outside (0, 1]")
    return errs


def _dump_mismatches(cmd: Command, report: dict) -> int:
    """Groups whose curvature dump covers another grid than the report states."""
    n = 0
    for g in report["groups"]:
        path = cmd.dump / f"curvature_group{g['group_id']}.csv"
        rows = sum(1 for _ in path.open()) - 1
        n += rows != g["grid_n_lat"] * g["grid_n_lon"]
    return n


def _out_bytes(cmd: Command) -> int:
    files = [cmd.out] + (sorted(cmd.dump.iterdir()) if cmd.dump and cmd.dump.exists()
                         else [])
    return sum(p.stat().st_size for p in files if p.exists())


class Zoo:
    def setup(self, seed: int, out_dir: Path, only=None) -> dict:
        cmds = zoo_commands(out_dir / "zoo")
        warmup = cmds[0]
        cmds = [c for c in cmds if only is None or c.name in only]
        random.Random(seed).shuffle(cmds)
        return {"items": cmds, "warmup": warmup}

    def run_item(self, state: dict, cmd: Command) -> int:
        return cli.main(cmd.argv)

    def run_pass(self, state: dict, on_item) -> list:
        """Run every command once; reports are read after the pass."""
        out = []
        for cmd in state["items"]:
            on_item()
            started = perf_counter()
            code = self.run_item(state, cmd)
            out.append((code, perf_counter() - started))
        return [(self.collect(cmd, code), dt)
                for cmd, (code, dt) in zip(state["items"], out)]

    def collect(self, cmd: Command, code: int) -> CommandResult:
        res = CommandResult(cmd.name, cmd.kind, code)
        if cmd.out.exists():
            res.report = json.loads(cmd.out.read_text())
            res.out_bytes = _out_bytes(cmd)
            if cmd.kind == "analyze" and code == 0:
                res.dump_grid_mismatches = _dump_mismatches(cmd, res.report)
            cmd.out.unlink()
        return res

    def check(self, results: list, reference: dict, full: bool) -> tuple[list, dict]:
        errors = []
        tally = {"commands": 0, "ok": 0, "out_bytes": 0, "dump_grid_mismatches": 0,
                 "census_unresolved": 0}
        for res in results:
            ref = reference["commands"][res.name]
            tally["commands"] += 1
            tally["out_bytes"] += res.out_bytes
            tally["dump_grid_mismatches"] += res.dump_grid_mismatches
            errs = []
            if res.exit_code != ref["exit_code"]:
                errs.append(f"exit code {res.exit_code} != {ref['exit_code']}")
            elif res.report is None:
                errs.append("no report written")
            else:
                kind = res.kind
                got = summarize(kind, res.report)
                errs += _report_errors(kind, res.report)
                if kind == "analyze":
                    tally["census_unresolved"] += sum(
                        any(n.startswith("census unresolved") for n in g["notes"])
                        for g in res.report["groups"])
                    same = (got["status"] == ref["summary"]["status"]
                            and len(got["groups"]) == len(ref["summary"]["groups"])
                            and all(outcome_matches(r, g) for r, g in
                                    zip(ref["summary"]["groups"], got["groups"])))
                else:
                    same = got == ref["summary"]
                if not same:
                    errs.append(f"summary {got} != reference {ref['summary']}")
            if errs:
                errors.append(f"{res.name}: " + "; ".join(errs))
            else:
                tally["ok"] += 1
        if full and tally["commands"] != len(reference["commands"]):
            errors.append(f"{tally['commands']} commands run, expected "
                          f"{len(reference['commands'])}")
        return errors, tally

    def verified(self, tally: dict) -> tuple[int, int]:
        return tally["ok"], tally["commands"]


WORKLOADS = {
    "suite-sphere": Suite("sphere", (32, 64), 0.05, 100, warmup=100),
    "suite-torus": Suite("torus", (24, 128), 0.03, 200, warmup=201),
    "zoo": Zoo(),
}
