"""Golden CLI reports: run the recorded commands and compare their reports.

Each file under tests/golden/ holds one CLI command and what it gave when it
was recorded: the argv (with "{config}", "{out}" and "{dump}" standing for
paths in a fresh directory), the configs it reads, the exit code, the report
body without its "timing" key, and, for a command with --dump, the census
tables of the dump (the float tables are left out).

Integers, booleans, strings, null and notes must match exactly; a float may
move by at most FLOAT_TOL * max(1, |golden value|).  The comparer prints the
largest move of every float key that moved, with list indices folded.

    PYTHONPATH=src python tests/golden_reports.py           # compare; exit 1 on a mismatch
    PYTHONPATH=src python tests/golden_reports.py --record NAME ...
        # re-record the named files (NAME is a file stem, e.g. analyze-torus-m1)

A change that moves a golden value by design re-records only the files it
moves and quotes the comparer's output; re-recording the rest would absorb
their rounding moves unseen.  A bare --record, or an unknown name, exits 2.
The golden files are test data: never re-record them to hide a defect.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from phasetop import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FLOAT_TOL = 1e-9


def run_command(golden: dict, work: Path) -> dict:
    """Run a golden file's command in `work` and return what the file records."""
    work.mkdir(parents=True, exist_ok=True)
    paths = {"out": work / "report.json", "dump": work / "dump"}
    for name, cfg in golden["configs"].items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(cfg, sort_keys=True))
    argv = [arg.format(**{k: str(p) for k, p in paths.items()}) for arg in golden["argv"]]
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report = json.loads(paths["out"].read_text()) if paths["out"].exists() else None
    if report is not None:
        report.pop("timing", None)
    census = {}
    for table in sorted(paths["dump"].glob("census_group*.csv")):
        rows = table.read_text().splitlines()[1:]
        census[table.stem] = [[int(x) for x in row.split(",")] for row in rows]
    return {"argv": golden["argv"], "configs": golden["configs"], "exit_code": code,
            "report": report, "census": census}


def compare(golden, got, path: str, moves: dict) -> list:
    """Mismatches between two JSON values at key `path`; float moves go into
    `moves` as key -> largest move, with list indices folded to []."""
    if isinstance(golden, float) and isinstance(got, float):
        move = 0.0 if golden == got or (golden != golden and got != got) else abs(got - golden)
        moves[path] = max(moves.get(path, 0.0), move)
        if not move <= FLOAT_TOL * max(1.0, abs(golden)):
            return [f"{path}: {golden!r} -> {got!r}"]
        return []
    if type(golden) is not type(got):
        return [f"{path}: {golden!r} -> {got!r}"]
    if isinstance(golden, dict):
        if golden.keys() != got.keys():
            return [f"{path}: keys {sorted(golden)} -> {sorted(got)}"]
        return [err for key in golden
                for err in compare(golden[key], got[key], f"{path}.{key}".lstrip("."), moves)]
    if isinstance(golden, list):
        if len(golden) != len(got):
            return [f"{path}: {len(golden)} entries -> {len(got)}"]
        return [err for a, b in zip(golden, got) for err in compare(a, b, f"{path}[]", moves)]
    return [] if golden == got else [f"{path}: {golden!r} -> {got!r}"]


def check_all(work: Path, out=sys.stdout) -> list:
    """Run and compare every golden file; print the moves and return the mismatches."""
    errors, moves = [], {}
    files = sorted(GOLDEN_DIR.glob("*.json"))
    for file in files:
        golden = json.loads(file.read_text())
        file_moves = {}
        errors += [f"{file.stem}: {err}" for err in
                   compare(golden, run_command(golden, work / file.stem), "", file_moves)]
        for key, move in file_moves.items():
            if key not in moves or move > moves[key][0]:
                moves[key] = (move, file.stem)
    moved = {key: m for key, m in moves.items() if m[0] > 0.0}
    for key in sorted(moved):
        move, where = moved[key]
        print(f"{key:48s} {move:.3e}  {where}", file=out)
    print(f"{len(files)} reports, {len(moves)} float keys, {len(moved)} moved, "
          f"{len(errors)} mismatches", file=out)
    for err in errors:
        print(f"MISMATCH {err}", file=out)
    return errors


def record(names, work: Path) -> None:
    for name in names:
        file = GOLDEN_DIR / f"{name}.json"
        fresh = run_command(json.loads(file.read_text()), work / name)
        file.write_text(json.dumps(fresh, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", nargs="+", metavar="NAME",
                        help="re-record the named golden files from the current tree")
    args = parser.parse_args(argv)
    known = {file.stem for file in GOLDEN_DIR.glob("*.json")}
    unknown = sorted(set(args.record or ()) - known)
    if unknown:
        parser.error(f"no golden file named {', '.join(unknown)}; "
                     f"expected one of {', '.join(sorted(known))}")
    with tempfile.TemporaryDirectory() as tmp:
        if args.record:
            record(args.record, Path(tmp))
            return 0
        return 1 if check_all(Path(tmp)) else 0


if __name__ == "__main__":
    sys.exit(main())
