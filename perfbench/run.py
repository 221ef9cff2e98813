"""phasetop benchmark harness.

Runs one workload (or all three) through phasetop's public API from the
source tree next to this directory, checks every output against the
outcomes recorded at the seed commit, and prints its metrics.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload suite-sphere --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With `--trace 0` the metrics are the end-to-end ones: setup time (median of
several fresh-interpreter set-ups), time per pass, items per second,
peak resident memory and the verified share of the work.  With `--trace 1`
the run first measures untraced passes, then installs span wrappers around
every layer's public functions and reports per-layer counts and self times
per traced pass, the traced share of wall time and the tracing overhead.
Spans are written to `.bench_out/`.  A gate failure prints
`"correct": false` with no metrics and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("suite-sphere", "suite-torus", "zoo")
SETUP_PROBES = 3
# a pass starts only while its predicted end stays within this share of --seconds
OVERRUN = 1.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ProgramMissing(Exception):
    pass


def nproc() -> int:
    """Cores this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def isolate_threads() -> None:
    """Cap thread variables at the core count; PHASETOP_THREADS stays unset."""
    os.environ.pop("PHASETOP_THREADS", None)
    cores = nproc()
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        if raw is not None and (not raw.isdigit() or int(raw) > cores):
            os.environ[var] = str(cores)


def import_program():
    """Import phasetop from ROOT/src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "phasetop" / "__init__.py").is_file():
        raise ProgramMissing(f"no phasetop sources under {src}")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import phasetop
    if Path(phasetop.__file__).resolve().parent != src / "phasetop":
        raise ProgramMissing(f"phasetop imported from {phasetop.__file__}")
    import workloads
    return workloads


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def prepare(name: str, seed: int, only=None):
    """Imports, input generation and one untimed warm-up item."""
    workloads = import_program()
    work = OUT / f"{name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed, work, only)
    wl.run_item(state, state["warmup"])
    return wl, state


def setup_times(name: str, seed: int, probes: int) -> list:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    times = []
    for _ in range(probes):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - started)
    return times


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With ten samples or fewer there is no such percentile; the maximum is
    returned with percentile 100.
    """
    xs = sorted(values)
    if not xs:
        return 0.0, 0.0
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(name: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": nproc(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("PHASETOP_THREADS",)},
        "git_commit": git_commit(),
    }


class Passes:
    """Closed-loop passes over a workload with the gate applied to each."""

    def __init__(self, wl, state, reference: dict, full: bool):
        self.wl, self.state, self.reference, self.full = wl, state, reference, full
        self.walls: list = []
        self.items: list = []      # seconds per item, all passes
        self.errors: list = []
        self.tally: dict = {}
        self.on_item = lambda: None

    def run(self, budget: float, started: float) -> list:
        """Run passes while the next one is predicted to end within budget."""
        walls = []
        while True:
            t0 = time.perf_counter()
            results = self.wl.run_pass(self.state, self.on_item)
            walls.append(time.perf_counter() - t0)
            errors, self.tally = self.wl.check([r for r, _ in results],
                                               self.reference, self.full)
            self.errors += errors
            self.items += [dt for _, dt in results]
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(walls) > budget * OVERRUN:
                break
        self.walls += walls
        return walls


def end_to_end(passes: Passes, setups: list) -> dict:
    done, found = passes.wl.verified(passes.tally)
    return {
        "setup_s": (statistics.median(setups), "s"),
        # the body's time per pass: host speed drifts over tens of seconds, so
        # the mean over the whole body is steadier than the median of its passes
        "wall_s": (sum(passes.walls) / len(passes.walls), "s"),
        "items_per_s": (len(passes.items) / sum(passes.walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verified_frac": (done / found, "1"),
    }


def per_layer(s, n_passes: int, traced_walls: list, untraced_walls: list,
              tally: dict) -> dict:
    """Per-layer metrics per traced pass.

    Span counts and self times are averaged over the traced passes; counts
    taken from reports come from the gate's tally of the last pass.
    """
    from tracing import FIELD_EVAL, LAYERS
    m = {}

    def per(x):
        return x / n_passes

    def calls(key, name):
        m[key] = (per(s.calls(name)), "count")

    def self_s(key, *names):
        m[key] = (per(sum(s.self_s(n) for n in names)), "s")

    def timing(prefix, name):
        durations = s.durations(name)
        m[f"{prefix}.p50_s"] = (float(statistics.median(durations)) if durations.size
                                else 0.0, "s")
        m[f"{prefix}.tail_s"] = (tail(durations)[0], "s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per(s.layer_self_s(layer)), "s")

    calls("models.field_eval.calls", FIELD_EVAL)
    m["models.field_eval.points"] = (per(s.counts[(FIELD_EVAL, "points")]), "count")
    self_s("models.field_eval.self_s", FIELD_EVAL)
    calls("models.tri_path.calls", "models.tri_path")
    self_s("models.tri_path.self_s", "models.tri_path")

    calls("numkit.eigh_many.calls", "numkit.eigh_many")
    m["numkit.eigh_many.matrices"] = (per(s.counts[("numkit.eigh_many", "matrices")]),
                                      "count")
    self_s("numkit.eigh_many.self_s", "numkit.eigh_many")
    calls("numkit.polar_unitary.calls", "numkit.polar_unitary")
    self_s("numkit.polar_unitary.self_s", "numkit.polar_unitary")
    calls("numkit.pfaffian.calls", "numkit.pfaffian")
    self_s("numkit.pfaffian.self_s", "numkit.pfaffian")
    calls("numkit.winding_number.calls", "numkit.winding_number")
    m["numkit.winding_number.resolution_errors"] = (
        per(s.errors[("numkit.winding_number", "ResolutionError")]), "count")

    calls("bands.spectrum_on_grid.calls", "bands.spectrum_on_grid")
    groups = s.calls("invariants.verify_group")
    m["bands.spectra_per_group"] = (
        s.calls("bands.spectrum_on_grid") / groups if groups else 0.0, "ratio")
    calls("bands.smooth_frame.calls", "bands.smooth_frame")
    self_s("bands.smooth_frame.self_s", "bands.smooth_frame")
    self_s("bands.check_tri.self_s", "bands.check_tri")
    self_s("bands.transition_loops.self_s", "bands.transition_loop_sphere",
           "bands.transition_loops_torus")
    self_s("bands.frame_residuals.self_s", "bands.frame_residuals")

    calls("invariants.verify_group.calls", "invariants.verify_group")
    timing("invariants.verify_group", "invariants.verify_group")
    for exc in ("GapError", "ResolutionError"):
        m[f"invariants.verify_group.errors.{exc}"] = (
            per(s.errors[("invariants.verify_group", exc)]), "count")
    m["invariants.refinements"] = (per(s.calls("phasespace.refine_grid")), "count")
    m["invariants.domain_rotations"] = (per(s.calls("bands.rotated_field")), "count")
    calls("invariants.chern_plaquette.calls", "invariants.chern_plaquette")
    self_s("invariants.chern_plaquette.self_s", "invariants.chern_plaquette")
    self_s("invariants.m_field.self_s", "invariants.m_field")
    calls("invariants.km_census.calls", "invariants.km_census")
    self_s("invariants.km_census.self_s", "invariants.km_census")
    m["invariants.km_census.unresolved"] = (float(tally["census_unresolved"]), "count")
    census = s.calls("invariants.km_census")
    failed = sum(s.errors[("invariants.km_census", e)]
                 for e in ("ResolutionError", "DegenerateConfigurationError"))
    m["invariants.census_resolved_ratio"] = (
        (census - failed) / census if census else 0.0, "ratio")

    calls("phasespace.build_grid.calls", "phasespace.build_grid")
    self_s("phasespace.build_grid.self_s", "phasespace.build_grid")
    calls("phasespace.fundamental_domain.calls", "phasespace.fundamental_domain")
    self_s("phasespace.fundamental_domain.self_s", "phasespace.fundamental_domain")

    calls("gauge.extend_to_disk.calls", "gauge.extend_to_disk")
    self_s("gauge.extend_to_disk.self_s", "gauge.extend_to_disk")
    m["gauge.extend_to_disk.sweeps"] = (per(s.counts[("gauge.extend_to_disk", "sweeps")]),
                                        "count")
    self_s("gauge.solve_equator_gauge.self_s", "gauge.solve_equator_gauge")
    self_s("gauge.skew_normal_form.self_s", "gauge.skew_normal_form")

    calls("cli.main.calls", "cli.main")
    timing("cli.item", "cli.main")
    m["cli.out_bytes"] = (float(tally.get("out_bytes", 0)), "B")
    m["cli.dump_grid_mismatches"] = (float(tally.get("dump_grid_mismatches", 0)), "count")

    calls("runtime.map_chunks.calls", "runtime.map_chunks")

    m["trace.coverage"] = (s.total_self / sum(traced_walls), "ratio")
    m["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        "ratio")
    return m


def run_workload(name: str, seed: int, seconds: int, trace: int, *, only=None,
                 reference: dict | None = None, probes: int = SETUP_PROBES,
                 quiet: bool = False) -> dict:
    """Set up, measure and gate one workload; returns the result object."""
    def say(line):
        if not quiet:
            print(line, flush=True)

    wl, state = prepare(name, seed, only)
    setups = [] if trace else setup_times(name, seed, probes)
    reference = (reference or load_reference())[name]
    passes = Passes(wl, state, reference, full=only is None)
    prov = provenance(name, seed, seconds, trace)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}-provenance.json").write_text(
        json.dumps(prov, indent=2) + "\n")
    say("provenance: " + json.dumps(prov, sort_keys=True))

    started = time.perf_counter()
    if not trace:
        passes.run(seconds, started)
    else:
        from tracing import SpanSummary, Tracer
        untraced = passes.run(seconds / 2, started)
        tracer = Tracer()

        def on_item():
            tracer.item_id += 1

        passes.on_item = on_item
        tracer.install()
        try:
            traced = passes.run(seconds, started)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"{name}-seed{seed}-spans.npz")

    attempted = len(passes.items)
    if passes.errors:
        for err in passes.errors[:20]:
            print(f"perfbench: {name}: gate: {err}", file=sys.stderr)
        return {"correct": False, "attempted": attempted,
                "failed": len(passes.errors), "metrics": {}}

    say(f"{name}: tally {json.dumps(passes.tally, sort_keys=True)}")
    lat_tail, q = tail(passes.items)
    say(f"{name}: {len(passes.walls)} passes of {len(state['items'])} items; item "
        f"latency p50 {statistics.median(passes.items):.4f} s, p{q:.0f} "
        f"{lat_tail:.4f} s, n = {attempted}")
    if trace:
        metrics = per_layer(SpanSummary(tracer), len(traced), traced, untraced,
                            passes.tally)
    else:
        metrics = end_to_end(passes, setups)
        say(f"{name}: setup_s samples {[round(t, 4) for t in setups]}")
        say(f"{name}: wall_s samples {[round(t, 4) for t in passes.walls]}")
    for key, (value, unit) in metrics.items():
        say(f"{name}: {key} = {value:.6g} {unit}")
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in a fresh process; a table of every metric."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        results[name] = result
        if proc.returncode != 0 or not result or not result["correct"]:
            status = 1
    for name, result in results.items():
        if not result or not result["correct"]:
            print(f"{name:13s} FAILED")
            continue
        for key, metric in result["metrics"].items():
            print(f"{name:13s} {key:42s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    isolate_threads()
    try:
        if args.setup_probe:
            prepare(args.workload, args.seed)
            print(time.monotonic())
            return 0
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
