"""Self-test of the benchmark harness, in well under a minute.

Runs each workload at minimal size, untraced and traced, checks that the
gate passes and that every metric named in BENCHMARK.json is reported, then
checks that the gate rejects a deliberately wrong reference.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys

import run

# a few cheap items per workload, covering a refinement (sphere 140), a
# skipped group (torus 210), the dump grid mismatch and a mismatched class
SMALL = {
    "suite-sphere": [100, 140],
    "suite-torus": [201, 210],
    "zoo": ["analyze-random-sphere-s140", "gauge-demo-rotor-j1_2-0_0-mismatch",
            "deform-same-class"],
}


def corrupt(reference: dict, name: str) -> dict:
    """Shift one recorded Chern number of a SMALL item by two."""
    wrong = copy.deepcopy(reference)
    item = SMALL[name][0]
    if name == "zoo":
        groups = wrong["zoo"]["commands"][item]["summary"]["groups"]
    else:
        groups = wrong[name]["models"][str(item)]
    groups[0][1] += 2
    return wrong


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    reference = run.load_reference()
    failures = []
    for name, only in SMALL.items():
        for trace in (0, 1):
            res = run.run_workload(name, 0, 0, trace, only=only, reference=reference,
                                   probes=1, quiet=True)
            if not res["correct"]:
                failures.append(f"{name} trace {trace}: gate failed on the real reference")
            elif set(res["metrics"]) != names[trace]:
                failures.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(res['metrics']) ^ names[trace])}")
        res = run.run_workload(name, 0, 0, 0, only=only,
                               reference=corrupt(reference, name), probes=1, quiet=True)
        if res["correct"] or res["metrics"]:
            failures.append(f"{name}: gate accepted a wrong reference")
        print(f"selftest: {name} done", flush=True)
    for failure in failures:
        print(f"selftest: FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
