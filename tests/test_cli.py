import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import phasetop
from phasetop import bands, cli, invariants, models, phasespace
from phasetop.errors import GapError, ResolutionError
from phasetop.invariants import Tolerances
from phasetop.phasespace import Manifold, build_grid
from test_invariants import THEOREM_CHECKS, theorem_report

# the report layout that analyze writes
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "artifact", "config", "groups", "global"],
    "properties": {
        "schema_version": {"type": "integer"},
        "artifact": {
            "type": "object",
            "required": ["name", "version"],
            "properties": {
                "name": {"type": "string"},
                "version": {"type": "string"},
            },
        },
        "config": {"type": "object"},
        "groups": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "group_id", "first_band", "last_band", "rank", "min_gap",
                    "c_plaquette", "c_winding", "consistent", "parity_ok",
                    "residuals", "grid_n_lat", "grid_n_lon",
                ],
                "properties": {
                    "group_id": {"type": "integer"},
                    "first_band": {"type": "integer"},
                    "last_band": {"type": "integer"},
                    "rank": {"type": "integer"},
                    "min_gap": {"type": ["number", "null"]},
                    "c_plaquette": {"type": "integer"},
                    "c_winding": {"type": "integer"},
                    "consistent": {"type": "boolean"},
                    "parity_ok": {"type": "boolean"},
                    "k": {"type": ["integer", "null"]},
                    "km_relation_ok": {"type": ["boolean", "null"]},
                    "census_total": {"type": ["integer", "null"]},
                    "census_ok": {"type": ["boolean", "null"]},
                    "census_same_sign": {"type": ["boolean", "null"]},
                    "kramers_residual": {"type": ["number", "null"]},
                    "curvature_evenness": {"type": ["number", "null"]},
                    "evenness_ok": {"type": ["boolean", "null"]},
                    "residuals": {"type": "object"},
                    "notes": {"type": "array"},
                },
            },
        },
        "global": {
            "type": "object",
            "required": ["status", "tri_residual", "chern_sum", "sum_rule_ok"],
        },
        "timing": {"type": "object"},
    },
}



def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ROTOR = {
    "model": {"variant": "RotorSpin", "j": 0.5, "perturbation_strength": 0.0,
              "seed": 11},
    "grid": {"n_lat": 16, "n_lon": 32},
    "tolerances": {"gap_floor": 0.05},
}


def run(argv):
    return cli.main(argv)


def test_analyze_rotor_report(tmp_path):
    cfg = write_config(tmp_path, "rotor.json", ROTOR)
    out = tmp_path / "report.json"
    assert run(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["schema_version"] == 1
    assert rep["global"]["status"] == "ok"
    assert rep["global"]["sum_rule_ok"] is True
    cs = sorted(g["c_plaquette"] for g in rep["groups"])
    assert cs == [-1, 1]
    assert all(g["parity_ok"] for g in rep["groups"])
    assert all(g["consistent"] for g in rep["groups"])


def test_analyze_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "rotor.json", ROTOR)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["analyze", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["analyze", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


KRAMERS_16X32 = {
    "model": {"variant": "KramersPairSphere", "epsilon": 0.1, "seed": 0},
    "grid": {"n_lat": 16, "n_lon": 32},
    "tolerances": {"gap_floor": 0.05},
}


def test_analyze_dumps_tables(tmp_path):
    cfg = write_config(tmp_path, "kp.json", KRAMERS_16X32)
    dump = tmp_path / "dumps"
    assert run(["analyze", "--config", cfg, "--out", str(tmp_path / "o.json"),
                "--dump", str(dump)]) == 0
    curv = (dump / "curvature_group0.csv").read_text().splitlines()
    assert curv[0] == "lat_index,lon_index,flux"
    assert len(curv) == 1 + 16 * 32
    lat, lon, flux = curv[1].split(",")
    assert lat == "0" and lon == "0" and isinstance(float(flux), float)
    pf = (dump / "pf_abs_group0.csv").read_text().splitlines()
    assert pf[0] == "lat_index,lon_index,abs_pf"
    assert 0.0 < float(pf[1].split(",")[2]) <= 1.0
    # one row per fundamental-domain vertex, 1 + 8 * 32 of them, each the
    # modulus of the pf M that analyze_model returns
    assert len(pf) == 1 + 257
    _, _, results = invariants.analyze_model(models.build(KRAMERS_16X32["model"]),
                                             build_grid(Manifold.SPHERE, 16, 32),
                                             Tolerances(gap_floor=0.05))
    want = results[0][1].pf
    pf_abs = np.hypot(want.real, want.imag).tolist()
    assert [row.split(",")[2] for row in pf[1:]] == [repr(x) for x in pf_abs]
    census = (dump / "census_group0.csv").read_text().splitlines()
    assert census[0] == "plaquette,index"
    assert len(census) == 2  # a single indexed zero for this model


def test_analyze_dump_writes_no_table_for_an_undefined_census(tmp_path):
    # TorusDoubledChern m=1 has a zero of pf M on vertex 512, so both groups
    # report k = -1 and 1 with census_total null: a header-only census table
    # would read as "resolved, no zeros"
    cfg = write_config(
        tmp_path, "torus-m1.json",
        {
            "model": {"variant": "TorusDoubledChern", "m": 1.0},
            "grid": {"n_lat": 16, "n_lon": 128},
            "tolerances": {"gap_floor": 0.05},
        },
    )
    out, dump = tmp_path / "o.json", tmp_path / "dumps"
    assert run(["analyze", "--config", cfg, "--out", str(out),
                "--dump", str(dump)]) == 0
    groups = json.loads(out.read_text())["groups"]
    assert sorted(g["k"] for g in groups) == [-1, 1]
    note = ("census undefined: |pf M| < 1e-12 at 1 of 1152 domain vertices, the first "
            "vertex 512 at (0.0000, 1.5708); the census cannot place a zero that sits "
            "on a vertex")
    for g in groups:
        assert g["census_total"] is None and g["notes"] == [note]
        assert (dump / f"pf_abs_group{g['group_id']}.csv").exists()
    assert list(dump.glob("census_group*.csv")) == []


def test_analyze_dump_covers_refined_grid(tmp_path):
    # this model's equator winding is under-resolved at 32x64, so its groups
    # are verified on the refined 32x128 grid; the dumps must cover that grid
    cfg = write_config(
        tmp_path, "s140.json",
        {
            "model": {"variant": "RandomTRI", "manifold": "sphere", "seed": 140},
            "grid": {"n_lat": 32, "n_lon": 64},
            "tolerances": {"gap_floor": 0.05},
        },
    )
    out, dump = tmp_path / "o.json", tmp_path / "dumps"
    assert run(["analyze", "--config", cfg, "--out", str(out),
                "--dump", str(dump)]) == 0
    groups = json.loads(out.read_text())["groups"]
    assert any(g["refinements"] for g in groups)
    for g in groups:
        curv = (dump / f"curvature_group{g['group_id']}.csv").read_text().splitlines()
        assert len(curv) == 1 + g["grid_n_lat"] * g["grid_n_lon"]


def test_broken_control_exits_3_with_record(tmp_path):
    cfg = write_config(
        tmp_path, "broken.json",
        {
            "model": {
                "variant": "TRIBrokenControl",
                "base": {"variant": "RotorSpin", "j": 0.5, "seed": 3},
                "breaking_strength": 0.5,
            },
            "grid": {"n_lat": 16, "n_lon": 32},
        },
    )
    out = tmp_path / "rep.json"
    assert run(["analyze", "--config", cfg, "--out", str(out)]) == 3
    rep = json.loads(out.read_text())
    assert rep["global"]["status"] == "tri-violation"
    assert rep["global"]["tri_residual"] > 0.2
    assert rep["groups"] == []


def test_numerical_failure_exits_3_with_record(tmp_path, capsys):
    # both of torus seed 211's groups fail a det U loop step on 24x128 and
    # 24x256 and meet a gap below the floor on 48x256: analyze writes the
    # first failure and no group
    cfg = write_config(tmp_path, "s211.json", {
        "model": {"variant": "RandomTRI", "manifold": "torus", "seed": 211},
        "grid": {"n_lat": 24, "n_lon": 128},
        "tolerances": {"gap_floor": 0.03},
    })
    out = tmp_path / "rep.json"
    assert run(["analyze", "--config", cfg, "--out", str(out)]) == 3
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, REPORT_SCHEMA)
    error = "bands [0, 1] are not gapped: min boundary gap 5.775e-03 <= floor 0.03"
    assert rep["global"]["status"] == "numerical-failure"
    assert rep["global"]["error"] == error
    assert rep["global"]["tri_residual"] <= 1e-9
    assert rep["global"]["chern_sum"] is None and rep["global"]["sum_rule_ok"] is None
    assert rep["groups"] == []
    assert capsys.readouterr().err == f"phasetop: error: {error}\n"


def test_config_errors_exit_2(tmp_path):
    bad = write_config(tmp_path, "bad.json", {"model": {"variant": "Nope"}})
    assert run(["analyze", "--config", bad]) == 2
    odd = write_config(tmp_path, "odd.json",
                       {"model": ROTOR["model"], "grid": {"n_lat": 9}})
    assert run(["analyze", "--config", odd]) == 2
    missing = str(tmp_path / "missing.json")
    assert run(["analyze", "--config", missing]) == 2
    assert run(["random-suite", "--count", "0", "--manifold", "sphere"]) == 2


def test_unknown_outputs_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, "outputs.json", {**ROTOR, "outputs": {}})
    assert run(["analyze", "--config", cfg]) == 2


def test_top_level_seed_is_an_unknown_key(tmp_path, capsys):
    # the model's own seed decides a run, so a top-level seed is refused, and
    # analyze --seed sets model.seed alone
    cfg = write_config(tmp_path, "seeded.json", {**ROTOR, "seed": 7})
    assert run(["analyze", "--config", cfg]) == 2
    assert capsys.readouterr().err == "phasetop: error: unknown config keys: ['seed']\n"
    out = tmp_path / "r.json"
    assert run(["analyze", "--config", write_config(tmp_path, "r.json", ROTOR),
                "--seed", "3", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert sorted(config) == ["grid", "model", "tolerances"]
    assert config["model"]["seed"] == 3


@pytest.mark.parametrize("key,value", [
    ("tri_tol", 3e-8), ("gap_floor", 0.07), ("zero_floor", 2e-3), ("evenness_rel", 5e-5),
])
def test_config_tolerance_reaches_pipeline(tmp_path, monkeypatch, key, value):
    seen = []

    def spy(h_field, grid, tol):
        seen.append(tol)
        return 0.0, [], []

    monkeypatch.setattr(cli, "analyze_model", spy)
    cfg = write_config(tmp_path, "tol.json", {**ROTOR, "tolerances": {key: value}})
    assert run(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert seen == [Tolerances(**{key: value})]
    assert getattr(seen[0], key) == value != getattr(Tolerances(), key)


@pytest.mark.parametrize("key", ["flux_cap", "max_grid_refinements"])
def test_fixed_cutoff_in_config_exits_2(tmp_path, capsys, key):
    cfg = write_config(tmp_path, "tol.json", {**ROTOR, "tolerances": {key: 1}})
    assert run(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("phasetop: error: unknown tolerance keys") and key in err
    assert err.count("\n") == 1


def test_timing_only_on_request(tmp_path):
    cfg = write_config(tmp_path, "rotor.json", ROTOR)
    out = tmp_path / "rep.json"
    run(["analyze", "--config", cfg, "--out", str(out)])
    assert "timing" not in json.loads(out.read_text())
    run(["analyze", "--config", cfg, "--out", str(out), "--timing"])
    assert "timing" in json.loads(out.read_text())


def test_random_suite_small(tmp_path):
    out = tmp_path / "suite.json"
    code = run(["random-suite", "--count", "3", "--manifold", "sphere",
                "--n-a", "4", "--seed", "100", "--gap-floor", "0.05",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["tally"]["models"] == 3
    assert rep["violations"] == []
    assert rep["tally"]["parity_ok"] == rep["tally"]["groups"]


def test_deform_constant_class(tmp_path):
    cfg_a = write_config(tmp_path, "a.json", ROTOR)
    cfg_b = write_config(
        tmp_path, "b.json",
        {
            "model": {"variant": "RotorSpin", "j": 0.5,
                      "perturbation_strength": 0.2, "seed": 5},
            "grid": {"n_lat": 16, "n_lon": 32},
        },
    )
    out = tmp_path / "path.json"
    assert run(["deform", "--config-a", cfg_a, "--config-b", cfg_b,
                "--steps", "7", "--group", "0:0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "GAPPED-CONSTANT-C"
    assert rep["chern"] == 1
    assert all(s["c"] == 1 for s in rep["samples"])


@pytest.mark.parametrize("config_floor, flag, used", [
    (0.2, None, 0.2), (0.2, "0.01", 0.01), (None, None, 1e-3),
])
def test_deform_takes_the_gap_floor_from_config_a(tmp_path, monkeypatch, config_floor,
                                                  flag, used):
    # a given --gap-floor wins, then config_a's tolerances.gap_floor (config_b's
    # is validated and not read), then 1e-3; the report names the floor used
    seen = []
    real = cli.tri_path

    def spy(*args, gap_floor, **kwargs):
        seen.append(gap_floor)
        return real(*args, gap_floor=gap_floor, **kwargs)

    monkeypatch.setattr(cli, "tri_path", spy)
    tolerances = {} if config_floor is None else {"gap_floor": config_floor}
    cfg_a = write_config(tmp_path, "a.json", {**ROTOR, "tolerances": tolerances})
    cfg_b = write_config(tmp_path, "b.json", {**ROTOR, "tolerances": {"gap_floor": 0.4}})
    out = tmp_path / "path.json"
    argv = ["deform", "--config-a", cfg_a, "--config-b", cfg_b, "--steps", "3",
            "--out", str(out)] + (["--gap-floor", flag] if flag else [])
    assert run(argv) == 0
    assert seen == [used]
    assert json.loads(out.read_text())["config"]["gap_floor"] == used



def strict_json(text):
    """json.loads that refuses the non-standard constants NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_reports_are_strict_json(tmp_path):
    # a band range that holds every band has no bounding gap: its min_gap is
    # null, and every other range's is a number
    seed_201 = write_config(tmp_path, "s201.json", {
        "model": {"variant": "RandomTRI", "manifold": "torus", "seed": 201},
        "grid": {"n_lat": 24, "n_lon": 128}, "tolerances": {"gap_floor": 0.03}})
    rotor = write_config(tmp_path, "rotor.json", ROTOR)
    perturbed = write_config(tmp_path, "perturbed.json", {
        **ROTOR, "model": {**ROTOR["model"], "perturbation_strength": 0.2, "seed": 5}})
    whole = []
    for name, cfg, n_a in (("s201", seed_201, 4), ("rotor", rotor, 2)):
        out = tmp_path / f"{name}-report.json"
        assert run(["analyze", "--config", cfg, "--out", str(out)]) == 0
        rep = strict_json(out.read_text())
        jsonschema.validate(rep, REPORT_SCHEMA)
        for g in rep["groups"]:
            whole.append(g["first_band"] == 1 and g["last_band"] == n_a)
            assert (g["min_gap"] is None) == whole[-1], (name, g)
    for group in ("0:1", "0:0"):
        out = tmp_path / f"deform-{group[-1]}.json"
        assert run(["deform", "--config-a", rotor, "--config-b", perturbed, "--steps", "3",
                    "--group", group, "--out", str(out)]) == 0
        samples = strict_json(out.read_text())["samples"]
        whole.append(group == "0:1")
        assert len(samples) == 3
        assert all((s["min_gap"] is None) == whole[-1] for s in samples), (group, samples)
    assert whole.count(True) == 2 and whole.count(False) == 3

def test_gauge_demo_success_and_expected_failure(tmp_path):
    cfg = write_config(tmp_path, "rotor.json", ROTOR)
    out = tmp_path / "g.json"
    assert run(["gauge-demo", "--config", cfg, "--group", "0:0",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["obstruction_winding"] == 0
    assert rep["extension_success"] is True
    assert rep["regauged_normal_form_mismatch"] <= 1e-6
    assert rep["continuity_residual_pi"] <= 1e-8
    assert rep["continuity_residual_2pi"] <= 1e-8

    assert run(["gauge-demo", "--config", cfg, "--group", "0:0",
                "--target-c", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["obstruction_winding"] == 1
    assert rep["extension_success"] is False
    assert rep["expected_failure"] is True


def test_gauge_demo_kramers_extends_from_harmonic_start(tmp_path):
    # criterion 7's rank-2 case: the harmonic profile meets the step target
    # as it stands, so the report names it and counts no sweeps
    cfg = write_config(
        tmp_path, "kp.json",
        {
            "model": {"variant": "KramersPairSphere", "epsilon": 0.1, "seed": 0},
            "grid": {"n_lat": 32, "n_lon": 128},
        },
    )
    out = tmp_path / "g.json"
    assert run(["gauge-demo", "--config", cfg, "--group", "0:1",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["extension_success"] is True
    assert rep["extension_start"] == "harmonic"
    assert rep["extension_sweeps"] == 0
    assert rep["regauged_normal_form_mismatch"] <= 1e-6


def test_gauge_demo_torus_skew(tmp_path):
    cfg = write_config(
        tmp_path, "torus.json",
        {
            "model": {"variant": "TorusDoubledChern", "m": 1.0, "epsilon": 0.0,
                      "seed": 2},
            "grid": {"n_lat": 16, "n_lon": 128},
        },
    )
    out = tmp_path / "g.json"
    assert run(["gauge-demo", "--config", cfg, "--group", "0:1",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["measured_c"]) == 2
    assert rep["congruence_residual"] <= 1e-8
    assert rep["extendability_winding"] == 0


@pytest.mark.parametrize("manifold, seed, group, grid, gap_floor, code", [
    ("sphere", 502, "0:2", "32x64", "0.05", 0),   # rank 3, c = 1
    ("torus", 501, "2:5", "24x128", "0.03", 0),   # rank 4, c = -4
    ("sphere", 505, "3:5", "32x64", "0.05", 3),   # rank 3, c = 1, no extension
])
def test_gauge_demo_on_six_band_groups(tmp_path, capsys, manifold, seed, group, grid,
                                       gap_floor, code):
    # odd-rank sphere and rank-4 torus groups of six-band RandomTRI models,
    # held to criterion 7's bounds; the seed-505 group's boundary gauge keeps
    # a kink of about 2 rad that no start smooths, and the failed extension
    # still writes its report
    cfg = write_config(tmp_path, "r.json", {"model": {
        "variant": "RandomTRI", "manifold": manifold, "n_a": 6, "cutoff": 1,
        "seed": seed}})
    out = tmp_path / "g.json"
    assert run(["gauge-demo", "--config", cfg, "--group", group, "--grid", grid,
                "--gap-floor", gap_floor, "--out", str(out)]) == code
    rep = json.loads(out.read_text())
    if manifold == "torus":
        assert rep["measured_c"] == -4 and rep["extendability_winding"] == 0
        assert rep["congruence_residual"] <= 1e-8
        return
    assert rep["measured_c"] == 1 and rep["obstruction_winding"] == 0
    assert rep["continuity_residual_pi"] <= 1e-8
    assert rep["continuity_residual_2pi"] <= 1e-8
    if code == 0:
        assert rep["extension_success"] is True
        assert rep["regauged_normal_form_mismatch"] <= 1e-6
    else:
        assert rep["extension_success"] is False and rep["expected_failure"] is False
        assert rep["reason"].startswith("smoothing did not reach step target")
        assert capsys.readouterr().err == f"phasetop: error: {rep['reason']}\n"


def test_gauge_demo_reads_the_config_tolerances(tmp_path, monkeypatch):
    # the config's tolerances reach the group's verification, --gap-floor
    # sets gap_floor over the config's, and a zero floor above every |pf M|
    # leaves k undefined with the note analyze writes
    model = {"variant": "KramersPairSphere", "epsilon": 0.1, "seed": 0}
    grid = {"n_lat": 32, "n_lon": 128}
    out = tmp_path / "g.json"
    groups = []
    for tolerances in ({}, {"zero_floor": 10}):
        cfg = write_config(tmp_path, "kp.json", {"model": model, "grid": grid,
                                                 "tolerances": tolerances})
        assert run(["gauge-demo", "--config", cfg, "--group", "0:1", "--out", str(out)]) == 0
        groups.append(json.loads(out.read_text())["group"])
    assert groups[0]["k"] == 1
    assert groups[1]["k"] is None and groups[1]["km_relation_ok"] is None
    assert groups[1]["notes"][0].startswith("KM index undefined: ")
    assert "zero floor 10 at boundary vertex" in groups[1]["notes"][0]

    seen = []
    real = cli.verify_group_fields

    def spy(h_field, band_range, grid, tol):
        seen.append(tol)
        return real(h_field, band_range, grid, tol)

    monkeypatch.setattr(cli, "verify_group_fields", spy)
    cfg = write_config(tmp_path, "rotor.json",
                       {**ROTOR, "tolerances": {"gap_floor": 0.3, "zero_floor": 2e-3}})
    assert run(["gauge-demo", "--config", cfg, "--group", "0:0", "--gap-floor", "0.07",
                "--out", str(out)]) == 0
    # without --gap-floor the config's gap_floor holds, and 0.05 when it has none
    assert run(["gauge-demo", "--config", cfg, "--group", "0:0", "--out", str(out)]) == 0
    cfg = write_config(tmp_path, "rotor.json", {**ROTOR, "tolerances": {}})
    assert run(["gauge-demo", "--config", cfg, "--group", "0:0", "--out", str(out)]) == 0
    assert seen == [Tolerances(gap_floor=0.07, zero_floor=2e-3),
                    Tolerances(gap_floor=0.3, zero_floor=2e-3), Tolerances(gap_floor=0.05)]


def test_gauge_demo_takes_the_n_lon_rung(tmp_path):
    # sphere seed 140's group 0:2 has a boundary-loop phase step of 1.69 rad
    # on 32x64, so its group settles on 32x128 and the gauge is built there;
    # the report keeps the requested grid in config and names the rung
    cfg = write_config(tmp_path, "s140.json", {
        "model": {"variant": "RandomTRI", "manifold": "sphere", "seed": 140},
        "grid": {"n_lat": 32, "n_lon": 64}})
    out = tmp_path / "g.json"
    run(["gauge-demo", "--config", cfg, "--group", "0:2", "--out", str(out)])
    rep = json.loads(out.read_text())
    group = rep["group"]
    assert (group["grid_n_lat"], group["grid_n_lon"], group["refinements"]) == (32, 128, 1)
    assert group["notes"][0].startswith("refined to 32x128: phase step")
    assert rep["measured_c"] == group["c_plaquette"] == group["c_winding"] == -3
    assert rep["obstruction_winding"] == 0 and rep["violations"] == []
    assert rep["config"]["grid"] == {"n_lat": 32, "n_lon": 64}


@pytest.mark.parametrize("model, grid", [
    ({"variant": "KramersPairSphere", "epsilon": 0.1, "seed": 0}, {"n_lat": 32, "n_lon": 128}),
    ({"variant": "TorusDoubledChern", "m": 1.0}, {"n_lat": 16, "n_lon": 128}),
])
def test_gauge_demo_group_matches_analyze_model(tmp_path, model, grid):
    # gauge-demo and analyze verify a group through one pipeline, so the
    # group block agrees with analyze_model's report of that range
    cfg = write_config(tmp_path, "c.json", {"model": model, "grid": grid,
                                            "tolerances": {"gap_floor": 0.05}})
    out = tmp_path / "g.json"
    assert run(["gauge-demo", "--config", cfg, "--group", "0:1", "--out", str(out)]) == 0
    block = json.loads(out.read_text())["group"]
    h = models.build(model)
    _, _, results = invariants.analyze_model(h, build_grid(h.manifold, **grid),
                                             Tolerances(gap_floor=0.05))
    (oracle,) = [json.loads(json.dumps(rep.to_dict())) for rep, _ in results
                 if (rep.first_band, rep.last_band) == (1, 2)]
    del block["group_id"], oracle["group_id"]
    assert block == oracle


def test_map_chunks_is_an_ordered_map():
    from phasetop import runtime

    assert runtime.map_chunks(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]


def test_random_suite_tally_matches_analyze_model(tmp_path):
    out = tmp_path / "suite.json"
    run(["random-suite", "--manifold", "torus", "--seed", "209", "--count", "2",
         "--grid", "24x128", "--gap-floor", "0.03", "--out", str(out)])
    tally = json.loads(out.read_text())["tally"]
    grid = build_grid(Manifold.TORUS, 24, 128)
    tol = Tolerances(gap_floor=0.03)
    results = []
    for seed in (209, 210):
        h = models.random_tri("torus", 4, seed=seed)
        results += invariants.analyze_model(h, grid, tol)[2]
    reports = [r[0] for r in results if not isinstance(r, Exception)]
    skipped = [r for r in results if isinstance(r, (GapError, ResolutionError))]
    assert len(reports) + len(skipped) == len(results)
    assert tally["models"] == 2
    assert tally["skipped_marginal"] == len(skipped) == 2
    assert tally["groups"] == len(reports)
    assert tally["consistent"] == sum(r.consistent for r in reports)
    assert tally["km_defined"] == sum(r.k is not None for r in reports)
    assert tally["census_defined"] == sum(r.census_total is not None for r in reports)
    assert tally["full_bundle_groups"] == sum(r.rank == 4 for r in reports)
    assert tally["skipped_by_cause"] == {
        "GapError": sum(isinstance(r, GapError) for r in skipped),
        "ResolutionError": sum(isinstance(r, ResolutionError) for r in skipped),
    }


@pytest.mark.parametrize("command", ["deform", "gauge-demo"])
@pytest.mark.parametrize("group", ["0", "x:1", "1:0", "0:5"])
def test_bad_group_exits_2(tmp_path, capsys, command, group):
    cfg = write_config(tmp_path, "rotor.json", ROTOR)  # two bands
    argv = (["deform", "--config-a", cfg, "--config-b", cfg] if command == "deform"
            else ["gauge-demo", "--config", cfg])
    assert run(argv + ["--group", group]) == 2
    err = capsys.readouterr().err
    assert err.startswith("phasetop: error: --group") and err.count("\n") == 1


@pytest.mark.parametrize("steps", ["1", "0", "-1"])
def test_deform_too_few_steps_exits_2(tmp_path, capsys, steps):
    cfg = write_config(tmp_path, "rotor.json", ROTOR)
    assert run(["deform", "--config-a", cfg, "--config-b", cfg, "--steps", steps]) == 2
    err = capsys.readouterr().err
    assert err.startswith("phasetop: error: steps must be") and err.count("\n") == 1


@pytest.mark.parametrize("case", [
    {"variant": "RandomTRI", "manifold": "sphere", "cutoff": -1},
    {"variant": "RandomTRI", "manifold": "sphere", "cutoff": 2.5},
    {"variant": "RandomTRI", "manifold": "plane"},
    {"variant": "RandomTRI", "manifold": "torus", "n_a": "x"},
    {"variant": "RotorSpin", "j": "x"},
    {"variant": "RotorSpin", "j": float("inf")},
    ["random-suite", "--count", "1", "--manifold", "sphere", "--cutoff", "-1"],
    # wrongly typed parameters
    {"variant": "KramersPairSphere", "epsilon": "x"},
    {"variant": "TorusDoubledChern", "m": "x"},
    {"variant": "RotorSpin", "j": 0.5, "perturbation_strength": 0.1, "seed": "x"},
    {"variant": "TRIBrokenControl", "base": {"variant": "RotorSpin", "j": 0.5},
     "seed": "x"},
    {"variant": "KramersPairSphere", "epsilon": True},
    # a negative seed, in a model spec, on analyze and on random-suite
    {"variant": "RandomTRI", "manifold": "torus", "seed": -1},
    {"variant": "TRIBrokenControl", "base": {"variant": "RotorSpin", "j": 0.5,
                                             "seed": -1}},
    ["analyze", "--config", "ROTOR", "--seed", "-2"],
    ["random-suite", "--count", "1", "--manifold", "sphere", "--seed", "-3"],
])
def test_malformed_model_parameters_exit_2(tmp_path, capsys, case):
    # analyze builds the model of a config; random-suite builds RandomTRI itself
    argv = [write_config(tmp_path, "r.json", ROTOR) if arg == "ROTOR" else arg
            for arg in case] if isinstance(case, list) else [
        "analyze", "--config", write_config(tmp_path, "m.json", {"model": case})]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("phasetop: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("model", [
    {"variant": "KramersPairSphere", "epsilon": float("nan")},
    {"variant": "TorusDoubledChern", "m": float("nan")},
    {"variant": "RandomTRI", "manifold": "torus", "scale": float("inf")},
    {"variant": "RotorSpin", "j": 0.5, "perturbation_strength": float("inf")},
    # integers that no float holds
    {"variant": "KramersPairSphere", "epsilon": 10 ** 400},
    {"variant": "RandomTRI", "manifold": "torus", "scale": 10 ** 400},
    {"variant": "RotorSpin", "j": 10 ** 400},
])
def test_non_finite_model_parameters_exit_2(tmp_path, capsys, model):
    # a NaN epsilon would run unperturbed (NaN > 0 is false) and write a NaN
    # into the report; the other non-finite floats would fail the TRI check
    # with a NaN residual, and an integer too large for a float would crash
    # the builder with an OverflowError
    cfg = write_config(tmp_path, "m.json", {"model": model, "grid": {"n_lat": 16, "n_lon": 32}})
    out = tmp_path / "report.json"
    assert run(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("phasetop: error: ") and "must be finite" in err


@pytest.mark.parametrize("j", [1, True, "x", 0.75])
def test_rotor_spin_without_half_integer_j_exits_2(tmp_path, capsys, j):
    # fermionic time reversal needs half-integer j; anything else is a config
    # error, not a numerical failure (exit 3)
    cfg = write_config(tmp_path, "j.json", {"model": {"variant": "RotorSpin", "j": j}})
    assert run(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("phasetop: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", [
    {"tolerances": {"gap_floor": True}},
    {"tolerances": {"zero_floor": float("nan")}},
    {"tolerances": {"gap_floor": float("inf")}},
    {"tolerances": {"tri_tol": -1e-9}},
    {"tolerances": {"evenness_rel": "x"}},
    {"seed": False},
    ["random-suite", "--count", "1", "--manifold", "torus", "--gap-floor", "nan"],
    ["random-suite", "--count", "1", "--manifold", "torus", "--gap-floor", "-1"],
    ["random-suite", "--count", "1", "--manifold", "sphere", "--gap-floor", "inf"],
    ["deform", "--config-a", "CFG", "--config-b", "CFG", "--gap-floor", "nan"],
    ["deform", "--config-a", "CFG", "--config-b", "CFG", "--gap-floor", "0"],
    ["gauge-demo", "--config", "CFG", "--gap-floor=-inf"],
    ["gauge-demo", "--config", "CFG", "--gap-floor=-0.05"],
    # an integer that no float holds
    {"tolerances": {"gap_floor": 10 ** 400}},
])
def test_tolerance_gap_floor_and_seed_validation_exits_2(tmp_path, capsys, case):
    # a tolerance or --gap-floor is a positive number, not a bool, that a
    # float holds finitely; a top-level seed is an unknown key.  No report
    # is written
    if isinstance(case, dict):
        argv = ["analyze", "--config", write_config(tmp_path, "c.json", {**ROTOR, **case})]
    else:
        cfg = write_config(tmp_path, "c.json", ROTOR)
        argv = [cfg if arg == "CFG" else arg for arg in case]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("phasetop: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["gap_floor_5001_digits", "utf16_bom", "directory",
                                  "n_lat_401_digits", "n_lat_above_max"])
def test_unreadable_or_oversized_config_exits_2(tmp_path, capsys, monkeypatch, case):
    # a config that cannot be read or decoded, or a grid size past
    # MAX_LOOP_SAMPLES, is a config error: one line, no report and no grid
    # built.  Python refuses an integer literal of more than 4300 digits
    rotor = '{"model": {"variant": "RotorSpin", "j": 0.5}'
    contents = {
        "gap_floor_5001_digits": f'{rotor}, "tolerances": {{"gap_floor": 1{"0" * 5000}}}}}',
        "utf16_bom": b"\xff\xfe" + rotor.encode() + b"}",
        "n_lat_401_digits": f'{rotor}, "grid": {{"n_lat": 1{"0" * 400}, "n_lon": 32}}}}',
        "n_lat_above_max": f'{rotor}, "grid": {{"n_lat": {2 ** 14 + 2}, "n_lon": 32}}}}',
    }
    cfg = tmp_path / "c.json"
    if case == "directory":
        cfg.mkdir()
    elif isinstance(contents[case], bytes):
        cfg.write_bytes(contents[case])
    else:
        cfg.write_text(contents[case])
    monkeypatch.setattr(phasespace, "_shared_grid", None)   # a grid built would raise
    out = tmp_path / "report.json"
    assert run(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("phasetop: error: ") and err.count("\n") == 1


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI loads no scipy,
    # and with every scipy import made to fail the torus suite and both
    # gauge-demo routes still run
    src = str(Path(phasetop.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    imported = subprocess.run(
        [sys.executable, "-c", "import sys, phasetop.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True)
    assert imported.stdout.strip() == "[]"

    kramers = write_config(tmp_path, "kp.json", {
        "model": {"variant": "KramersPairSphere", "epsilon": 0.1, "seed": 0},
        "grid": {"n_lat": 32, "n_lon": 128}})
    torus = write_config(tmp_path, "torus.json", {
        "model": {"variant": "TorusDoubledChern", "m": 1.0, "epsilon": 0.0, "seed": 2},
        "grid": {"n_lat": 16, "n_lon": 128}})
    out = str(tmp_path / "out.json")
    commands = [
        ["random-suite", "--count", "1", "--manifold", "torus", "--seed", "209",
         "--grid", "24x128", "--gap-floor", "0.03", "--out", out],
        ["gauge-demo", "--config", kramers, "--group", "0:1", "--out", out],
        ["gauge-demo", "--config", torus, "--group", "0:1", "--out", out],
    ]
    script = textwrap.dedent("""
        import json, sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        from phasetop.cli import main
        print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
    """)
    blocked = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                             capture_output=True, text=True, env=env, check=True)
    assert json.loads(blocked.stdout) == [0, 0, 0], blocked.stderr


def test_gauge_demo_target_c_on_torus_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "torus.json",
                       {"model": {"variant": "TorusDoubledChern", "m": 1.0},
                        "grid": {"n_lat": 16, "n_lon": 128}})
    out = tmp_path / "g.json"
    assert run(["gauge-demo", "--config", cfg, "--group", "0:1", "--target-c", "4",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("phasetop: error: --target-c")
    assert not out.exists()


@pytest.mark.parametrize("failed, kind", THEOREM_CHECKS)
def test_analyze_and_random_suite_check_the_same_theorems(tmp_path, monkeypatch,
                                                          failed, kind):
    rep = theorem_report(failed)
    group = bands.BandGroup(0, 1, 0.5)
    monkeypatch.setattr(cli, "analyze_model",
                        lambda h, grid, tol: (0.0, [group], [(rep, None)]))
    code = 0 if failed is None else 3
    out = tmp_path / "out.json"
    assert run(["analyze", "--config", write_config(tmp_path, "rotor.json", ROTOR),
                "--out", str(out)]) == code
    status = json.loads(out.read_text())["global"]["status"]
    assert status == ("ok" if failed is None else "theorem-violation")
    assert run(["random-suite", "--manifold", "sphere", "--count", "1",
                "--grid", "8x8", "--out", str(out)]) == code
    violations = json.loads(out.read_text())["violations"]
    assert [v["kind"] for v in violations] == ([kind] if kind else [])

    # gauge-demo reads the same list off the group it verified; the real
    # fields still carry the gauge step
    real = cli.verify_group_fields

    def failing(*args):
        rep, fields = real(*args)
        if failed:
            setattr(rep, failed, False)
        return rep, fields

    monkeypatch.setattr(cli, "verify_group_fields", failing)
    assert run(["gauge-demo", "--config", write_config(tmp_path, "rotor.json", ROTOR),
                "--group", "0:0", "--out", str(out)]) == code
    report = json.loads(out.read_text())
    assert [v["kind"] for v in report["violations"]] == ([kind] if kind else [])
    assert report["extension_success"] is True


def test_deform_incompatible_endpoints_exit_2(tmp_path, capsys):
    # endpoints with another band count or manifold, or with another
    # time-reversal operator, are a configuration error
    kramers = {"variant": "KramersPairSphere", "epsilon": 0.1, "seed": 0}
    rotor_3half = {"variant": "RotorSpin", "j": 1.5}
    cases = [
        (ROTOR["model"], kramers, "endpoints live on different spaces"),
        (ROTOR["model"], rotor_3half, "endpoints live on different spaces"),
        (ROTOR["model"], {"variant": "TorusDoubledChern", "m": 1.0},
         "endpoints live on different spaces"),
        (rotor_3half, kramers, "endpoints carry different time-reversal operators"),
    ]
    for model_a, model_b, message in cases:
        cfg_a, cfg_b = (write_config(tmp_path, name, {"model": model,
                                                      "grid": {"n_lat": 16, "n_lon": 32}})
                        for name, model in (("a.json", model_a), ("b.json", model_b)))
        assert run(["deform", "--config-a", cfg_a, "--config-b", cfg_b,
                    "--group", "0:0"]) == 2
        assert capsys.readouterr().err == f"phasetop: error: {message}\n"


def test_deform_and_gauge_demo_refuse_a_field_that_is_not_tri(tmp_path, capsys):
    # analyze refuses this field; deform with it at either end, and
    # gauge-demo on it, refuse it as well, at the tri_tol of config_a or of
    # the one config
    broken = {"model": {"variant": "TRIBrokenControl",
                        "base": {"variant": "RotorSpin", "j": 0.5},
                        "breaking_strength": 0.5},
              "grid": {"n_lat": 16, "n_lon": 32}}
    bad = write_config(tmp_path, "bad.json", broken)
    good = write_config(tmp_path, "good.json",
                        {**broken, "model": {"variant": "RotorSpin", "j": 0.5}})
    message = ("phasetop: error: field is not time-reversal invariant: "
               "residual 8.849e-01 > 1e-09\n")
    for argv in (["deform", "--config-a", bad, "--config-b", good],
                 ["deform", "--config-a", good, "--config-b", bad],
                 ["gauge-demo", "--config", bad, "--group", "0:0"]):
        assert run(argv + ["--out", str(tmp_path / "out.json")]) == 3
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out.json").exists()
    loose = write_config(tmp_path, "loose.json", {**broken, "tolerances": {"tri_tol": 1.0}})
    assert run(["deform", "--config-a", loose, "--config-b", good,
                "--out", str(tmp_path / "out.json")]) == 0


def test_random_suite_records_torus_parity_failure_once(tmp_path, monkeypatch):
    # on the torus parity_ok is exactly "c even and rank even", so a group
    # with odd c is one parity violation, recorded once
    rep = invariants.InvariantReport(
        group_id=0, first_band=1, last_band=2, rank=2, min_gap=0.5,
        c_plaquette=1, c_winding=1, consistent=True, parity_ok=False,
        evenness_ok=True,
    )
    group = bands.BandGroup(0, 1, 0.5)
    monkeypatch.setattr(cli, "analyze_model",
                        lambda h, grid, tol: (0.0, [group], [(rep, None)]))
    out = tmp_path / "suite.json"
    assert run(["random-suite", "--manifold", "torus", "--count", "1",
                "--grid", "8x8", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["violations"] == [
        {"seed": 0, "group": 0, "kind": "parity", "c": 1, "rank": 2}
    ]
    assert report["tally"]["groups"] == 1 and report["tally"]["parity_ok"] == 0


def test_public_names_resolve():
    missing = [name for name in phasetop.__all__ if not hasattr(phasetop, name)]
    assert missing == []
