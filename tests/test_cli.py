import json

import jsonschema
import pytest

import phasetop
from phasetop import bands, cli, invariants, models
from phasetop.errors import GapError, ResolutionError
from phasetop.invariants import Tolerances
from phasetop.phasespace import Manifold, build_grid


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ROTOR = {
    "model": {"variant": "RotorSpin", "j": 0.5, "perturbation_strength": 0.0,
              "seed": 11},
    "grid": {"n_lat": 16, "n_lon": 32},
    "tolerances": {"gap_floor": 0.05},
    "seed": 11,
}


def run(argv):
    return cli.main(argv)


def test_analyze_rotor_report(tmp_path):
    cfg = write_config(tmp_path, "rotor.json", ROTOR)
    out = tmp_path / "report.json"
    assert run(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, cli.REPORT_SCHEMA)
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


def test_analyze_dumps_tables(tmp_path):
    cfg = write_config(
        tmp_path, "kp.json",
        {
            "model": {"variant": "KramersPairSphere", "epsilon": 0.1, "seed": 0},
            "grid": {"n_lat": 16, "n_lon": 32},
            "tolerances": {"gap_floor": 0.05},
        },
    )
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
    census = (dump / "census_group0.csv").read_text().splitlines()
    assert census[0] == "plaquette,index"
    assert len(census) == 2  # a single indexed zero for this model


def test_analyze_dump_covers_refined_grid(tmp_path):
    # this model's equator winding is under-resolved at 32x64, so its groups
    # are verified on the refined 64x128 grid; the dumps must cover that grid
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
            "seed": 0,
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
])
def test_malformed_model_parameters_exit_2(tmp_path, capsys, case):
    # analyze builds the model of a config; random-suite builds RandomTRI itself
    argv = case if isinstance(case, list) else [
        "analyze", "--config", write_config(tmp_path, "m.json", {"model": case})]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("phasetop: error: ") and err.count("\n") == 1


def test_deform_incompatible_endpoints_exit_3(tmp_path):
    cfg_a = write_config(tmp_path, "a.json", ROTOR)
    cfg_b = write_config(
        tmp_path, "b.json",
        {"model": {"variant": "KramersPairSphere", "epsilon": 0.1, "seed": 0},
         "grid": {"n_lat": 16, "n_lon": 32}},
    )
    assert run(["deform", "--config-a", cfg_a, "--config-b", cfg_b,
                "--group", "0:0"]) == 3


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
