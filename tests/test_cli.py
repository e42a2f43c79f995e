"""Command-line interface, serialization, manifests."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidflock import cli
from rigidflock.cli import (_parse_rates, canonical_json, config_hash, main,
                            parse_scenario, scenario_from_dict,
                            scenario_to_dict)
from rigidflock.sim import ScenarioError, builtin_scenarios
from det_minors import det_minors


MINIMAL = {
    "agents": [{"p": [0.0, 0.0, 0.0], "psi": 0.0},
               {"p": [5.0, 0.0, 0.0], "psi": 0.0}],
    "edges": [[0, 1], [1, 0]],
}


def test_minimal_scenario_gets_defaults():
    scen = scenario_from_dict(MINIMAL)
    assert scen.controller.k_e == 0.5
    assert scen.controller.ell == 0.5
    assert scen.horizon_steps == 2000
    assert scen.init_radius == 20.0
    assert scen.sensor.dist_frac_sigma == 0.10


def test_round_trip():
    for scen in builtin_scenarios():
        again = scenario_from_dict(scenario_to_dict(scen))
        assert scenario_to_dict(again) == scenario_to_dict(scen)


def test_out_of_range_ell_names_field():
    bad = dict(MINIMAL, controller={"ell": 0.7})
    with pytest.raises(ScenarioError, match="controller"):
        scenario_from_dict(bad)


def test_two_sinks_rejected():
    bad = dict(MINIMAL)
    bad = {
        "agents": [{"p": [0, 0, 0]}, {"p": [5, 0, 0]}, {"p": [0, 5, 0]}],
        "edges": [[0, 1], [0, 2]],
    }
    with pytest.raises(ScenarioError, match="sink"):
        scenario_from_dict(bad)


def test_missing_fields_named():
    with pytest.raises(ScenarioError, match="agents"):
        scenario_from_dict({"edges": []})
    with pytest.raises(ScenarioError, match="edges"):
        scenario_from_dict({"agents": MINIMAL["agents"]})


def test_config_hash_stable_under_key_order():
    a = {"x": 1, "nested": {"b": 2, "a": 3}}
    b = {"nested": {"a": 3, "b": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert canonical_json(a) == canonical_json(b)


def test_parse_builtin():
    scen = parse_scenario("builtin:triangle3")
    assert scen.graph.n == 3
    with pytest.raises(ScenarioError, match="unknown builtin"):
        parse_scenario("builtin:nope")


def test_analyze_command(capsys):
    rc = main(["analyze", "--k-ef", "0.5", "--ell", "0.3",
               "--sigma-m", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma_ss"] == pytest.approx(1.7320508, abs=1e-4)
    assert out["ratio"] == pytest.approx(0.8051, abs=1e-3)
    assert out["motion_prob_at_target"] == pytest.approx(0.6, abs=1e-9)
    assert out["coherence_time_steps"] > 1.0


def test_analyze_outside_table_range(capsys):
    rc = main(["analyze", "--k-ef", "0.05", "--ell", "0.3",
               "--sigma-m", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma_ss_res"] is None
    assert out["sigma_ss"] > 0


def test_sim4d_deterministic_and_manifest(tmp_path):
    scen_file = tmp_path / "scen.json"
    data = dict(MINIMAL, horizon_steps=40, seed=7)
    scen_file.write_text(json.dumps(data))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sim4d", "--scenario", str(scen_file), "--out", str(out1),
                 "--summary", str(tmp_path / "s1.json")]) == 0
    assert main(["sim4d", "--scenario", str(scen_file), "--out", str(out2),
                 "--summary", str(tmp_path / "s2.json")]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0].split(",")
    assert header[:6] == ["step", "time_s", "e_F", "e_p", "e_psi", "fiedler"]
    assert "p0_x" in header and "omega1" in header
    assert len(out1.read_text().splitlines()) == 42  # header + 41 states
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["tool"] == "rigidflock"
    assert manifest["master_seed"] == 7
    assert str(out1) in manifest["outputs"]
    summary = json.loads((tmp_path / "s1.json").read_text())
    assert "sigma_tp" in summary


def test_sim4d_seed_override(tmp_path):
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(dict(MINIMAL, horizon_steps=10)))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    main(["sim4d", "--scenario", str(scen_file), "--out", str(a),
          "--seed", "7"])
    main(["sim4d", "--scenario", str(scen_file), "--out", str(b),
          "--seed", "7"])
    main(["sim4d", "--scenario", str(scen_file), "--out", str(c),
          "--seed", "8"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_sim1d_command(tmp_path):
    cfg = {"k_ef": 0.5, "ell": 0.3, "sigma_m": 3.0, "f": 10.0,
           "sigma_init": 50.0, "n_agents": 500, "horizon": 300, "seed": 4}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    out = tmp_path / "trace.csv"
    metrics = tmp_path / "metrics.json"
    assert main(["sim1d", "--config", str(cfg_file), "--out", str(out),
                 "--metrics", str(metrics)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,mean_abs_dd,sigma_a,mean_abs_dv"
    assert len(lines) == 301
    payload = json.loads(metrics.read_text())
    for key in ("t_c", "sigma_t", "mean_dv", "sigma_ss_pred",
                "sigma_ss_res_pred"):
        assert key in payload
    assert payload["sigma_ss_pred"] == pytest.approx(1.7320508, abs=1e-5)


def test_sweep_command(tmp_path):
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(dict(MINIMAL, horizon_steps=30)))
    out = tmp_path / "table.csv"
    assert main(["sweep", "--scenario", str(scen_file), "--rates", "10,20",
                 "--ells", "0.5,0.2", "--seeds", "2", "--out",
                 str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2
    assert lines[0].startswith("rate_hz,ell,seed,t_cp")


def test_rates_colon_spec(tmp_path):
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(dict(MINIMAL, horizon_steps=10)))
    out = tmp_path / "t.csv"
    assert main(["sweep", "--scenario", str(scen_file), "--rates",
                 "10:30:10", "--ells", "0.5", "--seeds", "1",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_audit_command(capsys, tmp_path):
    # single observation edge: M is positive definite for any geometry
    scen_file = tmp_path / "oneway.json"
    scen_file.write_text(json.dumps({
        "agents": MINIMAL["agents"], "edges": [[0, 1]]}))
    rc = main(["audit", "--scenario", str(scen_file), "--samples", "20"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["desired_pd"] is True
    assert len(out["desired_minors"]) == 4
    assert all(m > 0 for m in out["desired_minors"])
    assert out["gradient_residual_max"] < 1e-10
    assert out["pd_fraction_random_poses"] == 1.0


def test_audit_flags_singular_m_for_mutual_pair(capsys):
    # mutual observations leave a rigid-motion null space, so M = H H^T is
    # only positive semidefinite; the audit reports that rather than failing
    rc = main(["audit", "--scenario", "builtin:pair", "--samples", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["desired_pd"] is False
    assert out["gradient_residual_max"] < 1e-10


def test_audit_overflow_exits_1_and_names_it(tmp_path, capsys):
    # finite, so accepted as input, but M = H H^T overflows: a numerical
    # failure, not bad input
    scen_file = tmp_path / "far.json"
    scen_file.write_text(json.dumps({
        "agents": [{"p": [1e200, 0, 0]}, {"p": [0, 0, 0]}],
        "edges": [[0, 1], [1, 0]]}))
    rc = main(["audit", "--scenario", str(scen_file), "--samples", "3"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # stderr is exactly one JSON object
    assert err["error"] == "FloatingPointError"
    assert "M at the desired formation" in err["message"]


# (k_e / f) max_i sum_j |d_ij|^2 at the builtins' 10 Hz rate
BUILTIN_LOOP_GAINS = {"pair": 1.25, "triangle3": 2.5, "triangle6": 16.25,
                      "triangle6_sparse": 13.75}


@pytest.mark.parametrize("name", sorted(BUILTIN_LOOP_GAINS))
def test_audit_builtins_match_det_oracle(name, capsys, monkeypatch):
    argv = ["audit", "--scenario", f"builtin:{name}", "--samples", "50"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    n = parse_scenario(f"builtin:{name}").graph.n
    # E >= N: rank H <= 4N - 4, so the (4N - 3)-th minor is 0 and the
    # elimination has stopped by then
    assert out["desired_pd"] is False
    assert len(out["desired_minors"]) <= 4 * n - 3
    assert out["pd_fraction_random_poses"] == 0.0
    assert out["heading_loop_gain"] == BUILTIN_LOOP_GAINS[name]
    # the same audit with one det per leading minor gives the same figures
    monkeypatch.setattr(cli, "is_positive_definite_minors", det_minors)
    assert main(argv) == 0
    ref = json.loads(capsys.readouterr().out)
    for key in ("desired_pd", "pd_fraction_random_poses",
                "gradient_residual_max"):
        assert out[key] == ref[key]


def test_error_reporting_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(MINIMAL, controller={"ell": 0.9})))
    rc = main(["sim4d", "--scenario", str(bad), "--out",
               str(tmp_path / "x.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "controller" in err["message"]

    rc = main(["sim4d", "--scenario", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()

    # a path that cannot be opened: a directory as output or as scenario
    for argv in (["sim4d", "--scenario", "builtin:pair", "--out",
                  str(tmp_path)],
                 ["audit", "--scenario", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(tmp_path) in json.loads(err)["message"]


@pytest.mark.parametrize("argv, bad", [
    (["sim1d", "--config", "{config}", "--out", "{dir}"], "{dir}"),
    (["sim1d", "--config", "{config}", "--out", "{dir}/o.csv",
      "--metrics", "{dir}"], "{dir}"),
    (["sim4d", "--scenario", "builtin:triangle6", "--out", "{dir}"],
     "{dir}"),
    (["sim4d", "--scenario", "builtin:triangle6", "--out", "{dir}/o.csv",
      "--summary", "{dir}/none/s.json"], "{dir}/none/s.json"),
    (["sweep", "--scenario", "builtin:triangle6", "--rates", "10,100",
      "--ells", "0.05,0.5", "--seeds", "2", "--out", "{dir}"], "{dir}"),
    (["sweep", "--scenario", "builtin:pair", "--out", "{dir}/none/o.csv"],
     "{dir}/none/o.csv"),
])
def test_bad_output_path_exits_2_before_any_work(tmp_path, capsys,
                                                 monkeypatch, argv, bad):
    def no_work(*args, **kwargs):
        pytest.fail("stepped before its outputs were checked")

    for name in ("sweep", "run", "run_1d_ensemble"):
        monkeypatch.setattr(cli, name, no_work)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k_ef": 0.5, "horizon": 20}))
    fill = dict(config=config, dir=tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main([arg.format(**fill) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert repr(bad.format(**fill)) in json.loads(err)["message"]
    assert sorted(tmp_path.iterdir()) == before  # no file left behind


@pytest.mark.parametrize("command", [
    ["sim4d", "--summary", "{dir}/summary.json"],
    ["sweep", "--rates", "10,20", "--ells", "0.2,0.5"],
])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_run_leaves_outputs_as_they_were(tmp_path, capsys, command,
                                                existing):
    # a start that overflows: exit 1 after the outputs were checked
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(dict(MINIMAL, horizon_steps=20,
                                         init_radius=1e308)))
    out = tmp_path / "run.csv"
    if existing:
        out.write_text("kept\r\n")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [command[0], "--scenario", str(scen_file), "--out", str(out),
            *(arg.format(dir=tmp_path) for arg in command[1:])]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == \
        "FloatingPointError"
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_csv_numbers_are_full_precision(tmp_path):
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(dict(MINIMAL, horizon_steps=5, seed=3)))
    out = tmp_path / "run.csv"
    main(["sim4d", "--scenario", str(scen_file), "--out", str(out)])
    row = out.read_text().splitlines()[1].split(",")
    e_f = float(row[2])
    # round-trips through the text exactly
    assert format(e_f, ".17g") == row[2]


def _write_table_oracle(path, header, table):
    """The cell-by-cell writer: csv.writer over _fmt of every cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cli._fmt(v) for v in row.tolist()]
                         for row in table)


@pytest.mark.parametrize("table", [
    np.array([[math.nan, 0.0, -0.0, 1e-300],
              [1e300, -1e300, 1e17, 2.0 ** 60],
              [123456789012345678.0, -1e17, 0.1, 1.0 / 3.0],
              [5e-324, -2.5, 3.0, math.nan]]),
    np.array([[2 ** 53 + 1, True, 0.25, -(2 ** 60) - 3],
              [False, 7, math.nan, -0.0]], dtype=object),
])
def test_write_table_bytes_equal_csv_writer(tmp_path, table):
    header = [f"c{k}" for k in range(table.shape[1])]
    cli._write_table(tmp_path / "a.csv", header, table)
    _write_table_oracle(tmp_path / "b.csv", header, table)
    got = (tmp_path / "a.csv").read_bytes()
    assert got == (tmp_path / "b.csv").read_bytes()
    assert got.count(b"\r\n") == table.shape[0] + 1
    assert got.count(b"\n") == table.shape[0] + 1


def test_rates_colon_spec_rejects_nonpositive_step():
    assert _parse_rates("10:30:10") == [10.0, 20.0, 30.0]
    for spec in ("10:30:0", "10:30:-5"):
        with pytest.raises(ValueError, match="--rates"):
            _parse_rates(spec)


@pytest.mark.parametrize("overrides", [
    {"init_radius": 1e308},  # relative positions overflow at the start
    {"agents": [{"p": [0.0, 0.0, 0.0]}, {"p": [1e200, 0.0, 0.0]}],
     "controller": {"ell": 0.2}},  # the squared residual overflows e_F
])
def test_numerical_overflow_exits_1_and_names_step(tmp_path, capsys,
                                                   overrides):
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(dict(MINIMAL, horizon_steps=20,
                                         **overrides)))
    # No errstate here: the CLI keeps numpy warnings off stderr itself, and
    # the suite turns any RuntimeWarning into an error.
    rc = main(["sim4d", "--scenario", str(scen_file), "--out",
               str(tmp_path / "run.csv"), "--summary",
               str(tmp_path / "summary.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)  # stderr is one JSON object
    assert err["error"] == "FloatingPointError"
    assert "e_F at step 0" in err["message"]
    assert not (tmp_path / "summary.json").exists()


def test_overflowing_position_covariance_exits_1_and_names_it(tmp_path,
                                                             capsys):
    # 1e60 m apart the covariance entries are finite (1e118) but their
    # determinant is not: a numerical failure, named, not a silent m = 0
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(dict(
        MINIMAL, horizon_steps=5, controller={"ell": 0.2},
        agents=[{"p": [0.0, 0.0, 0.0]}, {"p": [1e60, 0.0, 0.0]}])))
    rc = main(["sim4d", "--scenario", str(scen_file), "--out",
               str(tmp_path / "run.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LinAlgError"
    assert "position covariance" in err["message"]


def test_linalg_error_exits_1(tmp_path, capsys, monkeypatch):
    def singular(scenario):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run", singular)
    rc = main(["sim4d", "--scenario", "builtin:pair", "--out",
               str(tmp_path / "run.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "LinAlgError"


def named_fields(message):
    """The names an ``invalid field <object>: <reason>`` message gives: the
    object, the reason's first word and a quoted name that ends it."""
    obj, reason = re.fullmatch(r"invalid field (\w+): (.*)", message,
                               re.DOTALL).groups()
    return {obj, reason.split(" ", 1)[0], *re.findall(r"'(\w+)'$", reason)}


class RawJSON(str):
    """Config text written as given: a number json.dumps cannot spell."""


@pytest.mark.parametrize("command, config, field", [
    ("sim1d", {"k_ef": 0.5, "gain": 1.0}, "gain"),
    ("sim1d", {"ell": 0.3}, "k_ef"),
    ("sim1d", {"k_ef": "abc"}, "k_ef"),
    ("sim1d", {"k_ef": 0.5, "horizon": 20.5}, "horizon"),
    ("sim1d", [0.5], "config"),
    ("sim1d", {"k_ef": 0.5, "restrained": "false"}, "restrained"),
    ("sim4d", dict(MINIMAL, horizon_steps="abc"), "horizon_steps"),
    ("sim4d", dict(MINIMAL, init_radius=[1]), "init_radius"),
    ("sim4d", dict(MINIMAL, controller={"k_e": "x"}), "k_e"),
    ("sim4d", dict(MINIMAL, controller={"gain": 1.0}), "gain"),
    ("sim4d", dict(MINIMAL, sensor=[10.0]), "sensor"),
    ("sim4d", dict(MINIMAL, seed=-1), "seed"),
    ("sim4d", dict(MINIMAL, horizon_step=20), "horizon_step"),
    ("sweep", dict(MINIMAL, horizon_steps=5), "horizon_steps"),
    ("sim1d", {"k_ef": 0.5, "n_agents": 0}, "n_agents"),
    ("sim1d", {"k_ef": 0.5, "horizon": -3}, "horizon"),
    ("sim4d", "agents_edges", "scenario"),
    ("sim4d", dict(MINIMAL, controller=[["k_e", 0.5]]), "controller"),
    ("sim4d", dict(MINIMAL, sensor=[["rate_hz", 50.0]]), "sensor"),
    ("sim1d", [["k_ef", 0.5]], "config"),
    ("sim1d", {"k_ef": True}, "k_ef"),
    ("sim4d", dict(MINIMAL, horizon_steps=True), "horizon_steps"),
    ("sim4d", dict(MINIMAL, init_radius="20"), "init_radius"),
    ("sim4d", dict(MINIMAL, horizon_steps=20.7), "horizon_steps"),
    ("sim4d", dict(MINIMAL, seed="1"), "seed"),
    ("sim4d", dict(MINIMAL, controller={"restraining": True}),
     "restraining"),
    ("sim4d", dict(MINIMAL, agents=[{"p": [0, 0, 0], "psi": True},
                                    {"p": [5, 0, 0]}]), "agents"),
    ("sim4d", dict(MINIMAL, agents=[{"p": [0, 0, 0]},
                                    {"p": [5, False, 0]}]), "agents"),
    ("sim4d", dict(MINIMAL, agents=[{"p": [0, 0, 0]},
                                    {"p": [5, 0, 0], "psi": "0.5"}]),
     "agents"),
    ("sim4d", dict(MINIMAL, agents=[{"p": [0, 0, 0]},
                                    {"p": ["5", 0, 0]}]), "agents"),
    ("sim4d", dict(MINIMAL, agents=[{"p": [0, 0, 0]},
                                    {"p": [[5, 0, 0]]}]), "agents"),
    # numbers that Python's json reads but no double holds finitely
    ("sim4d", dict(MINIMAL, agents=[{"p": [10 ** 400, 0, 0]},
                                    {"p": [5, 0, 0]}]), "agents"),
    ("sim4d", dict(MINIMAL, init_radius=10 ** 400), "init_radius"),
    pytest.param("sim4d", RawJSON(json.dumps(MINIMAL)[:-1]
                                  + ', "init_radius": 1e400}'),
                 "init_radius", id="sim4d-init_radius_1e400-init_radius"),
    ("sim4d", dict(MINIMAL, controller={"k_e": math.nan}), "k_e"),
    ("sim4d", dict(MINIMAL, sensor={"rate_hz": math.inf}), "rate_hz"),
    ("sim1d", {"k_ef": 0.5, "sigma_m": math.nan}, "sigma_m"),
    ("sim1d", {"k_ef": 0.5, "horizon": 5}, "horizon"),
    # an edge is a pair of JSON integers, none of these is the edge (0, 1)
    pytest.param("sim4d", RawJSON(json.dumps(MINIMAL).replace(
        '"edges": [[0, 1]', '"edges": [[0, 1e400]')), "edges",
                 id="sim4d-edges_1e400-edges"),
    ("sim4d", dict(MINIMAL, edges=[["0", "1"], [1, 0]]), "edges"),
    ("sim4d", dict(MINIMAL, edges=[[0, 1.7], [1, 0]]), "edges"),
    ("sim4d", dict(MINIMAL, edges=[[0, True], [1, 0]]), "edges"),
    # a measurement rate that is not positive: t_c would be inf or < 0
    ("sim1d", {"k_ef": 0.5, "n_agents": 50, "horizon": 20, "f": 0}, "f"),
    ("sim1d", {"k_ef": 0.5, "n_agents": 50, "horizon": 20, "f": -10}, "f"),
    ("sim1d", {"k_ef": 0.5, "sigma_init": -5}, "sigma_init"),
])
def test_bad_config_exits_2_and_names_field(tmp_path, capsys, command,
                                            config, field):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, RawJSON)
                    else json.dumps(config))
    flag = "--config" if command == "sim1d" else "--scenario"
    rc = main([command, flag, str(path), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert field in named_fields(json.loads(capsys.readouterr().err)["message"])
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv, option", [
    (["sweep", "--rates", "200:10:10"], "--rates"),
    (["sweep", "--rates", ""], "--rates"),
    (["sweep", "--ells", ""], "--ells"),
    (["sweep", "--ells", "0.2,abc"], "--ells"),
    (["sweep", "--rates", "10,x"], "--rates"),
    (["sweep", "--seeds", "0"], "--seeds"),
    (["audit", "--samples", "-3"], "--samples"),
    (["audit", "--samples", "0"], "--samples"),
    (["sweep", "--rates", "nan"], "--rates"),
    (["sweep", "--rates", "inf"], "--rates"),
    (["sweep", "--rates", "0:inf:10"], "--rates"),
])
def test_bad_grid_or_sample_count_exits_2(tmp_path, capsys, argv, option):
    out = ["--out", str(tmp_path / "t.csv")] if argv[0] == "sweep" else []
    rc = main(argv[:1] + ["--scenario", "builtin:pair"] + argv[1:] + out)
    assert rc == 2
    assert option in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("option, value, field", [
    ("--sigma-m", "nan", "sigma_m"),
    ("--k-ef", "inf", "k_ef"),
    ("--ell", "nan", "ell"),
])
def test_analyze_non_finite_option_exits_2_and_names_field(option, value,
                                                           field):
    # a real process, so that any warning text would reach its stderr
    args = {"--k-ef": "0.5", "--ell": "0.3", "--sigma-m": "3", option: value}
    proc = subprocess.run(
        [sys.executable, "-m", "rigidflock.cli", "analyze",
         *(v for item in args.items() for v in item)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert proc.returncode == 2
    err = json.loads(proc.stderr)  # stderr is exactly one JSON object
    assert err["message"].startswith(field)


def test_sweep_accepts_shortest_horizon(tmp_path):
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(dict(MINIMAL, horizon_steps=9)))
    out = tmp_path / "t.csv"
    assert main(["sweep", "--scenario", str(scen_file), "--rates", "20",
                 "--ells", "0.2,0.5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3 and rows[1].split(",")[3] != ""


def test_import_loads_no_scipy():
    # numpy and the standard library are the whole runtime: loading the
    # package and the CLI imports no scipy module at all
    code = ("import sys, rigidflock, rigidflock.cli; "
            "loaded = sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded")
    src = str(Path(cli.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))
