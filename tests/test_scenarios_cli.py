import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wasslab
from wasslab.acceptance import run_all
from wasslab.cli import main
from wasslab.errors import DomainError, InvalidMeasure, ParseError
from wasslab.scenarios import (
    Report,
    ScenarioConfig,
    emit_report,
    escaping_mixture,
    lift_demo_field,
    load_measures,
    run_scenario,
)
from wasslab.wgeom import ensure_rng


def _write_measures(tmp_path, name="measures.json"):
    doc = {"measures": [
        {"dim": 1, "support": [[0.0]], "weights": [1.0]},
        {"dim": 1, "support": [[0.0], [2.0]], "weights": [0.5, 0.5]},
        {"dim": 1, "support": [[1.0], [3.0]], "weights": [0.5, 0.5]},
    ]}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_escaping_mixture_shape():
    m = escaping_mixture(3, 2.0)
    assert m.n_atoms == 2
    assert m.support[1, 0] == 9.0
    assert escaping_mixture(1, 2.0).n_atoms == 1  # far atom carries all mass


def test_load_measures_variants(tmp_path):
    path = _write_measures(tmp_path)
    measures = load_measures(path)
    assert len(measures) == 3 and measures[0].n_atoms == 1

    single = tmp_path / "single.json"
    single.write_text(json.dumps({"dim": 1, "support": [[0.0]], "weights": [1.0]}))
    assert len(load_measures(single)) == 1

    renorm = tmp_path / "renorm.json"
    renorm.write_text(json.dumps({"support": [[0.0], [1.0]],
                                  "weights": [0.499999999, 0.5]}))
    with pytest.warns(UserWarning):
        out = load_measures(renorm)
    assert abs(out[0].weights.sum() - 1.0) <= 1e-12


def test_load_measures_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_measures(bad)

    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({"measures": [
        {"support": [[0.0]], "weights": [1.0]},
        {"support": [[0.0], [1.0]], "weights": [-0.1, 1.1]},
    ]}))
    with pytest.raises(InvalidMeasure) as err:
        load_measures(neg)
    assert err.value.index == 1

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps([{"support": [[0.0]]}]))
    with pytest.raises(ParseError):
        load_measures(missing)


def test_ex5_scenario_and_reports(tmp_path):
    report = run_scenario(ScenarioConfig("ex5", p=2.0, seed=1))
    assert report.expected_ok
    assert report.verdicts["cs_verdict"] == "FAIL"
    assert report.verdicts["distances_max_err"] <= 1e-9
    assert len(report.tables["distances"]["rows"]) == 50

    paths = emit_report(report, tmp_path / "out")
    names = {p.name for p in paths}
    assert names == {"report.json", "ex5_distances.csv", "ex5_sphere_matrix.csv"}
    blobs = {p.name: p.read_bytes() for p in paths}
    again = {p.name: p.read_bytes() for p in emit_report(report, tmp_path / "out")}
    assert blobs == again  # byte-identical re-emit


def test_ex5_rerun_is_deterministic():
    cfg = ScenarioConfig("ex5", p=2.0, seed=7)
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    v1 = {k: v for k, v in r1.verdicts.items()}
    v2 = {k: v for k, v in r2.verdicts.items()}
    assert v1 == v2
    assert r1.tables["distances"]["rows"] == r2.tables["distances"]["rows"]


def test_ex3_scenario():
    report = run_scenario(ScenarioConfig("ex3", seed=2))
    assert report.expected_ok
    assert report.verdicts["delta1_max_err"] <= 1e-10
    assert report.verdicts["limit_sphere_verdict"] == "FAIL"
    assert all(g >= 0.09 for g in report.verdicts["limit_sphere_gaps"])


def test_lift_demo_scenario():
    report = run_scenario(ScenarioConfig("lift-demo", seed=3))
    assert report.expected_ok
    assert report.verdicts["lipschitz_ok"]
    assert report.verdicts["sphere_all_pass"]
    assert report.verdicts["dlg_verdict"] == "PASS"


def test_unknown_scenario():
    with pytest.raises(ParseError):
        run_scenario(ScenarioConfig("nope"))


@pytest.mark.parametrize("seed", [-1, 0.5, math.nan, "7"])
def test_a_seed_numpy_refuses_is_a_domain_error_naming_it(seed):
    # numpy's ValueError or TypeError once escaped as a traceback, or went unread by ex5
    for build in (lambda: ensure_rng(seed), lambda: ScenarioConfig("ex5", seed=seed),
                  lambda: lift_demo_field(seed)):
        with pytest.raises(DomainError, match=re.escape(f"seed {seed!r}")):
            build()


def test_cli_wp_and_geodesic(tmp_path, capsys):
    path = _write_measures(tmp_path)
    assert main(["wp", str(path), "--i", "1", "--j", "2", "--p", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(1.0, abs=1e-12)
    assert out["solver"] == "simplex"

    assert main(["geodesic", str(path), "--i", "1", "--j", "2", "--frac", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["length"] == pytest.approx(1.0, abs=1e-9)


def test_cli_check_viscosity_and_descend(tmp_path, capsys):
    cfg = {
        "field": {"kind": "lifted",
                  "base": {"variant": "busemann", "direction": [1.0, 0.0]}},
        "omega": {"dim": 2, "support": [[0.0, 0.0], [1.0, 2.0]],
                  "weights": [0.5, 0.5]},
        "radii": [1.0, 0.5],
        "steps": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["check-viscosity", str(cfg_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "PASS"
    assert all(probe["refuter"] is None for probe in out["witness"])

    assert main(["descend", str(cfg_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["inequality_ok"]

    flat = dict(cfg, field={"kind": "constant", "value": 0.0})
    flat_path = tmp_path / "flat.json"
    flat_path.write_text(json.dumps(flat))
    assert main(["check-viscosity", str(flat_path)]) == 1
    capsys.readouterr()


def test_cli_descend_does_not_pass_a_field_steeper_than_its_bound(tmp_path, capsys,
                                                                  monkeypatch):
    # slope 2 along +x while declaring Lipschitz bound 1; no JSON config builds it
    steep = wasslab.lift(wasslab.CustomField(lambda x: -2.0 * x[0], dim=1,
                                             direction_fn=lambda x: [1.0]))
    monkeypatch.setattr("wasslab.cli.measure_field_from_config", lambda cfg, p: steep)
    cfg = {"field": {"kind": "lifted"},
           "omega": {"dim": 1, "support": [[0.0], [1.0]], "weights": [0.5, 0.5]},
           "steps": 5}
    cfg_path = tmp_path / "steep.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["descend", str(cfg_path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert "inequality_ok" not in out
    assert out["stalled_at_step"] == 1 and out["best_gap"] < 0.0



def _strict_json(text):
    """Parse as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_cli_stall_reports_its_refuter(tmp_path, capsys, monkeypatch):
    steep = wasslab.lift(wasslab.CustomField(lambda x: -2.0 * x[0], dim=1,
                                             direction_fn=lambda x: [1.0]))
    monkeypatch.setattr("wasslab.cli.measure_field_from_config", lambda cfg, p: steep)
    cfg_path = tmp_path / "steep.json"
    cfg_path.write_text(json.dumps({
        "field": {"kind": "lifted"},
        "omega": {"dim": 1, "support": [[0.0], [1.0]], "weights": [0.5, 0.5]}}))
    assert main(["descend", str(cfg_path)]) == 1
    refuter = _strict_json(capsys.readouterr().out)["refuter"]
    assert refuter["distance"] == pytest.approx(1.0) and refuter["drop"] == pytest.approx(2.0)


def test_cli_writes_a_gap_without_candidates_as_null(tmp_path, capsys):
    omega = {"support": [[0.0], [1.0]], "weights": [0.5, 0.5]}
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps({"field": {"kind": "constant", "value": 0.0},
                                    "omega": omega, "radii": [1e-13]}))
    assert main(["check-viscosity", str(cfg_path)]) == 1
    probe = _strict_json(capsys.readouterr().out)["witness"][0]
    assert probe["best_gap"] is None and probe["n_candidates"] == 0

    cfg_path.write_text(json.dumps({"field": {"kind": "constant", "value": 0.0},
                                    "omega": omega, "step_length": 1e-13}))
    assert main(["descend", str(cfg_path)]) == 1
    out = _strict_json(capsys.readouterr().out)
    assert out["stalled_at_step"] == 1 and out["best_gap"] is None
    assert out["refuter"] is None

def test_cli_busemann_and_slope(tmp_path, capsys):
    cfg = {
        "field": {"kind": "lifted",
                  "base": {"variant": "busemann", "direction": [1.0, 0.0]}},
        "omega": {"dim": 2, "support": [[0.3, 0.1]], "weights": [1.0]},
        "start": {"dim": 2, "support": [[0.0, 0.0]], "weights": [1.0]},
        "t_max": 1e4,
    }
    cfg_path = tmp_path / "bus.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["busemann", str(cfg_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(-0.3, abs=1e-4)

    assert main(["slope", str(cfg_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["local"] >= 1.0 - 1e-3


def test_cli_reproduce_and_acceptance_subset(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    assert main(["reproduce", "ex5", "--out", str(out_dir)]) == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "ex5_distances.csv").exists()
    capsys.readouterr()

    assert main(["acceptance", "--only", "C03"]) == 0
    text = capsys.readouterr().out
    assert "PASS C03-escaping-distances" in text


def test_cli_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["wp", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_json_shape(tmp_path):
    report = Report("ex5", tables={}, verdicts={"x": True},
                    stamp={"seed": 0, "timestamp": "t"})
    paths = emit_report(report, tmp_path)
    doc = json.loads(paths[0].read_text())
    assert set(doc) == {"scenario", "verdicts", "stamp", "expected_ok", "tables"}


def _malformed_inputs(tmp_path):
    measures = _write_measures(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'\xff\xfe\xff{"a": 1}')
    no_field = tmp_path / "no_field.json"
    no_field.write_text(json.dumps({"omega": {"support": [[0.0]], "weights": [1.0]}}))
    no_base = tmp_path / "no_base.json"
    no_base.write_text(json.dumps({"field": {"kind": "lifted"},
                                   "omega": {"support": [[0.0]], "weights": [1.0]}}))
    no_support = tmp_path / "no_support.json"
    no_support.write_text(json.dumps({"field": {"kind": "constant", "value": 1.0},
                                      "omega": {"weights": [1.0]}}))
    int_field = tmp_path / "int_field.json"
    int_field.write_text(json.dumps({"field": 5,
                                     "omega": {"support": [[0.0]], "weights": [1.0]}}))
    list_omega = tmp_path / "list_omega.json"
    list_omega.write_text(json.dumps({"field": {"kind": "constant", "value": 1.0},
                                      "omega": [1, 2]}))
    string_weights = tmp_path / "string_weights.json"
    string_weights.write_text(json.dumps([{"support": [[0.0], [1.0]], "weights": ["0.5", "0.5"]},
                                          {"support": [[2.0]], "weights": [1.0]}]))
    fractional_dim = tmp_path / "fractional_dim.json"
    fractional_dim.write_text(json.dumps([{"dim": 1.7, "support": [[0.0]], "weights": [1.0]},
                                          {"support": [[2.0]], "weights": [1.0]}]))
    wrong_leaves = {
        "support-string": {"field": {"kind": "constant", "value": 1.0},
                           "omega": {"support": "abc", "weights": [1.0]}},
        "members-int": {"field": {"kind": "inf", "members": 5},
                        "omega": {"support": [[0.0]], "weights": [1.0]}},
        "radii-string": {"field": {"kind": "constant", "value": 1.0},
                         "omega": {"support": [[0.0]], "weights": [1.0]}, "radii": "x"},
        "direction-string": {"field": {"kind": "lifted",
                                       "base": {"variant": "busemann", "direction": "abc"}},
                             "omega": {"support": [[0.0]], "weights": [1.0]}},
        # numeric strings and booleans are not JSON numbers
        "p-string": {"field": {"kind": "lifted", "p": "2",
                               "base": {"variant": "busemann", "direction": [1.0]}},
                     "omega": {"support": [[0.0]], "weights": [1.0]}},
        "sign-bool": {"field": {"kind": "lifted",
                                "base": {"variant": "distance", "points": [[0.0]], "sign": True}},
                      "omega": {"support": [[0.0], [1.0]], "weights": [0.5, 0.5]}},
        "value-bool": {"field": {"kind": "constant", "value": True},
                       "omega": {"support": [[0.0], [1.0]], "weights": [0.5, 0.5]}},
    }
    # well-typed entries out of their verdict's domain
    unit_slope = {"field": {"kind": "lifted",
                            "base": {"variant": "busemann", "direction": [1.0]}},
                  "omega": {"support": [[0.0], [1.0]], "weights": [0.5, 0.5]}}
    out_of_domain = {
        "eps-negative": dict(unit_slope, eps=-1.0),
        "eps-one": {"field": {"kind": "constant", "value": 0.0},
                    "omega": {"support": [[0.0]], "weights": [1.0]}, "eps": 1.0},
        "levels-empty": dict(unit_slope, levels=[]),
        # whole-number entries are not truncated, and a huge one would never return
        "budget-fractional": dict(unit_slope, budget=8.7),
        "budget-huge": dict(unit_slope, budget=1e18),
        # at the cap alone, but three radii times the budget ask for 3 * 10**6 samples
        "budget-million": dict(unit_slope, budget=1000000),
        # W_p is no metric below p = 1, so the field is refused when it is built
        "field-p-half": dict(unit_slope, field=dict(unit_slope["field"], p=0.5)),
    }
    configs = {**wrong_leaves, **out_of_domain}
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    fractional_steps = tmp_path / "fractional_steps.json"
    fractional_steps.write_text(json.dumps(dict(unit_slope, steps=2.5)))
    huge_budget = tmp_path / "huge_budget.json"
    huge_budget.write_text(json.dumps(dict(unit_slope, budget=1e18)))
    (tmp_path / "unit_slope.json").write_text(json.dumps(unit_slope))
    # nan fails every comparison, so each of these must be refused, not run
    busemann = {"field": {"kind": "lifted",
                          "base": {"variant": "busemann", "direction": [1.0, 0.0]}},
                "omega": {"support": [[0.3, 0.1]], "weights": [1.0]},
                "start": {"support": [[0.0, 0.0]], "weights": [1.0]}}
    nan_entries = {
        "busemann-t_max-nan": ("busemann", dict(busemann, t_max=math.nan)),
        "busemann-tol-nan": ("busemann", dict(busemann, tol=math.nan)),
        "descend-epsilon-nan": ("descend", dict(unit_slope, epsilon=math.nan)),
        "descend-step_length-nan": ("descend", dict(unit_slope, step_length=math.nan)),
        "check-viscosity-radii-nan": ("check-viscosity", dict(unit_slope, radii=[math.nan])),
    }
    for name, (_, cfg) in nan_entries.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    # not JSON numbers: a unit-slope field with offset NaN is unit-slope by construction
    not_numbers = {
        "value-nan": {"field": {"kind": "constant", "value": math.nan},
                      "omega": {"support": [[0.0]], "weights": [1.0]}},
        "offset-nan": dict(unit_slope, field={"kind": "lifted", "base": {
            "variant": "busemann", "direction": [1.0], "offset": math.nan}}),
    }
    for name, cfg in not_numbers.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    overflow = tmp_path / "value-overflow.json"
    overflow.write_text('{"field": {"kind": "constant", "value": 1e999},'
                        ' "omega": {"support": [[0.0]], "weights": [1.0]}}')
    # a 2-d base field against a 1-d omega
    dim_mismatch = tmp_path / "dim_mismatch.json"
    dim_mismatch.write_text(json.dumps(dict(unit_slope, field=busemann["field"])))
    return {
        **{f"check-viscosity-{name}": ["check-viscosity", str(tmp_path / f"{name}.json")]
           for name in [*configs, *not_numbers, "value-overflow"]},
        "busemann-bad-json": ["busemann", str(bad)],
        "busemann-not-utf8": ["busemann", str(not_utf8)],
        "busemann-missing-file": ["busemann", str(tmp_path / "missing.json")],
        "check-viscosity-no-field": ["check-viscosity", str(no_field)],
        "check-viscosity-no-base": ["check-viscosity", str(no_base)],
        "check-viscosity-omega-no-support": ["check-viscosity", str(no_support)],
        "check-viscosity-int-field": ["check-viscosity", str(int_field)],
        "check-viscosity-list-omega": ["check-viscosity", str(list_omega)],
        "wp-weights-string": ["wp", str(string_weights)],
        "wp-dim-fractional": ["wp", str(fractional_dim)],
        "wp-j-too-large": ["wp", str(measures), "--j", "5"],
        "wp-i-negative": ["wp", str(measures), "--i", "-1"],
        "wp-p-nan": ["wp", str(measures), "--p", "nan"],
        "wp-p-inf": ["wp", str(measures), "--p", "inf"],
        "descend-steps-fractional": ["descend", str(fractional_steps)],
        "descend-budget-huge": ["descend", str(huge_budget)],
        "check-viscosity-dim-mismatch": ["check-viscosity", str(dim_mismatch)],
        "descend-dim-mismatch": ["descend", str(dim_mismatch)],
        # exit 1 means "not PASS", so a seed numpy refuses once read as a verdict
        **{f"{cmd}-seed-negative": [cmd, str(tmp_path / "unit_slope.json"), "--seed", "-1"]
           for cmd in ("check-viscosity", "slope", "descend")},
        **{f"reproduce-{name}-seed-negative": ["reproduce", name, "--seed", "-1"]
           for name in ("ex3", "ex5", "lift-demo")},
        "geodesic-i-too-large": ["geodesic", str(measures), "--i", "9"],
        "geodesic-t-nan": ["geodesic", str(measures), "--t", "nan"],
        "geodesic-frac-nan": ["geodesic", str(measures), "--frac", "nan"],
        # measures 0 and 0 give a degenerate path, which once returned its source at nan
        "geodesic-t-nan-degenerate": ["geodesic", str(measures), "--j", "0", "--t", "nan"],
        "reproduce-ex3-p3": ["reproduce", "ex3", "--p", "3"],
        "reproduce-ex3-tol-nan": ["reproduce", "ex3", "--tol", "nan"],
        "reproduce-ex3-tol-negative": ["reproduce", "ex3", "--tol", "-1"],
        # these once checked zero distances, or stamped a NaN or Infinity tol into
        # report.json, and exited 0
        "reproduce-ex5-n-max-0": ["reproduce", "ex5", "--n-max", "0"],
        "reproduce-ex5-n-max-negative": ["reproduce", "ex5", "--n-max", "-3"],
        "reproduce-ex5-tol-inf": ["reproduce", "ex5", "--tol", "inf"],
        "reproduce-lift-demo-tol-nan": ["reproduce", "lift-demo", "--tol", "nan",
                                        "--out", str(tmp_path / "lift-demo")],
        "acceptance-no-match": ["acceptance", "--only", "no-such-criterion"],
        **{name: [cmd, str(tmp_path / f"{name}.json")]
           for name, (cmd, _) in nan_entries.items()},
    }


@pytest.mark.parametrize("case", [
    "busemann-bad-json", "busemann-not-utf8", "busemann-missing-file", "check-viscosity-no-field",
    "check-viscosity-no-base", "check-viscosity-omega-no-support",
    "check-viscosity-int-field", "check-viscosity-list-omega",
    "check-viscosity-support-string", "check-viscosity-members-int",
    "check-viscosity-radii-string", "check-viscosity-direction-string",
    "check-viscosity-eps-negative", "check-viscosity-eps-one",
    "check-viscosity-levels-empty", "check-viscosity-p-string",
    "check-viscosity-sign-bool", "check-viscosity-value-bool",
    "check-viscosity-budget-fractional", "descend-steps-fractional",
    "check-viscosity-budget-huge", "descend-budget-huge", "check-viscosity-budget-million",
    "wp-weights-string", "wp-dim-fractional", "wp-j-too-large", "wp-i-negative",
    "wp-p-nan", "wp-p-inf", "geodesic-i-too-large", "geodesic-t-nan",
    "geodesic-frac-nan", "geodesic-t-nan-degenerate", "reproduce-ex3-p3",
    "reproduce-ex3-tol-nan", "reproduce-ex3-tol-negative", "reproduce-ex5-n-max-0",
    "reproduce-ex5-n-max-negative", "reproduce-ex5-tol-inf", "reproduce-lift-demo-tol-nan",
    "acceptance-no-match", "busemann-t_max-nan", "busemann-tol-nan",
    "descend-epsilon-nan", "descend-step_length-nan", "check-viscosity-radii-nan",
    "check-viscosity-dim-mismatch", "descend-dim-mismatch", "check-viscosity-field-p-half",
    "check-viscosity-value-nan", "check-viscosity-offset-nan", "check-viscosity-value-overflow",
    "check-viscosity-seed-negative", "slope-seed-negative", "descend-seed-negative",
    "reproduce-ex3-seed-negative", "reproduce-ex5-seed-negative",
    "reproduce-lift-demo-seed-negative",
])
def test_cli_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    assert main(_malformed_inputs(tmp_path)[case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["wp", "m.json", "--seed", "1"],
    ["geodesic", "m.json", "--tol", "1e-3"],
    ["busemann", "c.json", "--seed", "1"],
    ["slope", "c.json", "--out", "d"],
    ["check-viscosity", "c.json", "--n-max", "5"],
    ["acceptance", "--p", "3"],
], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_acceptance_report(tmp_path, capsys):
    out_dir = tmp_path / "acc"
    assert main(["acceptance", "--only", "C03", "C06", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    doc = json.loads((out_dir / "report.json").read_text())
    assert set(doc) == {"scenario", "verdicts", "stamp", "expected_ok", "tables"}
    assert doc["scenario"] == "acceptance" and doc["tables"] == ["criteria"]
    assert doc["verdicts"] == {"C03-escaping-distances": True,
                               "C06-flat-limit-sphere": True}
    assert doc["expected_ok"] is True

    with (out_dir / "acceptance_criteria.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["criterion", "status", "detail"]
    assert all(len(row) == 3 for row in rows)
    assert rows[1:] == [[name, "PASS" if ok else "FAIL", detail]
                        for name, ok, detail in run_all(["C03", "C06"])]


def test_python_dash_m_wasslab_runs_the_cli():
    src = str(Path(wasslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "wasslab", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: wasslab")


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from wasslab import *", namespace)
    assert all(name in namespace for name in wasslab.__all__)
    assert all(getattr(wasslab, name) is namespace[name] for name in wasslab.__all__)
