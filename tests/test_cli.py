from __future__ import annotations

import contextlib
import copy
import gc
import importlib.util
import io
import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmegreen as pg
from pmegreen import __version__, cli, weighted
from pmegreen.cli import (SCHEMA_VERSION, ConfigError, load_scenario, main,
                          validate_scenario)
from pmegreen.geometry import GROWTH_FORMS, NUMBER, NUMBERS, PROFILE_FORMS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BUNDLED = sorted((SCRIPTS / "scenarios").glob("*.json"))


def write_config(tmp_path: Path, payload: dict, name: str = "scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def green_scenario(name: str = "g3", dimension: int = 3) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "green", "name": name,
            "profile": {"form": "euclidean", "dimension": dimension},
            "params": {"radii": [0.5, 1.0, 2.0]}}


def read_rows(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_green_scenario_outputs(tmp_path):
    cfg = write_config(tmp_path, green_scenario())
    out = tmp_path / "out"
    assert main(["green", "--config", str(cfg), "--out-dir", str(out)]) == 0
    header, rows = read_rows(out / "g3.csv")
    assert header == ["r", "green_exact", "green_surrogate", "ratio"]
    assert len(rows) == 3
    for row in rows:
        assert row["ratio"] == "0.33333333333333331"
    manifest = json.loads((out / "g3.manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["checks"]["ratio_constant"] is True
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["library_version"] == __version__
    assert manifest["config"]["profile"]["dimension"] == 3
    assert "wall_time" not in json.dumps(manifest)


def test_green_tabulated_profile(tmp_path):
    # 60 log-spaced rows of V = r^3 on [0.01, 10], radii out to 30
    radii = np.geomspace(0.01, 10.0, 60)
    scn = {"schema_version": SCHEMA_VERSION, "kind": "green", "name": "gt",
           "profile": {"form": "tabulated", "dimension": 3,
                       "radii": radii.tolist(), "volumes": (radii ** 3).tolist()},
           "params": {"r_min": 0.25, "r_max": 30.0, "count": 50}}
    cfg = write_config(tmp_path, scn)
    out = tmp_path / "out"
    assert main(["green", "--config", str(cfg), "--out-dir", str(out)]) == 0
    _, rows = read_rows(out / "gt.csv")
    assert len(rows) == 50
    assert all(float(row["green_exact"]) > 0.0 for row in rows)


def test_outputs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, green_scenario())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["green", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(["green", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    for name in ("g3.csv", "g3.manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_array_rows_write_as_dict_rows(tmp_path):
    # the profiles CSV is written from one array; its bytes must be those of
    # float rows given as dicts
    rng = np.random.default_rng(7)
    table = rng.random((50, 4)) * np.logspace(-300, 300, 50)[:, None]
    table[0] = [0.0, -0.0, 5e-324, 2.2250738585072014e-308]
    table[1] = [1e-300, 3.0e-301, 1.0000000000000001e-300, -1e-300]
    table[2] = [1.0, 0.1, 1.0 / 3.0, 2.0**52 + 1.0]
    columns = ["r", "u_t0", "u_t1", "u_t2"]
    cli.write_csv(tmp_path / "array.csv", columns, table)
    rows = [{c: float(v) for c, v in zip(columns, row)} for row in table]
    cli.write_csv(tmp_path / "dicts.csv", columns, rows)
    written = (tmp_path / "array.csv").read_bytes()
    assert written == (tmp_path / "dicts.csv").read_bytes()
    assert written.count(b"\n") == 51


def test_unknown_key_reports_dotted_path(tmp_path, capsys):
    scn = green_scenario()
    scn["profile"] = {"form": "euclidean", "dimention": 3}
    cfg = write_config(tmp_path, scn)
    assert main(["green", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'profile.dimention'" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"schema_version": 1,,}', encoding="utf-8")
    assert main(["green", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:1:" in err


def test_missing_config_rejected(tmp_path, capsys):
    assert main(["green", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_wrong_schema_version_rejected(tmp_path, capsys):
    scn = green_scenario()
    scn["schema_version"] = 99
    cfg = write_config(tmp_path, scn)
    assert main(["green", "--config", str(cfg)]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_solve_flags_with_verification(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--profile", "euclidean:3", "--m", "2.0",
                 "--init", "barenblatt:1:1", "--rmax", "10", "--cells",
                 "120", "--tend", "0.5", "--snapshots", "4", "--verify",
                 "--out-dir", str(out)])
    assert code == 0
    text = (out / "cli-solve.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == "t,sup_u,mass,outflow,l1g_norm"
    manifest = json.loads((out / "cli-solve.manifest.json").read_text())
    assert manifest["checks"]["mass_conserved"] is True
    assert manifest["checks"]["positivity"] is True
    estimate_checks = [k for k in manifest["checks"] if
                       k.startswith("estimate_")]
    assert estimate_checks
    assert all(manifest["checks"][k] for k in estimate_checks)


def test_solve_nan_snapshot_fails_positivity_and_estimates(tmp_path,
                                                           monkeypatch):
    run_pme = cli.run_pme

    def poisoned(*args, **kwargs):
        record = run_pme(*args, **kwargs)
        record.states[2][0] = np.nan  # not the first snapshot's minimum
        return record

    monkeypatch.setattr(cli, "run_pme", poisoned)
    out = tmp_path / "run"
    assert main(["solve", "--profile", "euclidean:3", "--m", "2",
                 "--init", "barenblatt", "--cells", "200", "--tend", "1",
                 "--snapshots", "4", "--verify", "--out-dir", str(out)]) == 1
    checks = json.loads((out / "cli-solve.manifest.json").read_text())[
        "checks"]
    assert checks["positivity"] is False
    assert checks["estimate_green_mass_monotone"] is False


def test_l1g_flags(tmp_path):
    out = tmp_path / "out"
    code = main(["l1g", "--profile", "euclidean:5", "--exponents",
                 "2.0,3.0,6.0", "--out-dir", str(out)])
    assert code == 0
    header, rows = read_rows(out / "cli-l1g.csv")
    assert header[0] == "a"
    verdicts = {row["a"]: (row["in_l1"], row["in_l1g"]) for row in rows}
    assert verdicts["2"] == ("false", "false")
    assert verdicts["3"] == ("false", "true")
    assert verdicts["6"] == ("true", "true")


def test_l1g_power_log_is_consistent(tmp_path):
    # every quadrature verdict agrees with the exponent rule, a = 3.5 too
    out = tmp_path / "out"
    assert main(["l1g", "--profile", "power_log:4:3:0.5", "--exponents",
                 "2,2.5,3.5,4.5", "--out-dir", str(out)]) == 0
    _, rows = read_rows(out / "cli-l1g.csv")
    assert [row["consistent"] for row in rows] == ["true"] * 4
    assert [row["l1_converged"] for row in rows] == ["false", "false",
                                                     "true", "true"]


@pytest.mark.parametrize("spelling", [["--exponents", "-0.5,3"],
                                      ["--exponents=-0.5,3"],
                                      ["--exponents", "-.5,3"]])
def test_list_flag_takes_a_negative_first_value(tmp_path, spelling):
    out = tmp_path / "out"
    code = main(["l1g", "--profile", "euclidean:5", *spelling,
                 "--out-dir", str(out)])
    assert code == 0
    _, rows = read_rows(out / "cli-l1g.csv")
    assert [row["a"] for row in rows] == ["-0.5", "3"]


def test_check_assumptions_flags(tmp_path):
    out = tmp_path / "out"
    code = main(["check-assumptions", "--profile", "euclidean:5",
                 "--growth", "power:5", "--out-dir", str(out)])
    assert code == 0
    manifest = json.loads((out / "cli-check.manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["metrics"]["gamma_uniformity"] == pytest.approx(
        1.0, abs=1e-9)


def test_strict_tolerance_profile(tmp_path):
    # --out-dir and --tolerance-profile are the flags --config admits
    cfg = write_config(tmp_path, green_scenario(dimension=4))
    out = tmp_path / "out"
    code = main(["green", "--config", str(cfg), "--out-dir", str(out),
                 "--tolerance-profile", "strict"])
    assert code == 0


def test_optimality_failure_is_exit_one(tmp_path):
    scn = {"schema_version": SCHEMA_VERSION, "kind": "optimality",
           "name": "opt-fail", "m": 2.0,
           "params": {"cells": 200, "r_max": 12.0, "t_end": 2.0,
                      "n_snapshots": 9, "slope_tol": 1e-9}}
    cfg = write_config(tmp_path, scn)
    out = tmp_path / "out"
    assert main(["optimality", "--config", str(cfg),
                 "--out-dir", str(out)]) == 1
    manifest = json.loads((out / "opt-fail.manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["checks"]["slope"] is False


def test_sweep_duplicate_points_and_order(tmp_path):
    scn = {"schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "sw",
           "base": green_scenario(name="unused"),
           "grid": [{"profile.dimension": 3}, {"profile.dimension": 5},
                    {"profile.dimension": 3}]}
    cfg = write_config(tmp_path, scn)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    header, rows = read_rows(out / "sw.csv")
    assert [row["index"] for row in rows] == ["0", "1", "2"]
    assert [row["name"] for row in rows] == ["sw-000", "sw-001", "sw-002"]
    assert [row["profile.dimension"] for row in rows] == ["3", "5", "3"]
    metric_cols = [c for c in header if c.startswith("ratio_")]
    assert metric_cols
    # identical grid points give identical measurements
    for col in metric_cols:
        assert rows[0][col] == rows[2][col]
        assert rows[0][col] != rows[1][col] or col == "ratio_expected"
    # every sub-scenario leaves its own artifacts behind
    for name in ("sw-000", "sw-001", "sw-002"):
        assert (out / f"{name}.csv").exists()
        assert (out / f"{name}.manifest.json").exists()


def test_sweep_empty_grid_header_only(tmp_path):
    scn = {"schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "sw0",
           "base": green_scenario(name="unused"), "grid": []}
    cfg = write_config(tmp_path, scn)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "sw0.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["index,name,passed,error"]


def test_sweep_captures_row_errors(tmp_path):
    scn = {"schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "swe",
           "base": green_scenario(name="unused"),
           # the spec admits lam 1.5; only make_profile rejects it
           "grid": [{"profile.form": "power", "profile.lam": 1.5},
                    {"profile.dimension": 4}]}
    cfg = write_config(tmp_path, scn)
    out = tmp_path / "out"
    # a point rejected as config makes the sweep exit 2, once all is written
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 2
    _, rows = read_rows(out / "swe.csv")
    assert rows[0]["error"] != "" and rows[0]["passed"] == "false"
    assert rows[1]["error"] == "" and rows[1]["passed"] == "true"
    manifest = json.loads((out / "swe.manifest.json").read_text())
    assert manifest["passed"] is False


def test_sweep_internal_error_is_exit_three(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("pmegreen.green.GreenData", broken)
    scn = {"schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "swi",
           "base": green_scenario(name="unused"),
           "grid": [{"profile.dimension": 3}]}
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, scn)),
                 "--out-dir", str(out)]) == 3
    assert "RuntimeError: boom" in capsys.readouterr().err
    _, rows = read_rows(out / "swi.csv")
    assert rows[0]["error"] == "RuntimeError: boom"
    assert json.loads((out / "swi.manifest.json").read_text())[
        "passed"] is False


def test_sweep_cartesian_grid(tmp_path):
    scn = {"schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "swc",
           "base": green_scenario(name="unused"),
           "grid": {"profile.dimension": [3, 4],
                    "params.count": [4]}}
    scn["base"]["params"] = {"r_min": 0.5, "r_max": 10.0, "count": 8}
    cfg = write_config(tmp_path, scn)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    _, rows = read_rows(out / "swc.csv")
    assert len(rows) == 2
    assert {row["profile.dimension"] for row in rows} == {"3", "4"}


def test_sweep_requires_config(capsys):
    assert main(["sweep"]) == 2
    assert "sweep needs --config" in capsys.readouterr().err


def test_config_kind_must_match_the_command(tmp_path, capsys):
    cfg = write_config(tmp_path, green_scenario())
    assert main(["solve", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "'green' scenario, not 'solve'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_each_scenario_is_validated_once(tmp_path, monkeypatch):
    calls = []

    def counted(scn, path=""):
        calls.append(path)
        return validate(scn, path)

    validate = cli.validate_scenario
    monkeypatch.setattr(cli, "validate_scenario", counted)
    scn = {"schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "sw",
           "base": green_scenario(name="unused"),
           "grid": {"profile.dimension": [3, 4]}}
    cfg = write_config(tmp_path, scn)
    assert main(["sweep", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    # the sweep, its base and its two points
    assert sorted(calls) == ["", "base", "grid[0]", "grid[1]"]


# (kind, base output, grid, key the error must name)
SHARED_OUTPUTS = [
    ("green", {"csv": "pts.csv"}, {"profile.dimension": [3, 4]},
     "base.output.csv"),
    ("solve", {"profiles_csv": "u.csv"}, {"m": [2.0, 3.0]},
     "base.output.profiles_csv"),
    ("green", {}, [{"output.csv": "a.csv"}, {"output.csv": "a.csv"}],
     "grid[1].output.csv"),
]


@pytest.mark.parametrize("case", SHARED_OUTPUTS,
                         ids=[c[3] for c in SHARED_OUTPUTS])
def test_sweep_points_sharing_an_output_are_exit_two(tmp_path, capsys, case):
    kind, output, grid, named = case
    base = green_scenario() if kind == "green" else solve_scenario()
    base["output"] = output
    if kind == "solve":
        base["params"]["emit_profiles"] = True
    scn = {"schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "sw",
           "base": base, "grid": grid}
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, scn)),
                 "--out-dir", str(out)]) == 2
    assert f"{named}: sweep points 0 and 1 both write" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("output, grid, point", [
    ({}, [{"output.csv": "sw.csv"}, {}], 0),
    ({"csv": "t.csv"}, [{}, {"output.csv": "t.csv"}], 1),
], ids=["default-name", "named"])
def test_sweep_point_may_not_write_the_sweeps_own_csv(tmp_path, capsys,
                                                       output, grid, point):
    scn = {"schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "sw",
           "output": output, "base": green_scenario(), "grid": grid}
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, scn)),
                 "--out-dir", str(out)]) == 2
    own = output.get("csv", "sw.csv")
    assert (f"error: grid[{point}].output.csv: sweep point {point} writes "
            f"the sweep's own CSV {own!r}") in capsys.readouterr().err
    assert not out.exists()


def test_sweep_points_with_their_own_outputs_run(tmp_path):
    scn = {"schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "sw",
           "base": green_scenario(),
           "grid": [{"output.csv": "a.csv"}, {"output.csv": "b.csv"}]}
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, scn)),
                 "--out-dir", str(out)]) == 0
    assert (out / "a.csv").exists() and (out / "b.csv").exists()


def test_help_lists_the_presets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["green", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for spelling in ("euclidean:DIMENSION", "power:DIMENSION:LAM[:COEFF]",
                     "power_log:DIMENSION:LAM:SIGMA", "power:K[:R0]",
                     "power_log:K:B[:R0]"):
        assert spelling in text
    for flag in ("profile", "growth"):
        assert all(f"{form}:" in text for form in cli._PRESETS[flag][1])


def test_config_takes_no_scenario_flags(tmp_path, capsys):
    cfg = write_config(tmp_path, solve_scenario())
    assert main(["solve", "--config", str(cfg), "--cells", "10", "--verify",
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "--config takes no scenario flags; got --cells --verify" in err
    assert not (tmp_path / "out").exists()


def test_solve_requires_init(capsys, tmp_path):
    assert main(["solve", "--profile", "euclidean:3", "--m", "2.0",
                 "--out-dir", str(tmp_path)]) == 2
    assert "--init" in capsys.readouterr().err


def solve_scenario() -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "solve", "name": "s",
            "profile": {"form": "euclidean", "dimension": 3}, "m": 2.0,
            "params": {"init": {"kind": "barenblatt", "mass": 1.0},
                       "r_max": 10.0, "cells": 100, "t_end": 0.5}}


def _forbidden(*args, **kwargs):
    raise AssertionError("solver work started on a rejected scenario")


# (dotted key, bad value[, key the error must name]); each is rejected
# before any solver work
BAD_SOLVE_INPUTS = [
    ("params.cells", "abc"), ("params.cells", True), ("params.cells", 100.7),
    ("m", math.nan), ("m", 1.0), ("params.t_end", -1),
    ("params.snapshots", 0), ("params.init.mass", -1),
    ("params.scheme", "rk4"), ("params.cfl", 5.0), ("seed", 7),
    # cross-field cases
    ("params.init", {"kind": "powerlaw"}, "params.init.a"),
    ("params.init", {"kind": "table", "path": "no-such-table.csv"},
     "params.init.path"),
    ("params.init", {"kind": "table", "path": "not-a-table.csv"},
     "params.init.path"),
    ("params.snapshots", [0.25, 2.0]),
    ("params.init", {"kind": "barenblatt", "mass": 1.0, "bracket": 0.5}),
]


@pytest.mark.parametrize("case", BAD_SOLVE_INPUTS,
                         ids=[f"{c[0]}={c[1]!r}" for c in BAD_SOLVE_INPUTS])
def test_bad_solve_input_is_exit_two(tmp_path, monkeypatch, capsys, case):
    key, value, named = case if len(case) == 3 else (*case, case[0])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-a-table.csv").write_text("r,u\nx,y\n", encoding="utf-8")
    monkeypatch.setattr(cli, "run_pme", _forbidden)
    monkeypatch.setattr("pmegreen.green.GreenData", _forbidden)
    monkeypatch.setattr(cli, "RadialGrid", SimpleNamespace(make=_forbidden))
    scn = solve_scenario()
    *parents, leaf = key.split(".")
    node = scn
    for part in parents:
        node = node[part]
    node[leaf] = value
    cfg = write_config(tmp_path, scn)
    assert main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


_EUCLID3 = {"form": "euclidean", "dimension": 3}
_POWER3 = {"form": "power", "params": {"k": 3.0}}
# kind -> a scenario that runs; BAD_INPUTS set one key of it
_BASE_SCENARIOS = {
    "green": {"profile": _EUCLID3},
    "bound": {"profile": _EUCLID3, "growth": _POWER3, "m": 2.0},
    "l1g": {"profile": _EUCLID3, "params": {"exponents": [4.0]}},
    "optimality": {"m": 2.0, "params": {"t_end": 1.0}},
    "check": {"profile": _EUCLID3, "growth": {**_POWER3, "r0": 2.0}},
}
# (kind, dotted key, bad value, key the error must name); each is rejected
# before any Green, bound, quadrature or solver work
BAD_INPUTS = [
    ("green", "params.r_min", 200.0, "params.r_min"),
    ("bound", "params.t_min", 1e5, "params.t_min"),
    ("bound", "params.family", {"type": "power", "k": 3.0}, "params.family"),
    ("l1g", "profile", {"form": "tabulated", "dimension": 3,
                        "radii": [0.1, 1.0, 2.0, 3.0, 4.0, 5.0],
                        "volumes": [0.1, 1.0, 2.0, 3.0, 4.0, 5.0]},
     "profile"),
    ("optimality", "params.fit_window", [50.0, 60.0], "params.fit_window"),
    ("optimality", "params.dimension", 2, "params.dimension"),
    ("green", "profile.dimension", 2, "profile.dimension"),
    ("green", "params.bounds", True, "params.bounds"),
]


# more BAD_INPUTS, several to one key: sample ranges of check, compared once
# their defaults [r0, 1e4 r0] are filled in, and l1g truncation horizons
BAD_RANGES = [
    ("check", "params.sample_min", 0.5, "params.sample_min"),
    ("check", "params", {"sample_min": 5.0, "sample_max": 2.0},
     "params.sample_min"),
    ("check", "params.sample_max", 1.5, "params.sample_max"),
    ("l1g", "params.horizons", [5.0, 2.0], "params.horizons"),
    ("l1g", "params.horizons", [0.5, 10.0], "params.horizons[0]"),
    ("l1g", "params.horizons", [10.0], "params.horizons"),
]


@pytest.mark.parametrize("case", BAD_INPUTS + BAD_RANGES, ids=[
    f"{c[0]}:{c[1]}" for c in BAD_INPUTS] + [
    f"{c[0]}:{c[1]}={c[2]!r}" for c in BAD_RANGES])
def test_bad_input_is_exit_two(tmp_path, monkeypatch, capsys, case):
    kind, key, value, named = case
    for name in ("green_bounds", "SmoothingBound", "powerlaw_classify",
                 "optimality_harness", "run_pme", "check_assumptions"):
        monkeypatch.setattr(cli, name, _forbidden)
    monkeypatch.setattr("pmegreen.green.GreenData", _forbidden)
    scn = {"schema_version": SCHEMA_VERSION, "kind": kind, "name": "bad",
           **copy.deepcopy(_BASE_SCENARIOS[kind])}
    *parents, leaf = key.split(".")
    node = scn
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    cfg = write_config(tmp_path, scn)
    command = {"check": "check-assumptions"}.get(kind, kind)
    assert main([command, "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


# a JSON spelling, with every optional key, of each form of geometry's
# tables that JSON can spell; the power_log and tabulated profiles and the
# power_log growth are the benchmark's
_TABLE_RADII = [float(r) for r in np.geomspace(0.01, 10.0, 60)]
FORM_EXAMPLES = {
    "profile": {
        "euclidean": {"dimension": 3},
        "power": {"dimension": 4, "lam": 2.5, "coeff": 0.5},
        "power_log": {"dimension": 4, "lam": 3.0, "sigma": 0.5},
        "tabulated": {"dimension": 3, "radii": _TABLE_RADII,
                      "volumes": [r ** 3 for r in _TABLE_RADII]}},
    "growth": {
        "power": {"params": {"k": 3.0}, "r0": 1.5},
        "power_log": {"params": {"k": 3.0, "b": 0.5}, "r0": 2.0}},
}
_TABLES = {"profile": PROFILE_FORMS, "growth": GROWTH_FORMS}
FORM_CASES = [(which, form) for which in FORM_EXAMPLES
              for form in FORM_EXAMPLES[which]]


def test_every_json_form_has_an_example():
    for which, forms in _TABLES.items():
        spelled = {form for form, (_, required, optional) in forms.items()
                   if {*required.values(), *optional.values()} <= {
                       NUMBER, NUMBERS}}
        assert set(FORM_EXAMPLES[which]) == spelled


def _with_form(which, form):
    """A green scenario on the example of `form`: as its profile, or as its
    growth on euclidean:3."""
    scn = green_scenario()
    scn[which] = {"form": form, **copy.deepcopy(FORM_EXAMPLES[which][form])}
    return scn


def _run_green_config(tmp_path, monkeypatch, scn):
    monkeypatch.setattr(cli, "green_bounds", _forbidden)
    monkeypatch.setattr("pmegreen.green.GreenData", _forbidden)
    return main(["green", "--config", str(write_config(tmp_path, scn)),
                 "--out-dir", str(tmp_path / "out")])


# (which, form, path of a required key)
MISSING_KEYS = [
    (which, form, path) for which, form in FORM_CASES
    for path in ([("form",)] +
                 ([("dimension",)] + [(k,) for k in
                                      PROFILE_FORMS[form][1]]
                  if which == "profile" else
                  [("params", k) for k in GROWTH_FORMS[form][1]]))]


@pytest.mark.parametrize("which, form, path", MISSING_KEYS, ids=[
    f"{form}:{which}.{'.'.join(path)}" for which, form, path in MISSING_KEYS])
def test_form_without_a_required_key_is_exit_two(tmp_path, monkeypatch,
                                                 capsys, which, form, path):
    scn = _with_form(which, form)
    node = scn[which]
    for part in path[:-1]:
        node = node[part]
    del node[path[-1]]
    assert _run_green_config(tmp_path, monkeypatch, scn) == 2
    dotted = ".".join((which, *path))
    assert f"missing required key {dotted!r}" in capsys.readouterr().err


@pytest.mark.parametrize("which, form", FORM_CASES,
                         ids=[f"{w}:{f}" for w, f in FORM_CASES])
def test_form_with_a_stray_key_is_exit_two(tmp_path, monkeypatch, capsys,
                                           which, form):
    # a param of another form of the table, such as sigma on power
    forms = _TABLES[which]
    taken = {**forms[form][1], **forms[form][2]}
    stray = next(k for _, required, optional in forms.values()
                 for k in {**required, **optional} if k not in taken)
    scn = _with_form(which, form)
    (scn[which] if which == "profile" else scn[which]["params"])[stray] = 1.0
    assert _run_green_config(tmp_path, monkeypatch, scn) == 2
    dotted = f"{which}.{stray}" if which == "profile" else (
        f"{which}.params.{stray}")
    assert f"unknown key {dotted!r}" in capsys.readouterr().err


@pytest.mark.parametrize("which, form", FORM_CASES,
                         ids=[f"{w}:{f}" for w, f in FORM_CASES])
def test_cli_and_library_descriptors_agree(tmp_path, monkeypatch, which,
                                           form):
    built = {}

    def capture(res, profile, growth, tol, out_dir):
        built.update(profile=profile, growth=growth)
        return {"columns": [], "rows": [], "metrics": {}, "checks": {}}

    monkeypatch.setitem(cli._RUNNERS, "green", capture)
    assert _run_green_config(tmp_path, monkeypatch,
                             _with_form(which, form)) == 0
    example = FORM_EXAMPLES[which][form]
    rs = np.geomspace(0.1, 100.0, 9)
    if which == "profile":
        lib = pg.make_profile(form=form, dimension=example["dimension"],
                              params={k: v for k, v in example.items()
                                      if k != "dimension"})
        for attr in ("volume", "area"):
            np.testing.assert_array_equal(getattr(built["profile"], attr)(rs),
                                          getattr(lib, attr)(rs))
    else:
        lib = pg.make_growth(form=form, **example)
        rs = rs * example["r0"] / rs[0]
        for attr in ("rate", "tail"):
            np.testing.assert_array_equal(getattr(built["growth"], attr)(rs),
                                          getattr(lib, attr)(rs))
    # the flag preset, where there is one, spells the same descriptor
    presets = cli._PRESETS[which][1]
    if form in presets:
        flat = {**example, **example.get("params", {})}
        text = ":".join([form, *(str(flat[k]) for k in sum(presets[form],
                                                           []))])
        assert cli._preset(which)(text) == {"form": form, **example}


def test_reversed_range_flags_are_exit_two(tmp_path, capsys):
    assert main(["bound", "--profile", "euclidean:3", "--growth", "power:3",
                 "--m", "2", "--t-min", "100", "--t-max", "1",
                 "--out-dir", str(tmp_path)]) == 2
    assert "params.t_min: 100 exceeds params.t_max = 1" in (
        capsys.readouterr().err)


# G = r^-3 / (3 sigma_5) overflows at 5e-324 and underflows to 0 at 1e200
@pytest.mark.parametrize("radii, key", [("5e-324,1", "params.radii[0]"),
                                        ("1,1e200", "params.radii[1]")])
def test_green_radii_outside_double_range_are_exit_two(tmp_path, capsys,
                                                       radii, key):
    assert main(["green", "--profile", "euclidean:5", "--growth", "power:5",
                 "--radii", radii, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {key}:" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_green_bounds_where_the_volume_overflows_exit_zero(tmp_path):
    # V = omega_5 r^5 overflows at r = 1e62, yet G = 1.27e-188 there and both
    # upper bounds are representable and hold
    assert main(["green", "--profile", "euclidean:5", "--growth", "power:3",
                 "--radii", "1,1e62", "--out-dir", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "cli-green.csv")
    for row in rows:
        assert [row[k] for k in ("lower_ok", "tail_ok", "near_ok")] == [
            "true"] * 3
        assert math.isfinite(float(row["upper_tail"]))
        assert math.isfinite(float(row["upper_near"]))


def test_green_near_the_pole_exit_zero(tmp_path):
    # G = 1/(3r) to leading order on power_log:4:3:0.5; the value at 1e-12
    # is int_r^inf ds/S from mpmath in s = log r
    assert main(["green", "--profile", "power_log:4:3:0.5", "--radii",
                 "1e-12,1", "--out-dir", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "cli-green.csv")
    assert float(rows[0]["green_exact"]) == pytest.approx(
        333333333331.02479, rel=1e-9)
    # 1/S overflows at 1e-160, yet G = 3.3e159 is representable
    assert main(["green", "--profile", "power_log:4:3:0.5", "--radii",
                 "1e-160,1", "--out-dir", str(tmp_path / "deep")]) == 0
    _, rows = read_rows(tmp_path / "deep" / "cli-green.csv")
    assert float(rows[0]["green_exact"]) * 3e-160 == pytest.approx(1.0,
                                                                   rel=1e-9)


@pytest.mark.parametrize("params, key", [
    ({"r_min": 1e-320, "r_max": 1.0, "count": 5}, "params.r_min"),
    ({"r_min": 1.0, "r_max": 1e200, "count": 5}, "params.r_max")])
def test_green_range_outside_double_range_is_exit_two(tmp_path, capsys,
                                                      params, key):
    cfg = write_config(tmp_path, {
        "schema_version": SCHEMA_VERSION, "kind": "green", "name": "g",
        "profile": {"form": "euclidean", "dimension": 5}, "params": params})
    assert main(["green", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert f"error: {key}:" in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())


# V = 4 pi r^3 / 3 on the grid edges overflows at 1e300 and underflows to
# cell volumes of 0 at 1e-300
@pytest.mark.parametrize("r_max", [1e300, 1e-300])
def test_solve_r_max_outside_double_range_is_exit_two(tmp_path, capsys, r_max):
    scn = solve_scenario()
    scn["params"]["r_max"] = r_max
    cfg = write_config(tmp_path, scn)
    assert main(["solve", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: params.r_max:" in err and "Traceback" not in err


# V = 4 pi r^3 / 3 overflows on the sample from r0 = 1e300, or up to a
# sample_max of 1e300
@pytest.mark.parametrize("growth_r0, params, key", [
    (1e300, {}, "growth.r0"),
    (1.0, {"sample_max": 1e300}, "params.sample_max")])
def test_check_sample_outside_double_range_is_exit_two(tmp_path, capsys,
                                                       growth_r0, params, key):
    cfg = write_config(tmp_path, {
        "schema_version": SCHEMA_VERSION, "kind": "check", "name": "c",
        "profile": _EUCLID3, "growth": {**_POWER3, "r0": growth_r0},
        "params": params})
    assert main(["check-assumptions", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {key}:" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "c.csv").exists()


def test_bound_at_one_time_is_nonincreasing(tmp_path):
    # one row: the bound's diff is empty and rises nowhere
    scn = {"schema_version": SCHEMA_VERSION, "kind": "bound", "name": "b1",
           "profile": _EUCLID3, "growth": _POWER3, "m": 2.0,
           "params": {"t_values": [5.0]}}
    assert main(["bound", "--config", str(write_config(tmp_path, scn)),
                 "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "b1.manifest.json").read_text())
    assert manifest["checks"]["nonincreasing"] is True
    assert manifest["margins"]["nonincreasing"] == 1.0


# omega_n leaves double range through Gamma from n = 342 on; V then
# overflows on the profile's check grid, or the power coefficient 1
# exceeds omega_n, as at n = 341
@pytest.mark.parametrize("preset, profile", [
    ("euclidean:400", {"form": "euclidean", "dimension": 400}),
    ("power:400:3", {"form": "power", "dimension": 400, "lam": 3.0}),
], ids=["euclidean", "power"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_huge_dimensions_are_exit_two(tmp_path, capsys, preset, profile):
    assert main(["green", "--profile", preset,
                 "--out-dir", str(tmp_path / "flag")]) == 2
    cfg = write_config(tmp_path, {**green_scenario(), "profile": profile})
    assert main(["green", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "json")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: profile: ") == 2 and "Traceback" not in err
    assert not any((tmp_path / "flag").iterdir())


@pytest.mark.filterwarnings("error")
def test_bound_at_extreme_m_and_t(tmp_path):
    # theta(r0)^(m - 1) leaves double range from about m = 500: the large-time
    # branch never takes over
    assert main(["bound", "--profile", "euclidean:3", "--growth", "power:3",
                 "--m", "1000", "--out-dir", str(tmp_path / "m")]) == 0
    _, rows = read_rows(tmp_path / "m" / "cli-bound.csv")
    assert rows and {row["regime"] for row in rows} == {"small-time"}
    manifest = json.loads((tmp_path / "m" / "cli-bound.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["metrics"]["threshold_time"] == math.inf
    # the radius inversion expands its bracket past double range of V
    assert main(["bound", "--profile", "euclidean:3", "--growth", "power:3",
                 "--m", "2", "--t-max", "1e300",
                 "--out-dir", str(tmp_path / "t")]) == 0
    _, rows = read_rows(tmp_path / "t" / "cli-bound.csv")
    assert float(rows[-1]["t"]) == 1e300 and rows[-1]["regime"] == "large-time"


@pytest.mark.parametrize("argv", [
    ["green", "--profile", "power_log:3:2.1:-0.97"],
    ["green", "--profile", "power_log:3:2.1:-0.9677048587908412"],
    ["bound", "--profile", "power_log:4:3:0.5", "--growth",
     "power_log:2.1:-0.47:2.05", "--m", "2"],
    ["bound", "--profile", "euclidean:3", "--growth",
     "power_log:2.1:-0.46521079706205704:2.053239587408261", "--m", "1.9",
     "--count", "3"],
], ids=["green-sigma-0.97", "green-sigma-0.9677", "bound-b-0.47",
        "bound-b-0.4652"])
def test_slow_far_tails_exit_zero(tmp_path, capsys, argv):
    # nonparabolic, with an integrand decaying only like r^-1.1 times a log
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_slow_far_tail_green_matches_mpmath(tmp_path):
    # G = int_r^inf ds/S on power_log:3:2.1:-0.97, from mpmath in s = log r
    # with breakpoints log r + [0, 5, 20, 60, 200, inf]
    refs = {0.5: 47.0582272075556, 100.0: 41.6160501095666,
            1e9: 16.8518194690776}
    assert main(["green", "--profile", "power_log:3:2.1:-0.97", "--radii",
                 "0.5,100,1e9", "--out-dir", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "cli-green.csv")
    for row, (r, ref) in zip(rows, refs.items()):
        assert float(row["r"]) == r
        assert float(row["green_exact"]) == pytest.approx(ref, rel=1e-9)


def test_solve_verify_with_one_snapshot(tmp_path):
    assert main(["solve", "--profile", "euclidean:3", "--m", "2",
                 "--init", "barenblatt", "--cells", "16", "--tend", "0.001",
                 "--snapshots", "1", "--verify",
                 "--out-dir", str(tmp_path)]) == 0


def test_internal_error_is_exit_three(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("pmegreen.green.GreenData", broken)
    cfg = write_config(tmp_path, green_scenario())
    assert main(["green", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


@pytest.mark.parametrize("path", BUNDLED, ids=[p.stem for p in BUNDLED])
def test_bundled_scenarios_validate(path):
    scn = load_scenario(path)
    res = validate_scenario(scn)
    assert_defaults_filled(scn, res)
    if res["kind"] == "sweep":
        assert res["grid"]
        for overrides, sub, point in res["grid"]:
            assert sub == cli._sweep_point(res["base"], overrides)
            assert point == validate_scenario(sub)
            assert point["kind"] == res["base"]["kind"]


def assert_defaults_filled(scn, res):
    """The resolved copy `res` of `scn` holds every default its runner
    reads, those that depend on other keys included."""
    given, p = scn.get("params", {}), res.get("params", {})
    if res["kind"] == "check":
        r0 = res["growth"]["r0"]
        assert p["sample_min"] == given.get("sample_min", r0)
        assert p["sample_max"] == given.get("sample_max", 1e4 * r0)
    elif res["kind"] == "green":
        assert p["bounds"] == given.get("bounds", res["growth"] is not None)
    elif res["kind"] == "l1g":
        assert p["horizons"] == given.get("horizons",
                                          list(weighted.DEFAULT_HORIZONS))
    for _, sub, point in res["grid"] if res["kind"] == "sweep" else ():
        assert_defaults_filled(sub, point)


_MINIMAL = {**_BASE_SCENARIOS,
            "solve": {"profile": _EUCLID3, "m": 2.0,
                      "params": {"init": {"kind": "barenblatt"}}},
            "sweep": {"base": {"schema_version": SCHEMA_VERSION,
                               "kind": "green", "profile": _EUCLID3},
                      "grid": [{}, {"growth": _POWER3}]}}


@pytest.mark.parametrize("kind", _MINIMAL)
def test_minimal_scenario_resolves_every_default(kind):
    scn = {"schema_version": SCHEMA_VERSION, "kind": kind,
           **copy.deepcopy(_MINIMAL[kind])}
    raw = copy.deepcopy(scn)
    assert_defaults_filled(raw, validate_scenario(scn))
    assert scn == raw  # the defaults go into the resolved copy only


def test_check_honours_sample_points(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": SCHEMA_VERSION, "kind": "check", "name": "c5",
        "profile": _EUCLID3, "growth": _POWER3,
        "params": {"sample_points": 5}})
    assert main(["check-assumptions", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "c5.csv")
    assert len(rows) == 5


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() |
    st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3) |
                   st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


@st.composite
def _mutated_scenarios(draw):
    """A bundled scenario with up to three keys set to arbitrary JSON."""
    scn = copy.deepcopy(draw(st.sampled_from(
        [json.loads(p.read_text(encoding="utf-8")) for p in BUNDLED])))
    for _ in range(draw(st.integers(1, 3))):
        node = scn
        while True:
            nested = sorted(k for k, v in node.items() if isinstance(v, dict))
            if not nested or draw(st.booleans()):
                break
            node = node[draw(st.sampled_from(nested))]
        key = draw(st.sampled_from(sorted(node)) | st.text(max_size=6)
                   if node else st.text(max_size=6))
        node[key] = draw(_JSON)
    return scn


@given(_mutated_scenarios() | st.dictionaries(st.text(max_size=6), _JSON))
@settings(max_examples=300, deadline=None)
def test_validate_scenario_raises_only_config_errors(scn):
    try:
        validate_scenario(scn)
    except ConfigError:
        pass


_BAD_TEXT = st.sampled_from(["0", "-1", "nan", "inf", "1e400", "x", ""])


def _rarely(usual, odd):
    """Draws from `odd` about one time in twenty, else from `usual` (an
    inner value picks `odd`: Hypothesis favours the ends of a range)."""
    return st.integers(0, 19).flatmap(lambda i: odd if i == 7 else usual)


def _number_text(lo, hi):
    """Text of a number in [lo, hi], now and then of a bad one."""
    return _rarely(st.floats(lo, hi).map(repr), _BAD_TEXT)


def _count_text(lo, hi):
    return _rarely(st.integers(lo, hi).map(str), _BAD_TEXT)


# value text of each flag (without its dashes) and preset key; sizes stay
# small so that a drawn run is short
_TEXT = {
    "radii": st.lists(_number_text(-1.0, 100.0), min_size=1,
                      max_size=4).map(",".join),
    "exponents": st.lists(_number_text(-1.0, 8.0), min_size=1,
                          max_size=4).map(",".join),
    "scheme": _rarely(st.sampled_from(["explicit", "implicit"]),
                      st.just("rk4")),
    "boundary": _rarely(st.sampled_from(["absorbing", "zero_flux"]),
                        st.just("open")),
    "m": _number_text(1.2, 4.0),
    "t-min": _number_text(0.5, 100.0), "t-max": _number_text(0.5, 1e4),
    "norm1": _number_text(0.1, 10.0), "mass": _number_text(0.1, 10.0),
    "eps": _number_text(0.2, 2.0), "rmax": _number_text(2.0, 20.0),
    "tend": _number_text(1e-3, 0.5), "t-end": _number_text(1e-3, 0.5),
    "count": _count_text(1, 8), "snapshots": _count_text(1, 8),
    "n-snapshots": _count_text(2, 8), "cells": _count_text(4, 64),
    "dimension": _rarely(st.integers(3, 6).map(str),
                         st.sampled_from(["1", "2", "0", "x"])),
    "lam": _number_text(2.1, 6.0), "coeff": _number_text(0.1, 5.0),
    "sigma": _number_text(-1.0, 2.0), "k": _number_text(2.1, 6.0),
    "b": _number_text(-1.0, 1.0), "r0": _number_text(1.0, 3.0),
    "a": _number_text(-1.0, 4.0),
    "path": st.sampled_from(["no-such-table.csv", "", "a:b"]),
}
# the text of a preset key that _TEXT does not name, such as the param of a
# newly tabled form
_ANY_NUMBER = _number_text(-1.0, 10.0)
# flags every drawn run of these commands sets, to keep it small
_SIZE_FLAGS = {"solve": ("--cells", "--tend"),
               "optimality": ("--cells", "--t-end")}


@st.composite
def _preset_text(draw, flag):
    """`form:v1:v2...` for a preset flag: a form of the preset table, which
    for profiles and growths is derived from geometry's form tables, with
    values for its keys, now and then an unknown form or a value too many."""
    _, forms, _ = cli._PRESETS[flag]
    form = draw(_rarely(st.sampled_from(sorted(forms)), st.just("unknown")))
    need, extra = forms.get(form, (["dimension"], []))
    keys = need + extra[:draw(st.integers(0, len(extra)))]
    keys += draw(_rarely(st.just([]), st.just(["lam"])))  # one too many
    return ":".join([form, *(draw(_TEXT.get(key, _ANY_NUMBER))
                             for key in keys)])


@st.composite
def _flag_argv(draw):
    """argv for one command of the flag path, from the _COMMANDS table; a
    flag is left out now and then."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for flag in cli._COMMANDS[command].split():
        if (flag not in _SIZE_FLAGS.get(command, ())
                and draw(_rarely(st.just(False), st.just(True)))):
            continue
        if cli._FLAGS[flag] is None:
            argv.append(flag)
        elif flag[2:] in cli._PRESETS:
            argv += [flag, draw(_preset_text(flag[2:]))]
        else:
            argv += [flag, draw(_TEXT[flag[2:]])]
    if draw(st.booleans()):
        argv += ["--tolerance-profile", draw(_rarely(
            st.sampled_from(["default", "strict"]), st.just("loose")))]
    return argv


@given(_flag_argv())
@settings(max_examples=150, deadline=None)
def test_flag_path_exits_cleanly(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv + ["--out-dir", out])
        except SystemExit as exc:  # argparse rejects the flag itself
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def load_runner():
    """scripts/run_scenarios.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "run_scenarios", SCRIPTS / "run_scenarios.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def run_bundled(out: Path, capsys, *flags) -> tuple:
    """The stdout lines of run_scenarios.py on the bundled scenarios, and
    every manifest it wrote, by name."""
    assert load_runner().main(["--out-dir", str(out), *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, {p.name: json.loads(p.read_text(encoding="utf-8"))
                   for p in out.glob("*.manifest.json")}


def test_bundled_manifests_state_a_margin_per_check(tmp_path, capsys):
    lines, manifests = run_bundled(tmp_path / "default", capsys)
    # 7 scenarios, one of them a sweep of 3 points
    assert len(lines) == len(BUNDLED) and len(manifests) == 10
    for name, manifest in manifests.items():
        checks, margins = manifest["checks"], manifest["margins"]
        assert checks and margins.keys() == checks.keys(), name
        for key, margin in margins.items():
            assert math.isfinite(margin), (name, key)
            assert checks[key] == (margin >= 0.0), (name, key)
        assert manifest["passed"] == all(checks.values())
    # each line ends in its scenario's least margin and that check's name
    for line, path in zip(lines, BUNDLED):
        margins = manifests[f"{path.stem}.manifest.json"]["margins"]
        least = min(margins, key=margins.get)
        assert line.endswith(f" margin {margins[least]:.3g} ({least})")


def test_strict_tolerances_shrink_the_optimality_margins(tmp_path, capsys):
    name = "optimality-k3-m2.manifest.json"
    margins = {profile: run_bundled(
        tmp_path / profile, capsys, "--only", "optimality-k3-m2",
        "--tolerance-profile", profile)[1][name]["margins"]
        for profile in ("default", "strict")}
    for key in ("slope", "band", "l1_error"):
        assert 0.0 <= margins["strict"][key] < margins["default"][key], key


def test_run_scenarios_reports_config_errors(tmp_path, monkeypatch, capsys):
    runner = load_runner()
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    write_config(scenarios, {**green_scenario("bad"), "seed": 7}, "bad.json")
    write_config(scenarios, green_scenario("good"), "good.json")
    write_config(scenarios, {
        "schema_version": SCHEMA_VERSION, "kind": "sweep", "name": "swept",
        "base": green_scenario("unused"),
        "grid": [{"profile.form": "power", "profile.lam": 1.5}]},
        "swept.json")
    monkeypatch.setattr(runner, "SCENARIO_DIR", scenarios)
    assert runner.main(["--out-dir", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL (exit 2)" in lines[0] and "unknown key 'seed'" in lines[0]
    assert lines[2].startswith("swept") and "FAIL (exit 2)" in lines[2]
    assert (tmp_path / "out" / "good.csv").exists()
    assert (tmp_path / "out" / "swept.csv").exists()


@pytest.mark.parametrize("argv", [
    ["green", "--profile", "power_log:4:3:0.5", "--growth",
     "power_log:3:0.5:2"],
    ["bound", "--profile", "power_log:4:3:0.5", "--growth",
     "power_log:3:0.5:2", "--m", "2", "--count", "5"],
    ["l1g", "--profile", "power_log:4:3:0.5", "--exponents", "2.5"],
], ids=["green", "bound", "l1g"])
def test_a_run_leaves_no_tables_for_the_collector(tmp_path, argv):
    # every table a run builds dies by reference count when the run ends,
    # so peak memory does not wait on the cyclic collector
    def tables():
        return sum(isinstance(x, pg.numerics.TailTable)
                   for x in gc.get_objects())

    gc.collect()
    before = tables()
    gc.disable()
    try:
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert tables() == before
    finally:
        gc.enable()
