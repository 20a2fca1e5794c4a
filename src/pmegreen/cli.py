"""Scenario runner: declarative JSON configs, CSV/manifest outputs.

Scenarios are strict JSON (schema version 1, unknown keys rejected with the
dotted path of the offender). Every run writes a CSV of rows plus a manifest
echoing the resolved config, the library version and the headline metrics.
Numeric CSV fields are printed with 17 significant digits so reruns diff
clean. Exit codes: 0 all checks pass, 1 a check failed, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import (GrowthError, ProfileError, check_assumptions,
                       make_growth, make_profile)
from .green import GreenData, green_bounds
from .numerics import loglog_slope
from .smoothing import SmoothingBound, smoothing_bound_l1g
from .solver import (BarenblattParams, RadialGrid, barenblatt_datum,
                     optimality_harness, run_pme, verify_solution_estimates)
from .weighted import powerlaw_classify

SCHEMA_VERSION = 1

TOLERANCE_PROFILES = {
    "default": {"tau": 0.02, "slope_tol": 0.05, "band_limit": 1.3,
                "l1_limit": 1e-2, "rel": 1e-8},
    "strict": {"tau": 0.01, "slope_tol": 0.03, "band_limit": 1.2,
               "l1_limit": 5e-3, "rel": 1e-10},
}


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


# Allowed keys, by nesting level. A value of None means "scalar or list";
# a dict restricts the keys of a nested object.
_PROFILE_KEYS = {"form": None, "dimension": None, "lam": None, "coeff": None,
                 "sigma": None, "radii": None, "volumes": None}
_GROWTH_KEYS = {"form": None, "r0": None, "params": {"k": None, "b": None}}
_FAMILY_KEYS = {"type": None, "k": None, "delta": None, "lam": None,
                "sigma": None}
_INIT_KEYS = {"kind": None, "mass": None, "bracket": None, "eps": None,
              "a": None, "path": None}
_PARAMS_BY_KIND = {
    "check": {"sample_min": None, "sample_max": None, "sample_points": None},
    "green": {"radii": None, "r_min": None, "r_max": None, "count": None,
              "use_surrogate": None, "c1": None, "c2": None, "bounds": None},
    "l1g": {"exponents": None, "horizons": None, "rel_threshold": None},
    "bound": {"t_min": None, "t_max": None, "count": None, "t_values": None,
              "norm1": None, "norm_green": None, "family": _FAMILY_KEYS,
              "fit": None},
    "solve": {"init": _INIT_KEYS, "r_max": None, "cells": None,
              "scheme": None, "boundary": None, "t_end": None,
              "snapshots": None, "cfl": None, "implicit_dt": None,
              "verify": None, "tau": None, "emit_profiles": None},
    "optimality": {"dimension": None, "mass": None, "eps": None,
                   "cells": None, "r_max": None, "t_end": None,
                   "n_snapshots": None, "fit_window": None,
                   "slope_tol": None, "band_limit": None, "l1_limit": None},
    "sweep": {},  # sweep carries base + grid at the top level
}
_TOP_KEYS = {"schema_version": None, "name": None, "kind": None,
             "profile": _PROFILE_KEYS, "growth": _GROWTH_KEYS, "m": None,
             "seed": None, "params": "BY_KIND", "output":
             {"csv": None, "profiles_csv": None},
             "base": "SCENARIO", "grid": None}


def _validate_keys(obj, spec, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key, val in obj.items():
        if key not in spec:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where!r}")
        sub = spec[key]
        if isinstance(sub, dict) and isinstance(val, dict):
            _validate_keys(val, sub, f"{path}.{key}" if path else key)
        elif isinstance(sub, dict) and val is not None:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"{where}: expected an object")


def validate_scenario(scn: dict, path: str = "") -> None:
    spec = dict(_TOP_KEYS)
    kind = scn.get("kind")
    if kind == "sweep":
        spec.pop("params")
    else:
        spec.pop("base")
        spec.pop("grid")
    for key, val in scn.items():
        if key not in spec:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where!r}")
        sub = spec[key]
        if sub == "BY_KIND":
            if kind not in _PARAMS_BY_KIND:
                raise ConfigError(f"{path or 'config'}: unknown kind {kind!r}")
            _validate_keys(val, _PARAMS_BY_KIND[kind],
                           f"{path}.params" if path else "params")
        elif sub == "SCENARIO":
            if not isinstance(val, dict):
                raise ConfigError("base: expected an object")
            validate_scenario(val, f"{path}.base" if path else "base")
        elif isinstance(sub, dict):
            _validate_keys(val, sub, f"{path}.{key}" if path else key)
    if scn.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    if kind not in _PARAMS_BY_KIND:
        raise ConfigError(f"unknown kind {kind!r}")


def load_scenario(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        scn = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(scn, dict):
        raise ConfigError(f"{path}: top level must be an object")
    validate_scenario(scn)
    if "name" not in scn:
        scn["name"] = path.stem
    return scn


def _resolve_profile(desc):
    if desc is None:
        raise ConfigError("scenario needs a profile descriptor")
    desc = dict(desc)
    form = desc.pop("form", None)
    if form == "warped":
        raise ConfigError("warped profiles need a callable; use the library "
                          "API instead of the CLI")
    spec = {"form": form, "dimension": desc.pop("dimension", None)}
    radii = desc.pop("radii", None)
    volumes = desc.pop("volumes", None)
    if radii is not None or volumes is not None:
        if radii is None or volumes is None:
            raise ConfigError("profile: tabulated form needs both radii and "
                              "volumes")
        spec["table"] = np.column_stack([np.asarray(radii, dtype=float),
                                         np.asarray(volumes, dtype=float)])
    if desc:
        spec["params"] = desc  # remaining keys are form-specific parameters
    try:
        return make_profile(spec)
    except (ProfileError, ValueError, TypeError) as exc:
        raise ConfigError(f"profile: {exc}") from exc


def _resolve_growth(desc):
    if desc is None:
        return None
    try:
        return make_growth(form=desc.get("form"),
                           params=desc.get("params", {}),
                           r0=desc.get("r0", 1.0))
    except (GrowthError, ValueError, TypeError) as exc:
        raise ConfigError(f"growth: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def _jsonable(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_manifest(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# scenario runners: each returns {columns, rows, metrics, checks, passed}

def _run_check(scn, tol):
    profile = _resolve_profile(scn.get("profile"))
    growth = _resolve_growth(scn.get("growth"))
    if growth is None:
        raise ConfigError("kind 'check' needs a growth descriptor")
    p = scn.get("params", {})
    sample = None
    if "sample_min" in p or "sample_max" in p:
        sample = np.geomspace(p.get("sample_min", growth.r0),
                              p.get("sample_max", 1e4 * growth.r0),
                              int(p.get("sample_points", 96)))
    report = check_assumptions(profile, growth, sample=sample)
    rows = [{"r": float(r),
             "volume": float(profile.volume(r)),
             "area": float(profile.area(r)),
             "growth_ratio": float(r * growth.rate(r) / profile.volume(r))}
            for r in report.sample]
    metrics = {"alpha_noncollapse": report.alpha_noncollapse,
               "gamma_uniformity": report.gamma_uniformity,
               "beta": report.beta,
               "doubling_constant": report.doubling_constant}
    checks = {"bishop_gromov": report.bishop_gromov_ok,
              "euclidean_bound": report.euclidean_bound_ok,
              "all_assumptions": report.passed}
    return {"columns": ["r", "volume", "area", "growth_ratio"], "rows": rows,
            "metrics": metrics, "checks": checks, "passed": report.passed}


def _green_radii(p):
    if "radii" in p:
        return np.asarray(p["radii"], dtype=float)
    return np.geomspace(float(p.get("r_min", 0.5)),
                        float(p.get("r_max", 100.0)),
                        int(p.get("count", 25)))


def _run_green(scn, tol):
    profile = _resolve_profile(scn.get("profile"))
    growth = _resolve_growth(scn.get("growth"))
    p = scn.get("params", {})
    radii = _green_radii(p)
    want_bounds = bool(p.get("bounds", growth is not None))
    columns = ["r", "green_exact", "green_surrogate", "ratio"]
    checks = {}
    metrics = {}
    if want_bounds:
        if growth is None:
            raise ConfigError("green bounds need a growth descriptor")
        report = green_bounds(profile, growth, radii,
                              use_surrogate=bool(p.get("use_surrogate", True)),
                              c1=p.get("c1"), c2=p.get("c2"))
        columns += ["lower_far", "upper_tail", "upper_near",
                    "lower_ok", "tail_ok", "near_ok"]
        g_exact, g_surr = report.green_values, report.surrogate_values
        checks["bounds_hold"] = bool(report.all_ok)
        metrics["c1"] = report.c1
        metrics["c2"] = report.c2
    else:
        gd = GreenData(profile)
        g_exact, g_surr = gd.exact(radii), gd.surrogate(radii)
    rows = []
    for i, r in enumerate(radii):
        ge, gs = float(g_exact[i]), float(g_surr[i])
        row = {"r": float(r), "green_exact": ge, "green_surrogate": gs,
               "ratio": ge / gs}
        if want_bounds:
            row.update({"lower_far": report.lower_far[i],
                        "upper_tail": report.upper_tail[i],
                        "upper_near": report.upper_near[i],
                        "lower_ok": bool(report.lower_ok[i]),
                        "tail_ok": bool(report.tail_ok[i]),
                        "near_ok": bool(report.near_ok[i])})
        rows.append(row)
    ratios = np.array([row["ratio"] for row in rows])
    metrics["ratio_min"] = float(ratios.min())
    metrics["ratio_max"] = float(ratios.max())
    expected = None
    if profile.form == "euclidean":
        expected = 1.0 / profile.dimension
    elif profile.form == "power":
        expected = 1.0 / profile.params["lam"]
    if expected is not None:
        metrics["ratio_expected"] = expected
        checks["ratio_constant"] = bool(
            np.max(np.abs(ratios - expected)) <= tol["rel"] * expected)
    passed = all(checks.values()) if checks else True
    return {"columns": columns, "rows": rows, "metrics": metrics,
            "checks": checks, "passed": passed}


def _run_l1g(scn, tol):
    profile = _resolve_profile(scn.get("profile"))
    p = scn.get("params", {})
    exponents = p.get("exponents")
    if not exponents:
        raise ConfigError("kind 'l1g' needs params.exponents")
    horizons = tuple(p["horizons"]) if "horizons" in p else None
    rel = float(p.get("rel_threshold", 1e-3))
    green = GreenData(profile)
    rows = []
    all_consistent = True
    for a in exponents:
        kwargs = {"rel_threshold": rel, "green": green}
        if horizons is not None:
            kwargs["horizons"] = horizons
        cls = powerlaw_classify(profile, float(a), **kwargs)
        rows.append({
            "a": float(a), "in_l1": cls.in_l1, "in_l1g": cls.in_l1g,
            "l1_total": cls.l1_diag.total, "l1g_total": cls.l1g_diag.total,
            "l1_converged": cls.l1_diag.converged,
            "l1g_converged": cls.l1g_diag.converged,
            "consistent": cls.consistent})
        all_consistent = all_consistent and cls.consistent
    return {"columns": ["a", "in_l1", "in_l1g", "l1_total", "l1g_total",
                        "l1_converged", "l1g_converged", "consistent"],
            "rows": rows, "metrics": {"alpha_infinity":
                                      profile.alpha_infinity},
            "checks": {"classification_consistent": all_consistent},
            "passed": all_consistent}


def _run_bound(scn, tol):
    profile = _resolve_profile(scn.get("profile"))
    growth = _resolve_growth(scn.get("growth"))
    if growth is None:
        raise ConfigError("kind 'bound' needs a growth descriptor")
    m = scn.get("m")
    if m is None:
        raise ConfigError("kind 'bound' needs the exponent m")
    p = scn.get("params", {})
    norm1 = float(p.get("norm1", 1.0))
    if "t_values" in p:
        ts = np.asarray(p["t_values"], dtype=float)
    else:
        ts = np.geomspace(float(p.get("t_min", 1.0)),
                          float(p.get("t_max", 1e4)),
                          int(p.get("count", 25)))
    bound = SmoothingBound.from_profile(profile, float(m), growth)
    columns = ["t", "regime", "bound_l1"]
    norm_green = p.get("norm_green")
    if norm_green is not None:
        columns.append("bound_l1g")
    rows = []
    for t in ts:
        ev = bound.evaluate_l1(float(t), norm1)
        row = {"t": float(t), "regime": ev.regime, "bound_l1": ev.value}
        if norm_green is not None:
            row["bound_l1g"] = smoothing_bound_l1g(
                float(m), profile.dimension, float(t),
                float(norm_green)).value
        rows.append(row)
    vals = np.array([r["bound_l1"] for r in rows])
    metrics = {"threshold_time": bound.time_threshold(norm1)}
    checks = {"finite_positive": bool(np.all(np.isfinite(vals)) and
                                      np.all(vals > 0.0)),
              "nonincreasing": bool(np.all(np.diff(vals) <=
                                           1e-12 * vals[:-1]))}
    if p.get("fit", False):
        large = ts >= metrics["threshold_time"]
        if np.count_nonzero(large) < 3:
            raise ConfigError("fit requested but fewer than 3 sample times "
                              "sit in the large-time regime")
        slope = loglog_slope(ts[large], vals[large])
        metrics["fitted_slope"] = slope
        lam = None
        if profile.form == "euclidean":
            lam = float(profile.dimension)
        elif profile.form == "power":
            lam = float(profile.params["lam"])
        if lam is not None:
            predicted = -lam / ((float(m) - 1.0) * lam + 2.0)
            metrics["predicted_slope"] = predicted
            checks["slope_matches"] = bool(
                abs(slope - predicted) <= tol["slope_tol"] * abs(predicted))
    passed = all(checks.values())
    return {"columns": columns, "rows": rows, "metrics": metrics,
            "checks": checks, "passed": passed}


def _solve_initial(init, grid):
    kind = init.get("kind")
    if kind == "barenblatt":
        eps = float(init.get("eps", 1.0))
        if "bracket" in init and "mass" in init:
            raise ConfigError("init: give either mass or bracket, not both")
        if "bracket" in init:
            params = BarenblattParams(grid.profile.dimension,
                                      m=float(init.get("_m")),
                                      bracket=float(init["bracket"]), eps=eps)
        else:
            params = BarenblattParams.from_mass(
                grid.profile.dimension, float(init.get("_m")),
                float(init.get("mass", 1.0)), eps=eps)
        return barenblatt_datum(params), params
    if kind == "powerlaw":
        a = float(init["a"])
        return (lambda r: (1.0 + np.asarray(r, dtype=float)) ** (-a)), None
    if kind == "table":
        from scipy.interpolate import PchipInterpolator
        data = np.loadtxt(init["path"], delimiter=",", skiprows=1)
        interp = PchipInterpolator(data[:, 0], data[:, 1], extrapolate=False)
        return (lambda r: np.nan_to_num(interp(np.asarray(r, dtype=float)),
                                        nan=0.0)), None
    raise ConfigError(f"unknown init kind {kind!r}")


def _run_solve(scn, tol, out_dir=None):
    profile = _resolve_profile(scn.get("profile"))
    m = scn.get("m")
    if m is None:
        raise ConfigError("kind 'solve' needs the exponent m")
    p = scn.get("params", {})
    init = dict(p.get("init", {}))
    if not init:
        raise ConfigError("kind 'solve' needs params.init")
    init["_m"] = float(m)
    cells = int(p.get("cells", 400))
    r_max = float(p.get("r_max", 20.0))
    t_end = float(p.get("t_end", 1.0))
    grid = RadialGrid.make(profile, r_max, cells)
    datum, _ = _solve_initial(init, grid)
    n_snap = p.get("snapshots", 10)
    if isinstance(n_snap, list):
        snaps = [float(s) for s in n_snap]
    else:
        snaps = list(np.linspace(0.0, t_end, int(n_snap) + 1)[1:])
    record = run_pme(grid, float(m), datum, t_end=t_end, snapshots=snaps,
                     scheme=str(p.get("scheme", "explicit")),
                     boundary=str(p.get("boundary", "absorbing")),
                     cfl=float(p.get("cfl", 0.4)),
                     implicit_dt=p.get("implicit_dt"))
    green = GreenData(profile)
    l1g_w = grid.cell_weights(
        lambda r: np.where(np.asarray(r) < 1.0, 1.0,
                           np.asarray(green.exact(r), dtype=float)))
    rows = []
    for t, state, out in zip(record.times, record.states, record.outflows):
        rows.append({"t": float(t), "sup_u": float(state.max()),
                     "mass": float(np.sum(state * grid.cell_volumes)),
                     "outflow": float(out),
                     "l1g_norm": float(np.sum(state * l1g_w))})
    metrics = {"mass_defect": record.mass_defect(), "steps": record.steps,
               "cells": cells}
    checks = {"mass_conserved": record.mass_defect() <= 1e-10,
              "positivity": bool(min(float(s.min())
                                     for s in record.states) >= 0.0)}
    if p.get("verify", False):
        report = verify_solution_estimates(record, green=green,
                                           tau=float(p.get("tau",
                                                           tol["tau"])))
        for chk in report.checks:
            checks[f"estimate_{chk.name}"] = chk.passed(report.tau)
        metrics["max_estimate_violation"] = report.max_violation
    result = {"columns": ["t", "sup_u", "mass", "outflow", "l1g_norm"],
              "rows": rows, "metrics": metrics, "checks": checks,
              "passed": all(checks.values())}
    if p.get("emit_profiles", False) and out_dir is not None:
        prof_cols = ["r"] + [f"u_t{i}" for i in range(len(record.times))]
        prof_rows = []
        for j, r in enumerate(grid.centers):
            row = {"r": float(r)}
            for i, state in enumerate(record.states):
                row[f"u_t{i}"] = float(state[j])
            prof_rows.append(row)
        name = scn.get("output", {}).get("profiles_csv",
                                         f"{scn['name']}_profiles.csv")
        write_csv(out_dir / name, prof_cols, prof_rows)
        result["profiles_csv"] = name
    return result


def _run_optimality(scn, tol):
    p = scn.get("params", {})
    m = scn.get("m")
    if m is None:
        raise ConfigError("kind 'optimality' needs the exponent m")
    dimension = int(p.get("dimension", 3))
    fit_window = p.get("fit_window")
    report = optimality_harness(
        dimension=dimension, m=float(m), mass=float(p.get("mass", 1.0)),
        eps=float(p.get("eps", 1.0)), cells=int(p.get("cells", 2000)),
        r_max=float(p.get("r_max", 20.0)), t_end=float(p.get("t_end", 10.0)),
        n_snapshots=int(p.get("n_snapshots", 25)),
        fit_window=tuple(fit_window) if fit_window else None)
    rows = [{"t_abs": float(t), "sup_u": float(s), "sup_scaled": float(sc),
             "bound_l1": float(b), "bound_regime": reg}
            for t, s, sc, b, reg in zip(report.times_abs, report.sup_values,
                                        report.sup_scaled,
                                        report.bound_values,
                                        report.bound_regimes)]
    slope_tol = float(p.get("slope_tol", tol["slope_tol"]))
    band_limit = float(p.get("band_limit", tol["band_limit"]))
    l1_limit = float(p.get("l1_limit", tol["l1_limit"]))
    metrics = {"fitted_slope": report.slope,
               "expected_slope": report.expected_slope,
               "band_ratio": report.band_ratio,
               "l1_error_final": report.l1_error_final,
               "mass_defect": report.mass_defect,
               "steps": report.steps}
    checks = {"slope": abs(report.slope - report.expected_slope) <= slope_tol,
              "band": report.band_ratio <= band_limit,
              "l1_error": report.l1_error_final <=
              l1_limit * float(p.get("mass", 1.0)),
              "mass_conserved": report.mass_defect <= 1e-10}
    return {"columns": ["t_abs", "sup_u", "sup_scaled", "bound_l1",
                        "bound_regime"], "rows": rows, "metrics": metrics,
            "checks": checks, "passed": all(checks.values())}


def _merge_override(base: dict, dotted: str, value):
    parts = dotted.split(".")
    node = base
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"grid override {dotted!r} crosses a scalar")
    node[parts[-1]] = value


def _expand_grid(grid):
    if isinstance(grid, list):
        return [dict(point) for point in grid]
    if isinstance(grid, dict):
        keys = list(grid.keys())
        combos = itertools.product(*(grid[k] for k in keys))
        return [dict(zip(keys, combo)) for combo in combos]
    raise ConfigError("grid must be a list of overrides or a mapping of "
                      "lists")


def _run_sweep(scn, tol, out_dir):
    base = scn.get("base")
    if not isinstance(base, dict):
        raise ConfigError("kind 'sweep' needs a base scenario")
    points = _expand_grid(scn.get("grid", []))
    jobs = []
    for i, overrides in enumerate(points):
        sub = json.loads(json.dumps(base))
        for dotted, value in overrides.items():
            _merge_override(sub, dotted, value)
        sub.setdefault("schema_version", SCHEMA_VERSION)
        sub["name"] = f"{scn['name']}-{i:03d}"
        validate_scenario(sub)
        jobs.append((i, overrides, sub))

    def _one(sub):
        try:
            result = _dispatch(sub, tol, out_dir)
            _emit(sub, result, out_dir)
            return {"error": "", "result": result}
        except ConfigError as exc:
            return {"error": str(exc), "result": None}
        except Exception as exc:  # recorded per row, not fatal to the sweep
            return {"error": f"{type(exc).__name__}: {exc}", "result": None}

    outcomes = [_one(sub) for _, _, sub in jobs]

    grid_keys = sorted({k for _, overrides, _ in jobs for k in overrides})
    metric_keys = []
    for outcome in outcomes:
        if outcome["result"] is not None:
            metric_keys = sorted(outcome["result"]["metrics"].keys())
            break
    columns = (["index", "name"] + grid_keys + metric_keys +
               ["passed", "error"])
    rows = []
    all_ok = True
    for (i, overrides, sub), outcome in zip(jobs, outcomes):
        row = {"index": i, "name": sub["name"], "passed": False, "error":
               outcome["error"]}
        for k in grid_keys:
            row[k] = overrides.get(k, "")
        for k in metric_keys:
            row[k] = ""
        if outcome["result"] is not None:
            for k in metric_keys:
                row[k] = outcome["result"]["metrics"].get(k, "")
            row["passed"] = outcome["result"]["passed"]
        all_ok = all_ok and bool(row["passed"]) and not outcome["error"]
        rows.append(row)
    return {"columns": columns, "rows": rows,
            "metrics": {"points": len(rows)},
            "checks": {"all_rows_passed": all_ok}, "passed": all_ok}


def _dispatch(scn, tol, out_dir):
    kind = scn["kind"]
    if kind == "check":
        return _run_check(scn, tol)
    if kind == "green":
        return _run_green(scn, tol)
    if kind == "l1g":
        return _run_l1g(scn, tol)
    if kind == "bound":
        return _run_bound(scn, tol)
    if kind == "solve":
        return _run_solve(scn, tol, out_dir)
    if kind == "optimality":
        return _run_optimality(scn, tol)
    if kind == "sweep":
        return _run_sweep(scn, tol, out_dir)
    raise ConfigError(f"unknown kind {kind!r}")


def _emit(scn, result, out_dir: Path) -> None:
    csv_name = scn.get("output", {}).get("csv", f"{scn['name']}.csv")
    write_csv(out_dir / csv_name, result["columns"], result["rows"])
    manifest = {"schema_version": SCHEMA_VERSION,
                "library_version": __version__,
                "name": scn["name"], "kind": scn["kind"],
                "config": {k: v for k, v in scn.items()},
                "outputs": {"csv": csv_name},
                "metrics": result["metrics"], "checks": result["checks"],
                "passed": result["passed"]}
    if "profiles_csv" in result:
        manifest["outputs"]["profiles"] = result["profiles_csv"]
    write_manifest(out_dir / f"{scn['name']}.manifest.json", manifest)


def run_scenario(config_path, out_dir=None,
                 tolerance_profile: str = "default") -> int:
    """Execute one scenario file; returns the process exit code."""
    scn = load_scenario(Path(config_path))
    tol = TOLERANCE_PROFILES[tolerance_profile]
    out = Path(out_dir) if out_dir else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    result = _dispatch(scn, tol, out)
    _emit(scn, result, out)
    return 0 if result["passed"] else 1


# ---------------------------------------------------------------------------
# flag-driven scenario builders

def _parse_profile_flag(text: str) -> dict:
    parts = text.split(":")
    form = parts[0]
    if form == "euclidean":
        if len(parts) != 2:
            raise ConfigError("--profile euclidean:<dimension>")
        return {"form": "euclidean", "dimension": int(parts[1])}
    if form == "power":
        if len(parts) not in (3, 4):
            raise ConfigError("--profile power:<dimension>:<lam>[:<coeff>]")
        desc = {"form": "power", "dimension": int(parts[1]),
                "lam": float(parts[2])}
        if len(parts) == 4:
            desc["coeff"] = float(parts[3])
        return desc
    if form == "power_log":
        if len(parts) != 4:
            raise ConfigError("--profile power_log:<dimension>:<lam>:<sigma>")
        return {"form": "power_log", "dimension": int(parts[1]),
                "lam": float(parts[2]), "sigma": float(parts[3])}
    raise ConfigError(f"unknown profile preset {text!r}")


def _parse_growth_flag(text: str) -> dict:
    parts = text.split(":")
    form = parts[0]
    if form == "power":
        if len(parts) not in (2, 3):
            raise ConfigError("--growth power:<k>[:<r0>]")
        desc = {"form": "power", "params": {"k": float(parts[1])}}
        if len(parts) == 3:
            desc["r0"] = float(parts[2])
        return desc
    if form == "power_log":
        if len(parts) not in (3, 4):
            raise ConfigError("--growth power_log:<k>:<b>[:<r0>]")
        desc = {"form": "power_log",
                "params": {"k": float(parts[1]), "b": float(parts[2])}}
        if len(parts) == 4:
            desc["r0"] = float(parts[3])
        return desc
    raise ConfigError(f"unknown growth preset {text!r}")


def _parse_init_flag(text: str) -> dict:
    parts = text.split(":")
    if parts[0] == "barenblatt":
        init = {"kind": "barenblatt"}
        if len(parts) >= 2:
            init["mass"] = float(parts[1])
        if len(parts) >= 3:
            init["eps"] = float(parts[2])
        return init
    if parts[0] == "powerlaw" and len(parts) == 2:
        return {"kind": "powerlaw", "a": float(parts[1])}
    if parts[0] == "table" and len(parts) >= 2:
        return {"kind": "table", "path": ":".join(parts[1:])}
    raise ConfigError(f"unknown init {text!r}")


def _scenario_from_flags(args) -> dict:
    scn = {"schema_version": SCHEMA_VERSION, "kind": args.command,
           "name": f"cli-{args.command}", "params": {}}
    if getattr(args, "profile", None):
        scn["profile"] = _parse_profile_flag(args.profile)
    if getattr(args, "growth", None):
        scn["growth"] = _parse_growth_flag(args.growth)
    if getattr(args, "m", None) is not None:
        scn["m"] = args.m
    p = scn["params"]
    if args.command == "green" and getattr(args, "radii", None):
        p["radii"] = [float(x) for x in args.radii.split(",")]
    if args.command == "l1g" and getattr(args, "exponents", None):
        p["exponents"] = [float(x) for x in args.exponents.split(",")]
    if args.command == "bound":
        for key in ("t_min", "t_max", "count", "norm1"):
            val = getattr(args, key, None)
            if val is not None:
                p[key] = val
        if getattr(args, "fit", False):
            p["fit"] = True
    if args.command == "solve":
        if not getattr(args, "init", None):
            raise ConfigError("solve needs --init")
        p["init"] = _parse_init_flag(args.init)
        for flag, key in (("rmax", "r_max"), ("cells", "cells"),
                          ("scheme", "scheme"), ("tend", "t_end"),
                          ("snapshots", "snapshots"),
                          ("boundary", "boundary")):
            val = getattr(args, flag, None)
            if val is not None:
                p[key] = val
        if getattr(args, "verify", False):
            p["verify"] = True
    if args.command == "optimality":
        for key in ("dimension", "mass", "eps", "cells", "t_end",
                    "n_snapshots"):
            val = getattr(args, key, None)
            if val is not None:
                p[key] = val
        if getattr(args, "rmax", None) is not None:
            p["r_max"] = args.rmax
    validate_scenario(scn)
    return scn


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmegreen",
        description="Green-function verification experiments for the porous "
                    "medium equation on radial model geometries.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="JSON scenario file (overrides direct flags)")
    common.add_argument("--out-dir", type=str, default=None)
    common.add_argument("--tolerance-profile", type=str, default="default",
                        choices=sorted(TOLERANCE_PROFILES))
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check-assumptions", parents=[common])
    pc.add_argument("--profile", type=str)
    pc.add_argument("--growth", type=str)

    pg = sub.add_parser("green", parents=[common])
    pg.add_argument("--profile", type=str)
    pg.add_argument("--growth", type=str)
    pg.add_argument("--radii", type=str)

    pl = sub.add_parser("l1g", parents=[common])
    pl.add_argument("--profile", type=str)
    pl.add_argument("--exponents", type=str)

    pb = sub.add_parser("bound", parents=[common])
    pb.add_argument("--profile", type=str)
    pb.add_argument("--growth", type=str)
    pb.add_argument("--m", type=float)
    pb.add_argument("--t-min", dest="t_min", type=float)
    pb.add_argument("--t-max", dest="t_max", type=float)
    pb.add_argument("--count", type=int)
    pb.add_argument("--norm1", type=float)
    pb.add_argument("--fit", action="store_true")

    ps = sub.add_parser("solve", parents=[common])
    ps.add_argument("--profile", type=str)
    ps.add_argument("--m", type=float)
    ps.add_argument("--init", type=str)
    ps.add_argument("--rmax", type=float)
    ps.add_argument("--cells", type=int)
    ps.add_argument("--scheme", type=str, choices=["explicit", "implicit"])
    ps.add_argument("--boundary", type=str,
                    choices=["absorbing", "zero_flux"])
    ps.add_argument("--tend", type=float)
    ps.add_argument("--snapshots", type=int)
    ps.add_argument("--verify", action="store_true")

    po = sub.add_parser("optimality", parents=[common])
    po.add_argument("--m", type=float)
    po.add_argument("--dimension", type=int)
    po.add_argument("--mass", type=float)
    po.add_argument("--eps", type=float)
    po.add_argument("--cells", type=int)
    po.add_argument("--rmax", type=float)
    po.add_argument("--t-end", dest="t_end", type=float)
    po.add_argument("--n-snapshots", dest="n_snapshots", type=int)

    pw = sub.add_parser("sweep", parents=[common])
    return parser


_CMD_TO_KIND = {"check-assumptions": "check"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command = _CMD_TO_KIND.get(args.command, args.command)
    try:
        if args.config:
            return run_scenario(args.config, out_dir=args.out_dir,
                                tolerance_profile=args.tolerance_profile)
        if args.command == "sweep":
            raise ConfigError("sweep needs --config")
        scn = _scenario_from_flags(args)
        tol = TOLERANCE_PROFILES[args.tolerance_profile]
        out = Path(args.out_dir) if args.out_dir else Path.cwd()
        out.mkdir(parents=True, exist_ok=True)
        result = _dispatch(scn, tol, out)
        _emit(scn, result, out)
        return 0 if result["passed"] else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
