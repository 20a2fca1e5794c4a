"""Scenario runner: declarative JSON configs, CSV/manifest outputs.

Scenarios are strict JSON (schema version 1): one spec per kind gives every
key its type, range and default, and a bad key or value is rejected with its
dotted path before any work starts. Every run writes a CSV of rows plus a
manifest echoing the input config, the library version and the headline
metrics; numeric CSV fields carry 17 significant digits so reruns diff clean.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage/config error,
3 internal error (traceback on stderr).
"""
from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import math
import re
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import (GROWTH_FORMS, NUMBER, NUMBERS, PROFILE_FORMS,
                       GrowthError, ProfileError, check_assumptions,
                       make_growth, make_profile)
from .green import ParabolicProfileError, green_bounds
from .numerics import Check, Hermite, loglog_slope, max_rise, pchip_slopes
from .smoothing import (DomainError, SmoothingBound, decay_exponent,
                        smoothing_bound_l1g)
from .solver import (BarenblattParams, RadialGrid, barenblatt_datum,
                     optimality_harness, run_pme, verify_solution_estimates)
from .weighted import (DEFAULT_HORIZONS, powerlaw_classify,
                       volume_growth_exponent)

SCHEMA_VERSION = 1

# the one source of every verdict limit that is not exact, by name: the
# --tolerance-profile that each manifest records
TOLERANCE_PROFILES = {
    "default": {"tau": 0.02, "slope_tol": 0.05, "band_limit": 1.3,
                "l1_limit": 1e-2, "rel": 1e-8},
    "strict": {"tau": 0.01, "slope_tol": 0.03, "band_limit": 1.2,
               "l1_limit": 5e-3, "rel": 1e-10},
}


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# scenario spec: each key maps to (check, default). A check takes the value
# and its dotted path and returns the value to use; a default is a value
# (passed through the check), _REQUIRED, or _OPTIONAL (absent stays absent).

_REQUIRED = object()
_OPTIONAL = object()


def _join(path, key):
    return f"{path}.{key}" if path else key


def _num(gt=None, ge=None, le=None, integer=False):
    """A finite number, returned as a float; with integer=True an int, where
    an integral float such as 400.0 counts as one."""
    def check(v, where):
        if integer and isinstance(v, float) and v.is_integer():
            v = int(v)
        if (isinstance(v, bool) or not isinstance(v, int if integer else
                                                  (int, float))
                or not abs(v) <= sys.float_info.max):
            what = "an integer" if integer else "a finite number"
            raise ConfigError(f"{where}: expected {what}, got {v!r}")
        if ((gt is not None and v <= gt) or (ge is not None and v < ge) or
                (le is not None and v > le)):
            need = " and ".join(f"{op} {b:g}" for op, b in (
                (">", gt), (">=", ge), ("<=", le)) if b is not None)
            raise ConfigError(f"{where}: {v!r} is out of range (need {need})")
        return v if integer else float(v)
    return check


_int = functools.partial(_num, integer=True)


def _is(typ, what):
    def check(v, where):
        if not isinstance(v, typ):
            raise ConfigError(f"{where}: expected {what}, got {v!r}")
        return v
    return check


def _one_of(*choices):
    def check(v, where):
        if not any(type(v) is type(c) and v == c for c in choices):
            raise ConfigError(f"{where}: expected one of {list(choices)}, "
                              f"got {v!r}")
        return v
    return check


def _list(item, min_len=1, max_len=math.inf):
    def check(v, where):
        if not (isinstance(v, list) and min_len <= len(v) <= max_len):
            size = (f"{min_len} to {max_len}" if max_len < math.inf else
                    f"at least {min_len}")
            raise ConfigError(f"{where}: expected a list of {size} items, "
                              f"got {v!r}")
        return [item(x, f"{where}[{i}]") for i, x in enumerate(v)]
    return check


def _or_none(check):
    return lambda v, where: None if v is None else check(v, where)


class _Obj:
    """A nested object: its own {key: (check, default)} spec, plus an
    optional cross-field rule called as rule(raw, resolved, path)."""

    def __init__(self, spec, rule=None):
        self.spec, self.rule = spec, rule

    def __call__(self, obj, path):
        res = _resolve(obj, self.spec, path)
        if self.rule is not None:
            self.rule(obj, res, path)
        return res


def _resolve(obj, spec, path):
    """Check obj against spec; return a copy with the defaults filled in."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key in obj:
        if key not in spec:
            raise ConfigError(f"unknown key {_join(path, key)!r}")
    out = {}
    for key, (check, default) in spec.items():
        where = _join(path, key)
        if key in obj:
            out[key] = check(obj[key], where)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {where!r}")
        elif default is not _OPTIONAL:
            out[key] = check(default, where)
    return out


_NUM = _num()
_POS = _num(gt=0.0)
_STR = _is(str, "a string")
_BOOL = _is(bool, "a boolean")


# a form's params by their value types in geometry's form tables; a form
# with a param of another type (a callable) is library-only
_VALUE = {NUMBER: _NUM, NUMBERS: _list(_NUM)}
_PROFILE_FRAME = {"form": (_STR, _REQUIRED),
                  "dimension": (_int(ge=3), _REQUIRED)}


def _forms(forms, frame, nest):
    """Spec check and flag preset of a profile or growth, read from a
    geometry form table. The check takes the `frame` keys and the form's
    params, beside them or (nest) under "params". The preset covers the
    forms whose params are all numbers: the required frame keys and params
    in order, then the optional ones."""
    specs, presets = {}, {}
    need = [k for k, (_, d) in frame.items() if d is _REQUIRED and k != "form"]
    extra = [k for k, (_, d) in frame.items() if d is not _REQUIRED]
    for name, (_, required, optional) in forms.items():
        types = {**required, **optional}
        if set(types.values()) <= _VALUE.keys():
            own = {k: (_VALUE[t], _REQUIRED if k in required else _OPTIONAL)
                   for k, t in types.items()}
            specs[name] = _Obj({**frame, "params": (_Obj(own), {})}
                               if nest else {**frame, **own})
        if set(types.values()) <= {NUMBER}:
            presets[name] = ([*need, *required], [*optional, *extra])
    form_of = _one_of(*specs)

    def check(v, where):
        if not isinstance(v, dict):
            raise ConfigError(f"{where}: expected an object")
        if "form" not in v:
            raise ConfigError(f"missing required key {_join(where, 'form')!r}")
        return specs[form_of(v["form"], _join(where, "form"))](v, where)
    return check, ("form", presets, tuple(frame) if nest else None)


_PROFILE, _PROFILE_PRESET = _forms(PROFILE_FORMS, _PROFILE_FRAME, nest=False)
_GROWTH, _GROWTH_PRESET = _forms(GROWTH_FORMS, {
    "form": (_STR, _REQUIRED), "r0": (_num(ge=1.0), 1.0)}, nest=True)


def _init_rule(raw, init, where):
    if "mass" in raw and "bracket" in raw:
        raise ConfigError(f"{where}: give either mass or bracket, not both")
    need = {"powerlaw": "a", "table": "path"}.get(init["kind"])
    if need is not None and need not in init:
        raise ConfigError(f"missing required key {_join(where, need)!r} "
                          f"for kind {init['kind']!r}")


def _snapshots(v, where):
    """A count of equally spaced snapshots, or a list of snapshot times."""
    if isinstance(v, list):
        return _list(_POS, min_len=0)(v, where)
    return _int(ge=1)(v, where)


def _snapshots_rule(raw, p, where):
    if isinstance(p["snapshots"], list) and max(p["snapshots"],
                                                default=0.0) > p["t_end"]:
        raise ConfigError(f"{_join(where, 'snapshots')}: times must lie in "
                          f"(0, t_end] = (0, {p['t_end']:g}]")


def _range_rule(lo, hi, listed):
    """lo <= hi, unless the explicit list `listed` replaces the range."""
    def rule(raw, p, where):
        if listed not in p and p[lo] > p[hi]:
            raise ConfigError(f"{_join(where, lo)}: {p[lo]:g} exceeds "
                              f"{_join(where, hi)} = {p[hi]:g}")
    return rule


def _sample_rule(raw, scn, where):
    # check samples [sample_min, sample_max], by default [r0, 1e4 r0]
    r0, p = scn["growth"]["r0"], scn["params"]
    key = "sample_min" if "sample_min" in p else "sample_max"
    lo = p.setdefault("sample_min", r0)
    hi = p.setdefault("sample_max", 1e4 * r0)
    if not r0 <= lo <= hi:
        raise ConfigError(f"{_join(where, 'params.' + key)}: sample range "
                          f"[{lo:g}, {hi:g}] must be increasing and start at "
                          f"or above growth.r0 = {r0:g}")


def _horizons(v, where):
    # truncation horizons: increasing, past the tails' start r = 1
    hs = _list(_num(gt=1.0), min_len=2)(v, where)
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise ConfigError(f"{where}: expected increasing values, got {v!r}")
    return hs


def _fit_window_rule(raw, p, where):
    # the harness fits on n_snapshots times log-spaced on [eps, eps + t_end]
    if p["fit_window"] is None:
        return
    lo, hi = p["fit_window"]
    with np.errstate(all="ignore"):  # eps + t_end = inf holds no time
        t_abs = np.geomspace(p["eps"], p["eps"] + p["t_end"],
                             p["n_snapshots"])
    if np.count_nonzero((t_abs >= lo - 1e-12) & (t_abs <= hi + 1e-12)) < 2:
        raise ConfigError(
            f"{_join(where, 'fit_window')}: [{lo:g}, {hi:g}] holds fewer than "
            f"2 of the snapshot times on [eps, eps + t_end] = "
            f"[{p['eps']:g}, {p['eps'] + p['t_end']:g}]")


def _grid(v, where):
    """Sweep points: a list of override objects, or an object of lists
    expanded to their cartesian product."""
    if isinstance(v, dict) and all(isinstance(x, list) for x in v.values()):
        return [dict(zip(v, combo))
                for combo in itertools.product(*v.values())]
    if isinstance(v, list) and all(isinstance(x, dict) for x in v):
        return [dict(point) for point in v]
    raise ConfigError(f"{where}: expected a list of override objects or an "
                      "object of lists")


def _sweep_point(base, overrides):
    """The raw base scenario with dotted-key overrides merged in."""
    sub = copy.deepcopy(base)
    for dotted, value in overrides.items():
        *parents, leaf = dotted.split(".")
        node = sub
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"grid override {dotted!r} crosses a scalar")
        node[leaf] = value
    return sub


def _sweep_rule(raw, scn, where):
    # points merge into the raw base; grid -> (overrides, raw, resolved).
    # No two points may write one output file, nor the sweep's own CSV
    base = validate_scenario(scn["base"], _join(where, "base"))
    writer = {scn["output"].get("csv", f"{scn.get('name')}.csv"): None}
    for i, overrides in enumerate(scn["grid"]):
        sub = _sweep_point(scn["base"], overrides)
        res = validate_scenario(sub, _join(where, f"grid[{i}]"))
        scn["grid"][i] = (overrides, sub, res)
        for key, name in res["output"].items():
            if writer.setdefault(name, i) != i:
                at = "base" if base["output"].get(key) == name else f"grid[{i}]"
                who = (f"point {i} writes the sweep's own CSV"
                       if writer[name] is None else
                       f"points {writer[name]} and {i} both write")
                raise ConfigError(
                    f"{_join(where, at)}.output.{key}: sweep {who} {name!r}")


_COMMON = {
    "schema_version": (_one_of(SCHEMA_VERSION), _REQUIRED),
    "kind": (_STR, _REQUIRED), "name": (_STR, _OPTIONAL),
    "output": (_Obj({"csv": (_STR, _OPTIONAL),
                     "profiles_csv": (_STR, _OPTIONAL)}), {})}
_M = (_num(gt=1.0), _REQUIRED)

# kind -> top-level keys besides _COMMON; "params" holds the kind's knobs,
# and TOLERANCE_PROFILES every verdict's limit. A kind's rule fills the
# defaults that depend on other keys: the check sample range from growth.r0.
_SCENARIOS = {kind: _Obj({**_COMMON, **spec}, rule) for kind, spec, rule in (
    ("check", {
        "profile": (_PROFILE, _REQUIRED), "growth": (_GROWTH, _REQUIRED),
        "params": (_Obj({"sample_min": (_POS, _OPTIONAL),
                         "sample_max": (_POS, _OPTIONAL),
                         "sample_points": (_int(ge=2), 96)}), {})},
     _sample_rule),
    ("green", {
        "profile": (_PROFILE, _REQUIRED),
        "growth": (_or_none(_GROWTH), None),
        "params": (_Obj({"radii": (_list(_POS), _OPTIONAL),
                         "r_min": (_POS, 0.5), "r_max": (_POS, 100.0),
                         "count": (_int(ge=1), 25),
                         "use_surrogate": (_BOOL, True)},
                        _range_rule("r_min", "r_max", "radii")), {})},
     None),
    ("l1g", {
        "profile": (_PROFILE, _REQUIRED),
        # horizons: the first truncation schedule; the tail model extends it
        # x10 until the corrected values agree to weighted's CAUCHY_REL, the
        # fit shows divergence, or 1e15
        "params": (_Obj({"exponents": (_list(_NUM), _REQUIRED),
                         "horizons": (_horizons, list(DEFAULT_HORIZONS))}),
                   {})}, None),
    ("bound", {
        "profile": (_PROFILE, _REQUIRED), "growth": (_GROWTH, _REQUIRED),
        "m": _M,
        "params": (_Obj({"t_min": (_POS, 1.0), "t_max": (_POS, 1e4),
                         "count": (_int(ge=1), 25),
                         "t_values": (_list(_POS), _OPTIONAL),
                         "norm1": (_POS, 1.0),
                         "norm_green": (_or_none(_POS), None),
                         "fit": (_BOOL, False)},
                        _range_rule("t_min", "t_max", "t_values")), {})},
     None),
    ("solve", {
        "profile": (_PROFILE, _REQUIRED), "m": _M,
        "params": (_Obj({
            "init": (_Obj({"kind": (_one_of("barenblatt", "powerlaw",
                                            "table"), _REQUIRED),
                           "mass": (_POS, 1.0),
                           "bracket": (_POS, _OPTIONAL),
                           "eps": (_POS, 1.0), "a": (_NUM, _OPTIONAL),
                           "path": (_STR, _OPTIONAL)}, _init_rule),
                     _REQUIRED),
            "r_max": (_POS, 20.0), "cells": (_int(ge=4), 400),
            "scheme": (_one_of("explicit", "implicit"), "explicit"),
            "boundary": (_one_of("absorbing", "zero_flux"), "absorbing"),
            "t_end": (_POS, 1.0), "snapshots": (_snapshots, 10),
            "cfl": (_num(gt=0.0, le=1.0), 0.4),
            "implicit_dt": (_or_none(_POS), None),
            "verify": (_BOOL, False), "emit_profiles": (_BOOL, False)},
            _snapshots_rule), {})}, None),
    ("optimality", {
        "m": _M,
        "params": (_Obj({"dimension": (_int(ge=3), 3), "mass": (_POS, 1.0),
                         "eps": (_POS, 1.0), "cells": (_int(ge=4), 2000),
                         "r_max": (_POS, 20.0), "t_end": (_POS, 10.0),
                         "n_snapshots": (_int(ge=2), 25),
                         "fit_window": (_or_none(_list(_POS, 2, 2)), None)},
                        _fit_window_rule), {})}, None),
    ("sweep", {"base": (_is(dict, "an object"), _REQUIRED),
               "grid": (_grid, [])},
     _sweep_rule))}


def validate_scenario(scn: dict, path: str = "") -> dict:
    """Check a scenario against its kind's spec and return a resolved copy
    with every default filled in; raise ConfigError on bad input."""
    if not isinstance(scn, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    kind = scn.get("kind")
    if not (isinstance(kind, str) and kind in _SCENARIOS):
        raise ConfigError(f"{_join(path, 'kind')}: expected one of "
                          f"{sorted(_SCENARIOS)}, got {kind!r}")
    return _SCENARIOS[kind](scn, path)


def load_scenario(path: Path) -> dict:
    """The scenario of a JSON file, named after the file unless it names
    itself; it is validated when it runs."""
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
    scn.setdefault("name", path.stem)
    return scn


def _nest(desc, top):
    """A flat descriptor with every key but those of `top` under params."""
    return {**{k: desc[k] for k in top if k in desc},
            "params": {k: v for k, v in desc.items() if k not in top}}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: Path, table: dict) -> None:
    """Write a table of named columns in order. A column of floats is
    formatted with %.17g in one pass, as _fmt would each cell; any other
    column cell by cell through _fmt."""
    specs, columns = [], []
    for values in table.values():
        values = (values.tolist() if isinstance(values, np.ndarray) else
                  list(values))
        if all(type(v) is float for v in values):
            specs.append("%.17g")
        else:
            specs.append("%s")
            values = [_fmt(v) for v in values]
        columns.append(values)
    row = ",".join(specs) + "\n"
    text = "".join(row % cells for cells in zip(*columns, strict=True))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table) + "\n" + text)


def _numpy_value(value):
    """json.dumps' hook for numpy scalars and arrays: their Python values."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_manifest(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_numpy_value)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# scenario runners: (resolved scenario, profile, growth, thresholds) ->
# {csv: {column: values}[, profiles: {column: values}], metrics,
# checks: {name: Check}}; _run writes each table under its output key

def _run_check(scn, profile, growth, tol, out_dir):
    p = scn["params"]
    sample = np.geomspace(p["sample_min"], p["sample_max"], p["sample_points"])
    try:
        report = check_assumptions(profile, growth, sample=sample)
    except ValueError as exc:  # the sample leaves double range
        where = ("growth.r0" if p["sample_max"] == 1e4 * growth.r0  # default
                 else "params.sample_max")
        raise ConfigError(f"{where}: {exc}") from exc
    metrics = {"alpha_noncollapse": report.alpha_noncollapse,
               "gamma_uniformity": report.gamma_uniformity,
               "beta": report.beta,
               "doubling_constant": report.doubling_constant}
    checks = {"bishop_gromov": report.bishop_gromov,
              "euclidean_bound": report.euclidean_bound,
              "all_assumptions": Check(len(report.failures), 0.0)}
    return {"csv": {"r": report.sample, "volume": report.volumes,
                    "area": report.areas,
                    "growth_ratio": report.growth_ratios},
            "metrics": metrics, "checks": checks}


def _check_green_values(p, radii, g_exact, g_surr):
    """Reject the first radius where G or Ghat is not finite and positive:
    its `params.radii` entry, or for a generated range `params.r_max` where
    they underflow to 0 and `params.r_min` otherwise."""
    bad = ~(np.isfinite(g_exact) & (g_exact > 0.0) &
            np.isfinite(g_surr) & (g_surr > 0.0))
    if np.any(bad):
        i = int(np.argmax(bad))
        if "radii" in p:
            where = f"params.radii[{i}]"
        else:
            where = ("params.r_max" if min(g_exact[i], g_surr[i]) == 0.0
                     else "params.r_min")
        raise ConfigError(
            f"{where}: G = {g_exact[i]:g} and Ghat = {g_surr[i]:g} at "
            f"r = {radii[i]:g}; both must be finite and positive in double "
            "precision")


def _run_green(scn, profile, growth, tol, out_dir):
    p = scn["params"]
    radii = (np.asarray(p["radii"], dtype=float) if "radii" in p else
             np.geomspace(p["r_min"], p["r_max"], p["count"]))
    checks, metrics = {}, {}
    # radii where G or Ghat leave double precision are rejected below
    with np.errstate(all="ignore"):
        if growth is not None:
            report = green_bounds(profile, growth, radii,
                                  use_surrogate=p["use_surrogate"])
            g_exact, g_surr = report.green_values, report.surrogate_values
        else:
            g_exact = profile.green.exact(radii)
            g_surr = profile.green.surrogate(radii)
    _check_green_values(p, radii, g_exact, g_surr)
    ratios = g_exact / g_surr
    csv = {"r": radii, "green_exact": g_exact, "green_surrogate": g_surr,
           "ratio": ratios}
    if growth is not None:
        csv.update((k, getattr(report, k)) for k in (
            "lower_far", "upper_tail", "upper_near",
            "lower_ok", "tail_ok", "near_ok"))
        checks["bounds_hold"] = report.bounds_hold
        metrics.update(c1=report.c1, c2=report.c2)
    metrics["ratio_min"] = float(ratios.min())
    metrics["ratio_max"] = float(ratios.max())
    law = profile.power_law
    if law is not None:
        expected = 1.0 / law[1]
        metrics["ratio_expected"] = expected
        checks["ratio_constant"] = Check(
            float(np.max(np.abs(ratios - expected))), tol["rel"] * expected)
    return {"csv": csv, "metrics": metrics, "checks": checks}


def _run_l1g(scn, profile, growth, tol, out_dir):
    volume_growth_exponent(profile)  # rejects the profile before any work
    p = scn["params"]
    classes = [powerlaw_classify(profile, a, tuple(p["horizons"]))
               for a in p["exponents"]]
    consistent = [cls.consistent for cls in classes]
    return {"csv": {
        "a": p["exponents"], "in_l1": [cls.in_l1 for cls in classes],
        "in_l1g": [cls.in_l1g for cls in classes],
        "l1_total": [cls.l1_diag.total for cls in classes],
        "l1g_total": [cls.l1g_diag.total for cls in classes],
        "l1_converged": [cls.l1_diag.converged for cls in classes],
        "l1g_converged": [cls.l1g_diag.converged for cls in classes],
        "consistent": consistent},
        "metrics": {"alpha_infinity": profile.alpha_infinity},
        "checks": {"classification_consistent": Check(
            consistent.count(False), 0.0)}}


def _run_bound(scn, profile, growth, tol, out_dir):
    m, p = scn["m"], scn["params"]
    norm1 = p["norm1"]
    ts = (np.asarray(p["t_values"], dtype=float) if "t_values" in p else
          np.geomspace(p["t_min"], p["t_max"], p["count"]))
    bound = SmoothingBound.from_profile(profile, m, growth)
    try:
        evals = bound.evaluate_l1_many(ts, norm1)
        l1g = (None if p["norm_green"] is None else [smoothing_bound_l1g(
            m, profile.dimension, t, p["norm_green"]).value
            for t in ts.tolist()])
    except DomainError as exc:  # a scale or bound past double range at exc.t
        where = (f"params.t_values[{ts.tolist().index(exc.t)}]"
                 if "t_values" in p else
                 "params.t_min" if exc.t == ts[0] else "params.t_max")
        raise ConfigError(f"{where}: {exc}") from exc
    vals = np.array([ev.value for ev in evals])
    csv = {"t": ts, "regime": [ev.regime for ev in evals], "bound_l1": vals}
    if l1g is not None:
        csv["bound_l1g"] = l1g
    metrics = {"threshold_time": bound.time_threshold(norm1)}
    bad = np.count_nonzero(~(np.isfinite(vals) & (vals > 0.0)))
    checks = {"finite_positive": Check(bad, 0.0),
              "nonincreasing": Check(max_rise(vals), 1e-12)}
    if p["fit"]:
        large = np.array([ev.regime == "large-time" for ev in evals])
        if np.count_nonzero(large) < 3:
            raise ConfigError("fit requested but fewer than 3 sample times "
                              "sit in the large-time regime")
        slope = loglog_slope(ts[large], vals[large])
        metrics["fitted_slope"] = slope
        if profile.power_law is not None:
            predicted = -decay_exponent(m, profile.power_law[1])
            metrics["predicted_slope"] = predicted
            checks["slope_matches"] = Check(
                abs(slope - predicted), tol["slope_tol"] * abs(predicted))
    return {"csv": csv, "metrics": metrics, "checks": checks}


def _solve_initial(init, m, dimension):
    """The radial datum of a resolved `params.init`."""
    if init["kind"] == "barenblatt":
        if "bracket" in init:
            params = BarenblattParams(dimension, m=m, bracket=init["bracket"],
                                      eps=init["eps"])
        else:
            params = BarenblattParams.from_mass(dimension, m, init["mass"],
                                                eps=init["eps"])
        return barenblatt_datum(params)
    if init["kind"] == "powerlaw":
        a = init["a"]
        return lambda r: (1.0 + np.asarray(r, dtype=float)) ** (-a)
    try:
        data = np.loadtxt(init["path"], delimiter=",", skiprows=1, ndmin=2)
        interp = Hermite(data[:, 0], data[:, 1],
                         pchip_slopes(data[:, 0], data[:, 1]))
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"params.init.path: cannot use {init['path']!r} "
                          f"as an (r, u) table: {exc}") from exc
    if np.any(data[:, 1] < 0.0):
        raise ConfigError("params.init.path: the data must be nonnegative")
    return lambda r: np.nan_to_num(interp(np.asarray(r, dtype=float)),
                                   nan=0.0)


def _run_solve(scn, profile, growth, tol, out_dir):
    m, p = scn["m"], scn["params"]
    datum = _solve_initial(p["init"], m, profile.dimension)
    try:
        grid = RadialGrid.make(profile, p["r_max"], p["cells"])
    except ValueError as exc:  # cells >= 4 is validated: r_max is at fault
        raise ConfigError(f"params.r_max: {p['r_max']:g} on {p['cells']} "
                          f"cells: {exc}") from exc
    snaps = p["snapshots"]
    if not isinstance(snaps, list):
        snaps = list(np.linspace(0.0, p["t_end"], snaps + 1)[1:])
    record = run_pme(grid, m, datum, t_end=p["t_end"], snapshots=snaps,
                     scheme=p["scheme"], boundary=p["boundary"],
                     cfl=p["cfl"], implicit_dt=p["implicit_dt"])
    l1g_w = grid.cell_weights(
        lambda r: np.where(np.asarray(r) < 1.0, 1.0,
                           np.asarray(profile.green.exact(r), dtype=float)))
    defect = record.mass_defect()
    metrics = {"mass_defect": defect, "steps": record.steps,
               "cells": p["cells"]}
    checks = {"mass_conserved": Check(defect, 1e-10),
              "positivity": Check(-np.min(record.states), 0.0)}
    if p["verify"]:
        report = verify_solution_estimates(record, tau=tol["tau"])
        checks.update((f"estimate_{name}", chk)
                      for name, chk in report.checks.items())
        metrics["max_estimate_violation"] = report.max_violation
    result = {"csv": {"t": record.times, "sup_u": record.sup_norms,
                      "mass": record.masses, "outflow": record.outflows,
                      "l1g_norm": [float(np.sum(state * l1g_w))
                                   for state in record.states]},
              "metrics": metrics, "checks": checks}
    if p["emit_profiles"]:
        result["profiles"] = {"r": grid.centers, **{
            f"u_t{i}": state for i, state in enumerate(record.states)}}
    return result


def _run_optimality(scn, profile, growth, tol, out_dir):
    m, p = scn["m"], scn["params"]
    report = optimality_harness(
        dimension=p["dimension"], m=m, mass=p["mass"], eps=p["eps"],
        cells=p["cells"], r_max=p["r_max"], t_end=p["t_end"],
        n_snapshots=p["n_snapshots"],
        fit_window=tuple(p["fit_window"]) if p["fit_window"] else None)
    metrics = {"fitted_slope": report.slope,
               "expected_slope": report.expected_slope,
               "band_ratio": report.band_ratio,
               "l1_error_final": report.l1_error_final,
               "mass_defect": report.mass_defect,
               "steps": report.steps}
    checks = {"slope": Check(abs(report.slope - report.expected_slope),
                             tol["slope_tol"]),
              "band": Check(report.band_ratio, tol["band_limit"]),
              "l1_error": Check(report.l1_error_final,
                                tol["l1_limit"] * p["mass"]),
              "mass_conserved": Check(report.mass_defect, 1e-10)}
    return {"csv": {"t_abs": report.times_abs, "sup_u": report.sup_values,
                    "sup_scaled": report.sup_scaled,
                    "bound_l1": report.bound_values,
                    "bound_regime": report.bound_regimes},
            "metrics": metrics, "checks": checks}


def _run_sweep(scn, profile, growth, tol, out_dir):
    grid_keys = sorted({k for point in scn["grid"] for k in point[0]})
    rows, metric_keys, worst = [], [], 0
    for i, (overrides, sub, res) in enumerate(scn["grid"]):
        sub["name"] = res["name"] = f"{scn['name']}-{i:03d}"
        row = {"index": i, "name": sub["name"], "passed": False, "error": "",
               **overrides}
        try:
            result = _run(sub, res, tol, out_dir)
            row.update(result["metrics"], passed=result["passed"])
            metric_keys = metric_keys or sorted(result["metrics"])
            worst = max(worst, result["exit"])
        except ConfigError as exc:
            row["error"], worst = str(exc), max(worst, 2)
        except Exception as exc:  # recorded per row; the sweep exits 3
            traceback.print_exc()
            row["error"], worst = f"{type(exc).__name__}: {exc}", 3
        rows.append(row)
    # a point without a key of the table leaves its cell empty
    columns = ["index", "name", *grid_keys, *metric_keys, "passed", "error"]
    return {"csv": {c: [row.get(c, "") for row in rows] for c in columns},
            "metrics": {"points": len(rows)},
            "checks": {"all_rows_passed": Check(
                sum(not row["passed"] for row in rows), 0.0)},
            "exit": worst}


_RUNNERS = {"check": _run_check, "green": _run_green, "l1g": _run_l1g,
            "bound": _run_bound, "solve": _run_solve,
            "optimality": _run_optimality, "sweep": _run_sweep}
# a runner's table -> (the output key naming its file, the default name's
# suffix after the scenario name)
_TABLES = {"csv": ("csv", ""), "profiles": ("profiles_csv", "_profiles")}


def _run(scn, res, tol, out_dir: Path) -> dict:
    """Run the resolved scenario `res` on its profile, its growth and the
    thresholds `tol` of a tolerance profile; write its CSVs and a manifest
    echoing the input config `scn` and naming the profile, tol["name"].
    Unless the runner set it, exit is 0 or 1 (passed)."""
    try:
        profile = (make_profile(_nest(res["profile"], _PROFILE_FRAME))
                   if "profile" in res else None)
        growth = make_growth(res["growth"]) if res.get("growth") else None
        result = _RUNNERS[res["kind"]](res, profile, growth, tol, out_dir)
    except (ProfileError, ParabolicProfileError, GrowthError) as exc:
        # the library rejects the geometry: its builders check ranges and
        # cross-key rules, and a tail integral may fail the tail model's
        # divergence test once work has started
        where = "growth" if isinstance(exc, GrowthError) else "profile"
        raise ConfigError(f"{where}: {exc}") from exc
    checks = result["checks"]
    result["passed"] = all(c.passed for c in checks.values())
    result.setdefault("exit", 0 if result["passed"] else 1)
    outputs = {}
    for key, (out_key, suffix) in _TABLES.items():
        if key in result:
            outputs[key] = res["output"].get(out_key,
                                             f"{res['name']}{suffix}.csv")
            write_csv(out_dir / outputs[key], result[key])
    write_manifest(out_dir / f"{res['name']}.manifest.json", {
        "schema_version": SCHEMA_VERSION, "library_version": __version__,
        "name": res["name"], "kind": res["kind"], "config": scn,
        "outputs": outputs, "metrics": result["metrics"],
        "checks": {k: c.passed for k, c in checks.items()},
        "margins": {k: c.margin for k, c in checks.items()},
        "passed": result["passed"], "tolerance_profile": tol["name"]})
    return result


def _execute(scn, out_dir, tolerance_profile: str) -> int:
    """Validate, run and emit one named scenario; returns the exit code."""
    res = validate_scenario(scn)
    out = Path(out_dir) if out_dir else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    tol = {"name": tolerance_profile, **TOLERANCE_PROFILES[tolerance_profile]}
    return _run(scn, res, tol, out)["exit"]


def run_scenario(config_path, out_dir=None,
                 tolerance_profile: str = "default") -> int:
    """Execute one scenario file; returns the process exit code."""
    return _execute(load_scenario(Path(config_path)), out_dir,
                    tolerance_profile)


# ---------------------------------------------------------------------------
# flag-driven scenarios

# --profile/--growth/--init presets: (head key, form -> (the keys that its
# ":"-separated values fill in order, the optional keys that may follow),
# the keys to keep on top of a nested descriptor or None)
_PRESETS = {
    "profile": _PROFILE_PRESET, "growth": _GROWTH_PRESET,
    "init": ("kind", {"barenblatt": ([], ["mass", "eps"]),
                      "powerlaw": (["a"], []), "table": (["path"], [])}, None),
}


def _preset(flag):
    """argparse type for a preset flag, e.g. `barenblatt:1:1` -> an init."""
    head, forms, top = _PRESETS[flag]
    spelling = {form: ":".join([form, *map(str.upper, need)]) +
                "".join(f"[:{k.upper()}]" for k in extra)
                for form, (need, extra) in forms.items()}

    def parse(text):
        form, *vals = text.split(":")
        if form not in forms:
            raise argparse.ArgumentTypeError(
                f"unknown {flag} preset {text!r}; forms: {sorted(forms)}")
        need, extra = forms[form]
        if form == "table":
            vals = [":".join(vals)]  # a path may itself contain ':'
        if not len(need) <= len(vals) <= len(need) + len(extra):
            raise argparse.ArgumentTypeError(f"{form} takes {spelling[form]}")
        desc = {head: form}
        for key, val in zip(need + extra, vals):
            desc[key] = (int(val) if key == "dimension" else
                         val if key == "path" else float(val))
        return desc if top is None else _nest(desc, top)
    parse.__name__ = f"{flag} preset"  # argparse: "invalid <name> value"
    parse.help = "one of " + ", ".join(spelling.values())
    return parse


def _floats(text):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# flag -> argparse type (None for a switch); its dest, the spec key it sets,
# is the flag's name in snake case unless _DESTS says otherwise
_FLAGS = {
    "--profile": _preset("profile"), "--growth": _preset("growth"),
    "--init": _preset("init"), "--radii": _floats, "--exponents": _floats,
    "--fit": None, "--verify": None, "--scheme": str, "--boundary": str,
    **dict.fromkeys(["--m", "--t-min", "--t-max", "--norm1", "--rmax",
                     "--tend", "--t-end", "--mass", "--eps"], float),
    **dict.fromkeys(["--count", "--cells", "--snapshots", "--dimension",
                     "--n-snapshots"], int),
}
_DESTS = {"--rmax": "r_max", "--tend": "t_end"}
_COMMANDS = {
    "check-assumptions": "--profile --growth",
    "green": "--profile --growth --radii",
    "l1g": "--profile --exponents",
    "bound": "--profile --growth --m --t-min --t-max --count --norm1 --fit",
    "solve": "--profile --m --init --rmax --cells --scheme --boundary --tend "
             "--snapshots --verify",
    "optimality": "--m --dimension --mass --eps --cells --rmax --t-end "
                  "--n-snapshots",
    "sweep": "",
}


def _dest(flag):
    return _DESTS.get(flag, flag[2:].replace("-", "_"))


def _scenario_from_flags(args, kind: str) -> dict:
    """Raw scenario from direct flags: each flag's dest is its spec key."""
    scn = {"schema_version": SCHEMA_VERSION, "kind": kind,
           "name": f"cli-{kind}", "params": {}}
    spec = _SCENARIOS[kind].spec
    for node, keys in ((scn, spec), (scn["params"], spec["params"][0].spec)):
        for key, (_, default) in keys.items():
            val = getattr(args, key, None)
            if val is not None:
                node[key] = val
            elif default is _REQUIRED and hasattr(args, key):
                raise ConfigError(f"{args.command} needs --{key}")
    return scn


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, so every call of main reuses it."""
    parser = argparse.ArgumentParser(
        prog="pmegreen",
        description="Green-function verification experiments for the porous "
                    "medium equation on radial model geometries.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="JSON scenario file of the command's kind; "
                             "takes no scenario flags")
    common.add_argument("--out-dir", type=str, default=None)
    common.add_argument("--tolerance-profile", type=str, default="default",
                        choices=sorted(TOLERANCE_PROFILES))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in _COMMANDS.items():
        cmd = sub.add_parser(command, parents=[common])
        for flag in flags.split():
            if _FLAGS[flag] is None:  # an unset switch reads None, as flags do
                cmd.add_argument(flag, dest=_dest(flag), action="store_true",
                                 default=None)
            else:
                cmd.add_argument(flag, dest=_dest(flag), type=_FLAGS[flag],
                                 help=getattr(_FLAGS[flag], "help", None))
    return parser


_CMD_TO_KIND = {"check-assumptions": "check"}


def _glue_values(argv):
    """`--exponents -0.5,3` -> `--exponents=-0.5,3`: argparse takes a value
    that starts with '-' and is not a plain number for an option."""
    out = []
    for arg in argv:
        value_flag = out and _FLAGS.get(out[-1]) is not None
        if value_flag and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _glue_values(sys.argv[1:] if argv is None else argv))
    kind = _CMD_TO_KIND.get(args.command, args.command)
    try:
        if args.config:
            given = [flag for flag in _COMMANDS[args.command].split()
                     if getattr(args, _dest(flag)) is not None]
            if given:
                raise ConfigError(f"--config takes no scenario flags; got "
                                  f"{' '.join(given)}")
            scn = load_scenario(Path(args.config))
            if scn.get("kind") != kind:
                raise ConfigError(f"--config: {args.config} holds a "
                                  f"{scn.get('kind')!r} scenario, not "
                                  f"{kind!r}")
        elif kind == "sweep":
            raise ConfigError("sweep needs --config")
        else:
            scn = _scenario_from_flags(args, kind)
        return _execute(scn, args.out_dir, args.tolerance_profile)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # an internal fault, never reported as a failed check
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
