"""Spans around pmegreen's public functions, patched in from outside.

`Tracer.install` wraps every public module-level function of the package's
modules, plus the hot public methods listed in METHODS. A function is
replaced in every namespace that holds it (`from .numerics import
integrate` binds the name in green, weighted, ...), so callers inside the
package see the wrapper. Spans stay in memory; `aggregate` folds them per
name and `layer_metrics` derives the benchmark's per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import weakref

import numpy as np

import pmegreen

MODULES = ("numerics", "geometry", "green", "weighted", "smoothing", "solver",
           "cli")
METHODS = (("solver", "Stepper", "step"),
           ("green", "GreenData", "exact"),
           ("green", "GreenData", "surrogate"),
           ("green", "RadialPotential", "__call__"),
           ("geometry", "GrowthFunction", "tail"),
           ("smoothing", "SmoothingBound", "evaluate_l1"))
# profile forms whose Green functions are closed forms, not quadrature
CLOSED_FORMS = ("euclidean", "power")


class Tracer:
    def __init__(self):
        # (id, parent id, name, start, end, self time, size)
        self.spans = []
        self._stack = []          # [child time, span id] per open span
        self._next_id = 0
        self._patches = []
        self._built = weakref.WeakKeyDictionary()

    def wrap(self, name, fn, label=None, after=None):
        """Wrap fn in a span. label(args, kwargs) -> (name, size) renames the
        span per call; after(args, size) -> size runs once fn returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name, size = label(args, kwargs) if label else (name, 1)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                if after:
                    size = after(args, size)
                spans.append((span_id, parent, span_name, start, end,
                              end - start - frame[0], size))

        return wrapper

    def _special(self, qualname):
        """Span names that split one function by the path it takes."""
        def green_scalar(args, kwargs):
            profile, r = args[0], args[1]
            if np.ndim(r) == 0 and profile.form not in CLOSED_FORMS:
                return "green.tail_quad", 1
            return qualname, 1

        def greendata(kind):
            def label(args, kwargs):
                gd, r = args[0], args[1]
                if gd.profile.form in CLOSED_FORMS:
                    return "green.greendata_closed", int(np.size(r))
                done = self._built.setdefault(gd, set())
                if kind not in done:
                    done.add(kind)
                    return "green.greendata_build", int(np.size(r))
                return "green.interp_eval", int(np.size(r))
            return label

        def scalar_split(scalar, array):
            return lambda args, kwargs: (
                (scalar if np.ndim(args[1]) == 0 else array), 1)

        def step(args, kwargs):
            scheme = kwargs.get("scheme", args[3] if len(args) > 3 else "explicit")
            return f"solver.step_{scheme}", 1

        def written(args, size):
            try:
                return os.path.getsize(args[0])
            except OSError:
                return 0

        return {
            "green.green_exact": (green_scalar, None),
            "green.green_surrogate": (green_scalar, None),
            "green.GreenData.exact": (greendata("exact"), None),
            "green.GreenData.surrogate": (greendata("surrogate"), None),
            "green.RadialPotential.__call__": (
                scalar_split("green.potential_radius", "green.potential_array"), None),
            "geometry.GrowthFunction.tail": (
                scalar_split("geometry.growth_tail", "geometry.growth_tail_array"),
                None),
            "solver.Stepper.step": (step, None),
            "cli.write_csv": (lambda a, k: ("cli.write", 0), written),
            "cli.write_manifest": (lambda a, k: ("cli.write", 0), written),
        }.get(qualname, (None, None))

    def install(self) -> None:
        modules = {m: importlib.import_module(f"pmegreen.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    qual = f"{short}.{name}"
                    wrapped[obj] = self.wrap(qual, obj, *self._special(qual))
        for ns in (pmegreen, *modules.values()):
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, wrapped[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            orig = cls.__dict__[meth]
            qual = f"{short}.{cls_name}.{meth}"
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(qual, orig, *self._special(qual)))

    def remove(self) -> None:
        for ns, name, obj in reversed(self._patches):
            setattr(ns, name, obj)
        self._patches.clear()

    def aggregate(self) -> dict:
        """name -> [count, inclusive seconds, self seconds, size]."""
        agg = {}
        for _id, _parent, name, start, end, self_time, size in self.spans:
            a = agg.setdefault(name, [0, 0.0, 0.0, 0])
            a[0] += 1
            a[1] += end - start
            a[2] += self_time
            a[3] += size
        return agg

    def columns(self) -> dict:
        """The spans as columns, times in microseconds from the first span."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min(s[3] for s in self.spans)
        us = lambda x: round(x * 1e6, 3)
        return {"names": names,
                "id": [s[0] for s in self.spans],
                "parent": [s[1] for s in self.spans],
                "name": [index[s[2]] for s in self.spans],
                "start_us": [us(s[3] - t0) for s in self.spans],
                "end_us": [us(s[4] - t0) for s in self.spans],
                "self_us": [us(s[5]) for s in self.spans],
                "size": [s[6] for s in self.spans]}


# (metric, unit, kind, span names, scale); kind says how spans become a value:
#   count  spans per pass          mean  inclusive seconds per span
#   self   self seconds per span   total self seconds per pass
#   per    self seconds per unit of size      size  size per pass
LAYER_METRICS = (
    ("solver.explicit_steps", "count", "count", ("solver.step_explicit",), 1),
    ("solver.explicit_step_us", "us", "self", ("solver.step_explicit",), 1e6),
    ("solver.implicit_steps", "count", "count", ("solver.step_implicit",), 1),
    ("solver.implicit_step_ms", "ms", "self", ("solver.step_implicit",), 1e3),
    ("solver.run_pme_s", "s", "total", ("solver.run_pme",), 1),
    ("solver.verify_ms", "ms", "mean", ("solver.verify_solution_estimates",), 1e3),
    ("solver.dual_residual_ms", "ms", "self", ("solver.weak_dual_residual",), 1e3),
    ("green.potential_of_cells_ms", "ms", "mean", ("green.potential_of_cells",), 1e3),
    ("green.greendata_build_ms", "ms", "mean", ("green.greendata_build",), 1e3),
    ("green.interp_eval_us", "us", "per", ("green.interp_eval",), 1e6),
    ("green.tail_quad_ms", "ms", "mean", ("green.tail_quad",), 1e3),
    ("green.bounds_ms", "ms", "mean", ("green.green_bounds",), 1e3),
    ("green.potential_ms", "ms", "mean", ("green.potential_radius",), 1e3),
    ("weighted.classify_ms", "ms", "mean", ("weighted.powerlaw_classify",), 1e3),
    ("weighted.separating_ms", "ms", "mean",
     ("weighted.build_separating_sequence",), 1e3),
    ("smoothing.evaluate_l1_us", "us", "mean", ("smoothing.SmoothingBound.evaluate_l1",),
     1e6),
    ("geometry.growth_tail_calls", "count", "count", ("geometry.growth_tail",), 1),
    ("geometry.check_assumptions_ms", "ms", "mean", ("geometry.check_assumptions",),
     1e3),
    ("numerics.quad_calls", "count", "count",
     ("numerics.integrate", "numerics.tail_integral"), 1),
    ("numerics.quad_s", "s", "total",
     ("numerics.integrate", "numerics.tail_integral"), 1),
    ("numerics.gauss_panels_s", "s", "total", ("numerics.gauss_panels",), 1),
    ("cli.load_ms", "ms", "mean", ("cli.load_scenario",), 1e3),
    ("cli.write_ms", "ms", "mean", ("cli.write",), 1e3),
    ("cli.bytes_written", "bytes", "size", ("cli.write",), 1),
)


def layer_metrics(passes: list) -> dict:
    """Per-layer metrics from the aggregates of one or more traced passes."""
    merged = {}
    for agg in passes:
        for name, (count, incl, self_time, size) in agg.items():
            m = merged.setdefault(name, [0, 0.0, 0.0, 0])
            m[0] += count
            m[1] += incl
            m[2] += self_time
            m[3] += size
    n_pass = max(len(passes), 1)
    out = {}
    for metric, unit, kind, names, scale in LAYER_METRICS:
        count = sum(merged.get(n, (0,))[0] for n in names)
        incl = sum(merged.get(n, (0, 0.0))[1] for n in names)
        self_time = sum(merged.get(n, (0, 0.0, 0.0))[2] for n in names)
        size = sum(merged.get(n, (0, 0.0, 0.0, 0))[3] for n in names)
        if kind == "count":
            value = count / n_pass
        elif kind == "size":
            value = size / n_pass
        elif kind == "total":
            value = self_time / n_pass * scale
        elif kind == "mean":
            value = incl / count * scale if count else 0.0
        elif kind == "self":
            value = self_time / count * scale if count else 0.0
        else:  # per unit of size
            value = self_time / size * scale if size else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
