#!/usr/bin/env python3
"""Time solver runs and their steps: microseconds per explicit step,
milliseconds per implicit step, and each run's wall time and step count.

    PYTHONPATH=src python3 scripts/bench_step.py --label after

Every run goes through `run_pme` on euclidean:3 with r_max 20, so a
step's figure includes the loop that drives it. Most runs start from the
mass-1 self-similar datum, whose support is a small part of the grid:
explicit runs at 1000, 2000 and 4000 cells for m = 2 and m = 3, implicit
runs at 2000 cells. The "full support" runs (m = 2, explicit and implicit,
1000 and 4000 cells) start from 1 + exp(-r^2), which fills the grid, so the
stepper's support window covers every cell and only its own cost shows.
An explicit step is what RunRecord.steps counts: an RKL2 super-step of up
to RKL2_MAX_STAGES stages, or one forward-Euler step in a checkout from
before super-steps, so explicit runs compare by wall time, by `steps`, and
by `stages`, the divergence evaluations of their stages and error
estimates, `rejections`, the stage sequences thrown away on a negative
stage, and `error_rejections`, those thrown away on their error estimate
(RunRecord.stages, RunRecord.rejections and RunRecord.error_rejections; in
a checkout without them, the calls of Stepper._divergence, the
Stepper._rkl2 calls that returned None, and 0). A step figure is the
median over --repeats runs of RunRecord.wall_time / RunRecord.steps, and
`us_per_stage` the median of RunRecord.wall_time / stages, after one
untimed run; `wall_s` lists each timed run's RunRecord.wall_time and
`steps` its RunRecord.steps. The untimed run reads, per step, the Newton
residual evaluations and tridiagonal solves of an implicit run
(RunRecord.residuals and RunRecord.newton_iterates; in a checkout without
them, the calls of Stepper._divergence and of the tridiagonal solve) and
the run's `dt_halvings` (null without RunRecord.dt_halvings), and records
two means: `support_fraction`, over steps, of the cells up to the last
nonzero one of the step's start state, and `window_fraction`, over
divergence evaluations (through the functions of Stepper._window, or calls
of Stepper._divergence in a checkout without it), of the cells evaluated
(1 in a checkout that evaluates the whole grid); both as fractions of the
grid.
The figures go into --out (default BENCH_step.json) under --label, beside
the runs of other labels already there, with the machine and the Python,
numpy and scipy versions. Point PYTHONPATH at another checkout's
src to time that one under its own label.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np
import scipy

import pmegreen as pg

EXPLICIT_CELLS = (1000, 2000, 4000)
EXPLICIT_M = (2.0, 3.0)
# t_end at 1000 cells, about 2000 explicit steps; it scales with h^2
EXPLICIT_T_END = {2.0: 0.4, 3.0: 0.6}
IMPLICIT_CELLS = 2000
IMPLICIT_M = (2.0, 3.0)
IMPLICIT_DT, IMPLICIT_T_END = 0.01, 1.0
FULL_CELLS = (1000, 4000)
FULL_M = 2.0
# t_end of the explicit full-support run at 1000 cells, scaled with h^2
FULL_T_END = 0.1
# the name of the tridiagonal solve in pmegreen.solver: the direct LAPACK
# call, or solve_banded in a checkout from before it
SOLVES = ("_GTSV", "solve_banded")


def counted_run(grid, m: float, u0, **run_args) -> dict:
    """One run's work: per RunRecord step, the Newton residual evaluations
    and tridiagonal solves (RunRecord.residuals and newton_iterates); the
    run's stages, both kinds of rejections and its implicit dt halvings; and
    the mean support and window fractions. A checkout whose RunRecord lacks
    a count has it counted by wrapping the divergence, the tridiagonal solve
    or Stepper._rkl2."""
    solver, stepper = pg.solver, pg.solver.Stepper
    fields = {f.name for f in dataclasses.fields(pg.RunRecord)}
    name = next(n for n in SOLVES if hasattr(solver, n))
    solve = getattr(solver, name)
    # every divergence goes through the functions Stepper._window returns,
    # or through Stepper._divergence in a checkout without it
    hook = "_window" if hasattr(stepper, "_window") else "_divergence"
    hooked = getattr(stepper, hook)
    # run_pme calls step once per step; a checkout from before that calls
    # super_step for explicit steps
    steps = {meth: getattr(stepper, meth) for meth in ("step", "super_step")
             if hasattr(stepper, meth)}
    rkl2 = getattr(stepper, "_rkl2", None)
    counts = {"residuals": 0, "solves": 0, "rejections": 0}
    supports, windows = [], []

    def note(w):
        counts["residuals"] += 1
        windows.append(w.size / grid.cells)

    def counted_window(self, k):
        nonlinearity, divergence = hooked(self, k)
        return nonlinearity, lambda w: note(w) or divergence(w)

    def counted_divergence(self, w):
        note(w)
        return hooked(self, w)

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counted_rkl2(self, *args):
        new = rkl2(self, *args)
        counts["rejections"] += new is None
        return new

    def recorded(step):
        def wrapper(self, state, *args, **kwargs):
            nonzero = np.flatnonzero(state.u)
            supports.append((nonzero[-1] + 1 if nonzero.size else 0)
                            / grid.cells)
            return step(self, state, *args, **kwargs)
        return wrapper

    setattr(stepper, hook, counted_window if hook == "_window"
            else counted_divergence)
    if "newton_iterates" not in fields:
        setattr(solver, name, counted_solve)
    for meth, step in steps.items():
        setattr(stepper, meth, recorded(step))
    if rkl2 is not None and "rejections" not in fields:
        stepper._rkl2 = counted_rkl2
    try:
        record = pg.run_pme(grid, m, u0, **run_args)
    finally:
        setattr(stepper, hook, hooked)
        setattr(solver, name, solve)
        for meth, step in steps.items():
            setattr(stepper, meth, step)
        if rkl2 is not None:
            stepper._rkl2 = rkl2
    out = {"residuals": getattr(record, "residuals", counts["residuals"]),
           "solves": getattr(record, "newton_iterates", counts["solves"])}
    out = {key: n / record.steps for key, n in out.items()}
    out["stages"] = getattr(record, "stages", counts["residuals"])
    out["rejections"] = getattr(record, "rejections", counts["rejections"])
    out["error_rejections"] = getattr(record, "error_rejections", 0)
    out["dt_halvings"] = getattr(record, "dt_halvings", None)
    out["support_fraction"] = round(statistics.fmean(supports), 4)
    out["window_fraction"] = round(statistics.fmean(windows), 4)
    return out


def per_step(cells: int, m: float, repeats: int, full: bool = False,
             **run_args) -> dict:
    profile = pg.make_profile(form="euclidean", dimension=3)
    grid = pg.RadialGrid.make(profile, 20.0, cells)
    if full:
        datum = lambda r: 1.0 + np.exp(-r * r)
    else:
        datum = pg.barenblatt_datum(pg.BarenblattParams.from_mass(3, m, 1.0))
    u0 = grid.cell_average(datum)
    counts = counted_run(grid, m, u0, **run_args)  # warm-up
    walls = []
    for _ in range(repeats):
        record = pg.run_pme(grid, m, u0, **run_args)
        walls.append(record.wall_time)
    samples = [wall / record.steps for wall in walls]
    stage_samples = [wall / counts["stages"] for wall in walls
                     if counts["stages"]]
    return {"median": statistics.median(samples), "min": min(samples),
            "stage_median": (statistics.median(stage_samples)
                             if stage_samples else None),
            "walls": walls, "steps": record.steps, "counts": counts}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(),
            "system": platform.system(), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the output file")
    parser.add_argument("--out", default="BENCH_step.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    explicit, implicit = {}, {}

    def explicit_case(cells, m, t_end, full=False):
        res = per_step(cells, m, args.repeats, full, t_end=t_end)
        key = f"m={m:g}, cells={cells}" + (", full support" if full else "")
        explicit[key] = {
            "us_per_step": round(res["median"] * 1e6, 2),
            "us_per_step_min": round(res["min"] * 1e6, 2),
            "us_per_stage": round(res["stage_median"] * 1e6, 3),
            "wall_s": [round(w, 5) for w in res["walls"]],
            "steps": res["steps"], "t_end": t_end,
            "stages": res["counts"]["stages"],
            "rejections": res["counts"]["rejections"],
            "error_rejections": res["counts"]["error_rejections"],
            "support_fraction": res["counts"]["support_fraction"],
            "window_fraction": res["counts"]["window_fraction"]}
        print(f"explicit {key}: {res['median'] * 1e6:.1f} us/step, "
              f"{res['stage_median'] * 1e6:.2f} us/stage "
              f"({res['steps']} steps, {res['counts']['stages']} stages, "
              f"{res['counts']['rejections']} + "
              f"{res['counts']['error_rejections']} rejections, "
              f"{statistics.median(res['walls']) * 1e3:.1f} ms/run, support "
              f"{res['counts']['support_fraction']:.3f} of the grid)")

    def implicit_case(cells, m, full=False):
        res = per_step(cells, m, args.repeats, full, t_end=IMPLICIT_T_END,
                       scheme="implicit", implicit_dt=IMPLICIT_DT)
        key = f"m={m:g}, cells={cells}" + (", full support" if full else "")
        implicit[key] = {
            "ms_per_step": round(res["median"] * 1e3, 3),
            "ms_per_step_min": round(res["min"] * 1e3, 3),
            "wall_s": [round(w, 5) for w in res["walls"]],
            "steps": res["steps"], "t_end": IMPLICIT_T_END,
            "implicit_dt": IMPLICIT_DT,
            "residuals_per_step": res["counts"]["residuals"],
            "solves_per_step": res["counts"]["solves"],
            "dt_halvings": res["counts"]["dt_halvings"],
            "support_fraction": res["counts"]["support_fraction"],
            "window_fraction": res["counts"]["window_fraction"]}
        print(f"implicit {key}: {res['median'] * 1e3:.3f} ms/step "
              f"({res['steps']} steps, "
              f"{res['counts']['residuals']:g} residuals and "
              f"{res['counts']['solves']:g} solves per step, support "
              f"{res['counts']['support_fraction']:.3f} of the grid)")

    for m in EXPLICIT_M:
        for cells in EXPLICIT_CELLS:
            explicit_case(cells, m, EXPLICIT_T_END[m] * (1000.0 / cells) ** 2)
    for m in IMPLICIT_M:
        implicit_case(IMPLICIT_CELLS, m)
    for cells in FULL_CELLS:
        explicit_case(cells, FULL_M, FULL_T_END * (1000.0 / cells) ** 2,
                      full=True)
        implicit_case(cells, FULL_M, full=True)

    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "machine": machine(), "repeats": args.repeats,
        "explicit": explicit, "implicit": implicit}
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
