#!/usr/bin/env python3
"""Time the quadrature layer: weighted norms, tail tables, radial potentials,
the smoothing bound's radius inversion and the separating sequence.

    PYTHONPATH=src python3 scripts/bench_quadrature.py --label after

Figures, each the median over --repeats timed rounds after one untimed
round:

- `classify_ms`: ms per `powerlaw_classify` on euclidean:5 (a = 2, 2.5, 3,
  5, 6) and on power_log:4:3:0.5 (a = 2, 2.5, 3.5, 4.5), with one GreenData
  per profile built before the clock starts;
- `tail_table`: ms to build the TailTable of 1/S on power_log:4:3:0.5 over
  GreenData's edges, and us per point read inside the edges (1000 radii in
  [0.25, 30]), just beyond the last edge (20 radii in [2e7, 1e12]), far
  beyond it (20 radii in [1e25, 1e30]) and below the first edge 1e-4 (200
  radii in [1e-12, 9e-5]), each read as one array call;
- `potential`: ms to build the `CellPotential` of a uniform grid of 250,
  1000 or 4000 cells on [0, 12] and apply it to one datum (cell averages
  of e^-r); ms per further datum on a `CellPotential` of the grid built
  before the clock starts, the way the dual identity applies one kernel to
  every snapshot; and ms to build a
  `RadialPotential` of the indicator of the unit ball and evaluate it at 41
  radii log-spaced on [0.1, 1e3] in one array call, on euclidean:3 and on
  power_log:4:3:0.5, with one GreenData per profile built before the clock
  starts;
- `evaluate_l1_us`: us per `SmoothingBound.evaluate_l1` on power_log:4:3:0.5
  with power_log growth k = 3, b = 0.5, r0 = 2, m = 2, at 40 times in
  [1, 1e6];
- `separating_ms`: ms per `build_separating_sequence` of 20 distances on
  euclidean:5 with power growth k = 5, r0 = 1, the case pmebench's
  `quadrature` workload runs, with its GreenData built before the clock
  starts;
- `calls_us`: us per call of that TailTable and of its log-log spline (a
  CubicHermiteSpline in checkouts from before the package's own Hermite
  kernel) at 1, 100 and 10^4 points inside the edges, each one array;
- `cold_import`: the median seconds of `import pmegreen, pmegreen.cli` over
  IMPORT_ROUNDS fresh interpreters, and the scipy modules such an import
  leaves loaded. Byte-code caches count as they are: with
  PYTHONDONTWRITEBYTECODE set, each import compiles the package again.

The figures go into --out (default BENCH_quadrature.json) under --label,
beside the runs of other labels already there, with the machine and the
Python, numpy and scipy versions. Point PYTHONPATH at another checkout's
src to time that one under its own label.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import pmegreen as pg
from bench_step import machine

EUCLID5_EXPONENTS = (2.0, 2.5, 3.0, 5.0, 6.0)
POWER_LOG_EXPONENTS = (2.0, 2.5, 3.5, 4.5)
INSIDE = np.geomspace(0.25, 30.0, 1000)
BEYOND = np.geomspace(2e7, 1e12, 20)
FAR = np.geomspace(1e25, 1e30, 20)
BELOW = np.geomspace(1e-12, 9e-5, 200)
BOUND_TIMES = np.geomspace(1.0, 1e6, 40)
SEPARATING_COUNT = 20
POTENTIAL_CELLS = (250, 1000, 4000)
POTENTIAL_RADII = np.geomspace(0.1, 1e3, 41)
CALL_POINTS = (1, 100, 10000)
IMPORT_ROUNDS = 9
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "import pmegreen, pmegreen.cli; "
                "print(time.perf_counter() - t, "
                "sum(m.split('.')[0] == 'scipy' for m in sys.modules))")


def power_log_profile():
    return pg.make_profile(form="power_log", dimension=4,
                           params={"lam": 3.0, "sigma": 0.5})


def timed(fn, repeats: int) -> float:
    """Median seconds of fn() over repeats, after one untimed round."""
    fn()
    walls = []
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - tic)
    return statistics.median(walls)


def cold_import(rounds: int) -> dict:
    """Median import seconds of this checkout's pmegreen in fresh
    interpreters, and the scipy modules the import loads."""
    src = str(Path(pg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    walls, scipy_modules = [], set()
    for _ in range(rounds):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        wall, count = done.stdout.split()
        walls.append(float(wall))
        scipy_modules.add(int(count))
    return {"median_s": round(statistics.median(walls), 4),
            "min_s": round(min(walls), 4), "max_s": round(max(walls), 4),
            "rounds": rounds, "scipy_modules": max(scipy_modules)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the output file")
    parser.add_argument("--out", default="BENCH_quadrature.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    classify = {}
    cases = (("euclidean:5", pg.make_profile(form="euclidean", dimension=5),
              EUCLID5_EXPONENTS),
             ("power_log:4:3:0.5", power_log_profile(), POWER_LOG_EXPONENTS))
    for name, profile, exponents in cases:
        green = pg.GreenData(profile)
        green.exact(1.0)  # builds the table of a non-closed profile
        wall = timed(lambda: [pg.powerlaw_classify(profile, a, green=green)
                              for a in exponents], args.repeats)
        classify[name] = round(wall / len(exponents) * 1e3, 3)
        print(f"powerlaw_classify on {name}: {classify[name]:.3f} ms")

    profile = power_log_profile()
    inv_area = lambda s: 1.0 / np.asarray(profile.area(s), dtype=float)
    edges = pg.GreenData(profile).edges
    build = lambda: pg.numerics.TailTable(inv_area, edges, "Green tail integral")
    wall = timed(build, args.repeats)
    table = build()
    tail_table = {"build_ms": round(wall * 1e3, 3)}
    for key, radii in (("inside", INSIDE), ("beyond_last_edge", BEYOND),
                       ("far_beyond", FAR), ("below_first_edge", BELOW)):
        wall = timed(lambda: table(radii), args.repeats)
        tail_table[f"{key}_us_per_point"] = round(wall / radii.size * 1e6, 3)
    print(f"TailTable: build {tail_table['build_ms']:.2f} ms, "
          + ", ".join(f"{key[:-13]} {val:.3f} us/point"
                      for key, val in tail_table.items() if key != "build_ms"))
    log_edges = np.log(table.edges)
    calls_us = {"tail_table": {}, "spline": {}}
    for count in CALL_POINTS:
        radii = np.geomspace(INSIDE[0], INSIDE[-1], count)
        logs = np.log(radii)
        assert logs[0] >= log_edges[0] and logs[-1] <= log_edges[-1]
        for key, fn, arg in (("tail_table", table, radii),
                             ("spline", table._spline, logs)):
            calls_us[key][str(count)] = round(
                timed(lambda: fn(arg), max(args.repeats, 200 // count))
                * 1e6, 2)
    print("calls: " + "; ".join(
        f"{key} " + ", ".join(f"{n} pts {us:.1f} us" for n, us in vals.items())
        for key, vals in calls_us.items()))

    potential = {"of_cells_ms": {}, "further_datum_ms": {},
                 "radial_potential_ms": {}}
    unit_ball = lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0)
    for name, profile in (("euclidean:3", pg.make_profile(form="euclidean",
                                                          dimension=3)),
                          ("power_log:4:3:0.5", power_log_profile())):
        green = pg.GreenData(profile)
        green.exact(1.0)
        of_cells, further = {}, {}
        for cells in POTENTIAL_CELLS:
            grid = pg.RadialGrid.make(profile, 12.0, cells)
            u = grid.cell_average(lambda r: np.exp(-np.asarray(r, dtype=float)))
            wall = timed(lambda: pg.CellPotential(
                profile, grid.edges, green=green)(u), args.repeats)
            of_cells[str(cells)] = round(wall * 1e3, 3)
            kernel = pg.CellPotential(profile, grid.edges, green=green)
            further[str(cells)] = round(
                timed(lambda: kernel(u), args.repeats) * 1e3, 3)
        wall = timed(lambda: pg.RadialPotential(
            profile, unit_ball, 1.0, green=green)(POTENTIAL_RADII), args.repeats)
        potential["of_cells_ms"][name] = of_cells
        potential["further_datum_ms"][name] = further
        potential["radial_potential_ms"][name] = round(wall * 1e3, 3)
        print(f"potentials on {name}: CellPotential built and applied "
              + ", ".join(f"{c} cells {ms:.3f} ms" for c, ms in of_cells.items())
              + "; further datum " + ", ".join(
                  f"{c} cells {ms} ms" for c, ms in further.items())
              + f"; RadialPotential {potential['radial_potential_ms'][name]:.3f} ms")

    profile = power_log_profile()
    growth = pg.make_growth(form="power_log", params={"k": 3.0, "b": 0.5},
                            r0=2.0)
    bound = pg.SmoothingBound.from_profile(profile, 2.0, growth)
    wall = timed(lambda: [bound.evaluate_l1(float(t), 1.0)
                          for t in BOUND_TIMES], args.repeats)
    evaluate_l1_us = round(wall / BOUND_TIMES.size * 1e6, 2)
    print(f"evaluate_l1: {evaluate_l1_us:.1f} us")

    profile = pg.make_profile(form="euclidean", dimension=5)
    growth = pg.make_growth(form="power", params={"k": 5.0}, r0=1.0)
    green = pg.GreenData(profile)
    wall = timed(lambda: pg.build_separating_sequence(
        profile, growth, SEPARATING_COUNT, green=green), args.repeats)
    separating_ms = round(wall * 1e3, 3)
    print(f"build_separating_sequence: {separating_ms:.3f} ms")

    imports = cold_import(IMPORT_ROUNDS)
    print(f"cold import: median {imports['median_s']:.3f} s over "
          f"{imports['rounds']} interpreters, {imports['scipy_modules']} "
          "scipy modules loaded")

    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "machine": machine(), "repeats": args.repeats,
        "classify_ms": classify, "tail_table": tail_table,
        "potential": potential, "evaluate_l1_us": evaluate_l1_us,
        "separating_ms": separating_ms,
        "calls_us": calls_us, "cold_import": imports}
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
