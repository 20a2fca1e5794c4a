#!/usr/bin/env python3
"""Time two pmegreen source trees against each other, interleaved.

    python3 scripts/bench_ab.py A B --label "change against parent"

A and B are checkouts, each with src/pmegreen. One worker process per
tree, with that tree's src first on sys.path, runs the same cases in
lockstep with the other: every round runs every case on both workers, one
worker at a time, and the worker that goes first alternates from case to
case and from round to round, so both trees share the machine's drift in
speed. The cases are:

- every operation of pmebench's workloads (pmebench/workloads.py beside
  this script), prepared and checked untimed by the operation's own
  `prepare` and `check`;
- `solver:` runs through `run_pme` on euclidean:3 with r_max 20: explicit
  runs from the mass-1 self-similar datum at 1000, 2000 and 4000 cells for
  m = 2 and 3 (t_end scaled with h^2), implicit ones at 2000 cells (dt
  0.01 to t = 1), and both schemes from 1 + exp(-r^2), whose support fills
  the grid, at 1000 and 4000 cells; each with the counts its RunRecord
  gives;
- `layer:` cases: `powerlaw_classify`, the TailTable of 1/S and its
  spline, `CellPotential` and `RadialPotential`, `evaluate_l1`,
  `build_separating_sequence`, and a fresh interpreter importing
  pmegreen and pmegreen.cli.

An untimed warm-up of two runs per case and tree comes first. It fills
caches, reads the counts, and sets how many runs one timed sample holds:
enough for SAMPLE_S on the slower tree, one for a pmebench operation. A
case that a tree cannot run (it raises in the warm-up) is null for that
tree; a later run that raises or fails its check counts in `failed`.

After every sample a worker runs `gc.collect()`, untimed, and reports
how many objects it freed: objects left in reference cycles, which wait
for the collector and so raise the peak memory of a long run.

--out gets, under --label, per case and per pmebench workload (the sum of
its operations in one round): each tree's median and quartiles in ms per
run, the median over rounds of the paired ratio B/A, the rounds each tree
won (ties count for neither), a bootstrap 95% interval of the median
ratio and `claim`, whether B's gain meets the claim rule: B faster in at
least nine rounds in ten, and B's median below A's by more than A's
interquartile distance; per case, each tree's median count of objects
that `gc.collect()` freed after a sample (`gc_freed`); with each tree's
peak resident memory (`ru_maxrss_mb`, its worker's ru_maxrss), commit,
the rounds, the machine and the Python, numpy and scipy versions.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy

PMEBENCH = Path(__file__).resolve().parents[1] / "pmebench"
WORKLOADS = ("decay", "dual", "quadrature")
SAMPLE_S = 0.005    # the least time one timed sample spans
RESAMPLES = 2000    # bootstrap resamples of the paired ratios
COUNTS = ("steps", "stages", "rejections", "error_rejections",
          "newton_iterates", "residuals", "dt_halvings")
SIDES = ("A", "B")


def paired(a: list, b: list) -> dict:
    """Statistics of per-round samples a and b, None where a side has none:
    each side's quartiles, the median per-round ratio b/a, the rounds each
    side took less time (ties count for neither), a bootstrap 95% interval
    of the median ratio, resampling rounds with a fixed seed, and `claim`:
    whether B won at least nine rounds in ten and its median undercuts A's
    by more than A's interquartile distance, over the rounds both ran."""
    out = {}
    for side, xs in zip(SIDES, (a, b)):
        xs = [x for x in xs if x is not None]
        q1, median, q3 = ([round(float(v), 6) for v in np.percentile(
            xs, [25, 50, 75])] if xs else [None] * 3)
        out[side] = {"median": median, "q1": q1, "q3": q3, "n": len(xs)}
    both = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    if not both:
        return {**out, "ratio": None, "ratio_ci95": None, "wins": None,
                "claim": None}
    x, y = np.array(both).T
    ratios = y / x
    draws = np.random.default_rng(0).integers(0, ratios.size,
                                              (RESAMPLES, ratios.size))
    ci = np.percentile(np.median(ratios[draws], axis=1), [2.5, 97.5])
    wins = {"A": int(np.sum(x < y)), "B": int(np.sum(y < x))}
    q1, q3 = np.percentile(x, [25, 75])
    claim = (10 * wins["B"] >= 9 * x.size and
             np.median(x) - np.median(y) > q3 - q1)
    return {**out, "ratio": round(float(np.median(ratios)), 4),
            "ratio_ci95": [round(float(v), 4) for v in ci],
            "wins": wins, "claim": bool(claim)}


@dataclass
class Case:
    """What the clock times (`run`), and the untimed work around it."""

    run: Callable[[], object]
    check: Callable[[object], list] = lambda out: []
    prepare: Optional[Callable[[], None]] = None
    counts: Optional[Callable[[object], dict]] = None


def _cases(src: str, out_dir: Path) -> dict:
    """Case name -> factory of its Case. Listing a pmebench workload's
    operations needs its set-up, which runs here."""
    import pmegreen as pg
    import workloads

    cases = {}
    for name in WORKLOADS:
        work = workloads.WORKLOADS[name](out_dir / name)
        work.setup()
        references = cache(work.references)
        for op in work.ops():
            cases[f"{name}: {op.name}"] = partial(_op_case, op, references)

    def record_counts(rec):
        return {key: getattr(rec, key) for key in COUNTS if hasattr(rec, key)}

    def solver(m, cells, t_end, full, **run_args):
        profile = pg.make_profile(form="euclidean", dimension=3)
        grid = pg.RadialGrid.make(profile, 20.0, cells)
        datum = ((lambda r: 1.0 + np.exp(-r * r)) if full else
                 pg.barenblatt_datum(pg.BarenblattParams.from_mass(3, m, 1.0)))
        u0 = grid.cell_average(datum)
        return Case(lambda: pg.run_pme(grid, m, u0, t_end=t_end, **run_args),
                    counts=record_counts)

    implicit = {"scheme": "implicit", "implicit_dt": 0.01}
    solvers = [("explicit", m, cells, t_end * (1000.0 / cells) ** 2, False, {})
               for m, t_end in ((2.0, 0.4), (3.0, 0.6))
               for cells in (1000, 2000, 4000)]
    solvers += [("implicit", m, 2000, 1.0, False, implicit) for m in (2.0, 3.0)]
    for cells in (1000, 4000):
        solvers += [("explicit", 2.0, cells, 0.1 * (1000.0 / cells) ** 2, True,
                     {}), ("implicit", 2.0, cells, 1.0, True, implicit)]
    for scheme, m, cells, t_end, full, run_args in solvers:
        key = (f"solver: {scheme} m={m:g} cells={cells}"
               + (" full support" if full else ""))
        cases[key] = partial(solver, m, cells, t_end, full, **run_args)

    def euclidean(n):
        return pg.make_profile(form="euclidean", dimension=n)

    def power_log():
        return pg.make_profile(form="power_log", dimension=4,
                               params={"lam": 3.0, "sigma": 0.5})

    # a layer case reads its profile's own GreenData, whose tables the
    # untimed warm-up builds
    def classify(make, exponents):
        profile = make()
        return Case(lambda: [pg.powerlaw_classify(profile, a)
                             for a in exponents])

    cases["layer: powerlaw_classify euclidean:5"] = partial(
        classify, partial(euclidean, 5), (2.0, 2.5, 3.0, 5.0, 6.0))
    cases["layer: powerlaw_classify power_log:4:3:0.5"] = partial(
        classify, power_log, (2.0, 2.5, 3.5, 4.5))

    def tail_table():
        profile = power_log()
        edges = pg.GreenData(profile).edges
        return lambda: pg.numerics.TailTable(
            lambda s: 1.0 / np.asarray(profile.area(s), dtype=float), edges,
            "Green tail integral")

    def tail_read(radii, spline=False):
        table = tail_table()()
        if spline:
            return Case(lambda: table._spline(np.log(radii)))
        return Case(lambda: table(radii))

    cases["layer: TailTable build, power_log:4:3:0.5"] = lambda: Case(
        tail_table())
    for key, radii in (("inside", np.geomspace(0.25, 30.0, 1000)),
                       ("beyond the last edge", np.geomspace(2e7, 1e12, 20)),
                       ("far beyond", np.geomspace(1e25, 1e30, 20)),
                       ("below the first edge", np.geomspace(1e-12, 9e-5, 200))):
        cases[f"layer: TailTable read {key}, {radii.size} radii"] = partial(
            tail_read, radii)
    for count in (1, 100, 10000):
        radii = np.geomspace(0.25, 30.0, count)
        cases[f"layer: TailTable call, {count} radii"] = partial(tail_read, radii)
        cases[f"layer: TailTable spline, {count} radii"] = partial(
            tail_read, radii, spline=True)

    def cell_potential(make, cells, further):
        profile = make()
        grid = pg.RadialGrid.make(profile, 12.0, cells)
        u = grid.cell_average(lambda r: np.exp(-np.asarray(r, dtype=float)))
        if further:  # the dual identity applies one kernel to every snapshot
            kernel = pg.CellPotential(profile, grid.edges)
            return Case(lambda: kernel(u))
        return Case(lambda: pg.CellPotential(profile, grid.edges)(u))

    def radial_potential(make):
        profile = make()
        radii = np.geomspace(0.1, 1e3, 41)
        return Case(lambda: pg.RadialPotential(
            profile, lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0),
            1.0)(radii))

    for label, profile in (("euclidean:3", partial(euclidean, 3)),
                           ("power_log:4:3:0.5", power_log)):
        for cells in (250, 1000, 4000):
            cases[f"layer: CellPotential built and applied, {label}, "
                  f"{cells} cells"] = partial(cell_potential, profile, cells, False)
            cases[f"layer: CellPotential further datum, {label}, "
                  f"{cells} cells"] = partial(cell_potential, profile, cells, True)
        cases[f"layer: RadialPotential, {label}"] = partial(radial_potential,
                                                          profile)

    def evaluate_l1():
        bound = pg.SmoothingBound.from_profile(power_log(), 2.0, pg.make_growth(
            form="power_log", params={"k": 3.0, "b": 0.5}, r0=2.0))
        return Case(lambda: [bound.evaluate_l1(float(t), 1.0)
                             for t in np.geomspace(1.0, 1e6, 40)])

    def separating():
        profile = euclidean(5)
        growth = pg.make_growth(form="power", params={"k": 5.0}, r0=1.0)
        return Case(lambda: pg.build_separating_sequence(profile, growth, 20))

    def cold_import():
        env = dict(os.environ, PYTHONPATH=src)
        return Case(lambda: subprocess.run(
            [sys.executable, "-c", "import pmegreen, pmegreen.cli"], env=env,
            check=True))

    cases["layer: evaluate_l1 at 40 times, power_log:4:3:0.5"] = evaluate_l1
    cases["layer: build_separating_sequence, euclidean:5"] = separating
    cases["layer: import pmegreen and pmegreen.cli"] = cold_import
    return cases


def _op_case(op, references) -> Case:
    """A pmebench operation: a CLI operation fails when it exits nonzero,
    and its workload's references are computed before the first check."""

    def check(out):
        if op.is_cli and out != 0:
            return [f"exit code {out}"]
        references()
        return op.check(out)

    return Case(op.run, check, op.prepare)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _worker(src: str, conn) -> None:
    """Serve (name, runs) requests on one tree until a None arrives, which
    it answers with its peak resident memory in MB."""
    sys.path[:0] = [src, str(PMEBENCH)]
    with tempfile.TemporaryDirectory() as tmp:
        factories = _cases(src, Path(tmp))
        conn.send(list(factories))
        built = {}
        while (request := conn.recv()) is not None:
            name, runs = request
            try:
                if name not in built:
                    built[name] = factories[name]()
                case = built[name]
                if case.prepare:
                    case.prepare()
                tic = time.perf_counter()
                for _ in range(runs):
                    out = case.run()
                seconds = (time.perf_counter() - tic) / runs
                reply = {"s": seconds, "problems": case.check(out),
                         "counts": case.counts(out) if case.counts else None}
                del out
                reply["gc_freed"] = gc.collect()
            except Exception as exc:  # a fault of the tree fails this case
                reply = {"error": f"{type(exc).__name__}: {exc}".splitlines()[0]}
            conn.send(reply)
        conn.send(_maxrss_mb())


def commit(tree: Path) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(tree), "describe", "--always",
                               "--dirty"], capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "system": platform.system(),
            "arch": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def bench(trees: list, pattern: str, rounds: int) -> dict:
    """Warm up, then run `rounds` interleaved rounds of the cases whose
    names match `pattern`; the figures of each case and workload."""
    ctx = multiprocessing.get_context("spawn")
    workers = []
    try:
        for tree in trees:
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_worker, daemon=True,
                               args=(str(tree / "src"), theirs))
            proc.start()
            theirs.close()
            workers.append((mine, proc))
        listed = [conn.recv() for conn, _ in workers]

        def call(k, name, runs=1):
            workers[k][0].send((name, runs))
            return workers[k][0].recv()

        # both workers list the cases of this script
        names = [n for n in listed[0] if re.search(pattern, n)]
        cases = {}
        for name in names:
            sides = []
            for k in (0, 1):
                # the first run fills caches, the second sizes the samples
                warm = [call(k, name) for _ in range(2)]
                error = next((w["error"] for w in warm if "error" in w), None)
                sides.append({"error": error, "warm_s": warm[-1].get("s"),
                              "counts": warm[0].get("counts"), "samples": [],
                              "problems": [], "gc_freed": []})
            slowest = max((s["warm_s"] for s in sides if s["error"] is None),
                          default=None)
            runs = 1
            if slowest and _workload(name) is None:
                runs = max(1, math.ceil(SAMPLE_S / slowest))
            cases[name] = (runs, sides)
        for rnd in range(rounds):
            for i, name in enumerate(names):
                runs, sides = cases[name]
                for k in ((0, 1) if (rnd + i) % 2 == 0 else (1, 0)):
                    side = sides[k]
                    if side["error"] is not None:
                        side["samples"].append(None)
                        continue
                    reply = call(k, name, runs)
                    problems = ([reply["error"]] if "error" in reply
                                else reply["problems"])
                    side["problems"] += problems
                    side["samples"].append(None if problems
                                           else reply["s"] * 1e3)
                    if "gc_freed" in reply:
                        side["gc_freed"].append(reply["gc_freed"])
        maxrss = {}
        for side, (conn, _) in zip(SIDES, workers):
            conn.send(None)
            maxrss[side] = round(conn.recv(), 2)
    finally:
        for conn, proc in workers:
            try:
                conn.send(None)
            except OSError:
                pass
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()

    out = {"ru_maxrss_mb": maxrss, "cases": {}, "workloads": {}}
    for name, (runs, sides) in cases.items():
        fig = paired(sides[0]["samples"], sides[1]["samples"])
        for side, info in zip(SIDES, sides):
            fig[side].update(
                failed=(None if info["error"] else
                        sum(x is None for x in info["samples"])),
                problems=sorted(set(info["problems"])), error=info["error"],
                gc_freed=(int(np.median(info["gc_freed"]))
                          if info["gc_freed"] else None))
            if info["counts"] is not None:
                fig[side]["counts"] = {key: info["counts"].get(key)
                                       for key in COUNTS}
        out["cases"][name] = {"runs_per_sample": runs, **fig}
    for work in WORKLOADS:
        ops = [sides for name, (_, sides) in cases.items()
               if _workload(name) == work]
        if ops and len(ops) == sum(_workload(n) == work for n in listed[0]):
            # one sample per round: the sum over the workload's operations
            sums = [[None if None in column else sum(column) for column in
                     zip(*(sides[k]["samples"] for sides in ops))]
                    for k in (0, 1)]
            out["workloads"][work] = {"operations": len(ops), **paired(*sums)}
    return out


def _workload(name: str) -> Optional[str]:
    """The pmebench workload a case name belongs to, if any."""
    prefix = name.split(": ", 1)[0]
    return prefix if prefix in WORKLOADS else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE", type=Path,
                        help="checkouts A and B, each with src/pmegreen")
    parser.add_argument("--label", required=True,
                        help="name of this run in the output file")
    parser.add_argument("--out", default="BENCH_ab.json", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--cases", default="",
                        help="regular expression: time only matching cases")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for tree in args.trees:
        if not (tree / "src" / "pmegreen" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/pmegreen")

    result = bench([tree.resolve() for tree in args.trees], args.cases,
                   args.rounds)
    for name, fig in {**result["workloads"], **result["cases"]}.items():
        line = f"{name}: " + ", ".join(
            f"{side} " + ("null" if fig[side]["median"] is None
                          else f"{fig[side]['median']:.4g} ms")
            for side in SIDES)
        if fig["ratio"] is not None:
            lo, hi = fig["ratio_ci95"]
            line += (f", B/A {fig['ratio']:.3f} [{lo:.3f}, {hi:.3f}], wins "
                     f"A {fig['wins']['A']} B {fig['wins']['B']}, B gain "
                     + ("claimed" if fig["claim"] else "not claimed"))
        if fig["A"].get("gc_freed") or fig["B"].get("gc_freed"):
            line += (f", gc freed A {fig['A']['gc_freed']} "
                     f"B {fig['B']['gc_freed']}")
        print(line)
    print("peak RSS: " + ", ".join(f"{side} {mb} MB" for side, mb in
                                   result["ru_maxrss_mb"].items()))

    doc = (json.loads(args.out.read_text(encoding="utf-8"))
           if args.out.exists() else {})
    doc.setdefault("runs", {})[args.label] = {
        "A": commit(args.trees[0]), "B": commit(args.trees[1]),
        "rounds": args.rounds, "unit": "ms per run", "machine": machine(),
        **result}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
