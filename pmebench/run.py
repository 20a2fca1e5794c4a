#!/usr/bin/env python3
"""pmegreen benchmark: one workload per process, timed end to end or traced.

    python3 pmebench/run.py --workload decay --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. The
workload's inputs are built (set-up, timed apart), its references computed
(untimed), and then whole passes over its operations repeat until
--seconds have gone by. Every output of every pass is checked against the
references. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s (median pass), setup_s (median of
several set-ups) and peak_rss_mb; the pass times go to standard error. With --trace 1 untraced and traced passes
alternate, and the metrics are the per-layer ones of spans.py; the spans of
the last traced pass go to pmebench/out/<workload>.trace.json.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_ROUNDS = 5
# import time of the package, measured in a fresh interpreter
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import pmegreen, pmegreen.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_pass(ops, tracer=None) -> dict:
    """One pass over the operations; only op.run is timed (and traced)."""
    wall, failed, problems = 0.0, [], []
    for op in ops:
        if op.prepare:
            op.prepare()
        if tracer:
            tracer.install()
        error = None
        tic = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a crash of the program is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall += time.perf_counter() - tic
            if tracer:
                tracer.remove()
        if error is None and op.is_cli and out != 0:
            error = f"exit code {out}"
        if error is not None:
            failed.append((op, error))
            continue
        try:
            found = op.check(out)
        except Exception as exc:  # unreadable output fails the check
            found = [f"check raised {type(exc).__name__}: {exc}"]
        problems += [f"{op.name}: {p}" for p in found]
    return {"wall": wall, "failed": failed, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the harness; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pmegreen" / "__init__.py").is_file():
        print(f"error: no pmegreen sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload

    setups = []
    for _ in range(SETUP_ROUNDS):
        imported = import_seconds()
        tic = time.perf_counter()
        work = workloads.WORKLOADS[args.workload](out_dir)
        work.setup()
        setups.append(imported + time.perf_counter() - tic)
    work.references()
    ops = work.ops()

    walls, traced_walls, aggregates = [], [], []
    attempted, failures, problems = 0, {}, []
    start = time.perf_counter()
    while True:
        for tracer in ([None, Tracer()] if args.trace else [None]):
            result = run_pass(ops, tracer)
            attempted += len(ops)
            for op, error in result["failed"]:
                failures.setdefault(op.name, [0, op.known_fault, error])[0] += 1
            problems += [p for p in result["problems"] if p not in problems]
            if tracer is None:
                walls.append(result["wall"])
            else:
                traced_walls.append(result["wall"])
                aggregates.append(tracer.aggregate())
                last_traced = tracer
        if time.perf_counter() - start >= args.seconds:
            break

    for name, (count, known, error) in failures.items():
        why = f"known fault: {known}" if known else "UNEXPECTED"
        print(f"failed x{count}: {name}: {error.splitlines()[0]} ({why})",
              file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    print(f"passes: {len(walls)} untraced, {len(traced_walls)} traced; untraced "
          f"pass seconds {[round(w, 4) for w in walls]}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(aggregates)
        metrics["solver.l1_err"] = {"value": work.notes.get("l1_err", 0.0),
                                    "unit": "1"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls),
            "unit": "s"}
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"{args.workload}.trace.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "passes": len(traced_walls),
                       "aggregate": {k: dict(zip(("count", "incl_s", "self_s",
                                                  "size"), v))
                                     for k, v in sorted(aggregates[-1].items())},
                       "metrics": metrics, "spans": last_traced.columns()}, fh)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": sum(f[0] for f in failures.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
