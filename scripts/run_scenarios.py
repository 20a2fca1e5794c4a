#!/usr/bin/env python3
"""Run the bundled experiment scenarios and summarize their verdicts.

Each scenario writes a CSV and a manifest into the output directory; the
script exits with the worst exit code of its scenarios. A scenario whose
config is rejected is reported as FAIL (exit 2) with the reason, and the
remaining scenarios still run.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from pmegreen.cli import TOLERANCE_PROFILES, ConfigError, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results",
                        help="directory for CSV and manifest outputs")
    parser.add_argument("--only", default=None,
                        help="substring filter on scenario file names")
    parser.add_argument("--tolerance-profile", default="default",
                        choices=sorted(TOLERANCE_PROFILES))
    args = parser.parse_args(argv)

    paths = sorted(SCENARIO_DIR.glob("*.json"))
    if args.only:
        paths = [p for p in paths if args.only in p.name]
    if not paths:
        print("no scenarios matched", file=sys.stderr)
        return 2

    worst = 0
    for path in paths:
        tic = time.perf_counter()
        reason = ""
        try:
            code = run_scenario(path, out_dir=args.out_dir,
                                tolerance_profile=args.tolerance_profile)
        except ConfigError as exc:
            code, reason = 2, f"  {exc}"
        elapsed = time.perf_counter() - tic
        verdict = "ok" if code == 0 else f"FAIL (exit {code})"
        print(f"{path.stem:24s} {verdict:14s} {elapsed:7.2f}s{reason}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
