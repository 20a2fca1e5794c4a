#!/usr/bin/env python3
"""Run the bundled experiment scenarios and summarize their verdicts.

Each scenario writes a CSV and a manifest into the output directory; the
script exits with the worst exit code of its scenarios. After each verdict
it prints the smallest margin of the scenario's manifest and the name of its
check. A scenario whose config is rejected is reported as FAIL (exit 2) with
the reason, one that raises any other exception as FAIL (exit 3) with its
type and message after a traceback on stderr; the remaining scenarios still
run.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from pathlib import Path

from pmegreen.cli import (TOLERANCE_PROFILES, ConfigError, load_scenario,
                          run_scenario)

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"


def smallest_margin(manifest: Path) -> str:
    """The least margin of a manifest's checks and the check's name; a nan
    margin, from a nan value, counts as the least."""
    margins = json.loads(manifest.read_text(encoding="utf-8"))["margins"]
    if not margins:
        return "no checks"
    name = min(margins, key=lambda k: (margins[k] >= -math.inf, margins[k]))
    return f"margin {margins[name]:.3g} ({name})"


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
            name = load_scenario(path)["name"]
            code = run_scenario(path, out_dir=args.out_dir,
                                tolerance_profile=args.tolerance_profile)
        except ConfigError as exc:  # rejected before it wrote a manifest
            code, reason = 2, f"  {exc}"
        except Exception as exc:  # an internal error: exit 3, not a verdict
            traceback.print_exc()
            code, reason = 3, f"  {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - tic
        if not reason:
            reason = "  " + smallest_margin(
                Path(args.out_dir) / f"{name}.manifest.json")
        verdict = "ok" if code == 0 else f"FAIL (exit {code})"
        print(f"{path.stem:24s} {verdict:14s} {elapsed:7.2f}s{reason}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
