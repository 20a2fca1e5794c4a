from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_ab",
                                               ROOT / "scripts" / "bench_ab.py")
bench_ab = sys.modules["bench_ab"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def _samples(rng, rounds=30):
    # a drifting machine: each round's speed shared by both sides, plus noise
    drift = rng.uniform(0.7, 1.3, rounds)
    return lambda: list(drift * rng.lognormal(0.0, 0.05, rounds))


def test_paired_equal_samples_read_one():
    a = [1.0, 2.0, 3.0, 5.0]
    stats = bench_ab.paired(a, list(a))
    assert stats["ratio"] == 1.0
    assert stats["ratio_ci95"] == [1.0, 1.0]
    assert stats["wins"] == {"A": 0, "B": 0}
    assert stats["A"] == stats["B"] == {"median": 2.5, "q1": 1.75, "q3": 3.5,
                                        "n": 4}


def test_paired_same_speed_interval_contains_one():
    draw = _samples(np.random.default_rng(1))
    stats = bench_ab.paired(draw(), draw())
    lo, hi = stats["ratio_ci95"]
    assert lo < 1.0 < hi


def test_paired_a_fifth_off_excludes_one():
    draw = _samples(np.random.default_rng(2))
    a = draw()
    b = [0.8 * x for x in draw()]
    stats = bench_ab.paired(a, b)
    assert stats["ratio_ci95"][1] < 1.0
    assert abs(stats["ratio"] - 0.8) < 0.05
    assert stats["wins"] == {"A": 0, "B": 30}


def test_paired_ties_count_for_neither_and_gaps_drop_their_round():
    stats = bench_ab.paired([1.0, 2.0, 3.0, 4.0, None],
                            [1.0, 1.0, 4.0, 4.0, 9.0])
    assert stats["wins"] == {"A": 1, "B": 1}
    assert stats["A"]["n"] == 4 and stats["B"]["n"] == 5
    none = bench_ab.paired([None, None], [1.0, 2.0])
    assert none["ratio"] is none["wins"] is none["ratio_ci95"] is None
    assert none["A"] == {"median": None, "q1": None, "q3": None, "n": 0}


def test_a_against_itself_smoke(tmp_path):
    out = tmp_path / "ab.json"
    name = "layer: build_separating_sequence, euclidean:5"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_ab.py"), str(ROOT),
         str(ROOT), "--label", "a/a", "--rounds", "1", "--cases",
         "^layer: build_separating", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    run = json.loads(out.read_text(encoding="utf-8"))["runs"]["a/a"]
    assert set(run["machine"]) >= {"python", "numpy", "scipy"}
    assert run["workloads"] == {} and list(run["cases"]) == [name]
    case = run["cases"][name]
    assert case["runs_per_sample"] >= 1 and case["wins"] is not None
    for side in ("A", "B"):
        assert case[side]["n"] == 1 and case[side]["failed"] == 0
        assert case[side]["error"] is None and case[side]["median"] > 0.0
    assert name in done.stdout
