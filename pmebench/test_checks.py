"""Each correctness check passes a good output and rejects a perturbed one.

    python3 -m pytest pmebench/test_checks.py -q
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as C  # noqa: E402
import oracles as O  # noqa: E402


def test_close_rejects_relative_error():
    want = np.array([1.0, 2.0, 3.0])
    assert C.close("x", want * (1 + 1e-9), want, 1e-8) == []
    assert C.close("x", want * (1 + 1e-7), want, 1e-8)
    assert C.close("x", [1.0, np.nan, 3.0], want, 1e-8)
    assert C.close("x", want[:2], want, 1e-8)


def test_mass_ledger():
    masses = np.array([1.0, 0.9, 0.8])
    outflows = np.array([0.0, 0.1, 0.2])
    assert C.mass_ledger(masses, outflows) == []
    assert C.mass_ledger(masses, outflows + [0.0, 0.0, 1e-9])


def test_nonincreasing_and_below():
    assert C.nonincreasing("sup", [3.0, 2.0, 2.0, 1.0]) == []
    assert C.nonincreasing("sup", [3.0, 2.0, 2.1])
    assert C.below("sup", [1.0, 0.5], [1.0, 0.6]) == []
    assert C.below("sup", [1.0, 0.7], [1.0, 0.6])


def test_barenblatt_sup_and_slope():
    ref = O.Barenblatt(3, 2.0, 1.0)
    t = np.geomspace(1.0, 11.0, 25)
    sup = ref.sup(t)
    assert C.close("sup", sup, ref.sup(t), 1e-3) == []
    assert C.close("sup", sup * 1.01, ref.sup(t), 1e-3)
    assert C.decay_slope(t, sup, -ref.alpha, 1e-2) == []
    assert C.decay_slope(t, sup * t ** 0.05, -ref.alpha, 1e-2)


def test_barenblatt_closed_form():
    # unit mass on R^3, m = 2: alpha = 3/5 and the cell averages carry the mass
    ref = O.Barenblatt(3, 2.0, 1.0)
    assert ref.alpha == pytest.approx(0.6)
    edges = np.linspace(0.0, 12.0, 401)
    mass = np.sum(ref.cell_averages(edges, 2.0) * O.cell_volumes(edges, 3))
    assert mass == pytest.approx(1.0, rel=1e-12)


def test_l1_distance():
    edges = np.linspace(0.0, 12.0, 401)
    vols = O.cell_volumes(edges, 3)
    exact = O.Barenblatt(3, 2.0, 1.0).cell_averages(edges, 3.0)
    problems, dist = C.l1_distance("state", exact, exact, vols, 1e-3)
    assert problems == [] and dist == 0.0
    problems, dist = C.l1_distance("state", exact * 1.01, exact, vols, 1e-3)
    assert problems and dist == pytest.approx(0.01, rel=1e-6)


def test_dichotomy_rule():
    rows = [(a, *O.dichotomy(a, 5.0), *O.dichotomy(a, 5.0))
            for a in (2.0, 2.5, 5.0, 6.0)]
    assert C.dichotomy(rows, 5.0) == []
    flipped = [(2.5, True, True, True, True)]
    assert C.dichotomy(flipped, 5.0)
    unconverged = [(6.0, True, True, False, True)]
    assert C.dichotomy(unconverged, 5.0)


def test_refinement():
    res = [1.6e-3, 3.5e-4, 9.5e-5]
    orders = [math.log2(res[0] / res[1]), math.log2(res[1] / res[2])]
    assert C.refinement(res, orders) == []
    assert C.refinement([1.6e-3, 1.0e-3, 9.5e-5],
                        [math.log2(1.6), math.log2(1.0e-3 / 9.5e-5)])
    assert C.refinement(res, [o + 0.5 for o in orders])
    assert C.refinement([1e-3, 2e-3], [-1.0])


def test_far_ratio_and_potential():
    radii = np.geomspace(0.1, 1e3, 41)
    ratio = np.where(radii >= 0.5, 1.0, 0.7)
    assert C.far_ratio(radii, ratio, 0.5, 1e-8) == []
    assert C.far_ratio(radii, ratio * (1 + 1e-6), 0.5, 1e-8)
    # the uniform-ball potential matches G outside and is continuous at the edge
    u = O.uniform_ball_potential(3, 0.5, np.array([0.5 - 1e-12, 0.5, 2.0]))
    assert u[0] == pytest.approx(u[1], rel=1e-9)
    assert u[2] == pytest.approx(1.0 / (4.0 * math.pi * 2.0), rel=1e-14)


def test_separating():
    d = 8.0 * 4.0 ** np.arange(10)
    inc = O.separating_increments(5, d)
    const = float(np.max(inc * 2.0 ** np.arange(1, 11)))
    assert C.separating(inc, const, d, inc, 1e-3) == []
    assert C.separating(inc, const / 2.0, d, inc, 1e-3)
    assert C.separating(inc * 1.01, const * 1.01, d, inc, 1e-3)
    assert C.separating(inc, const, d[::-1], inc, 1e-3)


def test_green_oracle_power_log():
    # for sigma = 0 the profile is r^3 and G(r) = int_r^inf ds / (3 s^2)
    area, volume = O.power_log_profile(3.0, 0.0)
    radii = np.array([0.5, 2.0, 10.0])
    assert C.close("G", O.green_exact_ref(area, radii), 1.0 / (3.0 * radii),
                   1e-12) == []
    assert C.close("Ghat", O.green_surrogate_ref(volume, radii), 1.0 / radii,
                   1e-12) == []


def test_green_oracle_tabulated():
    # a table of exact r^3 volumes is only approximately r^3 once interpolated,
    # but its tail beyond the last row is exactly the power-law extension
    r = np.geomspace(0.01, 10.0, 60)
    table = O.TabulatedProfile(r, r ** 3)
    g, gs = table.green([20.0, 40.0])
    p = table.slope
    assert g[0] / g[1] == pytest.approx(2.0 ** (p - 2.0), rel=1e-12)
    assert gs[0] / gs[1] == pytest.approx(2.0 ** (p - 2.0), rel=1e-12)


def test_smoothing_closed_form_regimes():
    t = np.array([1.0, 8.0, 9.0, 1e6])
    vals = O.euclid3_power3_bound(t)
    # small-time t^-3/5 below the threshold 8 pi / 3, large-time 2 R*^2 / t above
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(8.0 ** -0.6)
    assert vals[2] == pytest.approx(2.0 * (3.0 * 9.0 / (8.0 * math.pi)) ** 0.4 / 9.0)
    assert vals[3] == pytest.approx(2.0 * (3e6 / (8.0 * math.pi)) ** 0.4 / 1e6)


def test_log_family_rate_root():
    # sigma = -1/(m-1) makes b = 0: R^a = s, rate = t^-1 R^2 log R
    t = 1e3
    a = 3.0 + 2.0
    resolved = t ** (1.0 / a)
    want = resolved ** 2 * math.log(resolved) / t
    assert O.log_family_rate(3.0, -1.0 + 1e-12, 2.0, t, 1.0) == pytest.approx(
        want, rel=1e-9)
