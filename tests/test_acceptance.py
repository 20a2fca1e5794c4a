"""Acceptance gate: one test per release criterion, at the pinned tolerances.

Each test prints a single `criterion NN: PASS|FAIL (runtime) detail` line
before asserting, so a red run still shows the measured numbers.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
import scipy.integrate

import pmegreen as pg
from pmegreen.numerics import loglog_slope
from conftest import exact_record


def _report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} ({elapsed:.2f}s) {detail}")


def test_criterion_01_euclidean_green_identity():
    tic = time.perf_counter()
    worst_exact = worst_surr = worst_ratio = 0.0
    for n in (3, 4, 5):
        prof = pg.make_profile(form="euclidean", dimension=n)
        sigma = pg.unit_sphere_area(n)
        omega = pg.unit_ball_volume(n)
        green = pg.GreenData(prof)
        for r in (0.5, 1.0, 2.0, 10.0):
            ge = green.exact(r)
            gs = green.surrogate(r)
            ref_e = r ** (2 - n) / ((n - 2) * sigma)
            ref_s = r ** (2 - n) / ((n - 2) * omega)
            worst_exact = max(worst_exact, abs(ge / ref_e - 1.0))
            worst_surr = max(worst_surr, abs(gs / ref_s - 1.0))
            worst_ratio = max(worst_ratio, abs(ge / gs - 1.0 / n) * n)
    elapsed = time.perf_counter() - tic
    ok = worst_exact <= 1e-8 and worst_surr <= 1e-8 and worst_ratio <= 1e-8
    _report(1, ok and elapsed < 1.0, elapsed,
            f"rel errors: exact {worst_exact:.2e}, surrogate "
            f"{worst_surr:.2e}, ratio {worst_ratio:.2e}")
    assert ok
    assert elapsed < 1.0


def test_criterion_02_envelope_log_closed_form():
    tic = time.perf_counter()
    worst = 0.0
    for b in (2.0, 3.0):
        growth = pg.make_growth(form="power_log",
                                params={"k": 2.0, "b": b}, r0=math.e)
        for R in np.geomspace(math.e, 1e3, 60):
            got = pg.green_ball_envelope(growth, float(R))
            want = R * R * (math.log(R) / (b - 1.0) + 1.0)
            worst = max(worst, abs(got / want - 1.0))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-8
    _report(2, ok and elapsed < 1.0, elapsed, f"envelope rel error {worst:.2e}")
    assert ok
    assert elapsed < 1.0


def test_criterion_03_scale_round_trip_and_rate_exponent(euclid3, growth3):
    tic = time.perf_counter()
    bound = pg.SmoothingBound.from_profile(euclid3, 2.0, growth3)
    worst = 0.0
    for R in np.geomspace(1.0, 1e4, 100):
        back = bound.radius_for_scale(bound.data_scale(float(R)))
        worst = max(worst, abs(back / R - 1.0))
    ts = np.geomspace(1e2, 1e6, 60)
    vals = np.array([bound.evaluate_l1(float(t), 1.0).value for t in ts])
    slope = loglog_slope(ts, vals)
    slope_err = abs(slope - (-0.6))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-8 and slope_err <= 1e-3
    _report(3, ok and elapsed < 5.0, elapsed,
            f"round-trip rel {worst:.2e}, slope {slope:.6f} "
            f"(err {slope_err:.2e})")
    assert ok
    assert elapsed < 5.0


def test_criterion_04_lambert_residual_and_power_case():
    tic = time.perf_counter()
    xs = np.linspace(-math.exp(-1.0), 1e3, 1000)
    worst = 0.0
    for x in xs:
        w = pg.lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    fam = pg.LogVolumeFamily(dimension=4, delta=2.0, lam=3.0, sigma=-1.0)
    a = 3.0 + 2.0
    fam_err = 0.0
    for t, norm in ((10.0, 1.0), (1e3, 2.0)):
        s = t * norm
        resolved = s ** (1.0 / a)
        manual = (1.0 / t) * resolved ** 2.0 * math.log(resolved)
        got = pg.family_rate(fam, 2.0, t, norm)
        fam_err = max(fam_err, abs(got / manual - 1.0))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-12 and fam_err <= 1e-14
    _report(4, ok and elapsed < 1.0, elapsed,
            f"max residual {worst:.2e}, b=0 rate rel {fam_err:.2e}")
    assert ok
    assert elapsed < 1.0


def test_criterion_05_self_similar_mass_and_decay_law():
    tic = time.perf_counter()
    mass_err = 0.0
    for k, m in ((3, 2.0), (4, 3.0)):
        params = pg.BarenblattParams.from_mass(k, m, 1.0)
        sigma = pg.unit_sphere_area(k)
        for t in (1.0, 10.0):
            front = params.support_radius(t)
            val, _ = scipy.integrate.quad(
                lambda r: pg.barenblatt(params, r, t) * sigma * r ** (k - 1),
                0.0, front, points=[front], limit=200)
            mass_err = max(mass_err, abs(val - 1.0))
    law_err = 0.0
    for k, m in ((3, 2.0), (4, 3.0)):
        for A in (1.0, 1.3):
            p = pg.BarenblattParams(dimension=k, m=m, bracket=A)
            want = A ** (1.0 / (m - 1.0))
            for t in (1.0, 10.0):
                got = p.sup_value(t) * t ** p.alpha
                law_err = max(law_err, abs(got / want - 1.0))
    elapsed = time.perf_counter() - tic
    ok = mass_err <= 1e-8 and law_err <= 1e-13
    _report(5, ok and elapsed < 1.0, elapsed,
            f"mass rel {mass_err:.2e}, sup-law rel {law_err:.2e}")
    assert ok
    assert elapsed < 1.0


def test_criterion_06_solver_tracks_self_similar_decay():
    tic = time.perf_counter()
    rep = pg.optimality_harness(3, 2.0, mass=1.0, eps=1.0, cells=2000,
                                r_max=20.0, t_end=10.0,
                                fit_window=(1.0, 10.0))
    elapsed = time.perf_counter() - tic
    slope_err = abs(rep.slope - (-0.6))
    ok = (rep.l1_error_final <= 1e-2 and slope_err <= 0.05 and
          rep.band_ratio <= 1.3)
    _report(6, ok and elapsed < 120.0, elapsed,
            f"L1 {rep.l1_error_final:.2e}, slope {rep.slope:.5f} "
            f"(err {slope_err:.1e}), band {rep.band_ratio:.6f}, "
            f"steps {rep.steps}")
    assert ok
    assert elapsed < 120.0


def test_criterion_07_estimate_suite_with_refinement(euclid3):
    tic = time.perf_counter()
    pa = pg.BarenblattParams.from_mass(3, 2.0, 1.0)
    pb = pg.BarenblattParams.from_mass(3, 2.0, 1.5)
    taus = {}
    for cells in (2000, 4000):
        grid = pg.RadialGrid.make(euclid3, 12.0, cells)
        rec = pg.run_pme(grid, 2.0, pg.barenblatt_datum(pa), t_end=2.0,
                         snapshots=[0.5, 1.0, 1.5, 2.0])
        pair = pg.run_pme(grid, 2.0, pg.barenblatt_datum(pb), t_end=2.0,
                          snapshots=[0.5, 1.0, 1.5, 2.0])
        report = pg.verify_solution_estimates(rec, pair=pair,
                                              triple=(1.0, 2.0, 2.0))
        assert len(report.checks) == 6
        taus[cells] = report.max_violation
    elapsed = time.perf_counter() - tic
    # both resolutions sit at roundoff, so "decreasing" is asserted up to a
    # floor far below the 2% budget
    ok = (taus[2000] <= 0.02 and
          taus[4000] <= max(taus[2000], 1e-12))
    _report(7, ok and elapsed < 300.0, elapsed,
            f"tau(2000) {taus[2000]:.2e}, tau(4000) {taus[4000]:.2e}")
    assert ok
    assert elapsed < 300.0


def test_criterion_08_dual_identity_refinement(euclid3, mass1_params):
    tic = time.perf_counter()
    study = pg.weak_dual_refinement(
        euclid3, 2.0, pg.barenblatt_datum(mass1_params),
        levels=[(250, 8), (500, 16), (1000, 32)],
        r_max=12.0, window=(0.5, 1.5))
    elapsed = time.perf_counter() - tic
    ok = (all(o >= 1.0 for o in study.orders) and
          study.residuals[0] > study.residuals[1] > study.residuals[2])
    _report(8, ok and elapsed < 180.0, elapsed,
            "residuals " + ", ".join(f"{r:.2e}" for r in study.residuals) +
            "; orders " + ", ".join(f"{o:.2f}" for o in study.orders))
    assert ok
    assert elapsed < 180.0


def test_criterion_09_weighted_space_dichotomy(euclid5):
    tic = time.perf_counter()
    expected = {2.0: (False, False), 2.5: (False, True), 3.0: (False, True),
                5.0: (False, True), 6.0: (True, True)}
    got = {}
    consistent = True
    for a in expected:
        cls = pg.powerlaw_classify(euclid5, a)
        got[a] = (cls.in_l1, cls.in_l1g)
        consistent = consistent and cls.consistent
    elapsed = time.perf_counter() - tic
    ok = got == expected and consistent
    _report(9, ok and elapsed < 10.0, elapsed,
            f"classes {sorted(got.items())}, quadratures consistent: "
            f"{consistent}")
    assert ok
    assert elapsed < 10.0


def test_criterion_10_strict_inclusion_sequence(euclid5, growth5):
    tic = time.perf_counter()
    seq = pg.build_separating_sequence(euclid5, growth5, 20)
    j_idx = np.arange(1, 21, dtype=float)
    linear_growth = seq.l1_partials[-1] > 19.0 * seq.masses[0]
    certified = bool(np.all(
        seq.weighted_increments <=
        seq.increment_constant * 2.0 ** (-j_idx) * (1.0 + 1e-12)))
    cauchy = (float(np.max(seq.weighted_increments)) <= 1e-4 and
              float(seq.weighted_partials[-1] - seq.weighted_partials[0])
              <= 1e-4)
    elapsed = time.perf_counter() - tic
    ok = linear_growth and certified and cauchy
    _report(10, ok and elapsed < 10.0, elapsed,
            f"L1 partial {seq.l1_partials[-1]:.0f}, constant "
            f"{seq.increment_constant:.2e}, max increment "
            f"{np.max(seq.weighted_increments):.2e}")
    assert ok
    assert elapsed < 10.0


def test_criterion_11_potential_sandwich():
    tic = time.perf_counter()
    radii = np.geomspace(0.1, 1e3, 41)
    details = []
    ok = True
    for n in (3, 5):
        prof = pg.make_profile(form="euclidean", dimension=n)
        vol_half = float(prof.volume(0.5))
        psi = lambda r: np.where(np.asarray(r) <= 0.5, 1.0 / vol_half, 0.0)
        sw = pg.sandwich_check(prof, psi, radii, 0.5)
        i100 = int(np.argmin(np.abs(radii - 1e2)))
        drift = abs(sw.far_ratio[-1] / sw.far_ratio[i100] - 1.0)
        ok = ok and sw.gamma1 > 0.0 and math.isfinite(sw.gamma2)
        ok = ok and drift < 1e-2
        details.append(f"n={n}: gamma1 {sw.gamma1:.3f}, gamma2 "
                       f"{sw.gamma2:.3f}, drift {drift:.2e}")
    elapsed = time.perf_counter() - tic
    _report(11, ok and elapsed < 10.0, elapsed, "; ".join(details))
    assert ok
    assert elapsed < 10.0
