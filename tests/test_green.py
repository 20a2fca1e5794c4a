from __future__ import annotations

import gc
import math
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import pmegreen as pg
from pmegreen.green import ParabolicProfileError
from pmegreen.numerics import gauss_panels


def test_euclidean_closed_forms(euclid3, euclid5):
    assert pg.GreenData(euclid3).exact(1.0) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-12)
    assert pg.GreenData(euclid3).surrogate(1.0) == pytest.approx(
        3.0 / (4.0 * math.pi), rel=1e-12)
    assert pg.GreenData(euclid5).exact(2.0) == pytest.approx(
        1.0 / (64.0 * math.pi ** 2), rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_to_surrogate_ratio_euclidean(n):
    green = pg.GreenData(pg.make_profile(form="euclidean", dimension=n))
    for r in (0.5, 1.0, 2.0, 10.0):
        ratio = green.exact(r) / green.surrogate(r)
        assert ratio == pytest.approx(1.0 / n, rel=1e-12)


def test_exact_to_surrogate_ratio_power_profile():
    # V = c r^lam gives ratio 1/lam, independent of c
    for coeff in (0.2, 0.5):
        green = pg.GreenData(pg.make_profile(form="power", dimension=4,
                                             params={"lam": 3.0, "coeff": coeff}))
        for r in (0.5, 2.0, 50.0):
            ratio = green.exact(r) / green.surrogate(r)
            assert ratio == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_warped_identity_green_matches_euclidean(euclid3):
    prof = pg.make_profile(form="warped", dimension=3,
                           params={"phi": lambda r: np.asarray(r,
                                                               dtype=float)})
    for r in (0.5, 1.0, 2.0, 10.0):
        assert pg.GreenData(prof).exact(r) == pytest.approx(
            pg.GreenData(euclid3).exact(r), rel=1e-10)


def test_warped_volume_and_surrogate_below_the_first_knot():
    # phi = r (1 + r^2)^-0.1, d = 4: with u = r^2,
    # V = sigma_4/2 (((1 + u)^1.7 - 1)/1.7 - ((1 + u)^0.7 - 1)/0.7); the
    # volume's first knot is 1e-2, the next one 1.0155e-2
    prof = pg.make_profile(form="warped", dimension=4, params={
        "phi": lambda r: r * (1.0 + r * r) ** -0.1})
    half_sigma = pg.unit_sphere_area(4) / 2.0
    with mp.workdps(30):
        def volume(t):
            u = mp.mpf(t) ** 2
            return half_sigma * (mp.expm1(1.7 * mp.log1p(u)) / 1.7
                                 - mp.expm1(0.7 * mp.log1p(u)) / 0.7)
        def surrogate(r):
            return mp.quad(lambda s: mp.exp(2 * s) / volume(mp.exp(s)),
                           [math.log(r), 0, 5, 20, 100, mp.inf])
        # below the first knot, where V is a Gauss rule on [0, r], on the
        # first interval and at the knot, where the PCHIP holds V to 1e-6
        refs = [(r, float(volume(r)), float(surrogate(r)), v_rel, g_rel)
                for r, v_rel, g_rel in ((1e-6, 1e-12, 1e-9),
                                        (1e-3, 1e-12, 1e-9),
                                        (0.0101, 1e-5, 1e-6),
                                        (1e-2, 1e-12, 1e-8))]
    green = pg.GreenData(prof)
    for r, v_ref, g_ref, v_rel, g_rel in refs:
        assert float(prof.volume(r)) == pytest.approx(v_ref, rel=v_rel)
        assert green.surrogate(r) == pytest.approx(g_ref, rel=g_rel)


def test_parabolic_profile_rejected():
    prof = pg.make_profile(form="warped", dimension=3,
                           params={"phi": np.tanh})
    with pytest.raises(ParabolicProfileError):
        pg.GreenData(prof).exact(1.0)


def test_parabolic_power_law_raises_at_first_use():
    # V = r^2 is parabolic; the profile builds, and each use of its Green
    # data raises, since a failed build is not kept
    prof = pg.VolumeProfile(dimension=3, form="power",
                            volume=lambda r: np.power(r, 2.0),
                            area=lambda r: 2.0 * np.asarray(r, dtype=float),
                            power_law=(1.0, 2.0))
    for _ in range(2):
        with pytest.raises(ParabolicProfileError):
            prof.green
    with pytest.raises(ParabolicProfileError):
        pg.l1g_norm(prof, lambda r: np.exp(-np.asarray(r, dtype=float)))


def test_profile_owns_one_green_data(euclid3):
    assert isinstance(euclid3.green, pg.GreenData)
    assert euclid3.green is euclid3.green
    assert euclid3.green.profile is euclid3


def test_tables_die_by_reference_count():
    # no reference cycles: with the collector off, dropping the last names
    # frees a profile with both Green tables built, a growth with its tail
    # table built, and a bound with its knot table built
    gc.disable()
    try:
        profile = pg.make_profile(form="power_log", dimension=4,
                                  params={"lam": 3.0, "sigma": 0.5})
        growth = pg.make_growth(form="power_log", params={"k": 3.0, "b": 0.5},
                                r0=2.0)
        bound = pg.SmoothingBound.from_profile(profile, 2.0, growth)
        assert bound.evaluate_l1(1e3, 1.0).regime == "large-time"
        profile.green.exact(2.0)
        profile.green.surrogate(2.0)
        tables = list(profile.green._tables.values()) + [growth._table]
        assert len(tables) == 3 and "_log_scales" in vars(bound)
        refs = [weakref.ref(x) for x in
                [profile, profile.green, growth, bound] + tables]
        del profile, growth, bound, tables
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_green_data_outlives_its_profile():
    # the profile is held weakly; area and volume are kept
    green = pg.GreenData(pg.make_profile(form="power_log", dimension=4,
                                         params={"lam": 3.0, "sigma": 0.5}))
    gc.collect()
    assert green.profile is None
    assert green.exact(2.0) > 0.0 and green.surrogate(2.0) > 0.0


@pytest.mark.parametrize("spec", [
    {"form": "euclidean", "dimension": 3},
    {"form": "power", "dimension": 4, "params": {"lam": 3.0, "coeff": 0.5}},
    {"form": "power_log", "dimension": 4,
     "params": {"lam": 3.0, "sigma": 0.5}},
], ids=["euclidean", "power", "power_log"])
@pytest.mark.parametrize("r", [0.0, -1.0, np.array([0.5, 2.0, -1.0])],
                         ids=["zero", "negative", "array"])
def test_green_rejects_nonpositive_radii(spec, r):
    green = pg.GreenData(pg.make_profile(**spec))
    for evaluate in (green.exact, green.surrogate):
        with pytest.raises(ValueError, match="positive radii"):
            evaluate(r)


def test_green_data_interpolant_accuracy(euclid5):
    rs = np.geomspace(2e-4, 5e6, 40)
    closed = pg.GreenData(euclid5)
    exact = np.array([closed.exact(float(r)) for r in rs])
    interp = np.asarray(euclid5.green.exact(rs), dtype=float)
    assert np.allclose(interp, exact, rtol=1e-7)


def _mp_tails(fn, radii, knots=()):
    """int_r^inf fn by mpmath for each r, summed from the far end over the
    radii and the kinks of fn."""
    pts = sorted({float(r) for r in radii} |
                 {float(k) for k in knots if k > min(radii)})
    acc = mp.quad(fn, [pts[-1], 10 * pts[-1], 1e3 * pts[-1], mp.inf])
    values = {pts[-1]: acc}
    for lo, hi in zip(pts[-2::-1], pts[:0:-1]):
        acc += mp.quad(fn, [lo, hi])
        values[lo] = acc
    return np.array([float(values[float(r)]) for r in radii])


# radii below, inside and beyond the cached range [1e-4, 1e7] of GreenData
REFERENCE_RADII = np.array([5e-5, 0.25, 1.0, 3.0, 7.0, 30.0, 1e4, 2e7])


LAM, SIGMA = mp.mpf(3), mp.mpf("0.5")


def _power_log_volume(r):
    # V of power_log:4:3:0.5 in mpmath
    return r ** LAM * mp.log(mp.e + r) ** SIGMA


def _power_log_area(r):
    ell = mp.log(mp.e + r)
    return r ** (LAM - 1) * ell ** (SIGMA - 1) * (
        LAM * ell + SIGMA * r / (mp.e + r))


def _tabulated_r3():
    """Exact r^3 volumes on 60 log rows of [0.01, 10], and the profile's V
    and S in mpmath, read as the PCHIP interpolant of (r, V) with the pole
    row prepended and extended past the last row by the power law of the
    end slope; also the kinks of the table."""
    r_tab = np.geomspace(0.01, 10.0, 60)
    prof = pg.make_profile(form="tabulated", dimension=3,
                           params={"radii": r_tab, "volumes": r_tab ** 3})
    knots = np.concatenate([[0.0], r_tab])
    vol = PchipInterpolator(knots, np.concatenate([[0.0], r_tab ** 3]))
    r_end, v_end = knots[-1], r_tab[-1] ** 3
    slope = vol.derivative()
    p = r_end * float(slope(r_end)) / v_end

    def table(poly, order, s):
        i = min(int(np.searchsorted(knots, float(s), side="right")) - 1,
                knots.size - 2)
        return sum(mp.mpf(float(poly.c[k, i])) * (s - knots[i]) ** (order - k)
                   for k in range(order + 1))

    def volume(t):
        return table(vol, 3, t) if t <= r_end else v_end * (t / r_end) ** p

    def area(s):
        if s <= r_end:
            return table(slope, 2, s)
        return (v_end * p / r_end) * (s / r_end) ** (p - 1)

    return prof, volume, area, knots[1:]


def test_green_power_log_matches_mpmath():
    prof = pg.make_profile(form="power_log", dimension=4,
                           params={"lam": 3.0, "sigma": 0.5})
    with mp.workdps(20):
        g_ref = _mp_tails(lambda s: 1 / _power_log_area(s), REFERENCE_RADII)
        s_ref = _mp_tails(lambda t: t / _power_log_volume(t), REFERENCE_RADII)
    green = pg.GreenData(prof)
    assert np.allclose(green.exact(REFERENCE_RADII), g_ref, rtol=1e-9, atol=0.0)
    assert np.allclose(green.surrogate(REFERENCE_RADII), s_ref,
                       rtol=1e-9, atol=0.0)
    assert green.exact(1.0) == pytest.approx(g_ref[2], rel=1e-9)
    # Green mass of the ball of radius 3: G(3) V(3) + int_0^3 V/S
    with mp.workdps(20):
        inner = float(mp.quad(lambda s: _power_log_volume(s) /
                              _power_log_area(s), [0, 3]))
    assert pg.ball_integral(prof, 3.0).value == pytest.approx(
        g_ref[3] * float(_power_log_volume(mp.mpf(3))) + inner, rel=1e-9)


def test_green_tabulated_matches_mpmath():
    prof, volume, area, knots = _tabulated_r3()
    with mp.workdps(20):
        g_ref = _mp_tails(lambda s: 1 / area(s), REFERENCE_RADII, knots)
        s_ref = _mp_tails(lambda t: t / volume(t), REFERENCE_RADII, knots)
    green = pg.GreenData(prof)
    assert np.allclose(green.exact(REFERENCE_RADII), g_ref, rtol=1e-6, atol=0.0)
    assert np.allclose(green.surrogate(REFERENCE_RADII), s_ref,
                       rtol=1e-6, atol=0.0)


def _warp(r):
    # phi = r (1 + r^2)^-0.1, for floats and mpf values alike
    return r * (1 + r * r) ** -0.1


def _pole_case(case):
    """(profile, 1/S in mpmath, kinks of S) of each pole test case."""
    if case == "power_log":
        prof = pg.make_profile(form="power_log", dimension=4,
                               params={"lam": 3.0, "sigma": 0.5})
        return prof, lambda s: 1 / _power_log_area(s), ()
    if case == "warped":
        sg = mp.mpf(pg.unit_sphere_area(4))
        prof = pg.make_profile(form="warped", dimension=4,
                               params={"phi": _warp})
        return prof, lambda s: 1 / (sg * _warp(s) ** 3), ()
    prof, _, area, knots = _tabulated_r3()
    return prof, lambda s: 1 / area(s), knots


# radii below GreenData's first edge 1e-4, where the pole model reads G
POLE_RADII = {"power_log": [5e-5, 1e-8, 1e-12, 1e-20, 1e-100],
              "warped": [5e-5, 1e-8, 1e-12, 1e-20, 1e-100],
              "tabulated": [5e-5, 1e-8, 1e-20, 1e-100, 1e-200]}


@pytest.mark.parametrize("case, rtol", [("power_log", 1e-9),
                                        ("warped", 1e-9),
                                        ("tabulated", 1e-6)])
def test_green_pole_matches_mpmath(case, rtol):
    # G(r) = G(1e-4) + int_r^1e-4 ds/S, the second part in s = log r on
    # pieces at most 40 long; the table's S is the PCHIP's down to the pole
    prof, inv_area, knots = _pole_case(case)
    radii = np.array(POLE_RADII[case])
    edge = pg.GreenData.r_min
    with mp.workdps(20):
        g_edge = _mp_tails(inv_area, [edge], knots)[0]
        g_ref = []
        for r in radii:
            lo, hi = mp.log(r), mp.log(edge)
            pieces = mp.linspace(lo, hi, int(mp.ceil((hi - lo) / 40)) + 1)
            g_ref.append(g_edge + float(mp.quad(
                lambda s: mp.exp(s) * inv_area(mp.exp(s)), pieces)))
    assert np.allclose(pg.GreenData(prof).exact(radii), g_ref, rtol=rtol,
                       atol=0.0)


def test_green_pole_reads_are_positive_or_inf():
    # 1/S overflows near 1e-150 on the warped profile and near 1e-300 on
    # power_log; the table's PCHIP area vanishes only at the pole itself
    radii = np.concatenate([[5e-324, 1e-320, 1e-300, 1e-200, 1e-150],
                            np.geomspace(1e-140, 9e-5, 300)])
    for case in ("power_log", "warped", "tabulated"):
        green = pg.GreenData(_pole_case(case)[0])
        for values in (green.exact(radii), green.surrogate(radii)):
            assert not np.isnan(values).any()
            assert np.all(values > 0.0)
    # G = 1/(2 sigma_4 r^2) to leading order on the warped profile, which
    # overflows near 1e-155
    warped = pg.GreenData(_pole_case("warped")[0])
    assert warped.exact(1e-150) == pytest.approx(
        1.0 / (2.0 * pg.unit_sphere_area(4) * 1e-300), rel=1e-9)
    assert warped.exact(1e-160) == math.inf
    assert np.isinf(warped.exact(np.array([1e-160, 1e-200]))).all()


def test_green_pole_is_finite_where_representable():
    # on power_log:4:3:0.5, G = 1/(3r) and Ghat = 1/r to leading order at
    # the pole; 1/S overflows below 1e-154 and V underflows below 1e-108,
    # where the pole model fits its power law higher up and carries it down
    green = pg.GreenData(_pole_case("power_log")[0])
    radii = np.array([1e-160, 1e-300])
    for r in radii:
        assert green.exact(r) * 3.0 * r == pytest.approx(1.0, abs=1e-9)
        assert green.surrogate(r) * r == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(green.exact(radii) * 3.0 * radii, 1.0, rtol=0.0,
                       atol=1e-9)
    assert np.allclose(green.surrogate(radii) * radii, 1.0, rtol=0.0,
                       atol=1e-9)
    # where 1/S and t/V are finite the values are those of the plain fit
    assert green.exact(1e-100) == 3.333333333333378e+99
    assert green.surrogate(1e-100) == 1.000000000000011e+100
    assert green.exact(1e-12) == 333333333331.5186
    assert green.surrogate(1e-12) == 999999999995.8679


# the table's rows straddle GreenData's edge range [1e-4, 1e7]
_TABLE_RADII = np.geomspace(1e-6, 1e9, 40)
_FIELD_CASES = {
    "euclidean": ({"form": "euclidean", "dimension": 4}, True),
    "power": ({"form": "power", "dimension": 4,
               "params": {"lam": 3.0, "coeff": 0.5}}, True),
    "power_log": ({"form": "power_log", "dimension": 4,
                   "params": {"lam": 3.0, "sigma": 0.5}}, False),
    "warped": ({"form": "warped", "dimension": 4,
                "params": {"phi": _warp}}, False),
    "tabulated": ({"form": "tabulated", "dimension": 3, "params": {
        "radii": _TABLE_RADII, "volumes": _TABLE_RADII ** 3}}, False),
}


@pytest.mark.parametrize("form", sorted(_FIELD_CASES))
def test_profile_states_its_power_law_and_breaks(form):
    spec, has_law = _FIELD_CASES[form]
    prof = pg.make_profile(spec)
    if has_law:
        c, lam = prof.power_law
        rs = np.geomspace(1e-3, 1e3, 25)
        np.testing.assert_allclose(prof.volume(rs), c * rs ** lam,
                                   rtol=1e-14, atol=0.0)
    else:
        assert prof.power_law is None
    breaks = np.asarray(prof.breaks, dtype=float)
    if form == "tabulated":
        # the rows, with the pole row the builder adds
        np.testing.assert_array_equal(
            breaks, np.concatenate([[0.0], _TABLE_RADII]))
    else:
        assert breaks.size == 0
    green = pg.GreenData(prof)
    inside = breaks[(breaks >= green.r_min) & (breaks <= green.r_max)]
    assert np.isin(inside, green.edges).all()


def test_growth_tail_just_below_r0():
    # tail accepts r down to r0 (1 - 1e-12), just below its first knot; the
    # pole model may read the rate only inside [r, r0] there
    r0 = 2.0
    r = r0 * (1.0 - 1e-12)

    def rate(t):
        t = np.asarray(t, dtype=float)
        assert np.all(t >= r), f"rate read at {t.min()!r} below r = {r!r}"
        return t ** 3

    growth = pg.make_growth(form="numeric", params={"rate": rate}, r0=r0)
    assert growth.tail(r) == pytest.approx(0.5 / r ** 2, rel=1e-12)
    assert growth.tail(r) > growth.tail(r0)


def test_ball_integral_euclidean_identity(euclid3, growth3):
    # closed form R^2 / (2(n-2)) for the Green mass of a ball
    res = pg.ball_integral(euclid3, 2.0, growth3)
    assert res.value == pytest.approx(2.0, rel=1e-10)
    res10 = pg.ball_integral(euclid3, 10.0, growth3)
    assert res10.value == pytest.approx(50.0, rel=1e-10)
    assert res.ok and res10.ok


def test_ball_integral_surrogate_identity(euclid5, growth5):
    # with the surrogate kernel the integration-by-parts identity is exact:
    # I_hat(R) = G_hat(R) V(R) + R^2 / 2
    for R in (1.0, 3.0, 8.0):
        res = pg.ball_integral(euclid5, R, growth5, use_surrogate=True)
        ghat = pg.GreenData(euclid5).surrogate(R)
        expected = ghat * float(euclid5.volume(R)) + R * R / 2.0
        assert res.value == pytest.approx(expected, rel=1e-10)
        assert res.value <= res.bound * (1.0 + 1e-9)


def test_green_bounds_surrogate_mode(euclid5, growth5):
    radii = np.geomspace(0.25, 200.0, 30)
    rep = pg.green_bounds(euclid5, growth5, radii, use_surrogate=True)
    assert rep.c1 == 1.0 and rep.c2 == 1.0
    assert rep.bounds_hold.passed
    # the worst relative excess over a bound is at most 0 up to rounding
    assert rep.bounds_hold.value <= 1e-15
    # gamma = 1 here, so the distant upper bound is attained exactly
    far = radii >= growth5.r0
    ghat = pg.GreenData(euclid5).surrogate(radii[far])
    assert np.allclose(rep.upper_tail[far], ghat, rtol=1e-9)


def test_green_bounds_fail_where_the_tail_bound_is_not_finite(euclid5,
                                                              growth5):
    # f(r) = r^4 overflows and r/V underflows at r = 1e100, so the tail
    # bound is nan there; below r0 = 1 it does not apply and is nan as well
    radii = np.array([0.5, 2.0, 1e100])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = pg.green_bounds(euclid5, growth5, radii, use_surrogate=True)
    assert np.isnan(rep.upper_tail[[0, 2]]).all()
    assert rep.tail_ok.tolist() == [True, True, False]
    assert not rep.bounds_hold.passed and np.isnan(rep.bounds_hold.value)
    assert pg.green_bounds(euclid5, growth5, radii[:2],
                           use_surrogate=True).bounds_hold.passed


def test_green_bounds_hold_where_the_volume_overflows(euclid5):
    # V = omega_5 r^5 overflows at r = 1e62, yet G = r^-3 / (15 omega_5) and
    # both upper bounds are representable: with cubic growth gamma = beta = 1,
    # the tail bound is f (r/V) T = r^-3 / omega_5 and the near bound
    # (r^2 / 3 + f r) / omega_5
    growth = pg.make_growth(form="power", params={"k": 3.0}, r0=1.0)
    radii = np.array([1.0, 1e62])
    rep = pg.green_bounds(euclid5, growth, radii, use_surrogate=True)
    assert rep.bounds_hold.passed
    om = pg.unit_ball_volume(5)
    assert np.allclose(rep.upper_tail, radii ** -3.0 / om, rtol=1e-12)
    assert np.allclose(rep.upper_near, (radii ** 2 / 3.0 + radii ** 3) / om,
                       rtol=1e-12)


def test_green_bounds_power_profile():
    prof = pg.make_profile(form="power", dimension=4,
                           params={"lam": 3.0, "coeff": 0.5})
    growth = pg.make_growth(form="power", params={"k": 3.0}, r0=1.0)
    radii = np.geomspace(0.5, 100.0, 20)
    rep = pg.green_bounds(prof, growth, radii, use_surrogate=True)
    assert rep.bounds_hold.passed


def test_green_bounds_empirical_mode(euclid3, growth3):
    radii = np.geomspace(0.5, 50.0, 15)
    rep = pg.green_bounds(euclid3, growth3, radii, use_surrogate=False)
    assert rep.bounds_hold.passed
    assert 0.0 < rep.c1 <= 1.0 + 1e-12
    assert np.isfinite(rep.c2)


def test_potential_indicator_matches_monopole(euclid3):
    vol_half = float(euclid3.volume(0.5))
    psi = lambda r: np.where(np.asarray(r) <= 0.5, 1.0 / vol_half, 0.0)
    pot = pg.RadialPotential(euclid3, psi, 0.5)
    assert pot.mass == pytest.approx(1.0, rel=1e-9)
    # outside the support the potential is exactly mass * G
    assert float(pot(1.0)) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-9)
    assert float(pot(10.0)) == pytest.approx(1.0 / (40.0 * math.pi),
                                             rel=1e-9)


def test_potential_flux_identity_and_monotone(euclid3):
    psi = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    pot = pg.RadialPotential(euclid3, psi, 8.0)
    for r in (0.5, 1.0, 3.0):
        assert pot.flux_defect(r) <= 1e-5 * max(1.0, pot.mass)
    rs = np.geomspace(0.05, 50.0, 60)
    vals = np.asarray(pot(rs), dtype=float)
    assert np.all(np.diff(vals) <= 1e-12 * vals[:-1])


@given(st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=10, deadline=None)
@example(a=0.1015625, b=1.0)
def test_potential_linearity(euclid3, a, b):
    f = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    g = lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0)
    combo = lambda r: a * f(r) + b * g(r)
    pa = pg.RadialPotential(euclid3, f, 6.0)
    pb = pg.RadialPotential(euclid3, g, 6.0)
    pc = pg.RadialPotential(euclid3, combo, 6.0)
    for r in (0.3, 1.0, 4.0):
        assert pc(r) == pytest.approx(a * pa(r) + b * pb(r), rel=1e-6)


POWER_LOG = {"form": "power_log", "dimension": 4,
             "params": {"lam": 3.0, "sigma": 0.5}}


def test_consumers_build_the_exact_table_once(monkeypatch):
    # every consumer reads the profile's GreenData, so its table of 1/S is
    # built on first use and read from then on
    builds = []
    table = pg.numerics.TailTable

    def counting(*args, **kwargs):
        builds.append(args)
        return table(*args, **kwargs)

    monkeypatch.setattr("pmegreen.green.TailTable", counting)
    profile = pg.make_profile(**POWER_LOG)
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    first = pg.l1g_norm(profile, decay).total
    assert pg.l1g_norm(profile, decay).total == first
    grid = pg.RadialGrid.make(profile, 12.0, 100)
    pg.CellPotential(profile, grid.edges)(grid.cell_average(decay))
    pg.RadialPotential(profile, np.ones_like, 1.0)(np.geomspace(0.1, 1e3, 9))
    assert len(builds) == 1


@pytest.mark.parametrize("spec, spacing", [
    ({"form": "euclidean", "dimension": 3}, "uniform"),
    (POWER_LOG, "uniform"),
    ({"form": "euclidean", "dimension": 3}, "geometric"),
], ids=["euclidean3", "power_log", "euclidean3-geometric"])
def test_potential_of_cells_matches_continuum(spec, spacing):
    profile = pg.make_profile(**spec)
    grid = pg.RadialGrid.make(profile, 10.0, 400, spacing=spacing)
    psi = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    u = grid.cell_average(psi)
    centers_u, faces_u = pg.CellPotential(profile, grid.edges)(u)
    pot = pg.RadialPotential(profile, psi, 10.0)
    cont = np.asarray(pot(grid.centers), dtype=float)
    assert np.max(np.abs(centers_u - cont)) <= 1e-3 * np.max(cont)
    # faces are a nonincreasing potential profile
    assert np.all(np.diff(faces_u) <= 1e-15)


def reference_potential_of_cells(profile, edges, u):
    """The cell potential built on 2N half panels: faces from the reverse
    cumulative sum of one Gauss panel of enclosed/S per cell, centres from
    the even half panels [centre_j, e_{j+1}], the odd seam panels unused."""
    vol_edges = np.asarray(profile.volume(edges), dtype=float)
    vol_edges[0] = 0.0 if edges[0] == 0.0 else vol_edges[0]
    mass_faces = np.concatenate([[0.0], np.cumsum(u * np.diff(vol_edges))])

    def mass_over_area(s):
        idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0,
                      u.size - 1)
        enclosed = mass_faces[idx] + u[idx] * (
            np.asarray(profile.volume(s), dtype=float) - vol_edges[idx])
        return enclosed / np.asarray(profile.area(s), dtype=float)

    faces = np.empty(u.size + 1)
    faces[-1] = mass_faces[-1] * float(profile.green.exact(float(edges[-1])))
    faces[:-1] = faces[-1] + np.cumsum(
        gauss_panels(mass_over_area, edges)[::-1])[::-1]
    centers = 0.5 * (edges[1:] + edges[:-1])
    half_edges = np.empty(2 * u.size)
    half_edges[0::2] = centers
    half_edges[1::2] = edges[1:]
    half_parts = gauss_panels(mass_over_area, half_edges)
    return faces[1:] + half_parts[0::2], faces


@pytest.mark.parametrize("spec", [{"form": "euclidean", "dimension": 3},
                                  POWER_LOG], ids=["euclidean3", "power_log"])
@pytest.mark.parametrize("cells, spacing", [(250, "uniform"),
                                            (1000, "uniform"),
                                            (4000, "uniform"),
                                            (300, "geometric")])
def test_potential_of_cells_matches_half_panel_reference(spec, cells,
                                                         spacing):
    profile = pg.make_profile(**spec)
    grid = pg.RadialGrid.make(profile, 12.0, cells, spacing=spacing)
    u = grid.cell_average(lambda r: np.exp(-np.asarray(r, dtype=float)))
    centers_u, faces_u = pg.CellPotential(profile, grid.edges)(u)
    ref_centers, ref_faces = reference_potential_of_cells(
        profile, grid.edges, u)
    assert np.array_equal(centers_u, ref_centers)
    assert np.array_equal(faces_u, ref_faces)


@pytest.mark.parametrize("spec", [{"form": "euclidean", "dimension": 3},
                                  POWER_LOG], ids=["euclidean3", "power_log"])
@pytest.mark.parametrize("spacing", ["uniform", "geometric"])
@pytest.mark.parametrize("cells", [250, 1000])
def test_cell_potential_kernel_matches_separate_calls(spec, spacing, cells):
    # one kernel built per grid and applied to several data in turn gives
    # what a kernel built per datum gives, and the half-panel reference,
    # bit for bit
    profile = pg.make_profile(**spec)
    grid = pg.RadialGrid.make(profile, 12.0, cells, spacing=spacing)
    kernel = pg.CellPotential(profile, grid.edges)
    rng = np.random.default_rng(cells)
    data = [grid.cell_average(lambda r: np.exp(-np.asarray(r, dtype=float))),
            np.where(np.arange(cells) < cells // 3, rng.random(cells), 0.0),
            np.zeros(cells)]
    for u in data:
        centers_u, faces_u = kernel(u)
        ref_centers, ref_faces = pg.CellPotential(profile, grid.edges)(u)
        assert np.array_equal(centers_u, ref_centers)
        assert np.array_equal(faces_u, ref_faces)
        half_centers, half_faces = reference_potential_of_cells(
            profile, grid.edges, u)
        assert np.array_equal(centers_u, half_centers)
        assert np.array_equal(faces_u, half_faces)
    with pytest.raises(ValueError, match="one more entry"):
        kernel(np.zeros(cells + 1))


def test_sandwich_check_euclidean(euclid3):
    vol_half = float(euclid3.volume(0.5))
    psi = lambda r: np.where(np.asarray(r) <= 0.5, 1.0 / vol_half, 0.0)
    radii = np.geomspace(0.1, 100.0, 40)
    sw = pg.sandwich_check(euclid3, psi, radii, 0.5)
    assert sw.gamma1 > 0.0
    assert math.isfinite(sw.gamma2)
    # monopole limit: the far ratio stabilizes between r=10 and r=100
    i10 = int(np.argmin(np.abs(radii - 10.0)))
    drift = abs(sw.far_ratio[-1] / sw.far_ratio[i10] - 1.0)
    assert drift < 1e-2


def test_sandwich_scale_invariance(euclid3):
    vol_half = float(euclid3.volume(0.5))
    radii = np.geomspace(0.1, 50.0, 25)
    base = pg.sandwich_check(
        euclid3, lambda r: np.where(np.asarray(r) <= 0.5, 1.0 / vol_half,
                                    0.0), radii, 0.5)
    scaled = pg.sandwich_check(
        euclid3, lambda r: np.where(np.asarray(r) <= 0.5, 5.0 / vol_half,
                                    0.0), radii, 0.5)
    assert base.gamma1 == pytest.approx(scaled.gamma1, rel=1e-12)
    assert base.gamma2 == pytest.approx(scaled.gamma2, rel=1e-12)
