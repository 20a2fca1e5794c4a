from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import pmegreen as pg
from pmegreen.smoothing import DomainError, decay_exponent


# -- envelope ---------------------------------------------------------------

def test_envelope_log_growth_closed_form():
    growth = pg.make_growth(form="power_log", params={"k": 2.0, "b": 2.0},
                            r0=math.e)
    # R^2 (log R / (b - 1) + 1); at R = e^2, b = 2 this is 3 e^4
    assert pg.green_ball_envelope(growth, math.e ** 2) == pytest.approx(
        3.0 * math.e ** 4, rel=1e-12)
    for R in (math.e, 10.0, 250.0):
        expected = R * R * (math.log(R) + 1.0)
        assert pg.green_ball_envelope(growth, R) == pytest.approx(
            expected, rel=1e-12)


def test_envelope_power_growth_closed_form():
    growth = pg.make_growth(form="power", params={"k": 4.0}, r0=1.0)
    # R^2 (k - 1)/(k - 2); k = 4 gives (3/2) R^2
    for R in (1.0, 2.0, 30.0):
        assert pg.green_ball_envelope(growth, R) == pytest.approx(
            1.5 * R * R, rel=1e-12)


def test_envelope_numeric_growth_matches_closed_form():
    closed = pg.make_growth(form="power", params={"k": 4.0}, r0=1.0)
    numeric = pg.make_growth(form="numeric",
                             params={"rate": lambda t: t ** 3}, r0=1.0)
    for R in (2.0, 10.0, 100.0):
        assert pg.green_ball_envelope(numeric, R) == pytest.approx(
            pg.green_ball_envelope(closed, R), rel=1e-8)


def test_envelope_domain_guard(growth3):
    with pytest.raises(DomainError):
        pg.green_ball_envelope(growth3, 0.5)


# -- radius-to-scale map ----------------------------------------------------

OMEGA3 = 4.0 * math.pi / 3.0


def quintic_bound(euclid3, growth3):
    # euclidean n = 3, cubic growth, m = 2: theta(R) = 2 omega_3 R^5
    return pg.SmoothingBound.from_profile(euclid3, 2.0, growth3)


def test_data_scale_quintic_example(euclid3, growth3):
    bound = quintic_bound(euclid3, growth3)
    theta = 2.0 * OMEGA3 * 32.0
    assert bound.data_scale(2.0) == pytest.approx(theta, rel=1e-12)
    assert bound.radius_for_scale(theta) == pytest.approx(2.0, rel=1e-9)


def test_data_scale_default_envelope_closed_form(euclid3, growth3):
    bound = quintic_bound(euclid3, growth3)
    for R in (1.0, 2.0, 7.0):
        assert bound.data_scale(R) == pytest.approx(2.0 * OMEGA3 * R ** 5,
                                                    rel=1e-12)


@given(st.floats(min_value=1.0, max_value=100.0))
@settings(max_examples=20, deadline=None)
def test_radius_scale_round_trip(euclid3, growth3, R):
    bound = quintic_bound(euclid3, growth3)
    assert bound.radius_for_scale(bound.data_scale(R)) == pytest.approx(
        R, rel=1e-8)


def test_radius_for_scale_past_the_table(euclid3, growth3):
    # the growth knots end at 1e12 r0; theta(R) = 2 omega_3 R^5 past them
    bound = quintic_bound(euclid3, growth3)
    R = 1e13
    assert bound.radius_for_scale(2.0 * OMEGA3 * R ** 5) == pytest.approx(
        R, rel=1e-12)


def test_radius_for_scale_domain_guard(euclid3, growth3):
    bound = quintic_bound(euclid3, growth3)
    with pytest.raises(DomainError):
        bound.radius_for_scale(8.0)   # theta(r0) = 2 omega_3 = 8.38 is the floor


def test_smoothing_bound_validation(euclid3, growth3):
    with pytest.raises(ValueError):
        pg.SmoothingBound.from_profile(euclid3, 1.0, growth3)
    bound = pg.SmoothingBound.from_profile(euclid3, 2.0, growth3)
    with pytest.raises(ValueError):
        bound.evaluate_l1(-1.0, 1.0)
    with pytest.raises(ValueError):
        bound.time_threshold(0.0)


@pytest.mark.parametrize("t, norm1", [(1.0, math.nan), (math.nan, 1.0),
                                      (1.0, math.inf), (math.inf, 1.0)],
                         ids=["nan-norm", "nan-t", "inf-norm", "inf-t"])
def test_non_finite_input_is_rejected_before_any_work(euclid3, growth3, t,
                                                      norm1):
    bound = pg.SmoothingBound.from_profile(euclid3, 2.0, growth3)
    with pytest.raises(ValueError, match="positive and finite"):
        bound.evaluate_l1(t, norm1)
    with pytest.raises(ValueError, match="positive and finite"):
        bound.evaluate_l1_many([2.0, t, 3.0], norm1)
    assert "_log_scales" not in vars(bound)  # no knot table was built
    with pytest.raises(ValueError, match="positive and finite"):
        pg.smoothing_bound_l1g(2.0, 3, t, norm1)


# -- batched evaluation against the one-time loop ---------------------------

def _root_alone(fn, target, xs, ys):
    """The one-target secant loop of invert_increasing, on scalar fn."""
    i = int(np.searchsorted(ys, target))
    if i == 0:
        return xs[0]
    if i < xs.size:
        lo, hi, flo, fhi = xs[i - 1], xs[i], ys[i - 1], ys[i]
    else:
        hi, fhi, width = float(xs[-1]), float(ys[-1]), float(xs[-1] - xs[-2])
        while True:
            lo, flo, hi = hi, fhi, hi + width
            fhi = fn(hi)
            if fhi >= target:
                break
            width *= 2.0
    xa, fa, xb, fb = lo, flo - target, hi, fhi - target
    for _ in range(60):
        x = xb - fb * (xb - xa) / (fb - fa) if fb != fa else lo
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = fn(x) - target
        if fx == 0.0 or abs(x - xb) <= 1e-12:
            break
        if fx < 0.0:
            lo = x
        else:
            hi = x
        xa, fa, xb, fb = xb, fb, x, fx
    return x


def _bound_alone(bound, t, norm1):
    """evaluate_l1 at one time, on scalars throughout."""
    threshold = bound.time_threshold(norm1)
    mm, n = bound.m - 1.0, bound.dimension

    def small_at(s):
        return s ** (-decay_exponent(bound.m, n)) * norm1 ** (2.0 / (n * mm + 2.0))

    if t < threshold * (1.0 - 1e-9):
        return pg.BoundEvaluation(t, norm1, "small-time", small_at(t), None,
                                  threshold)
    xs, ys = bound._log_scales
    with np.errstate(over="ignore"):
        x = _root_alone(lambda x: math.log(bound.data_scale(math.exp(x))),
                        math.log(max(t ** (1.0 / mm) * norm1,
                                     bound.scale_threshold)), xs, ys)
    r_star = bound.growth.r0 if x == xs[0] else math.exp(x)
    large = t ** (-1.0 / mm) * pg.green_ball_envelope(
        bound.growth, r_star) ** (1.0 / mm)
    tie = ((large, small_at(t)) if abs(t - threshold) <= 1e-9 * threshold
           else None)
    cap = small_at(min(t, threshold))
    return pg.BoundEvaluation(t, norm1, "large-time" if large <= cap else
                              "capped", min(large, cap), r_star, threshold, tie)


@pytest.mark.parametrize("growth", [
    # closed forms whose ** is no reciprocal, which numpy and libm agree on
    {"form": "power", "params": {"k": 3.7}},
    {"form": "power_log", "params": {"k": 3.0, "b": 0.5}, "r0": 2.0},
    {"form": "power_log", "params": {"k": 2.0, "b": 2.5}, "r0": 3.0},
    {"form": "numeric", "params": {"rate": lambda t: np.power(t, 3.5)}},
], ids=["power", "power_log-table", "power_log-closed", "numeric"])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_batched_bounds_match_one_time_loop_bit_for_bit(growth, m):
    profile = pg.make_profile(form="power_log", dimension=4,
                              params={"lam": 3.0, "sigma": 0.5})
    bound = pg.SmoothingBound.from_profile(profile, m, pg.make_growth(growth))
    norm1 = 0.7
    threshold = bound.time_threshold(norm1)
    # the scale of a radius past the growth knots, whose inversion expands
    # its bracket beyond the knot table
    far = (bound.data_scale(3e12 * bound.growth.r0) / norm1) ** (m - 1.0)
    times = np.concatenate([np.geomspace(1e-3, 1e8, 40),
                            [threshold, threshold * (1.0 - 5e-10), far]])
    batch = bound.evaluate_l1_many(times, norm1)
    alone = [_bound_alone(bound, float(t), norm1) for t in times]
    assert batch == alone
    assert [bound.evaluate_l1(float(t), norm1) for t in times] == alone
    assert batch[40].tie_values is not None and batch[41].tie_values is not None
    assert batch[42].r_star > 1e12 * bound.growth.r0
    assert {ev.regime for ev in batch} >= {"small-time", "large-time"}
    scales = np.array([bound.scale_threshold, 3.0 * bound.scale_threshold,
                       bound.data_scale(2e12 * bound.growth.r0)])
    assert bound.radius_for_scale(scales).tolist() == [
        bound.radius_for_scale(float(s)) for s in scales]


# -- two-regime bound -------------------------------------------------------

def test_bound_regimes_and_threshold_tie(euclid3, growth3):
    bound = pg.SmoothingBound.from_profile(euclid3, 2.0, growth3)
    t_star = bound.time_threshold(1.0)
    below = bound.evaluate_l1(0.5 * t_star, 1.0)
    at = bound.evaluate_l1(t_star, 1.0)
    above = bound.evaluate_l1(2.0 * t_star, 1.0)
    assert below.regime == "small-time" and below.r_star is None
    assert at.regime == "large-time"
    assert at.tie_values is not None
    large, small = at.tie_values
    assert at.value == large
    assert above.regime == "large-time"
    assert above.r_star > bound.growth.r0


@pytest.mark.parametrize("case", ["euclid", "log", "log_growth_k3"])
def test_bound_nonincreasing_within_each_regime(euclid3, growth3, case):
    # each branch decays monotonically, and past the threshold the bound is
    # capped by the small-time branch at the threshold, so it never rises
    if case == "euclid":
        bound = pg.SmoothingBound.from_profile(euclid3, 2.0, growth3)
    elif case == "log":
        prof = pg.make_profile(form="power_log", dimension=4,
                               params={"lam": 3.0, "sigma": 1.0})
        growth = pg.make_growth(form="power_log",
                                params={"k": 2.0, "b": 2.0}, r0=3.0)
        bound = pg.SmoothingBound.from_profile(prof, 2.0, growth)
    else:
        prof = pg.make_profile(form="power_log", dimension=4,
                               params={"lam": 3.0, "sigma": 0.5})
        growth = pg.make_growth(form="power_log",
                                params={"k": 3.0, "b": 0.5}, r0=2.0)
        bound = pg.SmoothingBound.from_profile(prof, 2.0, growth)
    ts = np.geomspace(1e-2, 1e6, 120)
    evals = [bound.evaluate_l1(float(t), 1.0) for t in ts]
    vals = np.array([e.value for e in evals])
    assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
    assert np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-12))
    regimes = [e.regime for e in evals]
    first_late = regimes.index("small-time") + regimes.count("small-time")
    assert set(regimes[:first_late]) == {"small-time"}
    assert "small-time" not in regimes[first_late:]


def test_bound_cap_is_running_minimum():
    # power_log:4:3:0.5 with growth k 3, b 0.5, r0 2: at the regime switch the
    # large-time branch starts above the small-time one, so a few rows are
    # capped at the small-time value at the threshold
    prof = pg.make_profile(form="power_log", dimension=4,
                           params={"lam": 3.0, "sigma": 0.5})
    growth = pg.make_growth(form="power_log", params={"k": 3.0, "b": 0.5},
                            r0=2.0)
    bound = pg.SmoothingBound.from_profile(prof, 2.0, growth)
    t_star = bound.time_threshold(1.0)
    small_at_threshold = t_star ** (-4.0 / 6.0)
    ts = np.geomspace(1.0, 1e6, 40)
    evals = [bound.evaluate_l1(float(t), 1.0) for t in ts]
    capped = [e for e in evals if e.regime == "capped"]
    assert [round(e.t, 1) for e in capped] == [70.2, 100.0, 142.5]
    for e in capped:
        assert e.value == pytest.approx(small_at_threshold, rel=1e-12)
        assert e.r_star is not None
    for e in evals:
        if e.regime == "large-time":
            assert e.value <= small_at_threshold


def test_small_time_scalings(euclid3, growth3):
    bound = pg.SmoothingBound.from_profile(euclid3, 2.0, growth3)
    t_star = bound.time_threshold(1.0)
    t0 = 1e-3 * t_star
    # n = 3, m = 2: t exponent -3/5, data exponent 2/5
    v1 = bound.evaluate_l1(t0, 1.0).value
    v2 = bound.evaluate_l1(2.0 * t0, 1.0).value
    assert v2 / v1 == pytest.approx(2.0 ** (-0.6), rel=1e-12)
    # doubling the data size must not cross the regime threshold here
    v3 = bound.evaluate_l1(t0, 2.0).value
    assert v3 / v1 == pytest.approx(2.0 ** 0.4, rel=1e-12)


def test_weighted_data_bound():
    # m = 2, unit weighted norm: threshold at t = 1, value c/2 at t = 4
    ev = pg.smoothing_bound_l1g(2.0, 3, 4.0, 1.0)
    assert ev.regime == "large-time"
    assert ev.value == pytest.approx(0.5, rel=1e-14)
    assert ev.threshold_time == pytest.approx(1.0)
    # scaling the weighted norm by 2^m scales the large-time bound by 2
    base = pg.smoothing_bound_l1g(2.0, 3, 100.0, 1.0)
    scaled = pg.smoothing_bound_l1g(2.0, 3, 100.0, 2.0 ** 2)
    assert scaled.value / base.value == pytest.approx(2.0, rel=1e-13)
    small = pg.smoothing_bound_l1g(2.0, 3, 1e-3, 1.0)
    assert small.regime == "small-time"
    with pytest.raises(ValueError):
        pg.smoothing_bound_l1g(2.0, 3, -1.0, 1.0)
    with pytest.raises(ValueError):
        pg.smoothing_bound_l1g(0.5, 3, 1.0, 1.0)


# -- Lambert branch ---------------------------------------------------------

def test_lambert_anchor_values():
    assert pg.lambert_w0(0.0) == 0.0
    assert pg.lambert_w0(-math.exp(-1.0)) == -1.0
    assert pg.lambert_w0(math.e) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(DomainError):
        pg.lambert_w0(-0.5)


def test_lambert_matches_scipy():
    xs = np.concatenate([np.geomspace(1e-3, 1e3, 40),
                         np.linspace(-0.36, -0.01, 20)])
    for x in xs:
        ref = float(scipy.special.lambertw(float(x)).real)
        # iteration stops on the residual w e^w - x, so the value error for
        # small |x| is the residual divided by |x|
        assert pg.lambert_w0(float(x)) == pytest.approx(ref, rel=2e-11,
                                                        abs=1e-13)


@pytest.mark.parametrize("xs", [
    np.concatenate([np.geomspace(1e-3, 1e3, 40), np.linspace(-0.36, -0.01, 20)]),
    np.geomspace(1e3, 1e300, 120)], ids=["grid", "large"])
def test_lambert_matches_mpmath(xs):
    for x in xs:
        with mpmath.workdps(40):
            ref = float(mpmath.lambertw(float(x)).real)
        assert pg.lambert_w0(float(x)) == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_lambert_near_the_branch_point_and_at_the_extremes():
    # W is sqrt-singular at -1/e: a double's rounding there costs digits
    for x in (-math.exp(-1.0) + 1e-12, -0.3678, 5e-324, 1e-300, 1.7e308,
              math.inf):
        with mpmath.workdps(40):
            ref = float(mpmath.lambertw(x).real)
        assert pg.lambert_w0(x) == pytest.approx(ref, rel=1e-10)


@given(st.floats(min_value=-1.0, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_lambert_round_trip(w):
    x = w * math.exp(w)
    got = pg.lambert_w0(x)
    assert got * math.exp(got) == pytest.approx(x, rel=1e-11, abs=1e-12)


# -- preset decay-rate families ---------------------------------------------

def test_power_family_rate_exponents():
    fam = pg.PowerVolumeFamily(dimension=5, k=3.0, delta=1.0, lam=3.0)
    # lam = 3, m = 2: t exponent -3/5, data exponent 2/5
    r1 = pg.family_rate(fam, 2.0, 1.0, 1.0)
    assert r1 == pytest.approx(1.0, rel=1e-14)
    assert pg.family_rate(fam, 2.0, 32.0, 1.0) == pytest.approx(
        32.0 ** (-0.6), rel=1e-13)
    assert pg.family_rate(fam, 2.0, 1.0, 32.0) == pytest.approx(
        32.0 ** 0.4, rel=1e-13)


def test_power_family_rate_forgets_certificate_params():
    a = pg.PowerVolumeFamily(dimension=5, k=3.0, delta=1.0, lam=3.0)
    b = pg.PowerVolumeFamily(dimension=5, k=5.0, delta=7.0, lam=3.0)
    for t in (0.5, 10.0, 1e4):
        assert pg.family_rate(a, 2.0, t, 2.0) == pg.family_rate(b, 2.0, t, 2.0)


def test_power_family_validation():
    with pytest.raises(ValueError):
        pg.PowerVolumeFamily(dimension=5, k=2.0, delta=1.0, lam=3.0)
    with pytest.raises(ValueError):
        pg.PowerVolumeFamily(dimension=5, k=3.0, delta=1.0, lam=6.0)
    with pytest.raises(ValueError):
        pg.LogVolumeFamily(dimension=4, delta=1.0, lam=3.0, sigma=1.0)


def test_log_family_power_resolution_exact():
    # sigma = -1/(m-1) collapses the implicit equation to a pure power law
    m = 2.0
    fam = pg.LogVolumeFamily(dimension=4, delta=2.0, lam=3.0, sigma=-1.0)
    a = 3.0 + 2.0 / (m - 1.0)
    for t, norm in ((100.0, 1.0), (1e4, 0.5), (50.0, 3.0)):
        s = t ** (1.0 / (m - 1.0)) * norm
        resolved = s ** (1.0 / a)
        manual = (t ** (-1.0 / (m - 1.0)) * resolved ** (2.0 / (m - 1.0)) *
                  math.log(resolved) ** (1.0 / (m - 1.0)))
        assert pg.family_rate(fam, m, t, norm) == pytest.approx(
            manual, rel=1e-14)
    with pytest.raises(DomainError):
        pg.family_rate(fam, m, 0.5, 1.0)   # resolved scale below 1


@pytest.mark.parametrize("family", [
    pg.PowerVolumeFamily(dimension=5, k=3.0, delta=1.0, lam=3.0),
    pg.LogVolumeFamily(dimension=4, delta=2.0, lam=3.0, sigma=1.0)],
    ids=["power", "log"])
def test_family_rate_past_double_range_names_t(family):
    # m = 1.01: t^100 overflows at t = 1e10 (log family), and t^-1.48 at
    # t = 1e-300 (power family)
    t = 1e10 if isinstance(family, pg.LogVolumeFamily) else 1e-300
    with pytest.raises(DomainError, match="outside double range") as exc:
        pg.family_rate(family, 1.01, t, 1.0)
    assert exc.value.t == t


def test_bounds_past_double_range_name_their_time(euclid3, growth3):
    bound = pg.SmoothingBound.from_profile(euclid3, 1.5, growth3)
    with pytest.raises(DomainError, match=r"t\^\(1/\(m-1\)\) norm1") as exc:
        bound.evaluate_l1_many([10.0, 1e200], 1.0)
    assert exc.value.t == 1e200
    slow = pg.SmoothingBound.from_profile(euclid3, 1.01, growth3)
    with pytest.raises(DomainError, match="small-time bound") as exc:
        slow.evaluate_l1(1e-300, 1.0)   # t^-1.48 = 1e443
    assert exc.value.t == 1e-300


def test_large_time_branch_past_double_range_leaves_the_cap(growth3):
    # a volume floor of 1e-300 r^3 puts the large-time branch past double
    # range at the threshold, where r* = r0; the small-time cap
    # t^(-6/7) norm1^(4/7) there is the bound
    tiny = pg.SmoothingBound(m=1.5, dimension=3, growth=growth3,
                             volume_floor=lambda r: 1e-300 * np.asarray(
                                 r, dtype=float) ** 3)
    t = tiny.time_threshold(1e10)
    assert t == pytest.approx(2e-155, rel=1e-12)
    ev = tiny.evaluate_l1(t, 1e10)
    assert ev.regime == "capped" and ev.tie_values[0] == math.inf
    assert ev.value == pytest.approx(
        t ** (-6.0 / 7.0) * 1e10 ** (4.0 / 7.0), rel=1e-12)
    # at norm1 = 1e200 the cap, about 1e328, leaves double range too
    t = tiny.time_threshold(1e200)
    with pytest.raises(DomainError, match="large-time bound") as exc:
        tiny.evaluate_l1(t, 1e200)
    assert exc.value.t == t


# -- the bound across the double range, on euclidean:3 with growth power:3:
# V = (4 pi/3) R^3 and the envelope 2 R^2 give every branch in logs

_LOG_MAX = math.log(sys.float_info.max)
_LOG_TINY = math.log(5e-324)  # the least subnormal double
_BOUNDS = {}


def _log_branches(m, log_t, log_n):
    """(log threshold time, log t^(1/(m-1)) norm1, log small-time bound,
    log cap, log large-time branch) at t = e^log_t, norm1 = e^log_n."""
    mm = m - 1.0
    small = lambda lt: (-3.0 * lt + 2.0 * log_n) / (3.0 * mm + 2.0)
    log_theta0 = math.log(4.0 * math.pi / 3.0) + math.log(2.0) / mm
    log_thr = mm * (log_theta0 - log_n)
    log_s = log_t / mm + log_n
    log_r = max(log_s - log_theta0, 0.0) / (3.0 + 2.0 / mm)
    large = (math.log(2.0) + 2.0 * log_r - log_t) / mm
    return (log_thr, log_s, small(log_t), small(min(log_t, log_thr)), large)


@pytest.mark.parametrize("t, norm1", [(1e200, 1e-200), (1e160, 1e-100)])
def test_bound_whose_power_of_t_leaves_double_range(euclid3, growth3, t,
                                                     norm1):
    # t^2 overflows and t^-2 underflows, yet the scales t^2 norm1, 1e200 and
    # 1e220, and the bounds, 1.5e-286 and 4.1e-195, fit
    ev = pg.SmoothingBound.from_profile(euclid3, 1.5, growth3).evaluate_l1(
        t, norm1)
    assert ev.regime == "large-time"
    log_large = _log_branches(1.5, math.log(t), math.log(norm1))[4]
    assert math.log(ev.value) == pytest.approx(log_large, abs=1e-12)


_LOG_RANGE = st.floats(min_value=math.log(1e-300), max_value=math.log(1e300))


@given(m=st.sampled_from([1.01, 1.5, 2.0, 5.0]),
       log_ts=st.lists(_LOG_RANGE, min_size=1, max_size=3), log_n=_LOG_RANGE)
@settings(max_examples=60, deadline=None)
def test_bound_across_the_double_range(euclid3, growth3, m, log_ts, log_n):
    if m not in _BOUNDS:
        _BOUNDS[m] = pg.SmoothingBound.from_profile(euclid3, m, growth3)
    ts, norm1 = [math.exp(x) for x in log_ts], math.exp(log_n)
    log_ts, log_n = [math.log(t) for t in ts], math.log(norm1)
    out = lambda x: not _LOG_TINY + 1e-6 < x < _LOG_MAX - 1e-6
    try:
        evals = _BOUNDS[m].evaluate_l1_many(ts, norm1)
    except DomainError as exc:
        # only where the small-time bound, the scale t^(1/(m-1)) norm1 or
        # both branches leave double range; both regimes pass within 1e-6
        # of the threshold
        assert exc.t in ts
        log_t = math.log(exc.t)
        log_thr, log_s, small, cap, large = _log_branches(m, log_t, log_n)
        assert ((log_t <= log_thr + 1e-6 and out(small)) or
                (log_t >= log_thr - 1e-6 and (out(log_s) or
                                              out(min(large, cap)))))
        return
    for log_t, ev in zip(log_ts, evals):
        assert 0.0 < ev.value < math.inf
        log_thr, _, small, cap, large = _log_branches(m, log_t, log_n)
        want = [small] if log_t < log_thr else [min(large, cap)]
        if abs(log_t - log_thr) <= 1e-6:
            want = [small, min(large, cap)]
        if max(want) > math.log(sys.float_info.min):  # full precision
            assert min(abs(math.log(ev.value) - w) for w in want) <= 1e-11


def test_bound_whose_threshold_underflows_is_large_time(euclid3, growth3):
    # norm1^-(m-1) = 1e-400 rounds the threshold to 0: every time is late,
    # and the cap at time 0 is inf
    bound = pg.SmoothingBound.from_profile(euclid3, 5.0, growth3)
    assert bound.time_threshold(1e100) == 0.0
    ev = bound.evaluate_l1(1.0, 1e100)
    assert ev.regime == "large-time" and 0.0 < ev.value < math.inf


def test_log_family_tracks_generic_bound():
    # the closed-form family rate and the generic envelope bound agree up to
    # a bounded constant across both regimes
    prof = pg.make_profile(form="power_log", dimension=4,
                           params={"lam": 3.0, "sigma": 1.0})
    growth = pg.make_growth(form="power_log", params={"k": 2.0, "b": 2.0},
                            r0=3.0)
    bound = pg.SmoothingBound.from_profile(prof, 2.0, growth)
    fam = pg.LogVolumeFamily(dimension=4, delta=2.0, lam=3.0, sigma=1.0)
    ratios = []
    for t in np.geomspace(10.0, 1e6, 25):
        generic = bound.evaluate_l1(float(t), 1.0).value
        closed = pg.family_rate(fam, 2.0, float(t), 1.0)
        assert math.isfinite(generic) and math.isfinite(closed)
        ratios.append(generic / closed)
    ratios = np.asarray(ratios)
    assert np.all(ratios > 0.0)
    assert np.max(ratios) / np.min(ratios) < 3.0


def test_family_rate_validation():
    fam = pg.PowerVolumeFamily(dimension=5, k=3.0, delta=1.0, lam=3.0)
    with pytest.raises(ValueError):
        pg.family_rate(fam, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        pg.family_rate(fam, 2.0, -1.0, 1.0)
    with pytest.raises(TypeError):
        pg.family_rate(object(), 2.0, 1.0, 1.0)


def test_one_decay_exponent():
    # lam / ((m - 1) lam + 2) is the Barenblatt alpha, the power family's
    # rate and the small-time rate of the Green-weighted bound
    assert decay_exponent(2.0, 3.0) == 0.6
    for m, n in ((2.0, 3), (1.5, 5), (3.0, 4)):
        alpha = decay_exponent(m, n)
        assert pg.BarenblattParams(n, m, 1.0).alpha == alpha
        fam = pg.PowerVolumeFamily(dimension=n, k=3.0, delta=1.0,
                                   lam=float(n))
        assert pg.family_rate(fam, m, 7.0, 1.0) == 7.0 ** -alpha
        assert pg.smoothing_bound_l1g(m, n, 1e-3, 1.0).value == (
            1e-3 ** -alpha)
