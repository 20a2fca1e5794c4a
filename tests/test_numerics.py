from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from pmegreen.numerics import (BracketError, Check, Hermite,
                               IntegralDivergenceError, TailTable,
                               gauss_panels, invert_increasing, loglog_slope,
                               max_rise, nonneg_max, pchip_slopes,
                               simpson_weights, tail_remainder)


def tail(f, a):
    """int_a^inf f by the tail model alone."""
    return float(tail_remainder(f, a)[0])


def test_tail_integral_power_law():
    assert tail(lambda t: t ** -2, 1.0) == pytest.approx(1.0, rel=1e-10)
    assert tail(lambda t: t ** -3, 2.0) == pytest.approx(0.125, rel=1e-10)


def test_tail_integral_rejects_divergence():
    edges = np.geomspace(1.0, 1e3, 50)
    for f in (lambda t: 1.0 / t, np.ones_like):
        assert tail(f, 1.0) == math.inf
        with pytest.raises(IntegralDivergenceError):
            TailTable(f, edges)


def test_tail_remainder_power_log_closed_form():
    # t^-1.1 (log t)^0.47 is the model itself: int_R^inf is
    # Gamma(1.47, 0.1 log R) / 0.1^1.47, here from mpmath
    f = lambda t: t ** -1.1 * np.log(t) ** 0.47
    assert tail(f, 10.0) == pytest.approx(24.1118633669289, rel=1e-10)
    assert tail(f, 1e6) == pytest.approx(10.9487011972729, rel=1e-10)


def test_tail_table_far_points_match_the_model():
    f = lambda t: t ** -1.1 * np.log(t) ** 0.47
    table = TailTable(f, np.geomspace(2.05, 1e4, 200))
    rs = np.array([3.0, 500.0, 1e6, table.edges[-1] * 10.0])
    assert np.allclose(table(rs), [tail(f, r) for r in rs], rtol=1e-10,
                       atol=0.0)


def test_tail_table_pole_model_closed_forms():
    # below the first edge 0.01: f = t^-3 gives r^-2 / 2 (k = -2), f = 1/t
    # below 1 gives 1 - log r (k = 0 exactly), f = (1 + t)^-2 gives
    # 1 / (1 + r) (k = 1), down to radii where e0/r or (e0/r)^k overflow
    edges = np.union1d(np.geomspace(0.01, 1.0, 25), np.geomspace(1.0, 100.0, 25))
    cube = TailTable(lambda t: t ** -3.0, edges)
    kink = TailTable(lambda t: np.where(t < 1.0, 1.0 / t, t ** -2.0), edges)
    flat = TailTable(lambda t: (1.0 + t) ** -2.0, edges)
    rs = np.array([5e-3, 1e-6, 1e-10, 1e-100, 1e-300])
    assert np.allclose(cube(rs[:4]), 0.5 * rs[:4] ** -2.0, rtol=1e-10)
    assert np.allclose(kink(rs), 1.0 - np.log(rs), rtol=1e-10)
    assert np.allclose(flat(np.append(rs, 5e-324)),
                       1.0 / (1.0 + np.append(rs, 0.0)), rtol=1e-10)


def test_tail_table_pole_model_is_inf_where_the_integral_overflows():
    # f = t^-3 overflows below about 1e-103, its integral r^-2 / 2 only
    # below about 1e-154
    table = TailTable(lambda t: t ** -3.0, np.geomspace(0.01, 100.0, 50))
    with np.errstate(over="ignore"):
        values = table(np.array([1e-100, 1e-150, 1e-160, 5e-324]))
    assert values[0] == pytest.approx(0.5e200, rel=1e-10)
    assert values[1] == pytest.approx(0.5e300, rel=1e-10)
    assert values[2:].tolist() == [math.inf, math.inf]


# cold CLI runs after which no scipy module may be loaded; an implicit solve
# may load what scipy.linalg itself loads, for LAPACK ?gtsv
SCIPY_FREE_RUNS = [
    ["green", "--profile", "power_log:4:3:0.5", "--radii", "0.5,2,40"],
    ["l1g", "--profile", "power_log:4:3:0.5", "--exponents", "2.5,3.5"],
    ["bound", "--profile", "power_log:4:3:0.5", "--growth",
     "power_log:3:0.5:2", "--m", "2", "--t-min", "1", "--t-max", "1e4",
     "--count", "8"],
    ["solve", "--profile", "euclidean:3", "--m", "2", "--init", "barenblatt",
     "--rmax", "6", "--cells", "60", "--tend", "0.05", "--snapshots", "2"],
]
IMPLICIT_RUN = [*SCIPY_FREE_RUNS[-1], "--scheme", "implicit"]


def scipy_modules_after(code: str, *args: str) -> set:
    """Names of the scipy modules loaded once `code` has run in a fresh
    interpreter (pytest's warning filter imports scipy in this one)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = (code + "\nimport json; print(json.dumps([m for m in sys.modules "
             "if m.split('.')[0] == 'scipy']))")
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_package_import_leaves_scipy_out():
    assert scipy_modules_after("import sys, pmegreen, pmegreen.cli") == set()


def test_cli_runs_leave_scipy_out(tmp_path):
    # the runs go one after another in one interpreter, each into its own
    # directory, so a scipy import by any of them shows
    code = ("import json, sys; from pmegreen.cli import main\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    assert main([*argv, '--out-dir', f'{sys.argv[2]}/{i}']) == 0")
    assert scipy_modules_after(code, json.dumps(SCIPY_FREE_RUNS),
                               str(tmp_path)) == set()


def test_implicit_solve_loads_scipy_linalg_only(tmp_path):
    code = ("import sys; from pmegreen.cli import main; "
            "assert main(sys.argv[1:]) == 0")
    loaded = scipy_modules_after(code, *IMPLICIT_RUN, "--out-dir", str(tmp_path))
    assert "scipy.linalg" in loaded
    assert loaded <= scipy_modules_after("import sys, scipy.linalg")


# -- Hermite kernel -----------------------------------------------------------

def hermite_cases():
    """(x, y, slopes) on uneven knots: oscillating, monotone, with a flat
    run, and a two-knot case."""
    rng = np.random.default_rng(7)
    cases = []
    for n, kind in ((40, "wave"), (25, "monotone"), (30, "flat"), (2, "wave")):
        x = np.cumsum(rng.exponential(size=n)) * 10.0 ** rng.uniform(-3, 3)
        if kind == "wave":
            y = np.sin(3.0 * x / x[-1]) + 0.1 * rng.normal(size=n)
        elif kind == "monotone":
            y = np.cumsum(rng.exponential(size=n))
        else:
            y = np.log1p(x)
            y[10:14] = y[10]
        cases.append((x, y, rng.normal(size=n)))
    return cases


def probe_points(x):
    """Every knot, interior points, the two ends, and points outside."""
    rng = np.random.default_rng(3)
    inside = rng.uniform(x[0], x[-1], 300)
    mids = 0.5 * (x[1:] + x[:-1])
    outside = [x[0] - 1.0, np.nextafter(x[0], -np.inf),
               np.nextafter(x[-1], np.inf), x[-1] + 1.0]
    return np.concatenate([x, mids, inside, outside])


@pytest.mark.parametrize("case", range(4))
def test_hermite_matches_cubic_hermite_spline_bit_for_bit(case):
    x, y, d = hermite_cases()[case]
    ours, ref = Hermite(x, y, d), CubicHermiteSpline(x, y, d, extrapolate=False)
    pts = probe_points(x)
    # the derivative is summed as scipy's derivative() spline sums it
    for got, want in ((ours(pts), ref(pts)),
                      (ours(pts, nu=1), ref.derivative()(pts))):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[-4:]).all() and not np.isnan(got[:-4]).any()


@pytest.mark.parametrize("case", range(4))
def test_pchip_matches_pchip_interpolator_bit_for_bit(case):
    x, y, _ = hermite_cases()[case]
    ref = PchipInterpolator(x, y, extrapolate=False)
    slopes = pchip_slopes(x, y)
    # scipy keeps the slopes at the left knots as the linear coefficients;
    # the last one enters the values below
    assert np.array_equal(slopes[:-1], ref.c[2])
    ours = Hermite(x, y, slopes)
    pts = probe_points(x)
    assert np.array_equal(ours(pts), ref(pts), equal_nan=True)
    assert np.array_equal(ours(pts, nu=1), ref.derivative()(pts),
                          equal_nan=True)


def test_hermite_shapes_and_zero_d_input():
    x, y, d = hermite_cases()[0]
    ours, ref = Hermite(x, y, d), CubicHermiteSpline(x, y, d)
    point = np.asarray(0.5 * (x[3] + x[4]))
    assert ours(point).shape == () and ours(point) == ref(point)
    assert ours(float(x[-1])) == ref(x[-1])
    assert math.isnan(ours(float(x[-1]) + 1.0))
    grid = np.linspace(x[0], x[-1], 12).reshape(3, 4)
    assert ours(grid).shape == (3, 4)
    assert np.array_equal(ours(grid, nu=1), ref.derivative()(grid))
    assert ours(np.empty(0)).shape == (0,)


def test_hermite_rejects_bad_knots():
    with pytest.raises(ValueError, match="increasing"):
        Hermite([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        pchip_slopes([0.0, 1.0, 2.0], [0.0, math.nan, 2.0])
    with pytest.raises(ValueError, match="at least 2"):
        pchip_slopes([0.0], [1.0])
    with pytest.raises(ValueError, match="one slope per knot"):
        Hermite([0.0, 1.0], [0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="nu"):
        Hermite([0.0, 1.0], [0.0, 1.0], [1.0, 1.0])(0.5, nu=2)


def test_invert_increasing_round_trip():
    xs = np.linspace(0.0, 5.0, 6)
    root = invert_increasing(np.exp, math.exp(3.5), xs, np.exp(xs))
    assert root == pytest.approx(3.5, rel=1e-12)
    # a target at or below the first value returns the first knot
    assert invert_increasing(np.exp, 0.5, xs, np.exp(xs)) == xs[0]
    assert invert_increasing(np.exp, 1.0, xs, np.exp(xs)) == xs[0]
    # a decreasing function is inverted through its negative; 8 lies past
    # the last knot, where the bracket doubles from the last knot spacing
    xs = np.array([1.0, 2.0, 3.0])
    root = invert_increasing(lambda r: -1.0 / r, -0.125, xs, -1.0 / xs)
    assert root == pytest.approx(8.0, rel=1e-12)


def test_invert_increasing_batch_matches_one_target_at_a_time():
    # inside the knots, on a knot, below them and past them, where the
    # bracket expands: every root of a batch is the lone root bit for bit,
    # and fn sees only the targets still at work
    xs = np.linspace(0.0, 2.0, 5)
    targets = np.array([[0.5, math.exp(1.3), math.exp(1.5)],
                        [math.exp(2.0), math.exp(7.25), math.exp(40.0)]])
    sizes = []

    def fn(x):
        sizes.append(x.size)
        return np.exp(x)

    roots = invert_increasing(fn, targets, xs, np.exp(xs))
    assert roots.shape == targets.shape
    alone = [invert_increasing(np.exp, t, xs, np.exp(xs)) for t in targets.flat]
    assert roots.ravel().tolist() == alone
    assert roots[0, 0] == xs[0]
    assert roots[1, 2] == pytest.approx(40.0, rel=1e-12)
    assert sizes[0] == 2 and sizes[-1] < 5  # growing brackets, then fewer
    assert invert_increasing(fn, np.array([]), xs, np.exp(xs)).shape == (0,)


def test_invert_increasing_unreachable_target():
    xs = np.linspace(0.0, 1.0, 3)
    with pytest.raises(BracketError):
        invert_increasing(np.arctan, 2.0, xs, np.arctan(xs))


def test_gauss_panels_polynomial_exactness():
    # 5-point Gauss is exact through degree 9 on each panel
    edges = np.array([0.0, 0.7, 1.3, 2.0])
    val = float(np.sum(gauss_panels(lambda x: x ** 9, edges)))
    assert val == pytest.approx(2.0 ** 10 / 10.0, rel=1e-13)


def test_simpson_weights_cubic_exact():
    xs = np.linspace(0.0, 2.0, 5)
    w = simpson_weights(5, xs[1] - xs[0])
    assert float(np.sum(w * xs ** 3)) == pytest.approx(4.0, rel=1e-13)
    with pytest.raises(ValueError):
        simpson_weights(4, 0.1)


def test_loglog_slope_recovers_exponent():
    ts = np.geomspace(1.0, 1e4, 17)
    assert loglog_slope(ts, 5.0 * ts ** -0.75) == pytest.approx(-0.75,
                                                                abs=1e-12)


@given(st.floats(min_value=0.5, max_value=20.0),
       st.floats(min_value=1.2, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_tail_integral_power_family(a, p):
    # closed form a^{1-p}/(p-1) for integrand t^{-p}
    val = tail(lambda t: t ** -p, a)
    assert val == pytest.approx(a ** (1.0 - p) / (p - 1.0), rel=1e-8)


def test_check_fails_a_nan_value():
    check = Check(math.nan, 1.0)
    assert not check.passed and math.isnan(check.margin)


def test_check_at_its_limit_passes_with_margin_zero():
    for limit in (0.5, -2.0, 0.0):
        check = Check(limit, limit)
        assert check.passed and check.margin == 0.0
    assert Check(1.0, 4.0).margin == 0.75
    assert Check(-3.0, -2.0).margin == 0.5
    assert Check(6.0, 4.0).margin == -0.5


def test_check_at_a_zero_limit_states_the_gap():
    assert Check(3.0, 0.0).margin == -3.0
    assert Check(-2.0, 0.0).margin == 2.0
    for value in (0.0, -0.0):
        for limit in (0.0, -0.0):
            margin = Check(value, limit).margin
            assert margin == 0.0 and math.copysign(1.0, margin) == 1.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(_FINITE, _FINITE)
@settings(max_examples=200, deadline=None)
def test_check_lower_limit_is_stated_negated(x, bound):
    # x >= bound, stated as -x <= -bound; the margin is >= 0 iff it passes
    check = Check(-x, -bound)
    assert check.passed == (x >= bound)
    assert (check.margin >= 0.0) == check.passed


def test_max_rise():
    assert max_rise(np.array([1.0, 2.0, 1.5])) == 1.0
    assert max_rise(np.array([3.0, 2.0, 1.0])) == 0.0
    assert max_rise(np.array([1.0])) == 0.0
    # V / r^n at 0 once r^n overflows does not rise, but a rise from 0 is inf
    assert max_rise(np.array([2.0, 0.0, 0.0])) == 0.0
    assert max_rise(np.array([0.0, 1.0])) == math.inf
    assert math.isnan(max_rise(np.array([1.0, math.nan, 0.5])))


def test_nonneg_max_keeps_nan_and_drops_negative_zero():
    assert nonneg_max(-1.0, np.array([-2.0, 0.5])) == 0.5
    assert nonneg_max(np.array([-3.0])) == 0.0
    # Python's max(0.0, nan) is 0.0; a nan anywhere is a nan here
    assert math.isnan(nonneg_max(0.1, np.array([1.0, math.nan]), 0.2))
    for zero in (nonneg_max(-0.0), nonneg_max(np.array([-0.0, -1.0]))):
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
