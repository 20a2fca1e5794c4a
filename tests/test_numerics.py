from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmegreen.numerics import (BracketError, IntegralDivergenceError,
                               TailTable, gauss_panels, invert_increasing,
                               loglog_slope, simpson_weights, tail_remainder)


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


def test_tail_table_pole_model_is_inf_where_f_overflows():
    table = TailTable(lambda t: t ** -3.0, np.geomspace(0.01, 100.0, 50))
    with np.errstate(over="ignore"):
        values = table(np.array([1e-100, 1e-150, 5e-324]))
    assert values[0] == pytest.approx(0.5e200, rel=1e-10)
    assert values[1:].tolist() == [math.inf, math.inf]


def test_package_import_leaves_scipy_integrate_out():
    # run apart: pytest's warning filter imports scipy.integrate in this process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, pmegreen, pmegreen.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_invert_increasing_round_trip():
    root = invert_increasing(math.exp, math.exp(3.5), 0.0)
    assert root == pytest.approx(3.5, rel=1e-9)
    # a decreasing function is inverted through its negative
    root = invert_increasing(lambda r: -1.0 / r, -0.125, 1.0)
    assert root == pytest.approx(8.0, rel=1e-9)


def test_invert_increasing_unreachable_target():
    with pytest.raises(BracketError):
        invert_increasing(lambda r: math.atan(r), 2.0, 0.0)


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
