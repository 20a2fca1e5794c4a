from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmegreen.numerics import (BracketError, IntegralDivergenceError,
                               TailTable, gauss_panels, integrate,
                               invert_decreasing, invert_increasing,
                               loglog_slope, simpson_weights, tail_remainder)


def tail(f, a):
    """int_a^inf f by the tail model alone."""
    return float(tail_remainder(f, a)[0])


def test_integrate_matches_closed_forms():
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)
    assert integrate(lambda r: r * r, 0.0, 3.0) == pytest.approx(9.0,
                                                                 rel=1e-12)


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


def test_invert_increasing_round_trip():
    root = invert_increasing(math.exp, math.exp(3.5), 0.0)
    assert root == pytest.approx(3.5, rel=1e-9)
    root = invert_decreasing(lambda r: 1.0 / r, 0.125, 1.0)
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
