from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmegreen as pg
from pmegreen.numerics import invert_increasing


def expdecay(r):
    return np.exp(-np.asarray(r, dtype=float))


def test_l1g_norm_exponential_closed_form(euclid3):
    # inner: int_0^1 e^{-r} 4 pi r^2 dr = 4 pi (2 - 5/e)
    # outer: int_1^inf e^{-r} (4 pi r)^{-1} 4 pi r^2 dr = 2/e
    res = pg.l1g_norm(euclid3, expdecay)
    assert res.converged
    assert res.inner == pytest.approx(4.0 * math.pi * (2.0 - 5.0 / math.e),
                                      rel=1e-9)
    assert res.tail.value == pytest.approx(2.0 / math.e, rel=1e-8)
    assert res.total == pytest.approx(res.inner + res.tail.value, rel=1e-12)


def test_l1g_norm_zero_function(euclid3):
    res = pg.l1g_norm(euclid3, lambda r: 0.0 * np.asarray(r))
    assert res.total == 0.0
    assert res.converged


def test_l1g_norm_horizon_validation(euclid3):
    with pytest.raises(ValueError):
        pg.l1g_norm(euclid3, expdecay, horizons=(5.0,))
    with pytest.raises(ValueError):
        pg.l1g_norm(euclid3, expdecay, horizons=(0.5, 2.0))
    with pytest.raises(ValueError):
        pg.l1g_norm(euclid3, expdecay, horizons=(10.0, 5.0))


def test_powerlaw_dichotomy_euclid5(euclid5):
    # a = 3 sits between the weighted threshold 2 and the growth exponent 5:
    # not plain integrable, weighted integrable
    cls = pg.powerlaw_classify(euclid5, 3.0)
    assert not cls.in_l1 and cls.in_l1g
    assert not cls.l1_diag.converged
    assert cls.l1_diag.total == math.inf
    assert cls.l1g_diag.converged
    assert math.isfinite(cls.l1g_diag.total)
    assert cls.consistent


def test_powerlaw_boundary_exponent_diverges_both(euclid5):
    cls = pg.powerlaw_classify(euclid5, 2.0)
    assert not cls.in_l1 and not cls.in_l1g
    assert not cls.l1g_diag.converged
    assert cls.l1g_diag.total == math.inf
    assert cls.consistent


def test_powerlaw_integrable_exponent(euclid5):
    cls = pg.powerlaw_classify(euclid5, 6.0)
    assert cls.in_l1 and cls.in_l1g
    assert cls.l1_diag.converged and cls.l1g_diag.converged
    # weighted norm is the smaller one: G < 1 on r >= 1 in this geometry
    assert cls.l1g_diag.total < cls.l1_diag.total
    assert cls.consistent


def test_shallow_growth_profile_rejected():
    # phi = tanh grows V like r: alpha_infinity is about 1
    prof = pg.make_profile(form="warped", dimension=3,
                           params={"phi": np.tanh})
    assert prof.alpha_infinity == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError, match="volume growth exponent"):
        pg.powerlaw_classify(prof, 3.0)


def test_weighted_norm_inclusion_bound(euclid5):
    # G is bounded on r >= 1, so the weighted norm is controlled by the
    # plain norm with constant max(1, sup_{r>=1} G) = max(1, G(1))
    plain = pg.l1_norm_radial(euclid5, expdecay)
    weighted = pg.l1g_norm(euclid5, expdecay)
    cap = max(1.0, pg.GreenData(euclid5).exact(1.0))
    assert weighted.total <= cap * plain.total * (1.0 + 1e-9)


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=8, deadline=None)
def test_l1g_norm_homogeneity(euclid3, c):
    base = pg.l1g_norm(euclid3, expdecay)
    scaled = pg.l1g_norm(euclid3, lambda r: c * expdecay(r))
    assert scaled.total == pytest.approx(c * base.total, rel=1e-9)


def test_l1g_norm_triangle_inequality(euclid3):
    f = expdecay
    g = lambda r: np.power(1.0 + np.asarray(r, dtype=float), -4.0)
    nf = pg.l1g_norm(euclid3, f).total
    ng = pg.l1g_norm(euclid3, g).total
    nfg = pg.l1g_norm(euclid3, lambda r: f(r) + g(r)).total
    assert nfg <= (nf + ng) * (1.0 + 1e-9)
    # f, g >= 0 here, so the triangle inequality is tight
    assert nfg == pytest.approx(nf + ng, rel=1e-8)


def test_separating_sequence_reads_a_given_green(euclid5, growth5):
    given = pg.build_separating_sequence(euclid5, growth5, 8,
                                         green=pg.GreenData(euclid5))
    own = pg.build_separating_sequence(euclid5, growth5, 8)
    assert np.array_equal(given.weighted_increments, own.weighted_increments)


def test_separating_sequence_euclid5(euclid5, growth5):
    seq = pg.build_separating_sequence(euclid5, growth5, 8)
    # the geometric floor 4 d_{j-1} dominates the tail certificate here
    assert seq.distances[0] == pytest.approx(8.0)
    assert np.allclose(seq.distances[1:] / seq.distances[:-1], 4.0)
    # each distance certifies its Green tail target
    for j, d in enumerate(seq.distances, start=1):
        assert growth5.tail(d - 1.0) <= 2.0 ** (-j) * (1.0 + 1e-9)
    # unit-mass shells: plain partial sums grow linearly ...
    assert np.allclose(seq.l1_partials, np.arange(1, 9, dtype=float))
    assert np.allclose(seq.masses, 1.0)
    # ... while weighted increments decay geometrically
    assert np.all(np.diff(seq.weighted_increments) < 0.0)
    j_idx = np.arange(1, 9, dtype=float)
    assert np.all(seq.weighted_increments <=
                  seq.increment_constant * 2.0 ** (-j_idx) * (1.0 + 1e-12))
    assert np.all(np.diff(seq.weighted_partials) > 0.0)


def test_separating_sequence_past_two_to_the_53():
    # d_30 = 8 4^29 ~ 2.3e18: d +- 1/2 round to d itself, yet every shell
    # keeps its width through its own Gauss offsets
    prof = pg.make_profile(form="euclidean", dimension=3)
    growth = pg.make_growth(form="power", params={"k": 3.0}, r0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = pg.build_separating_sequence(prof, growth, 30)
    inc = seq.weighted_increments
    assert seq.distances[-1] == 8.0 * 4.0 ** 29
    assert np.all(np.isfinite(inc)) and np.all(inc > 0.0)
    assert np.all(np.diff(inc) < 0.0)
    assert math.isfinite(seq.increment_constant)
    assert np.all(np.isfinite(seq.weighted_partials))


def test_separating_increments_match_closed_form(euclid5, growth5):
    # on R^5, G S = r / 3 and int S over [d - 1/2, d + 1/2] is
    # sigma_5 (d^4 + d^2 / 2 + 1/80), so each increment is a closed form;
    # it must hold out to d ~ 1e12, where V(d + 1/2) - V(d - 1/2) cancels
    seq = pg.build_separating_sequence(euclid5, growth5, 20)
    d = seq.distances
    assert d[-1] > 1e12
    exact = (d / 3.0) / (pg.unit_sphere_area(5) * (d ** 4 + d ** 2 / 2.0 + 1.0 / 80.0))
    assert np.allclose(seq.weighted_increments, exact, rtol=1e-12, atol=0.0)


def test_separating_distances_where_the_certificate_binds(euclid5):
    # k = 2.2, r0 = 1: T(R) = 5 R^-0.2, so T(d_j - 1) = 2^-j at
    # d_j = 1 + (5 2^j)^5, 32x apart and so above the floor 4 d_(j-1); the
    # last lies past the growth knots, which end at 1e12
    growth = pg.make_growth(form="power", params={"k": 2.2}, r0=1.0)
    seq = pg.build_separating_sequence(euclid5, growth, 8)
    exact = 1.0 + (5.0 * 2.0 ** np.arange(1, 9)) ** 5
    assert exact[-1] > 1e15
    assert np.allclose(seq.distances, exact, rtol=1e-12, atol=0.0)


def test_separating_roots_are_the_lone_roots(euclid5):
    # k = 2.2 puts every root above the floor 4 d_(j-1), so each distance
    # is 1 + e^root, its root taken alone bit for bit
    growth = pg.make_growth(form="power", params={"k": 2.2}, r0=1.0)
    seq = pg.build_separating_sequence(euclid5, growth, 8)
    xs = np.log(growth.knots)
    ys = -np.log(growth.tail(growth.knots))
    alone = [1.0 + math.exp(invert_increasing(
        lambda x: [-math.log(growth.tail(math.exp(x[0])))],
        -math.log(2.0 ** -j), xs, ys)) for j in range(1, 9)]
    assert seq.distances.tolist() == alone


def test_separating_sequence_validation(euclid5, growth5):
    with pytest.raises(ValueError):
        pg.build_separating_sequence(euclid5, growth5, 0)


def test_divergence_diagnostics_visible(euclid5):
    # a = 2.5 converges in the weighted norm but slowly; the diagnostics
    # should expose the per-horizon corrected truncations
    cls = pg.powerlaw_classify(euclid5, 2.5)
    tail = cls.l1g_diag.tail
    assert len(tail.corrected) == len(tail.horizons)
    assert math.isfinite(tail.truncated[-1])
    assert tail.exponents[-1] == pytest.approx(-1.5, abs=0.1)


# -- exact references for slow tails ------------------------------------------

def euclid3_powerlaw_l1g(a):
    # 4 pi int_0^1 (1 + r)^-a r^2 dr + int_1^inf (1 + r)^-a r dr, with u = 1 + r
    F = lambda u: (u ** (3.0 - a) / (3.0 - a) - 2.0 * u ** (2.0 - a) / (2.0 - a)
                   + u ** (1.0 - a) / (1.0 - a))
    return (4.0 * math.pi * (F(2.0) - F(1.0)) + 2.0 ** (2.0 - a) / (a - 2.0)
            - 2.0 ** (1.0 - a) / (a - 1.0))


@pytest.mark.parametrize("a, value", [(2.2, 5.27790013663),
                                      (2.1, 10.2626427205),
                                      (2.05, 20.2508973367)])
def test_l1g_norm_slow_tails_match_closed_form(euclid3, a, value):
    assert euclid3_powerlaw_l1g(a) == pytest.approx(value, rel=1e-10)
    res = pg.l1g_norm(euclid3, lambda r: (1.0 + np.asarray(r)) ** -a)
    assert res.converged
    assert res.total == pytest.approx(value, rel=1e-4)
    # the default schedule is the first one; growth only extends it
    horizons = res.tail.horizons
    assert horizons[:4] == pg.weighted.DEFAULT_HORIZONS
    assert all(b == 10.0 * h for h, b in zip(horizons[3:], horizons[4:]))
    assert horizons[-1] <= pg.numerics.HORIZON_CAP


@pytest.mark.parametrize("a", [1.95, 2.0])
def test_l1g_norm_at_or_below_two_diverges(euclid3, a):
    res = pg.l1g_norm(euclid3, lambda r: (1.0 + np.asarray(r)) ** -a)
    assert not res.converged
    assert res.total == math.inf


# power_log:4:3:0.5 references from mpmath in s = log r, breakpoints
# [0, 5, 20, 60, 200, inf], with G itself the same integral of 1/S
@pytest.mark.parametrize("a, l1g", [(3.05, 0.52611372414362042763),
                                    (3.5, 0.32423950410623856803)])
def test_l1g_norm_power_log_matches_mpmath(a, l1g):
    prof = pg.make_profile(form="power_log", dimension=4,
                           params={"lam": 3.0, "sigma": 0.5})
    cls = pg.powerlaw_classify(prof, a)
    assert cls.consistent and cls.l1g_diag.converged
    assert cls.l1g_diag.total == pytest.approx(l1g, rel=1e-6)


def test_l1_norm_power_log_at_three_and_a_half():
    # a = 3.5 reads consistent: the r^-1.5 (log r)^0.5 tail is integrable
    prof = pg.make_profile(form="power_log", dimension=4,
                           params={"lam": 3.0, "sigma": 0.5})
    res = pg.l1_norm_radial(prof, lambda r: (1.0 + np.asarray(r)) ** -3.5)
    assert res.converged
    assert res.total == pytest.approx(5.789343622933990821, rel=1e-5)


@pytest.mark.parametrize("profile", [
    {"form": "euclidean", "dimension": 5},
    {"form": "power_log", "dimension": 4, "params": {"lam": 3.0, "sigma": 0.5}},
], ids=["euclid5", "power_log"])
@pytest.mark.parametrize("a", [2.0, 2.5, 3.5, 4.5, 6.0])
def test_powerlaw_classify_matches_the_separate_norms(profile, a):
    # one density read for both norms; the plain norm may settle at another
    # horizon than the weighted one, and each reads as if run alone
    profile = pg.make_profile(profile)
    u_a = lambda r: np.power(1.0 + np.asarray(r, dtype=float), -a)
    cls = pg.powerlaw_classify(profile, a, (10.0, 100.0))
    assert repr(cls.l1_diag) == repr(pg.l1_norm_radial(profile, u_a,
                                                       (10.0, 100.0)))
    assert repr(cls.l1g_diag) == repr(pg.l1g_norm(profile, u_a,
                                                  (10.0, 100.0)))
