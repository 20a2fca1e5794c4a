from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import pmegreen as pg
from pmegreen.geometry import GrowthError, ProfileError


def test_unit_constants():
    assert pg.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert pg.unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0)
    assert pg.unit_ball_volume(5) == pytest.approx(8.0 * math.pi ** 2 / 15.0)
    assert pg.unit_sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert pg.unit_sphere_area(5) == pytest.approx(8.0 * math.pi ** 2 / 3.0)


def test_unit_ball_volume_past_gamma_overflow():
    # Gamma(n/2 + 1) overflows from n = 342 on; omega_n then comes from
    # lgamma and keeps the recurrence omega_n = 2 pi / n omega_(n-2)
    assert pg.unit_ball_volume(341) == math.pi ** 170.5 / math.gamma(171.5)
    for n in (342, 343, 400, 600):
        assert pg.unit_ball_volume(n) == pytest.approx(
            2.0 * math.pi / n * pg.unit_ball_volume(n - 2), rel=1e-12)
    assert pg.unit_ball_volume(2000) == 0.0


@pytest.mark.parametrize("descriptor", [
    {"form": "euclidean", "dimension": 3},
    {"form": "power", "dimension": 4, "params": {"lam": 3.0, "coeff": 0.5}},
    {"form": "power_log", "dimension": 4, "params": {"lam": 3.0,
                                                     "sigma": 1.0}},
])
def test_area_is_volume_derivative(descriptor):
    profile = pg.make_profile(descriptor)
    for r in (0.5, 1.0, 3.0, 20.0):
        recon, _ = scipy.integrate.quad(lambda s: float(profile.area(s)),
                                        0.0, r, epsabs=1e-12, epsrel=1e-12,
                                        limit=200)
        assert recon == pytest.approx(float(profile.volume(r)), rel=1e-8)


def test_make_profile_rejects_bad_input():
    with pytest.raises(ProfileError):
        pg.make_profile(form="euclidean", dimension=2)
    with pytest.raises(ProfileError):
        pg.make_profile(form="euclidean", dimension=3, bogus=1)
    with pytest.raises(ProfileError):
        pg.make_profile(form="power", dimension=3, params={"lam": 5.0})
    with pytest.raises(ProfileError):
        pg.make_profile(form="power", dimension=3,
                        params={"lam": 2.5,
                                "coeff": 2.0 * pg.unit_ball_volume(3)})
    with pytest.raises(ProfileError):
        pg.make_profile(form="nonsense", dimension=3)


def test_tabulated_profile_round_trip(euclid3):
    rs = np.geomspace(0.01, 50.0, 400)
    prof = pg.make_profile(form="tabulated", dimension=3, params={
        "radii": rs, "volumes": np.asarray(euclid3.volume(rs))})
    probe = np.array([0.1, 1.0, 7.3, 40.0])
    assert np.allclose(prof.volume(probe), euclid3.volume(probe), rtol=1e-6)


def test_tabulated_rejects_nonmonotone():
    with pytest.raises(ProfileError):
        pg.make_profile(form="tabulated", dimension=3, params={
            "radii": [0.5, 1.0, 2.0], "volumes": [1.0, 0.8, 2.0]})


def test_warped_identity_matches_euclidean(euclid3):
    prof = pg.make_profile(form="warped", dimension=3,
                           params={"phi": lambda r: np.asarray(r,
                                                               dtype=float)})
    rs = np.array([0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
    assert np.allclose(prof.volume(rs), euclid3.volume(rs), rtol=1e-5)
    assert np.allclose(prof.area(rs), euclid3.area(rs), rtol=1e-10)


def test_growth_closed_tails_match_quadrature():
    power = pg.make_growth(form="power", params={"k": 3.0}, r0=1.0)
    numeric = pg.make_growth(form="numeric",
                             params={"rate": lambda t: t * t}, r0=1.0)
    for r in (2.0, 10.0, 100.0):
        assert power.tail(r) == pytest.approx(1.0 / r, rel=1e-12)
        assert numeric.tail(r) == pytest.approx(1.0 / r, rel=1e-8)
    plog = pg.make_growth(form="power_log", params={"k": 2.0, "b": 2.0},
                          r0=math.e)
    assert plog.tail(math.e ** 2) == pytest.approx(0.5, rel=1e-12)
    assert plog.beta == pytest.approx(1.0, rel=1e-12)


def test_growth_rejects_nonintegrable():
    with pytest.raises(GrowthError):
        pg.make_growth(form="power", params={"k": 2.0}, r0=1.0)
    with pytest.raises(GrowthError):
        pg.make_growth(form="power_log", params={"k": 2.0, "b": 1.0},
                       r0=2.0)
    with pytest.raises((GrowthError, ArithmeticError)):
        pg.make_growth(form="numeric",
                       params={"rate": lambda t: t * np.log(1.0 + t)},
                       r0=1.0)
    with pytest.raises(GrowthError):
        pg.make_growth(form="power", params={"k": 3.0}, r0=0.5)


def test_check_assumptions_euclid5(euclid5, growth5):
    rep = pg.check_assumptions(euclid5, growth5)
    assert rep.passed and not rep.failures
    assert rep.alpha_noncollapse == pytest.approx(pg.unit_ball_volume(5),
                                                  rel=1e-12)
    assert rep.gamma_uniformity == pytest.approx(1.0, abs=1e-9)
    assert rep.beta == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rep.doubling_constant == pytest.approx(32.0, rel=1e-9)
    assert rep.bishop_gromov.passed and rep.euclidean_bound.passed


def test_check_assumptions_state_their_excess(growth3):
    # V = r^3 up to r = 1, then about r^4: V / r^3 rises at least by the
    # ratio of adjacent sample radii, and V / (omega_3 r^3) is largest at the
    # last sample
    radii = np.geomspace(0.01, 10.0, 40)
    prof = pg.make_profile(form="tabulated", dimension=3, params={
        "radii": list(radii), "volumes": list(radii ** 3 * np.maximum(
            radii, 1.0))})
    rep = pg.check_assumptions(prof, growth3)
    step = rep.sample[1] / rep.sample[0] - 1.0
    assert rep.bishop_gromov.value >= step * (1.0 - 1e-9)
    assert rep.bishop_gromov.margin < 0.0 and not rep.bishop_gromov.passed
    r = rep.sample[-1]
    assert rep.euclidean_bound.value == pytest.approx(
        float(prof.volume(r)) / (pg.unit_ball_volume(3) * r ** 3) - 1.0)
    assert rep.euclidean_bound.margin < 0.0
    assert {"bishop_gromov", "euclidean_volume_bound"} <= set(rep.failures)


def test_check_assumptions_where_r_to_the_n_overflows():
    # r^100 overflows from r = 1e3.08 on, so V / r^n is 0 there: no rise
    prof = pg.make_profile(form="power", dimension=100,
                           params={"lam": 3.0, "coeff": 1e-45})
    growth = pg.make_growth(form="power", params={"k": 3.0}, r0=1.0)
    with np.errstate(over="ignore"):
        rep = pg.check_assumptions(prof, growth)
    assert rep.bishop_gromov.value == 0.0 and rep.euclidean_bound.value == 0.0
    assert rep.passed


def test_check_assumptions_flags_growth_mismatch(euclid3):
    # f growing faster than the sphere area makes the uniformity ratio blow up
    fast = pg.make_growth(form="power", params={"k": 4.0}, r0=1.0)
    rep = pg.check_assumptions(euclid3, fast)
    assert rep.gamma_uniformity > 100.0


@given(st.floats(min_value=2.1, max_value=4.0),
       st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=1.1, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_bishop_gromov_monotone(lam, r, factor):
    profile = pg.make_profile(form="power", dimension=4,
                              params={"lam": lam, "coeff": 0.3})
    big = r * factor
    lhs = float(profile.volume(big)) / big ** 4
    rhs = float(profile.volume(r)) / r ** 4
    assert lhs <= rhs * (1.0 + 1e-9)


def test_ricci_check_signs():
    # the differencing noise grows like 1/r^2 towards the pole, so the flat
    # and cone metrics pass only because the slack scales with the terms
    for grid in (np.geomspace(0.05, 50.0, 200), np.geomspace(1e-3, 1e3, 61),
                 np.geomspace(1e-12, 1e3, 91)):
        flat = pg.ricci_nonneg_check(lambda r: np.asarray(r, dtype=float),
                                     3, grid)
        assert flat.ok
        for n in (3, 4):
            cone = pg.ricci_nonneg_check(
                lambda r: 0.5 * np.asarray(r, dtype=float), n, grid)
            assert cone.ok
    hyper = pg.ricci_nonneg_check(np.sinh, 3, np.geomspace(0.05, 50.0, 200))
    assert not hyper.ok
    assert hyper.first_failing_radius is not None


@pytest.mark.parametrize("n, lam", [(3, 2.5), (3, 2.1), (4, 3.0), (4, 2.2),
                                    (5, 3.0), (6, 5.5)])
def test_ricci_check_on_the_smooth_family(n, lam):
    # phi = r (1 + r^2)^-beta, beta = (n - lam)/(2 (n - 1)): a smooth pole,
    # V ~ r^lam at infinity and Ric >= 0 everywhere; the cone tip c r^gamma
    # with gamma = (lam - 1)/(n - 1) < 1, which power:n:lam has at its pole,
    # has negative tangential curvature there
    beta = (n - lam) / (2.0 * (n - 1))
    grid = np.geomspace(1e-3, 1e4, 81)
    smooth = pg.ricci_nonneg_check(
        lambda r: np.asarray(r, dtype=float) * (1.0 + np.asarray(
            r, dtype=float) ** 2) ** -beta, n, grid)
    assert smooth.ok and smooth.first_failing_radius is None
    gamma = (lam - 1.0) / (n - 1.0)
    tip = pg.ricci_nonneg_check(
        lambda r: 1.2 * np.asarray(r, dtype=float) ** gamma, n, grid)
    assert not tip.ok and tip.first_failing_radius == grid[0]


def test_growth_tail_power_log_matches_mpmath():
    # T(R) = int_R^inf dt / (t^2 sqrt(log t)); the radii sit midway between
    # the table's log-spaced edges on [r0, 1e12 r0], where it is least exact
    growth = pg.make_growth(form="power_log", params={"k": 3.0, "b": 0.5},
                            r0=2.0)
    edges = np.geomspace(2.0, 2e12, 3600)
    mids = np.sqrt(edges[:-1] * edges[1:])
    radii = np.append(mids[(mids <= 1e12)][::90], 1e9)
    with mp.workdps(20):
        ref = np.array([float(mp.quad(
            lambda t: 1 / (t * t * mp.sqrt(mp.log(t))),
            [r, 10 * r, 1e3 * r, mp.inf])) for r in radii])
    assert np.allclose(growth.tail(radii), ref, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("descriptor", [
    {"form": "power_log", "params": {"k": 3.0, "b": 0.5}, "r0": 2.0},
    {"form": "power_log", "params": {"k": 2.0, "b": 2.0}, "r0": 3.0},
    {"form": "power", "params": {"k": 3.0}, "r0": 1.0},
    {"form": "numeric", "params": {"rate": lambda t: t * t}, "r0": 1.0},
], ids=["power_log", "power_log_closed", "power", "numeric"])
def test_growth_tail_takes_arrays(descriptor):
    # past the table's last edge too: 1e13 > 1e12 r0
    growth = pg.make_growth(descriptor)
    rs = np.array([[3.0, 4.5, 17.0], [250.0, 1e9, 1e13]])
    out = growth.tail(rs)
    assert isinstance(out, np.ndarray) and out.shape == rs.shape
    assert np.array_equal(out, [[growth.tail(float(r)) for r in row]
                                for row in rs])
    assert isinstance(growth.tail(3.0), float)
    with pytest.raises(GrowthError):
        growth.tail(np.array([5.0, 0.5]))


@pytest.mark.parametrize("descriptor", [
    {"form": "power_log", "params": {"k": 3.0, "b": 0.5}, "r0": 2.0},
    {"form": "power_log", "params": {"k": 2.0, "b": 2.5}, "r0": 3.0},
    {"form": "power", "params": {"k": 3.7}, "r0": 1.0},
    {"form": "numeric", "params": {"rate": lambda t: t * t}, "r0": 1.0},
], ids=["power_log", "power_log_closed", "power", "numeric"])
def test_growth_tail_each_is_the_lone_tail_bit_for_bit(descriptor):
    # inside the table, past the knots, and past the table's last edge,
    # where several radii at once would sum the tail model in another order
    growth = pg.make_growth(descriptor)
    rs = np.concatenate([np.geomspace(3.0, 1e9, 40), [1e13],
                         np.geomspace(1e40, 1e44, 5)])
    assert growth.tail_each(rs).tolist() == [growth.tail(float(r)) for r in rs]
    with pytest.raises(GrowthError):
        growth.tail_each(np.array([5.0, 0.5]))


def test_growth_knots_are_built_once():
    growth = pg.make_growth(form="power", params={"k": 3.0}, r0=2.0)
    knots = growth.knots
    assert growth.knots is knots and not knots.flags.writeable
    assert np.array_equal(knots, np.geomspace(2.0, 2e12, 3600))
