from __future__ import annotations

import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import pmegreen as pg
from conftest import exact_record


# -- grid -------------------------------------------------------------------

def test_grid_volumes_telescope(euclid3):
    grid = pg.RadialGrid.make(euclid3, 10.0, 200)
    assert grid.cells == 200
    assert grid.edges[0] == 0.0
    assert np.sum(grid.cell_volumes) == pytest.approx(
        float(euclid3.volume(10.0)), rel=1e-12)


def test_grid_volumes_telescope_log_profile():
    prof = pg.make_profile(form="power_log", dimension=4,
                           params={"lam": 3.0, "sigma": 1.0})
    grid = pg.RadialGrid.make(prof, 30.0, 150)
    assert np.sum(grid.cell_volumes) == pytest.approx(
        float(prof.volume(30.0)), rel=1e-12)


def test_grid_geometric_spacing(euclid3):
    grid = pg.RadialGrid.make(euclid3, 10.0, 100, spacing="geometric",
                              stretch=1.05)
    widths = np.diff(grid.edges)
    assert np.all(np.diff(widths) > 0.0)
    assert grid.edges[-1] == pytest.approx(10.0, rel=1e-12)


def test_grid_rejects_volumes_outside_double_range(euclid3):
    # V(r) = 4 pi r^3 / 3 overflows on the outer edges: differences of inf
    # are NaN, which compares false with 0 as well
    with pytest.raises(ValueError, match="not finite and positive"):
        pg.RadialGrid.make(euclid3, 1e110, 100)


def test_grid_cell_average_constant(euclid3):
    grid = pg.RadialGrid.make(euclid3, 5.0, 64)
    u = grid.cell_average(lambda r: 0.7 * np.ones_like(np.asarray(r)))
    assert np.allclose(u, 0.7, rtol=1e-13, atol=1e-15)


# -- self-similar reference solution ----------------------------------------

def test_barenblatt_exponents():
    p32 = pg.BarenblattParams(dimension=3, m=2.0, bracket=1.0)
    assert p32.alpha == pytest.approx(0.6)
    p43 = pg.BarenblattParams(dimension=4, m=3.0, bracket=1.0)
    assert p43.alpha == pytest.approx(0.4)


@pytest.mark.parametrize("k,m", [(3, 2.0), (4, 3.0)])
def test_barenblatt_mass_against_quadrature(k, m):
    params = pg.BarenblattParams.from_mass(k, m, 1.0)
    assert params.mass == pytest.approx(1.0, rel=1e-12)
    sigma = pg.unit_sphere_area(k)
    for t in (1.0, 10.0):
        front = params.support_radius(t)
        val, err = scipy.integrate.quad(
            lambda r: pg.barenblatt(params, r, t) * sigma * r ** (k - 1),
            0.0, front, points=[front], limit=200)
        assert val == pytest.approx(1.0, rel=1e-10)


def test_barenblatt_sup_and_front_laws():
    for k, m, mass in itertools.product((3, 4, 5), (1.5, 2.0, 3.0),
                                        [*np.linspace(0.3, 3.0, 40), 1.0]):
        p = pg.BarenblattParams.from_mass(k, m, float(mass))
        for t in (1.0, 2.5, 10.0):
            assert pg.barenblatt(p, 0.0, t) == pytest.approx(p.sup_value(t),
                                                             rel=1e-13)
            # the profile vanishes from the front radius on and is positive
            # just inside
            front = p.support_radius(t)
            assert pg.barenblatt(p, front, t) == 0.0
            assert pg.barenblatt(p, np.array([front, 2.0 * front]), t).tolist() \
                == [0.0, 0.0]
            assert pg.barenblatt(p, 0.999 * front, t) > 0.0
            assert p.sup_value(t) * t ** p.alpha == pytest.approx(
                p.bracket ** (1.0 / (p.m - 1.0)), rel=1e-13)


@pytest.mark.parametrize("k", range(3, 11))
def test_barenblatt_beta_matches_mpmath(k):
    # B(k/2, 1/(m - 1) + 1) of the Barenblatt mass, within 2 machine epsilons
    for m in (1.1, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0):
        a, b = k / 2.0, 1.0 / (m - 1.0) + 1.0
        with mpmath.workdps(40):
            ref = float(mpmath.beta(a, b))
        assert pg.solver._half_integer_beta(a, b) == pytest.approx(
            ref, rel=2.0 * sys.float_info.epsilon, abs=0.0)
    # from b = 170.5 on, where Gamma overflows, the Gamma ratio comes from
    # Stirling's series (m below about 1.006); exp and sqrt add an epsilon
    for a, b in itertools.product((1.5, 2.0, 2.5, 5.0),
                                  (170.5, 200.0, 1001.0, 1e4 + 1.0, 1e10 + 1.0)):
        with mpmath.workdps(40):
            ref = float(mpmath.beta(a, b))
        assert pg.solver._half_integer_beta(a, b) == pytest.approx(
            ref, rel=3.0 * sys.float_info.epsilon, abs=0.0)


def test_barenblatt_validation(mass1_params):
    with pytest.raises(ValueError):
        pg.barenblatt(mass1_params, 1.0, 0.0)
    with pytest.raises(ValueError):
        pg.BarenblattParams(dimension=3, m=1.0, bracket=1.0)
    with pytest.raises(ValueError):
        pg.BarenblattParams(dimension=3, m=2.0, bracket=-1.0)


# -- evolution basics --------------------------------------------------------

def test_run_pme_input_validation(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 5.0, 32)
    with pytest.raises(ValueError):
        pg.run_pme(grid, 2.0, np.ones(7), t_end=0.1)
    with pytest.raises(ValueError):
        pg.run_pme(grid, 2.0, -np.ones(32), t_end=0.1)


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("as_callable", [False, True])
def test_run_pme_rejects_nonfinite_data(euclid3, monkeypatch, scheme, bad,
                                        as_callable):
    grid = pg.RadialGrid.make(euclid3, 5.0, 32)
    if as_callable:
        initial = lambda r: np.where(np.asarray(r) < 1.0, bad, 0.5)
    else:
        initial = np.full(32, 0.5)
        initial[3] = bad

    def no_stepper(*args, **kwargs):
        raise AssertionError("a stepper was built for bad data")

    monkeypatch.setattr(pg.solver, "Stepper", no_stepper)
    with pytest.raises(ValueError, match="initial data must be finite and "
                                         "nonnegative"):
        pg.run_pme(grid, 2.0, initial, t_end=0.1, scheme=scheme,
                   implicit_dt=0.01)


@pytest.mark.parametrize("m, mass, snaps", [(2.0, 1.0, [25.0, 50.0]),
                                             (1.5, 100.0, [2.5, 5.0])])
def test_snapshot_times_are_times_integrated(euclid3, monkeypatch, m, mass,
                                             snaps):
    # implicit steps across a whole snapshot gap get halved; a recorded time
    # must still be the time the state was actually integrated to
    spans = []
    step = pg.solver.Stepper.step

    def logged(self, state, dt=None, scheme="explicit"):
        new = step(self, state, dt=dt, scheme=scheme)
        spans.append((state.t, new.t))
        return new

    monkeypatch.setattr(pg.solver.Stepper, "step", logged)
    grid = pg.RadialGrid.make(euclid3, 12.0, 400)
    params = pg.BarenblattParams.from_mass(3, m, mass)
    record = pg.run_pme(grid, m, pg.barenblatt_datum(params),
                        t_end=snaps[-1], snapshots=snaps, scheme="implicit")
    assert spans[0][0] == 0.0
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start == pytest.approx(end, rel=1e-12, abs=0.0)
    ends = np.array([end for _, end in spans])
    for t in record.times[1:]:
        assert np.min(np.abs(ends - t)) <= 1e-12 * t


def test_constant_datum_is_fixed_point(euclid3):
    grid = pg.RadialGrid.make(euclid3, 5.0, 64)
    u0 = np.full(64, 0.7)
    rec = pg.run_pme(grid, 2.0, u0, t_end=0.3, snapshots=[0.1, 0.2, 0.3],
                     boundary="zero_flux")
    for s in rec.states:
        assert np.array_equal(s, u0)
    assert rec.outflows[-1] == 0.0


def test_mass_conservation_zero_flux(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 8.0, 200)
    rec = pg.run_pme(grid, 2.0, pg.barenblatt_datum(mass1_params),
                     t_end=0.5, boundary="zero_flux")
    masses = rec.masses
    assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]
    assert np.all(rec.outflows == 0.0)


def test_mass_ledger_absorbing(short_run):
    _, rec = short_run
    assert rec.mass_defect() <= 1e-10
    assert np.all(np.diff(rec.outflows) >= 0.0)


def test_positivity_and_sup_nonexpansive(short_run):
    _, rec = short_run
    for s in rec.states:
        assert np.all(s >= 0.0)
    sups = rec.sup_norms
    assert np.all(np.diff(sups) <= 1e-14 * sups[0])


def test_snapshot_times_hit_exactly(short_run):
    _, rec = short_run
    assert np.array_equal(rec.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(KeyError):
        rec.state_at(0.33)


def test_implicit_matches_explicit(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 10.0, 150)
    datum = pg.barenblatt_datum(mass1_params)
    ex = pg.run_pme(grid, 2.0, datum, t_end=1.0)
    im = pg.run_pme(grid, 2.0, datum, t_end=1.0, scheme="implicit",
                    implicit_dt=2e-3)
    gap = float(np.sum(np.abs(ex.states[-1] - im.states[-1]) *
                       grid.cell_volumes))
    assert gap <= 2e-3
    assert im.mass_defect() <= 1e-10


def test_self_convergence_to_exact_profile(euclid3, mass1_params):
    errors = {}
    for cells in (250, 500):
        grid = pg.RadialGrid.make(euclid3, 12.0, cells)
        rec = pg.run_pme(grid, 2.0, pg.barenblatt_datum(mass1_params),
                         t_end=1.0)
        exact = grid.cell_average(
            lambda r: pg.barenblatt(mass1_params, r, 2.0))
        errors[cells] = float(np.sum(np.abs(rec.states[-1] - exact) *
                                     grid.cell_volumes))
    assert errors[250] / errors[500] >= 1.8


def test_finite_propagation_speed(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 12.0, 500)
    rec = pg.run_pme(grid, 2.0, pg.barenblatt_datum(mass1_params),
                     t_end=3.0, snapshots=[1.0, 2.0, 3.0])
    dr = grid.edges[1] - grid.edges[0]
    for t in (1.0, 2.0, 3.0):
        u = rec.state_at(t)
        front_exact = mass1_params.support_radius(1.0 + t)
        occupied = grid.centers[u > 1e-12 * float(np.max(u))]
        assert occupied[-1] <= front_exact + 4.0 * dr


# -- single steps --------------------------------------------------------------

def reference_explicit_step(grid, m, boundary, cfl, state, dt=None):
    """A plain explicit step: w = u^m, the interior face fluxes, the ghost-face
    outflow, then u + dt div, with dt clamped to the stable dt and halved until
    the new state is nonnegative. Returns the new u, t, outflow and the
    stable dt."""
    u = state.u
    um1 = np.power(u, m - 1.0)
    w = u * um1
    coef = grid.face_areas[1:-1] / np.diff(grid.centers)
    outer = 0.0
    if boundary == "absorbing":
        outer = grid.face_areas[-1] / (grid.edges[-1] - grid.centers[-1])
    drain = np.zeros(grid.cells)
    drain[:-1] += coef
    drain[1:] += coef
    drain[-1] += outer
    rate = float(np.max(m * um1 * (drain / grid.cell_volumes)))
    stable = cfl / rate if rate > 0.0 else math.inf
    dt = stable if dt is None else min(dt, stable)
    flux = coef * (w[1:] - w[:-1])
    div = np.zeros_like(u)
    div[:-1] += flux
    div[1:] -= flux
    div[-1] -= outer * w[-1]
    div /= grid.cell_volumes
    u_new = u + dt * div
    while u_new.min() < 0.0:
        dt *= 0.5
        u_new = u + dt * div
    return u_new, state.t + dt, state.outflow + dt * outer * w[-1], stable


def smooth_state(grid):
    # positive up to the outer edge, so an absorbing boundary drains it
    u = grid.cell_average(lambda r: 0.2 + np.exp(-r * r))
    return pg.RadialState(u=u, t=0.25, outflow=0.125)


@pytest.mark.parametrize("m", [2.0, 3.0, 1.5])
@pytest.mark.parametrize("boundary", ["absorbing", "zero_flux"])
@pytest.mark.parametrize("cfl", [0.4, 20.0])  # 20 forces positivity halvings
@pytest.mark.parametrize("given_dt", [False, True])
def test_explicit_step_matches_reference(euclid3, m, boundary, cfl, given_dt):
    grid = pg.RadialGrid.make(euclid3, 4.0, 120)
    stepper = pg.Stepper(grid, m, boundary=boundary, cfl=cfl)
    state = smooth_state(grid)
    u_in = state.u.copy()
    # a step of at most the stable dt is one forward-Euler step; a given dt
    # larger than the stable one is clamped to it
    dt = 10.0 * stepper.stable_dt(state.u) if given_dt else math.inf
    u_ref, t_ref, out_ref, stable_ref = reference_explicit_step(
        grid, m, boundary, cfl, state, dt)
    new = stepper.step(state, min(dt, stepper.stable_dt(state.u)), "explicit")
    assert np.array_equal(new.u, u_ref)
    assert new.t == t_ref
    assert new.outflow == out_ref
    assert (new.outflow > state.outflow) == (boundary == "absorbing")
    assert stepper.stable_dt(state.u) == stable_ref
    if cfl == 0.4:
        assert new.t == state.t + stepper.stable_dt(state.u)
    assert np.array_equal(state.u, u_in)


@pytest.mark.parametrize("m", [2.0, 3.0])
@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
def test_steps_share_no_buffers(euclid3, m, scheme):
    grid = pg.RadialGrid.make(euclid3, 4.0, 120)
    stepper = pg.Stepper(grid, m)
    states = [smooth_state(grid)]
    values = [states[0].u.copy()]
    for _ in range(6):
        states.append(stepper.step(states[-1], dt=1e-3, scheme=scheme))
        values.append(states[-1].u.copy())
        stepper.stable_dt(states[-1].u)
    for state, u in zip(states, values):
        assert np.array_equal(state.u, u)
    assert len({id(s.u) for s in states}) == len(states)


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
def test_run_steps_go_through_step(euclid3, mass1_params, monkeypatch, scheme):
    # every step of a run is one Stepper.step call with the scheme passed
    # positionally, so a wrapper of the method that reads its fourth
    # argument counts a run's steps by scheme: the calls equal
    # RunRecord.steps
    calls = []
    step = pg.Stepper.step

    def counted(self, state, dt, *args, **kwargs):
        calls.append((args, kwargs))
        return step(self, state, dt, *args, **kwargs)

    monkeypatch.setattr(pg.Stepper, "step", counted)
    grid = pg.RadialGrid.make(euclid3, 12.0, 200)
    rec = pg.run_pme(grid, 2.0, pg.barenblatt_datum(mass1_params), t_end=0.5,
                     snapshots=[0.25], scheme=scheme, implicit_dt=0.05)
    assert rec.steps == len(calls) > 2
    assert all(call == ((scheme,), {}) for call in calls)


def test_identical_runs_record_identical_states(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 12.0, 200)

    def run():
        return pg.run_pme(grid, 2.0, pg.barenblatt_datum(mass1_params),
                          t_end=1.0, snapshots=[0.25, 0.5, 0.75])

    first, second = run(), run()
    assert first.steps == second.steps
    assert np.array_equal(first.times, second.times)
    assert np.array_equal(first.outflows, second.outflows)
    assert len(first.states) == len(second.states) == 5
    for a, b in zip(first.states, second.states):
        assert np.array_equal(a, b)
    assert not np.array_equal(first.states[0], first.states[-1])


def reference_implicit_step(grid, m, boundary, state, dt):
    """A plain backward-Euler step: Newton on u - u_prev - dt div(u^m) = 0
    with the residual recomputed at every iterate, scipy's solve_banded, a
    backtracking line search on max(trial, 0), and dt halved when 60
    iterates do not converge or when 3 iterates in a row each leave more
    than 3/4 of the residual. Returns the new u, t, outflow and the number
    of damped iterates and of dt halvings."""
    u_prev = state.u
    coef = grid.face_areas[1:-1] / np.diff(grid.centers)
    outer = 0.0
    if boundary == "absorbing":
        outer = grid.face_areas[-1] / (grid.edges[-1] - grid.centers[-1])
    dV = grid.cell_volumes
    lo, up = np.zeros(grid.cells), np.zeros(grid.cells)
    lo[1:] = coef / dV[1:]
    up[:-1] = coef / dV[:-1]
    diag_lin = -(lo + up)
    diag_lin[-1] -= outer / dV[-1]

    def residual(u, dt):
        w = u * np.power(u, m - 1.0)
        flux = coef * (w[1:] - w[:-1])
        div = np.zeros_like(u)
        div[:-1] += flux
        div[1:] -= flux
        div[-1] -= outer * w[-1]
        div /= dV
        return u - u_prev - dt * div

    scale = max(1.0, float(u_prev.max()))
    damped = halved = 0
    for _ in range(40):
        u = u_prev.copy()
        rnorm, slow = math.inf, 0
        for _ in range(60):
            resid = residual(u, dt)
            rnorm, last = float(np.max(np.abs(resid))), rnorm
            slow = slow + 1 if rnorm > 0.75 * last else 0
            if rnorm <= 1e-10 * scale:
                w = u * np.power(u, m - 1.0)
                return (u, state.t + dt, state.outflow + dt * outer * w[-1],
                        damped, halved)
            if slow == 3:
                break
            dw = m * np.power(u, m - 1.0)
            ab = np.zeros((3, grid.cells))
            ab[0, 1:] = -dt * up[:-1] * dw[1:]
            ab[1] = 1.0 - dt * diag_lin * dw
            ab[2, :-1] = -dt * lo[1:] * dw[:-1]
            delta = scipy.linalg.solve_banded((1, 1), ab, -resid)
            lam = 1.0
            while lam > 1e-4:
                r_t = residual(np.maximum(u + lam * delta, 0.0), dt)
                if float(np.max(np.abs(r_t))) <= (1.0 - 0.25 * lam) * rnorm:
                    break
                lam *= 0.5
            damped += lam < 1.0
            u = np.maximum(u + lam * delta, 0.0)
        dt *= 0.5
        halved += 1
    raise AssertionError("the reference step did not converge")


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("boundary", ["absorbing", "zero_flux"])
@pytest.mark.parametrize("gap", [False, True])
def test_implicit_step_matches_reference(euclid3, m, boundary, gap):
    grid = pg.RadialGrid.make(euclid3, 2.0, 100)
    u = np.zeros(100)
    u[0] = 1e4      # a spike on zero data: a whole gap needs damping and halving
    u[-1] = 1e-6    # so that an absorbing boundary drains
    state = pg.RadialState(u=u, t=0.25)  # outflow 0: a tiny one still shows
    dt = 25.0 if gap else 1e-3
    u_ref, t_ref, out_ref, damped, halved = reference_implicit_step(
        grid, m, boundary, state, dt)
    assert (damped > 0 and halved > 0) == gap
    new = pg.Stepper(grid, m, boundary=boundary).step(state, dt=dt,
                                                      scheme="implicit")
    assert np.array_equal(new.u, u_ref)
    assert new.t == t_ref
    assert new.outflow == out_ref
    assert (new.outflow > state.outflow) == (boundary == "absorbing")
    assert np.array_equal(state.u, u)


def supported_state(grid, support):
    """Data on cells [0, j], positive there and falling towards j: j a
    quarter of the grid in ("mid"), three cells short of the last ("edge"),
    the last cell ("last"), the first ("spike", a tall one), or no cells
    ("zero")."""
    n = grid.cells
    u = np.zeros(n)
    if support == "spike":
        u[0] = 100.0
    elif support != "zero":
        j = {"mid": n // 4, "edge": n - 3, "last": n - 1}[support]
        u[:j + 1] = 0.5 + 0.5 * np.cos(np.linspace(0.0, 0.95 * np.pi, j + 1))
    return pg.RadialState(u=u, t=0.25, outflow=0.125)


SUPPORTS = ["mid", "edge", "last", "spike", "zero"]


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("boundary", ["absorbing", "zero_flux"])
@pytest.mark.parametrize("support", SUPPORTS)
def test_windowed_explicit_step_matches_reference(euclid3, m, boundary,
                                                  support):
    grid = pg.RadialGrid.make(euclid3, 4.0, 120)
    stepper = pg.Stepper(grid, m, boundary=boundary)
    state = supported_state(grid, support)
    dt = 1e-3 if support == "zero" else math.inf
    u_ref, t_ref, out_ref, _ = reference_explicit_step(
        grid, m, boundary, pg.solver.DEFAULT_CFL, state, dt)
    new = stepper.step(state, min(dt, stepper.stable_dt(state.u)), "explicit")
    assert np.array_equal(new.u, u_ref)
    assert new.t == t_ref
    assert new.outflow == out_ref


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("boundary", ["absorbing", "zero_flux"])
@pytest.mark.parametrize("support", SUPPORTS)
# at dt 25 Newton damps on the mid and spike data, and halves dt on both
# at m = 1.5
@pytest.mark.parametrize("dt", [1e-3, 25.0])
def test_windowed_implicit_step_matches_reference(euclid3, m, boundary,
                                                  support, dt):
    grid = pg.RadialGrid.make(euclid3, 2.0, 100)
    state = supported_state(grid, support)
    u_ref, t_ref, out_ref, _, _ = reference_implicit_step(
        grid, m, boundary, state, dt)
    new = pg.Stepper(grid, m, boundary=boundary).step(state, dt=dt,
                                                      scheme="implicit")
    assert np.array_equal(new.u, u_ref)
    assert new.t == t_ref
    assert new.outflow == out_ref


def test_implicit_step_work(euclid3, mass1_params):
    # one residual per line-search trial and none again for the accepted
    # iterate: at dt 1e-3 a step takes two undamped iterates, so 2 residuals
    # and 2 tridiagonal solves, and no halving; the first step also
    # evaluates L of its start state, which a continued step takes from the
    # last residual of the step before
    grid = pg.RadialGrid.make(euclid3, 12.0, 4000)
    stepper = pg.Stepper(grid, 2.0)
    state = pg.RadialState(u=grid.cell_average(
        pg.barenblatt_datum(mass1_params)), t=0.0)
    for step in range(1, 6):
        state = stepper.step(state, dt=1e-3, scheme="implicit")
        assert (stepper.residuals, stepper.newton_iterates,
                stepper.dt_halvings) == (1 + 2 * step, 2 * step, 0)
    rec = pg.run_pme(grid, 2.0, state.u, t_end=5e-3, scheme="implicit",
                     implicit_dt=1e-3)
    assert (rec.residuals, rec.newton_iterates, rec.dt_halvings) == (11, 10, 0)


@pytest.mark.parametrize("m, reached", [(1.5, 25.0 / 64), (2.0, 25.0 / 8),
                                        (3.0, 25.0)])
def test_implicit_spike_step_work(euclid3, m, reached):
    # one step asked for dt 25 from a 1e4 spike in the first of 100 cells of
    # [0, 10]: an attempt gives up once NEWTON_STALL iterates in a row leave
    # more than NEWTON_SLOW of the residual, not after NEWTON_MAX_ITER
    # iterates, so the step takes under 200 residuals; at m = 3 Newton
    # converges at the full dt
    grid = pg.RadialGrid.make(euclid3, 10.0, 100)
    u = np.zeros(100)
    u[0] = 1e4
    state = pg.RadialState(u=u, t=0.0)
    stepper = pg.Stepper(grid, m)
    new = stepper.step(state, dt=25.0, scheme="implicit")
    assert stepper.residuals < 200
    assert 2.0 ** -stepper.dt_halvings == reached / 25.0
    assert new.t == reached
    assert np.all(new.u >= 0.0)
    assert new.mass(grid) + new.outflow == pytest.approx(state.mass(grid),
                                                         rel=1e-13)


def test_implicit_step_reports_a_failed_solve(euclid3, monkeypatch):
    stepper = pg.Stepper(pg.RadialGrid.make(euclid3, 4.0, 120), 2.0)
    gtsv = pg.solver._GTSV
    monkeypatch.setattr(pg.solver, "_GTSV",
                        lambda *args, **kwargs: (*gtsv(*args, **kwargs)[:4], 7))
    with pytest.raises(np.linalg.LinAlgError, match="info 7"):
        stepper.step(smooth_state(stepper.grid), dt=1e-3, scheme="implicit")


def test_implicit_step_stops_on_a_nonfinite_residual(euclid3):
    # u^m overflows to inf, and inf - inf in the fluxes is NaN
    grid = pg.RadialGrid.make(euclid3, 5.0, 32)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(pg.solver.SolverError, match="not finite"):
        pg.run_pme(grid, 2.0, np.full(32, 1e200), t_end=0.1,
                   scheme="implicit", implicit_dt=0.01)


def spike_state():
    """A 1e4 spike in the first of 100 cells, and 1e-6 in the last so that
    an absorbing boundary drains."""
    u = np.zeros(100)
    u[0], u[-1] = 1e4, 1e-6
    return pg.RadialState(u=u, t=0.25, outflow=0.125)


def copied(state):
    return pg.RadialState(u=state.u.copy(), t=state.t, outflow=state.outflow)


def assert_same_state(a, b):
    assert np.array_equal(a.u, b.u)
    assert (a.t, a.outflow) == (b.t, b.outflow)


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("boundary", ["absorbing", "zero_flux"])
@pytest.mark.parametrize("support", ["spike", "mid"])
def test_continued_implicit_steps_match_steps_from_copies(euclid3, m,
                                                          boundary, support):
    # a step from the array the last step returned reuses L of it and the
    # carried dt; the same steps from copies, which defeat that identity
    # check, evaluate L afresh and are asked for the dt the continued step
    # tried. At dt 1e3 the first step halves dt at every m, and on the spike
    # at m = 3 the fourth halves again from the carried dt. A step on the
    # spike first leaves L values across the grid, so the mid data's window,
    # which widens, shows that L is 0 past the last step's window.
    grid = pg.RadialGrid.make(euclid3, 10.0, 100)
    stepper = pg.Stepper(grid, m, boundary=boundary)
    other = pg.Stepper(grid, m, boundary=boundary)
    for on in (stepper, other):
        on.step(spike_state(), dt=1e3, scheme="implicit")
    state = spike_state() if support == "spike" else supported_state(grid,
                                                                     "mid")
    steps = 5
    for _ in range(steps):
        new = stepper.step(state, dt=1e3, scheme="implicit")
        ref = other.step(copied(state), dt=stepper._dt_limit,
                         scheme="implicit")
        assert_same_state(new, ref)
        state = new
    assert stepper.dt_halvings == other.dt_halvings > 0
    assert stepper.newton_iterates == other.newton_iterates
    # every continued step takes L of its start state from the step before
    assert stepper.residuals == other.residuals - (steps - 1)


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("boundary", ["absorbing", "zero_flux"])
def test_mixed_steps_match_fresh_steppers(euclid3, m, boundary):
    # super-steps, implicit steps through a dt halving, super-steps and
    # implicit steps again, on one stepper: each phase matches the same
    # steps of a fresh stepper from a copy of the phase's start state, so L
    # reused across the two paths is the L a fresh stepper evaluates, and no
    # step resumes a span or dt carried before the other path's steps
    grid = pg.RadialGrid.make(euclid3, 10.0, 100)
    stepper = pg.Stepper(grid, m, boundary=boundary)
    state = spike_state()

    def take(on, state, scheme):
        if scheme == "explicit":
            return on.step(state, 1.0)
        return on.step(state, dt=1e3, scheme="implicit")

    for scheme in ("explicit", "implicit", "explicit", "implicit"):
        fresh, ref = pg.Stepper(grid, m, boundary=boundary), copied(state)
        for _ in range(3):
            state, ref = take(stepper, state, scheme), take(fresh, ref, scheme)
            assert_same_state(state, ref)
    assert stepper.dt_halvings > 0 and stepper.stages > 0


def test_failed_super_step_leaves_no_stale_l(euclid3, monkeypatch):
    # a super-step from the returned array takes L of it out of the shared
    # memory; when it then fails, the implicit step from that array
    # evaluates L afresh, as a fresh stepper does, and does not read the
    # buffer the failed step left behind
    grid = pg.RadialGrid.make(euclid3, 4.0, 120)
    stepper = pg.Stepper(grid, 2.0)
    state = stepper.step(supported_state(grid, "mid"), 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(stepper, "_rkl2", lambda *args: None)
        with pytest.raises(pg.solver.SolverError):
            stepper.step(state, 1.0)
    new = stepper.step(state, dt=1e-3, scheme="implicit")
    ref = pg.Stepper(grid, 2.0).step(copied(state), dt=1e-3, scheme="implicit")
    assert_same_state(new, ref)


def test_implicit_steps_on_zero_data(euclid3):
    # zero data have L = 0, so a step converges at its first check, and the
    # step after it, continuing from the zero array, evaluates nothing
    grid = pg.RadialGrid.make(euclid3, 10.0, 100)
    stepper = pg.Stepper(grid, 2.0)
    state = pg.RadialState(u=np.zeros(100), t=0.25, outflow=0.125)
    first = stepper.step(state, dt=1e-3, scheme="implicit")
    second = stepper.step(first, dt=1e-3, scheme="implicit")
    for new, t in ((first, 0.25 + 1e-3), (second, 0.25 + 1e-3 + 1e-3)):
        assert not new.u.any()
        assert (new.t, new.outflow) == (t, 0.125)
    assert (stepper.residuals, stepper.newton_iterates,
            stepper.dt_halvings) == (1, 0, 0)


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_implicit_dt_carries_past_a_halving(euclid3, m):
    # a run through a spike asks every step for min(25, gap): a step after
    # a halved one tries the dt that one reached, and a step after one that
    # did not halve tries twice the dt it tried, up to what it was asked
    grid = pg.RadialGrid.make(euclid3, 10.0, 100)
    u = np.zeros(100)
    u[0] = 1e4
    stepper = pg.Stepper(grid, m)
    state, reached, halved = pg.RadialState(u=u, t=0.0), math.inf, False
    while state.t < 100.0 - 1e-13:
        asked, before = min(25.0, 100.0 - state.t), stepper.dt_halvings
        state = stepper.step(state, dt=asked, scheme="implicit")
        tried = stepper._dt_limit
        assert tried == min(asked, reached if halved else 2.0 * reached)
        halved = stepper.dt_halvings > before
        reached = tried * 2.0 ** (before - stepper.dt_halvings)
    # the first step halves at m = 1.5 and 2; after it no step halves again
    rec = pg.run_pme(grid, m, u, t_end=100.0, scheme="implicit",
                     implicit_dt=25.0)
    assert rec.dt_halvings == {1.5: 6, 2.0: 3, 3.0: 0}[m]
    assert rec.mass_defect() <= 1e-11


# -- super-steps ---------------------------------------------------------------

def forward_euler_run(grid, m, u0, t_end):
    """The same run in single forward-Euler steps; the state and step count."""
    stepper = pg.Stepper(grid, m)
    state = pg.RadialState(u=u0.copy(), t=0.0)
    steps = 0
    while state.t < t_end - 1e-13:
        state = stepper.step(state, min(t_end - state.t,
                                        stepper.stable_dt(state.u)))
        steps += 1
    return state, steps


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_super_steps_match_forward_euler(euclid3, m):
    grid = pg.RadialGrid.make(euclid3, 2.0, 200)
    params = pg.BarenblattParams.from_mass(3, m, 1.0)
    u0 = grid.cell_average(pg.barenblatt_datum(params))
    rec = pg.run_pme(grid, m, u0, t_end=1.0)
    ref, fe_steps = forward_euler_run(grid, m, u0, 1.0)
    assert rec.steps * 50 < fe_steps
    assert np.max(np.abs(rec.states[-1] - ref.u)) <= 1e-4 * np.max(ref.u)
    assert rec.outflows[-1] == pytest.approx(ref.outflow, rel=1e-4, abs=1e-12)
    assert rec.mass_defect() <= 1e-12


def test_super_step_ledger_through_absorbing_boundary(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 2.0, 500)
    rec = pg.run_pme(grid, 2.0, pg.barenblatt_datum(mass1_params), t_end=3.0,
                     snapshots=[1.0, 2.0])
    assert rec.outflows[-1] > 0.05  # the front has left through r_max
    assert np.all(np.diff(rec.outflows) >= 0.0)
    assert rec.mass_defect() <= 1e-12


def test_super_step_positivity_guard(euclid3):
    # the front limit keeps the spike's stages nonnegative: at most 2 stage
    # sequences thrown away, where the full reach wasted 10
    grid = pg.RadialGrid.make(euclid3, 2.0, 100)
    u0 = np.zeros(100)
    u0[0] = 100.0
    rec = pg.run_pme(grid, 1.5, u0, t_end=0.5, snapshots=[0.01, 0.1])
    assert rec.rejections <= 2
    assert rec.stages > rec.steps
    for u in rec.states:
        assert np.all(np.isfinite(u)) and np.all(u >= 0.0)
    assert np.array_equal(rec.times, [0.0, 0.01, 0.1, 0.5])
    assert rec.mass_defect() <= 1e-12


def test_rkl2_rejects_a_negative_stage(euclid3):
    # 20 stages over the full reach from the spike overshoot below zero at
    # m = 1.5: the stage sequence is thrown away, as the reference's is
    grid = pg.RadialGrid.make(euclid3, 2.0, 100)
    stepper = pg.Stepper(grid, 1.5)
    u = np.zeros(100)
    u[0] = 100.0
    state = pg.RadialState(u=u, t=0.0)
    tau = 104.5 * stepper.stable_dt(u)
    k = 22  # a 20-stage super-step's window from cell 0
    w = u[:k] ** 1.5
    l0 = stepper._divergence(w).copy()
    window = pg.RadialState(u=u[:k], t=0.0)
    assert stepper._rkl2(window, tau, 20, l0, stepper._outer_coef * w[-1]) \
        is None
    # the stages evaluated before the negative one, not all 19
    assert 0 < stepper.stages < 19
    assert reference_stages(grid, 1.5, "absorbing", state, tau, 20) is None


def reference_operator(grid, boundary):
    """The flux form on the whole grid: interior face coefficients, the
    ghost face's, and the divergence of w = u^m."""
    coef = grid.face_areas[1:-1] / np.diff(grid.centers)
    outer = 0.0
    if boundary == "absorbing":
        outer = grid.face_areas[-1] / (grid.edges[-1] - grid.centers[-1])

    def divergence(w):
        flux = coef * (w[1:] - w[:-1])
        div = np.zeros_like(w)
        div[:-1] += flux
        div[1:] -= flux
        div[-1] -= outer * w[-1]
        return div / grid.cell_volumes

    return coef, outer, divergence


def reach(s):
    return (s * s + s - 2) / 4.0


CAP = pg.solver.RKL2_MAX_STAGES


def reference_span(grid, m, boundary, cfl, u, dt, carried=math.inf):
    """A super-step's (tau, dt_FE, dt_stab) on the whole grid. dt_FE is the
    explicit stable dt; dt_stab = 2/rho with rho the Gershgorin bound of the
    symmetrised linearised divergence, max_i(rates_i + f_(i-1) + f_i), f_i =
    m c_i / sqrt(dV_i dV_(i+1)) sqrt(u^(m-1)_i) sqrt(u^(m-1)_(i+1)); tau =
    min(dt, carried, reach(CAP) min(dt_FE, dt_stab)), and, when the last
    nonzero cell j is not the grid's last, at most max(dt_FE, 0.5 width_j /
    v) with v the largest m/(m-1) (u^(m-1)_i - u^(m-1)_(i+1))/gap_i over
    faces i <= j."""
    coef, outer, _ = reference_operator(grid, boundary)
    dV = grid.cell_volumes
    drain = np.zeros(grid.cells)
    drain[:-1] += coef
    drain[1:] += coef
    drain[-1] += outer
    um1 = np.power(u, m - 1.0)
    rates = m * um1 * (drain / dV)
    rate = float(np.max(rates))
    dt_fe = cfl / rate if rate > 0.0 else math.inf
    q = np.sqrt(um1)
    faces = q[:-1] * q[1:] * (m * coef / np.sqrt(dV[:-1] * dV[1:]))
    rows = rates.copy()
    rows[:-1] += faces
    rows[1:] += faces
    rho = float(np.max(rows))
    dt_stab = 2.0 / rho if rho > 0.0 else math.inf
    tau = min(dt, carried, reach(CAP) * min(dt_fe, dt_stab))
    nonzero = np.flatnonzero(u)
    if tau > dt_fe and nonzero[-1] < grid.cells - 1:
        j = nonzero[-1]
        inv_gaps = 1.0 / np.diff(grid.centers)
        speeds = (um1[:j + 1] - um1[1:j + 2]) * inv_gaps[:j + 1]
        v = m / (m - 1.0) * float(np.max(speeds))
        width = grid.edges[j + 1] - grid.edges[j]
        tau = min(tau, max(dt_fe, 0.5 * width / v))
    return tau, dt_fe, dt_stab


def reference_stages(grid, m, boundary, state, tau, s):
    """The s stages of a plain RKL2 super-step of span tau on the whole
    grid, kept as increments Y_j - u with the outflow carried through the
    same recurrence: the new u, t and outflow, or None when a stage or the
    result is negative."""
    _, outer, divergence = reference_operator(grid, boundary)
    u = state.u
    w0 = u * np.power(u, m - 1.0)
    l0, out0 = divergence(w0), outer * w0[-1]
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1))
                           for j in range(3, s + 1)]
    w1 = 1.0 / reach(s)
    d_prev, d = np.zeros_like(u), b[1] * w1 * tau * l0
    e_prev, e = 0.0, b[1] * w1 * tau * out0
    for j in range(2, s + 1):
        y = u + d
        if y.min() < 0.0:
            return None
        w = y * np.power(y, m - 1.0)
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        a_prev = 1.0 - b[j - 1]
        d_prev, d = d, mu * d + (mu * w1 * tau * (divergence(w) -
                                                  a_prev * l0) +
                                 nu * d_prev)
        e_prev, e = e, (mu * e + nu * e_prev + mu * w1 * tau *
                        (outer * w[-1] - a_prev * out0))
    u_new = u + d
    if u_new.min() < 0.0:
        return None
    return u_new, state.t + tau, state.outflow + e


def reference_estimate(grid, m, boundary, u, u_new, tau):
    """The embedded error estimate of the step u -> u_new of span tau: the
    sum of |12 (u - u_new) + 6 tau (L(u) + L(u_new))| dV / 15 over the
    cells up to its last nonzero term, over the mass of u on its support."""
    _, _, divergence = reference_operator(grid, boundary)
    dV = grid.cell_volumes
    terms = 12.0 * (u - u_new) + 6.0 * tau * (
        divergence(u * np.power(u, m - 1.0)) +
        divergence(u_new * np.power(u_new, m - 1.0)))
    k = np.flatnonzero(terms)[-1] + 1 if terms.any() else 0
    j = np.flatnonzero(u)[-1] + 1
    return float(np.sum(np.abs(terms[:k]) * dV[:k])) / 15.0 / float(
        np.sum(u[:j] * dV[:j]))


def reference_super_step(grid, m, boundary, cfl, state, dt,
                         carried=math.inf):
    """A plain RKL2 super-step on the whole grid: the span of
    reference_span, one forward-Euler step when tau is within dt_FE, else
    the fewest s >= 2 stages with reach(s) dt_stab >= tau (at most CAP),
    with tau halved while a stage or the result is negative, and cut by
    max(0.2, 0.8 (ERR_TOL/est)^(1/3)) while the estimate exceeds ERR_TOL.
    Returns the new u, t and outflow, the divergence evaluations (L(u), the
    stages, the estimates' L(u_new); meaningless after a halving), the
    halvings, the error rejections and the span carried to the next step:
    at least twice the forward-Euler span, or 0.8 (ERR_TOL/est)^(1/3) tau,
    at most twice tau or, when dt alone set tau, twice the carried span."""
    tau, dt_fe, dt_stab = reference_span(grid, m, boundary, cfl, state.u, dt,
                                         carried)
    if tau <= dt_fe:
        u_new, t_new, out_new, _ = reference_explicit_step(
            grid, m, boundary, cfl, state, tau)
        return u_new, t_new, out_new, 1, 0, 0, max(carried, 2.0 * tau)
    evaluations, halved, rejected = 1, 0, 0
    for _ in range(40):
        s = 2
        while reach(s) < tau / dt_stab and s < CAP:
            s += 1
        new = reference_stages(grid, m, boundary, state, tau, s)
        if new is None:
            tau *= 0.5
            halved += 1
            continue
        evaluations += s
        est = reference_estimate(grid, m, boundary, state.u, new[0], tau)
        grow = 0.8 * (pg.solver.ERR_TOL / est) ** (1.0 / 3.0) if est \
            else math.inf
        if est <= pg.solver.ERR_TOL:
            limit = 2.0 * (tau if tau < dt else max(tau, carried))
            return (*new, evaluations, halved, rejected,
                    min(grow * tau, limit))
        tau *= max(0.2, grow)
        rejected += 1
    raise AssertionError("the reference super-step kept failing")


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("boundary", ["absorbing", "zero_flux"])
@pytest.mark.parametrize("support", SUPPORTS)
@pytest.mark.parametrize("ratio", [0.5, 7.0, 1e6])  # tau / dt_FE asked for
def test_super_step_matches_reference(euclid3, m, boundary, support, ratio):
    grid = pg.RadialGrid.make(euclid3, 4.0, 120)
    stepper = pg.Stepper(grid, m, boundary=boundary)
    state = supported_state(grid, support)
    u_in = state.u.copy()
    dt_fe = 1e-3 if support == "zero" else stepper.stable_dt(state.u)
    u_ref, t_ref, out_ref, _, halved, rejected, _ = reference_super_step(
        grid, m, boundary, pg.solver.DEFAULT_CFL, state, ratio * dt_fe)
    new = stepper.step(state, ratio * dt_fe)
    assert np.array_equal(new.u, u_ref)
    assert new.t == t_ref
    assert new.outflow == out_ref
    assert (stepper.rejections, stepper.error_rejections) == (halved, rejected)
    assert np.array_equal(state.u, u_in)


def test_super_step_reference_halves_a_spike(euclid3):
    # a spike on a floor that fills the grid escapes the front limit, and
    # its stages turn negative at m = 1.5: the stepper halves tau as the
    # reference does
    grid = pg.RadialGrid.make(euclid3, 4.0, 120)
    u = np.full(120, 1e-6)
    u[0] = 100.0
    state = pg.RadialState(u=u, t=0.25, outflow=0.125)
    stepper = pg.Stepper(grid, 1.5)
    dt = 1e6 * stepper.stable_dt(u)
    u_ref, t_ref, out_ref, _, halved, rejected, _ = reference_super_step(
        grid, 1.5, "absorbing", pg.solver.DEFAULT_CFL, state, dt)
    assert halved > 0
    new = stepper.step(state, dt)
    assert np.array_equal(new.u, u_ref)
    assert (new.t, new.outflow) == (t_ref, out_ref)
    assert (stepper.rejections, stepper.error_rejections) == (halved, rejected)


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_support_grows_one_cell_per_evaluation(euclid3, m):
    # the premise of the stepper's window, checked on the full-grid
    # references: an s-stage super-step from data on cells [0, j] reaches
    # cell j + s and no further, an implicit step no further than
    # j + NEWTON_MAX_ITER + 1
    grid = pg.RadialGrid.make(euclid3, 4.0, 200)
    state = supported_state(grid, "mid")
    j = int(np.flatnonzero(state.u)[-1])
    _, dt_fe, dt_stab = reference_span(grid, m, "absorbing",
                                       pg.solver.DEFAULT_CFL, state.u, 1.0)
    u, *_ = reference_explicit_step(grid, m, "absorbing",
                                    pg.solver.DEFAULT_CFL, state, dt_fe)
    assert u[j + 1] > 0.0 and np.all(u[j + 2:] == 0.0)
    # a span between the stable reaches of s - 1 and s stages
    for s in (3, 8, 20, CAP):
        tau = 0.5 * (reach(s - 1) + reach(s)) * dt_stab
        u, *_ = reference_stages(grid, m, "absorbing", state, tau, s)
        assert np.all(u[j + s + 1:] == 0.0)
        # the front values shrink by orders of magnitude per cell and
        # underflow to zero a few cells out at more stages
        assert s > 3 or u[j + s] > 0.0
    for dt in (1e-3, 1.0):
        u, *_ = reference_implicit_step(grid, m, "absorbing", state, dt)
        assert u[j + 1] > 0.0
        assert np.all(u[j + pg.solver.NEWTON_MAX_ITER + 2:] == 0.0)


# tau / dt_stab asked for: within dt_FE at cfl 0.4 (0.2) and at cfl 4
# (0.2, 0.5), at and just past the stable reaches of 1, 2, 5, 12 and 20
# stages, and far past the ceiling, which at cfl 0.4 is reach(CAP) dt_FE,
# about 164 dt_stab, and at cfl 4 reach(CAP) dt_stab
@pytest.mark.parametrize("ratio", [0.2, 0.5, 1.0, 1.01, 2.5, 2.51, 7.0, 38.5,
                                   38.51, 50.0, 100.0, 104.5, 1e6])
def test_super_step_stage_count(euclid3, ratio):
    # from fresh data the span asked for is tried first; past about dt_stab
    # the estimate throws it away and retries shorter, and each attempt
    # costs its s - 1 later stages and one estimate
    grid = pg.RadialGrid.make(euclid3, 4.0, 120)
    state = smooth_state(grid)
    for cfl in (0.4, 4.0):
        stepper = pg.Stepper(grid, 2.0, cfl=cfl)
        _, _, dt_stab = reference_span(grid, 2.0, "absorbing", cfl, state.u,
                                       math.inf)
        tau, dt_fe, _ = reference_span(grid, 2.0, "absorbing", cfl, state.u,
                                       ratio * dt_stab)
        assert (dt_stab > dt_fe) == (cfl == 0.4)
        assert tau == min(ratio * dt_stab, reach(CAP) * min(dt_fe, dt_stab))
        _, t_ref, _, evaluations, halved, rejected, _ = reference_super_step(
            grid, 2.0, "absorbing", cfl, state, ratio * dt_stab)
        new = stepper.step(state, ratio * dt_stab)
        if not rejected:
            # one evaluation for L(u); within one forward-Euler step, one
            # step, else the fewest s whose reach covers tau and an estimate
            assert evaluations == (1 if tau <= dt_fe else 1 + next(
                s for s in range(2, CAP + 1) if reach(s) >= tau / dt_stab))
        assert (rejected > 0) == (ratio >= 1.0 and tau > dt_fe)
        assert (stepper.stages, stepper.rejections,
                stepper.error_rejections) == (evaluations, halved, rejected)
        assert new.t == t_ref
        assert stepper._dt_limit == pytest.approx(tau, rel=1e-14)


BOUND_PROFILES = {
    "euclidean:3": pg.make_profile(form="euclidean", dimension=3),
    "power_log:4:3:0.5": pg.make_profile(form="power_log", dimension=4,
                                         params={"lam": 3.0, "sigma": 0.5}),
    "euclidean:5": pg.make_profile(form="euclidean", dimension=5),
}


@given(st.sampled_from(sorted(BOUND_PROFILES)),
       st.floats(1.0, 4.0, exclude_min=True),
       st.sampled_from(["absorbing", "zero_flux"]),
       st.sampled_from(["uniform", "geometric"]), st.integers(40, 160),
       st.sampled_from(["barenblatt", "bump", "rough"]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_stability_step_bounds_the_spectral_radius(profile, m, boundary,
                                                   spacing, cells, datum,
                                                   seed):
    # 2/dt_stab, the Gershgorin bound of the symmetrised linearised
    # divergence, is at least the spectral radius of the dense linearised
    # divergence dL/du for any nonnegative data, here lognormal values with
    # 30% zero cells. On the Barenblatt and 1 + exp(-r^2) data of
    # euclidean:3 and power_log:4:3:0.5 it is at most 1.1 times that
    # radius; on euclidean:5 the rows of the cells at the pole read up to
    # 1.108 times it.
    grid = pg.RadialGrid.make(BOUND_PROFILES[profile], 4.0, cells,
                              spacing=spacing)
    if datum == "rough":
        rng = np.random.default_rng(seed)
        u = rng.lognormal(0.0, 2.0, cells) * (rng.random(cells) >= 0.3)
    elif datum == "barenblatt":
        u = grid.cell_average(pg.barenblatt_datum(
            pg.BarenblattParams.from_mass(3, m, 1.0)))
    else:
        u = grid.cell_average(lambda r: 1.0 + np.exp(-r * r))
    stepper = pg.Stepper(grid, m, boundary=boundary)
    _, um1 = stepper._nonlinearity(u)
    rho = 2.0 / stepper._dt_bounds(um1)[1]
    _, _, divergence = reference_operator(grid, boundary)
    jacobian = np.column_stack([divergence(e) for e in np.eye(cells)]) * (
        m * np.power(u, m - 1.0))
    radius = float(np.max(np.abs(np.linalg.eigvals(jacobian))))
    assert rho >= (1.0 - 1e-12) * radius
    if datum != "rough" and profile != "euclidean:5":
        assert rho <= 1.1 * radius


# (cfl, stages asked for): spans at (1 - 1e-15) reach(stages) dt_stab, which
# at cfl 0.4 is within the ceiling reach(CAP) dt_FE and at cfl 4 is at it
# for CAP stages; odd and even counts. At the edge of the stability interval
# RKL2 damps the highest mode by 2/(s (s + 1)) for odd s and not at all for
# even s.
@pytest.mark.parametrize("cfl, stages", [(0.4, 13), (0.4, 12), (4.0, 20),
                                         (4.0, CAP - 1), (4.0, CAP)])
@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_super_steps_at_the_stable_reach_stay_stable(euclid3, m, cfl, stages):
    # data that fill the grid take spans at the stable reach of their stage
    # count by the Gershgorin bound, once the estimate lets them: 200 such
    # super-steps stay nonnegative, never raise the sup and grow no odd-even
    # oscillation, the data staying nonincreasing in r. On 120 cells the
    # estimate holds the spans below reach(CAP - 1) dt_stab, and at m = 1.5
    # below reach(20) dt_stab in 106 of the 200 super-steps; 400 cells
    # shrink dt_stab 11-fold and let them reach 20 stages and the ceiling.
    grid = pg.RadialGrid.make(euclid3, 4.0, 120 if stages < 20 else 400)
    stepper = pg.Stepper(grid, m, cfl=cfl)
    state = pg.RadialState(u=grid.cell_average(lambda r: 1.0 + np.exp(-r * r)),
                           t=0.0)
    sup0 = sup = float(state.u.max())
    at_reach = 0
    for _ in range(200):
        _, _, dt_stab = reference_span(grid, m, "absorbing", cfl, state.u,
                                       math.inf)
        before = stepper.stages
        state = stepper.step(state, (1.0 - 1e-15) * reach(stages) * dt_stab)
        assert np.all(state.u >= 0.0)
        assert float(state.u.max()) <= sup + 1e-14 * sup0
        assert np.all(np.diff(state.u) <= 1e-14 * sup0)
        sup = float(state.u.max())
        # s - 1 later stages and the estimate, L(u) being the last one's
        at_reach += stepper.stages - before == stages
    assert stepper.rejections == 0
    assert at_reach >= 100


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("boundary", ["absorbing", "zero_flux"])
@pytest.mark.parametrize("datum", ["mid", "last", "near_flat"])
def test_super_step_run_matches_reference(euclid3, m, boundary, datum):
    # a run carries the span the estimate proposes and reuses L(u_new) as
    # the next step's L(u): 40 super-steps match the full-grid reference fed
    # the carried span, with a short dt now and then, as a snapshot clips it
    # (at 0.5 dt_FE a forward-Euler step); on the near-flat datum the
    # estimate is small, so the 2x growth limit sets the carried span
    grid = pg.RadialGrid.make(euclid3, 4.0, 120)
    stepper = pg.Stepper(grid, m, boundary=boundary)
    if datum == "near_flat":
        state = ref = pg.RadialState(u=grid.cell_average(
            lambda r: 1.0 + 0.01 * np.exp(-r * r)), t=0.0)
    else:
        state = ref = supported_state(grid, datum)
    dt_fe = stepper.stable_dt(state.u)
    carried, evaluations, reused, explicit = math.inf, 0, 0, True
    for i in range(40):
        dt = {3: 0.5 * dt_fe, 4: 3.0 * dt_fe}.get(i % 10, 1e6 * dt_fe)
        *new, count, _, _, carried = reference_super_step(
            grid, m, boundary, pg.solver.DEFAULT_CFL, ref, dt, carried)
        ref = pg.RadialState(*new)
        # L(u) is evaluated afresh only after a forward-Euler step
        reused += count > 1 and not explicit
        evaluations += count
        explicit = count == 1
        state = stepper.step(state, dt)
        assert np.array_equal(state.u, ref.u)
        assert (state.t, state.outflow) == (ref.t, ref.outflow)
        assert stepper._carry == carried
    assert stepper.stages == evaluations - reused
    assert 0 < reused < 40 and stepper.rejections == 0
    assert stepper.error_rejections > 0 or datum == "near_flat"


def test_super_step_front_error(euclid3, mass1_params):
    # on a coarse grid the front carries the time error: 400 cells of
    # [0, 12] at t = 1 against forward Euler at cfl 0.05, the super-steps
    # are no farther off than forward Euler at cfl 0.4 is (7.24e-5 of the
    # sup; the super-steps are 2.7e-5 off). A span bounded by a stage
    # ceiling and no estimate leaves them 1.9e-4 to 2.7e-4 off.
    grid = pg.RadialGrid.make(euclid3, 12.0, 400)
    u0 = grid.cell_average(pg.barenblatt_datum(mass1_params))

    def forward_euler(cfl):
        stepper = pg.Stepper(grid, 2.0, cfl=cfl)
        state = pg.RadialState(u=u0.copy(), t=0.0)
        while state.t < 1.0 - 1e-13:
            state = stepper.step(state, min(1.0 - state.t,
                                            stepper.stable_dt(state.u)))
        return state.u

    fine = forward_euler(0.05)
    sup = float(fine.max())
    coarse = float(np.max(np.abs(forward_euler(0.4) - fine))) / sup
    rec = pg.run_pme(grid, 2.0, u0, t_end=1.0)
    error = float(np.max(np.abs(rec.states[-1] - fine))) / sup
    assert coarse == pytest.approx(7.24e-5, rel=1e-2)
    assert error <= coarse


@pytest.mark.parametrize("n_snapshots", [1, 25])
def test_optimality_run_stays_monotone_at_the_pole(euclid3, mass1_params,
                                                   n_snapshots):
    # the optimality run (2000 cells of [0, 20], m = 2, t = 10, with its
    # snapshots or none) takes spans at up to CAP stages: no odd-even
    # oscillation grows at the pole, where it would show first, so cells
    # 0-7 stay nonincreasing, and the sup stays within 3.4e-5 of the
    # self-similar one
    grid = pg.RadialGrid.make(euclid3, 20.0, 2000)
    times = np.geomspace(1.0, 11.0, n_snapshots) - 1.0
    rec = pg.run_pme(grid, 2.0, pg.barenblatt_datum(mass1_params),
                     t_end=10.0, snapshots=times)
    assert rec.times[-1] == 10.0
    for t, u in zip(rec.times, rec.states):
        assert np.all(np.diff(u[:8]) <= 0.0)
        exact = mass1_params.sup_value(t + mass1_params.eps)
        assert abs(float(u.max()) - exact) <= 3.4e-5 * exact


def test_super_step_front_advance(euclid3, mass1_params):
    # from the discrete self-similar datum, no super-step spans more time
    # than the exact front needs to cross one cell: the Darcy speed of the
    # start state caps the span at half a cell's travel. The full reach of
    # 20 stages spanned 1.04 cells' travel in the first super-step.
    grid = pg.RadialGrid.make(euclid3, 10.0, 150)
    stepper = pg.Stepper(grid, 2.0)
    state = pg.RadialState(u=grid.cell_average(
        pg.barenblatt_datum(mass1_params)), t=0.0)
    while state.t < 1.0:
        new = stepper.step(state, 1.0 - state.t)
        travel = (mass1_params.support_radius(1.0 + new.t) -
                  mass1_params.support_radius(1.0 + state.t))
        assert travel <= 0.6 * grid.edges[1]
        state = new


# -- a-priori estimate checks -------------------------------------------------

def test_estimates_on_solver_run(short_run):
    _, rec = short_run
    rep = pg.verify_solution_estimates(rec)
    assert rep.passed
    assert rep.max_violation <= 0.02
    names = set(rep.checks)
    assert {"green_mass_monotone", "center_two_sided", "lp_nonexpansive",
            "center_scaled_monotone"} <= names


def test_estimates_on_exact_snapshots(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 12.0, 400)
    rec = exact_record(euclid3, mass1_params, grid,
                       [0.5, 1.0, 1.5, 2.0])
    rep = pg.verify_solution_estimates(rec, triple=(1.0, 2.0, 2.0))
    assert rep.checks["center_two_sided"].value == 0.0
    # strict inequalities in the sandwich, not mere nonnegativity
    two = rep.details["center_two_sided"]
    assert two["lhs"] < two["mid"] < two["rhs"]
    assert rep.passed


def test_estimates_pair_checks(euclid3):
    small = pg.BarenblattParams.from_mass(3, 2.0, 1.0)
    large = pg.BarenblattParams.from_mass(3, 2.0, 1.5)
    grid = pg.RadialGrid.make(euclid3, 12.0, 300)
    times = [0.5, 1.0]
    rec_small = exact_record(euclid3, small, grid, times)
    rec_large = exact_record(euclid3, large, grid, times)
    rep = pg.verify_solution_estimates(rec_small, pair=rec_large)
    assert rep.checks["l1_contraction"].value <= 1e-12
    assert rep.checks["comparison"].value <= 1e-12
    # misordered data is rejected rather than silently failed
    with pytest.raises(ValueError):
        pg.verify_solution_estimates(rec_large, pair=rec_small)


def test_estimates_pair_on_another_grid_rejected(euclid3):
    # the same cell count on another r_max covers other cells
    params = pg.BarenblattParams.from_mass(3, 2.0, 1.0)
    times = [0.5, 1.0]
    rec = exact_record(euclid3, params, pg.RadialGrid.make(euclid3, 12.0, 300),
                       times)
    pair = exact_record(euclid3, params, pg.RadialGrid.make(euclid3, 6.0, 300),
                        times)
    with pytest.raises(ValueError, match="share the grid"):
        pg.verify_solution_estimates(rec, pair=pair)
    # an equal grid built separately is accepted
    same = exact_record(euclid3, params, pg.RadialGrid.make(euclid3, 12.0, 300),
                        times)
    rep = pg.verify_solution_estimates(rec, pair=same)
    assert rep.checks["l1_contraction"].value == 0.0


def test_estimates_pair_at_other_times_rejected(euclid3):
    # states paired by position must be states at the same times
    params = pg.BarenblattParams.from_mass(3, 2.0, 1.0)
    grid = pg.RadialGrid.make(euclid3, 12.0, 300)
    rec = exact_record(euclid3, params, grid, [0.0, 0.5, 1.0, 2.0])
    pair = exact_record(euclid3, params, grid, [0.0, 4.0, 8.0])
    with pytest.raises(ValueError, match="snapshot times"):
        pg.verify_solution_estimates(rec, pair=pair)


def test_estimates_skip_triple_when_underresolved(euclid3,
                                                  mass1_params):
    grid = pg.RadialGrid.make(euclid3, 12.0, 200)
    rec = exact_record(euclid3, mass1_params, grid, [0.25, 0.5])
    rep = pg.verify_solution_estimates(rec)
    assert "center_two_sided" not in rep.checks
    assert rep.passed
    single = exact_record(euclid3, mass1_params, grid, [0.5])
    with pytest.raises(ValueError):
        pg.verify_solution_estimates(single)


def test_estimates_bad_triple_rejected(short_run):
    _, rec = short_run
    with pytest.raises(ValueError):
        pg.verify_solution_estimates(rec, triple=(0.75, 0.5, 1.0))


def test_estimates_fail_on_a_nan_snapshot(euclid3, mass1_params):
    # a nan in a later snapshot fails every clamped violation it reaches,
    # where max(0.0, nan) reads 0.0 and passes
    grid = pg.RadialGrid.make(euclid3, 12.0, 200)
    rec = pg.run_pme(grid, 2.0, pg.barenblatt_datum(mass1_params), t_end=1.0,
                     snapshots=[0.25, 0.5, 0.75, 1.0])
    assert pg.verify_solution_estimates(rec).passed
    rec.states[2][0] = np.nan
    rep = pg.verify_solution_estimates(rec)
    assert not rep.passed and math.isnan(rep.max_violation)
    failed = {name for name, chk in rep.checks.items() if not chk.passed}
    assert failed == {"green_mass_monotone", "lp_nonexpansive",
                      "center_scaled_monotone"}


# -- test functions for the dual identity -------------------------------------

def test_time_bump_support_and_derivative():
    phi, dphi = pg.time_bump((1.0, 3.0))
    assert phi(0.99) == 0.0 and phi(3.01) == 0.0
    assert phi(2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert dphi(1.0) == 0.0 and dphi(3.0) == 0.0
    h = 1e-6
    for t in (1.4, 2.0, 2.7):
        fd = (float(phi(t + h)) - float(phi(t - h))) / (2.0 * h)
        assert float(dphi(t)) == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_radial_cutoff_shape():
    eta = pg.radial_cutoff(2.0, 4.0)
    assert float(eta(0.0)) == 1.0 and float(eta(2.0)) == 1.0
    assert float(eta(4.0)) == 0.0 and float(eta(5.0)) == 0.0
    assert float(eta(3.0)) == pytest.approx(0.5, rel=1e-14)
    rs = np.linspace(0.0, 5.0, 200)
    assert np.all(np.diff(np.asarray(eta(rs))) <= 1e-15)
    with pytest.raises(ValueError):
        pg.radial_cutoff(4.0, 2.0)


# -- dual identity residual ----------------------------------------------------

def test_weak_dual_zero_data(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 8.0, 100)
    times = np.linspace(0.5, 1.5, 5)
    states = [np.zeros(100) for _ in times]
    rec = pg.RunRecord(grid=grid, m=2.0, boundary="absorbing",
                       scheme="exact", times=times, states=states,
                       outflows=np.zeros(times.size), mass_initial=0.0,
                       steps=0, wall_time=0.0)
    rep = pg.weak_dual_residual(rec, (0.5, 1.5))
    assert rep.residual == 0.0 and rep.scale == 0.0


def test_weak_dual_on_exact_solution(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 12.0, 400)
    window = (0.5, 1.5)
    residuals = []
    for nodes in (17, 33, 65):
        rec = exact_record(euclid3, mass1_params, grid,
                           np.linspace(window[0], window[1], nodes))
        rep = pg.weak_dual_residual(rec, window)
        residuals.append(abs(rep.residual))
        assert rep.nodes == nodes
    # pure time-quadrature error: fourth-order collapse as nodes double
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] <= 1e-5


def test_weak_dual_snapshot_validation(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 8.0, 100)
    rec = exact_record(euclid3, mass1_params, grid, [0.5, 0.9, 1.5])
    with pytest.raises(ValueError):
        pg.weak_dual_residual(rec, (0.5, 1.5))
    rec2 = exact_record(euclid3, mass1_params, grid, [0.5, 1.5])
    with pytest.raises(ValueError):
        pg.weak_dual_residual(rec2, (0.5, 1.5))


def test_weak_dual_refinement_order(euclid3, mass1_params):
    study = pg.weak_dual_refinement(
        euclid3, 2.0, pg.barenblatt_datum(mass1_params),
        levels=[(250, 8), (500, 16)], r_max=12.0, window=(0.5, 1.5))
    assert len(study.residuals) == 2
    assert study.orders[0] >= 1.0
    with pytest.raises(ValueError):
        pg.weak_dual_refinement(
            euclid3, 2.0, pg.barenblatt_datum(mass1_params),
            levels=[(100, 7)], r_max=12.0, window=(0.5, 1.5))


# -- decay-rate study ----------------------------------------------------------

def test_optimality_harness_tracks_exact_rate():
    rep = pg.optimality_harness(3, 2.0, mass=1.0, cells=500, r_max=20.0,
                                t_end=10.0, fit_window=(1.0, 11.0))
    assert rep.expected_slope == pytest.approx(-0.6)
    assert abs(rep.slope - rep.expected_slope) <= 0.05
    assert rep.band_ratio <= 1.3
    assert rep.l1_error_final <= 1e-2
    assert rep.mass_defect <= 1e-10
    # the certified bound dominates the observed sup norm at every snapshot
    assert np.all(rep.bound_values >= rep.sup_values)
    assert set(rep.bound_regimes) == {"small-time", "large-time"}
