"""Mass-conservative radial finite-volume solver for u_t = Lap(u^m), m > 1.

Flux form on a pole-anchored grid: cell volumes come from exact differences of
the profile volume, faces carry the sphere area, and the flux is the plain
difference quotient of u^m between neighbouring cell averages. Every step
goes through Stepper.step(state, dt, scheme). An explicit step is a
Runge-Kutta-Legendre (RKL2) super-step (Meyer, Balsara & Aslam, J. Comput.
Phys. 257, 2014), or one forward-Euler step when its span is within the
positivity-safe dt. A super-step's span is set by an embedded local error
estimate (that of RKC: Sommeijer, Shampine & Verwer, J. Comput. Appl. Math.
88, 1998) in the L1 norm, under a ceiling that ties it to the grid and a
front-advance limit; its stage count by the forward-Euler stability step
2/rho, with rho the Gershgorin bound of the symmetrised linearised
divergence, a bound on its spectral radius. The implicit path is backward
Euler with a damped Newton iteration on the tridiagonal system, which
halves dt once it stalls; the next step starts from the dt it reached and
grows at most 2x per step.
Both paths share one memory, the array the last step returned and L of it,
so a step continuing a run evaluates no divergence at its start state.

Data with compact support keep it, and the discrete front moves at most one
cell per divergence evaluation, so a step computes only on the window of
cells [0, k) that can turn nonzero during it: the last nonzero cell j plus
s + 2 for an s-stage super-step, plus NEWTON_MAX_ITER + 3 for an implicit
step, capped at the grid. The divergence is tridiagonal, so one evaluation
widens the support by at most one cell; past the support a Newton matrix row
is an identity row with zero right-hand side, so LAPACK returns an exactly
zero correction there and each iterate also widens it by at most one cell. The
window's last cell stays zero, so its one-sided flux and the outflow
through it equal the full grid's bit for bit.
"""
from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (VolumeProfile, make_growth, make_profile,
                       unit_sphere_area)
from .green import CellPotential
from .numerics import (Check, gauss_panels, loglog_slope, nonneg_max,
                       simpson_weights)
from .smoothing import SmoothingBound, decay_exponent

DEFAULT_CFL = 0.4
NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-10
# an iterate that leaves more than NEWTON_SLOW of the residual is slow, and
# NEWTON_STALL slow iterates in a row give up the attempt, so dt halves
NEWTON_SLOW = 0.75
NEWTON_STALL = 3
POSITIVITY_RETRY_LIMIT = 40
RKL2_MAX_STAGES = 40
# the local error a super-step may make: the embedded estimate in the L1 norm
# weighted by cell volume, relative to the mass of the start state
ERR_TOL = 1e-5
# a super-step moves the front by at most this fraction of the width of the
# last nonzero cell, at the Darcy speed of the start state
FRONT_CELLS = 0.5


@functools.lru_cache(maxsize=1)
def _lapack_gtsv():
    # the one scipy import of the package: explicit runs never pay for it
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs("gtsv", dtype=np.float64)


def _GTSV(*args):
    """LAPACK ?gtsv, the tridiagonal solver scipy's solve_banded calls for
    l = u = 1, fetched from scipy.linalg on the first implicit solve."""
    return _lapack_gtsv()(*args)


def _half_integer_beta(a: float, b: float) -> float:
    """B(a, b) for a in {1/2, 1, 3/2, ...} and b > 0.

    B(a, b) = B(a - 1, b) (a - 1)/(a + b - 1) down to B(1, b) = 1/b or
    B(1/2, b) = sqrt(pi) Gamma(b)/Gamma(b + 1/2). Past b + 1/2 = 171, where
    Gamma overflows, that ratio is exp(D)/sqrt(b) with D = lgamma(b) -
    lgamma(b + 1/2) + log(b)/2 = 1/2 - b log1p(1/(2b)) + the difference of
    Stirling's 1/(12x) - 1/(360x^3) + 1/(1260x^5) at x = b and b + 1/2: D is
    O(1/b), so no term of size log b is exponentiated and nothing cancels.
    """
    if a == math.floor(a):
        x, value = 1.0, 1.0 / b
    else:
        x = 0.5
        if b + 0.5 < 171.0:
            ratio = math.gamma(b) / math.gamma(b + 0.5)
        else:
            def stirling(y):
                inv2 = 1.0 / (y * y)
                return (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0)) / y
            d = 0.5 - b * math.log1p(0.5 / b) + (stirling(b) - stirling(b + 0.5))
            ratio = math.exp(d) / math.sqrt(b)
        value = math.sqrt(math.pi) * ratio
    while x < a:
        x += 1.0
        value *= (x - 1.0) / (x + b - 1.0)
    return value


def _rkl2_reach(s: int) -> float:
    """Forward-Euler stability steps 2/rho that one s-stage RKL2 super-step
    may span."""
    return (s * s + s - 2) / 4.0


_RKL2_REACHES = tuple(_rkl2_reach(s) for s in range(2, RKL2_MAX_STAGES))


def _rkl2_stages(ratio: float) -> int:
    """Smallest s >= 2 whose super-step spans `ratio` stability steps, at
    most RKL2_MAX_STAGES."""
    return 2 + bisect.bisect_left(_RKL2_REACHES, ratio)


@functools.lru_cache(maxsize=RKL2_MAX_STAGES)
def _rkl2_coefficients(s: int) -> tuple:
    """(mu~_1, the rows (-a_(j-1), mu~_j, nu_j, mu_j) for j = 2..s as float
    tuples, the same rows as an array) of s-stage RKL2.

    With b_0 = b_1 = b_2 = 1/3, b_j = (j^2 + j - 2) / (2 j (j + 1)), a_j =
    1 - b_j and w_1 = 4 / (s^2 + s - 2): mu~_1 = b_1 w_1, mu_j = (2j - 1)/j
    b_j/b_(j-1), nu_j = -(j - 1)/j b_j/b_(j-2), mu~_j = mu_j w_1, and the
    L(u) weight gamma~_j = -a_(j-1) mu~_j.
    """
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1))
                           for j in range(3, s + 1)]
    w1 = 1.0 / _rkl2_reach(s)
    rows = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        rows.append((-(1.0 - b[j - 1]), mu * w1, nu, mu))
    return b[1] * w1, tuple(rows), np.array(rows)


def _last_nonzero(u: np.ndarray) -> int:
    """Index of the last nonzero cell of u; -1 for zero data."""
    if u[-1] != 0.0:  # data that reach the last cell skip the scan
        return u.size - 1
    nonzero = u != 0.0
    last = u.size - 1 - int(nonzero[::-1].argmax())
    return last if nonzero[last] else -1


class SolverError(RuntimeError):
    """Stepping failed: nonconvergent Newton iteration or CFL collapse."""


@dataclass(eq=False)
class RadialGrid:
    """Finite-volume grid anchored at the pole of a radial profile."""

    profile: VolumeProfile
    edges: np.ndarray
    centers: np.ndarray
    cell_volumes: np.ndarray
    face_areas: np.ndarray

    @classmethod
    def make(cls, profile: VolumeProfile, r_max: float, cells: int,
             spacing: str = "uniform", stretch: float = 1.02) -> "RadialGrid":
        if cells < 4:
            raise ValueError("need at least 4 cells")
        if spacing == "uniform":
            edges = np.linspace(0.0, r_max, cells + 1)
        elif spacing == "geometric":
            if stretch <= 1.0:
                raise ValueError("geometric spacing needs stretch > 1")
            widths = stretch ** np.arange(cells)
            edges = np.concatenate([[0.0], np.cumsum(widths)])
            edges *= r_max / edges[-1]
        else:
            raise ValueError(f"unknown spacing {spacing!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            vols = np.asarray(profile.volume(edges), dtype=float)
            vols[0] = 0.0
            dV = np.diff(vols)
            areas = np.empty(cells + 1)
            areas[0] = 0.0  # the pole face carries no flux
            areas[1:] = np.asarray(profile.area(edges[1:]), dtype=float)
        # NaN fails both comparisons, so test for the good values
        if not (np.all(np.isfinite(dV) & (dV > 0.0)) and
                np.all(np.isfinite(areas[1:]) & (areas[1:] > 0.0))):
            raise ValueError("grid produced cell volumes or face areas that "
                             "are not finite and positive")
        centers = 0.5 * (edges[1:] + edges[:-1])
        return cls(profile=profile, edges=edges, centers=centers,
                   cell_volumes=dV, face_areas=areas)

    @property
    def cells(self) -> int:
        return self.centers.size

    def cell_weights(self, weight: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Per-cell integrals of weight(r) S(r) dr."""
        return gauss_panels(
            lambda r: np.asarray(weight(r), dtype=float) *
            np.asarray(self.profile.area(r), dtype=float), self.edges)

    def cell_average(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return self.cell_weights(fn) / self.cell_volumes


@dataclass
class RadialState:
    u: np.ndarray
    t: float
    outflow: float = 0.0

    def mass(self, grid: RadialGrid) -> float:
        return float(np.sum(self.u * grid.cell_volumes))


class Stepper:
    """Single-step evolution operator bound to a grid, exponent and boundary.

    `step(state, dt, scheme)` is the one way to advance a state, by a
    backward-Euler step ("implicit") or an RKL2 super-step ("explicit"),
    which is one forward-Euler step when its span is within the
    positivity-safe dt: step(state, min(dt, stable_dt(state.u))) is one.
    Steps work in scratch buffers owned by the stepper, which make one
    stepper unsafe to share between threads. Stages and Newton iterates
    compute on the support window [0, k) only (see the module docstring);
    the returned state is a fresh full-length array, zero past k, so
    returned states never share memory with the stepper or with each other.
    A step from the array the last step returned continues that run: it
    reuses L of that array, the last divergence that step evaluated, and
    takes the span (super-step) or dt (implicit step) the controller carried
    if the last step was of its kind, so that array must not be changed in
    place in between. `stages` counts the divergence evaluations of explicit
    stages and error estimates, `rejections` the stage sequences a
    super-step threw away on a negative stage and `error_rejections` those
    it threw away on its error estimate; `newton_iterates`, `residuals` and
    `dt_halvings` count the Newton iterates (tridiagonal solves), residual
    evaluations and dt halvings of implicit steps; all since construction.
    """

    def __init__(self, grid: RadialGrid, m: float, boundary: str = "absorbing",
                 cfl: float = DEFAULT_CFL):
        if m <= 1.0:
            raise ValueError("the porous medium exponent must satisfy m > 1")
        if boundary not in ("absorbing", "zero_flux"):
            raise ValueError(f"unknown boundary {boundary!r}")
        self.grid, self.m, self.cfl = grid, float(m), float(cfl)
        self.boundary = boundary
        n, gaps, dV = grid.cells, np.diff(grid.centers), grid.cell_volumes
        self._flux_coef = grid.face_areas[1:-1] / gaps          # interior faces
        self._outer_coef = 0.0
        if boundary == "absorbing":
            ghost_gap = grid.edges[-1] - grid.centers[-1]
            self._outer_coef = grid.face_areas[-1] / ghost_gap
        # per-cell worst-case drain coefficient, for the positivity time step
        drain = np.zeros(n)
        drain[:-1] += self._flux_coef
        drain[1:] += self._flux_coef
        drain[-1] += self._outer_coef
        self._drain = drain / dV
        self._dV = dV
        # the divergence operator's bands, for the implicit Newton matrix
        self._lo, self._up = np.zeros(n), np.zeros(n)
        self._lo[1:] = self._flux_coef / dV[1:]
        self._up[:-1] = self._flux_coef / dV[:-1]
        self._diag_lin = -(self._lo + self._up)
        self._diag_lin[-1] -= self._outer_coef / dV[-1]
        # m g with g = sqrt(up[i] lo[i+1]): the symmetrised bands' face factor
        self._coupling = self.m * self._flux_coef / np.sqrt(dV[:-1] * dV[1:])
        # the front-advance limit's Darcy speeds and cell widths
        self._inv_gaps = 1.0 / gaps
        self._widths = np.diff(grid.edges)
        # the Newton matrix's sub-, main and super-diagonal; LAPACK overwrites
        self._dl, self._d, self._du = (np.empty(n - 1), np.empty(n),
                                       np.empty(n - 1))
        # scratch: u^(m-1), u^m, divergence, dt rates; the fluxes through
        # faces 0..n, of which the pole's stays 0
        self._um1, self._w, self._div, self._rates = (
            np.empty(n) for _ in range(4))
        self._flux = np.zeros(n + 1)
        # super-step scratch: L(u), L(u_new), two stage increments Y - u, a
        # stage, a sum; the last two also hold the span's Gershgorin rows and
        # speeds and the error estimate's terms
        self._l0, self._l1, self._d1, self._d2, self._y, self._sum = (
            np.empty(n) for _ in range(6))
        self._window_k, self._window_fns = -1, ()
        # a stage sequence's table rows (-a_(j-1), mu~_j tau, nu_j, mu_j),
        # and 0-d views of them: ufuncs take those far faster than floats
        self._coef = np.empty((RKL2_MAX_STAGES, 4))
        self._coef_views = [tuple(self._coef[j, c, ...] for c in range(4))
                            for j in range(RKL2_MAX_STAGES)]
        self._dt_limit = math.nan  # dt of the last step before any halving
        # the controllers' memory, shared by both paths: the u array the last
        # step returned, the window [0, _l1_k) on which _l1 holds L of it (0:
        # not held), and the span or implicit dt a continued step may take
        self._returned, self._l1_k = None, 0
        self._carry = self._dt_carry = math.inf
        self._bands_key, self._bands = None, ()  # -dt up, dt diag, -dt lo
        self.stages = self.rejections = self.error_rejections = 0
        self.newton_iterates = self.residuals = self.dt_halvings = 0

    def _window(self, k: int) -> tuple:
        """(nonlinearity, divergence) of the window [0, k): u -> (u^m,
        u^(m-1)), u^(m-1) being u itself at m = 2, and w = u^m -> the cell
        divergence of its flux, the outer face's flux going to the last cell
        and the pole face's staying 0. Both write into scratch views cut once
        per window and are rebuilt only when k changes, so every stage and
        Newton iterate on one window reuses them."""
        if k != self._window_k:
            w_out, um1_out, div, dV = (self._w[:k], self._um1[:k],
                                       self._div[:k], self._dV[:k])
            flux, coef = self._flux[:k + 1], self._flux_coef[:k - 1]
            inner, upper, lower = flux[1:-1], flux[1:], flux[:-1]
            outer, m = -self._outer_coef, self.m
            exponent = np.array(m - 1.0)  # a 0-d array, as in _rkl2
            multiply, subtract = np.multiply, np.subtract

            def nonlinearity(u):
                if m == 2.0:
                    return multiply(u, u, w_out), u
                return multiply(u, np.power(u, exponent, um1_out),
                                w_out), um1_out

            def divergence(w):
                subtract(w[1:], w[:-1], inner)
                multiply(inner, coef, inner)
                flux[-1] = outer * w.item(-1)
                subtract(upper, lower, div)
                return np.true_divide(div, dV, div)

            self._window_k, self._window_fns = k, (nonlinearity, divergence)
        return self._window_fns

    def _nonlinearity(self, u: np.ndarray):
        """(u^m, u^(m-1)) of the window u, in scratch buffers; see _window."""
        return self._window(u.size)[0](u)

    def _dt_bounds(self, um1: np.ndarray) -> tuple:
        """(dt_FE, dt_stab) at the window um1 = u^(m-1)[:k]; both are the
        full grid's, since u^(m-1) is zero past the window or the last cell
        has no upper face.

        dt_FE = cfl / max(rates), rates[i] = m u^(m-1)[i] times cell i's
        drain coefficient, is the positivity-safe forward-Euler dt. dt_stab =
        2/rho is the forward-Euler stability step: the divergence linearises
        to J = V^-1 A P (V the cell volumes, A the symmetric flux operator,
        outer face included, P = m u^(m-1)), which has the eigenvalues of the
        symmetric, negative semidefinite S = P^1/2 V^-1/2 A V^-1/2 P^1/2;
        rho, the largest absolute row sum of S, bounds J's spectral radius
        for any data, grid and boundary. Row i is rates[i] + f[i-1] + f[i],
        with f[i] = m g[i] sqrt(u^(m-1)[i]) sqrt(u^(m-1)[i+1]), g[i] =
        sqrt(up[i] lo[i+1]). By sqrt(xy) <= (x + y)/2, f[i-1] + f[i] <=
        rates[i]/2 + (rates[i-1] + rates[i+1])/2, so rho <= 2 max(rates) and
        dt_stab >= dt_FE at cfl <= 1."""
        k = um1.size
        rates = np.multiply(um1, self.m, out=self._rates[:k])
        rates *= self._drain[:k]
        rate = float(rates.max())
        rows, faces = self._y[:k], self._sum[:k - 1]
        np.sqrt(um1, rows)
        np.multiply(rows[:-1], rows[1:], faces)
        faces *= self._coupling[:k - 1]
        rows[:] = rates
        rows[:-1] += faces
        rows[1:] += faces
        rho = float(np.maximum.reduce(rows))
        return (self.cfl / rate if rate > 0.0 else math.inf,
                2.0 / rho if rho > 0.0 else math.inf)

    def _front_dt(self, um1: np.ndarray, last: int) -> float:
        """The time in which the Darcy speed v = m/(m-1) max(-d_r u^(m-1))
        over the faces of cells [0, last] moves the front FRONT_CELLS of the
        last nonzero cell's width; inf when nothing flows outward."""
        speeds = self._sum[:last + 1]
        np.subtract(um1[:last + 1], um1[1:last + 2], speeds)
        speeds *= self._inv_gaps[:last + 1]
        v = self.m / (self.m - 1.0) * float(np.maximum.reduce(speeds))
        return FRONT_CELLS * self._widths[last] / v if v > 0.0 else math.inf

    def _divergence(self, w: np.ndarray) -> np.ndarray:
        """Cell divergence of the flux of the window w = u^m; see _window."""
        return self._window(w.size)[1](w)

    def stable_dt(self, u: np.ndarray) -> float:
        """The largest positivity-safe explicit dt at u; inf for zero data."""
        return self._dt_bounds(self._nonlinearity(u)[1])[0]

    def step(self, state: RadialState, dt: float,
             scheme: str = "explicit") -> RadialState:
        """Advance one step of at most dt: an RKL2 super-step ("explicit";
        see _step_explicit) or a backward-Euler step ("implicit")."""
        if scheme == "explicit":
            return self._step_explicit(state, dt)
        if scheme == "implicit":
            return self._step_implicit(state, dt)
        raise ValueError(f"unknown scheme {scheme!r}")

    def _forward_euler(self, state: RadialState, dt: float,
                       w: np.ndarray) -> RadialState:
        """One forward-Euler step of at most dt from w = u^m on the window
        [0, w.size), halving dt until the new state is nonnegative."""
        if not math.isfinite(dt):
            raise SolverError("stable time step is not finite for zero data; "
                              "pass a finite dt")
        self._dt_limit = dt
        u, k = state.u, w.size
        div = self._divergence(w)
        self.stages += 1
        u_new = np.zeros(u.size)
        window = u_new[:k]
        for _ in range(POSITIVITY_RETRY_LIMIT):
            np.multiply(div, dt, out=window)
            window += u[:k]
            if window.min() >= 0.0:
                out = state.outflow + dt * self._outer_coef * w[-1]
                return RadialState(u=u_new, t=state.t + dt, outflow=out)
            dt *= 0.5  # positivity rejection
        raise SolverError("positivity could not be restored by halving dt")

    def _step_explicit(self, state: RadialState, dt: float) -> RadialState:
        """Advance by one RKL2 super-step of at most dt.

        With dt_FE the positivity-safe explicit dt, dt_stab = 2/rho the
        forward-Euler stability step (rho the symmetrised Gershgorin bound
        of _dt_bounds) and reach(s) = (s^2 + s - 2)/4, the step spans
        tau = min(dt, carried, reach(RKL2_MAX_STAGES) min(dt_FE, dt_stab)),
        with `carried` the span the last super-step proposed when the step
        continues from the state it returned, inf otherwise. The ceiling
        keeps the time error shrinking like h^2 under refinement; accuracy
        is the error estimate's job. At cfl <= 1 dt_stab >= dt_FE (see
        _dt_bounds), so the ceiling is reach(RKL2_MAX_STAGES) dt_FE, which
        takes fewer than RKL2_MAX_STAGES stages: at the default cfl 0.4,
        where dt_stab reads about 3.5 dt_FE on a self-similar run, 22. While
        the data leave cells empty, tau is also at most max(dt_FE, t_front),
        with t_front the time in which the start state's largest Darcy speed
        moves the front FRONT_CELLS of the last nonzero cell. A tau within
        dt_FE is one forward-Euler step; otherwise the step takes the fewest
        s >= 2 stages with reach(s) dt_stab >= tau, within which RKL2 is
        stable. Stages are kept as increments Y_j - u, so data with zero
        divergence stay exactly fixed, and the outflow ledger runs through
        the same recurrence, so mass plus outflow is conserved to rounding.
        A stage with a negative value halves tau and chooses s again; u^m is
        never taken of a negative stage. An s-stage super-step computes on
        the cells up to the last nonzero one plus s + 2.

        The embedded estimate of RKC (Sommeijer, Shampine & Verwer, J.
        Comput. Appl. Math. 88, 1998), est = |12 (u - u_new) + 6 tau (L(u) +
        L(u_new))| / 15, is the tau^3 term of any second-order step; it is
        measured in the L1 norm weighted by cell volume, relative to the
        mass of u, since the max norm binds at every front. A step with est
        above ERR_TOL is thrown away and retried at tau times 0.8
        (ERR_TOL/est)^(1/3), at least 0.2 tau. An accepted step carries that
        factor times tau forward as the next span, at most twice tau, or
        twice the carried span when dt alone cut tau, so that a snapshot
        does not shrink the span after it (Hairer, Norsett & Wanner, Solving
        ODEs I, II.4). L(u_new) is the next super-step's L(u), so the
        estimate costs no extra divergence on a run. A forward-Euler step
        takes no estimate and carries at least twice its span forward.
        """
        u = state.u
        n, resumed = u.size, u is self._returned
        # a returned array is zero past the window its L was taken on
        last = _last_nonzero(u[:self._l1_k] if resumed and self._l1_k else u)
        # u^m on the widest window any stage count needs; its dt bounds are
        # the full grid's, since u^(m-1) is zero past it
        w, um1 = self._nonlinearity(u[:min(n, last + RKL2_MAX_STAGES + 2)])
        dt_fe, dt_stab = self._dt_bounds(um1)
        carried = self._carry if resumed else math.inf
        self._dt_carry = math.inf
        tau = min(dt, carried,
                  _rkl2_reach(RKL2_MAX_STAGES) * min(dt_fe, dt_stab))
        if tau > dt_fe and last < n - 1:
            tau = min(tau, max(dt_fe, self._front_dt(um1, last)))
        if tau <= dt_fe:
            new = self._forward_euler(state, tau, w[:min(n, last + 3)])
            self._returned, self._carry = new.u, max(carried, 2.0 * tau)
            self._l1_k = 0
            return new
        self._dt_limit = tau
        # a halving never takes more stages, so the first count's window
        # serves every retry
        k = min(n, last + _rkl2_stages(tau / dt_stab) + 2)
        w = w[:k]
        out0 = self._outer_coef * w.item(-1)
        if resumed and self._l1_k:
            # L(u) is the last estimate's L(u_new), zero past its window
            self._l0, self._l1 = self._l1, self._l0
            self._l0[self._l1_k:k] = 0.0
        else:
            self._l0[:k] = self._divergence(w)
            self.stages += 1
        self._l1_k = 0  # the estimates' scratch until the step returns
        l0 = self._l0[:k]
        support = slice(0, last + 1)
        mass = float(np.add.reduce(np.multiply(
            u[support], self._dV[support], self._rates[support])))
        window = RadialState(u=u[:k], t=state.t, outflow=state.outflow)
        for _ in range(POSITIVITY_RETRY_LIMIT):
            new = self._rkl2(window, tau, _rkl2_stages(tau / dt_stab), l0,
                             out0)
            if new is None:
                self.rejections += 1
                tau *= 0.5  # positivity rejection
                continue
            est = self._error_estimate(u[:k], new.u[:k], l0, tau) / mass
            grow = 0.8 * (ERR_TOL / est) ** (1.0 / 3.0) if est else math.inf
            if est <= ERR_TOL:
                limit = 2.0 * (tau if tau < dt else max(tau, carried))
                self._returned, self._carry = new.u, min(grow * tau, limit)
                self._l1_k = k
                return new
            self.error_rejections += 1
            tau *= max(0.2, grow)  # error rejection
        raise SolverError("super-step kept failing after shrinking tau")

    def _error_estimate(self, u: np.ndarray, u_new: np.ndarray,
                        l0: np.ndarray, tau: float) -> float:
        """The sum of |12 (u - u_new) + 6 tau (L(u) + L(u_new))| dV / 15 over
        the window u = u[:k], u_new = u_new[:k], with l0 = L(u); leaves
        L(u_new) in _l1. The sum runs over the cells up to the last nonzero
        term, so it does not depend on the window."""
        k = u.size
        self._l1[:k] = self._divergence(self._nonlinearity(u_new)[0])
        self.stages += 1
        terms = np.add(l0, self._l1[:k], self._y[:k])
        terms *= 6.0 * tau
        diff = np.subtract(u, u_new, self._sum[:k])
        diff *= 12.0
        terms += diff
        terms = terms[:_last_nonzero(terms) + 1]
        np.abs(terms, terms)
        terms *= self._dV[:terms.size]
        return float(np.add.reduce(terms)) / 15.0

    def _rkl2(self, state: RadialState, tau: float, s: int, l0: np.ndarray,
              out0: float):
        """The s stages of one super-step from the window state.u = u[:k],
        with l0 = L(u) and out0 its outflow; the full-grid state, or None
        when a stage turns negative. The ufuncs write in place and take 0-d
        coefficient arrays; the outflow ledger runs in Python floats."""
        u, k = state.u, state.u.size
        nonlinearity, divergence = self._window(k)
        outer = self._outer_coef
        add, multiply, lowest = np.add, np.multiply, np.minimum.reduce
        mu1, rows, table = _rkl2_coefficients(s)
        multiply(table, (1.0, tau, 1.0, 1.0), self._coef[:s - 1])
        d1 = multiply(l0, mu1 * tau, self._d1[:k])     # Y_1 - u
        d2 = self._d2[:k]                               # Y_0 - u
        d2.fill(0.0)
        e1, e2 = mu1 * tau * out0, 0.0                  # their outflows
        y, acc = self._y[:k], self._sum[:k]
        for j, (neg_a, mu_t, nu, mu) in enumerate(rows):
            neg_a_0, scale, nu_0, mu_0 = self._coef_views[j]
            add(u, d1, y)
            if float(lowest(y)) < 0.0:
                self.stages += j
                return None
            w, _ = nonlinearity(y)
            out = outer * w.item(-1)
            div = divergence(w)
            # Y_j - u = mu (Y_(j-1) - u) + nu (Y_(j-2) - u)
            #           + mu~ tau (L(Y_(j-1)) - a_(j-1) L(u))
            multiply(l0, neg_a_0, acc)
            add(acc, div, acc)
            multiply(acc, scale, acc)
            multiply(d2, nu_0, d2)
            add(acc, d2, acc)
            multiply(d1, mu_0, d2)
            add(d2, acc, d2)
            d1, d2 = d2, d1
            e1, e2 = (mu * e1 + nu * e2 + mu_t * tau * (out + neg_a * out0),
                      e1)
        self.stages += len(rows)
        u_new = np.zeros(self.grid.cells)
        window = add(u, d1, u_new[:k])
        if lowest(window) < 0.0:
            return None
        return RadialState(u=u_new, t=state.t + tau,
                           outflow=state.outflow + e1)

    def _step_implicit(self, state: RadialState, dt: float) -> RadialState:
        n, resumed = state.u.size, state.u is self._returned and self._l1_k > 0
        # a returned array is zero past the window its L was taken on
        last = _last_nonzero(state.u[:self._l1_k] if resumed else state.u)
        k = min(n, last + NEWTON_MAX_ITER + 3)
        u_prev = state.u[:k]
        carried = self._dt_carry if resumed else math.inf
        dt = self._dt_limit = min(dt, carried)
        # L(u_prev) in _l1 for every attempt: the last step's L of the array
        # it returned, exactly 0 past that step's window, or evaluated now
        l0 = self._l1[:k]
        if resumed:
            l0[self._l1_k:] = 0.0
        else:
            l0[:] = self._divergence(self._nonlinearity(u_prev)[0])
            self.residuals += 1
            self._l1_k = 0
        scale = max(1.0, float(u_prev.max()))
        for halvings in range(POSITIVITY_RETRY_LIMIT):
            u = self._newton(u_prev, dt, scale, l0)
            if u is not None and u.min() >= 0.0:
                if u is not u_prev:  # the last residual was evaluated at u
                    l0[:] = self._div[:k]
                # and so was u^m, in _w
                out = state.outflow + dt * self._outer_coef * self._w[k - 1]
                u_new = np.zeros(n)
                u_new[:k] = u
                self._returned, self._l1_k, self._carry = u_new, k, math.inf
                self._dt_carry = dt if halvings else 2.0 * max(dt, carried)
                return RadialState(u=u_new, t=state.t + dt, outflow=out)
            dt *= 0.5
            self.dt_halvings += 1
        raise SolverError("implicit step kept failing after dt halvings")

    def _newton(self, u_prev: np.ndarray, dt: float, scale: float,
                l0: np.ndarray):
        """Damped Newton iteration on u - u_prev - dt div(u^m) = 0 over the
        window u_prev = u[:k], from the residual 0 - dt l0, l0 = L(u_prev):
        u_prev itself when that meets the tolerance; None when NEWTON_MAX_ITER
        iterates do not converge, or once NEWTON_STALL iterates in a row each
        leave more than NEWTON_SLOW of the residual, since a stalled
        iteration is cheaper to retry at half the dt than to run out. An
        iterate costs one tridiagonal solve and one residual per line-search
        trial, which leaves L(trial) in _div and trial^m in _w; the accepted
        trial's residual is the next iterate's. A line search that halves
        lam to 1e-4 or below takes that lam without the decrease test.
        """
        k = u_prev.size
        if self._bands_key != (dt, k):
            self._bands_key, self._bands = (dt, k), (
                -dt * self._up[:k - 1], dt * self._diag_lin[:k],
                -dt * self._lo[1:k])
        up, diag, lo = self._bands
        dl, d, du, dw = (self._dl[:k - 1], self._d[:k], self._du[:k - 1],
                         self._rates[:k])
        dt_div, mags = self._y[:k], self._sum[:k]
        nonlinearity, divergence = self._window(k)
        multiply, norm = np.multiply, np.maximum.reduce
        u, um1 = u_prev, nonlinearity(u_prev)[1]
        resid = np.subtract(0.0, multiply(l0, dt, out=dt_div))
        rnorm, slow = float(norm(np.abs(resid, out=mags))), 0
        for _ in range(NEWTON_MAX_ITER):
            if rnorm <= NEWTON_TOL * scale:
                return u
            if not math.isfinite(rnorm):
                raise SolverError("Newton residual is not finite")
            if slow == NEWTON_STALL:
                return None
            multiply(um1, self.m, out=dw)
            multiply(up, dw[1:], out=du)
            multiply(diag, dw, out=d)
            np.subtract(1.0, d, out=d)
            multiply(lo, dw[:-1], out=dl)
            self.newton_iterates += 1
            # overwrites dl, d, du and b = -resid
            *_, delta, info = _GTSV(dl, d, du, np.negative(resid, out=resid),
                                    1, 1, 1, 1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"tridiagonal Newton solve failed (info {info})")
            lam = 1.0
            while True:
                trial = multiply(delta, lam)
                trial += u
                np.maximum(trial, 0.0, out=trial)
                w, um1 = nonlinearity(trial)
                r_t = np.subtract(trial, u_prev)
                r_t -= multiply(divergence(w), dt, out=dt_div)
                rn_t = float(norm(np.abs(r_t, out=mags)))
                self.residuals += 1
                if lam <= 1e-4 or rn_t <= (1.0 - 0.25 * lam) * rnorm:
                    break
                lam *= 0.5
            slow = slow + 1 if rn_t > NEWTON_SLOW * rnorm else 0
            u, resid, rnorm = trial, r_t, rn_t
        return None


@dataclass
class RunRecord:
    """Snapshots and ledger of one evolution run."""

    grid: RadialGrid
    m: float
    boundary: str
    scheme: str
    times: np.ndarray
    states: list
    outflows: np.ndarray
    mass_initial: float
    steps: int
    wall_time: float
    stages: int = 0       # divergence evaluations of stages and estimates
    rejections: int = 0   # stage sequences thrown away on a negative stage
    error_rejections: int = 0  # stage sequences thrown away on their error
    newton_iterates: int = 0  # Newton iterates (solves) of implicit steps
    residuals: int = 0    # residual evaluations of implicit steps
    dt_halvings: int = 0  # dt halvings of implicit steps

    def state_at(self, t: float) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"no snapshot at t = {t}")
        return self.states[idx]

    @property
    def sup_norms(self) -> np.ndarray:
        return np.array([s.max() for s in self.states])

    @property
    def masses(self) -> np.ndarray:
        return np.array([float(np.sum(s * self.grid.cell_volumes))
                         for s in self.states])

    def mass_defect(self) -> float:
        """Relative conservation defect including the boundary ledger."""
        total = self.masses + self.outflows
        return float(np.max(np.abs(total - self.mass_initial)) /
                     max(self.mass_initial, 1e-300))


def run_pme(grid: RadialGrid, m: float, initial, t_end: float,
            snapshots: Sequence[float] = (), scheme: str = "explicit",
            boundary: str = "absorbing", cfl: float = DEFAULT_CFL,
            implicit_dt: Optional[float] = None) -> RunRecord:
    """Evolve cell data to t_end, recording exact-time snapshots.

    `initial` is a cell-average array or a radial callable. Snapshot times are
    hit exactly by clipping the adaptive step. Every step is one
    Stepper.step call, and `steps` counts them: the explicit scheme takes
    RKL2 super-steps, and for the implicit scheme implicit_dt sets the target
    step, which a step after a dt halving approaches by doubling.
    """
    if callable(initial):
        u0 = grid.cell_average(initial)
    else:
        u0 = np.asarray(initial, dtype=float).copy()
        if u0.shape != (grid.cells,):
            raise ValueError("initial array does not match the grid")
    # NaN fails both comparisons, +inf the second
    if not np.all((u0 >= 0.0) & (u0 < math.inf)):
        raise ValueError("initial data must be finite and nonnegative")

    stepper = Stepper(grid, m, boundary=boundary, cfl=cfl)
    snaps = sorted({float(s) for s in snapshots if 0.0 < s <= t_end})
    if not snaps or snaps[-1] < t_end:
        snaps.append(float(t_end))
    state = RadialState(u=u0.copy(), t=0.0)
    times, states, outflows = [0.0], [u0.copy()], [0.0]
    mass0, steps = state.mass(grid), 0
    tic = time.perf_counter()
    for target in snaps:
        while state.t < target - 1e-13:
            gap = target - state.t
            dt = min(implicit_dt or gap, gap) if scheme == "implicit" else gap
            new = stepper.step(state, dt, scheme)
            # stamp the target only when the step took the full dt it was
            # allowed (a super-step clamps to its reach); a halved step is
            # still short of it
            dt = stepper._dt_limit
            if dt >= gap - 1e-15 and new.t == state.t + dt:
                new.t = target
            state = new
            steps += 1
        times.append(target)
        states.append(state.u.copy())
        outflows.append(state.outflow)
    toc = time.perf_counter()
    return RunRecord(grid=grid, m=m, boundary=boundary, scheme=scheme,
                     times=np.asarray(times), states=states,
                     outflows=np.asarray(outflows), mass_initial=mass0,
                     steps=steps, wall_time=toc - tic,
                     **{count: getattr(stepper, count) for count in (
                         "stages", "rejections", "error_rejections",
                         "newton_iterates", "residuals", "dt_halvings")})


@dataclass(frozen=True)
class BarenblattParams:
    """Self-similar compactly supported solution on a k-dimensional space.

    `bracket` is the height constant inside the positive part; the total mass
    is a Beta-function expression of it. Times are measured from the
    self-similar singularity, so the slice at t = eps serves as solver datum.
    """

    dimension: int
    m: float
    bracket: float
    eps: float = 1.0

    def __post_init__(self):
        if self.m <= 1.0 or self.bracket <= 0.0 or self.eps <= 0.0:
            raise ValueError("need m > 1, bracket > 0, eps > 0")

    @property
    def alpha(self) -> float:
        return decay_exponent(self.m, self.dimension)

    @property
    def radius_exponent(self) -> float:
        return self.alpha / self.dimension

    @property
    def front_constant(self) -> float:
        return self.alpha * (self.m - 1.0) / (2.0 * self.m * self.dimension)

    @property
    def mass(self) -> float:
        k, m = self.dimension, self.m
        sg = unit_sphere_area(k)
        return (sg * self.bracket ** (k / 2.0 + 1.0 / (m - 1.0)) *
                self.front_constant ** (-k / 2.0) * 0.5 *
                _half_integer_beta(k / 2.0, 1.0 / (m - 1.0) + 1.0))

    @classmethod
    def from_mass(cls, dimension: int, m: float, mass: float,
                  eps: float = 1.0) -> "BarenblattParams":
        probe = cls(dimension=dimension, m=m, bracket=1.0, eps=eps)
        exponent = dimension / 2.0 + 1.0 / (m - 1.0)
        bracket = (mass / probe.mass) ** (1.0 / exponent)
        return cls(dimension=dimension, m=m, bracket=bracket, eps=eps)

    def support_radius(self, t: float) -> float:
        return math.sqrt(self.bracket / self.front_constant) * t ** self.radius_exponent

    def sup_value(self, t: float) -> float:
        return self.bracket ** (1.0 / (self.m - 1.0)) * t ** (-self.alpha)


def barenblatt(params: BarenblattParams, r, t: float):
    """Profile value at radius r and self-similar time t > 0; exactly 0 from
    the front support_radius(t) on, where rounding may leave the bracket a
    few ulps above 0."""
    if t <= 0.0:
        raise ValueError("the self-similar solution needs t > 0")
    r = np.asarray(r, dtype=float)
    inside = params.bracket - params.front_constant * (
        r * r) * t ** (-2.0 * params.radius_exponent)
    inside = np.where(r < params.support_radius(t), inside, 0.0)
    vals = t ** (-params.alpha) * np.power(np.maximum(inside, 0.0),
                                           1.0 / (params.m - 1.0))
    return float(vals) if vals.ndim == 0 else vals


def barenblatt_datum(params: BarenblattParams) -> Callable:
    """Radial callable for the solver's initial slice at t = eps."""
    return lambda r: barenblatt(params, r, params.eps)


@dataclass
class SolutionEstimateReport:
    """Estimate checks (violation against tau) and diagnostics, by name."""

    checks: dict
    details: dict

    @property
    def max_violation(self) -> float:
        return nonneg_max(*(c.value for c in self.checks.values()))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def verify_solution_estimates(record: RunRecord,
                              pair: Optional[RunRecord] = None,
                              triple: Optional[tuple] = None,
                              tau: float = 0.02) -> SolutionEstimateReport:
    """Six a-priori estimates checked on run snapshots.

    Violations are relative slacks; tau is the acceptance budget. The paired
    checks (contraction, comparison) need a second run on the same grid and
    snapshot times, with ordered initial data for the comparison direction
    pair >= record.
    """
    grid, m = record.grid, record.m
    if len(record.states) < 2:
        raise ValueError("estimate checks need at least two snapshots")
    gw = grid.cell_weights(grid.profile.green.exact)
    times = record.times
    checks, details = {}, {}

    def add(name, violation, detail):
        checks[name], details[name] = Check(violation, tau), detail

    wgreen = np.array([float(np.sum(s * gw)) for s in record.states])
    growth_steps = np.diff(wgreen)
    viol = nonneg_max(np.max(growth_steps) / max(wgreen[0], 1e-300))
    add("green_mass_monotone", viol, {"weighted_masses": wgreen})

    if triple is None:
        positive = times[times > 0.0]
        if positive.size >= 3:
            triple = (float(positive[0]),
                      float(positive[positive.size // 2]),
                      float(positive[-1]))
    if triple is not None:
        t0, t1, t2 = triple
        if not 0.0 < t0 <= t1 <= t2:
            raise ValueError("triple must satisfy 0 < t0 <= t1 <= t2")
        u0c = float(record.state_at(t0)[0])
        utc = float(record.state_at(t2)[0])
        mid = float(np.sum((record.state_at(t0) - record.state_at(t1)) * gw))
        mm = m / (m - 1.0)
        lhs = (t0 / t1) ** mm * (t1 - t0) * u0c ** m
        rhs = (m - 1.0) * t2 ** mm * t0 ** (-1.0 / (m - 1.0)) * utc ** m
        scale = max(abs(mid), abs(lhs), 1e-300)
        viol = nonneg_max((lhs - mid) / scale, (mid - rhs) / scale)
        add("center_two_sided", viol,
            {"lhs": lhs, "mid": mid, "rhs": rhs, "triple": triple})

    dV = grid.cell_volumes
    detail = {}
    for p in (1.0, 2.0, math.inf):
        if math.isinf(p):
            norms = np.array([float(np.max(s)) for s in record.states])
        else:
            norms = np.array([float(np.sum(s ** p * dV)) ** (1.0 / p)
                              for s in record.states])
        detail[f"p{p:g}"] = norms
    add("lp_nonexpansive", nonneg_max(*(np.max(n - n[0]) / max(n[0], 1e-300)
                                        for n in detail.values())), detail)

    pos = np.flatnonzero(times > 0.0)
    if pos.size >= 2:  # a monotonicity check needs two times
        scaled = np.array([times[i] ** (1.0 / (m - 1.0)) *
                           float(record.states[i][0]) for i in pos])
        drops = -np.diff(scaled)
        viol = nonneg_max(drops / np.maximum(scaled[1:], 1e-300))
        add("center_scaled_monotone", viol, {"scaled_center": scaled})

    if pair is not None:
        if pair.grid is not grid and not np.array_equal(pair.grid.edges,
                                                        grid.edges):
            raise ValueError("paired run must share the grid")
        if not np.array_equal(np.asarray(pair.times, dtype=float),
                              np.asarray(times, dtype=float)):
            raise ValueError("paired run must share the snapshot times")
        diffs = np.array([float(np.sum(np.abs(a - b) * dV))
                          for a, b in zip(record.states, pair.states)])
        viol = nonneg_max(np.max(diffs - diffs[0]) / max(diffs[0], 1e-300))
        add("l1_contraction", viol, {"l1_gaps": diffs})

        if np.any(record.states[0] > pair.states[0] + 1e-12 * pair.states[0].max()):
            raise ValueError("comparison check needs ordered initial data")
        overs = np.array([float(np.max((a - b) / max(float(np.max(b)), 1e-300)))
                          for a, b in zip(record.states, pair.states)])
        add("comparison", nonneg_max(overs), {"max_overshoot": overs})

    return SolutionEstimateReport(checks=checks, details=details)


def time_bump(window: tuple) -> tuple:
    """Smooth compactly supported bump on the window, with its derivative."""
    a, b = float(window[0]), float(window[1])
    if b <= a:
        raise ValueError("empty time window")

    def bump(t):
        """(x, |x| < 1, phi) at t, x the window mapped onto [-1, 1]."""
        x = (2.0 * np.asarray(t, dtype=float) - (a + b)) / (b - a)
        inside = np.abs(x) < 1.0
        return x, inside, np.where(
            inside, np.exp(-1.0 / np.maximum(1.0 - x * x, 1e-300)), 0.0)

    def phi(t):
        return bump(t)[2]

    def dphi(t):
        x, inside, g = bump(t)
        return np.where(inside,
                        -g * 2.0 * x / np.maximum((1.0 - x * x) ** 2, 1e-300)
                        * 2.0 / (b - a), 0.0)

    return phi, dphi


def radial_cutoff(plateau: float, zero_at: float) -> Callable:
    """C2 cutoff: 1 on [0, plateau], quintic smoothstep down to 0 at zero_at."""
    if zero_at <= plateau:
        raise ValueError("zero_at must exceed plateau")

    def eta(r):
        q = np.clip((np.asarray(r, dtype=float) - plateau) / (zero_at - plateau),
                    0.0, 1.0)
        return 1.0 - q ** 3 * (10.0 - 15.0 * q + 6.0 * q * q)

    return eta


@dataclass
class WeakDualReport:
    residual: float
    scale: float
    nodes: int
    cells: int


def weak_dual_residual(record: RunRecord, window: tuple) -> WeakDualReport:
    """Residual of the dual identity on a run, for the test function
    time_bump(window) x radial_cutoff(2, 4).

    Needs uniformly spaced snapshots across the window (odd count, Simpson).
    The potential of each snapshot is evaluated exactly for piecewise-constant
    data, by one CellPotential of the grid, so the residual isolates the
    discretization error of the evolution.
    """
    phi, dphi = time_bump(window)
    eta = radial_cutoff(2.0, 4.0)
    mask = (record.times >= window[0] - 1e-12) & (record.times <= window[1] + 1e-12)
    ts = record.times[mask]
    if ts.size < 3 or ts.size % 2 == 0:
        raise ValueError("need an odd number (>= 3) of snapshots across the window")
    spacing = np.diff(ts)
    if not np.allclose(spacing, spacing[0], rtol=1e-8, atol=1e-12):
        raise ValueError("snapshots across the window must be uniformly spaced")
    grid = record.grid
    kernel = CellPotential(grid.profile, grid.edges)
    eta_w = grid.cell_weights(eta)
    idx = np.flatnonzero(mask)
    dual = np.empty(ts.size)
    nonlinear = np.empty(ts.size)
    for j, i in enumerate(idx):
        u = record.states[i]
        centers_u, _ = kernel(u)
        dual[j] = float(np.sum(centers_u * eta_w))
        nonlinear[j] = float(np.sum(np.power(u, record.m) * eta_w))
    w = simpson_weights(ts.size, float(spacing[0]))
    lhs = float(np.sum(w * dphi(ts) * dual))
    rhs = float(np.sum(w * phi(ts) * nonlinear))
    return WeakDualReport(residual=lhs - rhs, scale=abs(rhs),
                          nodes=ts.size, cells=grid.cells)


@dataclass
class RefinementStudy:
    levels: list
    residuals: list
    orders: list


def weak_dual_refinement(profile: VolumeProfile, m: float, initial: Callable,
                         levels: Sequence[tuple], r_max: float,
                         window: tuple) -> RefinementStudy:
    """Dual-identity residuals of absorbing runs at (cells, time_nodes) levels."""
    reports = []
    for cells, nodes in levels:
        if nodes % 2 == 1:
            raise ValueError("time_nodes counts intervals and must be even")
        snap_times = np.linspace(window[0], window[1], nodes + 1)
        grid = RadialGrid.make(profile, r_max, cells)
        record = run_pme(grid, m, initial, t_end=window[1],
                         snapshots=snap_times)
        reports.append(weak_dual_residual(record, window))
    residuals = [abs(r.residual) for r in reports]
    orders = [math.log2(residuals[i] / residuals[i + 1])
              for i in range(len(residuals) - 1)]
    return RefinementStudy(levels=list(levels), residuals=residuals,
                           orders=orders)


@dataclass
class OptimalityReport:
    """Sup-norm decay of a self-similar run in absolute (shifted) time."""

    params: BarenblattParams
    times_abs: np.ndarray
    sup_values: np.ndarray
    sup_scaled: np.ndarray          # sup * t_abs^alpha
    bound_values: np.ndarray
    bound_regimes: list
    slope: float
    expected_slope: float
    band_ratio: float               # worst multiplicative drift of sup_scaled
    l1_error_final: float
    mass_defect: float
    cells: int
    steps: int
    wall_time: float


def optimality_harness(dimension: int, m: float, mass: float = 1.0,
                       eps: float = 1.0, cells: int = 2000,
                       r_max: float = 20.0, t_end: float = 10.0,
                       n_snapshots: int = 25,
                       fit_window: Optional[tuple] = None) -> OptimalityReport:
    """Decay-rate study against the explicit self-similar solution.

    The run is absorbing; the bound has growth power:dimension, r0 = 1.
    Fits are taken against absolute time t_abs = solver time + eps, the clock
    of the self-similar profile; with that convention the exact solution has
    slope exactly -alpha and constant sup * t_abs^alpha.
    """
    profile = make_profile(form="euclidean", dimension=dimension)
    params = BarenblattParams.from_mass(dimension, m, mass, eps)
    grid = RadialGrid.make(profile, r_max, cells)
    times_abs = np.geomspace(eps, eps + t_end, n_snapshots)
    record = run_pme(grid, m, barenblatt_datum(params), t_end=t_end,
                     snapshots=times_abs - eps)
    sup = record.sup_norms
    t_abs = record.times + eps

    growth = make_growth(form="power", params={"k": float(dimension)}, r0=1.0)
    bound = SmoothingBound.from_profile(profile, m, growth)
    evals = bound.evaluate_l1_many(t_abs, mass)

    window = fit_window or (eps, eps + t_end)
    sel = (t_abs >= window[0] - 1e-12) & (t_abs <= window[1] + 1e-12)
    slope = loglog_slope(t_abs[sel], sup[sel])
    scaled = sup * t_abs ** params.alpha
    ref = scaled[sel][0]
    band = float(max(np.max(scaled[sel]) / ref, ref / np.min(scaled[sel])))

    exact_final = grid.cell_average(
        lambda r: barenblatt(params, r, float(t_abs[-1])))
    l1_err = float(np.sum(np.abs(record.states[-1] - exact_final) *
                          grid.cell_volumes))
    return OptimalityReport(
        params=params, times_abs=t_abs, sup_values=sup, sup_scaled=scaled,
        bound_values=np.array([e.value for e in evals]),
        bound_regimes=[e.regime for e in evals],
        slope=slope, expected_slope=-params.alpha, band_ratio=band,
        l1_error_final=l1_err, mass_defect=record.mass_defect(),
        cells=cells, steps=record.steps, wall_time=record.wall_time)
