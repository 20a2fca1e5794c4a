"""Independent references for the benchmark's correctness checks.

Nothing here imports pmegreen. Green integrals come from mpmath quadrature
on the analytic sphere area and ball volume of each profile; the
self-similar (Barenblatt) solution, the smoothing bound on euclidean R^3 and
the log-family rate come from their closed forms or from a root of their
defining equation.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.interpolate import PchipInterpolator

mp.mp.dps = 20


def sphere_area_constant(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume_constant(n: int) -> float:
    return sphere_area_constant(n) / n


# -- profiles as (S, V) pairs of mpmath-friendly callables -------------------

def power_log_profile(lam: float, sigma: float):
    """V = r^lam L^sigma, L = log(e + r), and S = V'."""
    lam, sigma = mp.mpf(lam), mp.mpf(sigma)

    def area(r):
        ell = mp.log(mp.e + r)
        return r ** (lam - 1) * ell ** (sigma - 1) * (lam * ell + sigma * r / (mp.e + r))

    def volume(r):
        return r ** lam * mp.log(mp.e + r) ** sigma

    return area, volume


def warped_area(n: int, phi):
    sg = sphere_area_constant(n)
    return lambda r: sg * phi(r) ** (n - 1)


def _cumulative_tail(fn, radii, breaks=(), tail=None):
    """int_r^inf fn for every r in radii, summed piecewise from the far end.

    `breaks` are extra interior points (kinks of fn); `tail(r)` may give the
    integral from r to infinity in closed form, else mpmath runs to infinity.
    """
    radii = [float(r) for r in radii]
    last = max(radii + list(breaks))
    knots = sorted(set(radii) | {float(b) for b in breaks if b >= min(radii)})
    if tail is not None:
        acc = mp.mpf(tail(last))
    else:
        acc = mp.quad(fn, [last, 10 * last, 1e3 * last, mp.inf])
    values = {last: acc}
    for lo, hi in zip(reversed(knots[:-1]), reversed(knots[1:])):
        acc += mp.quad(fn, [lo, hi])
        values[lo] = acc
    return np.array([float(values[r]) for r in radii])


def green_exact_ref(area, radii, breaks=(), tail=None) -> np.ndarray:
    """G(r) = int_r^inf ds / S(s)."""
    return _cumulative_tail(lambda s: 1 / area(s), radii, breaks, tail)


def green_surrogate_ref(volume, radii, breaks=(), tail=None) -> np.ndarray:
    """Ghat(r) = int_r^inf t / V(t) dt."""
    return _cumulative_tail(lambda t: t / volume(t), radii, breaks, tail)


class TabulatedProfile:
    """The monotone cubic (PCHIP) interpolant of an (r, V) table, the pole
    row (0, 0) prepended, with the power-law extension past the last row."""

    def __init__(self, radii, volumes):
        r = np.concatenate([[0.0], np.asarray(radii, dtype=float)])
        v = np.concatenate([[0.0], np.asarray(volumes, dtype=float)])
        self.knots = r
        self._v = PchipInterpolator(r, v)
        self._s = self._v.derivative()
        self.r_end, self.v_end = float(r[-1]), float(v[-1])
        self.slope = self.r_end * float(self._s(self.r_end)) / self.v_end

    def area(self, s):
        if s > self.r_end:
            return (self.v_end * self.slope / self.r_end) * (
                s / self.r_end) ** (self.slope - 1)
        return mp.mpf(float(self._s(float(s))))

    def volume(self, s):
        if s > self.r_end:
            return self.v_end * (s / self.r_end) ** self.slope
        return mp.mpf(float(self._v(float(s))))

    def exact_tail(self, r):
        # beyond the table S = (v_end p / r_end) (r / r_end)^(p - 1)
        p = self.slope
        return self.r_end ** p / (self.v_end * p * (p - 2.0)) * r ** (2.0 - p)

    def surrogate_tail(self, r):
        p = self.slope
        return self.r_end ** p / (self.v_end * (p - 2.0)) * r ** (2.0 - p)

    def green(self, radii):
        return (green_exact_ref(self.area, radii, self.knots[1:], self.exact_tail),
                green_surrogate_ref(self.volume, radii, self.knots[1:],
                                    self.surrogate_tail))


# -- self-similar solution --------------------------------------------------

class Barenblatt:
    """u(r, t) = t^-alpha (C - c r^2 t^(-2 alpha / k))_+^(1/(m-1)) on R^k.

    The height C is fixed by the mass, which is evaluated by mpmath
    quadrature of the t = 1 profile rather than by its Beta-function form.
    """

    def __init__(self, k: int, m: float, mass: float):
        self.k, self.m = k, float(m)
        self.alpha = k / (k * (m - 1.0) + 2.0)
        self.front = self.alpha * (m - 1.0) / (2.0 * m * k)
        sg = sphere_area_constant(k)
        unit = sg * mp.quad(
            lambda r: (1 - self.front * r * r) ** (1 / (mp.mpf(m) - 1)) * r ** (k - 1),
            [0, mp.sqrt(1 / mp.mpf(self.front))])
        expo = k / 2.0 + 1.0 / (m - 1.0)
        self.height = float((mass / unit) ** (1 / mp.mpf(expo)))

    def sup(self, t):
        return np.asarray(t, dtype=float) ** (-self.alpha) * self.height ** (
            1.0 / (self.m - 1.0))

    def value(self, r, t: float):
        r = np.asarray(r, dtype=float)
        inside = self.height - self.front * r * r * t ** (-2.0 * self.alpha / self.k)
        return t ** (-self.alpha) * np.maximum(inside, 0.0) ** (1.0 / (self.m - 1.0))

    def support(self, t: float) -> float:
        return math.sqrt(self.height / self.front) * t ** (self.alpha / self.k)

    def cell_averages(self, edges, t: float, order: int = 12) -> np.ndarray:
        """Cell averages on R^k, Gauss-Legendre per cell, split at the front."""
        edges = np.asarray(edges, dtype=float)
        front = self.support(t)
        lo, hi = edges[:-1], edges[1:]
        hi_in = np.clip(hi, lo, np.maximum(lo, front))
        x, w = np.polynomial.legendre.leggauss(order)
        mid, half = 0.5 * (hi_in + lo), 0.5 * (hi_in - lo)
        nodes = mid[:, None] + half[:, None] * x[None, :]
        dens = self.value(nodes, t) * nodes ** (self.k - 1)
        integral = (dens * w[None, :]).sum(axis=1) * half
        return integral * self.k / (hi ** self.k - lo ** self.k)


def cell_volumes(edges, k: int) -> np.ndarray:
    edges = np.asarray(edges, dtype=float)
    return ball_volume_constant(k) * np.diff(edges ** k)


# -- smoothing bound and rate families --------------------------------------

def euclid3_power3_bound(t, norm1: float = 1.0) -> np.ndarray:
    """Two-regime sup-norm bound on R^3 with growth f(t) = t^2, r0 = 1, m = 2.

    Envelope R f(R) T(R) + R^2 = 2 R^2 and V = (4 pi / 3) R^3, so the scale
    map is (8 pi / 3) R^5 and the large-time value t^-1 2 R*^2 with
    (8 pi / 3) R*^5 = t norm1.
    """
    t = np.asarray(t, dtype=float)
    threshold = (8.0 * math.pi / 3.0) / norm1
    r_star = (3.0 * t * norm1 / (8.0 * math.pi)) ** 0.2
    large = 2.0 * r_star ** 2 / t
    small = t ** (-3.0 / 5.0) * norm1 ** (2.0 / 5.0)
    return np.where(t >= threshold * (1.0 - 1e-9), large, small)


def log_family_rate(lam: float, sigma: float, m: float, t: float,
                    norm1: float) -> float:
    """Large-time rate for V ~ R^lam log^sigma R: t^(-1/(m-1)) R^(2/(m-1))
    log(R)^(1/(m-1)), where R > 1 solves R^a log(R)^b = t^(1/(m-1)) norm1
    with a = lam + 2/(m-1) and b = sigma + 1/(m-1)."""
    mm = mp.mpf(m) - 1
    a, b = lam + 2 / mm, sigma + 1 / mm
    s = mp.mpf(t) ** (1 / mm) * norm1
    # in x = log R the equation a x + b log x = log s is increasing for x > 0
    x = mp.findroot(lambda x: a * x + b * mp.log(x) - mp.log(s), (mp.mpf("1e-6"), mp.log(s) + 10),
                    solver="anderson")
    return float(mp.mpf(t) ** (-1 / mm) * mp.exp(2 * x / mm) * x ** (1 / mm))


def power_growth_tail(k: float, b: float, r0: float) -> float:
    """int_r0^inf dt / (t^(k-1) log(t)^b)."""
    return float(mp.quad(lambda t: 1 / (t ** (k - 1) * mp.log(t) ** b),
                         [r0, 10 * r0, 1e3 * r0, mp.inf]))


def uniform_ball_potential(n: int, radius: float, r) -> np.ndarray:
    """Potential on R^n of unit mass spread evenly over the ball of `radius`."""
    sg = sphere_area_constant(n)
    r = np.asarray(r, dtype=float)
    g_out = np.power(r, 2.0 - n) / ((n - 2.0) * sg)
    g_edge = radius ** (2.0 - n) / ((n - 2.0) * sg)
    inner = g_edge + (radius ** 2 - r ** 2) / (2.0 * sg * radius ** n)
    return np.where(r >= radius, g_out, inner)


def separating_increments(n: int, distances) -> np.ndarray:
    """Green-weighted mass of unit-mass shells [d - 1/2, d + 1/2] on R^n.

    G S = r / (n - 2), so the shell integral is (hi^2 - lo^2) / (2 (n - 2))
    = d / (n - 2) and the shell volume omega_n (hi^n - lo^n), expanded by
    the binomial theorem so that no digits cancel at large d.
    """
    d = np.asarray(distances, dtype=float)
    shell = 2.0 * sum(math.comb(n, k) * d ** (n - k) * 0.5 ** k
                      for k in range(1, n + 1, 2))
    return (d / (n - 2.0)) / (ball_volume_constant(n) * shell)


def dichotomy(a: float, alpha_infinity: float) -> tuple:
    """(in L1, in the Green-weighted space) for (1 + r)^-a: the paper's rule."""
    return a > alpha_infinity, a > 2.0


def euclid5_powerlaw_norms(exponents) -> tuple:
    """Plain and Green-weighted norms of (1 + r)^-a on R^5, inf where they
    diverge; G S = r / 3 outside the unit ball."""
    sg = sphere_area_constant(5)
    l1, l1g = [], []
    for a in exponents:
        f = lambda r, a=a: (1 + r) ** (-a)
        inner = mp.quad(lambda r: f(r) * sg * r ** 4, [0, 1])
        far = [1, 10, 100, mp.inf]
        l1.append(float(inner + mp.quad(lambda r: f(r) * sg * r ** 4, far))
                  if a > 5.0 else math.inf)
        l1g.append(float(inner + mp.quad(lambda r: f(r) * r / 3, far))
                   if a > 2.0 else math.inf)
    return np.array(l1), np.array(l1g)
