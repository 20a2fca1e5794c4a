"""Numerical kernels: tail tables, improper integrals, roots, slope fits."""
from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicHermiteSpline

ABS_TOL = 1e-10
REL_TOL = 1e-12
# local log-log slope must clear -1 by this margin before a tail integral is attempted
TAIL_SLOPE_MARGIN = 0.02

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)


class IntegralDivergenceError(ArithmeticError):
    """An improper integral failed its convergence diagnostic."""


class BracketError(ValueError):
    """A root bracket could not be established."""


def integrate(f: Callable[[float], float], a: float, b: float,
              abs_tol: float = ABS_TOL) -> float:
    with warnings.catch_warnings():
        # roundoff chatter on wide finite ranges; results are cross-checked
        # against closed forms wherever one exists
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(f, a, b, epsabs=abs_tol, epsrel=REL_TOL, limit=200)
    return val


def tail_integral(f: Callable[[float], float], a: float,
                  name: str = "tail integral") -> float:
    """Integral of f over [a, inf) via the substitution t = a/s, s in (0, 1].

    A two-point log-log slope test at max(1e8, 4a) screens out power-law
    divergence first; borderline cases still trip the quadrature warning.
    The absolute tolerance is on the integral's scale a f(a).
    """
    if a <= 0.0:
        raise ValueError("tail_integral requires a positive lower limit")
    probe = max(1e8, 4.0 * a)
    lo, hi = f(probe), f(2.0 * probe)
    if lo <= 0.0 or hi <= 0.0:
        raise ValueError("tail_integral needs a positive integrand at the probe")
    p = float(np.log(hi / lo) / np.log(2.0))
    if p >= -1.0 - TAIL_SLOPE_MARGIN:
        raise IntegralDivergenceError(
            f"{name} diverges: integrand slope {p:.4f} at the far probe "
            "is not below -1")

    def transformed(s: float) -> float:
        t = a / s
        return f(t) * a / (s * s)

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, _ = quad(transformed, 0.0, 1.0, epsabs=1e-13 * a * f(a),
                          epsrel=REL_TOL, limit=200)
        except IntegrationWarning as exc:
            raise IntegralDivergenceError(
                f"{name} failed to converge under the 1/s substitution: {exc}"
            ) from exc
    return val


def gauss_intervals(f: Callable[[np.ndarray], np.ndarray],
                    lo, hi) -> np.ndarray:
    """Fixed 5-point Gauss integral of a vectorized f over each [lo_i, hi_i]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    nodes = mid[..., None] + half[..., None] * _GAUSS_NODES
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return (vals * _GAUSS_WEIGHTS).sum(axis=-1) * half


def gauss_panels(f: Callable[[np.ndarray], np.ndarray],
                 edges: np.ndarray) -> np.ndarray:
    """Fixed 5-point Gauss integral of a vectorized f over each panel."""
    edges = np.asarray(edges, dtype=float)
    return gauss_intervals(f, edges[:-1], edges[1:])


class TailTable:
    """T(r) = int_r^inf f of a vectorized positive f, callable on arrays.

    Reverse cumulative Gauss panels over `edges` on one checked far tail
    integral, read through a log-log cubic Hermite spline with the exact
    slope -r f(r)/T(r). Past the last edge T is its own tail integral, below
    the first edge the first-edge value plus a finite integral.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray],
                 edges: np.ndarray, name: str = "tail integral"):
        self.edges = rs = np.asarray(edges, dtype=float)
        scalar = lambda s: float(f(s))
        self._far = lambda a: tail_integral(scalar, float(a), name)
        self._near = lambda a: integrate(scalar, float(a), rs[0])
        vals = self._far(rs[-1]) + np.concatenate(
            [np.cumsum(gauss_panels(f, rs)[::-1])[::-1], [0.0]])
        self._spline = CubicHermiteSpline(np.log(rs), np.log(vals),
                                          -rs * f(rs) / vals)

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        flat = rr.ravel()
        lo, hi = self.edges[0], self.edges[-1]
        out = np.exp(self._spline(np.log(np.clip(flat, lo, hi))))
        for i in np.flatnonzero(flat > hi):
            out[i] = self._far(flat[i])
        for i in np.flatnonzero(flat < lo):
            out[i] += self._near(flat[i])
        return float(out[0]) if rr.ndim == 0 else out.reshape(rr.shape)


def invert_increasing(fn: Callable[[float], float], target: float, lo: float,
                      rel_tol: float = 1e-10) -> float:
    """Solve fn(x) = target for increasing fn on [lo, inf).

    Geometric bracket expansion followed by plain bisection; the bisection
    terminates on relative bracket width, so roots near zero are not special.
    """
    flo = fn(lo)
    if target < flo * (1.0 - 1e-12) - 1e-300:
        raise BracketError(
            f"target {target!r} lies below fn({lo!r}) = {flo!r} for an increasing function")
    if target <= flo:
        return lo
    hi = 2.0 * lo if lo > 0 else 1.0
    for _ in range(2100):
        if fn(hi) >= target:
            break
        lo_new = hi
        hi *= 2.0
        lo = lo_new
        if hi > 1e307:
            raise BracketError("bracket expansion overflow before reaching target")
    else:
        raise BracketError("bracket expansion exhausted before reaching target")
    while (hi - lo) > rel_tol * max(abs(hi), 1e-300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def invert_decreasing(fn: Callable[[float], float], target: float, lo: float,
                      rel_tol: float = 1e-10) -> float:
    return invert_increasing(lambda x: -fn(x), -target, lo, rel_tol=rel_tol)


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def simpson_weights(n_nodes: int, spacing: float) -> np.ndarray:
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count >= 3")
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (spacing / 3.0)
