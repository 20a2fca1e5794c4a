"""Shared numerical kernels: improper integrals, bracketed roots, slope fits."""
from __future__ import annotations

import warnings
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

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
              abs_tol: float = ABS_TOL,
              breakpoints: Optional[Sequence[float]] = None) -> float:
    pts = None
    if breakpoints:
        pts = [p for p in breakpoints if a < p < b]
        pts = pts or None
    with warnings.catch_warnings():
        # roundoff chatter on wide finite ranges; results are cross-checked
        # against closed forms wherever one exists
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(f, a, b, epsabs=abs_tol, epsrel=REL_TOL, limit=200,
                      points=pts)
    return val


def tail_exponent(f: Callable[[float], float], probe: float) -> float:
    """Two-point log-log slope of f near `probe`; crude but monotone-friendly."""
    lo, hi = f(probe), f(2.0 * probe)
    if lo <= 0.0 or hi <= 0.0:
        raise ValueError("tail_exponent needs a positive integrand at the probe")
    return float(np.log(hi / lo) / np.log(2.0))


def tail_integral(f: Callable[[float], float], a: float,
                  abs_tol: float = ABS_TOL, name: str = "tail integral",
                  probe: float = 1e8, check_slope: bool = True) -> float:
    """Integral of f over [a, inf) via the substitution t = a/s, s in (0, 1].

    The integrand is screened with a power-law slope test before quadrature;
    borderline cases that slip through still trip the quadrature warning.
    """
    if a <= 0.0:
        raise ValueError("tail_integral requires a positive lower limit")
    if check_slope:
        p = tail_exponent(f, max(probe, 4.0 * a))
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
            val, _ = quad(transformed, 0.0, 1.0, epsabs=abs_tol,
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


def invert_increasing(fn: Callable[[float], float], target: float, lo: float,
                      rel_tol: float = 1e-10, hi: Optional[float] = None) -> float:
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
    if hi is None:
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
