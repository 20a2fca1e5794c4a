"""Numerical kernels: Gauss panels, one tail model for every integral to
infinity, one pole model below every tail table, one cubic Hermite interpolant,
one root finder for monotone functions, slope fits, and the verdict `Check`.

The tail model: past a horizon h, f is fitted as r^p (log r)^q through
r = h, 4h and 16h, and that fit is integrated to infinity in closed form.
A tail counts as integrable only when p < -1 - TAIL_SLOPE_MARGIN. Truncated
integrals sum 5-point Gauss panels in s = log r up to each horizon and add
the remainder; the horizons grow x10 until the corrected values are Cauchy,
the fit shows divergence, or HORIZON_CAP is reached. Integrands that share
their nodes, as weighted norms of one density do, share the calls.

The pole model: below a table's first edge e0, Gauss panels over the top
POLE_PANEL_DECADES decades and, below them, a power law c s^p fitted at r
and 4r, integrated in closed form; where f(r) overflows, the fit moves up
to where f is finite and log f is carried down to r. Nothing here is
adaptive quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# the fitted tail exponent p must clear -1 by this margin for a tail to count
# as integrable
TAIL_SLOPE_MARGIN = 0.02
PANELS_PER_DECADE = 24
HORIZON_CAP = 1e15
# a TailTable integrates past its last edge until the tail model's remainder
# is about 10^-TAIL_PANEL_DECADES of the tail there, on at most
# MAX_TAIL_DECADES decades of panels
TAIL_PANEL_DECADES = 12.0
MAX_TAIL_DECADES = 100.0
# decades of Gauss panels below a TailTable's first edge, above its power law
POLE_PANEL_DECADES = 4
# where f(r) overflows, the pole model fits its power law this many x4 rungs
# above the first where f is finite: a part of f such as V in t/V may be
# subnormal there, and so lose precision that the power law carries down
POLE_FIT_RUNGS = 10

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)
# the tail model's fit points h, 4h, 16h, as multiples of the horizon h
_FIT_RATIO = 4.0
_FIT_POINTS = _FIT_RATIO ** np.arange(3.0)


class IntegralDivergenceError(ArithmeticError):
    """An improper integral failed its convergence diagnostic."""


class BracketError(ValueError):
    """A root bracket could not be established."""


def gauss_nodes(lo, hi) -> tuple:
    """(nodes, half): the 5-point Gauss nodes of each [lo_i, hi_i] along a
    new last axis, and the half-widths."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid[..., None] + half[..., None] * _GAUSS_NODES, half


def gauss_sum(vals: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The Gauss integrals over the intervals of gauss_nodes(lo, hi), from
    the values of f at its nodes and its half-widths."""
    return (vals * _GAUSS_WEIGHTS).sum(axis=-1) * half


def gauss_intervals(f: Callable[[np.ndarray], np.ndarray],
                    lo, hi) -> np.ndarray:
    """Fixed 5-point Gauss integral of a vectorized f over each [lo_i, hi_i]."""
    nodes, half = gauss_nodes(lo, hi)
    return gauss_sum(f(nodes.ravel()).reshape(nodes.shape), half)


def gauss_panels(f: Callable[[np.ndarray], np.ndarray],
                 edges: np.ndarray) -> np.ndarray:
    """Fixed 5-point Gauss integral of a vectorized f over each panel."""
    edges = np.asarray(edges, dtype=float)
    return gauss_intervals(f, edges[:-1], edges[1:])


def _log_factor_integral(q: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """int_0^inf e^-x (1 + x/beta)^q dx, elementwise.

    In y = log(1 + x/beta) the integrand exp(-beta (e^y - 1) + (q + 1) y) is
    smooth; 64 Gauss panels over y <= log(1 + X/beta), X = 40 + 2 max(q, 0),
    give 1e-13 relative for beta in [0.02, 1e4] and |q| <= 5. It is inf where
    (1 + x/beta)^q outgrows e^x in double precision.
    """
    n = 64
    X = 40.0 + 2.0 * np.maximum(q, 0.0)
    Y = np.log1p(X / beta)
    t = (np.arange(n)[:, None] + 0.5 * (_GAUSS_NODES + 1.0)).ravel() / n
    y = Y[..., None] * t
    with np.errstate(over="ignore"):
        vals = np.exp((q[..., None] + 1.0) * y - beta[..., None] * np.expm1(y))
    return beta * Y * (vals @ np.tile(0.5 * _GAUSS_WEIGHTS, n)) / n


def _fit_remainder(h: np.ndarray, vals: np.ndarray) -> tuple:
    """Remainder past each horizon h of the fit through vals = f(h * _FIT_POINTS),
    and the fitted exponent p.

    With s = log r, log f = c + p s + q log s; q is 0 where h <= 1 and log s
    is undefined there. With k = -1 - p and beta = k log h the remainder is
    h f(h)/k * int_0^inf e^-x (1 + x/beta)^q dx.
    It is inf where p >= -1 - TAIL_SLOPE_MARGIN, and 0 with p = -inf where f
    vanishes at a fit point.
    """
    s = np.log(h[..., None] * _FIT_POINTS)
    positive = np.all(vals > 0.0, axis=-1)
    with np.errstate(divide="ignore"):
        logf = np.log(np.where(positive[..., None], vals, 1.0))
    has_log = s[..., 0] > 0.0
    df = np.diff(logf, axis=-1)
    dl = np.diff(np.log(np.where(has_log[..., None], s, 1.0)), axis=-1)
    # the fit points are log(_FIT_RATIO) apart in s
    curv = np.where(has_log, dl[..., 1] - dl[..., 0], 1.0)
    q = np.where(has_log, (df[..., 1] - df[..., 0]) / curv, 0.0)
    p = (df[..., 1] - q * dl[..., 1]) / math.log(_FIT_RATIO)
    finite = p < -1.0 - TAIL_SLOPE_MARGIN
    k = np.where(finite, -1.0 - p, 1.0)
    shape = _log_factor_integral(q, k * np.where(has_log, s[..., 0], 1.0))
    rem = np.where(finite, h * vals[..., 0] / k * shape, np.inf)
    return np.where(positive, rem, 0.0), np.where(positive, p, -np.inf)


def tail_remainder(f: Callable[[np.ndarray], np.ndarray], r) -> tuple:
    """(int_r^inf f, fitted exponent p) of the tail model at each r.

    One call of the vectorized f at r, 4r and 16r. The integral is inf where
    the fitted exponent does not clear -1 - TAIL_SLOPE_MARGIN.
    """
    r = np.asarray(r, dtype=float)
    pts = r[..., None] * _FIT_POINTS
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    return _fit_remainder(r, vals)


@dataclass
class TailTruncations:
    """int_start^inf f truncated at growing horizons: the panel integral to
    each horizon, the same plus the tail model's remainder, and the fitted
    exponent p there."""

    horizons: tuple
    truncated: tuple
    corrected: tuple
    exponents: tuple
    converged: bool

    @property
    def value(self) -> float:
        return self.corrected[-1] if self.converged else math.inf


def _truncation_block(f: Callable[[np.ndarray], np.ndarray], lo: float,
                      horizons: np.ndarray) -> tuple:
    """Panel integrals of each row of f over [lo, h_1], [h_1, h_2], ...
    and the remainders past each h_i, from one call of f."""
    bounds = np.concatenate([[lo], horizons])
    counts = np.maximum(1, np.ceil(PANELS_PER_DECADE * np.log10(
        bounds[1:] / bounds[:-1]) - 1e-9).astype(int))
    s_edges = np.concatenate([np.linspace(math.log(a), math.log(b), n + 1)[:-1]
                              for a, b, n in zip(bounds, bounds[1:], counts)]
                             + [[math.log(bounds[-1])]])
    s_nodes, half = gauss_nodes(s_edges[:-1], s_edges[1:])
    nodes = np.exp(s_nodes)
    pts = horizons[:, None] * _FIT_POINTS
    vals = np.asarray(f(np.concatenate([nodes.ravel(), pts.ravel()])),
                      dtype=float)
    panels = gauss_sum(vals[:, :nodes.size].reshape(
        (-1,) + nodes.shape) * nodes, half)
    segment = np.add.reduceat(
        panels, np.concatenate([[0], np.cumsum(counts)[:-1]]), axis=-1)
    # row by row: the tail model's matrix product sums a row in an order
    # that depends on the number of rows
    rem, p = zip(*(_fit_remainder(horizons, row[nodes.size:].reshape(pts.shape))
                   for row in vals))
    return segment, rem, p


def truncated_tail(f: Callable[[np.ndarray], np.ndarray], start: float,
                   horizons: Sequence[float], rel_threshold: float) -> list:
    """Truncations of int_start^inf of each integrand, corrected by the tail
    model: f gives one row of values per integrand, shape (k, r.size), and
    the result is one TailTruncations per row.

    The given horizons are the first schedule, integrated in one call of the
    vectorized f. Past them the horizons grow x10, one call each, until the
    last two corrected values of a row agree to rel_threshold, its last one
    is inf (the fit shows divergence), or a horizon reaches HORIZON_CAP. A
    row that stops takes no further horizons, so each reads as if it had
    been integrated alone.
    """
    hs = np.array([float(h) for h in horizons])
    if hs.size < 2 or np.any(np.diff(hs) <= 0.0):
        raise ValueError("need at least two increasing truncation horizons")
    if hs[0] <= start:
        raise ValueError("first horizon must exceed the integration start")
    segment, rem, p = _truncation_block(f, start, hs)
    truncated = [list(np.cumsum(row)) for row in segment]
    corrected = [list(np.asarray(row) + r) for row, r in zip(truncated, rem)]
    exponents = [list(row) for row in p]
    horizons_out = list(hs)

    def cauchy(row: list) -> bool:
        a, b = row[-2], row[-1]
        return (math.isfinite(a) and math.isfinite(b) and
                abs(b - a) <= rel_threshold * abs(b))

    def going(i: int) -> bool:
        return (not cauchy(corrected[i]) and math.isfinite(corrected[i][-1])
                and horizons_out[-1] < HORIZON_CAP)

    active = [i for i in range(len(corrected)) if going(i)]
    while active:
        h = min(10.0 * horizons_out[-1], HORIZON_CAP)
        segment, rem, p = _truncation_block(f, horizons_out[-1], np.array([h]))
        horizons_out.append(h)
        for i in active:
            truncated[i].append(truncated[i][-1] + float(segment[i, 0]))
            corrected[i].append(truncated[i][-1] + float(rem[i][0]))
            exponents[i].append(float(p[i][0]))
        active = [i for i in active if going(i)]
    return [TailTruncations(
        horizons=tuple(horizons_out[:len(c)]), truncated=tuple(map(float, t)),
        corrected=tuple(map(float, c)), exponents=tuple(map(float, e)),
        converged=cauchy(c)) for t, c, e in zip(truncated, corrected, exponents)]


def _power_law_integral(f: Callable[[np.ndarray], np.ndarray], r: np.ndarray,
                        b: float) -> np.ndarray:
    """int_r^b c s^p ds for r < b, the power law through f(a) and
    f(min(4a, b)): a = r where f(r) is finite, else the rung POLE_FIT_RUNGS
    above the first of r, 4r, 16r, ... where f is finite.

    With L = log(b/r) and x = (p + 1) L this is r f(r) L expm1(x)/x, formed
    as L e^(log r + log f(r) + max(x, 0)) (1 - e^-|x|)/|x|, log f(r) carried
    down from a by the power law, so that nothing overflows before the
    result does; +inf where f overflows up to b.
    """
    a = r
    s = np.minimum(_FIT_RATIO * a, b)
    fa, fs = np.asarray(f(np.concatenate([a, s])), dtype=float).reshape(2, -1)
    over = np.isinf(fa)
    if over.any():
        # the rungs r 4^k up to b, POLE_FIT_RUNGS + 1 past the first that
        # reaches it
        count = math.ceil((math.log(b) - math.log(r[over].min()))
                          / math.log(_FIT_RATIO)) + POLE_FIT_RUNGS + 2
        rungs = np.minimum(np.ldexp(r[over, None], 2 * np.arange(count)), b)
        vals = np.asarray(f(rungs.ravel()), dtype=float).reshape(rungs.shape)
        k = np.isfinite(vals).argmax(axis=1) + POLE_FIT_RUNGS
        rows = np.arange(k.size)
        a = r.copy()
        a[over], s[over] = rungs[rows, k], rungs[rows, k + 1]
        fa[over], fs[over] = vals[rows, k], vals[rows, k + 1]
    span = math.log(b) - np.log(r)  # b/r itself overflows for subnormal r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.log(fs / fa) / np.log(s / a)
        x = (p + 1.0) * span
        shape = np.where(x == 0.0, 1.0, -np.expm1(-np.abs(x)) / np.abs(x))
        logf = np.log(fa) + np.where(over, p * (np.log(r) - np.log(a)), 0.0)
        val = span * np.exp(np.log(r) + logf + np.maximum(x, 0.0)) * shape
    return np.where(np.isinf(fa), np.inf, val)


def _knots(x, y) -> tuple:
    """(x, y) as float arrays, checked as interpolation knots and values."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError("need at least 2 knots and one value per knot")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("knots and values must be finite")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("knots must be strictly increasing")
    return x, y


def _pchip_end(h0, h1, m0, m1) -> float:
    """One-sided three-point end slope, set to 0 or 3 m0 to keep the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_slopes(x, y) -> np.ndarray:
    """Knot slopes of the monotone piecewise cubic (PCHIP) through (x, y).

    Fritsch-Butland: 0 where the secants m_(k-1), m_k change sign or one is
    0, else the weighted harmonic mean (w1 + w2) / (w1/m_(k-1) + w2/m_k),
    w1 = 2h_k + h_(k-1), w2 = h_k + 2h_(k-1); one-sided three-point slopes at
    the ends. The arithmetic is scipy's PchipInterpolator's, so the values
    are the same bit for bit.
    """
    x, y = _knots(x, y)
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        return np.full(2, m[0])
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return d


class Hermite:
    """Cubic Hermite interpolant through (x_k, y_k) with slopes d_k; NaN
    outside [x_0, x_n].

    On [x_k, x_(k+1)], with h = x_(k+1) - x_k, m the secant and
    t = (d_k + d_(k+1) - 2m)/h, the coefficients are c0 = t/h,
    c1 = (m - d_k)/h - t, c2 = d_k, c3 = y_k; with s = x - x_k the value is
    c3 + c2 s + c1 s^2 + c0 (s^2 s) and the derivative c2 + (2c1) s +
    (3c0) s^2, summed in that order. This is the arithmetic of scipy's
    CubicHermiteSpline and of its derivative() spline, so the results are
    the same bit for bit. Every coefficient array carries a NaN entry at
    either end and the last breakpoint sits one ulp past x_n, so one
    searchsorted finds the interval and a point outside the knots reads NaN
    without a test.
    """

    def __init__(self, x, y, slopes):
        x, y = _knots(x, y)
        d = np.asarray(slopes, dtype=float)
        if d.shape != x.shape:
            raise ValueError("need one slope per knot")
        h = np.diff(x)
        m = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self._breaks = x.copy()
        self._breaks[-1] = np.nextafter(x[-1], math.inf)
        nan = [math.nan]
        self._coeffs = tuple(np.concatenate([nan, c, nan]) for c in (
            x[:-1], t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))

    def __call__(self, x, nu: int = 0) -> np.ndarray:
        """Values (nu = 0) or first derivatives (nu = 1), shaped like x."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        i = self._breaks.searchsorted(flat, "right")
        xk, c0, c1, c2, c3 = self._coeffs
        s = flat - xk[i]
        s2 = s * s
        if nu == 0:
            out = c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)
        elif nu == 1:
            out = c2[i] + 2.0 * c1[i] * s + 3.0 * c0[i] * s2
        else:
            raise ValueError("nu must be 0 or 1")
        return out.reshape(x.shape)


class TailTable:
    """T(r) = int_r^inf f of a vectorized positive f, callable on arrays.

    Reverse cumulative Gauss panels over `edges`, extended past the last
    given edge by TAIL_PANEL_DECADES / k decades of log panels (k = -1 - p,
    the tail model's decay there, at most MAX_TAIL_DECADES), so the model's
    own error enters only through a remainder about 10^-TAIL_PANEL_DECADES
    of the tail. The remainder anchors the far end; T is read through a
    log-log cubic Hermite spline with the exact slope -r f(r)/T(r). Past the
    extended edges T is the tail model's remainder itself, one vectorized
    call for all such points. Below the first edge e0 it is T(e0) plus the
    pole model's int_r^e0 f, reading f only inside [r, e0]; +inf only where
    that integral overflows.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray],
                 edges: np.ndarray, name: str = "tail integral"):
        rs = np.asarray(edges, dtype=float)
        self._f, self._name = f, name
        # p = -inf where f already underflows: nothing left to extend over
        decades = min(MAX_TAIL_DECADES,
                      TAIL_PANEL_DECADES / (-1.0 - float(self._far(rs[-1:])[1][0])))
        if decades > 0.0:
            count = math.ceil(PANELS_PER_DECADE * decades)
            rs = np.concatenate([rs, rs[-1] * np.logspace(0.0, decades,
                                                          count + 1)[1:]])
        vals = float(self._far(rs[-1:])[0][0]) + np.concatenate(
            [np.cumsum(gauss_panels(f, rs)[::-1])[::-1], [0.0]])
        # drop far edges where the tail underflows, so its logarithm is finite
        self.edges = rs = rs[vals > 0.0]
        vals = vals[vals > 0.0]
        self._spline = Hermite(np.log(rs), np.log(vals), -rs * f(rs) / vals)

    def _far(self, r: np.ndarray) -> tuple:
        rem, p = tail_remainder(self._f, r)
        if not np.all(np.isfinite(rem)):
            raise IntegralDivergenceError(
                f"{self._name} diverges: fitted tail exponent "
                f"{float(np.max(p)):.4f} past r = {float(np.min(r)):.4g} "
                f"is not below -1 - {TAIL_SLOPE_MARGIN}")
        return rem, p

    def _near(self, r: np.ndarray) -> np.ndarray:
        """int_r^e0 f: Gauss panels from max(r, c) to e0, c = e0 10^-D with
        D = POLE_PANEL_DECADES, and the power law from r to c."""
        e0 = self.edges[0]
        c = e0 * 10.0 ** -POLE_PANEL_DECADES
        top = np.maximum(r, c)
        edges = np.geomspace(top, e0, PANELS_PER_DECADE * POLE_PANEL_DECADES + 1,
                             axis=-1)
        with np.errstate(divide="ignore", over="ignore"):
            out = gauss_intervals(self._f, edges[:, :-1], edges[:, 1:]).sum(axis=-1)
            low = r < c
            if np.any(low):
                out[low] += _power_law_integral(self._f, r[low], c)
        return out

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        flat = rr.ravel()
        lo, hi = self.edges[0], self.edges[-1]
        # ufuncs and array methods: np.clip and np.any cost more than the
        # spline itself on the single radii most reads ask for
        out = np.exp(self._spline(np.log(np.minimum(np.maximum(flat, lo), hi))))
        far = flat > hi
        if far.any():
            out[far] = self._far(flat[far])[0]
        near = flat < lo
        if near.any():
            out[near] += self._near(flat[near])
        return float(out[0]) if rr.ndim == 0 else out.reshape(rr.shape)


def invert_increasing(fn: Callable[[np.ndarray], np.ndarray], target,
                      xs: np.ndarray, ys: np.ndarray):
    """Solve fn(x) = target for increasing fn with values ys at sorted knots
    xs, for one target or an array of them; fn takes a 1-d array and returns
    its values as an array or a list.

    A target at or below ys[0] returns xs[0]. The knots bracket the root;
    past the last one the bracket grows by a width that starts at the last
    knot spacing and doubles. Secant steps, bisecting where one leaves the
    bracket, stop once a step moves x by at most 1e-12. Each target keeps
    its own bracket in Python floats and takes the steps it would take
    alone; one call of fn per step serves the targets still at work, so a
    batch gives each root bit for bit.
    """
    target = np.asarray(target, dtype=float)
    goals = target.ravel().tolist()
    roots = [float(xs[0])] * len(goals)
    # (n, goal, lo, hi, fn(lo), fn(hi)) of each bracketed target n, and
    # (n, goal, hi, fn(hi), width) of each target past the last knot
    work, grow = [], []
    for n, (goal, i) in enumerate(zip(goals, np.searchsorted(
            ys, goals).tolist())):
        if 0 < i < xs.size:
            work.append((n, goal, float(xs[i - 1]), float(xs[i]),
                         float(ys[i - 1]), float(ys[i])))
        elif i == xs.size:
            grow.append((n, goal, float(xs[-1]), float(ys[-1]),
                         float(xs[-1] - xs[-2])))
    for _ in range(2100):
        if not grow:
            break
        his = [hi + width for n, goal, hi, fhi, width in grow]
        left = []
        # the old hi is the new lo
        for (n, goal, lo, flo, width), hi, fhi in zip(grow, his, _call(fn, his)):
            if fhi >= goal:
                work.append((n, goal, lo, hi, flo, fhi))
            else:
                left.append((n, goal, hi, fhi, 2.0 * width))
        grow = left
    if grow:
        raise BracketError("bracket expansion exhausted before reaching target")
    # (n, goal, lo, hi, xa, fa, xb, fb): the bracket and the last two iterates
    work = [(n, goal, lo, hi, lo, flo - goal, hi, fhi - goal)
            for n, goal, lo, hi, flo, fhi in work]
    for _ in range(60):
        if not work:
            break
        steps = []
        for n, goal, lo, hi, xa, fa, xb, fb in work:
            x = xb - fb * (xb - xa) / (fb - fa) if fb != fa else lo
            steps.append(x if lo < x < hi else 0.5 * (lo + hi))
        left = []
        for (n, goal, lo, hi, xa, fa, xb, fb), x, fx in zip(
                work, steps, _call(fn, steps)):
            fx -= goal
            roots[n] = x
            if fx == 0.0 or abs(x - xb) <= 1e-12:
                continue
            lo, hi = (x, hi) if fx < 0.0 else (lo, x)
            left.append((n, goal, lo, hi, xb, fb, x, fx))
        work = left
    return roots[0] if target.ndim == 0 else np.reshape(roots, target.shape)


def _call(fn: Callable[[np.ndarray], np.ndarray], xs: list) -> list:
    """fn at a list of floats, as a list."""
    values = fn(np.array(xs))
    return values.tolist() if isinstance(values, np.ndarray) else values


@dataclass(frozen=True)
class Check:
    """A verdict: a measured value against its limit. It passes iff value <=
    limit, so a nan value fails; a lower limit is stated negated, as
    Check(-value, -limit). Its margin is (limit - value) / |limit|, or
    limit - value where the limit is 0: >= 0 iff it passes, nan at nan."""

    value: float
    limit: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.limit)

    @property
    def margin(self) -> float:
        gap = float(self.limit - self.value)
        return gap / abs(self.limit) if self.limit else gap + 0.0  # no -0.0


def max_rise(q: np.ndarray) -> float:
    """max (q[i+1] - q[i]) / q[i] over an array, and at least 0: a step of 0
    counts 0 even from 0, a rise from 0 is inf, a nan term gives nan."""
    step = np.diff(q)
    with np.errstate(divide="ignore"):
        return float(np.max(np.divide(step, q[:-1], out=np.zeros_like(step),
                                      where=step != 0.0), initial=0.0))


def nonneg_max(*values) -> float:
    """The largest of 0 and every entry of `values`, scalars or arrays; nan
    if any is nan, where Python's max(0.0, nan) is 0.0, and never -0.0."""
    return float(np.max(np.hstack((0.0, *values)))) + 0.0


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
