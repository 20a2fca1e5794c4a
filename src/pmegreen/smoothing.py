"""Sup-norm smoothing bounds driven by volume growth and Green-mass envelopes.

The large-time bound reads the decay rate off an increasing radius-to-scale
map built from a volume lower envelope and the Green-mass envelope of a growth
function; the small-time branch is the dimensional power law. The log-volume
family needs the principal Lambert branch, computed here by Halley's
iteration.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .geometry import GrowthFunction, VolumeProfile
from .numerics import invert_increasing

THRESHOLD_TIE_REL = 1e-9
LAMBERT_MAX_ITER = 32


class DomainError(ValueError):
    """Evaluation requested outside the validity range of a bound; `t` is
    the time at fault, where there is one."""

    def __init__(self, message: str, t: Optional[float] = None):
        super().__init__(message)
        self.t = t


def decay_exponent(m: float, lam: float) -> float:
    """lam / ((m - 1) lam + 2): the sup-norm decay rate on volume ~ r^lam."""
    return lam / ((m - 1.0) * lam + 2.0)


def green_ball_envelope(growth: GrowthFunction, radius):
    """R f(R) T(R) + R^2: the growth-driven envelope of the Green ball mass.

    Strictly increasing in R; defined for R >= r0. Takes and returns arrays.
    """
    R = np.asarray(radius, dtype=float)
    if np.any(R < growth.r0 * (1.0 - 1e-12)):
        raise DomainError(f"envelope needs R >= r0 = {growth.r0}, got {radius}")
    env = R * np.asarray(growth.rate(R), dtype=float) * growth.tail(R) + R * R
    return float(env) if env.ndim == 0 else env


def _envelope_each(growth: GrowthFunction, R: np.ndarray) -> np.ndarray:
    """green_ball_envelope at each radius R >= r0 of a 1-d array, bit for bit
    its value at that one radius."""
    return (R * np.asarray(growth.rate(R), dtype=float) * growth.tail_each(R)
            + R * R)


def _pow(x: float, p: float) -> float:
    """x ** p, inf where Python's float power raises: on overflow, or for 0
    to a negative power."""
    try:
        return x ** p
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _product(*terms) -> float:
    """prod x ** p over (x, p) terms, x >= 0: left to right in doubles where
    every factor is a normal double, through logs otherwise; inf or 0 only
    where the product itself leaves double range."""
    factors = [_pow(x, p) for x, p in terms]
    if all(sys.float_info.min <= f < math.inf for f in factors):
        return math.prod(factors)
    log = sum(p * (math.log(x) if x > 0.0 else -math.inf) for x, p in terms)
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


def _in_range(what: str, value: float, t: float) -> float:
    """value, unless it is 0, inf or nan: then a DomainError naming t."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} is {value:g} at t = {t:g}, outside double "
                          "range", t=t)
    return value


def _power_rate(m: float, lam: float, t: float, norm: float) -> float:
    """t^{-lam/((m-1)lam+2)} norm^{2/((m-1)lam+2)}: the power-law decay on
    volume ~ r^lam."""
    return _product((t, -decay_exponent(m, lam)),
                    (norm, 2.0 / ((m - 1.0) * lam + 2.0)))


def _positive_finite(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:  # nan fails too
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class BoundEvaluation:
    t: float
    norm_value: float
    regime: str                      # "large-time", "capped" or "small-time"
    value: float
    r_star: Optional[float]          # radius behind the large-time branch
    threshold_time: float
    tie_values: Optional[tuple] = None   # (large, small) when t sits on the threshold


@dataclass(eq=False)
class SmoothingBound:
    """Scaffolding of the sup-norm decay bound for one (m, geometry) pair.

    volume_floor is the pole-centered volume lower envelope, a profile's V
    through from_profile; the radius-to-scale map is
    volume_floor(R) * green_ball_envelope(R)^{1/(m-1)}. It is tabulated once
    on the growth function's knots, with its value at r0, and inverted by
    numerics' invert_increasing when a bound is evaluated in the large-time
    regime. volume_floor takes and returns arrays. Both branches carry the
    constant 1.
    """

    m: float
    dimension: int
    growth: GrowthFunction
    volume_floor: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not self.m > 1.0:
            raise ValueError("smoothing bounds need m > 1")

    @classmethod
    def from_profile(cls, profile: VolumeProfile, m: float,
                     growth: GrowthFunction) -> "SmoothingBound":
        return cls(m=m, dimension=profile.dimension, growth=growth,
                   volume_floor=profile.volume)

    def data_scale(self, radius):
        """theta(R): the t^{1/(m-1)} ||u0||_1 scale resolved at radius R."""
        theta = self._scale(radius, green_ball_envelope(self.growth, radius))
        return float(theta) if theta.ndim == 0 else theta

    def _scale(self, radius, envelope) -> np.ndarray:
        return np.asarray(self.volume_floor(radius), dtype=float) * np.asarray(
            envelope) ** (1.0 / (self.m - 1.0))

    def _log_scale_each(self, x: np.ndarray) -> list:
        """log data_scale(e^x) at each x of a 1-d array, bit for bit its
        value at that one x: math's exp and log, not numpy's, which differ
        in the last bit."""
        R = np.array([math.exp(v) for v in x.tolist()])
        return [math.log(v) for v in self._scale(
            R, _envelope_each(self.growth, R)).tolist()]

    @cached_property
    def scale_threshold(self) -> float:
        return self.data_scale(self.growth.r0)

    @cached_property
    def _log_scales(self) -> tuple:
        """(log R, log data_scale(R)) on the growth knots."""
        knots = self.growth.knots
        with np.errstate(over="ignore"):  # an inf knot still brackets
            return np.log(knots), np.log(self.data_scale(knots))

    def time_threshold(self, norm1: float) -> float:
        """Time at which the large-time branch takes over, for given L1 data."""
        _positive_finite("norm1", norm1)
        # inf past double range: every t is small-time
        mm = self.m - 1.0
        return _product((self.scale_threshold, mm), (norm1, -mm))

    def radius_for_scale(self, s):
        """Invert the radius-to-scale map at one scale or an array of them;
        each needs to sit at or above the map's r0 value.

        numerics' invert_increasing solves it in (log R, log theta) on the
        knot table, by secant steps to 1e-12 in log R, for all scales at once.
        """
        s = np.asarray(s, dtype=float)
        low = s < self.scale_threshold * (1.0 - 1e-12)
        if low.any():
            raise DomainError(
                f"scale {float(s[low].flat[0])} below the r0 value "
                f"{self.scale_threshold}; the large-time branch does not apply")
        xs, ys = self._log_scales
        with np.errstate(over="ignore"):  # an expanding bracket may pass inf
            x = invert_increasing(self._log_scale_each, np.array(
                [math.log(v) for v in s.ravel().tolist()]), xs, ys)
        # r0 itself at the first knot, not exp(log r0)
        r = np.array([self.growth.r0 if v == xs[0] else math.exp(v)
                      for v in x.tolist()])
        return float(r[0]) if s.ndim == 0 else r.reshape(s.shape)

    def evaluate_l1(self, t: float, norm1: float) -> BoundEvaluation:
        """Sup-norm bound at time t for initial L1 size norm1.

        Past the threshold the bound is min(large-time branch, small-time
        branch at the threshold), regime "capped" where the cap applies: each
        branch decreases, so this is min over s <= t of the two-regime bound,
        still valid since the sup-norm of a solution is nonincreasing.
        """
        return self.evaluate_l1_many([t], norm1)[0]

    def evaluate_l1_many(self, times, norm1: float) -> list:
        """evaluate_l1 at each of `times`, in order, with one radius
        inversion for all large-time ones; each result is bit for bit the
        one evaluate_l1 gives alone. Raises ValueError, before any work,
        where a time or norm1 is not positive and finite, and DomainError
        naming the time where t^{1/(m-1)} norm1 or the bound leaves double
        range; a large-time branch past double range leaves the cap."""
        ts = [float(t) for t in times]
        for t in ts:
            _positive_finite("t", t)
        threshold = self.time_threshold(norm1)
        mm = self.m - 1.0
        small_at = lambda s: _power_rate(self.m, self.dimension, s, norm1)
        late = [t >= threshold * (1.0 - THRESHOLD_TIE_REL) for t in ts]
        if any(late):
            r_stars = self.radius_for_scale(np.array([max(_in_range(
                "t^(1/(m-1)) norm1", _product((t, 1.0 / mm), (norm1, 1.0)),
                t), self.scale_threshold) for t, is_late in zip(ts, late)
                if is_late]))
            large_time = iter(zip(r_stars.tolist(), _envelope_each(
                self.growth, r_stars).tolist()))
        out = []
        for t, is_late in zip(ts, late):
            small = small_at(t)
            if not is_late:
                out.append(BoundEvaluation(
                    t=t, norm_value=norm1, regime="small-time",
                    value=_in_range("the small-time bound", small, t),
                    r_star=None, threshold_time=threshold))
                continue
            r_star, env = next(large_time)
            large = _product((t, -1.0 / mm), (env, 1.0 / mm))
            tie = None
            if abs(t - threshold) <= THRESHOLD_TIE_REL * threshold:
                tie = (large, small)
            cap = small if t <= threshold else small_at(threshold)
            out.append(BoundEvaluation(
                t=t, norm_value=norm1,
                regime="large-time" if large <= cap else "capped",
                value=_in_range("the large-time bound", min(large, cap), t),
                r_star=r_star,
                threshold_time=threshold, tie_values=tie))
        return out


def smoothing_bound_l1g(m: float, dimension: int, t: float,
                        norm_green: float) -> BoundEvaluation:
    """Two-regime sup-norm bound from the Green-weighted norm of the data;
    DomainError naming t where the bound leaves double range."""
    if not m > 1.0:
        raise ValueError("m must exceed 1")
    _positive_finite("t", t)
    _positive_finite("norm_green", norm_green)
    threshold = _product((norm_green, -(m - 1.0)))
    if t >= threshold * (1.0 - THRESHOLD_TIE_REL):
        value = _product((t, -1.0 / m), (norm_green, 1.0 / m))
        regime = "large-time"
    else:
        value = _power_rate(m, dimension, t, norm_green)
        regime = "small-time"
    return BoundEvaluation(t=t, norm_value=norm_green, regime=regime,
                           value=_in_range("the L1_G bound", value, t),
                           r_star=None, threshold_time=threshold)


def lambert_w0(x: float) -> float:
    """Principal Lambert branch on [-1/e, inf]; the branch point returns -1
    and inf returns inf.

    Halley's iteration on w e^w = x, written as w - x e^-w = 0 so that
    nothing overflows for large x, from the branch-point series in
    p = sqrt(2(e x + 1)) below x = -1/4, log1p(x) up to e, and log x -
    log log x beyond; it stops once a step moves w by under 1e-12 relative,
    when the cubic convergence has already reached full precision.
    """
    x = float(x)
    branch_point = -math.exp(-1.0)
    if x < branch_point - 1e-15:
        raise DomainError(f"lambert_w0 needs x >= -1/e, got {x}")
    if x <= branch_point:
        return -1.0
    if x == 0.0 or x == math.inf:
        return x
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    elif x < math.e:
        w = math.log1p(x)
    else:
        log_x = math.log(x)
        w = log_x - math.log(log_x)
    for _ in range(LAMBERT_MAX_ITER):
        f = w - x * math.exp(-w)
        step = f / (w + 1.0 - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-12 * abs(w):
            break
    return w


@dataclass(frozen=True)
class PowerVolumeFamily:
    """Power-law volume floor R^lam; its rate is the power law in lam."""

    dimension: int
    lam: float

    def __post_init__(self):
        if not 2.0 < self.lam <= self.dimension:
            raise ValueError("power family needs 2 < lam <= dimension")


@dataclass(frozen=True)
class LogVolumeFamily:
    """Nearly-quadratic volume floor R^lam log^sigma with log-type growth."""

    dimension: int
    delta: float
    lam: float
    sigma: float

    def __post_init__(self):
        n = self.dimension
        if self.delta <= 1.0:
            raise ValueError("log family needs delta > 1")
        if not 2.0 <= self.lam <= n:
            raise ValueError("log family needs 2 <= lam <= dimension")


def family_rate(family, m: float, t: float, norm1: float) -> float:
    """Closed-form large-time sup-norm rate for the two preset families.

    Power family: t^{-lam/((m-1)lam+2)} norm1^{2/((m-1)lam+2)}.
    Log family: the implicit rate resolved through the principal Lambert
    branch; only defined once the resolved scale exceeds 1. Raises
    DomainError where a power of t or the rate leaves double range.
    """
    if m <= 1.0:
        raise ValueError("m must exceed 1")
    if t <= 0.0 or norm1 <= 0.0:
        raise ValueError("t and norm1 must be positive")
    mm = m - 1.0
    if isinstance(family, PowerVolumeFamily):
        return _in_range("the power-family rate",
                         _power_rate(m, family.lam, t, norm1), t)
    if isinstance(family, LogVolumeFamily):
        a = family.lam + 2.0 / mm
        b = family.sigma + 1.0 / mm
        s = _in_range("t^(1/(m-1)) norm1",
                      _product((t, 1.0 / mm), (norm1, 1.0)), t)
        if b == 0.0:
            resolved = s ** (1.0 / a)
        else:
            arg = (a / b) * _pow(s, 1.0 / b)
            if arg < -math.exp(-1.0):
                raise DomainError("log-family rate undefined: Lambert argument "
                                  "below the branch point at this t")
            resolved = math.exp((b / a) * lambert_w0(arg))
        if resolved <= 1.0:
            raise DomainError("log-family rate needs a resolved scale above 1; "
                              "increase t")
        return _in_range("the log-family rate", _product(
            (t, -1.0 / mm), (resolved, 2.0 / mm),
            (math.log(resolved), 1.0 / mm)), t)
    raise TypeError(f"unknown family {type(family).__name__}")
