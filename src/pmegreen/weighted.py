"""Green-weighted integrability: the L1_G norm, power-law dichotomy, separation.

The weighted norm is plain mass inside the unit ball plus Green-weighted mass
outside. Improper outer integrals are diagnosed through tail-corrected
truncations: the local log-slope of the integrand at each horizon feeds a
power-law tail estimate, and convergence means the corrected values go Cauchy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import GrowthFunction, VolumeProfile
from .green import GreenData
from .numerics import gauss_intervals, integrate, invert_decreasing

DEFAULT_HORIZONS = (10.0, 1e2, 1e3, 1e4)
# a tail is declared integrable only when its local slope clears -1 by this much
SLOPE_MARGIN = 0.05


@dataclass
class WeightedNorm:
    """Green-weighted L1 data for one radial function."""

    inner: float
    outer: float
    total: float
    truncation_radius: float
    tail_estimate: float
    converged: bool
    outer_truncated: float
    horizons: tuple
    corrected: tuple
    slope_at_horizon: float


def _tail_corrected(integrand: Callable[[np.ndarray], np.ndarray],
                    start: float, horizons: Sequence[float],
                    rel_threshold: float) -> dict:
    """Truncations of int_start^inf integrand with power-law tail correction."""
    horizons = tuple(float(h) for h in horizons)
    if len(horizons) < 2 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("need at least two increasing truncation horizons")
    if horizons[0] <= start:
        raise ValueError("first horizon must exceed the integration start")
    truncated = []
    corrected = []
    slopes = []
    lo = start
    running = 0.0
    for h in horizons:
        running += integrate(lambda s: float(integrand(s)), lo, h, abs_tol=1e-12)
        lo = h
        truncated.append(running)
        g_lo, g_hi = float(integrand(h / 2.0)), float(integrand(h))
        if g_hi <= 0.0 or g_lo <= 0.0:
            slopes.append(-math.inf)
            corrected.append(running)
            continue
        p = math.log(g_hi / g_lo) / math.log(2.0)
        slopes.append(p)
        if p < -1.0 - SLOPE_MARGIN:
            corrected.append(running + g_hi * h / (-p - 1.0))
        else:
            corrected.append(math.inf)
    tail_est = (corrected[-1] - truncated[-1]
                if math.isfinite(corrected[-1]) else math.inf)
    converged = (math.isfinite(corrected[-1]) and math.isfinite(corrected[-2]) and
                 abs(corrected[-1] - corrected[-2]) <=
                 rel_threshold * abs(corrected[-1]))
    return {"truncated": truncated, "corrected": corrected, "slopes": slopes,
            "tail_estimate": tail_est, "converged": converged,
            "value": corrected[-1] if converged else math.inf}


def _weighted_l1(profile: VolumeProfile, fn: Callable, weight: Callable,
                 horizons: Sequence[float], rel_threshold: float) -> WeightedNorm:
    """int_{B_1} |f| + int_{M \\ B_1} |f| w with truncation diagnostics."""
    inner = integrate(
        lambda r: abs(float(fn(r))) * float(profile.area(r)), 0.0, 1.0,
        abs_tol=1e-12)
    diag = _tail_corrected(
        lambda r: abs(float(fn(r))) * float(weight(r)) * float(profile.area(r)),
        1.0, horizons, rel_threshold)
    outer = diag["value"]
    return WeightedNorm(
        inner=inner, outer=outer, total=inner + outer,
        truncation_radius=float(horizons[-1]),
        tail_estimate=diag["tail_estimate"], converged=diag["converged"],
        outer_truncated=diag["truncated"][-1], horizons=tuple(horizons),
        corrected=tuple(diag["corrected"]), slope_at_horizon=diag["slopes"][-1])


def l1g_norm(profile: VolumeProfile, fn: Callable[[np.ndarray], np.ndarray],
             horizons: Sequence[float] = DEFAULT_HORIZONS,
             rel_threshold: float = 1e-3,
             green: Optional[GreenData] = None) -> WeightedNorm:
    """Pole-centered weighted norm: int_{B_1} |f| + int_{M \\ B_1} |f| G.

    Divergence is reported through converged=False with an infinite total; the
    per-horizon corrected truncations stay available for diagnosis.
    """
    gd = green or GreenData(profile)
    return _weighted_l1(profile, fn, gd.exact, horizons, rel_threshold)


def l1_norm_radial(profile: VolumeProfile, fn: Callable,
                   horizons: Sequence[float] = DEFAULT_HORIZONS,
                   rel_threshold: float = 1e-3) -> WeightedNorm:
    """Unweighted radial L1 norm with the same truncation diagnostics."""
    return _weighted_l1(profile, fn, lambda r: 1.0, horizons, rel_threshold)


@dataclass
class PowerLawClass:
    exponent: float
    alpha_infinity: float
    in_l1: bool
    in_l1g: bool
    l1_diag: WeightedNorm
    l1g_diag: WeightedNorm

    @property
    def consistent(self) -> bool:
        return (self.in_l1 == self.l1_diag.converged and
                self.in_l1g == self.l1g_diag.converged)


def volume_growth_exponent(profile: VolumeProfile) -> float:
    """alpha_infinity, checked to lie in (2, n] as the dichotomy needs."""
    alpha = profile.alpha_infinity
    if alpha is None or not 2.0 < alpha <= profile.dimension + 1e-9:
        raise ValueError("power-law classification needs a volume growth "
                         f"exponent in (2, {profile.dimension}], got {alpha}")
    return float(alpha)


def powerlaw_classify(profile: VolumeProfile, a: float,
                      horizons: Sequence[float] = DEFAULT_HORIZONS,
                      rel_threshold: float = 1e-3,
                      green: Optional[GreenData] = None) -> PowerLawClass:
    """Membership of u_a(r) = (1 + r)^{-a} in L1 and in the weighted space.

    The decision rule is strict: plain integrability needs a above the volume
    growth exponent, weighted integrability needs a > 2; both boundaries are
    excluded. Truncated quadratures corroborate the verdicts.
    """
    alpha = volume_growth_exponent(profile)
    u_a = lambda r: np.power(1.0 + np.asarray(r, dtype=float), -a)
    l1 = l1_norm_radial(profile, u_a, horizons, rel_threshold)
    l1g = l1g_norm(profile, u_a, horizons, rel_threshold, green=green)
    return PowerLawClass(
        exponent=a, alpha_infinity=alpha,
        in_l1=a > alpha, in_l1g=a > 2.0,
        l1_diag=l1, l1g_diag=l1g)


@dataclass
class SeparatingSequence:
    """Unit-mass shells marching out fast enough to separate L1 from L1_G."""

    distances: np.ndarray
    shells: np.ndarray           # (J, 2) inner/outer radii
    masses: np.ndarray
    l1_partials: np.ndarray
    weighted_increments: np.ndarray
    weighted_partials: np.ndarray
    increment_constant: float    # max over j of increment * 2^j
    tail_targets: np.ndarray     # 2^{-j} certification targets
    r0: float


def build_separating_sequence(profile: VolumeProfile, growth: GrowthFunction,
                              count: int,
                              green: Optional[GreenData] = None) -> SeparatingSequence:
    """Greedy distances d_j with T(d_j - 1) <= 2^{-j} and d_j >= 4 d_{j-1}.

    Each shell [d_j - 1/2, d_j + 1/2] carries exactly unit mass, so the plain
    partial sums grow linearly while the Green-weighted increments are
    summable: their certified decay is the tail bound 2^{-j} times a recorded
    constant.
    """
    if count < 1:
        raise ValueError("count must be positive")
    gd = green or GreenData(profile)
    r0 = growth.r0
    distances = np.empty(count)
    prev = None
    for j in range(1, count + 1):
        target = 2.0 ** (-j)
        if growth.tail(r0) <= target:
            d_star = r0 + 1.0
        else:
            d_star = 1.0 + invert_decreasing(
                lambda R: growth.tail(R), target, r0)
        floor = 4.0 * r0 + 4.0 if prev is None else 4.0 * prev
        d = max(floor, d_star)
        if growth.tail(d - 1.0) > target * (1.0 + 1e-9):
            raise ArithmeticError("separating distance failed its tail certificate")
        distances[j - 1] = d
        prev = d

    shells = np.column_stack([distances - 0.5, distances + 0.5])
    # 8 panels per shell; the shell volume comes from the same Gauss rule of S
    # as the weighted mass, not from a difference of two large volumes
    seg = np.linspace(shells[:, 0], shells[:, 1], 9, axis=1)
    area = lambda r: np.asarray(profile.area(r), dtype=float)
    vols = gauss_intervals(area, seg[:, :-1], seg[:, 1:]).sum(axis=1)
    weighted = gauss_intervals(
        lambda r: np.asarray(gd.exact(r), dtype=float) * area(r),
        seg[:, :-1], seg[:, 1:]).sum(axis=1)
    increments = weighted / vols
    partial_weighted = np.cumsum(increments)
    j_idx = np.arange(1, count + 1)
    constant = float(np.max(increments * 2.0 ** j_idx))
    return SeparatingSequence(
        distances=distances, shells=shells, masses=np.ones(count),
        l1_partials=j_idx.astype(float),
        weighted_increments=increments, weighted_partials=partial_weighted,
        increment_constant=constant, tail_targets=2.0 ** (-j_idx.astype(float)),
        r0=r0)
