"""Green-weighted integrability: the L1_G norm, power-law dichotomy, separation.

The weighted norm is plain mass inside the unit ball plus Green-weighted mass
outside. The ball is integrated on fixed Gauss panels in log r down to 1e-8,
and below that by the same tail model as the outside, in 1/r. The outer part runs through numerics' tail model: cumulative Gauss panels in
s = log r to each truncation horizon, corrected by the remainder of an
r^p (log r)^q fit, with horizons growing until the corrected values go Cauchy
or the fitted exponent shows divergence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import GrowthFunction, ProfileError, VolumeProfile
from .green import GreenData
from .numerics import (PANELS_PER_DECADE, gauss_intervals, gauss_panels,
                       invert_increasing, tail_remainder, truncated_tail)

# the first truncation schedule; past it the horizons grow x10
DEFAULT_HORIZONS = (10.0, 1e2, 1e3, 1e4)
# the unit ball on log panels down to _POLE; below it the tail model in 1/r
_POLE = 1e-8
_BALL_EDGES = np.geomspace(_POLE, 1.0, 8 * PANELS_PER_DECADE + 1)


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
    horizons: tuple              # the given schedule and the ones grown past it
    corrected: tuple
    slope_at_horizon: float      # the fitted tail exponent p at the last horizon


def _weighted_l1(profile: VolumeProfile, fn: Callable, weights: tuple,
                 horizons: Sequence[float], rel_threshold: float) -> list:
    """int_{B_1} |f| + int_{M \\ B_1} |f| w with truncation diagnostics, for
    each weight w; the density |f| S is read once for all of them."""
    density = lambda r: np.abs(np.asarray(fn(r), dtype=float)) * np.asarray(
        profile.area(r), dtype=float)
    # int_0^POLE g dr = int_{1/POLE}^inf g(1/t) t^-2 dt, a tail like any other
    inner = float(np.sum(gauss_panels(density, _BALL_EDGES)) + tail_remainder(
        lambda t: density(1.0 / t) / (t * t), 1.0 / _POLE)[0])

    def weighted(r):
        d = density(r)
        return np.stack([d * np.asarray(w(r), dtype=float) for w in weights])

    return [WeightedNorm(
        inner=inner, outer=diag.value, total=inner + diag.value,
        truncation_radius=diag.horizons[-1],
        tail_estimate=diag.corrected[-1] - diag.truncated[-1],
        converged=diag.converged and math.isfinite(inner),
        outer_truncated=diag.truncated[-1],
        horizons=diag.horizons, corrected=diag.corrected,
        slope_at_horizon=diag.exponents[-1])
        for diag in truncated_tail(weighted, 1.0, horizons, rel_threshold)]


def l1g_norm(profile: VolumeProfile, fn: Callable[[np.ndarray], np.ndarray],
             horizons: Sequence[float] = DEFAULT_HORIZONS,
             rel_threshold: float = 1e-3) -> WeightedNorm:
    """Pole-centered weighted norm: int_{B_1} |f| + int_{M \\ B_1} |f| G.

    `horizons` is the first truncation schedule; the horizons grow x10 past
    it until the corrected values agree to rel_threshold (numerics'
    truncated_tail). Divergence is reported through converged=False with an
    infinite total; the per-horizon corrected truncations stay available for
    diagnosis.
    """
    return _weighted_l1(profile, fn, (profile.green.exact,), horizons,
                        rel_threshold)[0]


def l1_norm_radial(profile: VolumeProfile, fn: Callable,
                   horizons: Sequence[float] = DEFAULT_HORIZONS,
                   rel_threshold: float = 1e-3) -> WeightedNorm:
    """Unweighted radial L1 norm with the same truncation diagnostics."""
    return _weighted_l1(profile, fn, (np.ones_like,), horizons,
                        rel_threshold)[0]


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
        raise ProfileError("power-law classification needs a volume growth "
                           f"exponent in (2, {profile.dimension}], got {alpha}")
    return float(alpha)


def powerlaw_classify(profile: VolumeProfile, a: float,
                      horizons: Sequence[float] = DEFAULT_HORIZONS,
                      rel_threshold: float = 1e-3) -> PowerLawClass:
    """Membership of u_a(r) = (1 + r)^{-a} in L1 and in the weighted space.

    The decision rule is strict: plain integrability needs a above the volume
    growth exponent, weighted integrability needs a > 2; both boundaries are
    excluded. The truncated tail integrals corroborate the verdicts.
    """
    alpha = volume_growth_exponent(profile)
    u_a = lambda r: np.power(1.0 + np.asarray(r, dtype=float), -a)
    l1, l1g = _weighted_l1(profile, u_a, (np.ones_like, profile.green.exact),
                           horizons, rel_threshold)
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

    The roots of T(d - 1) = 2^{-j}, j = 1..count, are one batched call of
    numerics' invert_increasing on -log T against log R over the growth
    knots; d_1 >= 4 r0 + 4. Each shell [d_j - 1/2, d_j + 1/2] carries
    exactly unit mass, so the plain partial sums grow linearly while the
    Green-weighted increments are summable: their certified decay is the
    tail bound 2^{-j} times a recorded constant.
    """
    if count < 1:
        raise ValueError("count must be positive")
    gd = green or profile.green
    r0 = growth.r0
    knots = growth.knots
    xs, ys = np.log(knots), -np.log(growth.tail(knots))
    j_idx = np.arange(1, count + 1)
    targets = 2.0 ** (-j_idx.astype(float))

    def neg_log_tail(x: np.ndarray) -> list:
        # math's exp and log, as on each root alone
        return [-math.log(v) for v in growth.tail_each(
            np.array([math.exp(u) for u in x.tolist()])).tolist()]

    roots = invert_increasing(neg_log_tail, [-math.log(v) for v in
                                             targets.tolist()], xs, ys)
    distances = np.empty(count)
    floor = 4.0 * r0 + 4.0
    for j, root in enumerate(roots.tolist()):
        distances[j] = max(floor, 1.0 + math.exp(root))
        floor = 4.0 * distances[j]
    if np.any(growth.tail_each(distances - 1.0) > targets * (1.0 + 1e-9)):
        raise ArithmeticError("separating distance failed its tail certificate")

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
    constant = float(np.max(increments * 2.0 ** j_idx))
    return SeparatingSequence(
        distances=distances, shells=shells, masses=np.ones(count),
        l1_partials=j_idx.astype(float),
        weighted_increments=increments, weighted_partials=partial_weighted,
        increment_constant=constant, tail_targets=targets,
        r0=r0)
