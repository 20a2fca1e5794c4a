"""Pole-centered Green functions, their volume surrogate, and radial potentials.

The exact Green function of a radial geometry is G(r) = int_r^inf ds/S(s); the
surrogate replaces 1/S by t/V. Closed forms cover the euclidean and power
presets; everything else, potentials included, runs through cumulative sums of
fixed Gauss panels, anchored by one checked far tail integral.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (AssumptionReport, GrowthFunction, VolumeProfile,
                       check_assumptions, unit_ball_volume, unit_sphere_area)
from .numerics import (IntegralDivergenceError, TailTable, gauss_intervals,
                       gauss_panels)

BOUND_SLACK = 1e-9


class ParabolicProfileError(ArithmeticError):
    """The requested Green quantity diverges for this profile."""


def _closed_exact(profile: VolumeProfile) -> Optional[Callable]:
    n = profile.dimension
    if profile.form == "euclidean":
        sg = unit_sphere_area(n)
        return lambda r: np.power(r, 2.0 - n) / ((n - 2.0) * sg)
    if profile.form == "power":
        lam = profile.params["lam"]
        coeff = profile.params["coeff"]
        if lam <= 2.0:
            raise ParabolicProfileError("power profile with lam <= 2 is parabolic")
        return lambda r: np.power(r, 2.0 - lam) / (coeff * lam * (lam - 2.0))
    return None


def _closed_surrogate(profile: VolumeProfile) -> Optional[Callable]:
    n = profile.dimension
    if profile.form == "euclidean":
        om = unit_ball_volume(n)
        return lambda r: np.power(r, 2.0 - n) / ((n - 2.0) * om)
    if profile.form == "power":
        lam = profile.params["lam"]
        coeff = profile.params["coeff"]
        if lam <= 2.0:
            raise ParabolicProfileError("power profile with lam <= 2 is parabolic")
        return lambda r: np.power(r, 2.0 - lam) / (coeff * (lam - 2.0))
    return None


class GreenData:
    """Cached Green evaluators for a profile.

    Closed-form profiles evaluate directly. The rest get one TailTable of
    1/S or t/V per kind over `edges`: a log grid on [r_min, r_max] joined
    with the table radii of a tabulated profile.
    """

    r_min, r_max = 1e-4, 1e7

    def __init__(self, profile: VolumeProfile):
        self.profile = profile
        breaks = np.asarray(profile.params.get("table_radii", ()), dtype=float)
        self.edges = np.union1d(
            np.geomspace(self.r_min, self.r_max, 900),
            breaks[(breaks > self.r_min) & (breaks < self.r_max)])
        self._closed = {"exact": _closed_exact(profile),
                        "surrogate": _closed_surrogate(profile)}
        self._tables = {}

    def exact(self, r):
        """G(r) = int_r^inf ds/S(s)."""
        return self._eval("exact", r, lambda s: 1.0 / self.profile.area(s))

    def surrogate(self, r):
        """Ghat(r) = int_r^inf t/V(t) dt."""
        return self._eval("surrogate", r, lambda t: t / self.profile.volume(t))

    def _eval(self, kind: str, r, f: Callable):
        closed = self._closed[kind]
        if closed is not None:
            return closed(r) if np.ndim(r) else float(closed(r))
        if np.any(np.asarray(r, dtype=float) <= 0.0):
            raise ValueError("Green functions need positive radii")
        try:
            if kind not in self._tables:
                self._tables[kind] = TailTable(f, self.edges,
                                               "Green tail integral")
            return self._tables[kind](r)
        except IntegralDivergenceError as exc:
            raise ParabolicProfileError(str(exc)) from exc


def green_exact(profile: VolumeProfile, r):
    """G(r) = int_r^inf ds/S(s); raises when the profile is parabolic."""
    return GreenData(profile).exact(r)


def green_surrogate(profile: VolumeProfile, r):
    """Surrogate int_r^inf t/V(t) dt, finite iff the profile is nonparabolic."""
    return GreenData(profile).surrogate(r)


@dataclass
class BallIntegralResult:
    radius: float
    value: float
    bound: Optional[float]
    regime: Optional[str]
    ok: Optional[bool]


def ball_integral(profile: VolumeProfile, radius: float,
                  growth: Optional[GrowthFunction] = None,
                  constants: Optional[AssumptionReport] = None,
                  c2: float = 1.0, use_surrogate: bool = False,
                  green: Optional[GreenData] = None) -> BallIntegralResult:
    """Integral of the (surrogate) Green function over the ball of `radius`.

    Integration by parts turns the double integral into a single one:
    int_0^R G S dr = G(R)V(R) + int_0^R V/S dr, and the surrogate version is
    exactly Ghat(R)V(R) + R^2/2. With a growth function attached, the result
    carries the small/large-radius upper bound and its satisfaction flag.
    """
    R = float(radius)
    n = profile.dimension
    gd = green or GreenData(profile)
    if use_surrogate:
        value = gd.surrogate(R) * float(profile.volume(R)) + R * R / 2.0
    elif profile.form == "euclidean":
        value = R * R / (2.0 * (n - 2.0))
    elif profile.form == "power":
        value = R * R / (2.0 * (profile.params["lam"] - 2.0))
    else:
        # Green's panel edges below R, so the kinks of a table are edges too
        edges = np.concatenate([[0.0], gd.edges[gd.edges < R], [R]])
        v_over_s = lambda s: (np.asarray(profile.volume(s), dtype=float) /
                              np.asarray(profile.area(s), dtype=float))
        value = gd.exact(R) * float(profile.volume(R)) + float(
            np.sum(gauss_panels(v_over_s, edges)))

    if growth is None:
        return BallIntegralResult(R, value, None, None, None)
    rep = constants or check_assumptions(profile, growth)
    alpha, gamma, beta = rep.alpha_noncollapse, rep.gamma_uniformity, rep.beta
    r0 = growth.r0
    om = unit_ball_volume(n)
    if R < r0:
        f0 = float(growth.rate(r0))
        bound = (om * c2 * n / (2.0 * alpha)) * (
            r0 ** n / (n - 2.0) + gamma * beta * f0 * r0 ** (n - 1.0)) * R * R
        regime = "small-radius"
    else:
        fR = float(growth.rate(R))
        envelope = R * fR * growth.tail(R) + R * R
        bound = c2 * max(gamma, 0.5) * envelope
        regime = "large-radius"
    return BallIntegralResult(R, value, bound, regime,
                              value <= bound * (1.0 + BOUND_SLACK))


def empirical_sandwich(profile: VolumeProfile, r_lo: float, r_hi: float,
                       points: int = 200,
                       green: Optional[GreenData] = None) -> tuple:
    """Measured (min, max) of G/Ghat over a log grid; the sandwich constants."""
    gd = green or GreenData(profile)
    rs = np.geomspace(r_lo, r_hi, points)
    ratios = np.asarray(gd.exact(rs), dtype=float) / np.asarray(
        gd.surrogate(rs), dtype=float)
    return float(ratios.min()), float(ratios.max())


@dataclass
class GreenBoundReport:
    """Per-radius Green values against the assumption-driven bounds."""

    radii: np.ndarray
    green_values: np.ndarray
    surrogate_values: np.ndarray
    lower_far: np.ndarray        # c1-weighted euclidean lower bound, all radii
    upper_tail: np.ndarray       # growth-tail upper bound, radii >= r0 (nan below)
    upper_near: np.ndarray       # near-pole upper bound via the volume floor
    lower_ok: np.ndarray
    tail_ok: np.ndarray
    near_ok: np.ndarray
    c1: float
    c2: float
    constants: AssumptionReport
    use_surrogate: bool

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.lower_ok) and
                    np.all(self.tail_ok[~np.isnan(self.upper_tail)]) and
                    np.all(self.near_ok))


def green_bounds(profile: VolumeProfile, growth: GrowthFunction,
                 radii: Sequence[float], c1: Optional[float] = None,
                 c2: Optional[float] = None, use_surrogate: bool = False,
                 constants: Optional[AssumptionReport] = None) -> GreenBoundReport:
    """Check the three pointwise Green bounds on a radius grid.

    In surrogate mode the sandwich constants are both 1 and every bound is an
    exact consequence of the measured assumption constants; in exact mode the
    defaults c1, c2 come from the measured sandwich over the same radii.
    """
    radii = np.asarray(radii, dtype=float)
    rep = constants or check_assumptions(profile, growth)
    gd = GreenData(profile)
    g_exact = np.asarray(gd.exact(radii), dtype=float)
    g_surr = np.asarray(gd.surrogate(radii), dtype=float)
    if use_surrogate:
        c1 = c2 = 1.0
        gvals = g_surr
    else:
        if c1 is None or c2 is None:
            lo = min(float(radii.min()), growth.r0)
            hi = max(float(radii.max()), 100.0 * growth.r0)
            e1, e2 = empirical_sandwich(profile, lo, hi, green=gd)
            c1 = c1 if c1 is not None else e1 * (1.0 - 1e-12)
            c2 = c2 if c2 is not None else e2 * (1.0 + 1e-12)
        gvals = g_exact

    n = profile.dimension
    om = unit_ball_volume(n)
    alpha, gamma, beta = rep.alpha_noncollapse, rep.gamma_uniformity, rep.beta
    r0 = growth.r0

    lower = c1 * np.power(radii, 2.0 - n) / ((n - 2.0) * om)
    tail = np.full_like(radii, np.nan)
    far = radii >= r0 * (1.0 - 1e-12)
    rf = radii[far]
    tail[far] = c2 * gamma * (rf * np.asarray(growth.rate(rf), dtype=float) /
                              np.asarray(profile.volume(rf), dtype=float)
                              ) * growth.tail(rf)
    r_anchor = np.maximum(radii, r0)
    f_anchor = np.asarray(growth.rate(r_anchor), dtype=float)
    near = (c2 / alpha) * (np.power(r_anchor, n) / (n - 2.0) +
                           gamma * beta * f_anchor * np.power(r_anchor, n - 1.0)
                           ) * np.power(radii, 2.0 - n)

    lower_ok = gvals >= lower * (1.0 - BOUND_SLACK)
    tail_ok = np.where(np.isnan(tail), True, gvals <= tail * (1.0 + BOUND_SLACK))
    near_ok = gvals <= near * (1.0 + BOUND_SLACK)
    return GreenBoundReport(
        radii=radii, green_values=g_exact, surrogate_values=g_surr,
        lower_far=lower, upper_tail=tail, upper_near=near,
        lower_ok=lower_ok, tail_ok=tail_ok, near_ok=near_ok,
        c1=float(c1), c2=float(c2), constants=rep, use_surrogate=use_surrogate)


class RadialPotential:
    """Potential of a compactly supported radial source: -Lap U = psi, U(inf) = 0.

    U(r) = int_r^inf S(s)^{-1} [int_0^s S psi] ds on uniform panels of the
    support. The enclosed mass at r is the cumulative panel mass plus one Gauss
    rule from the panel's lower edge to r; U at the edges is a reverse
    cumulative sum of Gauss panels of enclosed/S, and U(r) adds one Gauss rule
    from r to the next edge. Every step is linear in psi. Outside the support
    the potential is exactly (total mass) * G(r).
    """

    def __init__(self, profile: VolumeProfile, psi: Callable,
                 support_radius: float, panels: int = 1024,
                 green: Optional[GreenData] = None):
        if support_radius <= 0.0:
            raise ValueError("support_radius must be positive")
        self.profile = profile
        self.psi = psi
        self.support_radius = float(support_radius)
        self.green = green or GreenData(profile)
        self._edges = np.linspace(0.0, self.support_radius, panels + 1)
        self._mass_edges = np.concatenate(
            [[0.0], np.cumsum(gauss_panels(self._density, self._edges))])
        self.mass = float(self._mass_edges[-1])
        u_support = self.mass * float(self.green.exact(self.support_radius))
        parts = gauss_panels(self._mass_over_area, self._edges)
        self._u_edges = u_support + np.concatenate(
            [np.cumsum(parts[::-1])[::-1], [0.0]])

    def _density(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(self.psi(s), dtype=float) * np.asarray(
            self.profile.area(s), dtype=float)

    def _mass_over_area(self, s: np.ndarray) -> np.ndarray:
        return self.enclosed(s) / np.asarray(self.profile.area(s), dtype=float)

    def _panel(self, r: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._edges, r, side="right") - 1
        return np.clip(idx, 0, self._edges.size - 2)

    def enclosed(self, r):
        r = np.asarray(r, dtype=float)
        rc = np.clip(r, 0.0, self.support_radius)
        j = self._panel(rc)
        inside = self._mass_edges[j] + gauss_intervals(
            self._density, self._edges[j], rc)
        return np.where(r >= self.support_radius, self.mass, inside)

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        rc = np.minimum(rr, self.support_radius)
        j = self._panel(rc)
        out = self._u_edges[j + 1] + gauss_intervals(
            self._mass_over_area, rc, self._edges[j + 1])
        far = rr >= self.support_radius
        if np.any(far):
            out = np.where(far, self.mass * np.asarray(self.green.exact(
                np.maximum(rr, self.support_radius)), dtype=float), out)
        return float(out) if out.ndim == 0 else out

    def flux_defect(self, r: float, h: Optional[float] = None) -> float:
        """|S U' + enclosed mass| via central differencing; an evaluator check."""
        r = float(r)
        h = h or 1e-5 * max(r, 1.0)
        du = (self(r + h) - self(r - h)) / (2.0 * h)
        return abs(float(self.profile.area(r)) * du + float(self.enclosed(r)))


def potential_of_cells(profile: VolumeProfile, edges: np.ndarray,
                       u: np.ndarray, green: Optional[GreenData] = None):
    """Exact potential of piecewise-constant cell data on a radial grid.

    Returns (centers, faces) values. Within each cell the enclosed mass is
    affine in V, so the per-cell integrals are smooth and a fixed Gauss panel
    per cell is accurate; beyond the last face everything is mass * G.
    """
    edges = np.asarray(edges, dtype=float)
    u = np.asarray(u, dtype=float)
    ncell = u.size
    if edges.size != ncell + 1:
        raise ValueError("edges must have one more entry than cells")
    vol_edges = np.asarray(profile.volume(edges), dtype=float)
    vol_edges[0] = 0.0 if edges[0] == 0.0 else vol_edges[0]
    dV = np.diff(vol_edges)
    mass_faces = np.concatenate([[0.0], np.cumsum(u * dV)])

    def mass_over_area(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, ncell - 1)
        enclosed = mass_faces[idx] + u[idx] * (
            np.asarray(profile.volume(s), dtype=float) - vol_edges[idx])
        return enclosed / np.asarray(profile.area(s), dtype=float)

    gd = green or GreenData(profile)
    faces = np.empty(ncell + 1)
    faces[-1] = mass_faces[-1] * float(gd.exact(float(edges[-1])))
    cell_parts = gauss_panels(mass_over_area, edges)
    faces[:-1] = faces[-1] + np.cumsum(cell_parts[::-1])[::-1]

    centers = 0.5 * (edges[1:] + edges[:-1])
    half_edges = np.empty(2 * ncell)
    half_edges[0::2] = centers
    half_edges[1::2] = edges[1:]
    half_parts = gauss_panels(mass_over_area, half_edges.reshape(-1))
    # even panels span [center_j, edge_{j+1}]; odd ones are inter-cell seams
    center_vals = faces[1:] + half_parts[0::2]
    return center_vals, faces


@dataclass
class PotentialSandwich:
    radii: np.ndarray
    values: np.ndarray
    green_values: np.ndarray
    lower_ratio: np.ndarray      # U / (mass * min(r^{n-2}, 1) * G)
    upper_ratio: np.ndarray      # U / (sup_psi * V(support) * G)
    gamma1: float
    gamma2: float
    flags: np.ndarray
    far_ratio: np.ndarray        # U / (mass * G), exactly 1 outside the support

    @property
    def ok(self) -> bool:
        return bool(np.all(self.flags) and self.gamma1 > 0.0 and
                    math.isfinite(self.gamma2))


def sandwich_check(profile: VolumeProfile, psi: Callable,
                   radii: Sequence[float], support_radius: float,
                   sup_norm: Optional[float] = None) -> PotentialSandwich:
    """Empirical two-sided potential bounds against mass and sup-norm anchors."""
    radii = np.asarray(radii, dtype=float)
    pot = RadialPotential(profile, psi, support_radius)
    if sup_norm is None:
        probe = np.linspace(support_radius * 1e-4, support_radius, 512)
        sup_norm = float(np.max(np.abs(np.asarray(psi(probe), dtype=float))))
    n = profile.dimension
    gvals = np.asarray(pot.green.exact(radii), dtype=float)
    uvals = np.asarray(pot(radii), dtype=float)
    lower_anchor = pot.mass * np.minimum(np.power(radii, n - 2.0), 1.0) * gvals
    upper_anchor = sup_norm * float(profile.volume(support_radius)) * gvals
    lower_ratio = uvals / lower_anchor
    upper_ratio = uvals / upper_anchor
    far_ratio = uvals / (pot.mass * gvals)
    flags = np.isfinite(lower_ratio) & np.isfinite(upper_ratio) & (uvals > 0.0)
    return PotentialSandwich(
        radii=radii, values=uvals, green_values=gvals,
        lower_ratio=lower_ratio, upper_ratio=upper_ratio,
        gamma1=float(np.min(lower_ratio)), gamma2=float(np.max(upper_ratio)),
        flags=flags, far_ratio=far_ratio)
