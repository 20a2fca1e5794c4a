"""Pole-centered Green functions, their volume surrogate, and radial potentials.

The exact Green function of a radial geometry is G(r) = int_r^inf ds/S(s); the
surrogate Ghat replaces 1/S by t/V. A profile whose `power_law` states
V = c r^lam has one closed form for both: G = r^(2-lam) / (c lam (lam-2))
and Ghat = lam G. Every other profile reads G from a tail table of
cumulative fixed Gauss panels whose edges take in the profile's `breaks`.
Nonparabolicity makes G a tail integral; its far end comes from
numerics' tail model, an r^p (log r)^q fit of 1/S integrated in closed form,
whose divergence test marks a parabolic profile; below its first edge,
where G blows up like r^(2-n), numerics' pole model takes over. Potentials
of a source and of cell data share one kernel: a reverse cumulative sum of
Gauss panels of enclosed mass / S, anchored at mass * G at the last edge.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (AssumptionReport, GrowthFunction, VolumeProfile,
                       check_assumptions, unit_ball_volume)
from .numerics import (Check, IntegralDivergenceError, TailTable,
                       gauss_intervals, gauss_nodes, gauss_panels, gauss_sum)
from .smoothing import green_ball_envelope

BOUND_SLACK = 1e-9


class ParabolicProfileError(ArithmeticError):
    """The requested Green quantity diverges for this profile."""


class GreenData:
    """Cached Green evaluators for a profile, read as `profile.green`.

    A profile with power_law (c, lam) has G = r^(2-lam) / (c lam (lam-2)) and
    Ghat = r^(2-lam) / (c (lam-2)). The rest get one TailTable of 1/S or t/V
    per kind over `edges`: a log grid on [r_min, r_max] joined with the
    profile's breaks inside it. The table carries on past r_max on its own
    and below r_min through its pole model, so G is read at any positive
    radius; it is inf only where G itself overflows. It keeps the profile's
    area and volume and holds the profile itself only weakly, so a profile
    and its tables die by reference count.
    """

    r_min, r_max = 1e-4, 1e7

    def __init__(self, profile: VolumeProfile):
        self._profile = weakref.ref(profile)
        self._area, self._volume = profile.area, profile.volume
        self._law = profile.power_law
        if self._law is not None and self._law[1] <= 2.0:
            raise ParabolicProfileError(
                f"{profile.form} profile with lam <= 2 is parabolic")
        breaks = np.asarray(profile.breaks, dtype=float)
        self.edges = np.union1d(
            np.geomspace(self.r_min, self.r_max, 900),
            breaks[(breaks > self.r_min) & (breaks < self.r_max)])
        self._tables = {}

    @property
    def profile(self) -> Optional[VolumeProfile]:
        """The profile, or None once it is gone."""
        return self._profile()

    def exact(self, r):
        """G(r) = int_r^inf ds/S(s)."""
        area = self._area
        return self._eval("exact", r, lambda s: 1.0 / area(s))

    def surrogate(self, r):
        """Ghat(r) = int_r^inf t/V(t) dt."""
        volume = self._volume
        return self._eval("surrogate", r, lambda t: t / volume(t))

    def _eval(self, kind: str, r, f: Callable):
        rr = np.asarray(r, dtype=float)
        if (rr <= 0.0).any():
            raise ValueError("Green functions need positive radii")
        if self._law is not None:
            c, lam = self._law
            scale = c * lam if kind == "exact" else c
            g = np.power(rr, 2.0 - lam) / (scale * (lam - 2.0))
            return g if rr.ndim else float(g)
        try:
            if kind not in self._tables:
                self._tables[kind] = TailTable(f, self.edges,
                                               "Green tail integral")
            return self._tables[kind](r)
        except IntegralDivergenceError as exc:
            raise ParabolicProfileError(str(exc)) from exc


@dataclass
class BallIntegralResult:
    radius: float
    value: float
    bound: Optional[float]
    regime: Optional[str]
    ok: Optional[bool]


def ball_integral(profile: VolumeProfile, radius: float,
                  growth: Optional[GrowthFunction] = None,
                  use_surrogate: bool = False) -> BallIntegralResult:
    """Integral of the (surrogate) Green function over the ball of `radius`.

    Integration by parts turns the double integral into a single one:
    int_0^R G S dr = G(R)V(R) + int_0^R V/S dr, which is R^2/(2(lam-2)) for
    V = c r^lam, and the surrogate version is exactly Ghat(R)V(R) + R^2/2.
    With a growth function attached, the result carries the small/large-radius
    upper bound and its satisfaction flag.
    """
    R = float(radius)
    n = profile.dimension
    gd = profile.green
    if use_surrogate:
        value = gd.surrogate(R) * float(profile.volume(R)) + R * R / 2.0
    elif profile.power_law is not None:
        value = R * R / (2.0 * (profile.power_law[1] - 2.0))
    else:
        # Green's panel edges below R, so the kinks of a table are edges too
        edges = np.concatenate([[0.0], gd.edges[gd.edges < R], [R]])
        v_over_s = lambda s: (np.asarray(profile.volume(s), dtype=float) /
                              np.asarray(profile.area(s), dtype=float))
        value = gd.exact(R) * float(profile.volume(R)) + float(
            np.sum(gauss_panels(v_over_s, edges)))

    if growth is None:
        return BallIntegralResult(R, value, None, None, None)
    rep = check_assumptions(profile, growth)
    alpha, gamma, beta = rep.alpha_noncollapse, rep.gamma_uniformity, rep.beta
    r0 = growth.r0
    om = unit_ball_volume(n)
    if R < r0:
        f0 = float(growth.rate(r0))
        bound = (om * n / (2.0 * alpha)) * (
            r0 ** n / (n - 2.0) + gamma * beta * f0 * r0 ** (n - 1.0)) * R * R
        regime = "small-radius"
    else:
        bound = max(gamma, 0.5) * green_ball_envelope(growth, R)
        regime = "large-radius"
    return BallIntegralResult(R, value, bound, regime,
                              value <= bound * (1.0 + BOUND_SLACK))


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
    bounds_hold: Check           # the worst relative excess over the bounds
    c1: float
    c2: float
    constants: AssumptionReport
    use_surrogate: bool


def green_bounds(profile: VolumeProfile, growth: GrowthFunction,
                 radii: Sequence[float], c1: Optional[float] = None,
                 c2: Optional[float] = None,
                 use_surrogate: bool = False) -> GreenBoundReport:
    """Check the three pointwise Green bounds on a radius grid.

    In surrogate mode the sandwich constants are both 1 and every bound is an
    exact consequence of the measured assumption constants; in exact mode the
    defaults c1, c2 are the extremes of G/Ghat on a log grid spanning the
    radii and [r0, 100 r0]. A bound holds only where it is finite; the tail
    bound applies from r0 on and is nan below. The upper bounds never form
    r^n or V, which overflow long before the bounds do. Every verdict reads
    the relative excess over its bound against BOUND_SLACK.
    """
    radii = np.asarray(radii, dtype=float)
    rep = check_assumptions(profile, growth)
    gd = profile.green
    g_exact = np.asarray(gd.exact(radii), dtype=float)
    g_surr = np.asarray(gd.surrogate(radii), dtype=float)
    if use_surrogate:
        c1 = c2 = 1.0
        gvals = g_surr
    else:
        if c1 is None or c2 is None:
            rs = np.geomspace(min(float(radii.min()), growth.r0),
                              max(float(radii.max()), 100.0 * growth.r0), 200)
            ratios = np.asarray(gd.exact(rs), dtype=float) / np.asarray(
                gd.surrogate(rs), dtype=float)
            c1 = c1 if c1 is not None else float(ratios.min()) * (1.0 - 1e-12)
            c2 = c2 if c2 is not None else float(ratios.max()) * (1.0 + 1e-12)
        gvals = g_exact

    n = profile.dimension
    om = unit_ball_volume(n)
    alpha, gamma, beta = rep.alpha_noncollapse, rep.gamma_uniformity, rep.beta
    r0 = growth.r0

    lower = c1 * np.power(radii, 2.0 - n) / ((n - 2.0) * om)
    tail = np.full_like(radii, np.nan)
    far = radii >= r0 * (1.0 - 1e-12)
    rf = radii[far]
    law = profile.power_law  # r/V = r^(1-lam)/c there
    r_over_v = (np.power(rf, 1.0 - law[1]) / law[0] if law is not None else
                rf / np.asarray(profile.volume(rf), dtype=float))
    tail[far] = c2 * gamma * (np.asarray(growth.rate(rf), dtype=float) *
                              r_over_v) * growth.tail(rf)
    r_anchor = np.maximum(radii, r0)
    f_anchor = np.asarray(growth.rate(r_anchor), dtype=float)
    near = (c2 / alpha) * (r_anchor * r_anchor / (n - 2.0) +
                           gamma * beta * f_anchor * r_anchor
                           ) * np.power(r_anchor / radii, n - 2.0)

    with np.errstate(divide="ignore", invalid="ignore"):  # nan: no bound
        excess = np.stack([(lower - gvals) / lower, (gvals - tail) / tail,
                           (gvals - near) / near])
    excess[1, ~far] = -np.inf  # no tail bound below r0
    lower_ok, tail_ok, near_ok = excess <= BOUND_SLACK
    return GreenBoundReport(
        radii=radii, green_values=g_exact, surrogate_values=g_surr,
        lower_far=lower, upper_tail=tail, upper_near=near,
        lower_ok=lower_ok, tail_ok=tail_ok, near_ok=near_ok,
        bounds_hold=Check(float(np.max(excess, initial=0.0)), BOUND_SLACK),
        c1=float(c1), c2=float(c2), constants=rep, use_surrogate=use_surrogate)


def _panel(edges: np.ndarray, r) -> np.ndarray:
    """Index j of the panel [edges[j], edges[j+1]) holding r, clipped to the
    first and last panels."""
    idx = np.searchsorted(edges, r, side="right") - 1
    return np.clip(idx, 0, edges.size - 2)


def _edge_values(parts: np.ndarray, u_end: float) -> np.ndarray:
    """The potential kernel: U(r) = int_r^inf enclosed(s)/S(s) ds at the
    panel edges, from U = u_end (mass * G) at the last edge and the Gauss
    panels `parts` of enclosed/S = -U'. U inside a panel is the next edge's U
    plus one Gauss rule from r to that edge."""
    return u_end + np.concatenate([np.cumsum(parts[::-1])[::-1], [0.0]])


class RadialPotential:
    """Potential of a compactly supported radial source: -Lap U = psi, U(inf) = 0.

    U(r) = int_r^inf S(s)^{-1} [int_0^s S psi] ds on PANELS uniform panels of
    the support. The enclosed mass at r is the cumulative Gauss-panel mass of
    psi S plus one Gauss rule from the panel's lower edge to r; the potential
    kernel does the rest. Every step is linear in psi. Outside the support
    the potential is exactly (total mass) * G(r).
    """

    PANELS = 1024

    def __init__(self, profile: VolumeProfile, psi: Callable,
                 support_radius: float):
        if support_radius <= 0.0:
            raise ValueError("support_radius must be positive")
        self.profile = profile
        self.psi = psi
        self.support_radius = float(support_radius)
        self._edges = np.linspace(0.0, self.support_radius, self.PANELS + 1)
        self._mass_edges = np.concatenate(
            [[0.0], np.cumsum(gauss_panels(self._density, self._edges))])
        self.mass = float(self._mass_edges[-1])
        self._at_edges = _edge_values(
            gauss_panels(self._flux, self._edges),
            self.mass * float(profile.green.exact(self.support_radius)))

    def _flux(self, s: np.ndarray) -> np.ndarray:
        return self.enclosed(s) / np.asarray(self.profile.area(s), dtype=float)

    def _density(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(self.psi(s), dtype=float) * np.asarray(
            self.profile.area(s), dtype=float)

    def enclosed(self, r):
        r = np.asarray(r, dtype=float)
        rc = np.clip(r, 0.0, self.support_radius)
        j = _panel(self._edges, rc)
        inside = self._mass_edges[j] + gauss_intervals(
            self._density, self._edges[j], rc)
        return np.where(r >= self.support_radius, self.mass, inside)

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        inside = np.minimum(rr, self.support_radius)
        j = _panel(self._edges, inside)
        out = self._at_edges[j + 1] + gauss_intervals(
            self._flux, inside, self._edges[j + 1])
        far = rr >= self.support_radius
        if np.any(far):
            g = self.profile.green.exact(np.maximum(rr, self.support_radius))
            out = np.where(far, self.mass * np.asarray(g, dtype=float), out)
        return float(out) if out.ndim == 0 else out

    def flux_defect(self, r: float, h: Optional[float] = None) -> float:
        """|S U' + enclosed mass| via central differencing; an evaluator check."""
        r = float(r)
        h = h or 1e-5 * max(r, 1.0)
        du = (self(r + h) - self(r - h)) / (2.0 * h)
        return abs(float(self.profile.area(r)) * du + float(self.enclosed(r)))


class CellPotential:
    """The exact potential of piecewise-constant cell data on one radial
    grid: a call applies it to a datum u and gives the (centers, faces)
    values.

    The enclosed mass is affine in V within a cell, so the cells are the
    kernel's panels, and all but the enclosed mass is built once per grid:
    the Gauss nodes of the panels and from each center to the next face,
    their cells, V(s) - V(e_j), S(s), and G at the last face, beyond which
    everything is mass * G.
    """

    def __init__(self, profile: VolumeProfile, edges: np.ndarray):
        edges = np.asarray(edges, dtype=float)
        vol_edges = np.asarray(profile.volume(edges), dtype=float)
        vol_edges[0] = 0.0 if edges[0] == 0.0 else vol_edges[0]
        self._dvol = np.diff(vol_edges)
        self._g_end = float(profile.green.exact(float(edges[-1])))
        centers = 0.5 * (edges[1:] + edges[:-1])
        self._next = _panel(edges, centers) + 1
        self._rules = []  # (cell, V(s) - V(e_cell), S(s), half) of each rule
        for lo, hi in ((edges[:-1], edges[1:]), (centers, edges[self._next])):
            nodes, half = gauss_nodes(lo, hi)
            s, j = nodes.ravel(), _panel(edges, nodes.ravel())
            self._rules.append(tuple(a.reshape(nodes.shape) for a in (
                j, np.asarray(profile.volume(s), dtype=float) - vol_edges[j],
                np.asarray(profile.area(s), dtype=float))) + (half,))

    def __call__(self, u: np.ndarray) -> tuple:
        u = np.asarray(u, dtype=float)
        if u.shape != self._dvol.shape:
            raise ValueError("edges must have one more entry than cells")
        mass_faces = np.concatenate([[0.0], np.cumsum(u * self._dvol)])
        parts, to_face = (gauss_sum((mass_faces[j] + u[j] * dvol) / area, half)
                          for j, dvol, area, half in self._rules)
        at_edges = _edge_values(parts, mass_faces[-1] * self._g_end)
        return at_edges[self._next] + to_face, at_edges


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
                   radii: Sequence[float],
                   support_radius: float) -> PotentialSandwich:
    """Empirical two-sided potential bounds against mass and sup-norm anchors."""
    radii = np.asarray(radii, dtype=float)
    pot = RadialPotential(profile, psi, support_radius)
    probe = np.linspace(support_radius * 1e-4, support_radius, 512)
    sup_norm = float(np.max(np.abs(np.asarray(psi(probe), dtype=float))))
    n = profile.dimension
    gvals = np.asarray(profile.green.exact(radii), dtype=float)
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
