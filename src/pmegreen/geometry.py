"""Radial volume geometries and the standing-assumption checks.

A profile is the pair (V, S) of ball volume and sphere area for a pole-centered
rotationally symmetric geometry. Presets carry closed forms; warped and
tabulated profiles fall back to cached quadrature with power-law extension
beyond their working range.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .numerics import (Check, Hermite, IntegralDivergenceError, TailTable,
                       gauss_intervals, gauss_panels, max_rise, pchip_slopes)

# relative slack for monotonicity checks on exact closed forms
MONOTONE_SLACK = 1e-12
# the Ricci sign check's slack, relative to the size of the curvature terms
RICCI_SIGN_TOL = 1e-9


class ProfileError(ValueError):
    """Bad profile descriptor or a profile failing its construction checks."""


class GrowthError(ValueError):
    """Bad growth-function descriptor, including a divergent tail integral."""


def unit_ball_volume(n: int) -> float:
    try:
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    except OverflowError:  # Gamma leaves double range from n = 342 on
        return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1))


def unit_sphere_area(n: int) -> float:
    # area of the boundary sphere of the unit n-ball
    return n * unit_ball_volume(n)


@dataclass(eq=False)
class VolumeProfile:
    """Ball volume V(r) and sphere area S(r) = V'(r) of a radial geometry."""

    dimension: int
    form: str
    volume: Callable[[np.ndarray], np.ndarray]
    area: Callable[[np.ndarray], np.ndarray]
    alpha_infinity: Optional[float] = None
    power_law: Optional[tuple] = None  # (c, lam) where V = c r^lam exactly
    breaks: Sequence[float] = ()  # the radii where S may kink

    def __post_init__(self) -> None:
        if self.dimension < 3:
            raise ProfileError("profiles need dimension >= 3 for a finite Green function")
        rs = np.geomspace(1e-6, 1e6, 64)
        vs = np.asarray(self.volume(rs), dtype=float)
        ss = np.asarray(self.area(rs), dtype=float)
        if not np.all(np.isfinite(vs)) or not np.all(np.isfinite(ss)):
            raise ProfileError(f"{self.form}: V or S not finite on the check grid")
        if np.any(ss <= 0.0):
            raise ProfileError(f"{self.form}: sphere area must be positive")
        if np.any(np.diff(vs) <= 0.0):
            raise ProfileError(f"{self.form}: ball volume must be strictly increasing")

    @functools.cached_property
    def green(self):
        """The profile's one GreenData, built on first use and kept."""
        from .green import GreenData  # green imports this module
        return GreenData(self)


def _euclidean(dimension: int) -> VolumeProfile:
    om = unit_ball_volume(dimension)
    sg = unit_sphere_area(dimension)
    n = dimension
    return VolumeProfile(
        dimension=n, form="euclidean",
        volume=lambda r: om * np.power(r, n),
        area=lambda r: sg * np.power(r, n - 1),
        alpha_infinity=float(n), power_law=(om, float(n)))


def _power(dimension: int, lam: float, coeff: float = 1.0) -> VolumeProfile:
    if not 2.0 < lam <= dimension:
        raise ProfileError("power profile needs 2 < lam <= dimension "
                           "(nonparabolic and Bishop-Gromov compatible)")
    if coeff <= 0.0 or coeff > unit_ball_volume(dimension) * (1 + 1e-12):
        raise ProfileError("power profile coefficient must sit in (0, omega_n] "
                           "to respect the Euclidean volume bound")
    return VolumeProfile(
        dimension=dimension, form="power",
        volume=lambda r: coeff * np.power(r, lam),
        area=lambda r: coeff * lam * np.power(r, lam - 1.0),
        alpha_infinity=float(lam), power_law=(coeff, lam))


def _power_log(dimension: int, lam: float, sigma: float) -> VolumeProfile:
    # V = c r^lam L^sigma with L = log(e + r); c chosen so V stays below the
    # Euclidean bound, which the construction check then verifies on a grid.
    if not 2.0 < lam < dimension:
        raise ProfileError("power_log profile needs 2 < lam < dimension")

    def L(r: np.ndarray) -> np.ndarray:
        return np.log(np.e + np.asarray(r, dtype=float))

    coeff = 1.0

    def volume(r):
        return coeff * np.power(r, lam) * np.power(L(r), sigma)

    def area(r):
        r = np.asarray(r, dtype=float)
        ell = L(r)
        return coeff * np.power(r, lam - 1.0) * np.power(ell, sigma - 1.0) * (
            lam * ell + sigma * r / (np.e + r))

    prof = VolumeProfile(
        dimension=dimension, form="power_log", volume=volume, area=area,
        alpha_infinity=float(lam))
    rs = np.geomspace(1e-4, 1e8, 160)
    if max_rise(volume(rs) / np.power(rs, dimension)) > MONOTONE_SLACK:
        raise ProfileError("power_log parameters break V(r)/r^n monotonicity; "
                           "reduce sigma or lam")
    return prof


def _warped(dimension: int,
            phi: Callable[[np.ndarray], np.ndarray]) -> VolumeProfile:
    sg = unit_sphere_area(dimension)
    r_max = 1e6

    def area(r):
        return sg * np.power(phi(np.asarray(r, dtype=float)), dimension - 1)

    # cumulative volume cached on a log grid, its first panel reaching down
    # to the pole; the PCHIP runs through the grid but not through the pole,
    # where a cubic cannot follow V ~ r^n. Below the grid V is that first
    # panel's Gauss rule on [0, r], equal to the grid's value at its first
    # knot; beyond it a power law keeps tail integrals total
    knots = np.geomspace(r_max * 1e-8, r_max, 1200)
    vols = np.cumsum(gauss_panels(area, np.concatenate([[0.0], knots])))
    interp = Hermite(knots, vols, pchip_slopes(knots, vols))
    r_start = float(knots[0])
    v_end = float(vols[-1])
    slope_end = float(r_max * area(r_max) / v_end)

    def volume(r):
        r = np.asarray(r, dtype=float)
        rc = np.clip(r, 0.0, r_start)
        below = gauss_intervals(area, np.zeros_like(rc), rc)
        return np.where(r < r_start, below, np.where(
            r <= r_max, interp(np.clip(r, r_start, r_max)),
            v_end * np.power(np.maximum(r, r_max) / r_max, slope_end)))

    return VolumeProfile(
        dimension=dimension, form="warped", volume=volume, area=area,
        alpha_infinity=slope_end)


def _tabulated(dimension: int, radii: Sequence[float],
               volumes: Sequence[float]) -> VolumeProfile:
    r_tab = np.asarray(radii, dtype=float)
    v_tab = np.asarray(volumes, dtype=float)
    if r_tab.ndim != 1 or r_tab.shape != v_tab.shape or r_tab.size < 4:
        raise ProfileError("tabulated profile needs radii and volumes of one "
                           "length, at least 4 of them")
    if r_tab[0] < 0 or np.any(np.diff(r_tab) <= 0):
        raise ProfileError("tabulated radii must be nonnegative and strictly increasing")
    if np.any(np.diff(v_tab) <= 0):
        raise ProfileError("tabulated volume must be strictly increasing")
    if r_tab[0] > 0.0:
        r_tab = np.concatenate([[0.0], r_tab])
        v_tab = np.concatenate([[0.0], v_tab])
    if v_tab[0] != 0.0:
        raise ProfileError("tabulated volume must vanish at the pole")
    interp = Hermite(r_tab, v_tab, pchip_slopes(r_tab, v_tab))
    r_end, v_end = float(r_tab[-1]), float(v_tab[-1])
    slope_end = float(r_end * interp(r_end, nu=1) / v_end)

    def volume(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= r_end,
                        np.nan_to_num(interp(np.minimum(r, r_end)), nan=0.0),
                        v_end * np.power(np.maximum(r, r_end) / r_end, slope_end))

    def area(r):
        r = np.asarray(r, dtype=float)
        inside = np.nan_to_num(interp(np.minimum(r, r_end), nu=1), nan=0.0)
        outside = (v_end * slope_end / r_end) * np.power(
            np.maximum(r, r_end) / r_end, slope_end - 1.0)
        return np.where(r <= r_end, inside, outside)

    return VolumeProfile(
        dimension=dimension, form="tabulated", volume=volume, area=area,
        alpha_infinity=slope_end, breaks=r_tab)


# the value types of a form's params
NUMBER, NUMBERS, CALLABLE = "number", "list of numbers", "callable"

# form -> (builder, required params, optional params), each param mapped to
# its value type. A builder takes the dimension (a growth's r0) and the
# params as keywords, and makes its own range and cross-param checks.
PROFILE_FORMS = {
    "euclidean": (_euclidean, {}, {}),
    "power": (_power, {"lam": NUMBER}, {"coeff": NUMBER}),
    "power_log": (_power_log, {"lam": NUMBER, "sigma": NUMBER}, {}),
    "warped": (_warped, {"phi": CALLABLE}, {}),
    "tabulated": (_tabulated, {"radii": NUMBERS, "volumes": NUMBERS}, {}),
}


def _lookup(forms, kind, error, frame, default, descriptor, kwargs):
    """(builder with its params bound, frame value) of a descriptor given as
    a mapping and/or keywords; raises `error` on a key besides form, `frame`
    and params, on an unknown form, and on a missing or unknown param."""
    spec = dict(descriptor) if descriptor is not None else {}
    spec.update(kwargs)
    form = spec.pop("form", None)
    first = spec.pop(frame, default)
    params = spec.pop("params", {})
    if spec:
        raise error(f"unknown {kind} keys: {sorted(spec)}")
    if form not in forms:
        raise error(f"unknown {kind} form {form!r}; expected one of "
                    f"{sorted(forms)}")
    build, required, optional = forms[form]
    if not required.keys() <= params.keys() <= required.keys() | optional:
        raise error(f"{form} {kind} takes params {sorted(required)} and "
                    f"optionally {sorted(optional)}, got {sorted(params)}")
    return functools.partial(build, **params), first


def make_profile(descriptor: Optional[Mapping] = None, /, **kwargs) -> VolumeProfile:
    """Build a VolumeProfile from a descriptor mapping or keyword arguments.

    Descriptor keys: form, dimension and params, which holds the required
    and optional params that PROFILE_FORMS gives the form.
    """
    build, dimension = _lookup(PROFILE_FORMS, "profile", ProfileError,
                               "dimension", None, descriptor, kwargs)
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise ProfileError("profile dimension must be an integer")
    return build(dimension)


@dataclass(eq=False)
class GrowthFunction:
    """Increasing rate f(t) on [r0, inf) whose reciprocal has a finite tail;
    without a closed form the tail is a TailTable on `knots`, 3600 log-spaced
    radii over [r0, 1e12 r0]."""

    form: str
    r0: float
    rate: Callable[[np.ndarray], np.ndarray]
    _tail_closed: Optional[Callable] = None
    _table: Optional[TailTable] = field(default=None, init=False, repr=False)

    def tail(self, radius):
        """Integral of 1/f over [radius, inf); takes and returns arrays."""
        r = self._radii(radius)
        if self._tail_closed is not None:
            return (self._tail_closed(r) if r.ndim else
                    float(self._tail_closed(float(r))))
        try:
            if self._table is None:
                rate = self.rate  # not self: the table dies with the growth
                self._table = TailTable(lambda t: 1.0 / np.asarray(
                    rate(t), dtype=float), self.knots, "growth tail integral")
            return self._table(r)
        except IntegralDivergenceError as exc:
            raise GrowthError(str(exc)) from exc

    def tail_each(self, radii: np.ndarray) -> np.ndarray:
        """tail at each radius of a 1-d array, bit for bit what a call with
        that one radius gives: a closed form reads Python floats, whose ** is
        not numpy's power, and a table reads one radius at a time past its
        last edge, where the tail model's matrix product sums a row in an
        order that depends on the number of rows."""
        if self._tail_closed is not None:
            self._radii(radii)
            return np.array([self._tail_closed(x) for x in radii.tolist()])
        out = self.tail(radii)
        far = radii > self._table.edges[-1]
        if far.any():
            out[far] = [self.tail(x) for x in radii[far]]
        return out

    def _radii(self, radius) -> np.ndarray:
        r = np.asarray(radius, dtype=float)
        if (r < self.r0 * (1.0 - 1e-12)).any():
            raise GrowthError(f"tail requested at {radius} below r0 = {self.r0}")
        return r

    @functools.cached_property
    def knots(self) -> np.ndarray:
        knots = np.geomspace(self.r0, 1e12 * self.r0, 3600)
        knots.flags.writeable = False
        return knots

    @property
    def beta(self) -> float:
        return self.tail(self.r0)


def _power_growth(r0: float, k: float) -> GrowthFunction:
    if k <= 2.0:
        raise GrowthError("power growth with k <= 2 makes the tail integral "
                          "of 1/f diverge")
    return GrowthFunction(
        form="power", r0=r0,
        rate=lambda t: np.power(t, k - 1.0),
        _tail_closed=lambda R: R ** (2.0 - k) / (k - 2.0))


def _power_log_growth(r0: float, k: float, b: float) -> GrowthFunction:
    if r0 <= 1.0:
        raise GrowthError("power_log growth needs r0 > 1 so log t stays positive")
    if k < 2.0 or (k == 2.0 and b <= 1.0):
        raise GrowthError("power_log tail integral diverges unless k > 2 "
                          "or (k = 2 and b > 1)")
    closed = None
    if k == 2.0:
        closed = lambda R: np.log(R) ** (1.0 - b) / (b - 1.0)
    return GrowthFunction(
        form="power_log", r0=r0,
        rate=lambda t: np.power(t, k - 1.0) * np.power(np.log(t), b),
        _tail_closed=closed)


def _numeric_growth(r0: float, rate: Callable) -> GrowthFunction:
    probe = np.geomspace(r0, 1e8, 16)
    if np.any(np.asarray(rate(probe), dtype=float) <= 0.0):
        raise GrowthError("numeric growth rate must be positive on [r0, inf)")
    g = GrowthFunction(form="numeric", r0=r0, rate=rate)
    g.beta  # force the divergence diagnostic at construction
    return g


# rates: power t^(k-1), power_log t^(k-1) log^b t, numeric the given one
GROWTH_FORMS = {
    "power": (_power_growth, {"k": NUMBER}, {}),
    "power_log": (_power_log_growth, {"k": NUMBER, "b": NUMBER}, {}),
    "numeric": (_numeric_growth, {"rate": CALLABLE}, {}),
}


def make_growth(descriptor: Optional[Mapping] = None, /, **kwargs) -> GrowthFunction:
    """Build a GrowthFunction from a descriptor mapping or keyword arguments.

    Descriptor keys: form, r0 (default 1) and params, which holds the
    required and optional params that GROWTH_FORMS gives the form.
    """
    build, r0 = _lookup(GROWTH_FORMS, "growth", GrowthError, "r0", 1.0,
                        descriptor, kwargs)
    r0 = float(r0)
    if r0 < 1.0:
        raise GrowthError("growth functions need r0 >= 1 (unit-scale normalization)")
    return build(r0)


@dataclass
class AssumptionReport:
    """Empirical standing-assumption constants measured on a sample grid."""

    alpha_noncollapse: float
    gamma_uniformity: float
    beta: float
    doubling_constant: float
    bishop_gromov: Check         # the largest relative rise of V / r^n
    euclidean_bound: Check       # the largest relative excess over omega_n r^n
    failures: list
    passed: bool
    sample: np.ndarray
    volumes: np.ndarray          # V on the sample
    areas: np.ndarray            # S on the sample
    growth_ratios: np.ndarray    # r f(r) / V on the sample


def check_assumptions(profile: VolumeProfile, growth: GrowthFunction,
                      sample: Optional[np.ndarray] = None) -> AssumptionReport:
    """Measure the standing-assumption constants on a radius sample.

    alpha is the pole-centered unit-ball volume, gamma the worst uniform-growth
    ratio over ordered sample pairs, beta the tail of 1/f at r0. Bishop-Gromov
    and the Euclidean volume bound check their excess against MONOTONE_SLACK.
    Raises ValueError where V or S is not finite on the sample.
    """
    if sample is None:
        sample = np.geomspace(growth.r0, 1e4 * growth.r0, 96)
    sample = np.asarray(sample, dtype=float)
    if sample[0] < growth.r0 * (1.0 - 1e-12):
        raise ValueError("sample grid must start at or above r0")

    n = profile.dimension
    with np.errstate(over="ignore"):  # checked below
        vols = np.asarray(profile.volume(sample), dtype=float)
        areas = np.asarray(profile.area(sample), dtype=float)
    finite = np.isfinite(vols) & np.isfinite(areas)
    if not np.all(finite):
        raise ValueError(f"V or S is not finite at r = "
                         f"{sample[np.argmin(finite)]:g} on the sample")
    rates = np.asarray(growth.rate(sample), dtype=float)
    failures = []

    alpha = float(profile.volume(1.0))
    if alpha <= 0.0:
        failures.append("noncollapsing")

    ratios = sample * rates / vols
    gamma = float(np.max(ratios / np.minimum.accumulate(ratios)))

    try:
        beta = growth.beta
    except GrowthError:
        beta = math.inf
    if not math.isfinite(beta):
        failures.append("finite_tail")

    bishop = Check(max_rise(vols / np.power(sample, n)), MONOTONE_SLACK)
    if not bishop.passed:
        failures.append("bishop_gromov")

    euclid = Check(float(np.max(vols / (unit_ball_volume(n) * np.power(
        sample, n)) - 1.0, initial=0.0)), MONOTONE_SLACK)
    if not euclid.passed:
        failures.append("euclidean_volume_bound")

    half = sample[2.0 * sample <= sample[-1]]
    if half.size:
        doubling = float(np.max(profile.volume(2.0 * half) / profile.volume(half)))
    else:
        doubling = float(profile.volume(2.0 * sample[0]) / profile.volume(sample[0]))
    if doubling > 2.0 ** n * (1.0 + 1e-9):
        failures.append("doubling")

    return AssumptionReport(
        alpha_noncollapse=alpha, gamma_uniformity=gamma, beta=beta,
        doubling_constant=doubling, bishop_gromov=bishop,
        euclidean_bound=euclid, failures=failures,
        passed=not failures, sample=sample, volumes=vols, areas=areas,
        growth_ratios=ratios)


@dataclass
class RicciReport:
    ok: bool
    first_failing_radius: Optional[float]
    radial: np.ndarray
    tangential: np.ndarray
    grid: np.ndarray


def ricci_nonneg_check(phi: Callable[[float], float], n: int,
                       grid: Sequence[float]) -> RicciReport:
    """Sign check of the two curvature expressions of a warped metric.

    Radial direction: -phi''/phi. Tangential: -phi''/phi + (n-2)(1 - phi'^2)/phi^2.
    Derivatives are Richardson-extrapolated central differences. Their
    rounding noise grows like the terms themselves, like 1/r^2 at a pole,
    so a value fails only below -RICCI_SIGN_TOL (|phi''/phi| + (1 +
    phi'^2)/phi^2).
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("curvature grid must stay away from the pole")

    radial = np.empty_like(grid)
    tangential = np.empty_like(grid)
    scale = np.empty_like(grid)
    for i, r in enumerate(grid):
        p = float(phi(r))
        if p <= 0.0:
            raise ValueError(f"warping function must be positive, got {p} at r={r}")
        h = 0.01 * max(r, 1.0)
        if r - 2.0 * h <= 0.0:
            h = 0.4 * r
        a, b, c, d = (phi(r + h), phi(r - h), phi(r + h / 2), phi(r - h / 2))
        pp = (4.0 * ((c - d) / h) - (a - b) / (2.0 * h)) / 3.0
        p2 = (4.0 * ((c - 2.0 * p + d) / (h * h / 4.0)) -
              (a - 2.0 * p + b) / (h * h)) / 3.0
        radial[i] = -p2 / p
        tangential[i] = -p2 / p + (n - 2) * (1.0 - pp * pp) / (p * p)
        scale[i] = abs(p2 / p) + (1.0 + pp * pp) / (p * p)

    slack = -RICCI_SIGN_TOL * scale
    bad = (radial < slack) | (tangential < slack)
    first_bad = float(grid[np.argmax(bad)]) if bad.any() else None
    return RicciReport(ok=not bad.any(), first_failing_radius=first_bad,
                       radial=radial, tangential=tangential, grid=grid)
