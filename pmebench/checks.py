"""Correctness checks of program outputs against independent references.

Every check returns a list of problems; an empty list means the output
passed. The checks take plain arrays so that tests can hand them perturbed
outputs (see test_checks.py).
"""
from __future__ import annotations

import math

import numpy as np


def close(what: str, got, want, rel: float) -> list:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} against reference {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{what}: non-finite values"]
    err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    worst = float(np.max(err)) if err.size else 0.0
    if worst > rel:
        i = int(np.argmax(err))
        return [f"{what}: relative error {worst:.3e} > {rel:.1e} at index {i} "
                f"(got {got.flat[i]!r}, want {want.flat[i]!r})"]
    return []


def mass_ledger(masses, outflows, rel: float = 1e-10) -> list:
    """Mass plus cumulative outflow equals the initial mass at every time."""
    masses = np.asarray(masses, dtype=float)
    total = masses + np.asarray(outflows, dtype=float)
    defect = float(np.max(np.abs(total - masses[0]))) / abs(masses[0])
    if not defect <= rel:
        return [f"mass + outflow drifts from the initial mass by {defect:.3e} "
                f"(relative) > {rel:.0e}"]
    return []


def nonincreasing(what: str, values, slack: float = 1e-12) -> list:
    values = np.asarray(values, dtype=float)
    rises = np.diff(values) > slack * np.abs(values[:-1])
    if rises.any():
        i = int(np.argmax(rises))
        return [f"{what} rises from {values[i]!r} to {values[i + 1]!r}"]
    return []


def decay_slope(times, sups, expected: float, tol: float) -> list:
    """Log-log slope of sup u against absolute time equals -alpha."""
    lx = np.log(np.asarray(times, dtype=float))
    ly = np.log(np.asarray(sups, dtype=float))
    lx, ly = lx - lx.mean(), ly - ly.mean()
    slope = float(np.sum(lx * ly) / np.sum(lx * lx))
    if not abs(slope - expected) <= tol:
        return [f"decay slope {slope:.6f}, expected {expected:.6f} +- {tol}"]
    return []


def below(what: str, values, bounds, slack: float = 1e-12) -> list:
    """values <= bounds pointwise (smoothing: sup u under bound_l1)."""
    values = np.asarray(values, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    over = values > bounds * (1.0 + slack)
    if over.any():
        i = int(np.argmax(over))
        return [f"{what}: {values[i]!r} exceeds its bound {bounds[i]!r} at row {i}"]
    return []


def l1_distance(what: str, state, exact, volumes, limit: float) -> tuple:
    """(problems, distance) of a cell state from exact cell averages."""
    dist = float(np.sum(np.abs(np.asarray(state) - np.asarray(exact)) *
                        np.asarray(volumes)))
    if not dist <= limit:
        return [f"{what}: L1 distance {dist:.3e} to the exact solution > {limit:.0e}"], dist
    return [], dist


def dichotomy(rows, alpha_infinity: float) -> list:
    """Rows of (a, in_l1, in_l1g, l1_converged, l1g_converged): L1 iff
    a > alpha_infinity, weighted space iff a > 2, and the truncated
    quadratures agree with both verdicts."""
    problems = []
    for a, in_l1, in_l1g, l1_conv, l1g_conv in rows:
        want_l1, want_l1g = a > alpha_infinity, a > 2.0
        if (in_l1, in_l1g) != (want_l1, want_l1g):
            problems.append(f"a = {a}: verdict (L1 {in_l1}, X {in_l1g}), "
                            f"rule gives ({want_l1}, {want_l1g})")
        if (l1_conv, l1g_conv) != (want_l1, want_l1g):
            problems.append(f"a = {a}: quadratures converge ({l1_conv}, "
                            f"{l1g_conv}), rule gives ({want_l1}, {want_l1g})")
    return problems


def refinement(residuals, orders) -> list:
    """Dual-identity residuals fall with refinement, with orders >= 1."""
    problems = []
    res = np.asarray(residuals, dtype=float)
    if not np.all(np.isfinite(res)) or np.any(np.diff(res) >= 0.0):
        problems.append(f"residuals do not fall strictly: {list(res)}")
    want = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    if len(orders) != len(want) or any(
            abs(o - w) > 1e-9 * max(1.0, abs(w)) for o, w in zip(orders, want)):
        problems.append(f"orders {list(orders)} do not match the residuals' {want}")
    if any(not o >= 1.0 for o in orders):
        problems.append(f"refinement orders below 1: {list(orders)}")
    return problems


def far_ratio(radii, ratios, support: float, tol: float) -> list:
    """U / (mass G) equals 1 outside the support of the source."""
    radii = np.asarray(radii, dtype=float)
    outside = np.asarray(ratios, dtype=float)[radii >= support]
    if outside.size == 0:
        return ["no radius outside the support"]
    worst = float(np.max(np.abs(outside - 1.0)))
    if not worst <= tol:
        return [f"far ratio U/(mass G) off 1 by {worst:.3e} > {tol:.0e}"]
    return []


def separating(increments, constant: float, distances, reference,
               rel: float) -> list:
    """Increments <= C 2^-j, shells at least 4x apart, increments as the
    closed form says."""
    inc = np.asarray(increments, dtype=float)
    j = np.arange(1, inc.size + 1, dtype=float)
    problems = []
    if not (math.isfinite(constant) and constant > 0.0):
        problems.append(f"increment constant {constant!r} is not finite positive")
    elif np.any(inc > constant * 2.0 ** (-j) * (1.0 + 1e-12)):
        problems.append("an increment exceeds C 2^-j")
    d = np.asarray(distances, dtype=float)
    if np.any(d[1:] < 4.0 * d[:-1]):
        problems.append("separating distances grow by less than 4x")
    return problems + close("weighted increments", inc, reference, rel)
