"""The benchmark's three workloads: decay, dual and quadrature.

A workload builds its inputs in `setup` (profiles, grids, scenario files),
computes its independent references in `references`, and lists its
operations in `ops`. An operation's `run` is what gets timed; it drives the
program through `pmegreen.cli.main` or through public library functions,
always looked up on the module at call time so that the traced run sees its
patched versions. An operation's `check` compares the outputs against the
references and returns a list of problems.

Inputs are fixed: no operation depends on the seed.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import pmegreen as pg
from pmegreen import cli

import checks as C
import oracles as O

# Tolerances against the independent references. Measured errors on the
# seed are given in README.md; each limit leaves at least 4x room.
SUP_REL = 1e-3          # cell-average sup u against the Barenblatt sup
L1_LIMIT = 1e-3         # final-state L1 distance to the exact solution
SLOPE_TOL = 1e-2        # fitted decay slope against -alpha
MASS_REL = 1e-10        # mass + outflow against the initial mass
GREEN_REL = 1e-7        # Green functions on power_log against mpmath
TABLE_GREEN_REL = 1e-4  # tabulated profile: the PCHIP area kinks at every row
WARPED_GREEN_REL = 1e-6
NORM_REL = 1e-3         # weighted norms, the program's own rel_threshold
BOUND_REL = 1e-8        # smoothing bound on R^3 against its closed form
POTENTIAL_REL = 1e-6
FAR_RATIO_TOL = 1e-8
SEPARATING_REL = 1e-3   # the program's shell volume loses digits at d ~ 1e12
FAMILY_REL = 1e-10


@dataclass
class Op:
    """One operation. `run` is timed; `prepare` runs untimed before it. A
    CLI operation fails when it exits nonzero, any operation when it raises."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: Optional[str] = None
    prepare: Optional[Callable[[], None]] = None
    is_cli: bool = False


def read_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def floats(col) -> np.ndarray:
    return np.array([float(x) for x in col])


def bools(col) -> list:
    return [x == "true" for x in col]


class Workload:
    """Scenario-file plumbing shared by the three workloads."""

    name = ""

    def __init__(self, out_dir: Path):
        self.out = out_dir
        self.scenarios = out_dir / "scenarios"
        self.notes = {}

    def write_scenario(self, name: str, kind: str, body: dict) -> Path:
        scn = {"schema_version": 1, "kind": kind, "name": name, **body}
        self.scenarios.mkdir(parents=True, exist_ok=True)
        path = self.scenarios / f"{name}.json"
        path.write_text(json.dumps(scn, indent=1), encoding="utf-8")
        return path

    def cli_op(self, command: str, scenario: Path, check,
               known_fault: Optional[str] = None) -> Op:
        argv = [command, "--config", str(scenario), "--out-dir", str(self.out)]
        name = scenario.stem

        def prepare():
            for stale in (self.out / f"{name}.csv",
                          self.out / f"{name}.manifest.json",
                          self.out / f"{name}_profiles.csv"):
                stale.unlink(missing_ok=True)

        def checked(_code):
            manifest = json.loads((self.out / f"{name}.manifest.json").read_text())
            problems = [] if manifest["passed"] else ["manifest says not passed"]
            return problems + check(read_csv(self.out / f"{name}.csv"), manifest)

        return Op(f"cli {command} {name}", lambda: cli.main(argv), checked,
                  known_fault, prepare, is_cli=True)

    def setup(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError


BARENBLATT = {"kind": "barenblatt", "mass": 1.0, "eps": 1.0}
EUCLID3 = {"form": "euclidean", "dimension": 3}
POWER_LOG = {"form": "power_log", "dimension": 4, "lam": 3.0, "sigma": 0.5}


def solve_checks(csv_cols, barenblatt=None) -> list:
    """Ledger and monotonicity of a `solve` CSV; the Barenblatt sup when the
    datum is the exact solution at t = eps = 1."""
    t = floats(csv_cols["t"])
    sup = floats(csv_cols["sup_u"])
    problems = C.mass_ledger(floats(csv_cols["mass"]), floats(csv_cols["outflow"]),
                             MASS_REL)
    problems += C.nonincreasing("sup u", sup)
    if barenblatt is not None:
        problems += C.close("sup u", sup, barenblatt.sup(t + 1.0), SUP_REL)
    return problems


class Decay(Workload):
    """Explicit evolutions: the optimality study, a verified solve, a library
    run pair and an m = 3 run on a log-corrected geometry."""

    name = "decay"

    def setup(self):
        self.optimality = self.write_scenario("optimality-d3-m2", "optimality", {
            "m": 2.0, "params": {"dimension": 3, "mass": 1.0, "eps": 1.0,
                                 "cells": 2000, "r_max": 20.0, "t_end": 10.0,
                                 "n_snapshots": 25, "fit_window": [1.0, 11.0]}})
        self.solve = self.write_scenario("solve-euclid3-2000", "solve", {
            "profile": EUCLID3, "m": 2.0,
            "params": {"init": BARENBLATT, "r_max": 12.0, "cells": 2000,
                       "t_end": 0.5, "snapshots": [0.125, 0.25, 0.375, 0.5],
                       "verify": True}})
        self.solve_m3 = self.write_scenario("solve-powerlog-m3", "solve", {
            "profile": POWER_LOG, "m": 3.0,
            "params": {"init": BARENBLATT, "r_max": 12.0, "cells": 1000,
                       "t_end": 1.0, "snapshots": 4, "verify": True}})
        euclid3 = pg.make_profile(form="euclidean", dimension=3)
        self.grid = pg.RadialGrid.make(euclid3, 12.0, 1000)
        self.datum = pg.barenblatt_datum(pg.BarenblattParams.from_mass(3, 2.0, 1.0))
        self.datum_pair = pg.barenblatt_datum(
            pg.BarenblattParams.from_mass(3, 2.0, 1.5))

    def references(self):
        self.exact = O.Barenblatt(3, 2.0, 1.0)
        self.exact_pair = O.Barenblatt(3, 2.0, 1.5)
        self.edges = np.linspace(0.0, 12.0, 1001)
        self.volumes = O.cell_volumes(self.edges, 3)
        self.final = self.exact.cell_averages(self.edges, 3.0)
        self.final_pair = self.exact_pair.cell_averages(self.edges, 3.0)

    def ops(self):
        return [
            self.cli_op("optimality", self.optimality, self.check_optimality),
            self.cli_op("solve", self.solve,
                        lambda cols, _m: solve_checks(cols, self.exact)),
            Op("library run pair + verify_solution_estimates", self.run_pair,
               self.check_pair),
            self.cli_op("solve", self.solve_m3, lambda cols, _m: solve_checks(cols)),
        ]

    def check_optimality(self, cols, manifest):
        t = floats(cols["t_abs"])
        sup = floats(cols["sup_u"])
        bound = floats(cols["bound_l1"])
        problems = C.close("sup u", sup, self.exact.sup(t), SUP_REL)
        problems += C.decay_slope(t, sup, -self.exact.alpha, SLOPE_TOL)
        problems += C.below("sup u against bound_l1", sup, bound)
        problems += C.close("bound_l1", bound, O.euclid3_power3_bound(t), BOUND_REL)
        return problems

    def run_pair(self):
        snaps = [0.5, 1.0, 1.5, 2.0]
        rec = pg.run_pme(self.grid, 2.0, self.datum, t_end=2.0, snapshots=snaps)
        pair = pg.run_pme(self.grid, 2.0, self.datum_pair, t_end=2.0,
                          snapshots=snaps)
        report = pg.verify_solution_estimates(rec, pair=pair, triple=(1.0, 2.0, 2.0))
        return rec, pair, report

    def check_pair(self, out):
        rec, pair, report = out
        problems = C.close("grid edges", rec.grid.edges, self.edges, 1e-15)
        if not report.passed or len(report.checks) != 6:
            problems.append(f"estimate suite: passed {report.passed}, "
                            f"{len(report.checks)} checks")
        for what, run, exact, final in (("run", rec, self.exact, self.final),
                                        ("pair", pair, self.exact_pair,
                                         self.final_pair)):
            masses = [float(np.sum(s * self.volumes)) for s in run.states]
            problems += C.mass_ledger(masses, run.outflows, MASS_REL)
            sups = [float(np.max(s)) for s in run.states]
            problems += C.close(f"{what} sup u", sups,
                                exact.sup(np.asarray(run.times) + 1.0), SUP_REL)
            found, dist = C.l1_distance(what, run.states[-1], final,
                                        self.volumes, L1_LIMIT)
            problems += found
            if run is rec:
                self.notes["l1_err"] = dist
        return problems


class Dual(Workload):
    """The dual-identity refinement study plus implicit evolutions."""

    name = "dual"

    def setup(self):
        self.implicit = self.write_scenario("solve-implicit-4000", "solve", {
            "profile": EUCLID3, "m": 2.0,
            "params": {"init": BARENBLATT, "r_max": 12.0, "cells": 4000,
                       "t_end": 1.0, "scheme": "implicit", "implicit_dt": 1e-3,
                       "snapshots": [0.25, 0.5, 0.75, 1.0], "verify": True,
                       "emit_profiles": True}})
        self.zero_flux = self.write_scenario("solve-implicit-zeroflux", "solve", {
            "profile": POWER_LOG, "m": 2.0,
            "params": {"init": BARENBLATT, "r_max": 12.0, "cells": 2000,
                       "t_end": 1.0, "scheme": "implicit", "implicit_dt": 5e-3,
                       "boundary": "zero_flux", "snapshots": 4}})
        self.euclid3 = pg.make_profile(form="euclidean", dimension=3)
        self.datum = pg.barenblatt_datum(pg.BarenblattParams.from_mass(3, 2.0, 1.0))

    def references(self):
        self.exact = O.Barenblatt(3, 2.0, 1.0)
        self.edges = np.linspace(0.0, 12.0, 4001)
        self.volumes = O.cell_volumes(self.edges, 3)
        self.final = self.exact.cell_averages(self.edges, 2.0)

    def ops(self):
        return [
            Op("library weak_dual_refinement", self.run_refinement,
               lambda st: C.refinement(st.residuals, st.orders)),
            self.cli_op("solve", self.implicit, self.check_implicit),
            self.cli_op("solve", self.zero_flux, self.check_zero_flux),
        ]

    def run_refinement(self):
        return pg.weak_dual_refinement(
            self.euclid3, 2.0, self.datum,
            levels=[(250, 8), (500, 16), (1000, 32)], r_max=12.0,
            window=(0.5, 1.5))

    def check_implicit(self, cols, manifest):
        problems = solve_checks(cols, self.exact)
        prof = read_csv(self.out / f"{self.implicit.stem}_profiles.csv")
        centers = 0.5 * (self.edges[1:] + self.edges[:-1])
        problems += C.close("profile radii", floats(prof["r"]), centers, 1e-14)
        last = f"u_t{len(cols['t']) - 1}"
        found, dist = C.l1_distance("implicit final state", floats(prof[last]),
                                    self.final, self.volumes, L1_LIMIT)
        self.notes["l1_err"] = dist
        return problems + found

    def check_zero_flux(self, cols, manifest):
        problems = solve_checks(cols)
        if np.any(floats(cols["outflow"]) != 0.0):
            problems.append("zero-flux run reports outflow")
        return problems


class Quadrature(Workload):
    """Green evaluation by every path, weighted norms, potentials and the
    smoothing bisection; no solver."""

    name = "quadrature"

    GREEN_RADII = np.geomspace(0.25, 30.0, 50)
    TABLE_RADII = np.geomspace(0.01, 10.0, 60)
    L1G_EUCLID = (2.0, 2.5, 3.0, 5.0, 6.0)
    L1G_POWER_LOG = (2.0, 2.5, 3.5, 4.5)
    POWER_LOG_GROWTH = {"form": "power_log", "params": {"k": 3.0, "b": 0.5},
                        "r0": 2.0}
    SANDWICH_RADII = np.geomspace(0.1, 1e3, 41)
    WARPED_RADII = np.geomspace(0.1, 100.0, 40)
    FAMILY_TIMES = np.geomspace(10.0, 1e6, 25)

    def setup(self):
        radii = [float(r) for r in self.GREEN_RADII]
        growth = self.POWER_LOG_GROWTH
        self.green_exact = self.write_scenario("green-powerlog-exact", "green", {
            "profile": POWER_LOG, "growth": growth,
            "params": {"radii": radii, "use_surrogate": False}})
        self.green_surrogate = self.write_scenario(
            "green-powerlog-surrogate", "green", {
                "profile": POWER_LOG, "growth": growth,
                "params": {"radii": radii, "use_surrogate": True}})
        self.assumptions = self.write_scenario("check-powerlog", "check", {
            "profile": POWER_LOG, "growth": growth})
        self.l1g_euclid = self.write_scenario("l1g-euclid5", "l1g", {
            "profile": {"form": "euclidean", "dimension": 5},
            "params": {"exponents": list(self.L1G_EUCLID)}})
        self.l1g_power_log = self.write_scenario("l1g-powerlog", "l1g", {
            "profile": POWER_LOG, "params": {"exponents": list(self.L1G_POWER_LOG)}})
        self.bound = self.write_scenario("bound-powerlog-growth", "bound", {
            "profile": POWER_LOG, "growth": growth, "m": 2.0,
            "params": {"t_min": 1.0, "t_max": 1e6, "count": 40}})
        table = [float(r) for r in self.TABLE_RADII]
        self.green_table = self.write_scenario("green-tabulated-r3", "green", {
            "profile": {"form": "tabulated", "dimension": 3, "radii": table,
                        "volumes": [r ** 3 for r in table]},
            "params": {"radii": radii}})
        self.euclid = {n: pg.make_profile(form="euclidean", dimension=n)
                       for n in (3, 5)}
        self.growth5 = pg.make_growth(form="power", params={"k": 5.0}, r0=1.0)
        self.warped = pg.make_profile(form="warped", dimension=4,
                                      params={"phi": _warp})
        self.log_family = pg.LogVolumeFamily(dimension=4, delta=2.0, lam=3.0,
                                             sigma=1.0)
        self.log_bound = pg.SmoothingBound.from_profile(
            pg.make_profile(form="power_log", dimension=4,
                            params={"lam": 3.0, "sigma": 1.0}), 2.0,
            pg.make_growth(form="power_log", params={"k": 2.0, "b": 2.0}, r0=3.0))

    def references(self):
        area, volume = O.power_log_profile(3.0, 0.5)
        self.g_exact = O.green_exact_ref(area, self.GREEN_RADII)
        self.g_surrogate = O.green_surrogate_ref(volume, self.GREEN_RADII)
        self.area, self.volume = area, volume
        self.beta = O.power_growth_tail(3.0, 0.5, 2.0)
        table = O.TabulatedProfile(self.TABLE_RADII, self.TABLE_RADII ** 3)
        self.table_exact, self.table_surrogate = table.green(self.GREEN_RADII)
        self.l1_totals, self.l1g_totals = O.euclid5_powerlaw_norms(self.L1G_EUCLID)
        self.potentials = {n: O.uniform_ball_potential(n, 0.5, self.SANDWICH_RADII)
                           for n in (3, 5)}
        self.warped_green = O.green_exact_ref(O.warped_area(4, _warp),
                                              self.WARPED_RADII)
        self.family = np.array([O.log_family_rate(3.0, 1.0, 2.0, float(t), 1.0)
                                for t in self.FAMILY_TIMES])

    def ops(self):
        return [
            self.cli_op("green", self.green_exact, self.check_green),
            self.cli_op("green", self.green_surrogate, self.check_green),
            self.cli_op("check-assumptions", self.assumptions,
                        self.check_constants),
            self.cli_op("l1g", self.l1g_euclid, self.check_l1g_euclid),
            self.cli_op("l1g", self.l1g_power_log, self.check_l1g_power_log,
                        known_fault="weighted.py _tail_corrected assumes a pure "
                                    "power tail; a = 3.5 reports consistent: false"),
            self.cli_op("bound", self.bound, self.check_bound,
                        known_fault="evaluate_l1 jumps up at the regime switch "
                                    "(t = 49 to 70); nonincreasing fails"),
            self.cli_op("green", self.green_table, self.check_green_table,
                        known_fault="green_exact hits quad's subdivision limit on "
                                    "the PCHIP area: ParabolicProfileError"),
            Op("library sandwich_check n = 3, 5", self.run_sandwich,
               self.check_sandwich),
            Op("library build_separating_sequence", self.run_separating,
               self.check_separating),
            Op("library GreenData on a warped profile", self.run_warped,
               lambda vals: C.close("warped G", vals, self.warped_green,
                                    WARPED_GREEN_REL)),
            Op("library family_rate + evaluate_l1 on the log family",
               self.run_family, self.check_family),
        ]

    def check_green(self, cols, manifest):
        ge, gs = floats(cols["green_exact"]), floats(cols["green_surrogate"])
        problems = C.close("radii", floats(cols["r"]), self.GREEN_RADII, 1e-15)
        problems += C.close("G", ge, self.g_exact, GREEN_REL)
        problems += C.close("surrogate G", gs, self.g_surrogate, GREEN_REL)
        problems += C.close("G / surrogate", floats(cols["ratio"]), ge / gs, 1e-12)
        for flag in ("lower_ok", "tail_ok", "near_ok"):
            if not all(bools(cols[flag])):
                problems.append(f"a Green bound fails: {flag}")
        return problems

    def check_green_table(self, cols, manifest):
        return (C.close("tabulated G", floats(cols["green_exact"]),
                        self.table_exact, TABLE_GREEN_REL) +
                C.close("tabulated surrogate G", floats(cols["green_surrogate"]),
                        self.table_surrogate, TABLE_GREEN_REL))

    def check_constants(self, cols, manifest):
        r = floats(cols["r"])
        vol = np.array([float(self.volume(x)) for x in r])
        area = np.array([float(self.area(x)) for x in r])
        rate = r ** 2 * np.sqrt(np.log(r))
        g = r * rate / vol
        met = manifest["metrics"]
        return (C.close("volume", floats(cols["volume"]), vol, 1e-12) +
                C.close("area", floats(cols["area"]), area, 1e-12) +
                C.close("growth ratio", floats(cols["growth_ratio"]), g, 1e-12) +
                C.close("alpha (V(1))", met["alpha_noncollapse"],
                        float(self.volume(1.0)), 1e-12) +
                C.close("beta", met["beta"], self.beta, GREEN_REL) +
                C.close("gamma", met["gamma_uniformity"],
                        float(np.max(g / np.minimum.accumulate(g))), 1e-12))

    @staticmethod
    def _dichotomy_rows(cols):
        return list(zip(floats(cols["a"]), bools(cols["in_l1"]),
                        bools(cols["in_l1g"]), bools(cols["l1_converged"]),
                        bools(cols["l1g_converged"])))

    def check_l1g_euclid(self, cols, manifest):
        problems = C.dichotomy(self._dichotomy_rows(cols), 5.0)
        l1, l1g = floats(cols["l1_total"]), floats(cols["l1g_total"])
        fin, fin_g = np.isfinite(self.l1_totals), np.isfinite(self.l1g_totals)
        return (problems +
                C.close("L1 norms", l1[fin], self.l1_totals[fin], NORM_REL) +
                C.close("weighted norms", l1g[fin_g], self.l1g_totals[fin_g],
                        NORM_REL))

    def check_l1g_power_log(self, cols, manifest):
        return C.dichotomy(self._dichotomy_rows(cols), 3.0)

    def check_bound(self, cols, manifest):
        t, vals = floats(cols["t"]), floats(cols["bound_l1"])
        small = np.array([reg == "small-time" for reg in cols["regime"]])
        return (C.nonincreasing("bound_l1", vals) +
                C.close("small-time bound", vals[small],
                        t[small] ** (-2.0 / 3.0), 1e-12))

    def run_sandwich(self):
        out = {}
        for n, prof in self.euclid.items():
            vol_half = float(prof.volume(0.5))
            psi = lambda r, v=vol_half: np.where(np.asarray(r) <= 0.5, 1.0 / v, 0.0)
            out[n] = pg.sandwich_check(prof, psi, self.SANDWICH_RADII, 0.5)
        return out

    def check_sandwich(self, out):
        problems = []
        for n, sw in out.items():
            problems += C.close(f"potential n={n}", sw.values, self.potentials[n],
                                POTENTIAL_REL)
            problems += C.far_ratio(sw.radii, sw.far_ratio, 0.5, FAR_RATIO_TOL)
            if not (sw.gamma1 > 0.0 and math.isfinite(sw.gamma2)):
                problems.append(f"sandwich constants n={n}: {sw.gamma1}, {sw.gamma2}")
        return problems

    def run_separating(self):
        return pg.build_separating_sequence(self.euclid[5], self.growth5, 20,
                                            green=pg.GreenData(self.euclid[5]))

    def check_separating(self, seq):
        j = np.arange(1, 21, dtype=float)
        problems = C.separating(seq.weighted_increments, seq.increment_constant,
                                seq.distances,
                                O.separating_increments(5, seq.distances),
                                SEPARATING_REL)
        # growth tail T(R) = R^-3 / 3 certifies T(d_j - 1) <= 2^-j
        if np.any((seq.distances - 1.0) ** -3 / 3.0 > 2.0 ** -j * (1 + 1e-9)):
            problems.append("a distance fails its tail certificate")
        return problems + C.close("L1 partial sums", seq.l1_partials, j, 0.0)

    def run_warped(self):
        return pg.GreenData(self.warped).exact(self.WARPED_RADII)

    def run_family(self):
        rates = [pg.family_rate(self.log_family, 2.0, float(t), 1.0)
                 for t in self.FAMILY_TIMES]
        generic = [self.log_bound.evaluate_l1(float(t), 1.0).value
                   for t in self.FAMILY_TIMES]
        return np.array(rates), np.array(generic)

    def check_family(self, out):
        rates, generic = out
        problems = C.close("log-family rate", rates, self.family, FAMILY_REL)
        ratio = generic / self.family
        if not (np.all(ratio > 0.0) and ratio.max() / ratio.min() < 3.0):
            problems.append("generic bound and log-family rate differ by more "
                            "than a bounded factor")
        return problems


def _warp(r):
    # takes floats for the program and mpf values for the oracle alike
    return r * (1 + r * r) ** -0.1


WORKLOADS = {w.name: w for w in (Decay, Dual, Quadrature)}
