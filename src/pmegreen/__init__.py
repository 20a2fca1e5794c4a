"""Green-function verification toolkit for the porous medium equation on
nonnegatively curved radial model geometries.

The package splits into: geometry (volume profiles and standing-assumption
audits), green (Green functions, potentials, two-sided bounds), weighted
(Green-weighted integrability and the separating construction), smoothing
(decay envelopes and explicit rate formulas), solver (finite-volume evolution
plus estimate verification), and cli (scenario runner).
"""

__version__ = "0.1.0"

from .geometry import (AssumptionReport, GrowthFunction, RicciReport,
                       VolumeProfile, check_assumptions, make_growth,
                       make_profile, ricci_nonneg_check, unit_ball_volume,
                       unit_sphere_area)
from .green import (BallIntegralResult, CellPotential, GreenBoundReport,
                    GreenData, PotentialSandwich, RadialPotential,
                    ball_integral, green_bounds, sandwich_check)
from .smoothing import (BoundEvaluation, LogVolumeFamily, PowerVolumeFamily,
                        SmoothingBound, family_rate, green_ball_envelope,
                        lambert_w0, smoothing_bound_l1g)
from .solver import (BarenblattParams, OptimalityReport, RadialGrid,
                     RadialState, RunRecord, SolutionEstimateReport, Stepper,
                     barenblatt, barenblatt_datum, optimality_harness,
                     radial_cutoff, run_pme, time_bump,
                     verify_solution_estimates, weak_dual_refinement,
                     weak_dual_residual)
from .weighted import (PowerLawClass, SeparatingSequence, WeightedNorm,
                       build_separating_sequence, l1_norm_radial, l1g_norm,
                       powerlaw_classify)

__all__ = [
    "__version__",
    "AssumptionReport", "GrowthFunction", "RicciReport", "VolumeProfile",
    "check_assumptions", "make_growth", "make_profile", "ricci_nonneg_check",
    "unit_ball_volume", "unit_sphere_area",
    "BallIntegralResult", "CellPotential", "GreenBoundReport", "GreenData",
    "PotentialSandwich", "RadialPotential", "ball_integral", "green_bounds",
    "sandwich_check",
    "WeightedNorm", "PowerLawClass", "SeparatingSequence", "l1g_norm",
    "l1_norm_radial", "powerlaw_classify", "build_separating_sequence",
    "BoundEvaluation", "SmoothingBound", "PowerVolumeFamily",
    "LogVolumeFamily", "green_ball_envelope", "lambert_w0",
    "smoothing_bound_l1g", "family_rate",
    "BarenblattParams", "OptimalityReport", "RadialGrid", "RadialState",
    "RunRecord", "SolutionEstimateReport", "Stepper", "barenblatt",
    "barenblatt_datum", "optimality_harness", "radial_cutoff", "run_pme",
    "time_bump", "verify_solution_estimates", "weak_dual_refinement",
    "weak_dual_residual",
]
