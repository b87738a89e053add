"""Numerical laboratory for congested transport in one dimension.

Three mutually validating descriptions of the same flow: Wasserstein
minimizing movements of a congestion-penalized free energy, the porous
medium equation with drift, and quasi-static volume-preserving patch
dynamics, plus closed-form oracles and a config-driven experiment CLI.
"""

from .energy import (EnergyReport, excess_mass, free_energy, internal_energy,
                     potential_energy, regularize_to_feasible)
from .heleshaw import hausdorff_distance, heleshaw_run
from .jko import (JkoConvergenceError, JkoOptions, JkoStepResult, jko_step,
                  jko_trajectory, pav_nondecreasing, project_spacing,
                  verify_comparison)
from .model import (GridDensity, GridSpec, Patch, QuantileRep,
                    make_grid_density, to_grid, to_quantile)
from .oracles import (barenblatt, barenblatt_halfwidth,
                      energy_minimizer_profile, quadratic_interval_flow,
                      stationary_patch)
from .pme import (PmeStabilityError, pme_run, pme_step, pressure, stable_dt,
                  support_set)
from .potentials import Potential, potential_catalog
from .transport import generalized_geodesic, w2_distance

__all__ = [
    "EnergyReport", "excess_mass", "free_energy", "internal_energy",
    "potential_energy", "regularize_to_feasible",
    "hausdorff_distance", "heleshaw_run",
    "JkoConvergenceError", "JkoOptions", "JkoStepResult", "jko_step",
    "jko_trajectory", "pav_nondecreasing", "project_spacing",
    "verify_comparison",
    "GridDensity", "GridSpec", "Patch", "QuantileRep",
    "make_grid_density", "to_grid", "to_quantile",
    "barenblatt", "barenblatt_halfwidth", "energy_minimizer_profile",
    "quadratic_interval_flow", "stationary_patch",
    "PmeStabilityError", "pme_run", "pme_step", "pressure",
    "stable_dt", "support_set",
    "Potential", "potential_catalog",
    "generalized_geodesic", "w2_distance",
]

__version__ = "0.1.0"
