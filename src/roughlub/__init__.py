"""Thin-film lubrication with homogenized surface-roughness corrections.

The pressure in a thin viscous film obeys a Reynolds-type equation; partial
surface roughness enters through two effective coefficients that rescale the
pressure-driven and shear-driven flux terms.  This package evaluates those
coefficients, solves the corrected pressure equation with P1 finite elements
on the unit square, and reconstructs the through-gap velocity profile.
"""

from .coefficients import (CoefficientPair, coefficients, cosine_roughness_intensity,
                           growth_integral)
from .geometry import (CoefficientFields, ConfigError, GapProfile, Grid,
                       RoughnessSpec, RoughRegion, ScenarioConfig, build_fields,
                       evaluate_gap, load_config)
from .postprocess import (ComparisonReport, VelocityProfile, compare_fields,
                          flux_from_coefficients, flux_from_velocity,
                          gradient_at, velocity_profile)
from .solver import (ConvergenceError, LinearSystem, PressureSolution, assemble,
                     solve_fields, solve_linear, solve_reynolds)

__all__ = [
    "CoefficientPair", "coefficients", "cosine_roughness_intensity",
    "growth_integral",
    "CoefficientFields", "ConfigError", "GapProfile", "Grid", "RoughnessSpec",
    "RoughRegion", "ScenarioConfig", "build_fields", "evaluate_gap", "load_config",
    "ComparisonReport", "VelocityProfile", "compare_fields",
    "flux_from_coefficients", "flux_from_velocity", "gradient_at",
    "velocity_profile",
    "ConvergenceError", "LinearSystem", "PressureSolution", "assemble",
    "solve_fields", "solve_linear", "solve_reynolds",
]

__version__ = "0.1.0"
