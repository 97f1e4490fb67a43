"""Numerical laboratory for the 3D NLS with a planar harmonic trap.

Computes ground states of

    -Delta u + (x1^2 + x2^2) u = lambda u + |u|^{p-2} u,   lambda < 2,

traces the frequency -> mass branch, classifies orbital stability by the
slope criterion, and verifies both asymptotic regimes (free soliton as
lambda -> -infinity, dimension reduction as lambda -> 2) against
independently solved limit problems.
"""

__version__ = "0.1.0"

from .core import LAMBDA0, Field, ModelParams, PhysicalConstants, reparametrize
from .grid import Discretization, build
from .functionals import FunctionalReport, gradient, pohozaev_residual, report, scaled_actions
from .ground_state import (GroundStateResult, LinearizedOperator, Resolution,
                           SolverOptions, linearized_smallest_eigs, nehari_scale,
                           solve_chi, solve_ground_state)
from .limits import (ShotProfile, Soliton1D, reference_profile,
                     shoot_1d, shoot_3d, soliton_1d)
from .scaling import ScalingReport, from_v, from_w, scaling_report, to_v, to_w
from .branch import (BranchCurve, MassPair, asymptotic_constants, find_mass_pair,
                     mass_sup_scan, sweep)
from .dynamics import EvolutionConfig, EvolutionTrace, evolve, orbital_distance

__all__ = [
    "LAMBDA0", "Field", "ModelParams", "PhysicalConstants", "reparametrize",
    "Discretization", "build",
    "FunctionalReport", "gradient", "pohozaev_residual", "report", "scaled_actions",
    "GroundStateResult", "LinearizedOperator", "Resolution", "SolverOptions",
    "linearized_smallest_eigs", "nehari_scale", "solve_chi", "solve_ground_state",
    "ShotProfile", "Soliton1D", "reference_profile",
    "shoot_1d", "shoot_3d", "soliton_1d",
    "ScalingReport", "from_v", "from_w", "scaling_report", "to_v", "to_w",
    "BranchCurve", "MassPair", "asymptotic_constants", "find_mass_pair",
    "mass_sup_scan", "sweep",
    "EvolutionConfig", "EvolutionTrace", "evolve", "orbital_distance",
]
