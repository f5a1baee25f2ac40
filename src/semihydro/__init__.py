"""Simulator and verification harness for a one-dimensional viscous
Euler-Poisson carrier fluid with relaxation."""

from .field import DopingProfile, field_from_density, neutrality_defect, project_neutral
from .gas import (GasModel, eigenvalues, from_invariants, kernel_mass,
                  kernel_second_moment, mechanical_energy, pressure,
                  pressure_derivative, relative_entropy, to_invariants,
                  weak_entropy_pair)
from .solver import (BlowupError, SolverConfig, State, Trajectory, cfl_dt,
                     manufactured_forcing, manufactured_solution,
                     mms_convergence, mollify_initial, run, step)
from .stationary import (BracketError, DivergentTrial, InfeasibleTrial,
                         NewtonError, StationaryProfile, solve_stationary,
                         solve_viscous_stationary)

__all__ = [
    "DopingProfile", "field_from_density", "neutrality_defect", "project_neutral",
    "GasModel", "eigenvalues", "from_invariants", "kernel_mass",
    "kernel_second_moment", "mechanical_energy", "pressure",
    "pressure_derivative", "relative_entropy", "to_invariants",
    "weak_entropy_pair",
    "BlowupError", "SolverConfig", "State", "Trajectory", "cfl_dt",
    "manufactured_forcing", "manufactured_solution", "mms_convergence",
    "mollify_initial", "run", "step",
    "BracketError", "DivergentTrial", "InfeasibleTrial", "NewtonError",
    "StationaryProfile", "solve_stationary", "solve_viscous_stationary",
]

__version__ = "0.1.0"
