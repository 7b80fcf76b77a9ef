"""Numerical laboratory for the strong-coupling (Pekar) polaron ground state
and the variational inverse-mass bound built on top of it."""

from . import _threads  # noqa: F401  (must run before numpy loads)

from .grid import (
    RadialFunction,
    RadialGrid,
    build_grid,
    integrate_3d,
    radial_derivative,
)
from .coulomb import coulomb_bilinear, coulomb_potential
from .transforms import fourier_density, fourier_radial, fourier_radial_gradient
from .solver import (
    PekarState,
    SolverOptions,
    el_residual_position,
    imaginary_time_oracle,
    solve_pekar,
)
from .momentum import (
    MomentumProfile,
    RadialTestFunction,
    el_residual_momentum,
    field_energy,
    cross_expectation,
    density_expectation,
    number_expectation,
    momentum_profile,
)
from .massbound import (
    CutoffSpec,
    MassBoundReport,
    bound_rhs,
    kinetic_term,
    kinetic_term_position_oracle,
    mass_coefficient,
    pairing_term,
    potential_term,
    potential_term_position_oracle,
    trial_profile,
)
from .config import ConfigError, RunConfig, config_from_dict, load_config
from .errors import ConvergenceError, DomainError, NumericalError, StepSizeError

__all__ = [
    "RadialGrid", "RadialFunction", "build_grid", "integrate_3d",
    "radial_derivative",
    "coulomb_potential", "coulomb_bilinear",
    "fourier_radial", "fourier_density", "fourier_radial_gradient",
    "SolverOptions", "PekarState", "solve_pekar", "imaginary_time_oracle",
    "el_residual_position",
    "MomentumProfile", "RadialTestFunction", "momentum_profile",
    "el_residual_momentum", "field_energy", "density_expectation",
    "number_expectation", "cross_expectation",
    "CutoffSpec", "MassBoundReport", "trial_profile", "pairing_term",
    "kinetic_term", "potential_term", "bound_rhs", "mass_coefficient",
    "kinetic_term_position_oracle", "potential_term_position_oracle",
    "RunConfig", "ConfigError", "config_from_dict", "load_config",
    "ConvergenceError", "NumericalError", "DomainError", "StepSizeError",
]

__version__ = "0.1.0"
