"""Thermodynamics and low-temperature, long-distance correlation
asymptotics of the one-dimensional delta-interacting Bose gas."""

from .amplitude import (AmplitudePlan, AmplitudeResult, amplitude_tilde,
                        bd_finite_T, c0_functional, c1_functional,
                        discrete_amplitude, smooth_amplitude)
from .correlator import (AsymptoticTerm, CorrelatorSeries, density_correlator,
                         ell0_closed, generating_asymptotics,
                         harmonic_amplitude)
from .excitation import (ConstraintError, ExcitationClass, USolution,
                         decay_rate_numeric, solve_u)
from .groundstate import GroundState, ModelParams, build_ground_state
from .numerics import NumericsError
from .thermal import ThermalSolution, solve_yang_yang
from .verification import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "AmplitudePlan", "AmplitudeResult", "AsymptoticTerm", "CheckResult", "ConstraintError",
    "CorrelatorSeries", "ExcitationClass", "GroundState", "ModelParams",
    "NumericsError", "ThermalSolution", "USolution", "amplitude_tilde",
    "bd_finite_T", "build_ground_state", "c0_functional", "c1_functional",
    "decay_rate_numeric", "density_correlator", "discrete_amplitude",
    "ell0_closed", "generating_asymptotics", "harmonic_amplitude",
    "run_checks", "smooth_amplitude", "solve_u", "solve_yang_yang",
]
