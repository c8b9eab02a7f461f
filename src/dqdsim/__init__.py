"""Decoherence of a double-quantum-dot charge qubit coupled to phonon baths.

Two independent routes to the same dynamics: the closed-form solution of the
Redfield master equation for this two-level system, and direct construction
of the Redfield tensor followed by fixed-step RK4 integration.  The two
cross-validate each other; decoherence times come from the decay of the
off-diagonal density-matrix element.
"""

from .analysis import (
    NoDecoherenceError,
    NonFiniteResultError,
    PointEvaluation,
    SweepError,
    SweepPoint,
    SweepResult,
    SweepSpec,
    TrajectoryTooShortError,
    decoherence_time_analytic,
    decoherence_time_empirical,
    decoherence_times,
    equilibrium_populations,
    evaluate_point,
    run_sweep,
)
from .analytic import ChiRate, chi_rate, closed_form_derivative, closed_form_rdm, closed_form_trajectory
from .bath import (
    BathModel,
    DeformationBath,
    MaterialConstants,
    OhmicBath,
    PiezoelectricBath,
    bath_from_dict,
    bath_to_dict,
    bose_occupation,
    g_df_from_material,
    g_pz_from_material,
    spectral_density,
)
from .redfield import (
    RedfieldTensor,
    StepSizeError,
    Trajectory,
    build_tensor,
    gamma_minus,
    gamma_plus,
    liouvillian,
    propagate_numeric,
    time_grid,
)
from .system import DensityMatrix, EigenSystem, QubitParams, diagonalize, initial_state
from .units import CONSTANTS, HBAR_OVER_KB, Constants, temperature_from_millikelvin, thermal_ratio

__version__ = "0.1.0"

__all__ = [
    "BathModel",
    "ChiRate",
    "CONSTANTS",
    "Constants",
    "DeformationBath",
    "DensityMatrix",
    "EigenSystem",
    "HBAR_OVER_KB",
    "MaterialConstants",
    "NoDecoherenceError",
    "NonFiniteResultError",
    "OhmicBath",
    "PiezoelectricBath",
    "PointEvaluation",
    "QubitParams",
    "RedfieldTensor",
    "StepSizeError",
    "SweepError",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "Trajectory",
    "TrajectoryTooShortError",
    "bath_from_dict",
    "bath_to_dict",
    "bose_occupation",
    "build_tensor",
    "chi_rate",
    "closed_form_derivative",
    "closed_form_rdm",
    "closed_form_trajectory",
    "decoherence_time_analytic",
    "decoherence_time_empirical",
    "decoherence_times",
    "diagonalize",
    "equilibrium_populations",
    "evaluate_point",
    "g_df_from_material",
    "g_pz_from_material",
    "gamma_minus",
    "gamma_plus",
    "initial_state",
    "liouvillian",
    "propagate_numeric",
    "run_sweep",
    "spectral_density",
    "temperature_from_millikelvin",
    "thermal_ratio",
    "time_grid",
]
