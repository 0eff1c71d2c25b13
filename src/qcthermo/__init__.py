"""Classical, quantum and regularized thermodynamics of boxes and oscillators.

The package compares the classical thermodynamic quartet (Z, F, E, S) with
its regularized quantum counterpart for rectangular boxes and harmonic
oscillators, provides the quasi-classical asymptotics and sweep drivers, a
variational free-energy minimizer, a second-order semiclassical expansion
for smooth potentials, and recovery of box edges from sampled ratios.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    BoxGeometry,
    ComparisonReport,
    ConvergenceError,
    IntegrationError,
    InversionError,
    OscillatorSpec,
    PhysicalParams,
    ReducedParams,
    ThermoQuartet,
    ValidationError,
    reduce_oscillator,
    reduce_rho,
    reduce_well,
    sign_with_zero_band,
)
from .expressions import parse_number, parse_potential
from .gibbs import (
    LevelSet,
    MinimizeResult,
    PhaseSpaceCheck,
    SimplexPoint,
    classical_phase_space_check,
    free_energy_functional,
    gibbs_closed_form,
    hessian_positivity_check,
    minimize_free_energy,
    oscillator_level_set,
    well_level_set,
)
from .oscillator import (
    BernoulliSeries,
    MonotonicityCertificate,
    bernoulli_even,
    bernoulli_series,
    f_ratio,
    g_ratio,
    monotonicity_certificates,
    osc_classical,
    osc_regularized,
    series_eval,
)
from .semiclassical import (
    KWPrediction,
    PotentialField,
    harmonic_potential,
    kw_expansion,
    z0_integral,
    z2_integral,
)
from .sweeps import (
    FitResult,
    SweepPlan,
    SweepResult,
    SweepRow,
    comparison_report,
    fit_leading_order,
    run_sweep,
)
from .theta import (
    CROSSOVER_MU,
    SlopeWitnesses,
    ThetaValue,
    energy_sum,
    small_mu_slope_witnesses,
    theta,
    theta_direct,
    theta_poisson,
)
from .well import (
    EntropyAsymptote,
    GeometricCoefficients,
    geometric_coefficients,
    hear_the_drum,
    kac_expansion_ratio,
    kac_mean_energy_ratio,
    well_classical,
    well_energy_ratio,
    well_entropy_asymptotic,
    well_regularized,
)

__all__ = [
    "__version__",
    # core
    "ValidationError", "ConvergenceError", "InversionError", "IntegrationError",
    "PhysicalParams", "BoxGeometry", "OscillatorSpec", "ReducedParams",
    "ThermoQuartet", "ComparisonReport",
    "reduce_well", "reduce_oscillator", "reduce_rho", "sign_with_zero_band",
    # theta
    "ThetaValue", "CROSSOVER_MU", "theta", "theta_direct", "theta_poisson",
    "energy_sum", "SlopeWitnesses", "small_mu_slope_witnesses",
    # well
    "well_classical", "well_regularized", "well_energy_ratio",
    "EntropyAsymptote", "well_entropy_asymptotic",
    "GeometricCoefficients", "geometric_coefficients",
    "kac_expansion_ratio", "kac_mean_energy_ratio", "hear_the_drum",
    # oscillator
    "osc_classical", "osc_regularized", "f_ratio", "g_ratio",
    "bernoulli_even", "BernoulliSeries", "bernoulli_series", "series_eval",
    "MonotonicityCertificate", "monotonicity_certificates",
    # gibbs
    "LevelSet", "SimplexPoint", "oscillator_level_set", "well_level_set",
    "gibbs_closed_form", "free_energy_functional", "MinimizeResult",
    "minimize_free_energy", "hessian_positivity_check",
    "PhaseSpaceCheck", "classical_phase_space_check",
    # semiclassical
    "PotentialField", "harmonic_potential", "z0_integral", "z2_integral",
    "KWPrediction", "kw_expansion",
    # sweeps
    "SweepPlan", "SweepRow", "FitResult", "SweepResult",
    "comparison_report", "run_sweep", "fit_leading_order",
    # expressions
    "parse_potential", "parse_number",
]
