"""Classical, quantum and regularized thermodynamics of boxes and oscillators.

The package compares the classical thermodynamic quartet (Z, F, E, S) with
its regularized quantum counterpart for rectangular boxes and harmonic
oscillators, provides the quasi-classical asymptotics and sweep drivers, a
variational free-energy minimizer, a second-order semiclassical expansion
for smooth potentials, and recovery of box edges from sampled ratios.
"""

from __future__ import annotations

__version__ = "0.1.0"

import importlib.util
import sys

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
    parse_number,
    reduce_oscillator,
    reduce_rho,
    reduce_well,
    sign_with_zero_band,
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

# The modules that import numpy, and the public names of each.  Each is put
# in sys.modules unexecuted and runs on its first attribute access, so `eval`
# and `sweep` never import numpy.  Being in sys.modules from the start, they
# are found by code that looks a module up there, as the benchmark's tracer
# does.  The names are listed here because reading __all__ would load them.
_LAZY = {
    "expressions": ("parse_potential",),
    "gibbs": (
        "LevelSet", "MinimizeResult", "PhaseSpaceCheck", "SimplexPoint",
        "classical_phase_space_check", "free_energy_functional", "gibbs_closed_form",
        "hessian_positivity_check", "minimize_free_energy", "oscillator_level_set",
        "well_level_set",
    ),
    "semiclassical": (
        "KWPrediction", "PotentialField", "harmonic_potential", "kw_expansion",
        "z0_integral", "z2_integral",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def _lazy_module(name: str):
    """Register qcthermo.<name> unexecuted; it runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


expressions = _lazy_module("expressions")
gibbs = _lazy_module("gibbs")
semiclassical = _lazy_module("semiclassical")


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(globals()[_LAZY_NAMES[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


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
    # expressions (parse_number lives in core)
    "parse_potential", "parse_number",
]
