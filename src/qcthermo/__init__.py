"""Classical, quantum and regularized thermodynamics of boxes and oscillators.

The package compares the classical thermodynamic quartet (Z, F, E, S) with
its regularized quantum counterpart for rectangular boxes and harmonic
oscillators, provides the quasi-classical asymptotics and sweep drivers, a
variational free-energy minimizer, a second-order semiclassical expansion
for smooth potentials, and recovery of box edges from sampled ratios.

The top-level namespace is every module's ``__all__``: each public name is
declared once, in its home module.
"""

from __future__ import annotations

__version__ = "0.1.0"

import importlib.util
import sys

from .core import *
from .oscillator import *
from .sweeps import *
from .theta import *
from .well import *

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
        "hessian_positivity_check", "minimize_free_energy",
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


# read through sys.modules: the package attribute `theta` is the function
__all__ = [
    "__version__",
    *(name for module in ("core", "oscillator", "sweeps", "theta", "well")
      for name in sys.modules[f"{__name__}.{module}"].__all__),
    *_LAZY_NAMES,
]
