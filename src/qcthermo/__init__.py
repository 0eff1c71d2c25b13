"""Classical, quantum and regularized thermodynamics of boxes and oscillators.

The package compares the classical thermodynamic quartet (Z, F, E, S) with
its regularized quantum counterpart for rectangular boxes and harmonic
oscillators, provides the quasi-classical asymptotics and sweep drivers, a
variational free-energy minimizer, a second-order semiclassical expansion
for smooth potentials, and recovery of box edges from sampled ratios.

The top-level namespace is every module's ``__all__``: each public name is
declared once, in its home module.  ``import qcthermo`` runs none of the
modules: each runs on first use, so a ``qcthermo`` process compiles and runs
only the modules its subcommand calls.
"""

from __future__ import annotations

__version__ = "0.1.0"

import importlib.util
import sys

# The modules that import numpy, and the public names of each.  The names are
# listed here because reading __all__ would load numpy; those of the other
# modules are read from their own __all__ (see __getattr__).
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


# Being in sys.modules from the start, every module is found by code that looks
# it up there, as the benchmark's tracer does.
core = _lazy_module("core")
oscillator = _lazy_module("oscillator")
sweeps = _lazy_module("sweeps")
_lazy_module("theta")  # the package attribute `theta` is the function
well = _lazy_module("well")
expressions = _lazy_module("expressions")
gibbs = _lazy_module("gibbs")
semiclassical = _lazy_module("semiclassical")


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(globals()[_LAZY_NAMES[name]], name)
    namespace = globals()
    if "__all__" not in namespace:
        # The first other lookup runs the numpy-free modules, which is cheap,
        # and binds their public names in the order of their own __all__.
        names = ["__version__"]
        for home in ("core", "oscillator", "sweeps", "theta", "well"):
            module = sys.modules[f"{__name__}.{home}"]
            namespace.update((key, getattr(module, key)) for key in module.__all__)
            names += module.__all__
        namespace["__all__"] = [*names, *_LAZY_NAMES]
        if name in namespace:
            return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # __all__ is read as an attribute first, so that it binds the names
    return sorted({*sys.modules[__name__].__all__, *globals()})
