"""Shared domain types, validation, dimensionless parameter reductions and
the number parser of the command-line flags.

Units: k_B = 1 (temperatures are energies), h carries action units, m mass
units.  h = 0 is accepted by the reductions as the classical limit point;
operations that evaluate quantum sums reject it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

__all__ = [
    "ValidationError",
    "ConvergenceError",
    "InversionError",
    "IntegrationError",
    "PhysicalParams",
    "BoxGeometry",
    "OscillatorSpec",
    "ReducedParams",
    "ThermoQuartet",
    "ComparisonReport",
    "reduce_well",
    "reduce_oscillator",
    "reduce_rho",
    "sign_with_zero_band",
    "parse_number",
]

# |d| <= ZERO_BAND*(1+|reference|) counts as zero when classifying signs;
# exponentially small tails would otherwise flip signs at tiny mu/tau.
ZERO_BAND = 1e-10

QUARTET_IDENTITY_RTOL = 1e-12


class ValidationError(ValueError):
    """Invalid input (bad parameter value, malformed configuration)."""


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge within its budget."""


class InversionError(RuntimeError):
    """Edge recovery failed (non-real or non-positive roots)."""


class IntegrationError(RuntimeError):
    """Quadrature could not reach the requested accuracy or diverged."""


@dataclass(frozen=True)
class PhysicalParams:
    """Temperature, Planck constant and particle mass."""

    T: float
    h: float
    m: float

    def __post_init__(self):
        if not (self.T > 0):
            raise ValidationError(f"temperature must be positive, got T={self.T}")
        if not (self.m > 0):
            raise ValidationError(f"mass must be positive, got m={self.m}")
        if not (self.h >= 0):
            raise ValidationError(f"Planck constant must be >= 0, got h={self.h}")

    @property
    def beta(self) -> float:
        """Inverse temperature 1/T."""
        return 1.0 / self.T


def _distinct(values: tuple[float, ...]) -> tuple[tuple[float, int], ...]:
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return tuple(counts.items())


@dataclass(frozen=True)
class BoxGeometry:
    """Rectangular box 0 <= x_k <= a_k."""

    edges: tuple[float, ...]

    def __init__(self, edges):
        edges = tuple(float(a) for a in edges)
        if len(edges) < 1:
            raise ValidationError("box needs at least one edge")
        if any(not (a > 0) for a in edges):
            raise ValidationError(f"edges must be positive, got {edges}")
        object.__setattr__(self, "edges", edges)

    @property
    def dimension(self) -> int:
        return len(self.edges)

    @cached_property
    def distinct_edges(self) -> tuple[tuple[float, int], ...]:
        """(edge, multiplicity) pairs in first-seen order."""
        return _distinct(self.edges)


@dataclass(frozen=True)
class OscillatorSpec:
    """Harmonic oscillator with angular frequencies omega_k > 0."""

    frequencies: tuple[float, ...]

    def __init__(self, frequencies):
        frequencies = tuple(float(w) for w in frequencies)
        if len(frequencies) < 1:
            raise ValidationError("oscillator needs at least one frequency")
        if any(not (w > 0) for w in frequencies):
            raise ValidationError(f"frequencies must be positive, got {frequencies}")
        object.__setattr__(self, "frequencies", frequencies)

    @property
    def dimension(self) -> int:
        return len(self.frequencies)

    @cached_property
    def distinct_frequencies(self) -> tuple[tuple[float, int], ...]:
        """(frequency, multiplicity) pairs in first-seen order."""
        return _distinct(self.frequencies)


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless controls.

    For a box: mu_k = h*sqrt(2*pi/(m*a_k^2*T)) with lambda_k = 4/(pi*mu_k^2)
    and the aggregates eps = max(mu), nu = min(mu).  For an oscillator:
    tau_k = h*omega_k/(2T) with delta = max(tau), kappa = min(tau).  rho =
    h*sqrt(pi/(2mT)) is always defined and satisfies mu_k = 2*rho/a_k.
    Sequences not applicable to the system at hand are empty tuples and the
    matching aggregates are None.
    """

    mu: tuple[float, ...] = ()
    tau: tuple[float, ...] = ()
    rho: float = 0.0
    lambda_theta: tuple[float, ...] = ()
    eps: float | None = None
    nu: float | None = None
    delta: float | None = None
    kappa: float | None = None


@dataclass(frozen=True)
class ThermoQuartet:
    """Statistical sum, free energy, mean energy and entropy of one flavor.

    log_Z is primary and Z is derived from it (see _z_from_log).  Where
    e^log_Z underflows, deep in the quantum regime, Z is the smallest
    positive float, 5e-324; where it overflows, at large N or huge edges, Z
    is inf.  Either way log_Z carries the value, so free energies and ratios
    stay exact; only a printed Z of inf is an error (the CLI exits 3).
    """

    Z: float
    F: float
    E: float
    S: float
    flavor: str  # classical | quantum | regularized
    T: float
    log_Z: float = field(default=math.nan)

    def __post_init__(self):
        if not (self.Z > 0):
            raise ValidationError(f"statistical sum must be positive, got {self.Z}")
        if math.isnan(self.log_Z):
            object.__setattr__(self, "log_Z", math.log(self.Z))
        if self.flavor not in ("classical", "quantum", "regularized"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        scale = max(abs(self.E), abs(self.T * self.S), abs(self.F), 1e-300)
        if abs(self.F - (self.E - self.T * self.S)) > QUARTET_IDENTITY_RTOL * scale:
            raise ValidationError(
                "free energy identity F = E - T*S violated: "
                f"F={self.F}, E={self.E}, T*S={self.T * self.S}"
            )


@dataclass(frozen=True)
class ComparisonReport:
    """Regularized-vs-classical comparison at one parameter point, with the
    two quartets it compares."""

    point: ReducedParams
    ratios: dict[str, float]
    diffs: dict[str, float]
    signs: dict[str, int]
    asymptotic_residuals: dict[str, float]
    classical: ThermoQuartet
    regularized: ThermoQuartet


def _z_from_log(log_z: float) -> float:
    """Z = e^log_Z for a quartet: 5e-324 where it underflows and inf where
    it overflows; a NaN log Z raises ConvergenceError."""
    if math.isnan(log_z):
        raise ConvergenceError("statistical sum is not a number: log Z = nan")
    try:
        return max(math.exp(log_z), 5e-324)
    except OverflowError:
        return math.inf


def sign_with_zero_band(d: float, reference: float = 0.0) -> int:
    """Sign of a difference, with |d| <= ZERO_BAND*(1+|reference|) as zero."""
    if abs(d) <= ZERO_BAND * (1.0 + abs(reference)):
        return 0
    return 1 if d > 0 else -1


def reduce_rho(params: PhysicalParams) -> float:
    """Thermal length scale rho = h*sqrt(pi/(2mT)); mu_k = 2*rho/a_k."""
    mt = 2.0 * params.m * params.T
    if 0.0 < mt < math.inf:
        return params.h * math.sqrt(math.pi / mt)
    # 2mT under- or overflows; take the root factor by factor
    return params.h * math.sqrt(math.pi / 2.0) / math.sqrt(params.m) / math.sqrt(params.T)


def _edge_mu(rho: float, a: float) -> float:
    """mu = 2*rho/a for one edge a; reduce_well and the box builders share it."""
    return 2.0 * rho / a


def _frequency_tau(params: PhysicalParams, omega: float) -> float:
    """tau = h*omega/(2T) for one frequency; reduce_oscillator and the
    oscillator builders share it."""
    return params.h * omega / (2.0 * params.T)


def reduce_well(params: PhysicalParams, geom: BoxGeometry) -> ReducedParams:
    """Dimensionless box parameters mu_k = 2*rho/a_k = h*sqrt(2*pi/(m*a_k^2*T)).

    Neither a_k^2 nor mu_k^2 is formed, so no edge in float range overflows
    mu to 0 and lam = 4/(pi*mu^2) never divides by an underflowed square.
    """
    rho = reduce_rho(params)
    mu = tuple(_edge_mu(rho, a) for a in geom.edges)
    lam = tuple(4.0 / math.pi / m / m if m > 0 else math.inf for m in mu)
    return ReducedParams(
        mu=mu,
        lambda_theta=lam,
        rho=rho,
        eps=max(mu),
        nu=min(mu),
    )


def reduce_oscillator(params: PhysicalParams, spec: OscillatorSpec) -> ReducedParams:
    """Dimensionless oscillator parameters tau_k = h*omega_k/(2T)."""
    tau = tuple(_frequency_tau(params, w) for w in spec.frequencies)
    return ReducedParams(
        tau=tau,
        rho=reduce_rho(params),
        delta=max(tau),
        kappa=min(tau),
    )


_NUMBER_PI = re.compile(
    r"(?i)^\s*(?P<sign>[+-])?\s*(?P<coef>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\s*"
    r"(?P<pi>pi)?\s*(?:/\s*(?P<div>[+-]?(?:\d+\.?\d*|\.\d+)))?\s*$"
)


def parse_number(text: str) -> float:
    """Finite float parser for CLI flags; accepts forms like 2pi, pi/2, 1.5e-3."""
    m = _NUMBER_PI.match(text)
    if not m or (m.group("coef") is None and m.group("pi") is None):
        raise ValidationError(f"cannot parse number {text!r}")
    value = float(m.group("coef")) if m.group("coef") is not None else 1.0
    if m.group("sign") == "-":
        value = -value
    if m.group("pi"):
        value *= math.pi
    if m.group("div") is not None:
        divisor = float(m.group("div"))
        if divisor == 0:
            raise ValidationError(f"division by zero in number {text!r}")
        value /= divisor
    if not math.isfinite(value):
        raise ValidationError(f"number {text!r} is beyond float range")
    return value
