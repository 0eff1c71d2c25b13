"""Shared domain types, validation, dimensionless parameter reductions and
the number parser of the command-line flags.

Units: k_B = 1 (temperatures are energies), h carries action units, m mass
units.  h = 0 is accepted by the reductions as the classical limit point;
operations that evaluate quantum sums reject it.

Each system class, BoxGeometry and OscillatorSpec, states once what is its
own: its name, the CLI flag of its list, the SweepPlan field of its base, its
sweep directions and the one that scales its axes, the names of its
residuals, and its 1-D phase space.  SYSTEMS maps each name to its class.
The sweeps, the CLI and the phase-space check read them there; the builders
of each system's report, which live in well and oscillator, are tabled in
sweeps.
"""

from __future__ import annotations

import math
import re
import sys

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


class _FieldSetter:
    """A record's field setter, built on first use.

    The setter takes one parameter per name in the class's __match_args__,
    in order, defaulted from its _defaults, as the __init__ of a frozen
    dataclass over those fields does.  It sets each field in straight-line
    code, compiled by one exec per class as dataclasses compiles its
    __init__: a loop over the names would make a record 60 to 90 % dearer
    to build.  Each field is stored through its slot's own member
    descriptor, found through the MRO so that an inherited slot is found
    too, and bound as _set_<i> in the setter's globals: its __set__ writes
    the slot directly, where object.__setattr__ would look the name up again
    on every store.  The first lookup through a class compiles the setter and
    stores it on that class under this attribute's name, so a process
    compiles only the setters of the records it builds or inspects.
    """

    def __init__(self, name):
        self.name = name

    def __get__(self, record, cls):
        names, defaults = cls.__match_args__, cls._defaults
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
        body = "".join(f"\n    _set_{i}(self, {n})" for i, n in enumerate(names))
        namespace = {f"_set_{i}": getattr(cls, n).__set__ for i, n in enumerate(names)}
        namespace["_defaults"] = defaults
        exec(f"def {self.name}(self{params}):{body}", namespace)
        setter = namespace[self.name]
        setter.__qualname__ = f"{cls.__qualname__}.{self.name}"
        setattr(cls, self.name, setter)
        return setter if record is None else setter.__get__(record, cls)


class _Record:
    """Base of the package's immutable records.

    A record lists its fields once, in order, in __slots__ = __match_args__,
    and any defaults in _defaults.  A record that checks nothing is built by
    its field setter alone, which is its __init__; one that checks or
    converts its input defines __init__ and hands the checked values to
    self._init_fields.  Equality, hash and repr are those of a frozen
    dataclass over the same fields, and assignment or deletion raises
    AttributeError.  Importing dataclasses would cost a process that only
    evaluates a few closed forms a good share of its start-up time.

    A subclass of a record that declares its own __match_args__ gets its own
    lazy setters, as a dataclass subclass gets its own __init__; otherwise it
    would find its base's setter once the base had built it.
    """

    __slots__ = ()
    _defaults = {}
    __init__ = _FieldSetter("__init__")
    _init_fields = _FieldSetter("_init_fields")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a direct subclass finds _Record's setters, which store what they
        # build on the class that looked them up
        if "__match_args__" in vars(cls) and hasattr(super(cls, cls), "__match_args__"):
            cls._init_fields = _FieldSetter("_init_fields")
            if "__init__" not in vars(cls):
                cls.__init__ = _FieldSetter("__init__")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record through its __init__, since
        # restoring slots one by one would assign to them
        return self.__class__, self._astuple()


class PhysicalParams(_Record):
    """Temperature, Planck constant and particle mass."""

    __slots__ = __match_args__ = ("T", "h", "m")

    def __init__(self, T: float, h: float, m: float):
        if not (T > 0):
            raise ValidationError(f"temperature must be positive, got T={T}")
        if not (m > 0):
            raise ValidationError(f"mass must be positive, got m={m}")
        if not (h >= 0):
            raise ValidationError(f"Planck constant must be >= 0, got h={h}")
        self._init_fields(T, h, m)


class _Axes:
    """Mixin of the two systems' records, which store their axes as the
    (value, multiplicity) pairs of their distinct values, in first-seen order.

    A system is built from a sequence whose items are values, one axis each,
    or (value, multiplicity) pairs with multiplicity >= 1; equal values
    merge.  Nothing is kept per axis: an N -> inf sweep row multiplies the
    base's multiplicities by N, as floats, so a row of 10^12 copies of two
    edges holds two pairs.  dimension, the number of axes, is the sum of the
    multiplicities, a finite float at most; it is kept beside the pairs and
    is not a field.  _names gives the system, an axis and the axes, for the
    messages.
    """

    __slots__ = ("dimension",)

    def _set_axes(self, axes):
        counts = {}
        for axis in axes:
            v, k = axis if isinstance(axis, tuple) else (axis, 1)
            v = float(v)
            counts[v] = counts.get(v, 0) + k
        name, axis, plural = self._names
        if not counts:
            raise ValidationError(f"{name} needs at least one {axis}")
        # 0 < v and 1 <= k, false for NaN too, in map's C loop
        if not all(map((0.0).__lt__, counts)):
            raise ValidationError(f"{plural} must be positive, got {tuple(counts)}")
        if not all(map((1.0).__le__, counts.values())):
            raise ValidationError(f"multiplicities must be >= 1, got {tuple(counts.values())}")
        dimension = sum(counts.values())
        if dimension == math.inf:
            raise ValidationError(f"{name} with more {plural} than a float counts")
        self._init_fields(tuple(counts.items()))
        _set_dimension(self, dimension)

    def _scaled(self, factor=1.0, copies=1):
        """This system with each value times factor and each multiplicity
        times copies."""
        pairs = getattr(self, self.__match_args__[0])  # the one field
        return self.__class__([(v * factor, k * copies) for v, k in pairs])


# stores a system's dimension: a record refuses every assignment once built
_set_dimension = _Axes.dimension.__set__


class BoxGeometry(_Axes, _Record):
    """Rectangular box 0 <= x_k <= a_k, stored as distinct_edges: the
    (edge, multiplicity) pairs of its distinct edges, in first-seen order.
    BoxGeometry([1, 2, 1]) and BoxGeometry([(1, 2), 2]) are one box."""

    __slots__ = __match_args__ = ("distinct_edges",)
    _names = ("box", "edge", "edges")
    # its name, the CLI flag of its list and the SweepPlan field of its base
    SYSTEM, FLAG, BASE_FIELD = "well", "edges", "base_geometry"
    DIRECTIONS = ("h_to_0", "T_to_inf", "a_to_inf", "m_to_inf", "N_to_inf")
    SCALING_DIRECTION = "a_to_inf"
    # every residual a report may carry, sorted; one whose asymptote is
    # undefined at a point, or beyond float range, is left out of its report
    RESIDUALS = ("small_mu_energy", "small_mu_product")

    def __init__(self, distinct_edges):
        self._set_axes(distinct_edges)

    def _phase_space(self, T, m):
        """(q_lo, q_hi, V(q), Z_c, E_c) of the first edge's 1-D box, Z_c
        without the 1/h of the quantum sum."""
        a = self.distinct_edges[0][0]
        return 0.0, a, lambda qq: 0.0 * qq, a * math.sqrt(2.0 * m * T * math.pi), T / 2.0


class OscillatorSpec(_Axes, _Record):
    """Harmonic oscillator with angular frequencies omega_k > 0, stored as
    distinct_frequencies: the (frequency, multiplicity) pairs of its distinct
    frequencies, in first-seen order."""

    __slots__ = __match_args__ = ("distinct_frequencies",)
    _names = ("oscillator", "frequency", "frequencies")
    SYSTEM, FLAG, BASE_FIELD = "oscillator", "omega", "base_spec"
    DIRECTIONS = ("h_to_0", "T_to_inf", "omega_to_0", "N_to_inf")
    SCALING_DIRECTION = "omega_to_0"
    RESIDUALS = ("small_tau_quadratic_e", "small_tau_quadratic_z")

    def __init__(self, distinct_frequencies):
        self._set_axes(distinct_frequencies)

    def _phase_space(self, T, m):
        """(q_lo, q_hi, V(q), Z_c, E_c) of the first frequency's 1-D
        oscillator, Z_c without the 1/h of the quantum sum."""
        w = self.distinct_frequencies[0][0]
        q = 12.0 * math.sqrt(T / m) / w  # -q is -12.0 * math.sqrt(T / m) / w, bit for bit
        return -q, q, lambda qq: m * w**2 * qq**2 / 2.0, 2.0 * math.pi * T / w, T


# each system's class by its name
SYSTEMS = {cls.SYSTEM: cls for cls in (BoxGeometry, OscillatorSpec)}


class ReducedParams(_Record):
    """Dimensionless controls.

    For a box: mu_k = h*sqrt(2*pi/(m*a_k^2*T)) with lambda_k = 4/(pi*mu_k^2)
    and the aggregates eps = max(mu), nu = min(mu).  For an oscillator:
    tau_k = h*omega_k/(2T) with delta = max(tau), kappa = min(tau).  rho =
    h*sqrt(pi/(2mT)) is always defined and satisfies mu_k = 2*rho/a_k.
    mu, lambda_theta and tau hold one entry per distinct axis, in the order
    of the system's pairs, whose multiplicities weigh them.  Sequences not
    applicable to the system at hand are empty tuples and the matching
    aggregates are None.
    """

    __slots__ = __match_args__ = (
        "mu", "tau", "rho", "lambda_theta", "eps", "nu", "delta", "kappa"
    )
    _defaults = dict(
        mu=(), tau=(), rho=0.0, lambda_theta=(), eps=None, nu=None, delta=None, kappa=None
    )


class ThermoQuartet(_Record):
    """Statistical sum, free energy, mean energy and entropy of one flavor.

    flavor is classical, quantum or regularized.  log_Z is primary and Z is
    derived from it (see _z_from_log); a NaN log_Z is taken as log(Z).
    Where e^log_Z underflows, deep in the quantum regime, Z is the smallest
    positive float, 5e-324; where it overflows, at large N or huge edges, Z
    is inf.  Either way log_Z carries the value, so free energies and ratios
    stay exact; only a printed Z of inf is an error (the CLI exits 3).
    """

    __slots__ = __match_args__ = ("Z", "F", "E", "S", "flavor", "T", "log_Z")

    def __init__(
        self, Z: float, F: float, E: float, S: float, flavor: str, T: float,
        log_Z: float = math.nan,
    ):
        if not (Z > 0):
            raise ValidationError(f"statistical sum must be positive, got {Z}")
        if math.isnan(log_Z):
            log_Z = math.log(Z)
        if flavor not in ("classical", "quantum", "regularized"):
            raise ValidationError(f"unknown flavor {flavor!r}")
        scale = max(abs(E), abs(T * S), abs(F), 1e-300)
        if abs(F - (E - T * S)) > QUARTET_IDENTITY_RTOL * scale:
            raise ValidationError(
                "free energy identity F = E - T*S violated: "
                f"F={F}, E={E}, T*S={T * S}"
            )
        self._init_fields(Z, F, E, S, flavor, T, log_Z)


class ComparisonReport(_Record):
    """Regularized-vs-classical comparison at one parameter point, with the
    two quartets it compares."""

    __slots__ = __match_args__ = (
        "point", "ratios", "diffs", "signs", "asymptotic_residuals", "classical",
        "regularized",
    )


def _z_from_log(log_z: float) -> float:
    """Z = e^log_Z for a quartet: 5e-324 where it underflows and inf where
    it overflows; a NaN log Z raises ConvergenceError."""
    if math.isnan(log_z):
        raise ConvergenceError("statistical sum is not a number: log Z = nan")
    try:
        return max(math.exp(log_z), 5e-324)
    except OverflowError:
        return math.inf


def _excess_sum(axes) -> tuple[float, float, float]:
    """Sum of k * (dlog z, dE/T, dS) over the (excess, k) pairs of the distinct
    axes, each excess an axis's regularized less classical values."""
    dz = de = ds = 0.0
    for (z, e, s), k in axes:
        dz += k * z
        de += k * e
        ds += k * s
    return dz, de, ds


def _regularized(classical: ThermoQuartet, excess: tuple[float, float, float]) -> ThermoQuartet:
    """The regularized quartet as the classical one plus the summed excess."""
    dz, de, ds = excess
    T, log_z = classical.T, classical.log_Z + dz
    return ThermoQuartet(Z=_z_from_log(log_z), F=-T * log_z, E=classical.E + T * de,
                         S=classical.S + ds, flavor="regularized", T=T, log_Z=log_z)


def sign_with_zero_band(d: float, reference: float = 0.0) -> int:
    """Sign of a difference, with |d| <= ZERO_BAND*(1+|reference|) as zero."""
    if abs(d) <= ZERO_BAND * (1.0 + abs(reference)):
        return 0
    return 1 if d > 0 else -1


def reduce_rho(params: PhysicalParams) -> float:
    """Thermal length scale rho = h*sqrt(pi/(2mT)); mu_k = 2*rho/a_k."""
    mt = 2.0 * params.m * params.T
    if sys.float_info.min <= mt < math.inf:
        return params.h * math.sqrt(math.pi / mt)
    # 2mT is subnormal, where pi/(2mT) may overflow, or under- or overflows;
    # take the root factor by factor
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
    mu = tuple(_edge_mu(rho, a) for a, _ in geom.distinct_edges)
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
    tau = tuple(_frequency_tau(params, w) for w, _ in spec.distinct_frequencies)
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
    """Finite float parser for CLI flags; accepts forms like 2pi, pi/2, 1.5e-3.

    A plain float literal is read by float() alone, which accepts the same
    ones as the pattern and costs a fifth of it; float() also reads '_'
    between digits, which the pattern does not, so such text takes the
    pattern's path."""
    if "_" not in text:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            return value
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
