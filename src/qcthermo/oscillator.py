"""Thermodynamics of the N-dimensional harmonic oscillator.

Closed forms for the classical and regularized quartets, the even-power
series of the ratio functions built from exact Bernoulli numbers, and the
closed-form derivative certificates behind the monotonicity statements.
The quartet builders loop over the distinct frequencies and weight each by
its multiplicity.  The regularized entropy is summed per axis, never formed as
(E - F)/T, which cancels deep in the quantum regime.
"""

from __future__ import annotations

import math
from math import comb, factorial

from .core import (
    OscillatorSpec,
    PhysicalParams,
    ThermoQuartet,
    ValidationError,
    _frequency_tau,
    _Record,
    _set_field,
    _z_from_log,
)

__all__ = [
    "osc_classical",
    "osc_regularized",
    "f_ratio",
    "g_ratio",
    "bernoulli_even",
    "BernoulliSeries",
    "bernoulli_series",
    "series_eval",
    "MonotonicityCertificate",
    "monotonicity_certificates",
]

# Above this sinh overflows; ratios are evaluated through logarithms.
LOG_SPACE_TAU = 700.0

SERIES_RADIUS_MARGIN = 0.9 * math.pi


def osc_classical(params: PhysicalParams, spec: OscillatorSpec) -> ThermoQuartet:
    """Classical quartet: Z = prod(2*pi*T/omega_k), E = N*T, S = N + log Z."""
    n = spec.dimension
    T = params.T
    log_z = sum(k * _log_classical_axis(T, w) for w, k in spec.distinct_frequencies)
    e = n * T
    s = n + log_z
    return ThermoQuartet(
        Z=_z_from_log(log_z), F=e - T * s, E=e, S=s, flavor="classical", T=T, log_Z=log_z
    )


def _log_classical_axis(T: float, omega: float) -> float:
    """log(2*pi*T/omega), also where the quotient leaves float range."""
    x = 2.0 * math.pi * T / omega
    if 0.0 < x < math.inf:
        return math.log(x)
    return math.log(2.0 * math.pi) + math.log(T) - math.log(omega)


def _log_tau_over_sinh(tau: float) -> float:
    # log(tau/sinh(tau)); log(sinh t) = t - log 2 + log1p(-e^{-2t}) avoids
    # overflow for large tau.  tau = 0 (h*omega underflowed) is the limit 0.
    if tau == 0.0:
        return 0.0
    if tau > LOG_SPACE_TAU:
        return math.log(tau) - (tau - math.log(2.0) + math.log1p(-math.exp(-2.0 * tau)))
    return math.log(tau / math.sinh(tau))


def _tau_over_tanh(tau: float) -> float:
    if tau == 0.0:
        return 1.0
    return tau / math.tanh(tau)


def _entropy_over_classical_axis(tau: float) -> float:
    """One axis's entropy less log(2*pi*T/omega): log(tau/sinh tau) + tau/tanh tau.

    From tau = 1 on, the two terms' large parts -tau and +tau are cancelled
    analytically, so deep in the quantum regime nothing cancels in floats.
    tau = 0 is the limit 1.
    """
    if tau < 1.0:
        return _log_tau_over_sinh(tau) + _tau_over_tanh(tau)
    q = math.exp(-2.0 * tau)
    return math.log(2.0) + math.log(tau) - math.log1p(-q) + 2.0 * tau * q / (1.0 - q)


def osc_regularized(params: PhysicalParams, spec: OscillatorSpec) -> ThermoQuartet:
    """Regularized quartet Z_r = prod 2*pi*T*tau_k/(omega_k*sinh(tau_k))."""
    if params.h == 0:
        raise ValidationError("quantum sums need h > 0")
    T = params.T
    axes = [(w, _frequency_tau(params, w), k) for w, k in spec.distinct_frequencies]
    log_zr = sum(
        k * (_log_classical_axis(T, w) + _log_tau_over_sinh(tau))
        for w, tau, k in axes
    )
    e = T * sum(k * _tau_over_tanh(tau) for _, tau, k in axes)
    s = sum(
        k * (_log_classical_axis(T, w) + _entropy_over_classical_axis(tau)) for w, tau, k in axes
    )
    return ThermoQuartet(
        Z=_z_from_log(log_zr), F=-T * log_zr, E=e, S=s, flavor="regularized", T=T, log_Z=log_zr
    )


def f_ratio(taus) -> float:
    """Statistical-sum ratio prod_k tau_k/sinh(tau_k); 1 at tau = 0."""
    taus = tuple(float(t) for t in taus)
    if any(t < 0 for t in taus):
        raise ValidationError("tau must be >= 0")
    return math.exp(sum(_log_tau_over_sinh(t) for t in taus if t > 0))


def g_ratio(taus) -> float:
    """Mean-energy ratio (1/N) sum_k tau_k/tanh(tau_k); 1 at tau = 0."""
    taus = tuple(float(t) for t in taus)
    if not taus:
        raise ValidationError("need at least one tau")
    if any(t < 0 for t in taus):
        raise ValidationError("tau must be >= 0")
    return sum(_tau_over_tanh(t) if t > 0 else 1.0 for t in taus) / len(taus)


def bernoulli_even(k: int) -> Fraction:
    """B_{2k} as an exact Fraction via the binomial recurrence."""
    from fractions import Fraction

    if k < 0:
        raise ValidationError("k must be >= 0")
    b: list[Fraction] = [Fraction(1)]  # B_0
    for m in range(1, k + 1):
        n = 2 * m
        # sum_{j=0}^{n} C(n+1, j) B_j = 0, with B_1 = -1/2 and odd B zero
        s = Fraction(comb(n + 1, 1), -2)  # B_1 contribution
        for j in range(m):
            s += comb(n + 1, 2 * j) * b[j]
        b.append(-s / (n + 1))
    return b[k]


class BernoulliSeries(_Record):
    """Even-power series of a ratio function, radius of convergence pi.

    kind is f_sinh or g_tanh; coefficients[j] multiplies tau^(2j);
    coefficients[0] = 1.
    """

    __slots__ = __match_args__ = ("kind", "coefficients", "radius")

    def __init__(self, kind: str, coefficients: tuple[float, ...], radius: float = math.pi):
        _set_field(self, "kind", kind)
        _set_field(self, "coefficients", coefficients)
        _set_field(self, "radius", radius)


def bernoulli_series(kind: str, order: int) -> BernoulliSeries:
    """Series of tau/sinh(tau) (f_sinh) or tau/tanh(tau) (g_tanh) to tau^(2K).

    f coefficients: 2*(1 - 2^(2n-1)) * B_{2n} / (2n)!
    g coefficients: 2^(2n) * B_{2n} / (2n)!
    """
    from fractions import Fraction

    if kind not in ("f_sinh", "g_tanh"):
        raise ValidationError(f"unknown series kind {kind!r}")
    if order < 1:
        raise ValidationError("order must be >= 1")
    coeffs = [1.0]
    for n in range(1, order + 1):
        b2n = bernoulli_even(n)
        if kind == "f_sinh":
            c = 2 * (1 - Fraction(2) ** (2 * n - 1)) * b2n / factorial(2 * n)
        else:
            c = Fraction(2) ** (2 * n) * b2n / factorial(2 * n)
        coeffs.append(float(c))
    return BernoulliSeries(kind=kind, coefficients=tuple(coeffs))


def series_eval(series: BernoulliSeries, tau: float) -> float:
    """Horner evaluation in tau^2; restricted to |tau| <= 0.9*pi."""
    if abs(tau) > SERIES_RADIUS_MARGIN:
        raise ValidationError(
            f"|tau|={abs(tau)} outside the guaranteed convergence margin "
            f"{SERIES_RADIUS_MARGIN:.6f}"
        )
    t2 = tau * tau
    acc = 0.0
    for c in reversed(series.coefficients):
        acc = acc * t2 + c
    return acc


class MonotonicityCertificate(_Record):
    """Closed-form derivatives of the three tau-dependent quantities.

    z_ratio_slope is d/dtau tau/sinh(tau), negative; e_ratio_slope is
    d/dtau tau/tanh(tau), positive; entropy_slope is d/dtau S_r, positive.
    """

    __slots__ = __match_args__ = ("z_ratio_slope", "e_ratio_slope", "entropy_slope", "signs")

    def __init__(
        self, z_ratio_slope: float, e_ratio_slope: float, entropy_slope: float,
        signs: tuple[int, int, int],
    ):
        _set_field(self, "z_ratio_slope", z_ratio_slope)
        _set_field(self, "e_ratio_slope", e_ratio_slope)
        _set_field(self, "entropy_slope", entropy_slope)
        _set_field(self, "signs", signs)


def monotonicity_certificates(tau: float) -> MonotonicityCertificate:
    if not (tau > 0):
        raise ValidationError(f"tau must be positive, got {tau}")
    sh = math.sinh(tau)
    dz = (sh - tau * math.cosh(tau)) / (sh * sh)
    de = (math.sinh(2.0 * tau) - 2.0 * tau) / (2.0 * sh * sh)
    ds = (sh * sh - tau * tau) / (tau * sh * sh)
    return MonotonicityCertificate(
        z_ratio_slope=dz,
        e_ratio_slope=de,
        entropy_slope=ds,
        signs=(-1 if dz < 0 else (0 if dz == 0 else 1),
               -1 if de < 0 else (0 if de == 0 else 1),
               -1 if ds < 0 else (0 if ds == 0 else 1)),
    )
