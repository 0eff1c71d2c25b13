"""Thermodynamics of the N-dimensional harmonic oscillator.

Closed forms for the classical and regularized quartets, the even-power
series of the ratio functions built from exact Bernoulli numbers, and the
closed-form derivative certificates behind the monotonicity statements.

One kernel, _axis_excess(tau), gives an axis's regularized less classical
log z, E/T and S without subtracting the two flavours, so the excess keeps
its relative accuracy as tau -> 0 and the entropy never cancels deep in the
quantum regime.  The regularized quartet is the classical one plus the
excess of each distinct frequency weighted by its multiplicity, and the
comparison report and the ratio functions read the same kernel.
"""

from __future__ import annotations

import math
from math import comb, factorial

from .core import (
    OscillatorSpec,
    PhysicalParams,
    ThermoQuartet,
    ValidationError,
    _excess_sum,
    _frequency_tau,
    _Record,
    _regularized,
    _z_from_log,
)

__all__ = [
    "osc_classical",
    "osc_regularized",
    "f_ratio",
    "g_ratio",
    "BernoulliSeries",
    "bernoulli_series",
    "series_eval",
    "MonotonicityCertificate",
    "monotonicity_certificates",
]

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


# Taylor coefficients in t^2 of r = (sinh t - t)/t and c = (t cosh t - sinh t)/t,
# 1/(2n+1)! and 2n/(2n+1)! for n = 9 down to 1: at t = 1 the first omitted
# terms are below 1e-18 of r and of c.
_EXCESS_SERIES = tuple((1.0 / factorial(m), (m - 1.0) / factorial(m)) for m in range(19, 2, -2))


def _axis_excess(tau: float) -> tuple[float, float, float]:
    """One axis's regularized less classical (dlog z, dE/T, dS) at tau = h*omega/(2T).

    dlog z = log(tau/sinh tau), dE/T = tau coth tau - 1 and dS = dlog z + dE/T.
    Below tau = 1 they are -log1p(r) and c/(1 + r), with r = (sinh tau - tau)/tau
    and c = (tau cosh tau - sinh tau)/tau summed from their series, so nothing
    cancels as tau -> 0 (tau = 0 gives zeros).  From tau = 1 on they come from
    q = e^{-2 tau}, with the entropy's large parts -tau and +tau cancelled
    analytically.
    """
    if tau < 1.0:
        t2 = tau * tau
        r = c = 0.0
        for a, b in _EXCESS_SERIES:
            r = r * t2 + a
            c = c * t2 + b
        r *= t2
        dz = -math.log1p(r)
        de = c * t2 / (1.0 + r)
        return dz, de, dz + de
    q = math.exp(-2.0 * tau)
    log_lead = math.log(2.0) + math.log(tau) - math.log1p(-q)  # log(2 tau/(1 - q))
    tail = 2.0 * tau * q / (1.0 - q)  # tau coth tau - tau
    return log_lead - tau, tau - 1.0 + tail, log_lead - 1.0 + tail


def _osc_excess(params: PhysicalParams, spec: OscillatorSpec) -> tuple[float, float, float]:
    """Sum over the distinct frequencies of multiplicity times _axis_excess."""
    if params.h == 0:
        raise ValidationError("quantum sums need h > 0")
    return _excess_sum(
        [(_axis_excess(_frequency_tau(params, w)), k) for w, k in spec.distinct_frequencies]
    )


def osc_regularized(params: PhysicalParams, spec: OscillatorSpec) -> ThermoQuartet:
    """Regularized quartet Z_r = prod 2*pi*T*tau_k/(omega_k*sinh(tau_k))."""
    return _regularized(osc_classical(params, spec), _osc_excess(params, spec))


def f_ratio(taus) -> float:
    """Statistical-sum ratio prod_k tau_k/sinh(tau_k); 1 at tau = 0."""
    taus = tuple(float(t) for t in taus)
    if any(t < 0 for t in taus):
        raise ValidationError("tau must be >= 0")
    return math.exp(sum(_axis_excess(t)[0] for t in taus))


def g_ratio(taus) -> float:
    """Mean-energy ratio (1/N) sum_k tau_k/tanh(tau_k); 1 at tau = 0."""
    taus = tuple(float(t) for t in taus)
    if not taus:
        raise ValidationError("need at least one tau")
    if any(t < 0 for t in taus):
        raise ValidationError("tau must be >= 0")
    return 1.0 + sum(_axis_excess(t)[1] for t in taus) / len(taus)


def _bernoulli_even(k: int) -> Fraction:
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
    _defaults = {"radius": math.pi}


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
        b2n = _bernoulli_even(n)
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
