"""Gaussian lattice sums for the quantum box spectrum.

The one-dimensional quantum statistical sum of a box is

    Z_q(mu) = sum_{n>=1} exp(-(pi/4) n^2 mu^2),

summed directly for large mu and through its Poisson-transformed dual

    Z_q = -1/2 + 1/mu + (2/mu) sum_{n>=1} exp(-(n pi)^2 lam),
    lam = 4/(pi mu^2),

for small mu.  Both series decay like exp(-pi n^2) at mu = 2/sqrt(pi), which
is where theta switches representation.

Both representations run the same single loop, _gaussian_moments, which sums
the series and its n^2-weighted moment together with the leading term
factored out.  So one pass per axis gives Z_q, the mean energy and the
entropy, and on the direct side log Z_q = -(pi/4) mu^2 + log(sum) is formed
in log space: it stays finite however deep in the quantum regime mu lies,
where Z_q itself underflows to 0.  The loop also sums the (n^2 - 1)-weighted
moment on its own, so the direct-side entropy log(s0) + d (s2 - s0)/s0 never
subtracts the two large, nearly equal terms log Z_q and the mean energy.

Each value also carries the axis's excess over the classical box axis,
log(mu Z_q), E/T - 1/2 and their sum: the box's regularized quartet and the
comparison report add it to the classical values, and on the Poisson side it
is formed without cancellation as mu -> 0.
"""

from __future__ import annotations

import math

from .core import ConvergenceError, ValidationError, _Record

__all__ = [
    "ThetaValue",
    "theta_direct",
    "theta_poisson",
    "theta",
    "energy_sum",
    "SlopeWitnesses",
    "small_mu_slope_witnesses",
]

# Balanced-decay point: both representations lose exp(-pi) per term here.
_CROSSOVER_MU = 2.0 / math.sqrt(math.pi)

MAX_TERMS = 10**6
DEFAULT_TOL = 1e-16


class ThetaValue(_Record):
    """Z_q(mu) and how it was summed.

    representation_used is direct or poisson.  truncation_bound bounds the
    omitted tail of value.  log_value is log Z_q, finite where value
    underflows to 0; mean_energy is the per-axis mean energy over T,
    lam * dZ_q/dlam / Z_q; entropy is the per-axis entropy log_value +
    mean_energy, which the direct side forms without cancelling the two (both
    grow like (pi/4) mu^2 deep in the quantum regime).  excess is the axis's
    regularized less classical (dlog z, dE/T, dS): log(mu Z_q),
    mean_energy - 1/2 and their sum, formed on the Poisson side without
    subtracting the two flavours, so they keep their relative accuracy as
    mu -> 0.
    """

    __slots__ = __match_args__ = (
        "value", "representation_used", "terms_used", "truncation_bound", "log_value",
        "mean_energy", "entropy", "excess",
    )


def _gaussian_moments(decay: float, tol: float = DEFAULT_TOL):
    """s0 = sum_{n>=1} e^{-decay(n^2-1)} and s2 = sum_{n>=1} n^2 e^{-decay(n^2-1)}.

    Returns (s0, s2, s2_minus_s0, terms, bound), where s2_minus_s0 =
    sum_{n>=2} (n^2-1) e^{-decay(n^2-1)} is summed term by term, not as a
    difference.  s0 and s2 start at 1, so neither underflows.  Summing stops
    once the next n^2-weighted term falls below
    tol * s0.  Weighted terms dominate plain ones, and for k >= m the ratio
    of consecutive weighted terms, ((k+1)/k)^2 e^{-decay(2k+1)}, is largest
    at the first omitted index m; so bound, the geometric series from m with
    that ratio, bounds the omitted tail of both s0 and s2.
    """
    s0 = s2 = 1.0
    s2_minus_s0 = 0.0
    n = 1
    while n < MAX_TERMS:
        m = n + 1
        term = math.exp(-decay * (m * m - 1))
        weighted = m * m * term
        if weighted <= tol * s0:
            ratio = ((m + 1) / m) ** 2 * math.exp(-decay * (2 * m + 1))
            bound = weighted / (1.0 - ratio) if ratio < 1.0 else math.inf
            return s0, s2, s2_minus_s0, n, bound
        s0 += term
        s2 += weighted
        s2_minus_s0 += (m * m - 1) * term
        n = m
    raise ConvergenceError(f"Gaussian sum did not converge in {MAX_TERMS} terms")


def _check(mu: float) -> None:
    if not (mu > 0):
        raise ValidationError(f"mu must be positive, got {mu}")


def theta_direct(mu: float) -> ThetaValue:
    """Direct sum sum_{n>=1} exp(-(pi/4) n^2 mu^2), with log Z_q in log space."""
    _check(mu)
    if mu < 1e-4:
        raise ConvergenceError(
            f"mu={mu} too small for the direct representation; use theta_poisson"
        )
    decay = (math.pi / 4.0) * mu * mu  # = 1/lam
    s0, s2, s2_minus_s0, terms, bound = _gaussian_moments(decay)
    lead = math.exp(-decay)
    log_s0, log_mu = math.log(s0), math.log(mu)
    # s2_minus_s0 is 0 once decay overflows, where decay * s2_minus_s0 would be nan
    mean_energy = decay * s2 / s0
    entropy = log_s0 + (decay * s2_minus_s0 / s0 if s2_minus_s0 else 0.0)
    return ThetaValue(
        lead * s0, "direct", terms, lead * bound, -decay + log_s0, mean_energy, entropy,
        (log_mu - decay + log_s0, mean_energy - 0.5, log_mu + entropy - 0.5),
    )


def theta_poisson(mu: float) -> ThetaValue:
    """Poisson-transformed sum -1/2 + 1/mu + (2/mu) sum exp(-(n pi)^2 lam).

    With W0 = mu * Z_q and W1 = 1 + 2 sum (1 - 2 (n pi)^2 lam) e^{-(n pi)^2 lam},
    the mean energy over T is W1 / (2 W0).  The excess is formed from
    W0 - 1 = -mu/2 + 2 sum e^{-(n pi)^2 lam} and
    W1 - W0 = mu/2 - 4 sum (n pi)^2 lam e^{-(n pi)^2 lam}, each summed on its
    own, so it never subtracts two values near 1; the mean energy is 1/2 plus
    its excess.
    """
    _check(mu)
    decay = 4.0 * math.pi / mu / mu  # = pi^2 lam
    s0, s2, _, terms, bound = _gaussian_moments(decay)
    lead = math.exp(-decay)
    value = -0.5 + 1.0 / mu + (2.0 / mu) * lead * s0
    w0_minus_1 = 2.0 * lead * s0 - 0.5 * mu
    # lead is 0 once decay overflows, where decay * lead would be nan
    w1_minus_w0 = 0.5 * mu - (4.0 * decay * lead * s2 if lead else 0.0)
    dz, de = math.log1p(w0_minus_1), w1_minus_w0 / (2.0 + 2.0 * w0_minus_1)
    log_value = math.log(value)
    return ThetaValue(
        value, "poisson", terms, (2.0 / mu) * lead * bound, log_value, 0.5 + de,
        log_value + 0.5 + de, (dz, de, dz + de),
    )


def theta(mu: float) -> ThetaValue:
    """Z_q(mu) from the representation with the faster-decaying series."""
    if mu >= _CROSSOVER_MU:
        return theta_direct(mu)
    return theta_poisson(mu)


def energy_sum(mu: float) -> float:
    """Energy-weighted lattice sum lam * dZ_q/dlam = Z_q * mean_energy."""
    t = theta(mu)
    return t.value * t.mean_energy


class SlopeWitnesses(_Record):
    """Numerical witnesses of the small-mu monotonicity bound.

    slope_bound is the upper bound on d/dmu of the statistical-sum ratio at
    the small-mu regime boundary; the comparison integral_to_one >
    integrand_at_one justifies replacing the lattice sum by an integral.
    """

    __slots__ = __match_args__ = ("slope_bound", "integral_to_one", "integrand_at_one")


def small_mu_slope_witnesses() -> SlopeWitnesses:
    """Recompute the bound -1/2 + 2*pi^4*sum n^2 exp(-n^2 pi^3) and its
    integral-comparison witnesses; the bound must be negative."""
    eta = math.pi**-3
    _, s2, _, _, _ = _gaussian_moments(math.pi**3)
    slope_bound = -0.5 + 2.0 * math.pi**4 * math.exp(-(math.pi**3)) * s2
    at_one = math.exp(-1.0 / eta)
    # int_0^1 x^2 exp(-x^2/eta) dx in closed form
    integral = (
        eta**1.5 * math.sqrt(math.pi) / 4.0 * math.erf(1.0 / math.sqrt(eta)) - eta / 2.0 * at_one
    )
    return SlopeWitnesses(
        slope_bound=slope_bound,
        integral_to_one=integral,
        integrand_at_one=at_one,
    )
