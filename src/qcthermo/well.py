"""Thermodynamics of the N-dimensional box potential well.

Classical closed forms, regularized quantum values built from the lattice
sums in :mod:`qcthermo.theta`, the small-parameter geometric expansion of the
statistical-sum ratio, and recovery of the edges from sampled ratios.

The quartet builders loop over the box's distinct edges and weight each by
its multiplicity, so a box of N copies of a few edges costs one lattice sum
per distinct edge, not N.  The regularized entropy is summed per axis, never
formed as (E - F)/T, which cancels deep in the quantum regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    BoxGeometry,
    InversionError,
    PhysicalParams,
    ThermoQuartet,
    ValidationError,
    _edge_mu,
    _z_from_log,
    reduce_rho,
    reduce_well,
)
from .theta import theta

__all__ = [
    "well_classical",
    "well_regularized",
    "well_energy_ratio",
    "EntropyAsymptote",
    "well_entropy_asymptotic",
    "GeometricCoefficients",
    "geometric_coefficients",
    "kac_expansion_ratio",
    "kac_mean_energy_ratio",
    "hear_the_drum",
    "ASYMPTOTIC_EPS_LIMIT",
]

# e^{-4*pi/eps^2} < 1e-60 for eps <= 0.3: the neglected tail of the
# small-parameter expansions is far below float noise in this range.
ASYMPTOTIC_EPS_LIMIT = 0.3


def well_classical(params: PhysicalParams, geom: BoxGeometry) -> ThermoQuartet:
    """Classical quartet: Z = (2mT*pi)^(N/2) * prod(a_k), E = N*T/2."""
    n = geom.dimension
    T = params.T
    root = math.sqrt(2.0 * params.m * T * math.pi)
    log_z = sum(k * _log_edge_root(a, root, params) for a, k in geom.distinct_edges)
    z = _z_from_log(log_z)
    e = 0.5 * n * T
    s = 0.5 * n + log_z
    f = e - T * s
    return ThermoQuartet(Z=z, F=f, E=e, S=s, flavor="classical", T=T, log_Z=log_z)


def _log_edge_root(a: float, root: float, params: PhysicalParams) -> float:
    """log(a * root) with root = sqrt(2*pi*m*T), also where the product
    leaves float range."""
    product = a * root
    if 0.0 < product < math.inf:
        return math.log(product)
    return math.log(a) + 0.5 * (
        math.log(2.0 * math.pi) + math.log(params.m) + math.log(params.T)
    )


def well_regularized(params: PhysicalParams, geom: BoxGeometry) -> ThermoQuartet:
    """Regularized quantum quartet (2*pi*h)^N * prod_k Z_q(mu_k).

    S = N log(2*pi*h) + sum_k S_q(mu_k) from the per-axis entropies.
    """
    if params.h == 0:
        raise ValidationError("quantum sums need h > 0")
    rho = reduce_rho(params)
    T = params.T
    log_zq = 0.0
    e = 0.0
    s_q = 0.0
    for a, k in geom.distinct_edges:
        axis = theta(_edge_mu(rho, a))
        log_zq += k * axis.log_value
        e += k * (T * axis.mean_energy)
        s_q += k * axis.entropy
    n = geom.dimension
    log_2pi_h = math.log(2.0 * math.pi * params.h)
    log_zr = n * log_2pi_h + log_zq
    f = -T * log_zr
    s = n * log_2pi_h + s_q
    return ThermoQuartet(
        Z=_z_from_log(log_zr), F=f, E=e, S=s, flavor="regularized", T=T, log_Z=log_zr
    )


def well_energy_ratio(mu: float) -> float:
    """Mean-energy ratio (regularized over classical) for one box axis.

    Equals W1/W0 in the transformed representation; always > 1.
    """
    return 2.0 * theta(mu).mean_energy


@dataclass(frozen=True)
class EntropyAsymptote:
    value: float
    within_validity: bool


def well_entropy_asymptotic(params: PhysicalParams, geom: BoxGeometry) -> EntropyAsymptote:
    """Small-mu entropy prediction S_c - sum(mu_k)/4.

    within_validity is False once max(mu_k) exceeds ASYMPTOTIC_EPS_LIMIT.
    """
    reduced = reduce_well(params, geom)
    s_c = well_classical(params, geom).S
    value = s_c - sum(reduced.mu) / 4.0
    return EntropyAsymptote(value, reduced.eps <= ASYMPTOTIC_EPS_LIMIT)


@dataclass(frozen=True)
class GeometricCoefficients:
    """Elementary symmetric sums of the edges and box face measures.

    U[k] is the k-th elementary symmetric sum of the edges (U[0] = 1,
    U[N] = volume).  V[k] = U[k] * 2^(N-k) is the total k-dimensional
    measure of the box skeleton: V[N] volume, V[N-1] boundary area, ...,
    V[0] = 2^N vertices.
    """

    U: tuple[float, ...]
    V: tuple[float, ...]


def geometric_coefficients(geom: BoxGeometry) -> GeometricCoefficients:
    n = geom.dimension
    u = [1.0] + [0.0] * n
    for a in geom.edges:
        for k in range(min(n, len(u) - 1), 0, -1):
            u[k] += a * u[k - 1]
    v = tuple(u[k] * 2.0 ** (n - k) for k in range(n + 1))
    return GeometricCoefficients(U=tuple(u), V=v)


def kac_expansion_ratio(geom: BoxGeometry, rho: float) -> float:
    """Geometric expansion of the statistical-sum ratio.

    U_N^(-1) * sum_k (-1)^k rho^k U_{N-k}; exact for boxes, where it equals
    prod_k (1 - rho/a_k).
    """
    if rho < 0:
        raise ValidationError(f"rho must be >= 0, got {rho}")
    coeffs = geometric_coefficients(geom)
    n = geom.dimension
    terms = [(-1.0) ** k * rho**k * coeffs.U[n - k] for k in range(n + 1)]
    return math.fsum(terms) / coeffs.U[n]


def kac_mean_energy_ratio(geom: BoxGeometry, rho: float) -> float:
    """Leading-order mean-energy ratio 1 + rho * V_{N-1} / (2N * V_N)."""
    if rho < 0:
        raise ValidationError(f"rho must be >= 0, got {rho}")
    coeffs = geometric_coefficients(geom)
    n = geom.dimension
    return 1.0 + rho * coeffs.V[n - 1] / (2.0 * n * coeffs.V[n])


def hear_the_drum(samples, n_edges: int) -> tuple[float, ...]:
    """Recover box edges from samples of the statistical-sum ratio.

    samples are (rho, ratio) pairs with ratio ~ prod_k (1 - rho/a_k).  A
    degree-n_edges polynomial with constant term 1 is fitted by least
    squares in the monomial basis (columns scaled by rho powers); its roots
    in rho are the edges.
    """
    import numpy as np

    samples = [(float(r), float(v)) for r, v in samples]
    if n_edges < 1:
        raise ValidationError("n_edges must be >= 1")
    if len(samples) < n_edges + 1:
        raise ValidationError(
            f"need at least {n_edges + 1} samples to recover {n_edges} edges"
        )
    rhos = np.array([r for r, _ in samples])
    ys = np.array([v for _, v in samples]) - 1.0
    if len(set(rhos.tolist())) != len(rhos):
        raise ValidationError("sample rho values must be distinct")
    if not (np.all(np.isfinite(rhos)) and np.all(np.isfinite(ys))):
        raise InversionError("ratio samples are not finite")

    # Design matrix for rho^1..rho^N; columns scaled to unit norm to keep
    # the tiny Vandermonde system well conditioned.
    with np.errstate(all="ignore"):
        powers = np.vander(rhos, n_edges + 1, increasing=True)[:, 1:]
        scale = np.linalg.norm(powers, axis=0)
    if not (np.all(np.isfinite(powers)) and np.all((scale > 0) & np.isfinite(scale))):
        raise InversionError(
            "rho powers are beyond float range; edges too large or too small"
        )
    coeffs, *_ = np.linalg.lstsq(powers / scale, ys, rcond=None)
    coeffs /= scale

    # Roots of 1 + c_1 rho + ... + c_N rho^N are the edges.
    poly = np.concatenate(([1.0], coeffs))[::-1]
    roots = np.roots(poly)
    if len(roots) != n_edges:
        raise InversionError(
            f"recovered {len(roots)} of {n_edges} edges; the fitted polynomial lost its degree"
        )
    imag_tol = 1e-5 * (1.0 + np.abs(roots))
    if np.any(np.abs(roots.imag) > imag_tol):
        raise InversionError(
            "complex edge estimates; rho samples too large or too noisy"
        )
    edges = np.sort(roots.real)
    if np.any(edges <= 0):
        raise InversionError("non-positive edge estimates")
    return tuple(float(a) for a in edges)
