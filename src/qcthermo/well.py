"""Thermodynamics of the N-dimensional box potential well.

Classical closed forms, regularized quantum values built from the lattice
sums in :mod:`qcthermo.theta`, the small-parameter geometric expansion of the
statistical-sum ratio, and recovery of the edges from sampled ratios.

The regularized quartet is the classical one plus the excess of each
distinct edge, weighted by its multiplicity: theta returns an axis's
regularized less classical log z, E/T and S, formed without subtracting the
two flavours.  So a box of N copies of a few edges costs one lattice sum per
distinct edge, not N; the excess keeps its relative accuracy as mu -> 0; and
the entropy never cancels deep in the quantum regime.
"""

from __future__ import annotations

import math
import operator
import sys

from .core import (
    BoxGeometry,
    ConvergenceError,
    InversionError,
    PhysicalParams,
    ThermoQuartet,
    ValidationError,
    _edge_mu,
    _excess_sum,
    _Record,
    _regularized,
    _z_from_log,
    reduce_rho,
    reduce_well,
)
from .theta import theta

__all__ = [
    "well_classical",
    "well_regularized",
    "EntropyAsymptote",
    "well_entropy_asymptotic",
    "GeometricCoefficients",
    "geometric_coefficients",
    "kac_expansion_ratio",
    "kac_mean_energy_ratio",
    "hear_the_drum",
]

# e^{-4*pi/eps^2} < 1e-60 for eps <= 0.3: the neglected tail of the
# small-parameter expansions is far below float noise in this range.
ASYMPTOTIC_EPS_LIMIT = 0.3
# largest rounding bound of kac_expansion_ratio's alternating sum, relative
# to the sum, that it returns
KAC_ROUNDING_LIMIT = 1e-8


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


def _box_excess(params: PhysicalParams, geom: BoxGeometry) -> tuple[float, float, float]:
    """Sum over the distinct edges of multiplicity times theta's excess; a
    ConvergenceError where a mu is beyond float range."""
    if params.h == 0:
        raise ValidationError("quantum sums need h > 0")
    rho = reduce_rho(params)
    excess = []
    for a, k in geom.distinct_edges:
        mu = _edge_mu(rho, a)
        if mu == math.inf:
            raise ConvergenceError(f"mu = 2*rho/a is beyond float range at edge a={a}")
        # an edge whose mu underflows to 0 sits at its classical limit, where
        # the excess is 0, as the oscillator's is at tau = 0
        if mu != 0.0:
            excess.append((theta(mu).excess, k))
    return _excess_sum(excess)


def well_regularized(params: PhysicalParams, geom: BoxGeometry) -> ThermoQuartet:
    """Regularized quantum quartet (2*pi*h)^N * prod_k Z_q(mu_k)."""
    return _regularized(well_classical(params, geom), _box_excess(params, geom))


class EntropyAsymptote(_Record):
    __slots__ = __match_args__ = ("value", "within_validity")


def well_entropy_asymptotic(params: PhysicalParams, geom: BoxGeometry) -> EntropyAsymptote:
    """Small-mu entropy prediction S_c - sum(mu_k)/4.

    within_validity is False once max(mu_k) exceeds ASYMPTOTIC_EPS_LIMIT.
    """
    reduced = reduce_well(params, geom)
    s_c = well_classical(params, geom).S
    value = s_c - sum(k * mu for mu, (_, k) in zip(reduced.mu, geom.distinct_edges)) / 4.0
    return EntropyAsymptote(value, reduced.eps <= ASYMPTOTIC_EPS_LIMIT)


class GeometricCoefficients(_Record):
    """Elementary symmetric sums of the edges and box face measures.

    U[k] is the k-th elementary symmetric sum of the edges (U[0] = 1,
    U[N] = volume).  V[k] = U[k] * 2^(N-k) is the total k-dimensional
    measure of the box skeleton: V[N] volume, V[N-1] boundary area, ...,
    V[0] = 2^N vertices.
    """

    __slots__ = __match_args__ = ("U", "V")


def geometric_coefficients(geom: BoxGeometry) -> GeometricCoefficients:
    """U and V of the box's edges; a ValidationError where one of them
    leaves the normal float range, since every one is positive."""
    edges = [a for a, copies in geom.distinct_edges for _ in range(int(copies))]
    n = len(edges)
    u = [1.0] + [0.0] * n
    for a in edges:
        for k in range(n, 0, -1):
            u[k] += a * u[k - 1]
    big = sys.float_info.max_exp  # 2.0**big overflows
    v = tuple(u[k] * (2.0 ** (n - k) if n - k < big else math.inf) for k in range(n + 1))
    if not all(sys.float_info.min <= c < math.inf for c in (*u, *v)):
        raise ValidationError(f"geometric coefficients of {n} edges leave the float range")
    return GeometricCoefficients(U=tuple(u), V=v)


def kac_expansion_ratio(geom: BoxGeometry, rho: float) -> float:
    """Geometric expansion of the statistical-sum ratio.

    U_N^(-1) * sum_k (-1)^k rho^k U_{N-k}; exact for boxes, where it equals
    prod_k (1 - rho/a_k).  The terms alternate in sign and math.fsum adds
    them exactly, so the error is the terms' own rounding, at most about
    (N + 2) eps sum_k |term k|.  Where that bound exceeds KAC_ROUNDING_LIMIT
    times the sum, or a term leaves float range, the digits are lost and a
    ConvergenceError is raised.
    """
    if not (rho >= 0):
        raise ValidationError(f"rho must be >= 0, got {rho}")
    coeffs = geometric_coefficients(geom)
    n = len(coeffs.U) - 1
    try:
        terms = [(-1.0) ** k * rho**k * coeffs.U[n - k] for k in range(n + 1)]
        size, total = math.fsum(map(abs, terms)), math.fsum(terms)
    except (OverflowError, ValueError):  # a power, or a sum, beyond float range
        size = total = math.inf
    if not (size < math.inf and (n + 2) * sys.float_info.epsilon * size
            <= KAC_ROUNDING_LIMIT * abs(total)):
        raise ConvergenceError(
            f"Kac expansion at rho={rho} cancels past float precision: terms of "
            f"total size {size:.6g} sum to {total:.6g}"
        )
    return total / coeffs.U[n]


def kac_mean_energy_ratio(geom: BoxGeometry, rho: float) -> float:
    """Leading-order mean-energy ratio 1 + rho * V_{N-1} / (2N * V_N)."""
    if not (rho >= 0):
        raise ValidationError(f"rho must be >= 0, got {rho}")
    coeffs = geometric_coefficients(geom)
    n = len(coeffs.U) - 1
    return 1.0 + rho * coeffs.V[n - 1] / (2.0 * n * coeffs.V[n])


def hear_the_drum(samples, n_edges: int) -> tuple[float, ...]:
    """Recover box edges from samples of the statistical-sum ratio.

    samples are (rho, ratio) pairs with ratio ~ prod_k (1 - rho/a_k).  A
    degree-n_edges polynomial with constant term 1 is fitted by least
    squares in the monomial basis of s = rho/r0, with r0 the power of two at
    the smallest |rho|, so the powers stay in float range at any scale of the
    edges.  The fit is a Householder QR of the design with math.fsum inner
    products, followed by one step of iterative refinement: the residual
    b - Ax is formed with fsum, solved with the same QR and the correction
    added.  The roots of the fitted polynomial, found by Aberth-Ehrlich
    iteration, times r0 are the edges.  Plain Python throughout: the system
    has a dozen rows and at most ten columns at the CLI's defaults.
    """
    samples = [(float(r), float(v)) for r, v in samples]
    if n_edges < 1:
        raise ValidationError("n_edges must be >= 1")
    if len(samples) < n_edges + 1:
        raise ValidationError(
            f"need at least {n_edges + 1} samples to recover {n_edges} edges"
        )
    rhos = [r for r, _ in samples]
    ys = [v - 1.0 for _, v in samples]
    if len(set(rhos)) != len(rhos):
        raise ValidationError("sample rho values must be distinct")
    if not all(map(math.isfinite, rhos + ys)):
        raise InversionError("ratio samples are not finite")

    # Columns (rho/r0)^1..(rho/r0)^N by repeated multiplication, each divided
    # by a power of two near its largest entry: both divisions are exact.
    r0 = math.ldexp(1.0, math.frexp(min(map(abs, rhos)))[1])
    powers = [[r / r0 for r in rhos]]
    for _ in range(n_edges - 1):
        powers.append([p * s for p, s in zip(powers[-1], powers[0])])
    peaks = [max(map(abs, column)) for column in powers]
    if not all(0.0 < peak < math.inf for peak in peaks):
        raise InversionError(
            "rho powers are beyond float range; edges too large or too small"
        )
    scales = [math.ldexp(1.0, math.frexp(peak)[1]) for peak in peaks]
    design = [[p / scale for p in column] for column, scale in zip(powers, scales)]
    solve = _least_squares(design)
    x = solve(ys)
    residual = [
        math.fsum([y, *(-column[i] * xk for column, xk in zip(design, x))])
        for i, y in enumerate(ys)
    ]
    coeffs = [(xk + dk) / scale for xk, dk, scale in zip(x, solve(residual), scales)]

    # Roots of 1 + c_1 s + ... + c_N s^N, s = rho/r0, are the edges over r0.
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) != n_edges:
        raise InversionError(
            f"recovered {len(coeffs)} of {n_edges} edges; the fitted polynomial lost its degree"
        )
    roots = _aberth_roots([1.0, *coeffs])
    if not all(abs(z.imag) <= 1e-5 * (1.0 + abs(z)) for z in roots):
        raise InversionError(
            "complex edge estimates; rho samples too large or too noisy"
        )
    edges = sorted(z.real * r0 for z in roots)
    if any(a <= 0 for a in edges):
        raise InversionError("non-positive edge estimates")
    return tuple(edges)


def _least_squares(columns):
    """solve(b): the least-squares solution of A x = b, A given by its columns.

    A is factored once by Householder QR, every inner product a math.fsum.
    As in numpy's lstsq, a pivot of R at most eps * max(m, n) times the
    largest one marks a dependent column, whose unknown is set to 0.
    """
    m, n = len(columns[0]), len(columns)
    r = [list(column) for column in columns]  # R on and above the diagonal
    reflectors = []
    for k, column in enumerate(r):
        v = column[k:]
        norm = math.sqrt(math.fsum(t * t for t in v))
        alpha = -math.copysign(norm, v[0])
        v[0] -= alpha
        half_vv = norm * (norm + abs(column[k]))  # |v|^2 / 2
        column[k] = alpha
        reflectors.append((k, v, half_vv))
        _reflect(v, half_vv, r[k + 1:], k)
    cutoff = sys.float_info.epsilon * max(m, n) * max(abs(r[k][k]) for k in range(n))

    def solve(b):
        qb = list(b)
        for k, v, half_vv in reflectors:
            _reflect(v, half_vv, [qb], k)
        x = [0.0] * n
        for k in reversed(range(n)):
            if abs(r[k][k]) > cutoff:
                tail = math.fsum([qb[k], *(-r[j][k] * x[j] for j in range(k + 1, n))])
                x[k] = tail / r[k][k]
        return x

    return solve


def _reflect(v, half_vv, columns, k):
    """Apply I - v v^T / half_vv to rows k: of each column, in place."""
    if not half_vv:
        return
    for column in columns:
        f = math.fsum(map(operator.mul, v, column[k:])) / half_vv
        column[k:] = [c - f * t for c, t in zip(column[k:], v)]


# Sweeps of Aberth-Ehrlich iteration before the iterates are returned as they
# stand; simple roots converge cubically within about ten.
ABERTH_SWEEPS = 100


def _aberth_roots(coeffs) -> list[complex]:
    """All roots of sum_k coeffs[k] z^k, coeffs[0] and coeffs[-1] nonzero.

    Aberth-Ehrlich iteration (Aberth 1973, Math. Comp. 27:339) in complex
    arithmetic, with Horner evaluation of p and p'.  The iterates start on a
    circle about 0 whose radius is the geometric mean of the roots' moduli,
    |c_0 / c_d|^(1/d), and are updated one at a time.  An iterate takes its
    last step once |p(z)| is within Horner's rounding bound, where the
    coefficients no longer tell it from a root; after ABERTH_SWEEPS sweeps the
    last iterates are returned as they stand.
    """
    d = len(coeffs) - 1
    radius = math.exp((math.log(abs(coeffs[0])) - math.log(abs(coeffs[-1]))) / d)
    # off the real axis, so that complex roots of a real polynomial are reached
    angles = [(2.0 * math.pi * k + 0.4) / d for k in range(d)]
    zs = [complex(radius * math.cos(t), radius * math.sin(t)) for t in angles]
    descending = coeffs[::-1]
    moduli = [abs(c) for c in descending]
    done = [False] * d
    for _ in range(ABERTH_SWEEPS):
        for i, z in enumerate(zs):
            if done[i]:
                continue
            p, dp, bound, az = 0j, 0j, 0.0, abs(z)
            for c, mc in zip(descending, moduli):
                dp = dp * z + p
                p = p * z + c
                bound = bound * az + mc
            denom = dp - p * sum(1.0 / (z - w) for w in zs if w != z)
            if denom:
                zs[i] = z - p / denom
            done[i] = abs(p) <= 4.0 * d * sys.float_info.epsilon * bound
        if all(done):
            break
    return zs
