"""Second-order semiclassical (h^2) expansion for smooth potentials.

Z0 = int exp(-V/T) dx, Z2 = 1/(24 m T^3) int exp(-V/T) |grad V|^2 dx and the
mean potential <V> are evaluated by tensor-product Gauss-Legendre quadrature
over automatically chosen bounds.  The box is found once, and each order makes
one pass over its grid, streamed in slabs of CHUNK_POINTS nodes: V is
evaluated once per node and all three moments come from the same Boltzmann
factor.  Each moment is checked on its own against a reduced-order rule, and
a moment that is not finite is rejected.  The gradient is exact for the
built-in harmonic potential and for potentials parsed by
:func:`qcthermo.expressions.parse_potential`; only an opaque callable without
a gradient falls back to central differences.  The quartet predictions follow

    Z_r ~ (2 pi m T)^(N/2) (Z0 - h^2 Z2)
    F_r ~ F_c + h^2 T Z2/Z0
    E_r ~ E_c + 2 h^2 T Z2/Z0
    S_r ~ S_c + h^2 Z2/Z0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import IntegrationError, PhysicalParams, ValidationError

__all__ = [
    "PotentialField",
    "harmonic_potential",
    "z0_integral",
    "z2_integral",
    "KWPrediction",
    "kw_expansion",
    "MAX_TENSOR_DIMENSION",
    "EXPANSION_VALIDITY",
]

MAX_TENSOR_DIMENSION = 4
QUADRATURE_ORDER = 64
# self-check order: a moment whose value moves by more than 1e-8 between the
# two rules is rejected
CHECK_ORDER = 3 * QUADRATURE_ORDER // 4
# nodes per slab of the quadrature pass; bounds its working memory
CHUNK_POINTS = 1 << 13
# expansion parameter h^2 * Z2/Z0 beyond which predictions are flagged
EXPANSION_VALIDITY = 0.1

FD_GRADIENT_STEP = 1e-6


@dataclass(frozen=True)
class PotentialField:
    """Potential on R^N: vectorized evaluator and optional gradient.

    value takes an array of shape (..., N) and returns shape (...);
    gradient returns shape (..., N).  When gradient is None it is adopted
    from value.gradient if value has one, as a parsed expression does, so
    PotentialField(dimension=n, value=parse_potential(text, n)) has an exact
    gradient.  bounds, when given, is a sequence of per-axis (lo, hi) pairs;
    otherwise bounds are grown automatically until the Boltzmann factor is
    negligible on the boundary.  scale is the potential's length scale: the
    first half-width tried by the automatic bounds and, for an opaque value
    with no gradient, the unit of the finite-difference step.
    """

    dimension: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    bounds: tuple[tuple[float, float], ...] | None = None
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"scale must be finite and positive, got {self.scale}")
        if self.gradient is None:
            # set on the instance, so dataclasses.replace carries it over
            object.__setattr__(self, "gradient", getattr(self.value, "gradient", None))

    def gradient_or_fd(self) -> Callable[[np.ndarray], np.ndarray]:
        """The exact gradient, or central differences for an opaque value."""
        if self.gradient is not None:
            return self.gradient
        step = FD_GRADIENT_STEP * self.scale

        def fd(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape)
            for k in range(self.dimension):
                dx = np.zeros(x.shape[-1])
                dx[k] = step
                out[..., k] = (self.value(x + dx) - self.value(x - dx)) / (2.0 * step)
            return out

        return fd


def harmonic_potential(m: float, omegas) -> PotentialField:
    """V(x) = sum m*omega_k^2*x_k^2/2 with analytic gradient."""
    omegas = np.asarray([float(w) for w in omegas])
    if np.any(omegas <= 0) or m <= 0:
        raise ValidationError("need m > 0 and omega_k > 0")

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * m * np.sum(omegas**2 * x**2, axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return m * omegas**2 * x

    return PotentialField(
        dimension=len(omegas),
        value=value,
        gradient=gradient,
        scale=float(1.0 / omegas.min()),
    )


def _auto_bounds(potential: PotentialField, T: float) -> tuple[tuple[float, float], ...]:
    """Per-axis symmetric bounds with exp(-V/T) < 1e-16 * exp(-V(0)/T) outside.

    Boltzmann factors are compared through their exponents relative to the
    origin, -(V - V(0))/T against log(1e-16), so no probe overflows however
    deep the potential dips.  Each half-width is grown by doubling and then
    shrunk back so the quadrature window stays as tight as the decay allows
    (wide windows waste Gauss-Legendre nodes).
    """
    n = potential.dimension
    center = np.zeros(n)
    v0 = float(potential.value(center))
    # the quadrature sums exp(-V/T) unshifted, so it must not underflow to 0
    # here; one that overflows fails the quadrature's finiteness check
    if not (math.isfinite(v0) and math.exp(min(-v0 / T, 0.0)) > 0.0):
        raise IntegrationError("potential not finite at the origin")
    cutoff = math.log(1e-16)

    def face_exponent(axis, half):
        x = np.zeros(n)
        x[axis] = half
        lo = -(float(potential.value(x)) - v0) / T
        x[axis] = -half
        return max(lo, -(float(potential.value(x)) - v0) / T)

    halves = []
    for k in range(n):
        half = potential.scale
        prev = math.inf
        for _ in range(200):
            val = face_exponent(k, half)
            if val < cutoff:
                break
            if val > prev + math.log(0.999999) and val >= 0.0:
                raise IntegrationError(
                    "Boltzmann factor does not decay; potential looks non-integrable"
                )
            prev = val
            half *= 2.0
        else:
            raise IntegrationError("could not bound the integration domain")
        while face_exponent(k, 0.85 * half) < cutoff:
            half *= 0.85
        halves.append(half)

    # corners may decay slower than face centers for non-separable potentials,
    # along any diagonal: all 2^N of them are probed (N <= MAX_TENSOR_DIMENSION)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    for _ in range(60):
        if float((-(potential.value(signs * halves) - v0) / T).max()) < cutoff:
            break
        halves = [1.3 * h for h in halves]
    else:
        raise IntegrationError("could not bound the integration domain")
    return tuple((-h, h) for h in halves)


def _grid_slabs(bounds, order: int):
    """Tensor Gauss-Legendre grid of the given order over bounds, in slabs.

    The grid's nodes, in C order (leading axis slowest), are cut into slabs of
    at most CHUNK_POINTS; each slab is yielded as (x, w) with x of shape
    (slab, N) and product weights w of shape (slab,).
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    axes, wts = [], []
    for lo, hi in bounds:
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        axes.append(mid + rad * nodes)
        wts.append(rad * weights)
    n = len(bounds)
    total = order**n
    for start in range(0, total, CHUNK_POINTS):
        index = np.unravel_index(
            np.arange(start, min(start + CHUNK_POINTS, total)), (order,) * n
        )
        # axis-major storage keeps each coordinate x[..., k] contiguous, which
        # makes the evaluators' per-axis arithmetic several times faster
        x = np.array([axis[i] for axis, i in zip(axes, index)])
        w = np.prod([wt[i] for wt, i in zip(wts, index)], axis=0)
        yield x.T, w


# a Boltzmann factor beyond float range makes a moment non-finite, which
# _stable reports in one line; numpy need not warn about it as well
@np.errstate(over="ignore", invalid="ignore")
def _boltzmann_moments(potential: PotentialField, T: float, gradient=None) -> np.ndarray:
    """Moments of b = exp(-V/T): [int b, int b*V, int b*|grad V|^2].

    Row 0 holds the moments at QUADRATURE_ORDER, row 1 at CHECK_ORDER (see
    _stable).  The box is found once and each order is one slab-streamed pass,
    so V is evaluated once per node and memory stays O(CHUNK_POINTS) in any
    dimension.  The gradient moment is 0 when no gradient is given.
    """
    n = potential.dimension
    if n > MAX_TENSOR_DIMENSION:
        raise ValidationError(
            f"tensor quadrature limited to N <= {MAX_TENSOR_DIMENSION}, got {n}"
        )
    bounds = potential.bounds or _auto_bounds(potential, T)
    moments = np.zeros((2, 3))
    for row, order in enumerate((QUADRATURE_ORDER, CHECK_ORDER)):
        partials = []
        for x, w in _grid_slabs(bounds, order):
            v = potential.value(x)
            b = np.exp(-v / T) * w
            g2 = 0.0 if gradient is None else np.sum(b * np.sum(gradient(x) ** 2, axis=-1))
            partials.append((np.sum(b), np.sum(b * v), g2))
        # fsum keeps the number of slabs out of the rounding error
        moments[row] = [math.fsum(column) for column in zip(*partials)]
    return moments


def _stable(moments: np.ndarray, k: int) -> float:
    """Moment k at QUADRATURE_ORDER, if finite and the CHECK_ORDER rule agrees to 1e-8."""
    value, check = float(moments[0, k]), float(moments[1, k])
    if not (math.isfinite(value) and math.isfinite(check)):
        raise IntegrationError(f"quadrature not finite: {value} vs {check} at reduced order")
    if abs(value - check) > 1e-8 * (abs(value) + 1e-300):
        raise IntegrationError(
            f"quadrature unstable: {value} vs {check} at reduced order"
        )
    return value


def z0_integral(potential: PotentialField, T: float) -> float:
    """Configuration integral int exp(-V/T) dx."""
    if T <= 0:
        raise ValidationError("T must be positive")
    return _stable(_boltzmann_moments(potential, T), 0)


def z2_integral(potential: PotentialField, T: float, m: float) -> float:
    """First quantum correction 1/(24 m T^3) int exp(-V/T) |grad V|^2 dx."""
    if T <= 0 or m <= 0:
        raise ValidationError("need T > 0 and m > 0")
    moments = _boltzmann_moments(potential, T, potential.gradient_or_fd())
    return _stable(moments, 2) / (24.0 * m * T**3)


@dataclass(frozen=True)
class KWPrediction:
    Zr: float
    Fr: float
    Er: float
    Sr: float
    z2_over_z0: float
    expansion_parameter: float
    within_validity: bool


def kw_expansion(potential: PotentialField, params: PhysicalParams) -> KWPrediction:
    """Second-order predictions for the regularized quartet.

    Classical references are computed from the same quadrature: F_c from
    Z_c = (2 pi m T)^(N/2) Z0, E_c = N T/2 + <V>.
    """
    T, m, h = params.T, params.m, params.h
    n = potential.dimension
    moments = _boltzmann_moments(potential, T, potential.gradient_or_fd())
    z0 = _stable(moments, 0)
    z2 = _stable(moments, 2) / (24.0 * m * T**3)
    ratio = z2 / z0
    v_mean = _stable(moments, 1) / z0

    log_prefactor = 0.5 * n * math.log(2.0 * math.pi * m * T)
    f_c = -T * (log_prefactor + math.log(z0))
    e_c = 0.5 * n * T + v_mean
    s_c = (e_c - f_c) / T

    param = h * h * ratio
    zr = math.exp(log_prefactor) * (z0 - h * h * z2)
    fr = f_c + h * h * T * ratio
    er = e_c + 2.0 * h * h * T * ratio
    sr = s_c + h * h * ratio
    return KWPrediction(
        Zr=zr,
        Fr=fr,
        Er=er,
        Sr=sr,
        z2_over_z0=ratio,
        expansion_parameter=param,
        within_validity=param < EXPANSION_VALIDITY,
    )
