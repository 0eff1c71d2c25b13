"""Variational free-energy minimization over probability distributions.

The discrete functional F(P) = sum P_n E_n + T sum P_n log P_n is minimized
over the simplex; the minimizer is the Gibbs distribution P_n proportional
to exp(-E_n/T) with minimum value -T log Z.  F is a sum of one-variable
terms, so the first- and second-order conditions of that minimum are
certified level by level, from difference quotients of each level's own
term.  A phase-space discretization of the continuous version is verified
against the closed forms of the box and the oscillator.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BoxGeometry,
    ConvergenceError,
    IntegrationError,
    OscillatorSpec,
    PhysicalParams,
    ValidationError,
    _Record,
)

__all__ = [
    "LevelSet",
    "SimplexPoint",
    "gibbs_closed_form",
    "free_energy_functional",
    "MinimizeResult",
    "minimize_free_energy",
    "hessian_positivity_check",
    "PhaseSpaceCheck",
    "classical_phase_space_check",
]

MAX_ITERATIONS = 10**5
# the minimizer's fixed step in log space; any value in (0, 1) converges, and
# 1/2 halves the error of log P in every step
ETA = 0.5
# step of the per-level difference quotients, relative to each P_n
STEP_REL = 1e-3
# points per axis of the phase-space grid; the check compares it with half as many
GRID_RESOLUTION = 256


class LevelSet(_Record):
    """Finite increasing truncation of an energy spectrum."""

    __slots__ = __match_args__ = ("energies",)

    def __init__(self, energies):
        energies = tuple(float(e) for e in energies)
        if len(energies) < 2:
            raise ValidationError("need at least two levels")
        # a nan would pass the order check, since comparisons with nan are false
        if not all(map(math.isfinite, energies)):
            raise ValidationError("energies must be finite")
        if any(b < a for a, b in zip(energies, energies[1:])):
            raise ValidationError("energies must be non-decreasing")
        self._init_fields(energies)


class SimplexPoint(_Record):
    __slots__ = __match_args__ = ("probabilities",)

    def __init__(self, probabilities):
        probabilities = tuple(float(p) for p in probabilities)
        if any(p < 0 for p in probabilities):
            raise ValidationError("probabilities must be >= 0")
        total = math.fsum(probabilities)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities must sum to 1, got {total}")
        self._init_fields(probabilities)


def _shifted(levels: LevelSet, T: float):
    """(E_min, eps) with eps_n = (E_n - E_min)/T, the levels in units of T above
    the lowest one.  An eps_n beyond float range is inf, whose level has P_n = 0."""
    if T <= 0:
        raise ValidationError("T must be positive")
    e_min = levels.energies[0]
    with np.errstate(over="ignore"):
        return e_min, (np.array(levels.energies) - e_min) / T


def gibbs_closed_form(levels: LevelSet, T: float) -> SimplexPoint:
    """P_n = exp(-eps_n)/sum exp(-eps), eps_n = (E_n - E_min)/T; the lowest
    logit is 0, so 1 <= Z <= n for any levels and T."""
    w = np.exp(-_shifted(levels, T)[1])
    return SimplexPoint(tuple(w / w.sum()))


def _free_energy(energies: np.ndarray, T: float, p: np.ndarray) -> np.ndarray:
    """F = sum P E + T sum P log P over the last axis of p, with 0*log(0) = 0."""
    log_p = np.log(p, out=np.zeros(np.shape(p)), where=p > 0)
    return np.sum(p * energies + T * p * log_p, axis=-1)


def free_energy_functional(levels: LevelSet, T: float, point: SimplexPoint) -> float:
    """F = sum P E + T sum P log P, with 0*log(0) = 0."""
    return float(_free_energy(np.array(levels.energies), T, np.array(point.probabilities)))


class MinimizeResult(_Record):
    __slots__ = __match_args__ = ("point", "F_min", "iterations")


def minimize_free_energy(levels: LevelSet, T: float, tol: float) -> MinimizeResult:
    """Mirror descent of F/T over the simplex, in log space.

    With eps_n = (E_n - E_min)/T, each step is the entropic mirror step
    log P <- (1 - ETA) log P - ETA eps, normalized by log-sum-exp (Beck &
    Teboulle 2003), from the uniform start.  It is carried in the
    coordinates r = eps + log P - log P_0, the gradient of F/T measured from
    the lowest level's, where it reads r <- (1 - ETA) r: every step shrinks
    the error of log P by the factor 1 - ETA, whatever the span of the
    levels, and rounds nothing.  P is exp(r - eps) over its sum, whose
    largest term is the lowest level's 1.  A level whose eps_n is beyond float
    range gets P_n = 0 and drops out, as does one whose P_n underflows.

    The iteration stops once the Frank-Wolfe gap sum P g - min g, with
    g = eps + log P over the levels with P_n > 0, is at most tol.  F/T is
    convex, so that gap bounds (F - F_min)/T from above without the closed
    form (Jaggi 2013).  Here it is sum P r, since r >= 0 = r_0.  F_min is
    formed in units of T, as sum P g = sum P r + log P_0, and E_min added
    back.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    e_min, eps = _shifted(levels, T)
    # the levels are sorted, so those beyond float range come last
    eps_finite = eps[eps < np.inf]
    r = eps_finite.copy()
    for iteration in range(1, MAX_ITERATIONS + 1):
        r *= 1.0 - ETA
        w = np.exp(r - eps_finite)
        z = float(w.sum())
        gap = float(w @ r) / z
        if gap <= tol:
            break
    else:
        raise ConvergenceError(f"no convergence after {MAX_ITERATIONS} iterations")
    p = tuple(w / z) + (0.0,) * (len(eps) - len(eps_finite))
    return MinimizeResult(SimplexPoint(p), e_min + T * (gap - math.log(z)), iteration)


def _level_quotients(energies: np.ndarray, T: float, p: np.ndarray):
    """Each level's term t_n = P E_n + T P log P at P_n and P_n -/+ h_n, h_n =
    STEP_REL * P_n, from _free_energy itself (a last axis of length 1 gives one
    term per level).  Returns whether F(P) is the fsum of the terms to rounding
    (the separability that makes the Hessian diagonal), their central first
    differences, and their second differences divided by h twice, so that h^2
    never underflows."""
    h = STEP_REL * p
    if not np.all(h >= np.finfo(float).tiny):
        raise ValidationError("interior simplex point required")
    stencil = p + np.array([[-1.0], [0.0], [1.0]]) * h
    lo, mid, hi = _free_energy(energies[:, None], T, stencil[..., None])
    error = abs(float(_free_energy(energies, T, p)) - math.fsum(mid))
    separable = bool(error <= 64.0 * np.finfo(float).eps * math.fsum(np.abs(mid)))
    return separable, (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / h / h


def hessian_positivity_check(levels: LevelSet, T: float, point: SimplexPoint) -> bool:
    """Second-order certificate of the convexity of F at an interior point.

    F is a sum of one-variable terms, so its Hessian is diagonal with
    entries T/P_n: the check holds iff F(P) is the sum of its per-level
    terms and every term's second difference is positive.  Each level is
    judged on its own scale, so levels far above the ground still count.  The
    energies are measured from the lowest level, which leaves the curvature as
    it is and keeps a large common offset from rounding it away.  A P_n whose
    step is 0 or subnormal (P_n below ~2e-305) raises ValidationError.
    """
    p = np.array(point.probabilities)
    energies = np.array(levels.energies)
    separable, _, curvature = _level_quotients(energies - energies.min(), T, p)
    return separable and bool(np.all(curvature > 0))


class PhaseSpaceCheck(_Record):
    __slots__ = __match_args__ = (
        "z_quadrature", "z_exact", "e_quadrature", "e_exact", "variational_ok", "resolution"
    )


def classical_phase_space_check(
    params: PhysicalParams,
    system: BoxGeometry | OscillatorSpec,
) -> PhaseSpaceCheck:
    """Trapezoidal phase-space quadrature against the closed forms.

    Reproduces Z_c and E_c of the 1-D box and oscillator, whose ranges,
    potential and closed forms each system's class gives, and certifies
    that the discretized Gibbs density minimizes the discrete free energy:
    first-order (equal slopes) and second-order (positive curvature)
    conditions from each cell's own term.
    """
    T, m = params.T, params.m
    p_max = 12.0 * math.sqrt(m * T)
    try:
        phase_space = system._phase_space
    except AttributeError:
        raise ValidationError(f"unsupported system {type(system).__name__}") from None
    q_lo, q_hi, potential, z_exact, e_exact = phase_space(T, m)
    if system.dimension != 1:
        raise ValidationError("phase-space check is one-dimensional")

    def hamiltonian(qq, pp):
        return pp**2 / (2.0 * m) + potential(qq)

    def grids(resolution):
        qg = np.linspace(q_lo, q_hi, resolution)
        pg = np.linspace(-p_max, p_max, resolution)
        qq, pp = np.meshgrid(qg, pg, indexing="ij")
        ham = hamiltonian(qq, pp)
        wt = np.ones(resolution)
        wt[0] = wt[-1] = 0.5
        cl = np.outer(wt, wt) * (qg[1] - qg[0]) * (pg[1] - pg[0])
        return ham, cl

    ham, cell = grids(GRID_RESOLUTION)
    boltz = np.exp(-ham / T)
    z_quad = float(np.sum(boltz * cell))

    # Richardson-style stability: compare against half the resolution
    ham2, cell2 = grids(GRID_RESOLUTION // 2)
    z_quad2 = float(np.sum(np.exp(-ham2 / T) * cell2))
    if abs(z_quad - z_quad2) > 1e-5 * abs(z_quad):
        raise IntegrationError(
            f"quadrature unstable at resolution {GRID_RESOLUTION}: "
            f"{z_quad} vs {z_quad2}"
        )
    e_quad = float(np.sum(ham * boltz * cell)) / z_quad

    # Variational test: the discretized Gibbs density is a stationary point
    # of the discrete free energy sum P (H - T log cell) + T sum P log P on
    # the simplex (every cell's slope equal) and each cell's term is convex.
    prob = boltz * cell
    prob /= prob.sum()
    mask = prob > 1e-300
    pv = prob[mask]
    energy = ham[mask] - T * np.log(cell[mask])
    separable, slope, curvature = _level_quotients(energy, T, pv)
    # the O(h^2) error of a central difference is the same -T h^2/(6 P^2) in
    # every cell, so the slopes differ by rounding only
    tol = 1e-9 * np.max(np.abs(energy) + T * np.abs(np.log(pv)))
    variational_ok = separable and bool(np.all(curvature > 0) and np.ptp(slope) <= tol)

    return PhaseSpaceCheck(
        z_quadrature=z_quad,
        z_exact=z_exact,
        e_quadrature=e_quad,
        e_exact=e_exact,
        variational_ok=variational_ok,
        resolution=GRID_RESOLUTION,
    )
