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
    _set_field,
)

__all__ = [
    "LevelSet",
    "SimplexPoint",
    "oscillator_level_set",
    "well_level_set",
    "gibbs_closed_form",
    "free_energy_functional",
    "MinimizeResult",
    "minimize_free_energy",
    "hessian_positivity_check",
    "PhaseSpaceCheck",
    "classical_phase_space_check",
]

MAX_ITERATIONS = 10**5
TAIL_BOUND_REL = 1e-12
# step of the per-level difference quotients, relative to each P_n
STEP_REL = 1e-3


class LevelSet(_Record):
    """Finite increasing truncation of an energy spectrum."""

    __slots__ = __match_args__ = ("energies", "truncation_tail_bound")

    def __init__(self, energies, truncation_tail_bound: float = 0.0):
        energies = tuple(float(e) for e in energies)
        if len(energies) < 2:
            raise ValidationError("need at least two levels")
        if any(b < a for a, b in zip(energies, energies[1:])):
            raise ValidationError("energies must be non-decreasing")
        _set_field(self, "energies", energies)
        _set_field(self, "truncation_tail_bound", float(truncation_tail_bound))


class SimplexPoint(_Record):
    __slots__ = __match_args__ = ("probabilities",)

    def __init__(self, probabilities):
        probabilities = tuple(float(p) for p in probabilities)
        if any(p < 0 for p in probabilities):
            raise ValidationError("probabilities must be >= 0")
        total = math.fsum(probabilities)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities must sum to 1, got {total}")
        _set_field(self, "probabilities", probabilities)


def oscillator_level_set(params: PhysicalParams, omega: float) -> LevelSet:
    """Truncated 1-D oscillator spectrum h*omega*(n - 1/2).

    The cutoff M is chosen so the geometric tail is below TAIL_BOUND_REL of
    the retained sum.
    """
    if params.h <= 0 or omega <= 0:
        raise ValidationError("need h > 0 and omega > 0")
    step = params.h * omega / params.T
    # tail/Z = e^{-M*step}/(1-e^{-step}) / Z; solve crudely, then verify
    m = max(2, int(math.ceil(-math.log(TAIL_BOUND_REL * (1 - math.exp(-step)) ** 2) / step)) + 1)
    levels = [params.h * omega * (n - 0.5) for n in range(1, m + 1)]
    tail = math.exp(-(m + 0.5) * step) / (1.0 - math.exp(-step))
    return LevelSet(levels, truncation_tail_bound=tail)


def well_level_set(params: PhysicalParams, a: float) -> LevelSet:
    """Truncated 1-D box spectrum h^2 pi^2 n^2 / (2 m a^2)."""
    if params.h <= 0 or a <= 0:
        raise ValidationError("need h > 0 and a > 0")
    c = params.h**2 * math.pi**2 / (2.0 * params.m * a * a * params.T)
    m = max(2, int(math.ceil(math.sqrt(-math.log(TAIL_BOUND_REL) / c))) + 2)
    levels = [c * params.T * n * n for n in range(1, m + 1)]
    # integral comparison: sum_{n>M} e^{-c n^2} < int_M^inf e^{-c x^2} dx
    tail = 0.5 * math.sqrt(math.pi / c) * math.erfc(m * math.sqrt(c))
    return LevelSet(levels, truncation_tail_bound=tail)


def gibbs_closed_form(levels: LevelSet, T: float) -> SimplexPoint:
    """P_n = exp(-E_n/T)/Z, evaluated in log space."""
    if T <= 0:
        raise ValidationError("T must be positive")
    logits = np.array([-e / T for e in levels.energies])
    # once every E/T overflows, every logit is -inf and the shift gives NaN;
    # the CLI reports that as a non-finite output, and a warning would only
    # repeat it on stderr
    with np.errstate(invalid="ignore"):
        logits -= logits.max()
    w = np.exp(logits)
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

    def __init__(self, point: SimplexPoint, F_min: float, iterations: int):
        _set_field(self, "point", point)
        _set_field(self, "F_min", F_min)
        _set_field(self, "iterations", iterations)


def minimize_free_energy(levels: LevelSet, T: float, tol: float) -> MinimizeResult:
    """Exponentiated-gradient descent of F over the simplex.

    Multiplicative update P <- P * exp(-eta * grad F) followed by
    renormalization, with eta = T/(max E - min E + T); stops when the
    sup-norm change drops below tol.
    """
    if T <= 0:
        raise ValidationError("T must be positive")
    if tol <= 0:
        raise ValidationError("tol must be positive")
    e = np.array(levels.energies)
    eta = T / (e.max() - e.min() + T)
    p = np.full(len(e), 1.0 / len(e))
    # an underflowed P_n makes log(p) -inf and the iterate nan, which never
    # meets the stop test and ends in ConvergenceError; numpy need not warn
    with np.errstate(divide="ignore", invalid="ignore"):
        for iteration in range(1, MAX_ITERATIONS + 1):
            grad = e + T * (1.0 + np.log(p))
            q = p * np.exp(-eta * (grad - grad.min()) / T)
            q /= q.sum()
            if np.max(np.abs(q - p)) < tol:
                p = q
                break
            p = q
        else:
            raise ConvergenceError(f"no convergence after {MAX_ITERATIONS} iterations")
    point = SimplexPoint(tuple(p / p.sum()))
    return MinimizeResult(point, free_energy_functional(levels, T, point), iteration)


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

    def __init__(
        self, z_quadrature: float, z_exact: float, e_quadrature: float, e_exact: float,
        variational_ok: bool, resolution: int,
    ):
        _set_field(self, "z_quadrature", z_quadrature)
        _set_field(self, "z_exact", z_exact)
        _set_field(self, "e_quadrature", e_quadrature)
        _set_field(self, "e_exact", e_exact)
        _set_field(self, "variational_ok", variational_ok)
        _set_field(self, "resolution", resolution)


def classical_phase_space_check(
    params: PhysicalParams,
    system: BoxGeometry | OscillatorSpec,
    grid_resolution: int = 256,
) -> PhaseSpaceCheck:
    """Trapezoidal phase-space quadrature against the closed forms.

    Reproduces Z_c and E_c of the 1-D box and oscillator, and certifies
    that the discretized Gibbs density minimizes the discrete free energy:
    first-order (equal slopes) and second-order (positive curvature)
    conditions from each cell's own term.
    """
    if grid_resolution < 64:
        raise ValidationError("grid_resolution must be >= 64 per axis")
    T, m = params.T, params.m
    p_max = 12.0 * math.sqrt(m * T)

    if isinstance(system, OscillatorSpec):
        if system.dimension != 1:
            raise ValidationError("phase-space check is one-dimensional")
        w = system.frequencies[0]
        q_lo, q_hi = -12.0 * math.sqrt(T / m) / w, 12.0 * math.sqrt(T / m) / w

        def hamiltonian(qq, pp):
            return pp**2 / (2.0 * m) + m * w**2 * qq**2 / 2.0

        z_exact = 2.0 * math.pi * T / w
        e_exact = T
    elif isinstance(system, BoxGeometry):
        if system.dimension != 1:
            raise ValidationError("phase-space check is one-dimensional")
        q_lo, q_hi = 0.0, system.edges[0]

        def hamiltonian(qq, pp):
            return pp**2 / (2.0 * m) + 0.0 * qq

        z_exact = system.edges[0] * math.sqrt(2.0 * m * T * math.pi)
        e_exact = T / 2.0
    else:
        raise ValidationError(f"unsupported system {type(system).__name__}")

    def grids(resolution):
        qg = np.linspace(q_lo, q_hi, resolution)
        pg = np.linspace(-p_max, p_max, resolution)
        qq, pp = np.meshgrid(qg, pg, indexing="ij")
        ham = hamiltonian(qq, pp)
        wt = np.ones(resolution)
        wt[0] = wt[-1] = 0.5
        cl = np.outer(wt, wt) * (qg[1] - qg[0]) * (pg[1] - pg[0])
        return ham, cl

    ham, cell = grids(grid_resolution)
    boltz = np.exp(-ham / T)
    z_quad = float(np.sum(boltz * cell))

    # Richardson-style stability: compare against half the resolution
    ham2, cell2 = grids(grid_resolution // 2)
    z_quad2 = float(np.sum(np.exp(-ham2 / T) * cell2))
    if abs(z_quad - z_quad2) > 1e-5 * abs(z_quad):
        raise IntegrationError(
            f"quadrature unstable at resolution {grid_resolution}: "
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
        resolution=grid_resolution,
    )
