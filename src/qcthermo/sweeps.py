"""Quasi-classical limit drivers.

A sweep moves one knob (h -> 0, T -> inf, omega -> 0, a -> inf, m -> inf,
or N -> inf with shrinking reduced parameters) along a geometric grid,
collects regularized-vs-classical comparison reports per point, and fits
the leading-order rate of the deviation of each ratio from 1.

A row costs one lattice sum per distinct edge or frequency, and its time and
memory grow with the distinct axes alone: N -> inf multiplies the base's
multiplicities by N, and each distinct axis's excess, its regularized less
classical log z, E/T and S, and its share of the asymptotes are weighted by
its multiplicity, so N has no cap.  A row's differences
and ratios are formed from those sums, never as the difference of two
quartets, so they keep their relative accuracy in the quasi-classical limits
and at any N, and stay finite even where Z itself is beyond float range.  The
rate fit is a closed-form two-parameter least squares in plain Python, on
expm1(-dF/T) and dE/E_c.

What sets a box apart from an oscillator, its directions, the field of its
base and the names of its residuals, is stated on its class in core; the one
thing kept here is _REPORT, each system's classical quartet, excess, reduced
parameters and residuals, since their builders live in well and oscillator.
"""

from __future__ import annotations

import math
import sys

from .core import (
    SYSTEMS,
    BoxGeometry,
    ComparisonReport,
    ConvergenceError,
    IntegrationError,
    InversionError,
    OscillatorSpec,
    PhysicalParams,
    ReducedParams,
    ValidationError,
    _Record,
    _regularized,
    reduce_oscillator,
    reduce_well,
    sign_with_zero_band,
)
from .oscillator import _osc_excess, osc_classical
from .well import _box_excess, well_classical

__all__ = [
    "SweepPlan",
    "SweepRow",
    "FitResult",
    "SweepResult",
    "comparison_report",
    "run_sweep",
    "fit_leading_order",
]

# the largest x whose e^x is a float
_LOG_MAX = math.log(sys.float_info.max)


class SweepPlan(_Record):
    """One knob swept along a grid; system is a key of core.SYSTEMS, and
    the field its class names, base_geometry or base_spec, holds the base,
    an instance of that class, while the other field is None."""

    __slots__ = __match_args__ = (
        "system", "direction", "grid", "base_params", "base_geometry", "base_spec"
    )

    def __init__(self, system: str, direction: str, grid: tuple[float, ...],
                 base_params: PhysicalParams, base_geometry: BoxGeometry | None = None,
                 base_spec: OscillatorSpec | None = None):
        try:
            cls = SYSTEMS[system]
        except (KeyError, TypeError):  # TypeError: an unhashable system
            raise ValidationError(f"unknown system {system!r}") from None
        if direction not in cls.DIRECTIONS:
            raise ValidationError(
                f"direction {direction!r} not valid for {system}; choose from {cls.DIRECTIONS}"
            )
        grid = tuple(float(g) for g in grid)
        if len(grid) < 6:
            raise ValidationError("grid needs at least 6 points")
        if not all(math.isfinite(g) for g in grid):
            raise ValidationError("grid values must be finite")
        steps = [b - a for a, b in zip(grid, grid[1:])]
        if not (all(s > 0 for s in steps) or all(s < 0 for s in steps)):
            raise ValidationError("grid must be strictly monotone")
        bases = {"base_geometry": base_geometry, "base_spec": base_spec}
        if not isinstance(bases.pop(cls.BASE_FIELD), cls) or [*bases.values()] != [None]:
            raise ValidationError(f"{system} sweep needs {cls.BASE_FIELD}")
        self._init_fields(system, direction, grid, base_params, base_geometry, base_spec)


class SweepRow(_Record):
    """A swept value with its report, or with the error that replaced it."""

    __slots__ = __match_args__ = ("swept_value", "report", "error")
    _defaults = {"error": None}


class FitResult(_Record):
    __slots__ = __match_args__ = ("coefficient", "slope", "residual_norm", "sign")


class SweepResult(_Record):
    """The rows of a plan and the rates fitted to them; fitted_rates
    defaults to a new empty dict."""

    __slots__ = __match_args__ = ("plan", "rows", "fitted_rates")

    def __init__(self, plan: SweepPlan, rows: tuple[SweepRow, ...],
                 fitted_rates: dict[str, FitResult] | None = None):
        self._init_fields(plan, rows, {} if fitted_rates is None else fitted_rates)


def _well_residuals(reduced: ReducedParams, geom: BoxGeometry, z_ratio, e_ratio):
    # prod (1 - mu/2)^k as a sign times the exponential of sum k log|1 - mu/2|
    # over the distinct axes: log1p keeps each factor's digits as mu -> 0,
    # where a product over the axes would round once per axis
    log_z = e_sum = 0.0
    flips = 0
    for mu, (_, k) in zip(reduced.mu, geom.distinct_edges):
        half = mu / 2.0
        if half < 1.0:
            log_z += k * math.log1p(-half)
            e_sum += k / (1.0 - half)
        elif half > 1.0:
            log_z += k * math.log(half - 1.0)
            flips += k
        else:  # a factor 1 - mu/2 = 0, so the product is 0
            return {"small_mu_product": abs(z_ratio)}
    if not flips:
        return {"small_mu_product": abs(z_ratio - math.exp(log_z)),
                "small_mu_energy": abs(e_ratio - e_sum / geom.dimension)}
    # the energy asymptote has a pole at mu = 2 and no meaning beyond it, and
    # each factor 1 - mu/2 < 0 flips the product's sign
    if log_z > _LOG_MAX:
        return {}
    z_pred = -math.exp(log_z) if flips % 2 else math.exp(log_z)
    return {"small_mu_product": abs(z_ratio - z_pred)}


def _osc_residuals(reduced: ReducedParams, spec: OscillatorSpec, z_ratio, e_ratio):
    sum_t2 = 0.0
    for t, (_, k) in zip(reduced.tau, spec.distinct_frequencies):
        sum_t2 += k * (t * t)
    if sum_t2 == math.inf:
        return {}
    return {
        "small_tau_quadratic_z": abs(z_ratio - (1.0 - sum_t2 / 6.0)),
        "small_tau_quadratic_e": abs(e_ratio - (1.0 + sum_t2 / (3.0 * spec.dimension))),
    }


# each system's (classical quartet, summed excess, reduced parameters,
# residuals) by its class's SYSTEM, so that a subclass reports as its class
# does; the lambdas look the builders up by module-level name on every call,
# where the benchmark's tracer wraps them
_REPORT = {
    "well": lambda p, s: (well_classical(p, s), _box_excess(p, s), reduce_well(p, s),
                          _well_residuals),
    "oscillator": lambda p, s: (osc_classical(p, s), _osc_excess(p, s), reduce_oscillator(p, s),
                                _osc_residuals),
}


def comparison_report(params: PhysicalParams,
                      system: BoxGeometry | OscillatorSpec) -> ComparisonReport:
    """Classical-vs-regularized comparison at one parameter point.

    The differences and ratios come from the summed per-axis excess (dlog z,
    dE/T, dS), never from the difference of the two quartets: dF = -T sum
    dlog z, dE = T sum dE/T, dS = sum dS, Z_ratio = exp(-dF/T) and E_ratio =
    1 + dE/E_c.
    """
    try:
        parts = _REPORT[system.SYSTEM]
    except (AttributeError, KeyError):
        raise ValidationError(f"unsupported system {type(system).__name__}") from None
    classical, excess, reduced, residuals = parts(params, system)

    dz, de, ds = excess
    diffs = {"dF": -params.T * dz, "dE": params.T * de, "dS": ds}
    z_ratio = math.exp(dz)
    e_ratio = 1.0 + diffs["dE"] / classical.E
    signs = {
        "sgn_dF": sign_with_zero_band(diffs["dF"], classical.F),
        "sgn_dE": sign_with_zero_band(diffs["dE"], classical.E),
        "sgn_dS": sign_with_zero_band(diffs["dS"], classical.S),
    }
    return ComparisonReport(
        point=reduced,
        ratios={"Z_ratio": z_ratio, "E_ratio": e_ratio},
        diffs=diffs,
        signs=signs,
        asymptotic_residuals=residuals(reduced, system, z_ratio, e_ratio),
        classical=classical,
        regularized=_regularized(classical, excess),
    )


def _point_at(plan: SweepPlan, value: float):
    p = plan.base_params
    d = plan.direction
    system = plan.base_geometry or plan.base_spec
    if d == "h_to_0":
        params = PhysicalParams(T=p.T, h=value, m=p.m)
    elif d == "T_to_inf":
        params = PhysicalParams(T=value, h=p.h, m=p.m)
    elif d == "m_to_inf":
        params = PhysicalParams(T=p.T, h=p.h, m=value)
    elif d == system.SCALING_DIRECTION:
        params, system = p, system._scaled(value)
    else:  # N_to_inf, the last direction SweepPlan accepts
        # growing dimension with h ~ 1/N so the reduced parameters shrink;
        # the multiplicities are floats, so N*k beyond float range is inf,
        # which the system refuses, where an int would raise OverflowError
        # on its first use as a float
        n = round(value)
        if n < 1:
            raise ValidationError(f"N must be >= 1, got {value}")
        params = PhysicalParams(T=p.T, h=p.h / n, m=p.m)
        system = system._scaled(copies=float(n))
    return params, system


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Evaluate the plan row by row.

    A row that fails with one of the package's errors is recorded, not
    raised; any other exception is a fault and propagates.
    """
    rows = []
    for value in plan.grid:
        try:
            params, system = _point_at(plan, value)
            rows.append(SweepRow(value, comparison_report(params, system)))
        except (ValidationError, ConvergenceError, InversionError, IntegrationError) as exc:
            rows.append(SweepRow(value, None, error=f"{type(exc).__name__}: {exc}"))

    fits = {}
    good = [(r.swept_value, r.report) for r in rows if r.report is not None]
    xs = [v for v, _ in good]
    # each ratio's deviation from 1, taken from the differences it is made of
    for key, ys in (("Z_ratio", [math.expm1(-r.diffs["dF"] / r.classical.T) for _, r in good]),
                    ("E_ratio", [r.diffs["dE"] / r.classical.E for _, r in good])):
        try:
            fits[key] = fit_leading_order(xs, ys)
        except ValidationError:
            pass
    return SweepResult(plan=plan, rows=tuple(rows), fitted_rates=fits)


def fit_leading_order(xs, ys) -> FitResult:
    """Fit |y| ~ coefficient * x^slope by least squares in log-log space.

    Points with |y| <= 1e-280 are left out.  The line is solved in closed
    form about the centroid of the log points, every sum taken by math.fsum.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) < 4:
        raise ValidationError("need at least 4 points to fit a rate")
    if len(xs) != len(ys):
        raise ValidationError(f"got {len(xs)} abscissae but {len(ys)} deviations")
    if any(x <= 0 for x in xs):
        raise ValidationError("fit abscissae must be positive")
    kept = [(x, y) for x, y in zip(xs, ys) if abs(y) > 1e-280]
    if len(kept) < 4:
        raise ValidationError("deviations underflowed; nothing to fit")
    if all(y > 0 for _, y in kept):
        sign = 1
    elif all(y < 0 for _, y in kept):
        sign = -1
    else:
        sign = 0
    lx = [math.log(x) for x, _ in kept]
    ly = [math.log(abs(y)) for _, y in kept]
    if not all(math.isfinite(v) for v in lx + ly):
        raise ValidationError("fit points must be finite")
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    dx = [v - mx for v in lx]
    dy = [v - my for v in ly]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0:
        raise ValidationError("fit abscissae must not all be equal")
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    log_coefficient = my - slope * mx
    try:
        coefficient = math.exp(log_coefficient)
    except OverflowError:
        coefficient = math.inf
    return FitResult(
        coefficient=coefficient,
        slope=slope,
        residual_norm=math.sqrt(math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))),
        sign=sign,
    )
