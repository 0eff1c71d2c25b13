import math

import pytest

from qcthermo.core import (
    BoxGeometry,
    OscillatorSpec,
    PhysicalParams,
    ValidationError,
    reduce_oscillator,
    reduce_well,
)
from qcthermo.sweeps import (
    OSCILLATOR_DIRECTIONS,
    WELL_DIRECTIONS,
    SweepPlan,
    appendix_bounds_check,
    comparison_report,
    fit_leading_order,
    run_sweep,
)


def make_plan(**kwargs):
    defaults = dict(
        system="well",
        direction="h_to_0",
        grid=tuple(0.1 * 0.5**k for k in range(6)),
        base_params=PhysicalParams(T=1.0, h=0.1, m=1.0),
        base_geometry=BoxGeometry([1.0]),
    )
    defaults.update(kwargs)
    return SweepPlan(**defaults)


def test_plan_validation():
    with pytest.raises(ValidationError):
        make_plan(system="spring")
    with pytest.raises(ValidationError):
        make_plan(direction="omega_to_0")  # oscillator-only direction
    with pytest.raises(ValidationError):
        make_plan(grid=(0.1, 0.2, 0.1, 0.3, 0.4, 0.5))  # not monotone
    with pytest.raises(ValidationError):
        make_plan(grid=(0.1, 0.05))  # too short
    with pytest.raises(ValidationError):
        make_plan(system="oscillator", base_geometry=None)


def test_direction_lists():
    assert set(WELL_DIRECTIONS) == {"h_to_0", "T_to_inf", "a_to_inf", "m_to_inf", "N_to_inf"}
    assert set(OSCILLATOR_DIRECTIONS) == {"h_to_0", "T_to_inf", "omega_to_0", "N_to_inf"}


def test_comparison_report_signs_well():
    params = PhysicalParams(T=2.0 * math.pi, h=0.3, m=1.0)
    report = comparison_report(params, BoxGeometry([1.0]))
    assert report.ratios["Z_ratio"] < 1.0
    assert report.ratios["E_ratio"] > 1.0
    assert report.signs["sgn_dF"] == 1
    assert report.signs["sgn_dE"] == 1
    assert report.signs["sgn_dS"] == -1


def test_comparison_report_signs_oscillator():
    params = PhysicalParams(T=1.0, h=0.6, m=1.0)
    report = comparison_report(params, OscillatorSpec([1.0]))
    assert report.ratios["Z_ratio"] < 1.0
    assert report.ratios["E_ratio"] > 1.0
    assert report.signs["sgn_dS"] == 1  # oscillator entropy difference is positive


def test_well_sweep_residuals_at_noise_floor():
    # the product law is exact up to exponentially small tails, so the
    # residual sits at float-noise level along the whole small-mu grid
    result = run_sweep(make_plan())
    res = [r.report.asymptotic_residuals["small_mu_product"] for r in result.rows]
    assert all(r < 1e-12 for r in res)


def test_well_h_sweep_rate():
    grid = tuple(0.01 * 0.5**k for k in range(8))
    plan = make_plan(
        grid=grid, base_params=PhysicalParams(T=2.0 * math.pi, h=1.0, m=1.0)
    )
    result = run_sweep(plan)
    fit = result.fitted_rates["Z_ratio"]
    assert fit.slope == pytest.approx(1.0, abs=0.05)
    # Z ratio deviation is -mu/2 = -h/2 here (T = 2*pi, unit edge)
    assert fit.coefficient == pytest.approx(0.5, rel=0.05)
    assert fit.sign == -1


def test_oscillator_h_sweep_rate():
    grid = tuple(0.1 * 0.5**k for k in range(8))
    plan = SweepPlan(
        system="oscillator",
        direction="h_to_0",
        grid=grid,
        base_params=PhysicalParams(T=1.0, h=0.1, m=1.0),
        base_spec=OscillatorSpec([1.0]),
    )
    result = run_sweep(plan)
    fit = result.fitted_rates["Z_ratio"]
    assert fit.slope == pytest.approx(2.0, abs=0.05)
    # tau = h/2, deviation -tau^2/6 = -h^2/24
    assert fit.coefficient == pytest.approx(1.0 / 24.0, rel=0.05)
    assert result.fitted_rates["E_ratio"].coefficient == pytest.approx(
        1.0 / 12.0, rel=0.05
    )


def test_n_sweep_reduced_parameters_shrink():
    plan = SweepPlan(
        system="oscillator",
        direction="N_to_inf",
        grid=tuple(float(n) for n in (1, 2, 4, 8, 16, 32)),
        base_params=PhysicalParams(T=1.0, h=0.2, m=1.0),
        base_spec=OscillatorSpec([1.0]),
    )
    result = run_sweep(plan)
    deltas = [r.report.point.delta for r in result.rows]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_deep_quantum_rows_are_reports():
    # mu up to 2.5e5: Z_q underflows, log Z_q does not, so every row is a report
    grid = (1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0)
    result = run_sweep(make_plan(direction="h_to_0", grid=grid))
    assert all(row.error is None for row in result.rows)
    deepest = result.rows[-1].report
    (mu,) = deepest.point.mu
    assert deepest.regularized.Z == 5e-324
    assert deepest.regularized.log_Z == pytest.approx(
        math.log(2 * math.pi * grid[-1]) - math.pi / 4 * mu * mu, rel=1e-14
    )
    assert deepest.regularized.E == pytest.approx(math.pi / 4 * mu * mu, rel=1e-14)
    assert deepest.ratios["Z_ratio"] == 0.0
    assert deepest.signs == {"sgn_dF": 1, "sgn_dE": 1, "sgn_dS": 1}


def test_row_level_error_capture():
    # N = round(0.4) = 0 is no box; the row records the error and the rest run
    grid = (0.4, 1.0, 2.0, 3.0, 4.0, 5.0)
    result = run_sweep(make_plan(direction="N_to_inf", grid=grid))
    assert result.rows[0].report is None
    assert result.rows[0].error == "ValidationError: N must be >= 1, got 0.4"
    assert all(row.report is not None for row in result.rows[1:])


def test_bounds_check_sandwich():
    params = PhysicalParams(T=1.0, h=0.3, m=1.0)
    assert appendix_bounds_check(reduce_well(params, BoxGeometry([1.0, 2.0, 4.0])))
    assert appendix_bounds_check(reduce_oscillator(params, OscillatorSpec([1.0, 3.0])))
    # equal edges: all three quantities coincide
    assert appendix_bounds_check(reduce_well(params, BoxGeometry([2.0, 2.0])))
    from qcthermo.core import ReducedParams

    with pytest.raises(ValidationError):
        appendix_bounds_check(ReducedParams())


def test_fit_leading_order_synthetic():
    xs = [0.1 * 0.5**k for k in range(8)]
    ys = [3.0 * x**2 for x in xs]
    fit = fit_leading_order(xs, ys, expected_slope=2.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-10)
    assert fit.coefficient == pytest.approx(3.0, rel=1e-10)
    assert fit.sign == 1
    assert fit.exponent_residual == pytest.approx(0.0, abs=1e-10)


def test_fit_leading_order_validation():
    with pytest.raises(ValidationError):
        fit_leading_order([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        fit_leading_order([1, 2, 3, 4], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        fit_leading_order([-1, 2, 3, 4], [1, 2, 3, 4])
