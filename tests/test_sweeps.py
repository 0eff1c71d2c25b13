import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcthermo.sweeps
from qcthermo.cli import build_parser
from qcthermo.core import (
    SYSTEMS,
    BoxGeometry,
    ConvergenceError,
    IntegrationError,
    InversionError,
    OscillatorSpec,
    PhysicalParams,
    ValidationError,
    reduce_oscillator,
    reduce_well,
)
from qcthermo.gibbs import classical_phase_space_check
from qcthermo.oscillator import osc_classical, osc_regularized
from qcthermo.sweeps import (
    SweepPlan,
    _point_at,
    comparison_report,
    fit_leading_order,
    run_sweep,
)
from qcthermo.well import well_classical, well_regularized


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
    assert set(BoxGeometry.DIRECTIONS) == {"h_to_0", "T_to_inf", "a_to_inf", "m_to_inf", "N_to_inf"}
    assert set(OscillatorSpec.DIRECTIONS) == {"h_to_0", "T_to_inf", "omega_to_0", "N_to_inf"}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_each_system_class_is_its_one_table(name):
    cls = SYSTEMS[name]
    (other,) = (c for c in SYSTEMS.values() if c is not cls)
    params = PhysicalParams(T=1.0, h=1.0, m=1.0)
    base = cls([1.0, (2.0, 3)])

    def plan(direction):
        return SweepPlan(name, direction, (1, 2, 4, 8, 16, 32), params, **{cls.BASE_FIELD: base})

    # a plan takes exactly the class's directions
    assert [plan(d).direction for d in cls.DIRECTIONS] == list(cls.DIRECTIONS)
    for direction in set(other.DIRECTIONS) - set(cls.DIRECTIONS):
        with pytest.raises(ValidationError, match="not valid for"):
            plan(direction)
    # a report carries only the class's residuals, at small and large mu or tau
    for h in (1e-3, 10.0):
        residuals = comparison_report(PhysicalParams(T=1.0, h=h, m=1.0), base).asymptotic_residuals
        assert residuals and set(residuals) <= set(cls.RESIDUALS)
    # the scaling direction multiplies every axis by the swept value
    assert _point_at(plan(cls.SCALING_DIRECTION), 3.0) == (params, cls([3.0, (6.0, 3)]))
    # the 1-D phase space reproduces the classical builder's Z and E (at h = 1,
    # where the quantum sum's 1/h is 1)
    classical = {"well": well_classical, "oscillator": osc_classical}[name]
    for T, m, value in ((1.0, 1.0, 1.0), (1.3, 0.7, 1.7), (40.0, 0.01, 3.0)):
        point = PhysicalParams(T=T, h=1.0, m=m)
        check = classical_phase_space_check(point, cls([value]))
        quartet = classical(point, cls([value]))
        assert check.z_exact == pytest.approx(quartet.Z, rel=1e-15, abs=0)
        assert check.e_exact == pytest.approx(quartet.E, rel=1e-15, abs=0)
    # both --system options offer the mapping's names
    (commands,) = build_parser()._subparsers._group_actions
    choices = [a.choices for p in commands.choices.values() for a in p._actions
               if a.dest == "system"]
    assert len(choices) == 2 and all(list(c) == list(SYSTEMS) for c in choices)
    # a subclass reports bit for bit as its class does
    sub = type("Sub", (cls,), {"__slots__": ()})
    for h in (1e-3, 0.5, 10.0):
        point = PhysicalParams(T=1.0, h=h, m=1.0)
        assert repr(comparison_report(point, sub([1.0, (2.0, 3)]))) == repr(
            comparison_report(point, base))


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


def test_axes_beyond_the_float_count_are_a_row_error():
    # N copies of three equal edges: 3N passes the largest float between
    # N = 5.1e307 and N = 7.6e307, the last row, which is recorded, not raised
    grid = tuple(1e307 * 1.5**k for k in range(6))
    result = run_sweep(make_plan(direction="N_to_inf", grid=grid,
                                 base_geometry=BoxGeometry([1.0, 1.0, 1.0])))
    assert [row.error for row in result.rows] == [None] * 5 + [
        "ValidationError: box with more edges than a float counts"]


def test_rows_beyond_float_range_are_row_errors_and_leave_the_fits():
    # mu = 2*rho/a runs from 2.5e156 down, and deep in the quantum regime dE/T
    # is about (pi/4) mu^2, which overflows in the first three rows only: they
    # are row errors naming the field, and both rates fit the other five
    plan = make_plan(grid=tuple(1e156 * 0.1**k for k in range(8)),
                     base_params=PhysicalParams(T=1.0, h=1.0, m=1.0))
    result = run_sweep(plan)
    assert [row.error for row in result.rows[:3]] == [
        "ConvergenceError: non-finite value in report field 'ratios.E_ratio'"] * 3
    assert all(row.report is not None for row in result.rows[3:])
    for row in result.rows[3:]:
        for field in (row.report.ratios, row.report.diffs, row.report.asymptotic_residuals):
            assert all(math.isfinite(v) for v in field.values())
    assert set(result.fitted_rates) == {"Z_ratio", "E_ratio"}
    assert result.fitted_rates["E_ratio"].slope == pytest.approx(2.0, abs=1e-9)


def test_classical_energy_below_the_normal_range_is_refused():
    tiny = sys.float_info.min
    # E_c = T is the smallest normal float: every bit of E_ratio is kept
    report = comparison_report(PhysicalParams(T=tiny, h=1.4 * tiny, m=1.0), OscillatorSpec([1.0]))
    assert report.ratios["E_ratio"] == 1.1582351450618407  # g_ratio([0.7])
    # E_c = T/2 is subnormal, and E_c = 0.5 * 5e-324 rounds to 0
    for T, e_c in ((tiny, tiny / 2), (5e-324, 0.0)):
        with pytest.raises(ConvergenceError) as err:
            comparison_report(PhysicalParams(T=T, h=1.4 * tiny, m=1.0), BoxGeometry([1.0]))
        assert str(err.value) == f"classical E_c = {e_c!r} is below the normal float range"
    # a sweep records each such row as a row error, and has nothing to fit
    plan = make_plan(grid=tuple(2.0 * 0.5**k for k in range(6)),
                     base_params=PhysicalParams(T=5e-324, h=2.0, m=1e10))
    result = run_sweep(plan)
    assert [row.error for row in result.rows] == [
        "ConvergenceError: classical E_c = 0.0 is below the normal float range"] * 6
    assert result.fitted_rates == {}


def test_run_sweep_propagates_foreign_errors(monkeypatch):
    # only the package's own errors become row records; a TypeError is a fault
    def broken(params, system):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(qcthermo.sweeps, "comparison_report", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_sweep(make_plan())


def box_n_row(T, h, m, base, n):
    """Z_ratio, E_ratio, dF, dE, dS of the N_to_inf row N = n (h/n, n copies of
    base) at 40 digits.  Z_q(mu) = (theta_3(q) - 1)/2 with q = e^{-pi mu^2/4},
    taken through the Jacobi transform theta_3(q) = (2/mu) theta_3(e^{-4 pi/mu^2})
    so that jtheta sees a small nome; E/T = -(mu/2) d log Z_q/dmu."""
    with mp.workdps(40):
        T, m, h = mp.mpf(T), mp.mpf(m), mp.mpf(h) / n

        def log_zq(mu):
            return mp.log((2 / mu * mp.jtheta(3, 0, mp.exp(-4 * mp.pi / mu**2)) - 1) / 2)

        rho = h * mp.sqrt(mp.pi / (2 * m * T))
        log_zc = log_zr = e_r = mp.mpf(0)
        for a in map(mp.mpf, base):
            mu = 2 * rho / a
            log_zc += n * mp.log(a * mp.sqrt(2 * mp.pi * m * T))
            log_zr += n * (mp.log(2 * mp.pi * h) + log_zq(mu))
            e_r += n * T * (-mu / 2) * mp.diff(log_zq, mu)
        e_c = len(base) * n * T / 2
        d_log_z = log_zr - log_zc
        return {"Z_ratio": mp.exp(d_log_z), "E_ratio": e_r / e_c, "dF": -T * d_log_z,
                "dE": e_r - e_c, "dS": d_log_z + (e_r - e_c) / T}


@pytest.mark.parametrize("n", [10**3, 10**5, 10**6])
def test_box_n_to_inf_rows_match_mpmath(n):
    # log Z is ~1e3 n here, far beyond float range for e^log_Z; the row is not.
    # Its differences are summed per distinct axis, so their rounding does not
    # grow with n.
    T, h, m, base = 1.0, 0.3, 1.0, (1.0, 2.0)
    plan = make_plan(direction="N_to_inf", grid=tuple(n / 2.0**k for k in range(6)),
                     base_params=PhysicalParams(T=T, h=h, m=m),
                     base_geometry=BoxGeometry(base))
    row = run_sweep(plan).rows[0]
    assert row.error is None
    assert row.report.classical.Z == math.inf
    want = box_n_row(T, h, m, base, n)
    got = dict(row.report.ratios, **row.report.diffs)
    for key, value in want.items():
        assert got[key] == pytest.approx(float(value), rel=1e-14), key


def box_axis_excess(mu):
    """(dlog z, dE/T) of one box axis at 50 digits: log(mu Z_q) and E/T - 1/2,
    from the Poisson form W0 = mu Z_q = 1 - mu/2 + 2 sum e^{-d n^2}, d = 4 pi/mu^2,
    below mu = 1 and from the direct sum above it."""
    mu = mp.mpf(mu)

    def sums(d, shift):
        s0 = s2 = mp.mpf(0)
        n = 1
        while True:
            term = mp.exp(-d * (n * n - shift))
            s0, s2 = s0 + term, s2 + n * n * term
            if n * n * term < mp.mpf(10) ** -60 * s2:
                return s0, s2
            n += 1

    if mu < 1:
        d = 4 * mp.pi / mu**2
        s0, s2 = sums(d, 0)
        w0 = 1 - mu / 2 + 2 * s0
        return mp.log(w0), (mu / 2 - 4 * d * s2) / (2 * w0)
    d = mp.pi / 4 * mu**2
    s0, s2 = sums(d, 1)
    return mp.log(mu) - d + mp.log(s0), d * s2 / s0 - mp.mpf(1) / 2


def osc_axis_excess(tau):
    t = mp.mpf(tau)
    return mp.log(t / mp.sinh(t)), t * mp.coth(t) - 1


def n_row(system, T, h, m, base, n):
    """The ratios, differences and residuals of the N_to_inf row N = n (h/n, n
    copies of base) from each base axis's excess, with digits to spare beyond
    the scale of mu or tau ~ 1/n, where the excess of tau is ~ tau^2."""
    with mp.workdps(60 + 2 * len(str(n))):
        T, h = mp.mpf(T), mp.mpf(h) / n
        if system == "well":
            xs = [2 * h * mp.sqrt(mp.pi / (2 * m * T)) / a for a in base]
            terms, e_c = [box_axis_excess(x) for x in xs], len(base) * n * T / 2
        else:
            xs = [h * w / (2 * T) for w in base]
            terms, e_c = [osc_axis_excess(x) for x in xs], len(base) * n * T
        dz, de = n * mp.fsum(z for z, _ in terms), n * mp.fsum(e for _, e in terms)
        z, e = mp.exp(dz), 1 + T * de / e_c
        row = {"Z_ratio": z, "E_ratio": e, "dF": -T * dz, "dE": T * de, "dS": dz + de}
        if system == "well":
            residuals = {"small_mu_product": abs(z - mp.fprod((1 - x / 2) ** n for x in xs)),
                         "small_mu_energy": abs(e - mp.fsum(1 / (1 - x / 2) for x in xs) / len(xs))}
        else:
            t2 = n * mp.fsum(x * x for x in xs)
            residuals = {"small_tau_quadratic_z": abs(z - (1 - t2 / 6)),
                         "small_tau_quadratic_e": abs(e - (1 + t2 / (3 * n * len(xs))))}
        return {k: float(v) for k, v in row.items()}, {k: float(v) for k, v in residuals.items()}


@pytest.mark.parametrize("base", [(1.0, 2.0), (1.0, 2.0, 1.0)])
@pytest.mark.parametrize("system", ["well", "oscillator"])
@pytest.mark.parametrize("n", [10**3, 10**6, 10**12, 10**100])
def test_n_to_inf_rows_match_mpmath(n, system, base):
    # log Z is ~1e3 n here, far beyond float range for e^log_Z; the row is not.
    # Its differences and residuals are summed per distinct axis, weighted by
    # multiplicities of n or 2n, so their rounding does not grow with n, and
    # the row holds one reduced parameter per distinct axis
    T, h, m = 1.0, 0.3, 1.0
    well = system == "well"
    plan = SweepPlan(system, "N_to_inf", tuple(float(n) * 2.0**k for k in range(6)),
                     PhysicalParams(T=T, h=h, m=m),
                     base_geometry=BoxGeometry(base) if well else None,
                     base_spec=None if well else OscillatorSpec(base))
    row = run_sweep(plan).rows[0]
    assert row.error is None
    assert row.report.classical.Z == math.inf
    assert len(row.report.point.mu if well else row.report.point.tau) == 2
    want, want_residuals = n_row(system, T, h, m, base, round(row.swept_value))
    got = dict(row.report.ratios, **row.report.diffs)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-14), key
    assert row.report.asymptotic_residuals.keys() == want_residuals.keys()
    for key, value in want_residuals.items():
        assert row.report.asymptotic_residuals[key] == pytest.approx(value, abs=1e-15), key


@pytest.mark.parametrize("system", ["well", "oscillator"])
@pytest.mark.parametrize("x", [1e-12, 1e-9, 2.5e-11, 2.5e-7, 5e-8, 1e-5, 1e-3, 0.1, 0.9, 1.0,
                               1.2, 10.0, 100.0, 1e3])
@pytest.mark.parametrize("axes", [((1.0, 1),), ((1.0, 3), (3.0, 1), (1.0 / 7.0, 5))])
def test_report_differences_match_mpmath(system, x, axes):
    # the paper's quasi-classical limits are mu, tau -> 0, where the differences
    # are far smaller than either quartet: each must keep its relative accuracy.
    # axes are (factor, multiplicity): mu or tau = factor * x on that many axes
    with mp.workdps(50):
        if system == "well":
            # T = h = m = 1, so rho = sqrt(pi/2) and an edge a has mu = 2 rho/a
            rho = math.sqrt(math.pi / 2.0)
            geom = BoxGeometry([2.0 * rho / (f * x) for f, k in axes for _ in range(k)])
            rep = comparison_report(PhysicalParams(T=1.0, h=1.0, m=1.0), geom)
            terms = [(box_axis_excess(2 * mp.mpf(rho) / a), k) for a, k in geom.distinct_edges]
        else:
            # T = 1, h = 2, so tau = omega
            spec = OscillatorSpec([f * x for f, k in axes for _ in range(k)])
            rep = comparison_report(PhysicalParams(T=1.0, h=2.0, m=1.0), spec)
            terms = [(osc_axis_excess(w), k) for w, k in spec.distinct_frequencies]
        dz = mp.fsum(k * z for (z, _), k in terms)
        de = mp.fsum(k * e for (_, e), k in terms)
        want = {"Z_ratio - 1": mp.expm1(dz), "dF": -dz, "dE": de, "dS": dz + de}
        # dS of mixed axes is a sum of terms of either sign, so its rounding is
        # relative to their summed magnitude
        scale = {key: abs(value) for key, value in want.items()}
        scale["dS"] = mp.fsum(k * abs(z + e) for (z, e), k in terms)
    got = {"Z_ratio - 1": math.expm1(-rep.diffs["dF"]), **rep.diffs}
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-14 * scale[key], key
    assert rep.ratios["Z_ratio"] == pytest.approx(float(mp.exp(dz)), rel=2.3e-16)


@given(system=st.sampled_from(["well", "oscillator"]),
       log_n=st.floats(min_value=0.0, max_value=5.0 - math.log10(32.0)),
       h=st.floats(min_value=1.0, max_value=10.0),
       T=st.floats(min_value=0.5, max_value=2.0),
       base=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=3))
@settings(max_examples=8, deadline=None)
def test_n_to_inf_rows_are_reports_at_any_n(system, log_n, h, T, base):
    # N log-uniform up to 1e5: every row is a report, and the ratios deviate
    # from 1 with the documented signs, Z below and E above
    n0 = 10.0**log_n
    well = system == "well"
    plan = SweepPlan(
        system=system, direction="N_to_inf", grid=tuple(n0 * 2.0**k for k in range(6)),
        base_params=PhysicalParams(T=T, h=h, m=1.0),
        base_geometry=BoxGeometry(base) if well else None,
        base_spec=None if well else OscillatorSpec(base),
    )
    result = run_sweep(plan)
    for row in result.rows:
        assert row.error is None
        z_dev = row.report.ratios["Z_ratio"] - 1.0
        e_dev = row.report.ratios["E_ratio"] - 1.0
        assert math.isfinite(z_dev) and z_dev < 0
        assert math.isfinite(e_dev) and e_dev > 0


def log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda x: 10.0**x)


@given(T=log_uniform(-300, 300), h=log_uniform(-300, 300), m=log_uniform(-300, 300),
       box=st.booleans(), axes=st.lists(log_uniform(-300, 300), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_report_raises_only_package_errors(T, h, m, box, axes):
    # run_sweep records only the package's errors, so at float-range extremes
    # a report either computes or raises one of them
    params = PhysicalParams(T=T, h=h, m=m)
    system = BoxGeometry(axes) if box else OscillatorSpec(axes)
    try:
        comparison_report(params, system)
    except (ValidationError, ConvergenceError, InversionError, IntegrationError):
        pass


# each system's builders of a report's classical quartet, regularized quartet
# and reduced parameters, which a comparison report must reproduce bit for bit
BUILDERS = {"well": (well_classical, well_regularized, reduce_well),
            "oscillator": (osc_classical, osc_regularized, reduce_oscillator)}


def float_bits(value):
    """value with each float, in tuples too, as its hex: equal bits compare
    equal, NaN included, and -0.0 differs from 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(float_bits, value))
    return value


def outcome(build):
    """('ok', the fields' bits of each record build returns) or ('raised',
    the exception's type and message)."""
    try:
        records = build()
    except Exception as exc:  # any error: its type is compared too
        return "raised", type(exc), str(exc)
    return "ok", [float_bits(r._astuple()) for r in records]


@given(system=st.sampled_from(["well", "oscillator"]), subclass=st.booleans(),
       T=log_uniform(-300, 300), h=st.one_of(st.just(0.0), log_uniform(-300, 300)),
       m=log_uniform(-300, 300),
       axes=st.lists(st.tuples(log_uniform(-300, 300), log_uniform(0, 30).map(math.floor)),
                     min_size=1, max_size=3, unique_by=lambda axis: axis[0]))
@settings(max_examples=300, deadline=None)
def test_report_is_its_builders_bit_for_bit(system, subclass, T, h, m, axes):
    # comparison_report forms its quartets and reduced parameters in one pass
    # per distinct axis; the public builders must give the same bits, and
    # wherever either side raises, both raise the same error
    cls = SYSTEMS[system]
    if subclass:
        cls = type("Sub", (cls,), {"__slots__": ()})
    params, body = PhysicalParams(T=T, h=h, m=m), cls([(v, float(k)) for v, k in axes])

    def report():
        r = comparison_report(params, body)
        return r.classical, r.regularized, r.point

    want = outcome(lambda: [build(params, body) for build in BUILDERS[system]])
    assert outcome(report) == want


def lstsq_fit(xs, ys):
    """The numpy least-squares fit that fit_leading_order replaced."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    mask = np.abs(ys) > 1e-280
    lx, ly = np.log(xs[mask]), np.log(np.abs(ys[mask]))
    design = np.column_stack([np.ones_like(lx), lx])
    sol, *_ = np.linalg.lstsq(design, ly, rcond=None)
    return float(sol[0]), float(sol[1]), float(np.linalg.norm(ly - design @ sol))


@given(x0=log_uniform(-3, 3), step=st.floats(min_value=0.3, max_value=3.0).filter(
           lambda f: abs(f - 1.0) > 1e-3),
       points=st.integers(min_value=6, max_value=12),
       slope=st.floats(min_value=-3.0, max_value=3.0),
       coefficient=log_uniform(-3, 3),
       noise=st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=12, max_size=12),
       sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=200, deadline=None)
def test_fit_leading_order_matches_lstsq(x0, step, points, slope, coefficient, noise, sign):
    xs = [x0 * step**k for k in range(points)]
    ys = [sign * coefficient * x**slope * math.exp(e) for x, e in zip(xs, noise)]
    log_coefficient, want_slope, want_norm = lstsq_fit(xs, ys)
    fit = fit_leading_order(xs, ys)
    assert fit.slope == pytest.approx(want_slope, rel=0, abs=1e-9)
    assert math.log(fit.coefficient) == pytest.approx(log_coefficient, rel=0, abs=1e-9)
    assert fit.residual_norm == pytest.approx(want_norm, rel=0, abs=1e-13)
    assert fit.sign == int(sign)


def test_fit_leading_order_synthetic():
    xs = [0.1 * 0.5**k for k in range(8)]
    ys = [3.0 * x**2 for x in xs]
    fit = fit_leading_order(xs, ys)
    assert fit.slope == pytest.approx(2.0, abs=1e-10)
    assert fit.coefficient == pytest.approx(3.0, rel=1e-10)
    assert fit.sign == 1


def test_fit_leading_order_validation():
    with pytest.raises(ValidationError):
        fit_leading_order([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        fit_leading_order([1, 2, 3, 4], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        fit_leading_order([-1, 2, 3, 4], [1, 2, 3, 4])
    with pytest.raises(ValidationError):
        fit_leading_order([1, 2, 3, 4], [1, 2, 3])  # lengths differ
    with pytest.raises(ValidationError):
        fit_leading_order([2, 2, 2, 2], [1, 2, 3, 4])  # no spread to fit a slope
    with pytest.raises(ValidationError):
        fit_leading_order([1, 2, 3, math.inf], [1, 2, 3, 4])
    # mixed signs give sign 0
    assert fit_leading_order([1, 2, 3, 4], [1, -2, 3, 4]).sign == 0
