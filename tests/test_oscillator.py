import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcthermo.core import OscillatorSpec, PhysicalParams, ValidationError
from qcthermo.oscillator import (
    _axis_excess,
    _bernoulli_even,
    bernoulli_series,
    f_ratio,
    g_ratio,
    monotonicity_certificates,
    osc_classical,
    osc_regularized,
    series_eval,
)

# Frozen against mpmath: 1/sinh(1), 1/tanh(1), tau/sinh(tau) at tau=1 per axis
INV_SINH_1 = 0.85091812823932154513
COTH_1 = 1.3130352854993313036


def params_for_tau(tau, omega=1.0, T=1.0):
    return PhysicalParams(T=T, h=2.0 * T * tau / omega, m=1.0)


def test_classical_closed_form():
    params = PhysicalParams(T=2.0, h=0.0, m=1.0)
    spec = OscillatorSpec([1.0, 4.0])
    q = osc_classical(params, spec)
    assert q.Z == pytest.approx((2.0 * math.pi * 2.0) ** 2 / 4.0, rel=1e-14)
    assert q.E == pytest.approx(4.0, rel=0)
    assert q.S == pytest.approx(2.0 + q.log_Z, rel=1e-14)


def test_regularized_closed_form():
    params = params_for_tau(1.0)
    spec = OscillatorSpec([1.0])
    q = osc_regularized(params, spec)
    assert q.Z == pytest.approx(2.0 * math.pi * INV_SINH_1, rel=1e-14)
    assert q.E == pytest.approx(COTH_1, rel=1e-14)


def per_axis_quartets(params, omegas):
    """(log_Z, E, S, F) of the classical and regularized quartets, summed one
    axis at a time in frequency order: the reference the grouped builders meet.
    The regularized quartet is the classical one plus the summed per-axis
    excess (dlog z, dE/T, dS) of the kernel.  Also returns the summed magnitude
    of every term, the scale of the rounding of either summation order."""
    T, n = params.T, len(omegas)
    log_zc = dz = de = ds = 0.0
    magnitude = float(n)
    for w in omegas:
        log_axis = math.log(2.0 * math.pi * T / w)
        z, e, s = _axis_excess(params.h * w / (2.0 * T))
        log_zc += log_axis
        dz += z
        de += e
        ds += s
        magnitude += abs(log_axis) + abs(z) + abs(e) + abs(s)
    e_c, s_c = n * T, n + log_zc
    log_zr = log_zc + dz
    return ((log_zc, e_c, s_c, e_c - T * s_c),
            (log_zr, e_c + T * de, s_c + ds, -T * log_zr), magnitude)


def quartet_tuple(q):
    return (q.log_Z, q.E, q.S, q.F)


osc_params = st.builds(
    PhysicalParams,
    T=st.floats(min_value=0.1, max_value=10.0),
    h=st.floats(min_value=0.01, max_value=10.0),
    m=st.just(1.0),
)
frequency = st.floats(min_value=0.1, max_value=10.0)


@given(params=osc_params, omegas=st.lists(frequency, min_size=1, max_size=5, unique=True))
@settings(max_examples=100, deadline=None)
def test_builders_bit_equal_per_axis_on_distinct_frequencies(params, omegas):
    spec = OscillatorSpec(omegas)
    classical, regularized, _ = per_axis_quartets(params, omegas)
    assert quartet_tuple(osc_classical(params, spec)) == classical
    assert quartet_tuple(osc_regularized(params, spec)) == regularized


@given(params=osc_params, base=st.lists(frequency, min_size=1, max_size=3, unique=True),
       copies=st.integers(min_value=2, max_value=60), seed=st.randoms())
@settings(max_examples=60, deadline=None)
def test_builders_match_per_axis_on_repeated_frequencies(params, base, copies, seed):
    omegas = base * copies
    seed.shuffle(omegas)
    spec = OscillatorSpec(omegas)
    *want, magnitude = per_axis_quartets(params, omegas)
    got = (quartet_tuple(osc_classical(params, spec)),
           quartet_tuple(osc_regularized(params, spec)))
    for got_q, want_q in zip(got, want):
        # E and F carry a factor T
        for g, w, unit in zip(got_q, want_q, (1.0, params.T, 1.0, params.T)):
            assert math.isclose(g, w, rel_tol=1e-13, abs_tol=1e-13 * unit * magnitude)


def test_regularized_needs_h():
    with pytest.raises(ValidationError):
        osc_regularized(PhysicalParams(T=1.0, h=0.0, m=1.0), OscillatorSpec([1.0]))


def test_deep_quantum_log_space():
    # tau = 1000: sinh overflows, the log-space path must survive
    params = params_for_tau(1000.0)
    q = osc_regularized(params, OscillatorSpec([1.0]))
    assert q.log_Z == pytest.approx(
        math.log(2.0 * math.pi) + math.log(1000.0) - (1000.0 - math.log(2.0)),
        rel=1e-13,
    )
    assert q.E == pytest.approx(1000.0, rel=1e-14)
    assert q.Z > 0


@pytest.mark.parametrize("tau", [1e-3, 1.0, 20.0, 1e3, 1e6])
def test_regularized_entropy_matches_mpmath(tau):
    # S = log(2 pi T/omega) + log(tau/sinh tau) + tau/tanh tau at T = omega = 1;
    # S formed as (E - F)/T cancels to 5.5e-12 relative at tau = 1e6
    with mpmath.workdps(50):
        t = mpmath.mpf(tau)
        want = mpmath.log(2 * mpmath.pi) + mpmath.log(t / mpmath.sinh(t)) + t / mpmath.tanh(t)
    q = osc_regularized(params_for_tau(tau), OscillatorSpec([1.0]))
    assert q.S == pytest.approx(float(want), rel=1e-15)


def test_f_ratio_values():
    assert f_ratio([1.0]) == pytest.approx(INV_SINH_1, rel=1e-14)
    assert f_ratio([1.0, 1.0]) == pytest.approx(INV_SINH_1**2, rel=1e-13)
    assert f_ratio([0.0]) == 1.0


@pytest.mark.parametrize("tau", [1e-300, 1.7e-20, 3.3e-12, 4.4e-11, 1.7e-9, 1e-8, 1.3e-7, 7.1e-7, 1e-6])
def test_ratio_deviations_correctly_rounded_at_small_tau(tau):
    # near 1 the ratios carry their deviations 1 - f ~ tau^2/6 and g - 1 ~ tau^2/3
    # only to the spacing of floats at 1; each must be within half of it
    with mpmath.workdps(50):
        t = mpmath.mpf(tau)
        one_minus_f = 1 - t / mpmath.sinh(t)
        g_minus_1 = t / mpmath.tanh(t) - 1
    assert abs((1.0 - f_ratio([tau])) - one_minus_f) <= 2.0**-54
    assert abs((g_ratio([tau]) - 1.0) - g_minus_1) <= 2.0**-53


def test_g_ratio_is_mean():
    assert g_ratio([1.0]) == pytest.approx(COTH_1, rel=1e-14)
    assert g_ratio([1.0, 0.0]) == pytest.approx((COTH_1 + 1.0) / 2.0, rel=1e-14)
    # tanh(tau) is exactly 1.0 from tau ~ 19.06 on, so tau/tanh(tau) is tau bit for bit
    for tau in (20.5, 700.0, 1e300):
        assert g_ratio([tau]) == tau


def test_ratios_match_quartets():
    params = params_for_tau(0.7)
    spec = OscillatorSpec([1.0, 2.0])
    taus = [0.7, 1.4]
    reg = osc_regularized(params, spec)
    cla = osc_classical(params, spec)
    assert math.exp(reg.log_Z - cla.log_Z) == pytest.approx(f_ratio(taus), rel=1e-12)
    assert reg.E / cla.E == pytest.approx(g_ratio(taus), rel=1e-12)


def test_bernoulli_numbers_exact():
    assert _bernoulli_even(0) == Fraction(1)
    assert _bernoulli_even(1) == Fraction(1, 6)
    assert _bernoulli_even(2) == Fraction(-1, 30)
    assert _bernoulli_even(3) == Fraction(1, 42)
    assert _bernoulli_even(6) == Fraction(-691, 2730)
    assert _bernoulli_even(8) == Fraction(-3617, 510)


def test_series_leading_coefficients():
    f = bernoulli_series("f_sinh", 3)
    g = bernoulli_series("g_tanh", 3)
    assert f.coefficients[0] == 1.0
    assert f.coefficients[1] == pytest.approx(-1.0 / 6.0, rel=0)
    assert f.coefficients[2] == pytest.approx(7.0 / 360.0, rel=1e-15)
    assert g.coefficients[1] == pytest.approx(1.0 / 3.0, rel=0)
    assert g.coefficients[2] == pytest.approx(-1.0 / 45.0, rel=1e-15)


@given(tau=st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_series_converges_to_closed_form(tau):
    f = bernoulli_series("f_sinh", 12)
    g = bernoulli_series("g_tanh", 12)
    assert series_eval(f, tau) == pytest.approx(tau / math.sinh(tau), rel=1e-12)
    assert series_eval(g, tau) == pytest.approx(tau / math.tanh(tau), rel=1e-12)


def test_series_radius_guard():
    f = bernoulli_series("f_sinh", 4)
    with pytest.raises(ValidationError):
        series_eval(f, 3.0)
    with pytest.raises(ValidationError):
        bernoulli_series("nope", 2)


def test_monotonicity_certificate_signs():
    for tau in (0.1, 1.0, 4.0):
        cert = monotonicity_certificates(tau)
        assert cert.signs == (-1, 1, 1)


def test_certificates_match_finite_differences():
    def s_of_tau(t):
        # entropy of the one-dimensional regularized oscillator at omega=T=1
        return t / math.tanh(t) + math.log(2.0 * math.pi) + math.log(t / math.sinh(t))

    for tau in (0.3, 1.0, 2.5):
        h = 1e-6
        cert = monotonicity_certificates(tau)
        fd_z = ((tau + h) / math.sinh(tau + h) - (tau - h) / math.sinh(tau - h)) / (2 * h)
        fd_e = ((tau + h) / math.tanh(tau + h) - (tau - h) / math.tanh(tau - h)) / (2 * h)
        fd_s = (s_of_tau(tau + h) - s_of_tau(tau - h)) / (2 * h)
        assert cert.z_ratio_slope == pytest.approx(fd_z, rel=1e-8)
        assert cert.e_ratio_slope == pytest.approx(fd_e, rel=1e-8)
        assert cert.entropy_slope == pytest.approx(fd_s, rel=1e-8)


def _slopes_to_digits(tau):
    """The three slopes at tau in mpmath, carrying enough bits through the
    cancellation of sinh tau - tau cosh tau, whose terms agree to ~tau^2."""
    bits = 128 + 2 * max(0, -math.frexp(tau)[1])
    with mpmath.workprec(bits):
        t = mpmath.mpf(tau)
        sh, ch = mpmath.sinh(t), mpmath.cosh(t)
        return (+((sh - t * ch) / sh**2), +(ch / sh - t / sh**2),
                +((sh**2 - t**2) / (t * sh**2)))


@given(exponent=st.floats(min_value=-300.0, max_value=300.0))
@settings(max_examples=200, deadline=None)
def test_certificates_hold_from_the_classical_to_the_deep_quantum_limit(exponent):
    # the slopes keep their signs as tau -> 0, the paper's limit, and as tau
    # grows, and every one that is a normal float is within a few ulp
    tau = 10.0**exponent
    cert = monotonicity_certificates(tau)
    assert cert.signs == (-1, 1, 1)
    got = (cert.z_ratio_slope, cert.e_ratio_slope, cert.entropy_slope)
    for slope, want in zip(got, _slopes_to_digits(tau)):
        if abs(want) >= sys.float_info.min:
            assert abs(slope - want) <= 8 * math.ulp(float(want)), (tau, slope, want)


@pytest.mark.parametrize("tau", [1e-200, 1e-100, 1e-10, 1e-8, 355.0, 356.0, 746.0, 1e300])
def test_certificates_neither_cancel_nor_overflow(tau):
    # sinh tau - tau cosh tau cancelled below tau ~ 1e-8, sinh(tau)^2
    # overflowed from tau ~ 355 and tau * sinh(tau)^2 underflowed at 1e-200
    cert = monotonicity_certificates(tau)
    assert cert.signs == (-1, 1, 1)
    assert all(map(math.isfinite, (cert.z_ratio_slope, cert.e_ratio_slope, cert.entropy_slope)))
    assert cert.e_ratio_slope > 0 and cert.entropy_slope > 0


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_certificates_need_a_positive_finite_tau(tau):
    # tau = inf gave nan slopes with signs (1, 1, 1)
    with pytest.raises(ValidationError, match="tau must be positive"):
        monotonicity_certificates(tau)


def test_ratios_take_their_limits_at_infinite_tau():
    assert f_ratio([math.inf]) == 0.0 and f_ratio([math.inf, 1.0]) == 0.0
    assert g_ratio([math.inf]) == math.inf and g_ratio([math.inf, 1.0]) == math.inf
    # 2 tau overflows here, which made g nan
    assert g_ratio([sys.float_info.max]) == sys.float_info.max


@given(tau=st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_f_decreasing_g_increasing(tau):
    step = 1.01
    assert f_ratio([tau * step]) < f_ratio([tau])
    assert g_ratio([tau * step]) > g_ratio([tau])


@given(tau=st.floats(min_value=0.01, max_value=5.0), T=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_entropy_difference_positive(tau, T):
    params = params_for_tau(tau, T=T)
    spec = OscillatorSpec([1.0])
    assert osc_regularized(params, spec).S > osc_classical(params, spec).S
