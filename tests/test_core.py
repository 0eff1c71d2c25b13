import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcthermo.core import (
    BoxGeometry,
    ConvergenceError,
    OscillatorSpec,
    PhysicalParams,
    ThermoQuartet,
    ValidationError,
    reduce_oscillator,
    reduce_rho,
    reduce_well,
    sign_with_zero_band,
    _z_from_log,
    parse_number,
)

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def test_params_validation():
    with pytest.raises(ValidationError):
        PhysicalParams(T=0.0, h=1.0, m=1.0)
    with pytest.raises(ValidationError):
        PhysicalParams(T=1.0, h=-0.1, m=1.0)
    with pytest.raises(ValidationError):
        PhysicalParams(T=1.0, h=1.0, m=0.0)
    with pytest.raises(ValidationError):
        PhysicalParams(T=math.nan, h=1.0, m=1.0)
    # h = 0 is the classical limit point and must be accepted
    assert PhysicalParams(T=1.0, h=0.0, m=1.0).h == 0.0


def test_geometry_validation():
    with pytest.raises(ValidationError):
        BoxGeometry([])
    with pytest.raises(ValidationError):
        BoxGeometry([1.0, -2.0])
    with pytest.raises(ValidationError):
        OscillatorSpec([0.0])
    assert BoxGeometry([3, 1]).dimension == 2
    assert OscillatorSpec([2.0]).distinct_frequencies == ((2.0, 1),)


def test_distinct_axes_in_first_seen_order():
    box = BoxGeometry([2, 1, 2, 3, 1])
    assert box.distinct_edges == ((2.0, 2), (1.0, 2), (3.0, 1))
    assert box.distinct_edges is box.distinct_edges  # computed once per geometry
    assert OscillatorSpec([1.5] * 4 + [0.5]).distinct_frequencies == ((1.5, 4), (0.5, 1))


def test_z_from_log_is_total():
    assert _z_from_log(0.0) == 1.0
    assert _z_from_log(-1e4) == 5e-324
    assert _z_from_log(1e4) == math.inf
    assert _z_from_log(math.inf) == math.inf
    with pytest.raises(ConvergenceError):
        _z_from_log(math.nan)
    # a quartet whose Z is beyond float range is a valid value; log_Z carries it
    q = ThermoQuartet(Z=math.inf, F=-1e4, E=1.0, S=1e4 + 1.0, flavor="classical", T=1.0,
                      log_Z=1e4)
    assert q.log_Z == 1e4


def test_rho_where_2mT_leaves_float_range():
    tiny = PhysicalParams(T=1e-200, h=1.0, m=1e-200)
    assert reduce_rho(tiny) == pytest.approx(math.sqrt(math.pi / 2.0) * 1e200, rel=1e-15)
    huge = PhysicalParams(T=1e200, h=1.0, m=1e200)
    assert reduce_rho(huge) == pytest.approx(math.sqrt(math.pi / 2.0) * 1e-200, rel=1e-15)
    # 2mT is subnormal: pi/(2mT) overflows, rho does not
    for T, m in ((1e-160, 1e-160), (1.0, 1e-310), (1e-310, 1.0)):
        rho = reduce_rho(PhysicalParams(T=T, h=1.0, m=m))
        expected = math.sqrt(math.pi / 2.0) / math.sqrt(m) / math.sqrt(T)
        assert rho == pytest.approx(expected, rel=1e-15) and math.isfinite(rho)
        assert reduce_rho(PhysicalParams(T=T, h=0.0, m=m)) == 0.0


@given(T=positive, h=positive, m=positive, a=positive)
@settings(max_examples=100, deadline=None)
def test_reduction_identities(T, h, m, a):
    params = PhysicalParams(T=T, h=h, m=m)
    reduced = reduce_well(params, BoxGeometry([a]))
    rho = reduce_rho(params)
    (mu,) = reduced.mu
    (lam,) = reduced.lambda_theta
    # mu_k * a_k = 2*rho and lam * (pi/4) * mu^2 = 1
    assert mu * a == pytest.approx(2.0 * rho, rel=1e-12)
    assert lam * (math.pi / 4.0) * mu * mu == pytest.approx(1.0, rel=1e-12)


@given(T=positive, h=positive, m=positive,
       omegas=st.lists(positive, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_reduced_aggregates(T, h, m, omegas):
    params = PhysicalParams(T=T, h=h, m=m)
    reduced = reduce_oscillator(params, OscillatorSpec(omegas))
    assert reduced.delta == max(reduced.tau)
    assert reduced.kappa == min(reduced.tau)
    assert reduced.mu == ()
    assert reduced.eps is None


def test_classical_limit_reductions_vanish():
    params = PhysicalParams(T=1.0, h=0.0, m=1.0)
    red = reduce_well(params, BoxGeometry([1.0, 2.0]))
    assert red.mu == (0.0, 0.0)
    assert red.lambda_theta == (math.inf, math.inf)
    assert reduce_oscillator(params, OscillatorSpec([1.0])).tau == (0.0,)


def test_quartet_identity_enforced():
    with pytest.raises(ValidationError):
        ThermoQuartet(Z=1.0, F=1.0, E=1.0, S=1.0, flavor="classical", T=1.0)
    q = ThermoQuartet(Z=1.0, F=-1.0, E=1.0, S=2.0, flavor="classical", T=1.0)
    assert q.log_Z == 0.0


def test_quartet_rejects_nonpositive_z():
    with pytest.raises(ValidationError):
        ThermoQuartet(Z=0.0, F=0.0, E=0.0, S=0.0, flavor="quantum", T=1.0, log_Z=0.0)
    # without log_Z the check must come before log(Z) is taken
    for z in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="statistical sum must be positive"):
            ThermoQuartet(Z=z, F=0.0, E=0.0, S=0.0, flavor="quantum", T=1.0)


def test_quartet_rejects_unknown_flavor():
    with pytest.raises(ValidationError):
        ThermoQuartet(Z=1.0, F=-1.0, E=1.0, S=2.0, flavor="mystery", T=1.0)


def test_sign_zero_band():
    assert sign_with_zero_band(0.0) == 0
    assert sign_with_zero_band(1e-11, 0.0) == 0
    assert sign_with_zero_band(1e-9, 0.0) == 1
    assert sign_with_zero_band(-1e-9, 0.0) == -1
    # band scales with the reference magnitude
    assert sign_with_zero_band(1e-6, 1e5) == 0


@pytest.mark.parametrize("text, value", [
    ("1e-400", 0.0), ("-0", -0.0), ("- 1", -1.0), ("\u0661\u0662", 12.0),
    (" \t2.5\n", 2.5), ("\xa02\u2003", 2.0), ("2pi", 2.0 * math.pi), ("pi/2", math.pi / 2.0),
    ("+1.5E+3", 1500.0), (".5", 0.5), ("-1e-320", -1e-320),
])
def test_parse_number_values(text, value):
    # float() reads a plain literal, the pattern the rest; each form means
    # what it meant when the pattern read every text
    got = parse_number(text)
    assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value)


@pytest.mark.parametrize("text, message", [
    ("1_0", "cannot parse number '1_0'"), ("1e5_0", "cannot parse number '1e5_0'"),
    ("inf", "cannot parse number 'inf'"), ("-inf", "cannot parse number '-inf'"),
    ("nan", "cannot parse number 'nan'"), ("Infinity", "cannot parse number 'Infinity'"),
    (" ", "cannot parse number ' '"), ("", "cannot parse number ''"),
    ("1e400", "number '1e400' is beyond float range"),
    ("3/0", "division by zero in number '3/0'"),
])
def test_parse_number_errors(text, message):
    with pytest.raises(ValidationError) as exc:
        parse_number(text)
    assert str(exc.value) == message


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_parse_number_reads_reprs(x):
    for text in (repr(x), format(x, ".17g"), format(x, "e")):
        assert parse_number(text) == float(text)
