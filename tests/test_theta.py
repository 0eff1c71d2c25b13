import functools
import importlib
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcthermo.core import ConvergenceError, ValidationError
from qcthermo.theta import (
    _CROSSOVER_MU,
    _gaussian_moments,
    energy_sum,
    small_mu_slope_witnesses,
    theta,
    theta_direct,
    theta_poisson,
)

# the package attribute qcthermo.theta is the function
theta_module = importlib.import_module("qcthermo.theta")

# Frozen against a 40-digit mpmath evaluation of the lattice sums.
THETA_AT_2 = 0.043217405606654007288
THETA_AT_1 = 0.50000697468471241799
E_RATIO_AT_2 = 6.2847063351139366378
E_RATIO_AT_1 = 1.9996354698234830643
W0_AT_4_OVER_PI = 0.50000697468471241799
W1_AT_4_OVER_PI = 0.99983168173868331876


def test_theta_direct_oracle():
    assert theta_direct(2.0).value == pytest.approx(THETA_AT_2, rel=1e-15)


def test_theta_poisson_oracle():
    assert theta_poisson(1.0).value == pytest.approx(THETA_AT_1, rel=1e-14)


def test_dispatch_picks_representation():
    assert theta(3.0).representation_used == "direct"
    assert theta(0.5).representation_used == "poisson"
    assert theta(_CROSSOVER_MU).representation_used == "direct"


def test_crossover_value():
    assert _CROSSOVER_MU == pytest.approx(2.0 / math.sqrt(math.pi), rel=0)


@given(mu=st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_poisson_duality(mu):
    d = theta_direct(mu).value
    p = theta_poisson(mu).value
    assert abs(d - p) <= 1e-12 * abs(d)


def test_truncation_bound_is_honest():
    for mu in (0.5, 1.0, 2.0):
        tv = theta(mu)
        other = theta_poisson(mu) if tv.representation_used == "direct" else theta_direct(mu)
        assert abs(tv.value - other.value) <= tv.truncation_bound + 1e-12 * tv.value


def test_energy_sum_matches_direct():
    for mu in (0.5, 0.9, 1.0, 1.5):
        direct, dual = theta_direct(mu), theta_poisson(mu)
        assert dual.mean_energy == pytest.approx(direct.mean_energy, rel=1e-12)
        assert energy_sum(mu) == pytest.approx(
            direct.value * direct.mean_energy, rel=1e-12
        )


def test_energy_ratio_oracles():
    assert 2.0 * energy_sum(2.0) / theta(2.0).value == pytest.approx(
        E_RATIO_AT_2, rel=1e-13
    )
    assert 2.0 * energy_sum(1.0) / theta(1.0).value == pytest.approx(
        E_RATIO_AT_1, rel=1e-13
    )


def test_transformed_sums_at_mu_one():
    # at mu = 1 (lam = 4/pi): W0 = mu * Z_q and W1 = 2 * W0 * mean_energy
    t = theta(1.0)
    assert t.representation_used == "poisson"
    assert t.value == pytest.approx(W0_AT_4_OVER_PI, rel=1e-14)
    assert 2.0 * t.value * t.mean_energy == pytest.approx(W1_AT_4_OVER_PI, rel=1e-14)


def test_energy_sum_is_lambda_derivative():
    # energy_sum = lam * dZ_q/dlam and mean_energy = lam * d(log Z_q)/dlam, with
    # lam * d/dlam = -(mu/2) * d/dmu; central differences in mu
    for mu in (0.3, 1.0, 1.5, 2.0, 40.0):
        step = 1e-5 * mu
        lo, hi = theta(mu - step), theta(mu + step)
        slope = (hi.log_value - lo.log_value) / (2 * step)
        assert theta(mu).mean_energy == pytest.approx(-0.5 * mu * slope, rel=1e-8)
        slope = (hi.value - lo.value) / (2 * step)
        assert energy_sum(mu) == pytest.approx(-0.5 * mu * slope, rel=1e-8, abs=1e-300)


def test_small_mu_asymptote():
    # theta(mu) = 1/mu - 1/2 + O(exp(-4 pi / mu^2))
    for mu in (0.1, 0.2, 0.3):
        assert theta(mu).value == pytest.approx(1.0 / mu - 0.5, abs=1e-14)


def test_validation():
    with pytest.raises(ValidationError):
        theta(-1.0)
    with pytest.raises(ConvergenceError):
        theta_direct(1e-6)


def test_infinite_mu_is_refused():
    # the excess at mu = inf was (nan, inf, inf)
    with pytest.raises(ValidationError, match="mu must be positive and finite"):
        theta(math.inf)


def test_slope_witnesses():
    # Frozen against mpmath: the bound is negative, barely
    w = small_mu_slope_witnesses()
    assert w.slope_bound == pytest.approx(-0.49999999999333539185, rel=1e-10)
    assert w.slope_bound < 0
    assert w.integral_to_one == pytest.approx(0.0025664955636705233861, rel=1e-9)
    assert w.integrand_at_one == pytest.approx(3.4209374497124927341e-14, rel=1e-12)
    # the integral comparison witness: integral dominates the endpoint value
    assert w.integral_to_one > w.integrand_at_one


@given(mu=st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_theta_positive_and_decreasing_shape(mu):
    val = theta(mu).value
    assert val > 0
    # theta is strictly decreasing in mu
    assert theta(mu * 1.01).value < val


def _mp_lattice(mu):
    """(log Z_q, mean energy) of one axis from 40-digit direct term sums."""
    with mp.workdps(40):
        a = mp.pi / 4 * mp.mpf(mu) ** 2
        s0 = s2 = mp.mpf(1)
        n = 2
        while True:
            term = mp.exp(-a * (n * n - 1))
            s0 += term
            s2 += n * n * term
            if n * n * term < mp.mpf(10) ** -40 * s2:
                return -a + mp.log(s0), a * s2 / s0
            n += 1


@given(log_mu=st.floats(min_value=math.log(1e-2), max_value=math.log(1e3)))
@settings(max_examples=120, deadline=None)
def test_kernel_matches_mpmath(log_mu):
    mu = math.exp(log_mu)
    got = theta(mu)
    log_z, mean = _mp_lattice(mu)
    # an absolute error in log Z_q is a relative error in Z_q, so it is
    # measured against max(|log Z_q|, 1), not against a log crossing 0
    assert abs(got.log_value - float(log_z)) <= 1e-14 * max(abs(float(log_z)), 1.0)
    assert got.mean_energy == pytest.approx(float(mean), rel=1e-14, abs=0)


@given(mu=st.floats(min_value=0.9 * _CROSSOVER_MU, max_value=1.1 * _CROSSOVER_MU))
@settings(max_examples=100, deadline=None)
def test_representations_agree_near_crossover(mu):
    direct, dual = theta_direct(mu), theta_poisson(mu)
    assert dual.log_value == pytest.approx(direct.log_value, rel=1e-14, abs=1e-15)
    assert dual.mean_energy == pytest.approx(direct.mean_energy, rel=1e-14, abs=0)


def test_deep_quantum_stays_in_log_space():
    t = theta(1e3)
    assert t.value == 0.0  # e^{-(pi/4) 1e6} underflows ...
    assert t.log_value == pytest.approx(-(math.pi / 4) * 1e6, rel=1e-15)  # ... its log does not
    assert t.mean_energy == pytest.approx((math.pi / 4) * 1e6, rel=1e-15)


def test_entropy_where_the_decay_overflows():
    # (pi/4) mu^2 overflows: every term past the first is 0, and so is the entropy
    t = theta(1.6e154)
    assert t.entropy == 0.0
    assert t.excess[2] == math.log(1.6e154) - 0.5


@pytest.mark.parametrize("decay", [1e-3, 0.05, 0.3, 1.0, math.pi, 10.0])
@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-16])
def test_truncation_bound_covers_both_moments(decay, tol):
    # the loop's bound covers the omitted tails of the plain and of the
    # n^2-weighted sum, and is tight for the weighted one
    s0, s2, s2_minus_s0, terms, bound = _gaussian_moments(decay, tol)
    assert s2_minus_s0 == pytest.approx(s2 - s0, rel=0, abs=4e-16 * s2)
    with mp.workdps(40):
        d = mp.mpf(decay)
        tail0 = tail2 = mp.mpf(0)
        n = terms + 1
        while True:
            term = mp.exp(-d * (n * n - 1))
            tail0 += term
            tail2 += n * n * term
            if n * n * term < mp.mpf(10) ** -40 * tail2:
                break
            n += 1
    assert float(tail0) <= float(tail2) <= bound * (1 + 1e-14)
    assert bound <= 1.1 * float(tail2)


def test_theta_value_bound_is_honest_at_loose_tol(monkeypatch):
    # both representations look the kernel up at call time
    loose = functools.partial(theta_module._gaussian_moments, tol=1e-6)
    monkeypatch.setattr(theta_module, "_gaussian_moments", loose)
    for mu in (0.3, 0.8, 1.2, 2.0):
        tv = theta(mu)
        log_z, _ = _mp_lattice(mu)
        assert abs(tv.value - math.exp(float(log_z))) <= tv.truncation_bound + 1e-15 * tv.value
