import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcthermo import gibbs
from qcthermo.core import BoxGeometry, OscillatorSpec, PhysicalParams, ValidationError
from qcthermo.gibbs import (
    LevelSet,
    SimplexPoint,
    classical_phase_space_check,
    free_energy_functional,
    gibbs_closed_form,
    hessian_positivity_check,
    minimize_free_energy,
    oscillator_level_set,
    well_level_set,
)

# Frozen against mpmath for levels (0, 1, 2) at T = 1
Z_012 = 1.5032147244080550135
F_012 = -0.40760596444438030448
P_012 = (0.66524095577482188953, 0.24472847105479765247, 0.090030573170380457998)


def test_level_set_validation():
    with pytest.raises(ValidationError):
        LevelSet([1.0])
    with pytest.raises(ValidationError):
        LevelSet([2.0, 1.0])
    assert LevelSet([1.0, 1.0, 2.0]).energies == (1.0, 1.0, 2.0)


def test_simplex_validation():
    with pytest.raises(ValidationError):
        SimplexPoint([0.5, 0.6])
    with pytest.raises(ValidationError):
        SimplexPoint([1.5, -0.5])
    assert SimplexPoint([0.25, 0.75]).probabilities == (0.25, 0.75)


def test_closed_form_oracle():
    point = gibbs_closed_form(LevelSet([0.0, 1.0, 2.0]), 1.0)
    assert np.allclose(point.probabilities, P_012, rtol=1e-14)


def test_closed_form_free_energy_is_minus_t_log_z():
    levels = LevelSet([0.0, 1.0, 2.0])
    point = gibbs_closed_form(levels, 1.0)
    assert free_energy_functional(levels, 1.0, point) == pytest.approx(F_012, rel=1e-13)


def test_closed_form_shift_invariance():
    # shifting all levels by c shifts F by c and leaves P unchanged
    base = LevelSet([0.0, 0.5, 3.0])
    shifted = LevelSet([10.0, 10.5, 13.0])
    p0 = gibbs_closed_form(base, 0.7)
    p1 = gibbs_closed_form(shifted, 0.7)
    assert np.allclose(p0.probabilities, p1.probabilities, rtol=1e-13)
    f0 = free_energy_functional(base, 0.7, p0)
    f1 = free_energy_functional(shifted, 0.7, p1)
    assert f1 - f0 == pytest.approx(10.0, rel=1e-12)


def test_minimizer_matches_closed_form():
    levels = LevelSet([0.0, 1.0, 2.0])
    result = minimize_free_energy(levels, 1.0, tol=1e-12)
    assert np.allclose(result.point.probabilities, P_012, atol=1e-9)
    assert result.F_min == pytest.approx(-math.log(Z_012), abs=1e-10)


def test_minimizer_extreme_temperatures():
    levels = LevelSet([0.0, 1.0, 5.0])
    for T in (1e-2, 1.0, 1e4):
        result = minimize_free_energy(levels, T, tol=1e-12)
        closed = gibbs_closed_form(levels, T)
        assert np.allclose(
            result.point.probabilities, closed.probabilities, atol=1e-8
        )


def test_minimizer_validation():
    levels = LevelSet([0.0, 1.0])
    with pytest.raises(ValidationError):
        minimize_free_energy(levels, 0.0, 1e-8)
    with pytest.raises(ValidationError):
        minimize_free_energy(levels, 1.0, 0.0)


@given(
    energies=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=6),
    T=st.floats(min_value=0.2, max_value=5.0),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_gibbs_point_beats_random_points(energies, T, data):
    levels = LevelSet(sorted(energies))
    gibbs = gibbs_closed_form(levels, T)
    f_gibbs = free_energy_functional(levels, T, gibbs)
    raw = data.draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=len(levels.energies),
            max_size=len(levels.energies),
        )
    )
    total = sum(raw)
    trial = SimplexPoint([r / total for r in raw])
    assert free_energy_functional(levels, T, trial) >= f_gibbs - 1e-10 * (1 + abs(f_gibbs))


def test_functional_matches_loop_reference():
    # the array form against the term-by-term loop, zero probabilities
    # included; numpy sums pairwise, so allow n*eps of the summed magnitudes
    rng = np.random.default_rng(3)
    for n, T in ((2, 0.5), (7, 1.3), (3700, 40.0)):
        levels = LevelSet(np.sort(rng.uniform(0.0, 50.0, n)))
        raw = rng.random(n)
        raw[1:][rng.random(n - 1) < 0.2] = 0.0
        point = SimplexPoint(raw / raw.sum())
        terms = [p * e + T * p * math.log(p)
                 for p, e in zip(point.probabilities, levels.energies) if p > 0]
        bound = n * np.finfo(float).eps * math.fsum(abs(t) for t in terms)
        assert abs(free_energy_functional(levels, T, point) - math.fsum(terms)) <= bound


def test_zero_probability_entropy_convention():
    levels = LevelSet([0.0, 1.0])
    assert free_energy_functional(levels, 1.0, SimplexPoint([1.0, 0.0])) == 0.0


def test_hessian_positivity():
    levels = LevelSet([0.0, 1.0, 2.0])
    point = gibbs_closed_form(levels, 1.0)
    assert hessian_positivity_check(levels, 1.0, point)
    # also away from the minimizer; the Hessian is diagonal everywhere
    assert hessian_positivity_check(levels, 1.0, SimplexPoint([0.2, 0.3, 0.5]))


@pytest.mark.parametrize("levels", [
    oscillator_level_set(PhysicalParams(T=1.0, h=0.5, m=1.0), 1.0),  # 60 levels
    well_level_set(PhysicalParams(T=1.0, h=0.3, m=1.0), 1.0),  # 10 levels
], ids=["oscillator", "well"])
def test_hessian_check_holds_far_above_the_ground(levels):
    # the top levels sit 30 T (oscillator) and 44 T (well) above the ground
    assert hessian_positivity_check(levels, 1.0, gibbs_closed_form(levels, 1.0))


@given(span=st.floats(min_value=30.0, max_value=50.0),
       raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_hessian_check_holds_for_levels_spanning_30_to_50_T(span, raw):
    levels = LevelSet(sorted([0.0, span] + [span * r for r in raw]))
    assert hessian_positivity_check(levels, 1.0, gibbs_closed_form(levels, 1.0))


@pytest.mark.parametrize("offset", [1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16])
def test_hessian_check_holds_at_large_level_offsets(offset):
    # the curvature T/P_n does not see a common offset; rounding at
    # eps*P*E_n would, once E_n passes ~1e12 at T = 1
    levels = LevelSet([offset, offset + 1.0, offset + 2.0])
    assert hessian_positivity_check(levels, 1.0, gibbs_closed_form(levels, 1.0))


def test_hessian_check_is_linear_in_the_levels():
    # 3700 levels spanning 42 T, as the CLI's gibbs ladder
    T = 1.3
    levels = LevelSet([T * 42.0 / 3700 * (k + 0.5) for k in range(3700)])
    point = gibbs_closed_form(levels, T)
    start = time.perf_counter()
    assert hessian_positivity_check(levels, T, point)
    assert time.perf_counter() - start < 0.5


def test_hessian_check_needs_a_resolvable_step():
    # P_1 = 4.2e-322, whose step underflows to 0, and 2.2e-310, whose step is
    # subnormal and has lost most of its digits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for top in (740.0, 713.0):
            levels = LevelSet([0.0, top])
            for p in (gibbs_closed_form(levels, 1.0), SimplexPoint([1.0, 0.0])):
                assert p.probabilities[1] < 1e-309
                with pytest.raises(ValidationError, match="interior simplex point required"):
                    hessian_positivity_check(levels, 1.0, p)


@pytest.mark.parametrize("wrong", [
    lambda f, e, T, p: f(e, -T, p),  # the entropy's sign flipped
    lambda f, e, T, p: -f(e, T, p),  # stationary at the same point, but concave
    lambda f, e, T, p: f(e, T, p) + 0.3 * np.sum(p, axis=-1) ** 2,  # convex, not separable
    lambda f, e, T, p: f(e, T, p) + 1e-9 * np.sum(p, axis=-1) ** 2,  # barely so
], ids=["entropy_sign", "negated", "non_separable", "weakly_non_separable"])
def test_certificates_reject_a_wrong_functional(wrong, monkeypatch):
    levels = LevelSet([0.0, 1.0, 2.0, 3.5])
    point = gibbs_closed_form(levels, 1.0)
    params = PhysicalParams(T=1.3, h=0.0, m=0.8)
    kernel = gibbs._free_energy
    monkeypatch.setattr(gibbs, "_free_energy", lambda e, T, p: wrong(kernel, e, T, p))
    assert not hessian_positivity_check(levels, 1.0, point)
    for system in (OscillatorSpec([1.7]), BoxGeometry([2.0])):
        assert not classical_phase_space_check(params, system).variational_ok


def test_phase_space_certificate_needs_the_gibbs_density(monkeypatch):
    # a separable convex F whose minimizer is the Gibbs density of energies
    # larger by a factor 1 + 1e-6: only the equal-slope condition can tell
    kernel = gibbs._free_energy
    monkeypatch.setattr(gibbs, "_free_energy", lambda e, T, p: kernel(e * (1 + 1e-6), T, p))
    levels = LevelSet([0.0, 1.0, 2.0, 3.5])
    assert hessian_positivity_check(levels, 1.0, gibbs_closed_form(levels, 1.0))
    params = PhysicalParams(T=1.3, h=0.0, m=0.8)
    for system in (OscillatorSpec([1.7]), BoxGeometry([2.0])):
        assert not classical_phase_space_check(params, system).variational_ok


@pytest.mark.parametrize("T", [1e-3, 1e3])
def test_phase_space_certificate_across_temperatures(T):
    params = PhysicalParams(T=T, h=0.0, m=1.0)
    for system in (OscillatorSpec([1.0]), BoxGeometry([2.0])):
        assert classical_phase_space_check(params, system).variational_ok


def test_oscillator_level_set_tail_bound():
    params = PhysicalParams(T=1.0, h=0.5, m=1.0)
    levels = oscillator_level_set(params, 1.0)
    z = sum(math.exp(-e) for e in levels.energies)
    assert levels.truncation_tail_bound <= 1e-11 * z
    # partial sums converge to the closed form h*omega/2 / sinh scaling
    tau = 0.25
    exact = math.exp(-tau) / (1.0 - math.exp(-2.0 * tau))
    assert z == pytest.approx(exact, rel=1e-11)


def test_well_level_set_tail_bound():
    params = PhysicalParams(T=1.0, h=0.3, m=1.0)
    levels = well_level_set(params, 1.0)
    z = sum(math.exp(-e) for e in levels.energies)
    assert levels.truncation_tail_bound <= 1e-11 * z


def test_phase_space_check_oscillator():
    params = PhysicalParams(T=1.0, h=0.0, m=1.0)
    check = classical_phase_space_check(params, OscillatorSpec([1.0]))
    assert check.z_quadrature == pytest.approx(check.z_exact, rel=1e-5)
    assert check.e_quadrature == pytest.approx(check.e_exact, rel=1e-5)
    assert check.variational_ok


def test_phase_space_check_box():
    params = PhysicalParams(T=1.0, h=0.0, m=1.0)
    check = classical_phase_space_check(params, BoxGeometry([2.0]))
    assert check.z_quadrature == pytest.approx(check.z_exact, rel=1e-5)
    assert check.e_quadrature == pytest.approx(check.e_exact, rel=1e-5)
    assert check.variational_ok


def test_phase_space_check_validation():
    params = PhysicalParams(T=1.0, h=0.0, m=1.0)
    with pytest.raises(ValidationError):
        classical_phase_space_check(params, OscillatorSpec([1.0, 2.0]))
    with pytest.raises(ValidationError):
        classical_phase_space_check(params, OscillatorSpec([1.0]), grid_resolution=8)
