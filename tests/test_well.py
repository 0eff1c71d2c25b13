import cmath
import math
import random
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcthermo.core import (
    BoxGeometry,
    ConvergenceError,
    InversionError,
    PhysicalParams,
    ValidationError,
    reduce_rho,
    reduce_well,
)
from qcthermo.theta import theta
from qcthermo.well import (
    _aberth_roots,
    _drum_samples,
    geometric_coefficients,
    hear_the_drum,
    kac_expansion_ratio,
    kac_mean_energy_ratio,
    well_classical,
    well_entropy_asymptotic,
    well_regularized,
)


def params_for_mu(mu, a=1.0, m=1.0):
    """PhysicalParams with T = 2*pi so that mu = h for a unit edge."""
    return PhysicalParams(T=2.0 * math.pi, h=mu * a, m=m)


def test_classical_closed_form():
    params = PhysicalParams(T=1.0, h=0.0, m=1.0)
    geom = BoxGeometry([1.0, 2.0])
    q = well_classical(params, geom)
    assert q.Z == pytest.approx(2.0 * math.pi * 2.0, rel=1e-14)  # (2mT pi)^(N/2) V
    assert q.E == pytest.approx(1.0, rel=0)
    assert q.S == pytest.approx(1.0 + math.log(2.0 * math.pi * 2.0), rel=1e-14)
    assert q.F == pytest.approx(q.E - q.S, rel=1e-12)


def test_regularized_needs_h():
    with pytest.raises(ValidationError):
        well_regularized(PhysicalParams(T=1.0, h=0.0, m=1.0), BoxGeometry([1.0]))


def test_regularized_one_axis_matches_theta():
    # Z_r = 2*pi*h*theta(mu); at mu=1, theta = 0.50000697468471241799
    params = params_for_mu(1.0)
    q = well_regularized(params, BoxGeometry([1.0]))
    assert q.Z == pytest.approx(
        2.0 * math.pi * params.h * 0.50000697468471241799, rel=1e-13
    )


def test_ratio_factorizes_over_axes():
    params = params_for_mu(0.4)
    q1 = well_regularized(params, BoxGeometry([1.0]))
    c1 = well_classical(params, BoxGeometry([1.0]))
    q3 = well_regularized(params, BoxGeometry([1.0] * 3))
    c3 = well_classical(params, BoxGeometry([1.0] * 3))
    assert math.exp(q3.log_Z - c3.log_Z) == pytest.approx(
        math.exp(q1.log_Z - c1.log_Z) ** 3, rel=1e-12
    )


def per_axis_quartets(params, edges):
    """(log_Z, E, S, F) of the classical and regularized quartets, summed one
    axis at a time in edge order: the reference the grouped builders meet.
    The regularized quartet is the classical one plus the summed per-axis
    excess (dlog z, dE/T, dS) of theta.  Also returns the summed magnitude of
    every term, the scale of the rounding of either summation order."""
    T, n = params.T, len(edges)
    root = math.sqrt(2.0 * params.m * T * math.pi)
    rho = reduce_rho(params)
    log_zc = dz = de = ds = 0.0
    magnitude = float(n)
    for a in edges:
        log_axis = math.log(a * root)
        z, e, s = theta(2.0 * rho / a).excess
        log_zc += log_axis
        dz += z
        de += e
        ds += s
        magnitude += abs(log_axis) + abs(z) + abs(e) + abs(s)
    e_c, s_c = 0.5 * n * T, 0.5 * n + log_zc
    log_zr = log_zc + dz
    return ((log_zc, e_c, s_c, e_c - T * s_c),
            (log_zr, e_c + T * de, s_c + ds, -T * log_zr), magnitude)


def quartet_tuple(q):
    return (q.log_Z, q.E, q.S, q.F)


box_params = st.builds(
    PhysicalParams,
    T=st.floats(min_value=0.1, max_value=10.0),
    h=st.floats(min_value=0.01, max_value=10.0),
    m=st.floats(min_value=0.1, max_value=10.0),
)
box_edge = st.floats(min_value=0.1, max_value=10.0)


@given(params=box_params, edges=st.lists(box_edge, min_size=1, max_size=5, unique=True))
@settings(max_examples=100, deadline=None)
def test_builders_bit_equal_per_axis_on_distinct_edges(params, edges):
    geom = BoxGeometry(edges)
    classical, regularized, _ = per_axis_quartets(params, edges)
    assert quartet_tuple(well_classical(params, geom)) == classical
    assert quartet_tuple(well_regularized(params, geom)) == regularized


@given(params=box_params, base=st.lists(box_edge, min_size=1, max_size=3, unique=True),
       copies=st.integers(min_value=2, max_value=60), seed=st.randoms())
@settings(max_examples=60, deadline=None)
def test_builders_match_per_axis_on_repeated_edges(params, base, copies, seed):
    edges = base * copies
    seed.shuffle(edges)
    geom = BoxGeometry(edges)
    *want, magnitude = per_axis_quartets(params, edges)
    got = (quartet_tuple(well_classical(params, geom)),
           quartet_tuple(well_regularized(params, geom)))
    for got_q, want_q in zip(got, want):
        # E and F carry a factor T
        for g, w, unit in zip(got_q, want_q, (1.0, params.T, 1.0, params.T)):
            assert math.isclose(g, w, rel_tol=1e-13, abs_tol=1e-13 * unit * magnitude)


@pytest.mark.parametrize("h", [0.1, 1.0, 10.0, 1e3, 1e5])
def test_regularized_entropy_matches_mpmath(h):
    # deep in the quantum regime E and F both grow like (pi/4) mu^2 T while S
    # stays near log(2 pi h); the per-axis sum must not cancel them
    q = well_regularized(PhysicalParams(T=1.0, h=h, m=1.0), BoxGeometry([1.0]))
    with mp.workdps(40):
        d = mp.pi / 4 * (mp.mpf(h) * mp.sqrt(2 * mp.pi)) ** 2  # (pi/4) mu^2
        s0 = mp.nsum(lambda n: mp.exp(-d * (n * n - 1)), [1, mp.inf])
        s2_minus_s0 = mp.nsum(lambda n: (n * n - 1) * mp.exp(-d * (n * n - 1)), [2, mp.inf])
        entropy = mp.log(2 * mp.pi * h) + mp.log(s0) + d * s2_minus_s0 / s0
    assert q.S == pytest.approx(float(entropy), rel=1e-15)


def test_energy_ratio_continuity_at_crossover():
    from qcthermo.theta import _CROSSOVER_MU

    # the mean-energy ratio, regularized over classical, of one box axis
    lo = 2 * theta(_CROSSOVER_MU * (1 - 1e-9)).mean_energy
    hi = 2 * theta(_CROSSOVER_MU * (1 + 1e-9)).mean_energy
    assert lo == pytest.approx(hi, rel=1e-7)


@given(mu=st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_energy_ratio_above_one(mu):
    assert 2 * theta(mu).mean_energy > 1.0


def test_entropy_asymptote():
    params = params_for_mu(0.1)
    geom = BoxGeometry([1.0, 1.0])
    asym = well_entropy_asymptotic(params, geom)
    assert asym.within_validity
    s_r = well_regularized(params, geom).S
    assert s_r == pytest.approx(asym.value, abs=2e-3)  # O(mu^2) remainder
    assert not well_entropy_asymptotic(params_for_mu(1.0), geom).within_validity


def test_geometric_coefficients_example():
    coeffs = geometric_coefficients(BoxGeometry([1.0, 2.0, 3.0]))
    assert coeffs.U == (1.0, 6.0, 11.0, 6.0)
    assert coeffs.V == (8.0, 24.0, 22.0, 6.0)


def test_geometric_coefficients_unit_cube():
    coeffs = geometric_coefficients(BoxGeometry([1.0] * 3))
    assert coeffs.U == (1.0, 3.0, 3.0, 1.0)
    assert coeffs.V == (8.0, 12.0, 6.0, 1.0)


def test_kac_functions_take_float_multiplicities():
    # an N -> inf row's multiplicities are floats; the box is the same
    pairs, axes = BoxGeometry([(1.0, 2.0), 3.0]), BoxGeometry([1, 1, 3])
    assert geometric_coefficients(pairs) == geometric_coefficients(axes)
    assert kac_expansion_ratio(pairs, 0.1) == kac_expansion_ratio(axes, 0.1)
    assert kac_mean_energy_ratio(pairs, 0.1) == kac_mean_energy_ratio(axes, 0.1)


@pytest.mark.parametrize("fn", [kac_expansion_ratio, kac_mean_energy_ratio])
@pytest.mark.parametrize("copies", [1024.0, 1e9])
def test_kac_functions_refuse_1024_edges_before_expanding_them(fn, copies):
    # V[0] = 2^N overflows from N = 1024 on: the box is refused at once,
    # where expanding 1e9 edges and their O(N^2) sums would not finish
    start = time.perf_counter()
    with pytest.raises(ValidationError) as err:
        fn(BoxGeometry([(1.0, copies)]), 0.1)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == f"geometric coefficients of {int(copies)} edges leave the float range"


@given(
    edges=st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=1, max_size=5),
    rho=st.floats(min_value=0.0, max_value=0.2),
)
@settings(max_examples=100, deadline=None)
def test_kac_ratio_equals_product(edges, rho):
    geom = BoxGeometry(edges)
    product = math.prod(1.0 - rho / a for a in edges)
    assert kac_expansion_ratio(geom, rho) == pytest.approx(product, rel=1e-13)


@pytest.mark.parametrize("edges, rho", [
    # sum |terms| / U_N = 1.1^200 = 1.9e8, against a ratio of 0.9^200 = 7.1e-10
    ([(1.0, 200)], 0.1),
    # 4.0e21 against a ratio of 7.5e-28
    ([(1.0, 100), (2.0, 100), (3.0, 100)], 0.3),
    # rho at an edge: the sum 0 cannot be told from its rounding
    ([1.0], 1.0),
    # rho^k, or a term, beyond float range
    ([1.0, 2.0], math.inf),
    ([1.0, 2.0], 1e200),
])
def test_kac_ratio_refuses_a_sum_its_rounding_swamps(edges, rho):
    with pytest.raises(ConvergenceError, match="cancels past float precision"):
        kac_expansion_ratio(BoxGeometry(edges), rho)


@pytest.mark.parametrize("edges", [
    [(1.0, 1000)],  # V_k = U_k 2^(N-k) overflows
    [(1.0, 1100)],  # and so does 2^N itself
    [(1e-3, 1000)],  # U_N = 1e-3000 underflows
])
def test_coefficients_beyond_float_range_are_refused(edges):
    geom = BoxGeometry(edges)
    for call in (geometric_coefficients, lambda g: kac_expansion_ratio(g, 0.1),
                 lambda g: kac_mean_energy_ratio(g, 0.1)):
        with pytest.raises(ValidationError, match="leave the float range"):
            call(geom)


def test_kac_functions_refuse_a_nan_rho():
    for call in (kac_expansion_ratio, kac_mean_energy_ratio):
        with pytest.raises(ValidationError, match="rho must be >= 0, got nan"):
            call(BoxGeometry([1.0]), math.nan)


def test_kac_energy_ratio_leading_term():
    geom = BoxGeometry([1.0, 2.0, 3.0])
    coeffs = geometric_coefficients(geom)
    rho = 0.01
    expected = 1.0 + rho * coeffs.V[2] / (6.0 * coeffs.V[3])
    assert kac_mean_energy_ratio(geom, rho) == pytest.approx(expected, rel=0)


def test_hear_the_drum_exact_samples():
    # the fit is in rho over a power of two, so it holds at any scale
    for scale in (1.0, 1e100):
        geom = BoxGeometry([scale, 2.0 * scale, 3.0 * scale])
        rhos = [0.01 * i * scale for i in range(1, 8)]
        samples = [(rho, kac_expansion_ratio(geom, rho)) for rho in rhos]
        recovered = hear_the_drum(samples, 3)
        assert np.allclose(np.array(recovered) / scale, (1.0, 2.0, 3.0), rtol=1e-8)


def test_hear_the_drum_quantum_round_trip():
    geom = BoxGeometry([2.0, 2.0])
    rows = []
    for i in range(1, 7):
        rho = 0.02 * i
        h = rho / math.sqrt(math.pi / 2.0)
        params = PhysicalParams(T=1.0, h=h, m=1.0)
        ratio = math.exp(
            well_regularized(params, geom).log_Z - well_classical(params, geom).log_Z
        )
        rows.append((rho, ratio))
    recovered = hear_the_drum(rows, 2)
    assert np.allclose(recovered, (2.0, 2.0), atol=1e-4)


def test_hear_the_drum_validation():
    with pytest.raises(ValidationError):
        hear_the_drum([(0.1, 0.9)], 2)  # too few samples
    with pytest.raises(ValidationError):
        hear_the_drum([(0.1, 0.9), (0.1, 0.8), (0.2, 0.7)], 2)  # repeated rho


def test_hear_the_drum_rejects_garbage():
    # samples of an increasing "ratio" cannot come from positive edges
    samples = [(0.1 * i, 1.0 + 0.01 * i**2) for i in range(1, 6)]
    with pytest.raises(InversionError):
        hear_the_drum(samples, 2)


@pytest.mark.parametrize("rho, n_edges", [(1e148, 3), (1e98, 2), (1e-200, 2)])
def test_hear_the_drum_rejects_design_beyond_float_range(rho, n_edges):
    # rho is fitted in units of a power of two near the smallest sample, so
    # at any scale only samples spread so widely that (max/min)^n_edges is
    # beyond float range are rejected
    spread = 10.0 ** (320 / n_edges)
    samples = [(rho * spread ** (i / 4), 1.0 - 0.01 * i) for i in range(5)]
    with pytest.raises(InversionError):
        hear_the_drum(samples, n_edges)


def test_hear_the_drum_rejects_nonfinite_samples():
    samples = [(0.1 * i, math.nan if i == 3 else 1.0 - 0.1 * i) for i in range(1, 6)]
    with pytest.raises(InversionError):
        hear_the_drum(samples, 2)


def test_hear_the_drum_never_returns_fewer_edges():
    # a flat ratio fits the zero polynomial, which has no roots at all
    with pytest.raises(InversionError, match="recovered 0 of 2 edges"):
        hear_the_drum([(0.1 * i, 1.0) for i in range(1, 6)], 2)


def _numpy_hear_the_drum(samples, n_edges):
    """hear_the_drum's fit done by numpy, the oracle of the test below: lstsq
    on unit-norm columns of np.vander, then np.roots."""
    rhos = np.array([r for r, _ in samples])
    ys = np.array([v for _, v in samples]) - 1.0
    r0 = math.ldexp(1.0, math.frexp(float(np.abs(rhos).min()))[1])
    powers = np.vander(rhos / r0, n_edges + 1, increasing=True)[:, 1:]
    scale = np.linalg.norm(powers, axis=0)
    coeffs, *_ = np.linalg.lstsq(powers / scale, ys, rcond=None)
    roots = np.roots(np.concatenate(([1.0], coeffs / scale))[::-1])
    if len(roots) != n_edges or np.any(np.abs(roots.imag) > 1e-5 * (1.0 + np.abs(roots))):
        raise InversionError("no edges")
    edges = np.sort(roots.real) * r0
    if np.any(edges <= 0):
        raise InversionError("no edges")
    return tuple(float(a) for a in edges)


def test_hear_the_drum_is_as_accurate_as_numpy():
    # random boxes of 1-10 edges; from about 6 edges on most fits turn complex
    # at the default --samples, for either fit
    rng = random.Random(7)
    fails = {"plain": 0, "numpy": 0}
    log_errors = {"plain": [], "numpy": []}
    for _ in range(1000):
        edges = [rng.uniform(0.5, 3.0) for _ in range(rng.randint(1, 10))]
        # as hear-drum takes them, at its default --samples
        samples = _drum_samples(BoxGeometry(edges), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 8)
        errors = {}
        for name, fit in (("plain", hear_the_drum), ("numpy", _numpy_hear_the_drum)):
            try:
                recovered = fit(samples, len(edges))
            except InversionError:
                fails[name] += 1
                continue
            errors[name] = max(abs(r - t) / t for r, t in zip(recovered, sorted(edges)))
        if len(errors) == 2:
            for name, error in errors.items():
                # an exact recovery counts as one unit roundoff, not as log 0
                log_errors[name].append(math.log(max(error, 2.0**-53)))
    assert fails["plain"] <= fails["numpy"]
    assert sum(log_errors["plain"]) <= sum(log_errors["numpy"])


def _scaled_poly(roots, scale=1.0):
    """Ascending coefficients of scale * prod (z - root)."""
    coeffs = [complex(scale)]
    for root in roots:
        coeffs = [a - root * b for a, b in zip([0j, *coeffs], [*coeffs, 0j])]
    return [c.real if c.imag == 0 else c for c in coeffs]


@pytest.mark.parametrize("roots, scale, rel", [
    ((1.0, 2.0, 3.0), 1.0, 1e-14),
    ((0.5, 7.0, 11.0, 13.0, 40.0), 1.0, 1e-13),
    ((1j, -1j, 2.0), 1.0, 1e-14),
    # the same roots whatever the scale of the coefficients
    ((1.0, 2.0, 3.0), 1e-200, 1e-14),
    ((1.0, 2.0, 3.0), 1e100, 1e-14),
    # roots at 1e-200 and 1e100, the coefficients balanced to stay in range
    ((1e-200, 2e-200), 1e200, 1e-14),
    ((1e100, 3e100), 1e-100, 1e-14),
    # a double root is found to about the square root of the unit roundoff
    ((2.0, 2.0, 5.0), 1.0, 1e-7),
])
def test_aberth_roots_of_known_polynomials(roots, scale, rel):
    got = sorted(_aberth_roots(_scaled_poly(roots, scale)), key=lambda z: (z.real, z.imag))
    want = sorted(roots, key=lambda z: (complex(z).real, complex(z).imag))
    for z, w in zip(got, want):
        assert abs(z - w) <= rel * abs(w), (got, roots)


def test_aberth_keeps_a_split_triple_root_complex():
    # (z - a)^3 = delta a^3 at a = 1e150, the coefficients scaled by 1e-225 to
    # stay in float range: the triple root splits into a triangle of radius
    # delta^(1/3) a, and two of its corners lie off the real axis by far more
    # than hear_the_drum's 1e-5 relative tolerance, as for noisy samples
    a, delta = 1e150, 1e-12
    coeffs = [-(1.0 + delta) * 1e225, 3e75, -3e-75, 1e-225]
    got = _aberth_roots(coeffs)
    want = [a * (1.0 + delta ** (1 / 3) * cmath.exp(2j * math.pi * k / 3)) for k in range(3)]
    for w in want:
        assert min(abs(z - w) for z in got) <= 1e-3 * delta ** (1 / 3) * a
    assert sum(abs(z.imag) > 1e-5 * (1.0 + abs(z)) for z in got) == 2


def test_monotone_in_mu():
    # Z ratio decreases and E ratio increases along growing mu
    geom = BoxGeometry([1.0])
    prev_z, prev_e = None, None
    for mu in (0.1, 0.5, 1.0, 2.0, 4.0):
        params = params_for_mu(mu)
        ratio = math.exp(
            well_regularized(params, geom).log_Z - well_classical(params, geom).log_Z
        )
        e_ratio = 2 * theta(mu).mean_energy
        if prev_z is not None:
            assert ratio < prev_z
            assert e_ratio > prev_e
        prev_z, prev_e = ratio, e_ratio


def test_reduced_parameters_roundtrip():
    params = params_for_mu(0.7)
    red = reduce_well(params, BoxGeometry([1.0, 2.0]))
    assert red.mu[0] == pytest.approx(0.7, rel=1e-14)
    assert red.mu[1] == pytest.approx(0.35, rel=1e-14)
