import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qcthermo.core import (
    IntegrationError,
    OscillatorSpec,
    PhysicalParams,
    ValidationError,
)
from qcthermo import semiclassical
from qcthermo.expressions import parse_potential
from qcthermo.oscillator import osc_classical, osc_regularized
from qcthermo.semiclassical import (
    PotentialField,
    _auto_bounds,
    harmonic_potential,
    kw_expansion,
    z0_integral,
    z2_integral,
)

SQRT_2PI = 2.5066282746310005024


def test_z0_gaussian():
    # V = x^2/2 at T=1: integral is sqrt(2 pi)
    pot = harmonic_potential(1.0, [1.0])
    assert z0_integral(pot, 1.0) == pytest.approx(SQRT_2PI, rel=1e-13)


def test_z0_tensor_product():
    pot = harmonic_potential(1.0, [1.0, 2.0])
    assert z0_integral(pot, 1.0) == pytest.approx(SQRT_2PI**2 / 2.0, rel=1e-12)


def test_z2_closed_form():
    # Z2/Z0 = sum omega_k^2 / (24 T^2) for harmonic potentials
    for omegas in ([1.0], [0.5, 2.0]):
        for t in (0.5, 2.0):
            pot = harmonic_potential(1.0, omegas)
            ratio = z2_integral(pot, t, 1.0) / z0_integral(pot, t)
            expected = sum(w * w for w in omegas) / (24.0 * t * t)
            assert ratio == pytest.approx(expected, rel=1e-9)


def test_z2_nonnegative():
    pot = harmonic_potential(1.0, [1.0])
    assert z2_integral(pot, 1.0, 1.0) >= 0.0


def test_fd_gradient_agrees_with_analytic():
    analytic = harmonic_potential(1.0, [1.0, 3.0])
    fd = PotentialField(dimension=2, value=analytic.value, scale=analytic.scale)
    x = np.array([[0.3, -0.7], [1.0, 0.2]])
    assert np.allclose(fd.gradient_or_fd()(x), analytic.gradient(x), atol=1e-7)


def test_dimension_cap():
    with pytest.raises(ValidationError):
        z0_integral(harmonic_potential(1.0, [1.0] * 5), 1.0)


def test_non_integrable_potential_rejected():
    flat = PotentialField(dimension=1, value=lambda x: np.zeros(np.shape(x)[:-1]))
    with pytest.raises(IntegrationError):
        z0_integral(flat, 1.0)
    decreasing = PotentialField(
        dimension=1, value=lambda x: -np.abs(np.asarray(x)[..., 0])
    )
    with pytest.raises(IntegrationError):
        z0_integral(decreasing, 1.0)


def test_kw_matches_exact_oscillator_at_small_tau():
    params = PhysicalParams(T=1.0, h=0.1, m=1.0)
    spec = OscillatorSpec([1.0])
    pred = kw_expansion(harmonic_potential(1.0, [1.0]), params)
    exact = osc_regularized(params, spec)
    tau = 0.05
    # the neglected term is O(tau^4)
    assert abs(pred.Fr - exact.F) < tau**4
    assert abs(pred.Er - exact.E) < 4.0 * tau**4
    assert pred.within_validity


def test_kw_classical_references():
    params = PhysicalParams(T=1.0, h=0.0, m=1.0)
    pred = kw_expansion(harmonic_potential(1.0, [1.0]), params)
    cla = osc_classical(params, OscillatorSpec([1.0]))
    # h=0: predictions equal the classical values
    assert pred.Fr == pytest.approx(cla.F, abs=1e-11)
    assert pred.Er == pytest.approx(cla.E, rel=1e-12)
    assert pred.Sr == pytest.approx(cla.S, rel=1e-12)
    assert pred.Zr == pytest.approx(cla.Z, rel=1e-11)


def test_kw_free_energy_sign():
    # quantum correction raises the free energy
    params = PhysicalParams(T=1.0, h=0.2, m=1.0)
    pred = kw_expansion(harmonic_potential(1.0, [1.0]), params)
    cla = osc_classical(params, OscillatorSpec([1.0]))
    assert pred.Fr > cla.F


def test_kw_validity_flag():
    params = PhysicalParams(T=0.2, h=2.0, m=1.0)
    pred = kw_expansion(harmonic_potential(1.0, [1.0]), params)
    assert not pred.within_validity


def test_anisotropic_bounds():
    # widely separated frequencies need per-axis windows
    pot = harmonic_potential(1.0, [0.2, 5.0])
    assert z0_integral(pot, 1.0) == pytest.approx(
        2.0 * math.pi / (0.2 * 5.0), rel=1e-10
    )


def test_box_covers_every_corner():
    # x1^2 + x2^2 + c*x1*x2 decays slowest along the anti-diagonal for c > 0:
    # Z0 = pi/sqrt(1 - c^2/4) at T = 1.  A box sized from the (+,+) and (-,-)
    # corners alone truncates c = 1.5 by 4e-10 and c = 1.9 by 0.37 %, unnoticed
    for c in (1.5, -1.5):
        pot = PotentialField(dimension=2, value=parse_potential(f"x1^2 + x2^2 + {c}*x1*x2", 2))
        exact = math.pi / math.sqrt(1.0 - c * c / 4.0)
        assert z0_integral(pot, 1.0) == pytest.approx(exact, rel=1e-14)
    # at c = +-1.9 the box that holds the tail is too wide for the order-48 check
    for c in (1.9, -1.9):
        pot = PotentialField(dimension=2, value=parse_potential(f"x1^2 + x2^2 + {c}*x1*x2", 2))
        with pytest.raises(IntegrationError, match="quadrature unstable"):
            z0_integral(pot, 1.0)


def test_explicit_bounds_respected():
    pot = PotentialField(
        dimension=1,
        value=lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1),
        bounds=((-15.0, 15.0),),
    )
    assert z0_integral(pot, 1.0) == pytest.approx(SQRT_2PI, rel=1e-10)
    # on +-15 the order-48 rule resolves Z0 but not the weighted moments, and
    # each moment is checked on its own; Z2 is checked before <V>, and
    # int b*|grad V|^2 = sqrt(2 pi) here
    params = PhysicalParams(T=1.0, h=0.1, m=1.0)
    with pytest.raises(IntegrationError, match=r"quadrature unstable: 2\.50662827"):
        kw_expansion(pot, params)
    # with a zero gradient the Z2 moment passes and <V> (= sqrt(pi/2)) fails
    flat_gradient = dataclasses.replace(pot, gradient=lambda x: np.zeros(np.shape(x)))
    with pytest.raises(IntegrationError, match=r"quadrature unstable: 1\.25331413"):
        kw_expansion(flat_gradient, params)


def test_scale_must_be_finite_and_positive():
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            PotentialField(dimension=1, value=lambda x: x[..., 0] ** 2, scale=scale)


def _counted(fn, counts, key):
    def wrapped(x):
        counts[key] += int(np.prod(np.shape(x)[:-1]))
        return fn(x)

    return wrapped


def _counted_parsed(text, n, counts):
    """A parsed potential whose value and carried gradient are both counted."""
    parsed = parse_potential(text, n)
    value = _counted(parsed, counts, "value")
    value.gradient = _counted(parsed.gradient, counts, "gradient")
    return PotentialField(dimension=n, value=value)


def test_one_potential_evaluation_per_node():
    base = harmonic_potential(1.0, [1.0, 2.0])
    harmonic_counts = {"value": 0, "gradient": 0}
    harmonic = dataclasses.replace(
        base,
        value=_counted(base.value, harmonic_counts, "value"),
        gradient=_counted(base.gradient, harmonic_counts, "gradient"),
    )
    # a parsed potential's gradient is its own, exact one: no finite
    # differences, so no value calls beyond one per node and the bounds probes
    parsed_counts = {"value": 0, "gradient": 0}
    parsed = _counted_parsed("x1^2/2 + 2*x2^2 + 0.1*x1^4", 2, parsed_counts)
    for pot, counts in ((harmonic, harmonic_counts), (parsed, parsed_counts)):
        _auto_bounds(pot, 1.0)
        probes = counts["value"]
        counts["value"] = 0
        kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))
        grid = 64**2 + 48**2
        assert counts == {"value": probes + grid, "gradient": grid}


def test_parsed_gradient_adopted_and_kept_by_replace():
    value = parse_potential("x1^2/2", 1)
    pot = PotentialField(dimension=1, value=value)
    assert pot.gradient == value.gradient
    assert dataclasses.replace(pot, bounds=((-9.0, 9.0),)).gradient == value.gradient
    explicit = lambda x: np.zeros(np.shape(x))  # noqa: E731
    assert PotentialField(dimension=1, value=value, gradient=explicit).gradient is explicit


def test_parsed_quartic_z2_closed_form():
    # V = x^4/4, T = m = 1: Z2/Z0 = int x^6 e^-V / (24 int e^-V)
    # = Gamma(3/4) / (4 Gamma(1/4)); central differences missed it by ~1e-10
    pot = PotentialField(dimension=1, value=parse_potential("x1^4/4", 1))
    pred = kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))
    assert pred.z2_over_z0 == pytest.approx(
        math.gamma(0.75) / (4.0 * math.gamma(0.25)), rel=1e-14, abs=0
    )


def test_non_finite_moments_rejected():
    # sqrt(x + 1) is nan for x < -1, inside the box: the moments are nan
    pot = PotentialField(
        1, parse_potential("x1^2 + (x1+1)^0.5", 1), bounds=((-3.0, 3.0),)
    )
    with pytest.raises(IntegrationError, match="quadrature not finite"):
        z0_integral(pot, 1.0)
    with pytest.raises(IntegrationError, match="quadrature not finite"):
        kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))


def test_results_independent_of_slab_size(monkeypatch):
    params = PhysicalParams(T=0.8, h=0.2, m=1.3)
    potentials = [
        harmonic_potential(1.3, [0.7, 1.9]),
        PotentialField(dimension=2, value=parse_potential("x1^2 + x2^2 + x1*x2 + 0.1*x1^4", 2)),
    ]
    default = [kw_expansion(pot, params) for pot in potentials]
    monkeypatch.setattr(semiclassical, "CHUNK_POINTS", 7)
    for pot, expected in zip(potentials, default):
        got = kw_expansion(pot, params)
        for field in ("Zr", "Fr", "Er", "Sr", "z2_over_z0"):
            assert getattr(got, field) == pytest.approx(getattr(expected, field), rel=1e-13)


def test_quadrature_memory_stays_per_slab():
    pot = harmonic_potential(1.0, [0.7, 1.1, 1.9])
    params = PhysicalParams(T=1.0, h=0.1, m=1.0)
    kw_expansion(pot, params)
    tracemalloc.start()
    try:
        kw_expansion(pot, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float array over the full order-64 grid would take 64^3 * 8 bytes
    assert peak < 64**3 * 8
