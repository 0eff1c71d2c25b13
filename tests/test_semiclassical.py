import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _grid_slabs,
    _origin,
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
    # only a block of coupled axes counts against the cap
    coupled = "(x1 + x2 + x3 + x4 + x5)^2 + " + " + ".join(f"x{k}^2" for k in range(1, 6))
    with pytest.raises(ValidationError, match="limited to N <= 4 coupled axes, got 5"):
        z0_integral(PotentialField(dimension=5, value=parse_potential(coupled, 5)), 1.0)
    # a separable potential is not capped: Z0 = prod sqrt(2 pi T)/omega_k and
    # Z2/Z0 = sum omega_k^2 / (24 T^2) at m = 1
    omegas = [0.5, 0.8, 1.0, 1.3, 2.0]
    pot = harmonic_potential(1.0, omegas)
    assert z0_integral(pot, 1.0) == pytest.approx(
        math.prod(SQRT_2PI / w for w in omegas), rel=1e-12
    )
    ratio = kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0)).z2_over_z0
    assert ratio == pytest.approx(sum(w * w for w in omegas) / 24.0, rel=1e-12)


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


def test_explicit_bounds_split_into_blocks():
    # each block takes its own axes' bounds, and V(0) = 3 still offsets the
    # blocks: Z0 = pi/sqrt(2) e^-3 and <V> = 1/2 + 1/2 + 3 at T = 1
    pot = PotentialField(
        dimension=2,
        value=parse_potential("x1^2 + 2*x2^2 + 3", 2),
        bounds=((-7.0, 7.0), (-5.0, 5.0)),
    )
    assert pot.blocks == ((0,), (1,))
    assert z0_integral(pot, 1.0) == pytest.approx(math.pi / math.sqrt(2.0) / math.e**3, rel=1e-13)
    pred = kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))
    assert pred.Er - 0.02 * pred.z2_over_z0 == pytest.approx(1.0 + 4.0, rel=1e-13)


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
    value.blocks = parsed.blocks
    return PotentialField(dimension=n, value=value)


def test_one_potential_evaluation_per_node():
    base = harmonic_potential(1.0, [1.0, 2.0])
    opaque_counts = {"value": 0, "gradient": 0}
    # an opaque callable declares no blocks, so both axes share one grid
    opaque = dataclasses.replace(
        base,
        value=_counted(base.value, opaque_counts, "value"),
        gradient=_counted(base.gradient, opaque_counts, "gradient"),
        blocks=None,
    )
    # a parsed potential's gradient is its own, exact one: no finite
    # differences, so no value calls beyond one per node and the bounds probes
    coupled_counts = {"value": 0, "gradient": 0}
    coupled = _counted_parsed("x1^2/2 + 2*x2^2 + 0.1*x1^4 + 0.3*x1*x2", 2, coupled_counts)
    # a separable one integrates each axis on its own grid
    split_counts = {"value": 0, "gradient": 0}
    split = _counted_parsed("x1^2/2 + 2*x2^2 + 0.1*x1^4", 2, split_counts)
    assert (opaque.blocks, coupled.blocks, split.blocks) == (((0, 1),),) * 2 + (((0,), (1,)),)
    for pot, counts, grid in (
        (opaque, opaque_counts, 64**2 + 48**2),
        (coupled, coupled_counts, 64**2 + 48**2),
        (split, split_counts, 2 * (64 + 48)),
    ):
        v0 = _origin(pot, 1.0)
        for axes in pot.blocks:
            _auto_bounds(pot, 1.0, axes, v0)
        probes = counts["value"]
        counts["value"] = 0
        kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))
        assert counts == {"value": probes + grid, "gradient": grid}


def test_parsed_gradient_adopted_and_kept_by_replace():
    value = parse_potential("x1^2/2", 1)
    pot = PotentialField(dimension=1, value=value)
    assert pot.gradient == value.gradient
    assert dataclasses.replace(pot, bounds=((-9.0, 9.0),)).gradient == value.gradient
    explicit = lambda x: np.zeros(np.shape(x))  # noqa: E731
    assert PotentialField(dimension=1, value=value, gradient=explicit).gradient is explicit


def test_blocks_adopted_kept_and_checked():
    value = parse_potential("x1^2 + x2^2 + x3^4 + x2*x3", 3)
    pot = PotentialField(dimension=3, value=value)
    assert pot.blocks == value.blocks == ((0,), (1, 2))
    wrapped = dataclasses.replace(pot, value=lambda x: value(x))
    assert wrapped.blocks == ((0,), (1, 2))
    assert PotentialField(dimension=3, value=lambda x: value(x)).blocks == ((0, 1, 2),)
    assert harmonic_potential(1.0, [1.0, 2.0]).blocks == ((0,), (1,))
    for blocks in (((0,), (1,)), ((0, 1), (1, 2)), ((0, 1, 2, 3),), ((0,), (1,), (3,))):
        with pytest.raises(ValidationError, match="do not partition"):
            PotentialField(dimension=3, value=value, blocks=blocks)


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


@settings(max_examples=20, deadline=None)
@given(
    coeffs=st.lists(
        st.tuples(st.floats(-0.5, 0.5), st.floats(0.3, 1.5), st.floats(0.0, 0.3)),
        min_size=2,
        max_size=3,
    ),
    offset=st.floats(-2.0, 2.0),
    T=st.floats(0.5, 2.0),
    h=st.floats(0.05, 0.3),
    m=st.floats(0.5, 2.0),
)
def test_split_quadrature_matches_one_tensor_grid(coeffs, offset, T, h, m):
    n = len(coeffs)
    # the linear terms make each block's gradient nonzero at the origin, where
    # the other blocks are evaluated
    text = f"{offset!r} + " + " + ".join(
        f"{c1!r}*x{k} + {c2!r}*x{k}^2 + {c4!r}*x{k}^4" for k, (c1, c2, c4) in enumerate(coeffs, 1)
    )
    split = PotentialField(dimension=n, value=parse_potential(text, n))
    # a zero coupling term joins every axis into one block
    coupling = "*".join(f"x{k}" for k in range(1, n + 1))
    tensor = PotentialField(dimension=n, value=parse_potential(f"{text} + 0*{coupling}", n))
    assert len(split.blocks) == n and len(tensor.blocks) == 1
    params = PhysicalParams(T=T, h=h, m=m)
    got, want = kw_expansion(split, params), kw_expansion(tensor, params)
    scale = abs(want.Fr) + abs(want.Er) + T * abs(want.Sr)
    for field in ("Fr", "Er", "Sr"):
        assert getattr(got, field) == pytest.approx(
            getattr(want, field), rel=1e-12, abs=1e-13 * scale
        )
    for field in ("Zr", "z2_over_z0"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)


def test_mean_potential_near_zero_is_stable():
    # <V> = 1 - c at T = 1: its moment is checked against int b*|V|, so a
    # mean of 0, per block or in all, is not held to 1e-8 of itself
    params = PhysicalParams(T=1.0, h=0.1, m=1.0)
    for text in ("x1^2 + x2^2 - 1", "x1^2 + x2^2 - 0.5", "x1^2 + x2^2 - 1 + 0*x1*x2"):
        c = 0.5 if "0.5" in text else 1.0
        pred = kw_expansion(PotentialField(dimension=2, value=parse_potential(text, 2)), params)
        assert pred.z2_over_z0 == pytest.approx(2.0 / 12.0, rel=1e-13)
        assert pred.Er - 2 * 0.01 * pred.z2_over_z0 == pytest.approx(2.0 - c, rel=1e-13)


def test_z0_carried_in_log_space():
    # Z0 = (sqrt(2 pi)/0.01)^300 is beyond float range; Z0 and Z_r are inf
    # while F, E and S stay exact
    params = PhysicalParams(T=1.0, h=0.1, m=1.0)
    pot = harmonic_potential(1.0, [0.01] * 300)
    assert z0_integral(pot, 1.0) == math.inf
    pred = kw_expansion(pot, params)
    assert pred.Zr == math.inf
    ratio = 300 * 1e-4 / 24.0
    assert pred.z2_over_z0 == pytest.approx(ratio, rel=1e-12)
    assert pred.Fr == pytest.approx(-300 * math.log(2 * math.pi / 0.01) + 0.01 * ratio, rel=1e-13)
    assert pred.Er == pytest.approx(300.0 + 0.02 * ratio, rel=1e-13)


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
    split = harmonic_potential(1.0, [0.7, 1.1, 1.9])
    # as one block the three axes share one 3-D grid, streamed in slabs
    for pot in (split, dataclasses.replace(split, blocks=((0, 1, 2),))):
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


def test_slabs_stay_small_in_many_dimensions():
    # a one-axis block of a potential in 10^4 dimensions: the slabs hold no
    # more coordinates than those of a 4-D grid, and together cover the grid
    n, cap = 10**4, semiclassical.CHUNK_POINTS * semiclassical.MAX_TENSOR_DIMENSION
    nodes = weight = 0.0
    for x, w in _grid_slabs([(-2.0, 3.0)], 64, (7,), n):
        assert x.shape == (len(w), n) and x.size <= cap
        assert not x[:, :7].any() and not x[:, 8:].any()
        nodes += len(w)
        weight += w.sum()
    assert nodes == 64 and weight == pytest.approx(5.0, rel=1e-14)
