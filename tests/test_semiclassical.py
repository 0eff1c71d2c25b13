import dataclasses
import itertools
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
    _box,
    _grid_batches,
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
    # an opaque value: the harmonic one carries its gradient, which would be adopted
    fd = PotentialField(dimension=2, value=lambda x: analytic.value(x), scale=analytic.scale)
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


def test_explicit_bounds_respected(monkeypatch):
    # a window of +-15 in place of the searched box
    monkeypatch.setattr(semiclassical, "_box", lambda value, d, T, scale: ((-15.0, 15.0),))
    pot = PotentialField(dimension=1, value=lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1))
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
    # each block searches its own box, and the constant 3 is split off the
    # blocks: Z0 = pi/sqrt(2) e^-3 and <V> = 1/2 + 1/2 + 3 at T = 1
    pot = PotentialField(dimension=2, value=parse_potential("x1^2 + 2*x2^2 + 3", 2))
    assert [part[:2] for part in pot._split()[1]] == [((0,), 1), ((1,), 1)]
    assert z0_integral(pot, 1.0) == pytest.approx(math.pi / math.sqrt(2.0) / math.e**3, rel=1e-13)
    pred = kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))
    assert pred.Er - 0.02 * pred.z2_over_z0 == pytest.approx(1.0 + 4.0, rel=1e-13)


def test_z0_never_judges_the_gradient():
    # every pass integrates the gradient, but only Z2 reads its moment
    nan_gradient = lambda x: np.full(np.shape(x), np.nan)
    pot = PotentialField(1, parse_potential("x1^2/2", 1), gradient=nan_gradient)
    assert z0_integral(pot, 1.0) == pytest.approx(SQRT_2PI, rel=1e-13)
    with pytest.raises(IntegrationError, match="quadrature not finite"):
        z2_integral(pot, 1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda pot: z0_integral(pot, math.nan),
    lambda pot: z2_integral(pot, math.nan, 1.0),
    lambda pot: z2_integral(pot, 1.0, math.nan),
])
def test_nan_temperature_or_mass_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call(harmonic_potential(1.0, [1.0]))


def test_scale_must_be_finite_and_positive():
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            PotentialField(dimension=1, value=lambda x: x[..., 0] ** 2, scale=scale)


def _counted(fn, counts, key, points=True):
    """fn, counting the points it is called on, or its calls; it passes its
    arguments on and sets __wrapped__, as the benchmark's tracer does."""
    def wrapped(x, *args, **kwargs):
        counts[key] += int(np.prod(np.shape(x)[:-1])) if points else 1
        return fn(x, *args, **kwargs)

    wrapped.__wrapped__ = fn
    return wrapped


def _opaque(pot):
    """pot with a value that hides its blocks: one block of all its axes."""
    return dataclasses.replace(pot, value=lambda x: pot.value(x))


def _counted_parsed(text, n, counts, points=True):
    """A parsed potential whose value and carried gradient are both counted."""
    pot = PotentialField(dimension=n, value=parse_potential(text, n))
    return dataclasses.replace(
        pot,
        value=_counted(pot.value, counts, "value", points),
        gradient=_counted(pot.gradient, counts, "gradient", points),
    )


def test_one_potential_evaluation_per_node():
    base = harmonic_potential(1.0, [1.0, 2.0])
    opaque_counts = {"value": 0, "gradient": 0}
    # a wrapper that hides the blocks is opaque, so both axes share one grid
    opaque = dataclasses.replace(
        base,
        value=_counted(lambda x: base.value(x), opaque_counts, "value"),
        gradient=_counted(base.gradient, opaque_counts, "gradient"),
    )
    # a parsed potential's gradient is its own, exact one: no finite
    # differences, so no value calls beyond one per node and the bounds probes
    coupled_counts = {"value": 0, "gradient": 0}
    coupled = _counted_parsed("x1^2/2 + 2*x2^2 + 0.1*x1^4 + 0.3*x1*x2", 2, coupled_counts)
    # a separable one integrates each axis on its own grid
    split_counts = {"value": 0, "gradient": 0}
    split = _counted_parsed("x1^2/2 + 2*x2^2 + 0.1*x1^4", 2, split_counts)
    assert [[axes for axes, *_ in pot._split()[1]] for pot in (opaque, coupled, split)] == [
        [(0, 1)], [(0, 1)], [(0,), (1,)]
    ]
    for pot, counts, grid in (
        (opaque, opaque_counts, 64**2 + 48**2),
        (coupled, coupled_counts, 64**2 + 48**2),
        (split, split_counts, 2 * (64 + 48)),
    ):
        for axes, _, value, _ in pot._split()[1]:
            _box(value, len(axes), 1.0, pot.scale)
        probes = counts["value"]
        counts["value"] = 0
        kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))
        assert counts == {"value": probes + grid, "gradient": grid}
    # each distinct block is called per batch of points, not per point: its
    # origin, its face search's rounds and both its grids at once; one-axis
    # blocks whose faces were finite probe no corners, and equal blocks are
    # integrated once
    for text, distinct in (
        ("x1^2/2 + 2*x2^2 + 0.1*x1^4 + x3^2 + 0.05*x3^4", 3),
        ("x1^2 + x2^2 + x3^2", 1),
    ):
        calls = {"value": 0, "gradient": 0}
        three = _counted_parsed(text, 3, calls, False)
        assert three.value.__wrapped__.blocks == ((0,), (1,), (2,))
        kw_expansion(three, PhysicalParams(T=1.0, h=0.1, m=1.0))
        assert calls["value"] <= 4 * distinct and calls["gradient"] == distinct


def test_tracer_wrappers_keep_the_result():
    # the benchmark's tracer puts forwarding, point-counting wrappers that set
    # __wrapped__ in place of value and then of gradient_or_fd(), through
    # dataclasses.replace: the blocks must survive, the result must not
    # change, and every evaluation must go through the wrappers
    params = PhysicalParams(T=0.9, h=0.2, m=1.1)
    for pot in (
        harmonic_potential(1.1, [0.7, 1.3, 0.7]),
        PotentialField(3, parse_potential("0.7*x1^2 + 0.1*x1^4 + 1.2*x2^2 + x3^2", 3)),
        PotentialField(3, parse_potential("0.7*x1^2 + 0.1*x1^4 + 1.2*x2^2 + x3^2 - 2.5", 3)),
        PotentialField(2, lambda x: np.sum(np.asarray(x) ** 2, axis=-1), scale=0.5),
    ):
        counts = {"value": 0, "gradient": 0}
        traced = dataclasses.replace(pot, value=_counted(pot.value, counts, "value"))
        traced = dataclasses.replace(
            traced, gradient=_counted(traced.gradient_or_fd(), counts, "gradient")
        )
        assert [part[:2] for part in traced._split()[1]] == [part[:2] for part in pot._split()[1]]
        assert kw_expansion(traced, params) == kw_expansion(pot, params)
        assert counts["value"] > 0 and counts["gradient"] > 0


def test_parsed_gradient_adopted_and_kept_by_replace():
    value = parse_potential("x1^2/2", 1)
    pot = PotentialField(dimension=1, value=value)
    assert pot.gradient == value.gradient
    assert dataclasses.replace(pot, scale=9.0).gradient == value.gradient
    explicit = lambda x: np.zeros(np.shape(x))  # noqa: E731
    assert PotentialField(dimension=1, value=value, gradient=explicit).gradient is explicit


def test_blocks_read_from_the_value_through_wrappers():
    value = parse_potential("x1^2 + x2^2 + x3^4 + x2*x3", 3)
    pot = PotentialField(dimension=3, value=value)

    def split_axes(pot):
        return [axes for axes, *_ in pot._split()[1]]

    assert split_axes(pot) == list(value.blocks) == [(0,), (1, 2)]
    counted = dataclasses.replace(pot, value=_counted(value, {"value": 0}, "value"))
    assert split_axes(counted) == [(0,), (1, 2)]
    # a value that hides its blocks, or a replaced gradient, is one block
    assert split_axes(_opaque(pot)) == [(0, 1, 2)]
    assert split_axes(dataclasses.replace(pot, gradient=lambda x: value.gradient(x))) == [(0, 1, 2)]
    assert split_axes(harmonic_potential(1.0, [1.0, 2.0])) == [(0,), (1,)]
    # a value of another dimension leaves axes out, or names axes that are not there
    for n in (2, 4):
        with pytest.raises(ValidationError, match=f"potential of {n} axes has blocks"):
            kw_expansion(PotentialField(n, value), PhysicalParams(T=1.0, h=0.1, m=1.0))


def test_parsed_quartic_z2_closed_form():
    # V = x^4/4, T = m = 1: Z2/Z0 = int x^6 e^-V / (24 int e^-V)
    # = Gamma(3/4) / (4 Gamma(1/4)); central differences missed it by ~1e-10
    pot = PotentialField(dimension=1, value=parse_potential("x1^4/4", 1))
    pred = kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))
    assert pred.z2_over_z0 == pytest.approx(
        math.gamma(0.75) / (4.0 * math.gamma(0.25)), rel=1e-14, abs=0
    )


def test_non_finite_moments_rejected():
    # the root is nan for 0.4 < x < 0.6, inside the searched box and between
    # its probes: the moments are nan
    pot = PotentialField(1, parse_potential("x1^2 + ((x1-0.5)^2 - 0.01)^0.5", 1))
    with pytest.raises(IntegrationError, match="quadrature not finite"):
        z0_integral(pot, 1.0)
    with pytest.raises(IntegrationError, match="quadrature not finite"):
        kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))
    # a constant that is not finite: V is nowhere finite
    for text in ("x1^2 + 1/0", "x1^2 + 0*(1/0)"):
        with pytest.raises(IntegrationError, match="potential not finite at the origin"):
            kw_expansion(PotentialField(1, parse_potential(text, 1)), PhysicalParams(T=1.0, h=0.1, m=1.0))


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
    assert len(split.value.blocks) == n and len(tensor.value.blocks) == 1
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
    for pot in (split, _opaque(split)):
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
    # a block's grids lie on its own columns, whatever the potential's
    # dimension: a one-axis box's 64 + 48 nodes form one batch, and a 3-axis
    # box's grids are cut into slabs of CHUNK_POINTS nodes that cover them
    for box, volume in (([(-2.0, 3.0)], 5.0), ([(-2.0, 3.0), (-1.0, 1.0), (0.0, 0.5)], 5.0)):
        d, nodes, weight = len(box), 0, 0.0
        for y, w, blocks, pieces in _grid_batches([box]):
            assert y.shape == (len(w), d) and len(w) <= semiclassical.CHUNK_POINTS
            assert blocks == [0] and sum(piece.stop - piece.start for _, piece in pieces) == len(w)
            assert np.all((y >= [lo for lo, _ in box]) & (y <= [hi for _, hi in box]))
            nodes += len(w)
            weight += w.sum()
        assert nodes == 64**d + 48**d and weight == pytest.approx(2 * volume, rel=1e-13)


def test_grids_of_one_dimension_share_batches():
    # 150 one-axis boxes fill three shared batches (73 boxes of 64 + 48 nodes
    # each, then 4), each two-axis box (64^2 + 48^2 nodes) takes a batch of
    # its own and a three-axis box is cut into 32 + 14 slabs.  Each box's
    # nodes and weights are those of its own grids, bit for bit
    boxes = [[(-1.0 - k / 150, 2.0 + k / 7)] for k in range(150)]
    boxes[70:70] = [[(-1.0, 1.3), (0.1, 2.0)], [(-1.0, 1.0), (-3.0, 2.0), (0.0, 0.5)]]
    boxes.append([(-1.7, 2.0), (0.0, 2.9)])
    batches, grids = {}, [[] for _ in boxes]
    for y, w, blocks, pieces in _grid_batches(boxes):
        d = len(boxes[blocks[0]])
        assert {len(boxes[j]) for j in blocks} == {d} and blocks == sorted(blocks)
        assert y.shape == (len(w), d) and len(w) <= semiclassical.CHUNK_POINTS
        batches[d] = batches.get(d, 0) + 1
        run = len(w) // len(blocks)
        assert run * len(blocks) == len(w) and pieces[-1][1].stop == run
        for i, j in enumerate(blocks):
            grids[j].append((y[i * run : (i + 1) * run], w[i * run : (i + 1) * run]))
    assert batches == {1: 3, 2: 2, 3: 32 + 14}
    for box, runs in zip(boxes, grids):
        want = [_reference_grid(box, order) for order in (64, 48)]
        for got, expected in zip(zip(*runs), zip(*want)):
            assert np.array_equal(np.concatenate(got), np.concatenate(expected))


def _sequential_box(value, d, scale, T):
    """A block's box by the per-axis search with one call of its W per
    probe, as _box finds it with its probes batched."""
    cutoff = math.log(1e-16)
    w0 = float(value(np.zeros((1, d)))[0])
    if not (math.isfinite(w0) and math.exp(min(-w0 / T, 0.0)) > 0.0):
        raise IntegrationError("potential not finite at the origin")

    def face_exponent(axis, half):
        y = np.zeros((1, d))
        y[0, axis] = half
        lo = -(float(value(y)[0]) - w0) / T
        y[0, axis] = -half
        return max(lo, -(float(value(y)[0]) - w0) / T)

    halves = []
    for k in range(d):
        half = scale
        prev = math.inf
        for _ in range(200):
            val = face_exponent(k, half)
            if val < cutoff:
                break
            if val > prev + math.log(0.999999) and val >= 0.0:
                raise IntegrationError(
                    "Boltzmann factor does not decay; potential looks non-integrable"
                )
            prev = val
            half *= 2.0
        else:
            raise IntegrationError("could not bound the integration domain")
        while face_exponent(k, 0.85 * half) < cutoff:
            half *= 0.85
        halves.append(half)

    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    for _ in range(60):
        if float((-(value(signs * halves) - w0) / T).max()) < cutoff:
            break
        halves = [1.3 * h for h in halves]
    else:
        raise IntegrationError("could not bound the integration domain")
    return tuple((-h, h) for h in halves)


_HARMONIC = harmonic_potential(1.3, [0.6, 1.7, 1.1])
_SEARCHED = [
    (_HARMONIC, 0.8),
    (PotentialField(3, parse_potential("0.7*x1^2 + 0.1*x1^4 + 1.2*x2^2 + 0.03*x2^4 + x3^2", 3)), 1.3),
    (PotentialField(2, parse_potential("x1^2 + x2^2 + 0.3*x1*x2", 2)), 1.0),
    (PotentialField(2, parse_potential("x1^2 + x2^2 + 1.5*x1*x2", 2)), 1.0),
    (PotentialField(1, parse_potential("(x1-3)^2", 1)), 1.0),
    (PotentialField(1, parse_potential("-x1^2", 1)), 1.0),
    (PotentialField(1, parse_potential("x1^4 - 100*x1^2", 1)), 100.0),
    # an opaque callable without blocks: all axes share one box
    (PotentialField(3, lambda x: _HARMONIC.value(x), scale=_HARMONIC.scale), 0.8),
    # blocks of 2 and 3 axes probe their corners after one face search
    (PotentialField(5, parse_potential("x1^2 + x2^2 + x1*x2 + x3^2 + x4^2 + x5^4 + 0.3*(x3*x4*x5)^2", 5)), 1.0),
    # a nan at the -half face, then at every corner; at scale 0.8125 the
    # half-width where the doubling stops does not shrink
    (PotentialField(2, parse_potential("x1^2 + (x1+1)^0.5 + x2^2 + 0.1*x1*x2", 2)), 1.0),
    (PotentialField(2, parse_potential("x1^2 + (x1+1)^0.5 + x2^2", 2)), 1.0),
    (PotentialField(1, parse_potential("x1^2 + (x1+1)^0.5", 1), scale=0.8125), 1.0),
    # a nan at the -half face only, on the axis: the corners are finite
    (PotentialField(2, parse_potential("x1^2 + x2^2 + (x1 + 1 + x2^2)^0.5", 2)), 1.0),
    # the faces are below the cutoff at the 200th and last doubling, and the
    # corners at the 60th and last growth
    (PotentialField(1, parse_potential("x1^2", 1), scale=6.5 / 2**199), 1.0),
    (PotentialField(2, parse_potential("x1^2 + x2^2 - 2*x1*x2 + 3.75e-29*(x1*x2)^2", 2)), 1.0),
    # the first block's corners never decay, the second block does not at all,
    # and the same blocks in the other order
    (PotentialField(3, parse_potential("x1^2 + x2^2 - 2*x1*x2 - x3^2", 3)), 1.0),
    (PotentialField(3, parse_potential("-x1^2 + x2^2 + x3^2 - 2*x2*x3", 3)), 1.0),
    (PotentialField(1, parse_potential("x1^2", 1), scale=1e-3), 1.0),
    (PotentialField(1, parse_potential("x1^2", 1), scale=1e3), 1.0),
    # a block that does not decay before one not finite at its origin, in
    # either order of the terms
    (PotentialField(2, parse_potential("-x1^2 + 1/x2", 2)), 1.0),
    (PotentialField(2, parse_potential("1/x2 - x1^2", 2)), 1.0),
    # in one block, one axis does not decay and the other never falls below
    # the cutoff, in either order: the first axis's error is raised
    (PotentialField(2, parse_potential("-x1^2 - exp(-x2^2) + 0*x1*x2", 2)), 1.0),
    (PotentialField(2, parse_potential("-exp(-x1^2) - x2^2 + 0*x1*x2", 2)), 1.0),
    # a coupled block of MAX_TENSOR_DIMENSION axes
    (PotentialField(4, parse_potential(
        "x1^2 + x2^2 + x3^2 + x4^4 + 0.5*x1*x2 + 0.5*x3*x4 + 0.5*x2*x3", 4)), 1.0),
]


@pytest.mark.parametrize("pot, T", _SEARCHED)
def test_batched_bounds_match_the_sequential_search(pot, T):
    parts = pot._split()[1]
    errors = []
    for axes, _, value, _ in parts:
        try:
            expected = _sequential_box(value, len(axes), pot.scale, T)
        except IntegrationError as err:
            errors.append(str(err))
            with pytest.raises(IntegrationError) as got:
                _box(value, len(axes), T, pot.scale)
            assert str(got.value) == str(err)
        else:
            assert _box(value, len(axes), T, pot.scale) == expected
    # the quadrature searches block by block and raises the first error
    if errors:
        with pytest.raises(IntegrationError) as got:
            semiclassical._boltzmann_moments(pot, parts, T)
        assert str(got.value) == errors[0]


@given(
    log2_scale=st.floats(-40.0, 40.0), log10_T=st.floats(-3.0, 3.0),
    a=st.floats(0.01, 100.0), b=st.floats(0.01, 10.0), r=st.floats(-0.95, 0.95),
    coupled=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_batched_bounds_match_the_sequential_search_on_drawn_blocks(log2_scale, log10_T, a, b, r,
                                                                    coupled):
    # scales and temperatures over many decades put the turn of the doubling
    # and the end of the shrinking at every rung of a ladder
    scale, T = 2.0**log2_scale, 10.0**log10_T
    if coupled:  # a quadratic, positive definite since |r| < 1
        c = 2.0 * r * math.sqrt(a * b)
        d, value = 2, lambda y: a * y[:, 0] ** 2 + b * y[:, 1] ** 2 + c * y[:, 0] * y[:, 1]
    else:  # a quadratic plus a quartic
        d, value = 1, lambda y: a * y[:, 0] ** 2 + (b - 0.01) * y[:, 0] ** 4
    assert _box(value, d, T, scale) == _sequential_box(value, d, scale, T)


def test_a_block_without_weight_at_any_node_is_refused():
    # the box is +-6963.2 on each axis, and the weight of exp(-W/T) lies along
    # the axes, between the nodes: it underflows to 0 at every node of both rules
    pot = PotentialField(2, parse_potential("x1^2*x2^2+x1^2+x2^2", 2))
    assert _box(pot.value, 2, 1e6, 1.0) == ((-6963.2, 6963.2),) * 2
    for integral in (lambda: z0_integral(pot, 1e6),
                     lambda: kw_expansion(pot, PhysicalParams(T=1e6, h=0.1, m=1.0))):
        with pytest.raises(IntegrationError) as err:
            integral()
        assert str(err.value) == "quadrature found no weight: exp(-W/T) is 0 at every node"


def test_bounds_fail_where_the_window_cannot_shrink():
    # V stays below 37 T up to the largest float and is inf beyond it, so the
    # half-width doubles to inf, where 0.85 * inf = inf can never shrink
    pot = PotentialField(1, parse_potential("1e-200*x1*1e-200*x1", 1), scale=1e300)
    with pytest.raises(IntegrationError, match="could not bound the integration domain"):
        kw_expansion(pot, PhysicalParams(T=1e300, h=0.1, m=1.0))


def test_probes_and_batches_stay_small_in_many_dimensions():
    n, cap = 300, semiclassical.CHUNK_POINTS * semiclassical.MAX_TENSOR_DIMENSION
    pot = harmonic_potential(1.0, [0.5 + k / n for k in range(n)])
    shapes = []

    def recorded(fn):
        def wrapped(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return fn(x, *args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    pot = dataclasses.replace(pot, value=recorded(pot.value), gradient=recorded(pot.gradient))
    pred = kw_expansion(pot, PhysicalParams(T=1.0, h=0.1, m=1.0))
    assert pred.z2_over_z0 == pytest.approx(sum((0.5 + k / n) ** 2 for k in range(n)) / 24.0, rel=1e-12)
    # every call holds one block's own column only
    assert {shape[-1] for shape in shapes} == {1}
    assert max(math.prod(shape) for shape in shapes) <= cap


def _reference_grid(box, order, start=0, stop=None):
    """Nodes y of shape (n, d) and product weights w of the C-order nodes
    start..stop of the order^d Gauss-Legendre grid over box, built axis by
    axis."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    coords, wts = [], []
    for lo, hi in box:
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        coords.append(mid + rad * nodes)
        wts.append(rad * weights)
    index = np.unravel_index(np.arange(start, stop or order ** len(box)), (order,) * len(box))
    y = np.stack([coord[i] for coord, i in zip(coords, index)], axis=-1)
    return y, np.prod([wt[i] for wt, i in zip(wts, index)], axis=0)


def _slab_by_slab(parts, T, boxes):
    """Each distinct block's moments from its own slabs, one pass per order
    and one call of its W per slab, as _boltzmann_moments summed them before
    the grids of a block, and then of several blocks, were batched."""
    step = semiclassical.CHUNK_POINTS
    out = []
    for (axes, count, value, gradient), bounds in zip(parts, boxes):
        moments = np.zeros((2, 4))
        for row, order in enumerate((64, 48)):
            partials = []
            total = order ** len(axes)
            for start in range(0, total, step):
                y, w = _reference_grid(bounds, order, start, min(start + step, total))
                v = value(y)
                b = np.exp(-v / T) * w
                bv = b * v
                g2 = np.sum(b * np.sum(gradient(y) ** 2, axis=-1))
                partials.append((np.sum(b), np.sum(bv), np.sum(np.abs(bv)), g2))
            moments[row] = [math.fsum(column) for column in zip(*partials)]
        out.append((count, moments))
    return out


def _assert_moments_match_the_slab_by_slab_pass(monkeypatch, potentials):
    """Each entry is a potential, or (potential, boxes) to integrate it on
    the boxes given, one per distinct block, in place of the searched ones."""
    for pot in potentials:
        pot, given = pot if isinstance(pot, tuple) else (pot, None)
        c, parts = pot._split()
        boxes = given or [_box(value, len(axes), 0.8, pot.scale) for axes, _, value, _ in parts]
        with monkeypatch.context() as patch:
            if given:
                box_of = {id(value): box for (_, _, value, _), box in zip(parts, given)}
                patch.setattr(semiclassical, "_box", lambda value, d, T, scale: box_of[id(value)])
            got = semiclassical._boltzmann_moments(pot, parts, 0.8)
            expected = _slab_by_slab(parts, 0.8, boxes)
            assert len(got) == len(expected)
            for (count, moments), (want_count, want) in zip(got, expected):
                assert count == want_count and np.array_equal(moments, want)


# 200 distinct one-axis blocks span three shared batches of the default size
_MANY = harmonic_potential(0.9, [0.5 + k / 200 for k in range(200)])
# blocks of 1, 2, 1 and 1 axes: each dimension packs batches of its own
_MIXED = PotentialField(5, parse_potential("x1^2 + (x2 + x3)^2 + x3^2 + x4^4 + 2*x5^2", 5))


@pytest.mark.parametrize("chunk", [semiclassical.CHUNK_POINTS, 1000])
def test_batched_moments_match_the_slab_by_slab_pass(monkeypatch, chunk):
    monkeypatch.setattr(semiclassical, "CHUNK_POINTS", chunk)
    _assert_moments_match_the_slab_by_slab_pass(monkeypatch, [
        harmonic_potential(1.3, [0.6, 1.7, 1.1]),
        harmonic_potential(1.0, [0.5 + k / 40 for k in range(40)]),
        _MANY,
        _MIXED,
        PotentialField(3, parse_potential("0.7*x1^2 + 0.1*x1^4 + 1.2*x2^2 + 0.03*x2^4 + x3^2", 3)),
        PotentialField(3, parse_potential("x1^2 + x2^2 + x3^4 + x2*x3 + 0.5", 3)),
        PotentialField(5, parse_potential("x1^2 + x2^2 + x1*x2 + x3^2 + x4^2 + x5^4 + 0.3*(x3*x4*x5)^2", 5)),
        # a grid larger than CHUNK_POINTS = 1000 is streamed in slabs
        _opaque(harmonic_potential(1.0, [0.7, 1.9])),
        # an opaque callable with central differences, and boxes given in
        # place of the searched ones: unequal, and asymmetric
        PotentialField(2, lambda x: np.sum(np.asarray(x) ** 2, axis=-1) + 0.1 * x[..., 0] ** 4),
        (PotentialField(2, parse_potential("x1^2 + 2*x2^2 + 3", 2)), [((-7.0, 7.0),), ((-5.0, 5.0),)]),
        (PotentialField(2, parse_potential("x1^2 + 2*x2^2", 2)), [((-6.3, 7.1),), ((-5.0, 4.7),)]),
        (_opaque(PotentialField(2, parse_potential("x1^2 + 2*x2^2", 2))), [((-6.3, 7.1), (-5.0, 4.7))]),
        # equal blocks, and an opaque callable of a separable potential: it is one block
        harmonic_potential(1.0, [0.7, 1.9, 0.7, 0.7]),
        PotentialField(2, lambda x: np.sum(np.asarray(x) ** 2, axis=-1) + 1.0),
    ])


# at 250 nodes a one-axis block's grids (64 + 48) share batches two at a
# time; at 100 they share none, and each of its grids is one slab
@pytest.mark.parametrize("chunk", [250, 100])
def test_small_shared_batches_match_the_slab_by_slab_pass(monkeypatch, chunk):
    monkeypatch.setattr(semiclassical, "CHUNK_POINTS", chunk)
    _assert_moments_match_the_slab_by_slab_pass(monkeypatch, [
        _MANY,
        _MIXED,
        harmonic_potential(1.0, [0.7, 1.9, 0.7, 0.7, 1.2]),
        PotentialField(1, lambda x: np.asarray(x)[..., 0] ** 2 + 0.1 * np.asarray(x)[..., 0] ** 4),
    ])


def test_blocks_give_the_bits_of_the_potential_on_their_axes():
    # W_j on its own columns equals V with every other axis at 0, bit for
    # bit, where V has no constant and its other blocks vanish at 0; the
    # gradient does wherever the blocks separate V
    rng = np.random.default_rng(5)
    for pot in (
        harmonic_potential(1.3, [0.6, 1.7, 1.1, 0.6]),
        PotentialField(3, parse_potential("0.7*x1^2 + 0.1*x1^4 - 0.03*x2^4*x3^2 + x3^2", 3)),
        PotentialField(4, parse_potential("-(x1^2 - 2*(x2^4 + x3^2)/3) + x4^2 - x1*x3", 4)),
    ):
        c, parts = pot._split()
        assert c == 0.0
        n = pot.dimension
        for axes, count, value, gradient in parts:
            y = rng.uniform(-2.0, 2.0, (50, len(axes)))
            x = np.zeros((50, n))
            x[:, list(axes)] = y
            assert np.array_equal(value(y), pot.value(x))
            assert np.array_equal(gradient(y), pot.gradient(x)[:, list(axes)])


def test_cost_is_flat_in_the_number_of_equal_blocks():
    # N equal blocks are one integral: the points evaluated do not depend on N
    params = PhysicalParams(T=1.0, h=0.1, m=1.0)

    def points(pot):
        counts = {"value": 0, "gradient": 0}
        counted = dataclasses.replace(
            pot,
            value=_counted(pot.value, counts, "value"),
            gradient=_counted(pot.gradient, counts, "gradient"),
        )
        return kw_expansion(counted, params), counts

    (small, few), (large, many) = (points(harmonic_potential(1.0, [1.0] * n)) for n in (10, 10**4))
    assert few == many
    assert large.z2_over_z0 == pytest.approx(10**4 / 24.0, rel=1e-12)
    assert small.z2_over_z0 == pytest.approx(10 / 24.0, rel=1e-12)
    for n in (10, 1000):
        text = " + ".join(f"x{k}^2" for k in range(1, n + 1))
        pred, counts = points(PotentialField(dimension=n, value=parse_potential(text, n)))
        assert counts == few and pred.z2_over_z0 == pytest.approx(n * 2.0 / 24.0, rel=1e-12)
