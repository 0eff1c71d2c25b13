import copy
import math
import pickle
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcthermo import PhysicalParams, expressions, parse_number
from qcthermo.core import ValidationError
from qcthermo.expressions import parse_potential
from qcthermo.semiclassical import PotentialField, kw_expansion


def test_parse_number_forms():
    assert parse_number("1.5") == 1.5
    assert parse_number("-2e-3") == -2e-3
    assert parse_number("pi") == math.pi
    assert parse_number("2pi") == 2.0 * math.pi
    assert parse_number("pi/2") == math.pi / 2.0
    assert parse_number("-pi") == -math.pi
    assert parse_number("3/4") == 0.75


def test_parse_number_rejects_garbage():
    for bad in ("", "two", "pi pi", "1..2", "1+1",
                # no finite value: division by zero, overflow
                "1/0", "pi/0", "-2pi/0.0", "1e999", "-1e999", "1e300/1e-300"):
        with pytest.raises(ValidationError):
            parse_number(bad)


def test_basic_arithmetic():
    f = parse_potential("x1^2/2", 1)
    x = np.array([[2.0], [3.0]])
    assert np.allclose(f(x), [2.0, 4.5])


def test_operator_precedence():
    f = parse_potential("2 + 3 * x1 ^ 2", 1)
    assert f(np.array([[2.0]]))[0] == pytest.approx(14.0)


def test_power_right_associative():
    f = parse_potential("x1 ^ 3 ^ 2", 1)
    assert f(np.array([[2.0]]))[0] == pytest.approx(2.0**9)


def test_unary_minus():
    f = parse_potential("-x1 + 1", 1)
    assert f(np.array([[0.25]]))[0] == pytest.approx(0.75)


def test_pi_and_exp():
    f = parse_potential("pi * exp(-x1^2)", 1)
    assert f(np.array([[0.0]]))[0] == pytest.approx(math.pi)
    assert f(np.array([[1.0]]))[0] == pytest.approx(math.pi * math.exp(-1.0))


def test_multivariate():
    f = parse_potential("x1^2 + 2*x2^2", 2)
    x = np.array([[1.0, 1.0], [2.0, 0.5]])
    assert np.allclose(f(x), [3.0, 4.5])


def test_vectorized_shape():
    f = parse_potential("x1 + x2", 2)
    x = np.zeros((3, 4, 2))
    assert f(x).shape == (3, 4)


def test_wrong_column_count_is_a_validation_error():
    # the whole potential takes its dimension's columns, block j its block's
    f = parse_potential("x1^2 + x2*x3", 3)
    assert f.blocks == ((0,), (1, 2))
    for call, x in ((f, np.zeros((4, 2))), (f, np.zeros((4, 4))), (f, np.zeros(())),
                    (f.gradient, np.zeros(2)), (lambda y: f(y, block=1), np.zeros((4, 3))),
                    (lambda y: f.gradient(y, block=0), np.zeros((4, 2)))):
        with pytest.raises(ValidationError, match=r"expected x of shape \(\.\.\., \d\)"):
            call(x)
    assert f(np.ones((4, 2)), block=1).shape == (4,)


def test_variable_out_of_range():
    with pytest.raises(ValidationError):
        parse_potential("x3", 2)
    with pytest.raises(ValidationError):
        parse_potential("x0", 2)


def test_syntax_errors():
    # the last eleven are Python but not the grammar; Python warns of the last
    outside = ("x1 # c", "0x10", "1_0", "1j*x1", "True", "x1.real", "x1 // 2",
               "x1 if x2 else 1", "exp(x1, 2)", "+x1", "1and x1")
    for bad in ("x1 +", "(x1", "x1 ** 2", "sin(x1)", "1 @ 2", "exp()", "exp(^x1)") + outside:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                parse_potential(bad, 2)


def test_parser_warnings_do_not_leak():
    # Python warns of '1and x1' (DeprecationWarning in 3.11, SyntaxWarning
    # from 3.12); the CLI's stderr must keep its single error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError):
            parse_potential("1and x1", 2)
    assert not caught


def test_leading_zeros_and_line_breaks():
    x = np.array([[2.0, 3.0]])
    assert parse_potential("007*x1", 2)(x)[0] == 14.0
    assert parse_potential("x1^2 +\n\t2*x2\n", 2)(x)[0] == 10.0


def test_deep_trees_raise_validation_error():
    # too deep for Python's own parser
    for text in ("(" * 1200 + "x1" + ")" * 1200, " + ".join(["x1"] * 3000), "-" * 3000 + "x1"):
        with pytest.raises(ValidationError):
            parse_potential(text, 1)


def test_long_sum_evaluates_deep_in_the_stack():
    # evaluation replays a flat list of steps, however deep its caller; the
    # compile keeps its own stack, so nesting is limited by Python's parser only
    for text, at, value, slope in (
        (" + ".join(["x1^2"] * 900), 1.5, 900 * 1.5**2, 1800 * 1.5),
        ("*".join(["x1"] * 2000), 1.0, 1.0, 2000.0),
        ("-" * 1000 + "x1^2/2", 1.5, 1.125, 1.5),
        ("-" * 2500 + "x1^2/2", 1.5, 1.125, 1.5),
        ("-" * 999 + "x1^3", 1.5, -(1.5**3), -3 * 1.5**2),
        ("x1" + "^1" * 1000, 1.5, 1.5, 1.0),
        ("x1" + "^1" * 2500, 1.5, 1.5, 1.0),
    ):
        f = parse_potential(text, 1)
        x = np.full((1, 1), at)

        def deep(depth, fn):
            return fn(x) if depth == 0 else deep(depth - 1, fn)

        room = sys.getrecursionlimit() - 150
        assert deep(room, f)[0] == value
        assert deep(room, f.gradient)[0, 0] == slope


def test_constant_expression_broadcasts():
    f = parse_potential("3", 2)
    assert np.allclose(f(np.zeros((5, 2))), 3.0)


def test_parsed_potential_hashable_by_identity():
    f, g = parse_potential("x1^2", 1), parse_potential("x1^2", 1)
    assert len({f, g, f}) == 2


# each grammar rule against its closed-form gradient, at points away from
# the singularities of / and fractional ^
GRADIENT_POINTS = np.array([[0.7, -1.3], [1.9, 0.4], [-0.6, 2.2]])
GRADIENT_RULES = [
    ("x1 + 2*x2", lambda x1, x2: (1.0, 2.0)),
    ("x1 - x2", lambda x1, x2: (1.0, -1.0)),
    ("x1 * x2", lambda x1, x2: (x2, x1)),
    ("x1 / x2", lambda x1, x2: (1.0 / x2, -x1 / x2**2)),
    ("-x1*x2", lambda x1, x2: (-x2, -x1)),
    ("exp(x1*x2)", lambda x1, x2: (x2 * np.exp(x1 * x2), x1 * np.exp(x1 * x2))),
    ("pi*x1^2", lambda x1, x2: (2.0 * math.pi * x1, 0.0)),
    ("x1^3 + x2^-2", lambda x1, x2: (3.0 * x1**2, -2.0 * x2**-3.0)),
    ("x2^0 + x1^1", lambda x1, x2: (1.0, 0.0)),
    ("x1^40", lambda x1, x2: (40.0 * x1**39, 0.0)),
    ("(x1^2)^1.25", lambda x1, x2: (2.5 * np.abs(x1) ** 1.5 * np.sign(x1), 0.0)),
    ("(1 + x1^2)^x2", lambda x1, x2: (
        x2 * (1 + x1**2) ** (x2 - 1) * 2 * x1,
        (1 + x1**2) ** x2 * np.log(1 + x1**2),
    )),
    ("2^x1", lambda x1, x2: (math.log(2.0) * 2.0**x1, 0.0)),
    ("3*2^-1 - pi/4 + exp(1)", lambda x1, x2: (0.0, 0.0)),
]


@pytest.mark.parametrize("text,closed_form", GRADIENT_RULES)
def test_gradient_rules(text, closed_form):
    f = parse_potential(text, 2)
    x1, x2 = GRADIENT_POINTS[:, 0], GRADIENT_POINTS[:, 1]
    want = np.stack([np.broadcast_to(g, x1.shape) for g in closed_form(x1, x2)], axis=-1)
    got = f.gradient(GRADIENT_POINTS)
    assert got.shape == GRADIENT_POINTS.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-300)


def test_constant_expression_folds():
    f = parse_potential("3*2^-1 - pi/4 + exp(1)", 2)
    x = np.zeros((5, 3, 2))
    assert np.all(f(x) == 1.5 - math.pi / 4 + math.e)
    assert f(x).shape == (5, 3)
    assert np.all(f.gradient(x) == 0.0) and f.gradient(x).shape == (5, 3, 2)


def test_gradient_is_sparse_per_axis():
    # a term in one coordinate contributes to that axis only, exactly
    f = parse_potential("x1^2/2 + 3*x3", 3)
    x = np.array([[0.5, 7.0, -2.0]])
    assert f.gradient(x).tolist() == [[0.5, 0.0, 3.0]]


def test_constants_use_numpy_float_semantics():
    # folded constants follow NumPy: inf and nan instead of exceptions or complex
    assert parse_potential("x1 + 1/0", 1)(np.array([[1.0]]))[0] == math.inf
    assert math.isnan(parse_potential("x1 + (-8)^(1/3)", 1)(np.array([[1.0]]))[0])


def test_singular_gradient_is_inf_without_warning():
    f = parse_potential("x1^0.5", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.gradient(np.array([[0.0]]))[0, 0] == math.inf
        assert math.isnan(f(np.array([[-1.0]]))[0])


# values and gradients of expressions that between them use every instruction
# and folding rule, as float.hex strings "V dV/dx1 dV/dx2", one per point
REGULAR = [(0.0, 0.0), (0.7, -1.3), (-1.9, 2.4)]
SPECIAL = [(0.0, 0.0), (math.nan, math.inf), (math.inf, -0.5)]
PINNED_BITS = [
    ("x1 + 1/0", REGULAR, [
        "inf 0x1.0000000000000p+0 0x0.0p+0",
        "inf 0x1.0000000000000p+0 0x0.0p+0",
        "inf 0x1.0000000000000p+0 0x0.0p+0",
    ]),
    ("x2 - (-8)^(1/3)", REGULAR, [
        "nan 0x0.0p+0 0x1.0000000000000p+0",
        "nan 0x0.0p+0 0x1.0000000000000p+0",
        "nan 0x0.0p+0 0x1.0000000000000p+0",
    ]),
    ("x1^0 - 2*x2^0 + x1*x2^0", SPECIAL, [
        "-0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0",
        "nan 0x1.0000000000000p+0 0x0.0p+0",
        "inf 0x1.0000000000000p+0 0x0.0p+0",
    ]),
    ("x1^-3 + 3*x2^-2", REGULAR, [
        "inf -inf -inf",
        "0x1.2c32c99ab768cp+2 -0x1.8fd559e1eeba4p+3 0x1.5d914db87485bp+1",
        "0x1.800a59d97521ep-2 -0x1.d77385f2f9e58p-3 -0x1.bc71c71c71c72p-2",
    ]),
    ("x1^17 - x2^40", REGULAR, [
        "0x0.0p+0 0x0.0p+0 -0x0.0p+0",
        "-0x1.1a2db99742969p+15 0x1.ced0a95d195f3p-5 0x1.0f535afb8d303p+20",
        "-0x1.6f71615ed3fbep+50 0x1.dedb99cbd0f4ap+18 -0x1.7ec0c56d3a669p+54",
    ]),
    ("x1^16 + x2^2.5", REGULAR, [
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "nan 0x1.3722dd6bc39c7p-4 nan",
        "0x1.c2d4424370e19p+14 -0x1.da6904283d2efp+17 0x1.2971f372f95b6p+3",
    ]),
    ("(1 + x1^2)^x2", REGULAR, [
        "0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0",
        "0x1.30e113fb1658ep-1 -0x1.74671d8f79cb1p-1 0x1.e6506f1d84e3dp-3",
        "0x1.394efb4d00b9bp+5 -0x1.35e90ec9ab32fp+6 0x1.dece8b2e40a2bp+5",
    ]),
    ("2^x1 * x2", REGULAR, [
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
        "-0x1.0e514e11fb61bp+1 -0x1.76bd60fc5da3dp+0 0x1.9fdf8bcce533dp+0",
        "0x1.493fb1dc607abp-1 0x1.c86f8e540c3e1p-2 0x1.125fbee250664p-2",
    ]),
    ("007*x1 - pi*x2", REGULAR, [
        "0x0.0p+0 0x1.c000000000000p+2 -0x1.921fb54442d18p+1",
        "0x1.1f7d814fc8ea8p+3 0x1.c000000000000p+2 -0x1.921fb54442d18p+1",
        "-0x1.4d6fe9947a720p+4 0x1.c000000000000p+2 -0x1.921fb54442d18p+1",
    ]),
    ("exp(-x1^2/2) * exp(x2)", REGULAR, [
        "0x1.0000000000000p+0 -0x0.0p+0 0x1.0000000000000p+0",
        "0x1.b4dcdab602041p-3 -0x1.31cdcc4c349c7p-3 0x1.b4dcdab602041p-3",
        "0x1.d022cbc73d66bp+0 0x1.b8eddb307a54cp+1 0x1.d022cbc73d66bp+0",
    ]),
    ("3*2^-1 - pi/4 + exp(1)", REGULAR, [
        "0x1.b768bb6034c23p+1 0x0.0p+0 0x0.0p+0",
        "0x1.b768bb6034c23p+1 0x0.0p+0 0x0.0p+0",
        "0x1.b768bb6034c23p+1 0x0.0p+0 0x0.0p+0",
    ]),
    ("1 + 2 + x1 + 3 - x2", REGULAR, [
        "0x1.8000000000000p+2 0x1.0000000000000p+0 -0x1.0000000000000p+0",
        "0x1.0000000000000p+3 0x1.0000000000000p+0 -0x1.0000000000000p+0",
        "0x1.b333333333332p+0 0x1.0000000000000p+0 -0x1.0000000000000p+0",
    ]),
    ("x1*x2/(1 + x2^2)", REGULAR, [
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "-0x1.5a68af1b99381p-2 -0x1.eedeb102dae26p-2 -0x1.11670bc703490p-4",
        "-0x1.595f6e94731fdp-1 0x1.6b8ce030792efp-2 0x1.9551b341a7ed6p-3",
    ]),
    ("-(x1^2 - -(x2^4 - x1*x2))", REGULAR, [
        "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0",
        "-0x1.1063f141205bdp+2 -0x1.599999999999ap+1 0x1.2f9db22d0e561p+3",
        "-0x1.4ac7e28240b78p+5 0x1.8ccccccccccccp+2 -0x1.c9916872b020cp+5",
    ]),
    ("2*(x1^2 + x2^2)/3", REGULAR, [
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.740da740da741p+0 0x1.dddddddddddddp-1 -0x1.bbbbbbbbbbbbcp+0",
        "0x1.8fc962fc962fcp+2 -0x1.4444444444444p+1 0x1.9999999999999p+1",
    ]),
    ("x1^0.5 + x2^1", REGULAR, [
        "0x0.0p+0 inf 0x1.0000000000000p+0",
        "-0x1.da75cb43dcd44p-2 0x1.31fa808c55b43p-1 0x1.0000000000000p+0",
        "nan nan 0x1.0000000000000p+0",
    ]),
    ("(x1 - x2)^3 / (x1 + 2)", REGULAR, [
        "0x0.0p+0 0x0.0p+0 -0x0.0p+0",
        "0x1.7b425ed097b42p+1 0x1.ac6c28bc39976p+1 -0x1.1c71c71c71c72p+2",
        "-0x1.8d88f5c28f5bcp+9 0x1.09cb33333332bp+13 -0x1.1559999999995p+9",
    ]),
    ("1e3*x1^2 + .5*x2 + 2.", REGULAR, [
        "0x1.0000000000000p+1 0x0.0p+0 0x1.0000000000000p-1",
        "0x1.eb59999999999p+8 0x1.5e00000000000p+10 0x1.0000000000000p-1",
        "0x1.c3a6666666666p+11 -0x1.db00000000000p+11 0x1.0000000000000p-1",
    ]),
    ("exp(x1)^x2 - x1/0", REGULAR, [
        "nan -inf 0x0.0p+0",
        "-inf -inf 0x1.208784629a2f3p-2",
        "inf -inf -0x1.45ae017aeb1eep-6",
    ]),
    ("-x1*-x2 - -1 + 0.1*x1^4", REGULAR, [
        "0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0",
        "0x1.d2fc2656abde9p-4 -0x1.29ad42c3c9eedp+0 0x1.6666666666666p-1",
        "-0x1.20de7ea5f84cap+1 -0x1.5fd8adab9f558p-2 -0x1.e666666666666p+0",
    ]),
]


@pytest.mark.parametrize("text, points, want", PINNED_BITS)
def test_values_and_gradients_keep_their_bits(text, points, want):
    f = parse_potential(text, 2)
    x = np.array(points)
    got = [" ".join(map(float.hex, [v, *g])) for v, g in zip(f(x).tolist(), f.gradient(x).tolist())]
    assert got == want


@pytest.mark.parametrize("text, n, blocks", [
    ("x1^2 + x2^2", 2, ((0,), (1,))),
    # a coupling term joins its axes, and joins are transitive
    ("x1^2 + x2^2 + 0.5*x1*x2", 2, ((0, 1),)),
    ("x1*x2 + x2*x3 + x4^2", 4, ((0, 1, 2), (3,))),
    ("x1^2 + x3^2 + x2*x4 + x4^4", 4, ((0,), (1, 3), (2,))),
    # unary minus and subtraction, nested
    ("-(x1^2 + x2^2)", 2, ((0,), (1,))),
    ("x1^2 - (x2^2 - x3^2)", 3, ((0,), (1,), (2,))),
    ("-(x1^2 - -(x2^4 - x3*x1))", 3, ((0, 2), (1,))),
    # constants belong to no block; an axis no term uses is its own block
    ("3 + x1^2 - pi + exp(1)*x3^4", 3, ((0,), (1,), (2,))),
    # parentheses around a sum do not make it one term; a product or power does,
    # unless its other factor is a constant
    ("(x1^2 + x2^2) + ((x3^2))", 3, ((0,), (1,), (2,))),
    ("2*(x1^2 + x2^2)", 2, ((0,), (1,))),
    ("(x1 + x2)^2 + x3^2", 3, ((0, 1), (2,))),
    ("exp(x1^2 + x2^2)", 2, ((0, 1),)),
    # a constant factor or divisor keeps the terms of a sum apart; c/S does not
    ("(x1^2+x2^2)/3", 2, ((0,), (1,))),
    ("x1*(x2+x3)", 3, ((0, 1, 2),)),
    ("2/(x1^2+x2^2)", 2, ((0, 1),)),
])
def test_blocks(text, n, blocks):
    assert parse_potential(text, n).blocks == blocks


def test_blocks_of_a_long_sum():
    # the terms are found without recursion, however long the chain of +
    n = 400
    f = parse_potential(" - ".join(f"x{k}^2" for k in range(1, n + 1)), n)
    assert f.blocks == tuple((k,) for k in range(n))


def _grammar_expressions(n):
    """Random expressions over x1..xn, every rule of the grammar included.

    Divisors and the bases of fractional and variable powers are kept
    positive, so the expressions are smooth everywhere.
    """
    leaves = st.sampled_from([f"x{k}" for k in range(1, n + 1)] + ["pi", "0.5", "1.5", "2"])

    def extend(inner):
        positive = inner.map(lambda a: f"(1 + ({a})^2)")
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"
            ),
            st.tuples(inner, positive).map(lambda t: f"({t[0]}) / {t[1]}"),
            inner.map(lambda a: f"-({a})"),
            inner.map(lambda a: f"exp(({a})/4)"),
            st.tuples(inner, st.integers(-3, 5)).map(lambda t: f"(2 + ({t[0]})^2)^{t[1]}"),
            st.tuples(inner, st.integers(1, 5)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(positive, st.floats(-2.0, 2.0)).map(lambda t: f"{t[0]}^{t[1]!r}"),
            st.tuples(positive, inner).map(lambda t: f"{t[0]}^(({t[1]})/4)"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def _central_differences(f, x, step):
    """Fourth-order central differences of f at the points x, shape (..., N)."""
    out = np.empty(x.shape)
    for k in range(x.shape[-1]):
        dx = np.zeros(x.shape[-1])
        dx[k] = step
        out[..., k] = (
            8.0 * (f(x + dx) - f(x - dx)) - (f(x + 2 * dx) - f(x - 2 * dx))
        ) / (12.0 * step)
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_gradient_matches_central_differences(data, n):
    text = data.draw(_grammar_expressions(n), label="expression")
    f = parse_potential(text, n)
    x = np.array(
        data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="x")
    )[None, :]
    got = f.gradient(x)
    with np.errstate(all="ignore"):
        coarse = _central_differences(f, x, 2e-3)
        fine = _central_differences(f, x, 1e-3)
    scale = 1.0 + np.abs(f(x)).max() + np.abs(fine).max()
    # the reference is trusted only where two step sizes agree: nested exp and
    # powers make some expressions too steep for any fixed step
    assume(np.all(np.isfinite(coarse)) and np.abs(coarse - fine).max() < 1e-8 * scale)
    np.testing.assert_allclose(got, fine, rtol=0, atol=1e-7 * scale, err_msg=text)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_blocks_separate_the_potential(data, n):
    # V(x) = c + sum_j W_j(x on block j's own columns)
    terms = []
    for _ in range(data.draw(st.integers(1, 4), label="terms")):
        if data.draw(st.booleans(), label="one axis"):
            axis = data.draw(st.integers(1, n), label="axis")
            term = data.draw(_grammar_expressions(1), label="term").replace("x1", f"x{axis}")
        else:
            term = data.draw(_grammar_expressions(n), label="term")
        terms.append(term)
    signs = data.draw(st.lists(st.sampled_from("+-"), min_size=len(terms), max_size=len(terms)))
    wrap = data.draw(st.sampled_from(["{}", "2.5*({})", "({})*-0.5", "({})/3", "-pi*({})/2"]))
    x = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="x")
    assume(_check_blocks(terms, signs, wrap, n, x))


@pytest.mark.parametrize("terms, signs, wrap, x", [
    # the terms, about 2/3 each, cancel inside the one block of x1
    (["-((1 + (x1)^2)^1.0)", "-((1 + (x1)^2)^1.0)", "-(-(exp((x1)/4)))", "-(exp((x1)/4))"],
     "+++-", "({})/3", [2.0**-9]),
    # two constant terms of e^54 cancel in the folded constant
    (["-((1 + (x1)^2)^((x1)/4))", "exp(((2 + ((0.5) + (1.5))^2)^3)/4)",
      "exp(((2 + ((0.5) + (1.5))^2)^3)/4)"], "++-", "{}", [0.0]),
])
def test_blocks_separate_cancelling_terms(terms, signs, wrap, x):
    assert _check_blocks(terms, signs, wrap, len(x), x)


def _check_blocks(terms, signs, wrap, n, x):
    """Check V against its blocks at x; False, having checked nothing, where V,
    a block or the constant is not finite there."""
    text = wrap.format(" ".join(f"{s} ({t})" for s, t in zip(signs, terms)).removeprefix("+"))
    f = parse_potential(text, n)
    x = np.array(x)
    pieces = [f(x[list(block)][None, :], j)[0] for j, block in enumerate(f.blocks)]
    want = f(x[None, :])[0]
    if not (np.all(np.isfinite(pieces)) and np.isfinite(f.constant) and np.isfinite(want)):
        return False
    got = math.fsum(pieces) + f.constant
    # a sum rounds on the scale of its terms, and terms may cancel inside one
    # block or inside the folded constant: each top-level term counts
    term_sizes = [abs(parse_potential(wrap.format(t), n)(x[None, :])[0]) for t in terms]
    scale = abs(want) + np.abs(pieces).sum() + abs(f.constant) + math.fsum(term_sizes)
    assert abs(got - want) <= 1e-13 * scale, text
    # each block's gradient is V's on the block's axes
    for j, block in enumerate(f.blocks):
        np.testing.assert_allclose(
            f.gradient(x[list(block)][None, :], j)[0], f.gradient(x[None, :])[0, list(block)],
            rtol=1e-13, atol=1e-13 * (1.0 + np.abs(f.gradient(x[None, :])).max()), err_msg=text,
        )
    return True


def _vanishing_terms(n):
    """Terms over x1..xn that are 0 where their variables are, some of them
    joining two axes, under a constant factor or divisor or none."""
    axis = st.integers(1, n).map(lambda k: f"x{k}")
    atom = st.one_of(
        st.tuples(axis, st.integers(1, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        st.tuples(axis, axis).map(lambda t: f"{t[0]}*{t[1]}"),
        st.tuples(axis, axis).map(lambda t: f"({t[0]} - {t[1]})^2"),
        axis.map(lambda a: f"{a}*exp({a})"),
    )
    return st.tuples(atom, st.sampled_from(["{}", "0.3*{}", "{}*1.7", "{}/3", "-{}"])).map(
        lambda t: t[1].format(t[0])
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_block_programs_keep_the_bits_of_a_sum(data, n):
    # in a sum of terms without a constant, W_j on block j's own columns gives
    # the bits V gives with every other axis at 0, value and gradient
    terms = data.draw(st.lists(_vanishing_terms(n), min_size=1, max_size=6), label="terms")
    signs = data.draw(st.lists(st.sampled_from("+-"), min_size=len(terms), max_size=len(terms)))
    text = " ".join(f"{s} {t}" for s, t in zip(signs, terms)).removeprefix("+")
    f = parse_potential(text, n)
    assert f.constant == 0.0
    x = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=3 * n, max_size=3 * n), label="x")
    x = np.array(x).reshape(3, n)
    for j, block in enumerate(f.blocks):
        padded = np.zeros_like(x)
        padded[:, list(block)] = x[:, list(block)]
        assert f(x[:, list(block)], j).tolist() == f(padded).tolist(), text
        got = f.gradient(x[:, list(block)], j)
        assert got.tolist() == f.gradient(padded)[:, list(block)].tolist(), text


def _compile_recursively(node, source, dimension, program):
    """The compile as a recursion over the same per-node rules."""
    for operand in expressions._emit(node, source, dimension, program):
        _compile_recursively(operand, source, dimension, program)


def _check_compile_without_recursion(text, n):
    # by repr, so that nan equals nan and -0.0 differs from 0.0
    got = repr(parse_potential(text, n)._program)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expressions, "_compile", _compile_recursively)
        assert got == repr(parse_potential(text, n)._program), text


def test_compile_stack_emits_the_recursive_program_pinned():
    for text, _, _ in PINNED_BITS:
        _check_compile_without_recursion(text, 2)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_compile_stack_emits_the_recursive_program(data, n):
    _check_compile_without_recursion(data.draw(_grammar_expressions(n), label="expression"), n)


def _interpreted(f, x, block):
    """Value and gradient of f's tape walked on the arrays, NumPy warnings off."""
    program = f._program if block is None else f.block_keys[block]
    shape, n = x.shape[:-1], x.shape[-1]
    cols = [x[..., k] for k in range(n)]
    with np.errstate(all="ignore"):
        value, partials = expressions._forward(program, cols)
    value = np.asarray(value, dtype=float)
    gradient = np.zeros(shape + (n,))
    for axis, d in partials.items():
        gradient[..., axis] = d
    return np.broadcast_to(value, shape), gradient


def _hexes(a):
    return [float.hex(v) for v in np.ravel(a).tolist()]


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300]),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_kernels_keep_the_bits_of_the_tape(data, n):
    # each kernel replays exactly the arithmetic of the tape's walk, at every
    # point, whole and block by block, and whatever the batch shape
    text = data.draw(_grammar_expressions(n), label="expression")
    f = parse_potential(text, n)
    batch = data.draw(st.sampled_from([(), (1,), (4,), (2, 3)]), label="batch")
    size = int(np.prod(batch, dtype=int)) * n
    x = np.array(data.draw(st.lists(_EDGE_FLOATS, min_size=size, max_size=size), label="x"))
    x = x.reshape(batch + (n,))
    for block in [None, *range(len(f.blocks))]:
        y = x if block is None else x[..., list(f.blocks[block])]
        want_value, want_gradient = _interpreted(f, y, block)
        for _ in range(2):  # traced on the first call, replayed after
            assert _hexes(f(y, block)) == _hexes(want_value), text
            assert _hexes(f.gradient(y, block)) == _hexes(want_gradient), text


def test_each_kernel_is_traced_once(monkeypatch):
    # one forward walk per program gives both its kernels; no other walk runs
    traced = {}
    walk = expressions._forward

    def counted(program, cols):
        traced[tuple(program)] = traced.get(tuple(program), 0) + 1
        return walk(program, cols)

    monkeypatch.setattr(expressions, "_forward", counted)
    f = parse_potential("0.7*x1^2 + 0.1*x1^4 + 0.5*x2^2 + x1*x3", 3)
    assert f.blocks == ((0, 2), (1,))
    x = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    for _ in range(3):
        f(x), f.gradient(x)
        for j, block in enumerate(f.blocks):
            f(x[:, list(block)], j), f.gradient(x[:, list(block)], j)
    programs = [tuple(f._program), *map(tuple, f.block_keys)]
    assert traced == dict.fromkeys(programs, 1)

    traced.clear()
    g = PotentialField(2, parse_potential("0.7*x1^2 + 0.1*x1^4 + 0.5*x2^2 + 0.2*x2^4", 2))
    params = PhysicalParams(T=1.0, h=0.1, m=1.0)
    assert kw_expansion(g, params) == kw_expansion(g, params)
    keys = g.value.block_keys
    assert traced == dict.fromkeys(map(tuple, keys), 1)


def test_replay_holds_no_more_arrays_than_the_walk():
    # a kernel writes each value over one no later step reads, so its peak
    # memory is the walk's, not one array per step: the value kernel holds
    # about 9 columns' worth (a kernel that took a new slot for every step
    # would hold about 28), and the gradient kernel no more than the walk
    text = ("exp(-(x1^2 + x2^2 + x3^2)/4) * (1 + x1*x2*x3)^2 + (x1 - x2)^4 + (x2 - x3)^4"
            " + (x3 - x1)^4 + x1^2*x2^2*x3^2")
    f = parse_potential(text, 3)
    x = np.random.default_rng(0).normal(size=(8192, 3))
    f(x), f.gradient(x)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cols = [x[..., k] for k in range(3)]
    assert peak(lambda: f(x)) < 12 * cols[0].nbytes
    assert peak(lambda: f.gradient(x)) < 1.5 * peak(lambda: expressions._forward(f._program, cols))


def _result_hexes(result):
    return _hexes([getattr(result, a) for a in result.__match_args__])


@pytest.mark.parametrize("called", [False, True])
def test_pickle_and_deepcopy_keep_the_potential(called):
    # unpickled opcodes are new strings; a copy made before or after the
    # first call gives the original's bits, whole, block by block and in kw
    text = "0.7*x1^2 + 0.1*x1^4 - exp(x2/2)*x3 + 2^x2"
    f = parse_potential(text, 3)
    x = np.array([[0.3, -1.2, 2.0], [0.0, 0.5, -0.7]])
    params = PhysicalParams(T=1.0, h=0.1, m=1.0)
    p = PotentialField(1, parse_potential("x1^2/2", 1))
    if called:
        f(x), f.gradient(x), kw_expansion(p, params)
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert (g.blocks, g.block_keys, g.constant) == (f.blocks, f.block_keys, f.constant)
        for block in [None, *range(len(f.blocks))]:
            y = x if block is None else x[:, list(f.blocks[block])]
            assert _hexes(g(y, block)) == _hexes(f(y, block)), text
            assert _hexes(g.gradient(y, block)) == _hexes(f.gradient(y, block)), text
    want = _result_hexes(kw_expansion(PotentialField(1, parse_potential("x1^2/2", 1)), params))
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert _result_hexes(kw_expansion(q, params)) == want


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_a_copy_is_its_text_parsed_again(data, n):
    # the copy's tape holds the parser's own opcode objects, which the tape
    # compares by identity, and its kernels give the original's bits
    text = data.draw(_grammar_expressions(n), label="expression")
    f = parse_potential(text, n)
    x = np.array(
        data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="x")
    )[None, :]
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert (g._program, g.blocks, g.block_keys, g.constant) == (
            f._program, f.blocks, f.block_keys, f.constant), text
        assert all(a is b for (a, _), (b, _) in zip(g._program, f._program)), text
        for block in [None, *range(len(f.blocks))]:
            y = x if block is None else x[:, list(f.blocks[block])]
            assert _hexes(g(y, block)) == _hexes(f(y, block)), text
            assert _hexes(g.gradient(y, block)) == _hexes(f.gradient(y, block)), text
