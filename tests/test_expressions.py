import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcthermo import parse_number
from qcthermo.core import ValidationError
from qcthermo.expressions import parse_potential


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
    for text in ("(" * 1200 + "x1" + ")" * 1200, " + ".join(["x1"] * 3000), "-" * 3000 + "x1"):
        with pytest.raises(ValidationError):
            parse_potential(text, 1)
    # a tree that evaluates here but not from deep in the call stack
    f = parse_potential(" + ".join(["x1^2"] * 200), 1)
    x = np.ones((1, 1))

    def deep(depth, fn):
        return fn(x) if depth == 0 else deep(depth - 1, fn)

    room = sys.getrecursionlimit() - 150
    for fn in (f, f.gradient):
        with pytest.raises(ValidationError, match="nests too deeply"):
            deep(room, fn)
    assert f(x)[0] == 200.0 and f.gradient(x)[0, 0] == 400.0


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
    # parentheses around a sum do not make it one term; a product or power does
    ("(x1^2 + x2^2) + ((x3^2))", 3, ((0,), (1,), (2,))),
    ("2*(x1^2 + x2^2)", 2, ((0, 1),)),
    ("(x1 + x2)^2 + x3^2", 3, ((0, 1), (2,))),
    ("exp(x1^2 + x2^2)", 2, ((0, 1),)),
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
    # V(x) = sum_j V(x on block j, 0 elsewhere) - (N_b - 1) V(0)
    terms = []
    for _ in range(data.draw(st.integers(1, 4), label="terms")):
        if data.draw(st.booleans(), label="one axis"):
            axis = data.draw(st.integers(1, n), label="axis")
            term = data.draw(_grammar_expressions(1), label="term").replace("x1", f"x{axis}")
        else:
            term = data.draw(_grammar_expressions(n), label="term")
        terms.append(f"({term})")
    signs = data.draw(st.lists(st.sampled_from("+-"), min_size=len(terms), max_size=len(terms)))
    text = " ".join(f"{s} {t}" for s, t in zip(signs, terms)).removeprefix("+")
    f = parse_potential(text, n)
    x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="x"))
    on_block = np.zeros((len(f.blocks), n))
    for row, block in zip(on_block, f.blocks):
        row[list(block)] = x[list(block)]
    pieces, v0, want = f(on_block), f(np.zeros((1, n)))[0], f(x[None, :])[0]
    assume(np.all(np.isfinite(pieces)) and np.isfinite(v0) and np.isfinite(want))
    got = math.fsum(pieces) - (len(f.blocks) - 1) * v0
    scale = abs(want) + np.abs(pieces).sum() + len(f.blocks) * abs(v0)
    assert abs(got - want) <= 1e-13 * scale, text
