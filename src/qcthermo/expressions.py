"""Minimal arithmetic expression grammar for user-supplied potentials.

Grammar (recursive descent):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | 'pi' | 'x'<k> | 'exp' '(' expr ')' | '(' expr ')'

Variables x1..xN address coordinates.  The parser builds a small tree of
nodes.  A subtree without a variable is folded to one float constant at parse
time, with NumPy's float semantics (1/0 is inf, (-1)^0.5 is nan), and ``^``
with a small integer constant exponent becomes repeated multiplication.

The compiled potential V is vectorized over arrays of shape (..., N) and
carries its exact gradient: ``V.gradient(x)`` has shape (..., N) and is
evaluated in forward mode, each node returning its value together with a
sparse {axis: partial derivative} map, so a term in one coordinate touches
that axis only.  Both are evaluated with NumPy floating-point warnings off: a
non-finite value is left for the caller to reject.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .core import ValidationError

__all__ = ["parse_potential", "parse_number"]

# integer exponents up to this magnitude are expanded into multiplications
MAX_INT_POWER = 16

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValidationError(f"unexpected character {text[pos:].lstrip()[0]!r}")
            break
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


def _ipow(a, n: int):
    """a**n for an integer n != 0, by repeated squaring."""
    if n < 0:
        return 1.0 / _ipow(a, -n)
    result = None
    while True:
        if n & 1:
            result = a if result is None else result * a
        n >>= 1
        if not n:
            return result
        a = a * a


def _linear(*terms):
    """Sparse sum of coef * grad over (coef, grad) pairs; coef None means 1."""
    out = {}
    for coef, grad in terms:
        for axis, d in grad.items():
            if coef is not None:
                d = coef * d
            out[axis] = out[axis] + d if axis in out else d
    return out


class _Const:
    def __init__(self, c):
        self.c = float(c)

    def value(self, cols):
        return self.c

    def forward(self, cols):
        return self.c, {}


class _Var:
    def __init__(self, axis: int):
        self.axis = axis

    def value(self, cols):
        return cols[self.axis]

    def forward(self, cols):
        return cols[self.axis], {self.axis: 1.0}


class _Op:
    """Interior node: apply() gives the value, chain() the sparse gradient."""

    def __init__(self, *args):
        self.args = args

    def value(self, cols):
        return self.apply(*[a.value(cols) for a in self.args])

    def forward(self, cols):
        pairs = [a.forward(cols) for a in self.args]
        vals = [v for v, _ in pairs]
        out = self.apply(*vals)
        return out, self.chain(out, vals, [g for _, g in pairs])


class _Add(_Op):
    apply = staticmethod(operator.add)

    def chain(self, out, vals, grads):
        return _linear((None, grads[0]), (None, grads[1]))


class _Sub(_Op):
    apply = staticmethod(operator.sub)

    def chain(self, out, vals, grads):
        return _linear((None, grads[0]), (-1.0, grads[1]))


class _Mul(_Op):
    apply = staticmethod(operator.mul)

    def chain(self, out, vals, grads):
        return _linear((vals[1], grads[0]), (vals[0], grads[1]))


class _Div(_Op):
    apply = staticmethod(operator.truediv)

    def chain(self, out, vals, grads):
        # (a/b)' = (a' - (a/b) b') / b
        inv = np.divide(1.0, vals[1])
        terms = [(inv, grads[0])]
        if grads[1]:
            terms.append((-out * inv, grads[1]))
        return _linear(*terms)


class _Neg(_Op):
    apply = staticmethod(operator.neg)

    def chain(self, out, vals, grads):
        return _linear((-1.0, grads[0]))


class _Exp(_Op):
    apply = staticmethod(np.exp)

    def chain(self, out, vals, grads):
        return _linear((out, grads[0]))


class _IntPow(_Op):
    """a^n for an integer constant n != 0."""

    def __init__(self, base, n: int):
        self.args = (base,)
        self.n = n

    def apply(self, a):
        return _ipow(a, self.n)

    def chain(self, out, vals, grads):
        coef = None if self.n == 1 else self.n * _ipow(vals[0], self.n - 1)
        return _linear((coef, grads[0]))


class _ConstPow(_Op):
    """a^c for a constant c that is not a small integer."""

    def __init__(self, base, c: float):
        self.args = (base,)
        self.c = c

    def apply(self, a):
        return np.power(a, self.c)

    def chain(self, out, vals, grads):
        return _linear((self.c * np.power(vals[0], self.c - 1.0), grads[0]))


class _Pow(_Op):
    """a^b with a non-constant exponent: (a^b)' = a^b (b' ln a + b a'/a)."""

    apply = staticmethod(np.power)

    def chain(self, out, vals, grads):
        (a, b), (ga, gb) = vals, grads
        terms = []
        if ga:
            terms.append((out * b / a, ga))
        if gb:
            terms.append((out * np.log(a), gb))
        return _linear(*terms)


def _node(cls, *args):
    """cls(*args), folded to a constant when none of its arguments uses x."""
    node = cls(*args)
    if all(isinstance(a, _Const) for a in node.args):
        with np.errstate(all="ignore"):
            return _Const(node.apply(*[np.float64(a.c) for a in node.args]))
    return node


def _power(base, expo):
    if not isinstance(expo, _Const):
        return _node(_Pow, base, expo)
    c = expo.c
    if c == 0.0:  # x^0 is 1 for every float x, nan and inf included
        return _Const(1.0)
    if c.is_integer() and abs(c) <= MAX_INT_POWER:
        return _node(_IntPow, base, int(c))
    return _node(_ConstPow, base, c)


class _Parser:
    def __init__(self, tokens, dimension):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ValidationError(f"expected {kind}, found {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ValidationError(f"expected {value!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            node = _node(_Add if op == "+" else _Sub, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            node = _node(_Mul if op == "*" else _Div, node, self.factor())
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return _node(_Neg, self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return _power(base, self.factor())
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return _Const(value)
        if kind == "name":
            self.take()
            if value == "pi":
                return _Const(math.pi)
            if value == "exp":
                self.take("op", "(")
                inner = self.expr()
                self.take("op", ")")
                return _node(_Exp, inner)
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                k = int(m.group(1))
                if not (1 <= k <= self.dimension):
                    raise ValidationError(
                        f"variable {value} out of range for dimension {self.dimension}"
                    )
                return _Var(k - 1)
            raise ValidationError(f"unknown name {value!r}")
        if (kind, value) == ("op", "("):
            self.take()
            inner = self.expr()
            self.take("op", ")")
            return inner
        raise ValidationError(f"unexpected token {value!r}")


class _CompiledPotential:
    """V(x) of a parsed expression, with its exact gradient.

    Calling it on x of shape (..., N) returns V of shape (...);
    gradient(x) returns shape (..., N).  Hashable by identity.
    """

    def __init__(self, root, dimension: int):
        self._root = root
        self.dimension = dimension

    def _columns(self, x):
        x = np.asarray(x, dtype=float)
        return x.shape[:-1], [x[..., k] for k in range(self.dimension)]

    def __call__(self, x):
        shape, cols = self._columns(x)
        with np.errstate(all="ignore"):
            v = np.asarray(self._root.value(cols), dtype=float)
        return v if v.shape == shape else np.full(shape, v)

    def gradient(self, x):
        shape, cols = self._columns(x)
        with np.errstate(all="ignore"):
            _, partials = self._root.forward(cols)
        out = np.zeros(shape + (self.dimension,))
        for axis, d in partials.items():
            out[..., axis] = d
        return out


def parse_potential(text: str, dimension: int):
    """Compile an expression into a vectorized potential with an exact gradient."""
    if dimension < 1:
        raise ValidationError("dimension must be >= 1")
    parser = _Parser(_tokenize(text), dimension)
    fn = _CompiledPotential(parser.expr(), dimension)
    parser.take("end")
    probe = np.zeros((1, dimension))
    try:
        out = np.asarray(fn(probe), dtype=float)
    except ZeroDivisionError as exc:
        raise ValidationError(f"expression fails at the origin: {exc}") from exc
    if out.shape != (1,):
        raise ValidationError("expression must reduce to a scalar per point")
    return fn


_NUMBER_PI = re.compile(
    r"(?i)^\s*(?P<sign>[+-])?\s*(?P<coef>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\s*"
    r"(?P<pi>pi)?\s*(?:/\s*(?P<div>[+-]?(?:\d+\.?\d*|\.\d+)))?\s*$"
)


def parse_number(text: str) -> float:
    """Float parser for CLI flags; accepts forms like 2pi, pi/2, 1.5e-3."""
    m = _NUMBER_PI.match(text)
    if not m or (m.group("coef") is None and m.group("pi") is None):
        raise ValidationError(f"cannot parse number {text!r}")
    value = float(m.group("coef")) if m.group("coef") is not None else 1.0
    if m.group("sign") == "-":
        value = -value
    if m.group("pi"):
        value *= math.pi
    if m.group("div") is not None:
        value /= float(m.group("div"))
    return value
