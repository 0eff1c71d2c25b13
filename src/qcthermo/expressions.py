"""Minimal arithmetic expression grammar for user-supplied potentials.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | 'pi' | 'x'<k> | 'exp' '(' expr ')' | '(' expr ')'

Variables x1..xN address coordinates.  With ``^`` read as ``**`` this is a
subset of Python's expressions, precedence and associativity included, so the
text is parsed by :func:`ast.parse` and walked through a whitelist of these
forms: anything else Python accepts (``//``, ``+x``, ``0x10``, ``1j``,
attributes, keywords) is a ValidationError.  The walker builds a small tree of
nodes.  A subtree without a variable is folded to one float constant at parse
time, with NumPy's float semantics (1/0 is inf, (-1)^0.5 is nan), and ``^``
with a small integer constant exponent becomes repeated multiplication.

The compiled potential V is vectorized over arrays of shape (..., N) and
carries its exact gradient: ``V.gradient(x)`` has shape (..., N) and is
evaluated in forward mode, each node returning its value together with a
sparse {axis: partial derivative} map, so a term in one coordinate touches
that axis only.  Both are evaluated with NumPy floating-point warnings off: a
non-finite value is left for the caller to reject.

``V.blocks`` partitions the axes so that V is a constant plus one function of
each block's axes: the top-level terms of the sum (the operands of its
outermost +, - and unary -) are found, and axes that appear in one term are
joined; an axis no term uses is a block of its own.  ``x1^2 + x2^2`` has
blocks ((0,), (1,)), ``(x1 + x2)^2`` and ``2*(x1^2 + x2^2)`` have ((0, 1),).
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings

import numpy as np

from .core import ValidationError

__all__ = ["parse_potential", "parse_number"]

# integer exponents up to this magnitude are expanded into multiplications
MAX_INT_POWER = 16


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


# the grammar's alphabet; this keeps out comments, '@', ',', quotes and the like
_ALPHABET = re.compile(r"[0-9A-Za-z_.+\-*/^()\s]*")
_LITERAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# the grammar allows leading zeros in integers (007); Python does not
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_BINARY = {ast.Add: _Add, ast.Sub: _Sub, ast.Mult: _Mul, ast.Div: _Div, ast.Pow: _Pow}


def _tree(node, source: str, dimension: int):
    """The node tree of a Python syntax tree that stays inside the grammar."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        left, right = _tree(node.left, source, dimension), _tree(node.right, source, dimension)
        return _power(left, right) if op is _Pow else _node(op, left, right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _node(_Neg, _tree(node.operand, source, dimension))
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exp":
        if len(node.args) == 1 and not node.keywords:
            return _node(_Exp, _tree(node.args[0], source, dimension))
    elif isinstance(node, ast.Name):
        if node.id == "pi":
            return _Const(math.pi)
        m = re.fullmatch(r"x(\d+)", node.id)
        if m is None:
            raise ValidationError(f"unknown name {node.id!r}")
        if not (1 <= int(m.group(1)) <= dimension):
            raise ValidationError(f"variable {node.id} out of range for dimension {dimension}")
        return _Var(int(m.group(1)) - 1)
    # the source is one ASCII line, so the offsets index it directly
    segment = source[node.col_offset : node.end_col_offset]
    if isinstance(node, ast.Constant) and _LITERAL.fullmatch(segment):
        return _Const(float(segment))
    raise ValidationError(f"unsupported expression {segment.replace('**', '^')!r}")


def _blocks(root, dimension: int) -> tuple[tuple[int, ...], ...]:
    """The axes of root's top-level terms joined into disjoint blocks.

    Both walks use an explicit stack, so a long sum cannot exhaust the
    recursion limit.  Blocks are ordered by their first axis.
    """
    parent = list(range(dimension))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    terms, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (_Add, _Sub, _Neg)):
            stack.extend(node.args)
        else:
            terms.append(node)
    for term in terms:
        axes, stack = [], [term]
        while stack:
            node = stack.pop()
            if isinstance(node, _Var):
                axes.append(node.axis)
            stack.extend(getattr(node, "args", ()))
        for axis in axes[1:]:
            parent[find(axis)] = find(axes[0])
    groups = {}
    for axis in range(dimension):
        groups.setdefault(find(axis), []).append(axis)
    return tuple(tuple(group) for group in groups.values())


class _CompiledPotential:
    """V(x) of a parsed expression, with its exact gradient.

    Calling it on x of shape (..., N) returns V of shape (...);
    gradient(x) returns shape (..., N).  blocks partitions the axes as
    described in the module docstring.  Hashable by identity.
    """

    def __init__(self, root, dimension: int):
        self._root = root
        self.dimension = dimension
        self.blocks = _blocks(root, dimension)

    def _run(self, x, method: str):
        """x's batch shape and root.<method>(columns of x), NumPy warnings off."""
        x = np.asarray(x, dtype=float)
        try:
            with np.errstate(all="ignore"):
                out = getattr(self._root, method)([x[..., k] for k in range(self.dimension)])
        except RecursionError as exc:  # a tree too deep for the stack its caller left
            raise ValidationError("expression nests too deeply to evaluate") from exc
        return x.shape[:-1], out

    def __call__(self, x):
        shape, v = self._run(x, "value")
        v = np.asarray(v, dtype=float)
        return v if v.shape == shape else np.full(shape, v)

    def gradient(self, x):
        shape, (_, partials) = self._run(x, "forward")
        out = np.zeros(shape + (self.dimension,))
        for axis, d in partials.items():
            out[..., axis] = d
        return out


def parse_potential(text: str, dimension: int):
    """Compile an expression into a vectorized potential with an exact gradient."""
    if dimension < 1:
        raise ValidationError("dimension must be >= 1")
    if not _ALPHABET.fullmatch(text):
        raise ValidationError(f"unexpected character {text[_ALPHABET.match(text).end()]!r}")
    if "**" in text:
        raise ValidationError("unexpected '**'; powers are written '^'")
    source = _LEADING_ZEROS.sub("", re.sub(r"\s+", " ", text).strip().replace("^", "**"))
    try:
        with warnings.catch_warnings():
            # Python only warns of some forms outside the grammar, as '1and x1'
            warnings.simplefilter("error")
            body = ast.parse(source, mode="eval").body
        fn = _CompiledPotential(_tree(body, source, dimension), dimension)
    except SyntaxError as exc:
        raise ValidationError(f"invalid expression: {exc.msg}") from exc
    except (RecursionError, MemoryError) as exc:
        # Python's parser reports input too deep for its own stack as MemoryError
        raise ValidationError("expression nests too deeply to parse") from exc
    fn(np.zeros((1, dimension)))  # the origin probe: a tree too deep to evaluate fails here
    return fn


_NUMBER_PI = re.compile(
    r"(?i)^\s*(?P<sign>[+-])?\s*(?P<coef>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\s*"
    r"(?P<pi>pi)?\s*(?:/\s*(?P<div>[+-]?(?:\d+\.?\d*|\.\d+)))?\s*$"
)


def parse_number(text: str) -> float:
    """Finite float parser for CLI flags; accepts forms like 2pi, pi/2, 1.5e-3."""
    m = _NUMBER_PI.match(text)
    if not m or (m.group("coef") is None and m.group("pi") is None):
        raise ValidationError(f"cannot parse number {text!r}")
    value = float(m.group("coef")) if m.group("coef") is not None else 1.0
    if m.group("sign") == "-":
        value = -value
    if m.group("pi"):
        value *= math.pi
    if m.group("div") is not None:
        divisor = float(m.group("div"))
        if divisor == 0:
            raise ValidationError(f"division by zero in number {text!r}")
        value /= divisor
    if not math.isfinite(value):
        raise ValidationError(f"number {text!r} is beyond float range")
    return value
