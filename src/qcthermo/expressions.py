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
attributes, keywords) is a ValidationError.

The walk compiles the syntax tree into one flat post-order list of
(op, arg) instructions, the "tape" or Wengert list of forward-mode
differentiation: CONST and VAR push a number or a coordinate; NEG, EXP, MUL,
DIV and POW (a non-constant exponent) apply to the values on top of the
stack; IPOW raises to an integer constant n with 0 < |n| <= MAX_INT_POWER by
repeated squaring and CPOW to any other constant.  A chain of ``+`` and
``-`` is one SUM, which adds its operands left to right with a sign per
operand, exactly as the left-deep chain of binary operations it stands for.
An instruction whose operands are all constants is folded into one CONST at
compile time, with NumPy's float semantics (1/0 is inf, (-1)^0.5 is nan);
``x^0`` is 1 for every x, nan and inf included; a SUM folds only its leading
run of constants, so ``1 + 2 + x1 + 3`` adds 3, x1 and 3.

The compiled potential V is vectorized over arrays of shape (..., N) and
carries its exact gradient.  The list is walked forward over a stack of
(value, {axis: partial derivative}) pairs, so a term in one coordinate
touches that axis only, and a SUM merges its operands' maps in one pass: an
N-term sum costs O(N).  One forward walk per potential and block, on the
first call of either V or its gradient, runs with registers for the
columns: each arithmetic operation and NumPy ufunc on a register appends
one step (function, operand slots) to a flat trace, and constants, folded
at the walk's own time, become slots.  The trace is cut into two kernels,
one for the value and one for the partial derivatives: a step that repeats
an earlier one's function and operands reuses its value, steps a kernel's
outputs do not need are dropped from it, and each step writes over a slot
no later step reads, so a call holds no more arrays than the walk would.
``V(x)`` and ``V.gradient(x)`` replay their kernel on x's columns, calling
exactly the functions the walk calls on the same operands, so the bits are
the walk's on arrays.  Both run with NumPy floating-point warnings off: a
non-finite value is left for the caller to reject.  A copy or an unpickled
potential is its text parsed again, and it traces its own kernels.

``V.blocks`` partitions the axes so that V is a constant plus one function of
each block's axes.  One pass over the list keeps, for each value on the
stack, the separate terms it is a sum of: SUM and NEG keep their operands'
terms, and so do ``c*S``, ``S*c`` and ``S/c`` for a folded constant c; any
other instruction joins the axes of its operands into one term.  Axes that
share a term form a block, and an axis no term uses is a block of its own.
``x1^2 + x2^2`` and ``2*(x1^2 + x2^2)`` have blocks ((0,), (1,)), while
``(x1 + x2)^2``, ``x1*(x1 + x2)`` and ``2/(x1^2 + x2^2)`` have ((0, 1),).
The same pass writes V = c + sum_j W_j: ``V.constant`` is c, the value with
every term left out, and ``V.block_keys[j]`` is W_j's own program, the terms
of block j summed in order, each with the negations and constant factors
and divisors applied to it, and the variables renumbered to the block's
columns.  ``V(y, j)`` and ``V.gradient(y, j)`` run it on y of shape
(..., len(blocks[j])).  In a sum of terms without a constant, W_j gives the
bits V gives with every axis off the block at 0, since adding 0 is exact;
a constant factor over a sum of several terms of one block, or a sum nested
after a term of its block, is distributed or regrouped, exact up to
rounding.  Blocks with equal programs are equal functions.

Nothing recurses: the compile keeps its own stack of nodes, and the
walk, the trace and the blocks pass loop over the list, so nesting is
limited only by Python's own parser.  On Python 3.11.7 that is about 2980
levels of a sum, a product, unary minus or a power ("expression nests too
deeply to parse") and 200 nested parentheses, ``exp(...)`` included ("too
many nested parentheses"); both are ValidationErrors.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
import re
import warnings

import numpy as np

from .core import ValidationError

__all__ = ["parse_potential"]

# integer exponents up to this magnitude are expanded into multiplications
MAX_INT_POWER = 16

_CONST, _VAR, _SUM, _MUL, _DIV, _POW, _NEG, _EXP, _IPOW, _CPOW = (
    "const", "var", "sum", "mul", "div", "pow", "neg", "exp", "ipow", "cpow"
)
# operands taken from the stack; a SUM takes one per sign in its arg
_ARITY = {_CONST: 0, _VAR: 0, _NEG: 1, _EXP: 1, _IPOW: 1, _CPOW: 1, _MUL: 2, _DIV: 2, _POW: 2}


def _arity(op: str, arg) -> int:
    return len(arg) if op is _SUM else _ARITY[op]


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


# the value of each instruction but CONST, VAR and SUM; an arg is the last argument
_FUNCTIONS = {_MUL: operator.mul, _DIV: operator.truediv, _POW: np.power, _NEG: operator.neg,
              _EXP: np.exp, _IPOW: _ipow, _CPOW: np.power}


def _apply(op: str, arg, args):
    """The value of an instruction other than CONST or VAR on its operands' values."""
    if op is _SUM:
        out = args[0]
        for minus, a in zip(arg[1:], args[1:]):
            out = out - a if minus else out + a
        return out
    return _FUNCTIONS[op](*args) if arg is None else _FUNCTIONS[op](*args, arg)


def _chain(op: str, arg, out, vals, grads):
    """(coefficient, operand gradient) pairs that sum to out's gradient."""
    if op is _SUM:
        return [(-1.0 if minus else None, g) for minus, g in zip(arg, grads)]
    a, ga = vals[0], grads[0]
    if op is _NEG:
        return [(-1.0, ga)]
    if op is _EXP:
        return [(out, ga)]
    if op is _IPOW:
        return [(None if arg == 1 else arg * _ipow(a, arg - 1), ga)]
    if op is _CPOW:
        return [(arg * np.power(a, arg - 1.0), ga)]
    b, gb = vals[1], grads[1]
    if op is _MUL:
        return [(b, ga), (a, gb)]
    if op is _DIV:
        # (a/b)' = (a' - (a/b) b') / b
        inv = np.divide(1.0, b)
        return [(inv, ga), (-out * inv, gb)] if gb else [(inv, ga)]
    # a^b with a non-constant exponent: (a^b)' = a^b (b' ln a + b a'/a)
    terms = [(out * b / a, ga)] if ga else []
    if gb:
        terms.append((out * np.log(a), gb))
    return terms


def _linear(terms):
    """Sparse sum of coef * grad over (coef, grad) pairs; coef None means 1."""
    out = {}
    for coef, grad in terms:
        for axis, d in grad.items():
            if coef is not None:
                d = coef * d
            out[axis] = out[axis] + d if axis in out else d
    return out


def _forward(program, cols):
    """(value, {axis: partial derivative}) of program at the coordinates cols."""
    stack = []
    for op, arg in program:
        if op is _VAR:
            stack.append((cols[arg], {arg: 1.0}))
        elif op is _CONST:
            stack.append((arg, {}))
        else:
            k = len(stack) - _arity(op, arg)
            vals, grads = zip(*stack[k:])
            out = _apply(op, arg, vals)
            stack[k:] = [(out, _linear(_chain(op, arg, out, vals, grads)))]
    return stack[0]


class _Register:
    """A value of a trace: each arithmetic operation on it appends a step."""

    __slots__ = ("trace", "node")

    def __init__(self, trace, node: int):
        self.trace, self.node = trace, node

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        return self.trace.step(ufunc, inputs)

    def __neg__(self):
        return self.trace.step(operator.neg, (self,))

    def _binary(fn):
        """The operator of fn, and its reflection with the operands kept in order."""
        return (lambda self, other: self.trace.step(fn, (self, other)),
                lambda self, other: self.trace.step(fn, (other, self)))

    __add__, __radd__ = _binary(operator.add)
    __sub__, __rsub__ = _binary(operator.sub)
    __mul__, __rmul__ = _binary(operator.mul)
    __truediv__, __rtruediv__ = _binary(operator.truediv)
    del _binary


class _Trace:
    """The steps a walk applies to its columns, recorded on registers.

    Node k < n is column k; a later node is a constant (None, value) or a step
    (function, operand nodes).  Constants are nodes by identity, so every
    operand is passed on exactly as the walk passed it, and a step that
    repeats an earlier one's function and operands is that step.
    """

    def __init__(self, n: int):
        self.nodes = [None] * n
        self.columns = [_Register(self, k) for k in range(n)]
        self._memo = {}

    def _node(self, value) -> int:
        if isinstance(value, _Register):
            return value.node
        return self._add(id(value), (None, value))

    def _add(self, key, node) -> int:
        if key not in self._memo:
            self._memo[key] = len(self.nodes)
            self.nodes.append(node)
        return self._memo[key]

    def step(self, fn, operands) -> _Register:
        args = tuple(map(self._node, operands))
        return _Register(self, self._add((fn, args), (fn, args)))

    def kernel(self, outputs: dict):
        """(steps, start, (label, slot) pairs) of the outputs, by label.

        A replay's slots are the columns, then start: the constants and None
        for each slot no constant fills.  A step (function, operand slot,
        second operand slot or None, output slot) writes over a slot whose
        value no later step reads, so a replay holds only the arrays still to
        be read.  Steps no output depends on are left out.
        """
        nodes, n = self.nodes, len(self.columns)
        wanted = {label: self._node(value) for label, value in outputs.items()}
        live = set(wanted.values())
        for k in range(len(nodes) - 1, n - 1, -1):
            if k in live and nodes[k][0] is not None:
                live.update(nodes[k][1])
        kept = sorted(k for k in live if k >= n)
        constants = [k for k in kept if nodes[k][0] is None]
        computed = [k for k in kept if nodes[k][0] is not None]
        last_read = {a: i for i, k in enumerate(computed) for a in nodes[k][1]}
        last_read.update(dict.fromkeys(wanted.values(), len(computed)))
        slot = {k: k for k in range(n)} | {k: i for i, k in enumerate(constants, n)}
        size, free, steps = len(slot), [], []
        for i, k in enumerate(computed):
            fn, args = nodes[k]
            a, b = slot[args[0]], slot[args[1]] if len(args) > 1 else None
            free += sorted({slot[x] for x in args if last_read[x] == i})
            slot[k] = free.pop() if free else size
            size = max(size, slot[k] + 1)
            steps.append((fn, a, b, slot[k]))
        start = tuple(nodes[k][1] for k in constants) + (None,) * (size - n - len(constants))
        return tuple(steps), start, tuple((label, slot[k]) for label, k in wanted.items())


@np.errstate(all="ignore")
def _trace(program, n: int):
    """The kernels of program's value and of its partial derivatives by axis on
    n columns: its tape's forward walk run once on registers, NumPy warnings
    off as on every replay."""
    trace = _Trace(n)
    value, partials = _forward(program, trace.columns)
    return trace.kernel({None: value}), trace.kernel(partials)


@np.errstate(all="ignore")
def _replay(kernel, cols):
    """(label, value) pairs of a kernel run on the columns cols, NumPy warnings off."""
    steps, start, outputs = kernel
    slots = [*cols, *start]
    for fn, a, b, out in steps:
        slots[out] = fn(slots[a]) if b is None else fn(slots[a], slots[b])
    return [(label, slots[k]) for label, k in outputs]


def _fold(program: list, op: str, arg) -> bool:
    """Replace op's operands, on top of program, by one CONST if all are constants.

    A constant operand is always one CONST instruction, so the operands are
    all constants exactly when the instructions on top of program are.
    """
    k = len(program) - _arity(op, arg)
    if any(o is not _CONST for o, _ in program[k:]):
        return False
    with np.errstate(all="ignore"):
        value = _apply(op, arg, [np.float64(c) for _, c in program[k:]])
    program[k:] = [(_CONST, float(value))]
    return True


# the grammar's alphabet; this keeps out comments, '@', ',', quotes and the like
_ALPHABET = re.compile(r"[0-9A-Za-z_.+\-*/^()\s]*")
_LITERAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# the grammar allows leading zeros in integers (007); Python does not
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")


def _leaf(node, source: str, dimension: int):
    """The CONST or VAR instruction of a name or a number of the grammar."""
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return _CONST, math.pi
        m = re.fullmatch(r"x(\d+)", node.id)
        if m is None:
            raise ValidationError(f"unknown name {node.id!r}")
        if not (1 <= int(m.group(1)) <= dimension):
            raise ValidationError(f"variable {node.id} out of range for dimension {dimension}")
        return _VAR, int(m.group(1)) - 1
    # the source is one ASCII line, so the offsets index it directly
    segment = source[node.col_offset : node.end_col_offset]
    if isinstance(node, ast.Constant) and _LITERAL.fullmatch(segment):
        return _CONST, float(segment)
    raise ValidationError(f"unsupported expression {segment.replace('**', '^')!r}")


def _left_spine(node, ops):
    """The leftmost operand of a left-deep chain of the binary ops, and the
    (op, right operand) links in source order; no links if node is not one."""
    links = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ops):
        links.append((node.op, node.right))
        node = node.left
    return node, links[::-1]


def _compile(node, source: str, dimension: int, program: list) -> None:
    """Append the instructions of a Python syntax tree that stays inside the grammar.

    Each node is compiled by a generator that yields its operands in turn; the
    operands are compiled on an explicit stack, so nesting costs no recursion.
    """
    stack = [_emit(node, source, dimension, program)]
    while stack:
        operand = next(stack[-1], None)
        if operand is None:
            stack.pop()
        else:
            stack.append(_emit(operand, source, dimension, program))


def _emit(node, source: str, dimension: int, program: list):
    """Compile one node, yielding each operand to be compiled where it belongs."""
    first, terms = _left_spine(node, (ast.Add, ast.Sub))
    if terms:  # a chain of + and -, walked in a loop
        yield first
        signs = [False]
        for op, term in terms:
            yield term
            signs.append(isinstance(op, ast.Sub))
            if len(signs) == 2 and _fold(program, _SUM, signs):  # a constant prefix
                signs = [False]
        if len(signs) > 1:
            program.append((_SUM, tuple(signs)))
        return
    first, factors = _left_spine(node, (ast.Mult, ast.Div))
    if factors:  # a chain of * and /, walked in a loop
        yield first
        for op, factor in factors:
            yield factor
            op = _MUL if isinstance(op, ast.Mult) else _DIV
            if not _fold(program, op, None):
                program.append((op, None))
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        op, arg, operands = _POW, None, (node.left, node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        op, arg, operands = _NEG, None, (node.operand,)
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exp" and (
        len(node.args) == 1 and not node.keywords
    ):
        op, arg, operands = _EXP, None, node.args
    else:
        program.append(_leaf(node, source, dimension))
        return
    start = len(program)
    for operand in operands:
        yield operand
    if op is _POW and program[-1][0] is _CONST:
        arg = program.pop()[1]
        if arg == 0.0:  # x^0 is 1 for every float x, nan and inf included
            program[start:] = [(_CONST, 1.0)]
            return
        small = arg.is_integer() and abs(arg) <= MAX_INT_POWER
        op, arg = (_IPOW, int(arg)) if small else (_CPOW, arg)
    if not _fold(program, op, arg):
        program.append((op, arg))


def _blocks(program, dimension: int):
    """(blocks, block_keys, constant): V = constant + sum_j W_j(x_{blocks[j]}).

    Each stack entry keeps the separate terms of its value and its constant
    part (None if it has none).  A term is one of its axes, the slice of the
    program that forms it and the instructions applied to it since: a
    negation, and a constant factor or divisor, as S*c or S/c (c*S is S*c bit
    for bit).  A sum keeps its operands' terms, negating those it subtracts
    (a - b is a + (-b) bit for bit).  Any other instruction makes one term of
    its operands' slice and joins their axes.  Blocks are the joined axes,
    ordered by their first axis; W_j sums block j's terms in order, with the
    variables renumbered to the block's columns, and is 0 if it has none.
    block_keys[j] is W_j's program as a tuple.
    """
    parent = list(range(dimension))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    stack = []
    with np.errstate(all="ignore"):
        for at, (op, arg) in enumerate(program):
            k = len(stack) - _arity(op, arg)
            operands = stack[k:]
            start = operands[0][0] if operands else at
            parts = [ts for _, ts, _ in operands]
            terms = [t for ts in parts for t in ts]
            consts = [c for _, _, c in operands]
            if op is _CONST:
                const = np.float64(arg)
            elif op is _VAR or not (op in (_SUM, _NEG) or (op is _MUL and not all(parts))
                                    or (op is _DIV and not parts[1])):
                axis = arg if op is _VAR else terms[0][0]
                for t in terms:
                    parent[find(t[0])] = find(axis)
                terms, const = [(axis, slice(start, at + 1), [])], None
            elif op is _SUM or op is _NEG:
                signs = arg if op is _SUM else (True,)
                for minus, ts in zip(signs, parts):
                    for t in ts if minus else ():
                        t[2].append((_NEG, None))
                signed = [-c if minus else c for minus, c in zip(signs, consts) if c is not None]
                const = sum(signed) if signed else None
            else:  # a constant factor or divisor
                c = consts[0] if parts[1] else consts[1]
                for t in terms:
                    t[2].extend([(_CONST, float(c)), (op, None)])
                const = None if None in consts else _apply(op, None, consts)
            stack[k:] = [(start, terms, const)]
    _, terms, const = stack[0]
    groups, sums = {}, {}  # root: its axes, and its terms' programs
    for axis in range(dimension):
        groups.setdefault(axis if parent[axis] == axis else find(axis), []).append(axis)
    local = {a: i for root in {find(t[0]) for t in terms} for i, a in enumerate(groups[root])}
    for axis, span, applied in terms:
        code = [(_VAR, local[a]) if o is _VAR else (o, a) for o, a in program[span]]
        sums.setdefault(find(axis), []).append(code + applied)
    keys = tuple(
        tuple(itertools.chain(*codes, [(_SUM, (False,) * len(codes))] if len(codes) > 1 else []))
        if codes else ((_CONST, 0.0),) for codes in map(sums.get, groups))
    return tuple(map(tuple, groups.values())), keys, 0.0 if const is None else float(const)


class _CompiledPotential:
    """V(x) of a parsed expression, with its exact gradient.

    Calling it on x of shape (..., N) returns V of shape (...);
    gradient(x) returns shape (..., N).  Given a block index j, both run
    block j's own program W_j on x of shape (..., len(blocks[j])), the
    block's columns.  blocks, block_keys and constant are described in the
    module docstring.  Hashable by identity; copied and pickled as
    parse_potential(text, dimension).
    """

    def __init__(self, text: str, program, dimension: int):
        self._text, self._program = text, program
        self.dimension = dimension
        self.blocks, self.block_keys, self.constant = _blocks(program, dimension)
        self._kernels = {}  # block: its (value, gradient) kernels, traced on the first call

    def __reduce__(self):
        return parse_potential, (self._text, self.dimension)

    def _run(self, x, gradient: bool, block):
        """(columns, x's batch shape, (label, value) pairs of the value or
        gradient kernel on x).  x's last axis must hold exactly the columns it
        reads."""
        n = self.dimension if block is None else len(self.blocks[block])
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (n,):
            raise ValidationError(f"expected x of shape (..., {n}), got {x.shape}")
        kernels = self._kernels.get(block)
        if kernels is None:
            program = self._program if block is None else self.block_keys[block]
            kernels = self._kernels[block] = _trace(program, n)
        return n, x.shape[:-1], _replay(kernels[gradient], [x[..., k] for k in range(n)])

    def __call__(self, x, block=None):
        _, shape, [(_, v)] = self._run(x, False, block)
        v = np.asarray(v, dtype=float)
        return v if v.shape == shape else np.full(shape, v)

    def gradient(self, x, block=None):
        n, shape, partials = self._run(x, True, block)
        out = np.zeros(shape + (n,))
        for axis, d in partials:
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
    program = []
    try:
        with warnings.catch_warnings():
            # Python only warns of some forms outside the grammar, as '1and x1'
            warnings.simplefilter("error")
            body = ast.parse(source, mode="eval").body
        _compile(body, source, dimension, program)
    except SyntaxError as exc:
        raise ValidationError(f"invalid expression: {exc.msg}") from exc
    except (RecursionError, MemoryError) as exc:
        # Python's parser reports input too deep for its own stack as MemoryError
        raise ValidationError("expression nests too deeply to parse") from exc
    return _CompiledPotential(text, program, dimension)
