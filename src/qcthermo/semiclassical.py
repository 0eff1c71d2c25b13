"""Second-order semiclassical (h^2) expansion for smooth potentials.

Z0 = int exp(-V/T) dx, Z2 = 1/(24 m T^3) int exp(-V/T) |grad V|^2 dx and the
mean potential <V> are evaluated by tensor-product Gauss-Legendre quadrature
over automatically chosen bounds.  A potential V = c + sum_j W_j(x_{B_j})
over disjoint blocks B_j factorizes by Fubini.  With the sums over distinct
blocks and k_j the number of blocks equal to block j,

    log Z0 = sum_j k_j log z_j - c/T,  z_j = int exp(-W_j/T) dx_{B_j}
    <V>    = sum_j k_j <W_j>_j + c
    Z2/Z0  = sum_j k_j <|grad W_j|^2>_j / (24 m T^3)

Each W_j runs on its block's own columns, so a separable potential costs one
grid of one axis per distinct block, in any dimension, and only the largest
block counts against MAX_TENSOR_DIMENSION.  The built-in harmonic potential
has one block per axis, equal where the frequencies are; a parsed potential
joins the axes of each of its separate terms, and its blocks are equal where
their own programs are (see qcthermo.expressions).  An opaque callable is
one block of all N axes (see PotentialField._split).  Each distinct block
finds its own box from its own origin: every round probes the faces of all
blocks, with one call per block, then each block probes its corners.  Both
orders of its grid are packed into batches of at most CHUNK_POINTS nodes, so
W_j and its gradient are called once per batch and evaluated once per node,
and all moments come from the same Boltzmann factor.  Each block's moments
are checked on their own against a reduced-order rule, and a moment that is
not finite is rejected.  Z0 is carried as its logarithm.  The gradient is
exact for the built-in harmonic potential and for potentials parsed by
:func:`qcthermo.expressions.parse_potential`; only an opaque callable without
a gradient falls back to central differences.  The quartet predictions follow

    Z_r ~ (2 pi m T)^(N/2) (Z0 - h^2 Z2)
    F_r ~ F_c + h^2 T Z2/Z0
    E_r ~ E_c + 2 h^2 T Z2/Z0
    S_r ~ S_c + h^2 Z2/Z0.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import IntegrationError, PhysicalParams, ValidationError

__all__ = [
    "PotentialField",
    "harmonic_potential",
    "z0_integral",
    "z2_integral",
    "KWPrediction",
    "kw_expansion",
]

MAX_TENSOR_DIMENSION = 4
QUADRATURE_ORDER = 64
# self-check order: a moment whose value moves by more than 1e-8 between the
# two rules is rejected
CHECK_ORDER = 3 * QUADRATURE_ORDER // 4
ORDERS = (QUADRATURE_ORDER, CHECK_ORDER)
# nodes per batch of the quadrature pass; bounds its working memory
CHUNK_POINTS = 1 << 13
# expansion parameter h^2 * Z2/Z0 beyond which predictions are flagged
EXPANSION_VALIDITY = 0.1

FD_GRADIENT_STEP = 1e-6


@dataclass(frozen=True)
class PotentialField:
    """Potential on R^N: vectorized evaluator and optional gradient.

    value takes an array of shape (..., N) and returns shape (...);
    gradient returns shape (..., N).  When gradient is None it is adopted
    from value.gradient if value has one, as a parsed expression does, so
    PotentialField(dimension=n, value=parse_potential(text, n)) has an exact
    gradient.  bounds, when given, is a sequence of per-axis (lo, hi) pairs;
    otherwise bounds are grown automatically until the Boltzmann factor is
    negligible on the boundary.  scale is the potential's length scale: the
    first half-width tried by the automatic bounds and, for an opaque value
    with no gradient, the unit of the finite-difference step.

    blocks partitions the axes 0..N-1 into disjoint tuples such that V is a
    constant plus one term per block, each depending on that block's axes
    only.  When None it is adopted from value.blocks, as gradient is, and
    otherwise all axes form one block.  The quadrature integrates each block
    on its own grid where value evaluates each block on its own columns, as
    parsed expressions and harmonic_potential do: beside blocks it has a
    constant c and block_keys, and value(y, j) and gradient(y, j) give W_j
    and its gradient on y of shape (..., len(blocks[j])), where V = c +
    sum_j W_j and blocks with equal keys are equal functions.  A wrapper that
    passes its arguments on and sets __wrapped__ keeps this.  Any other
    value, or one whose blocks or gradient were replaced, is integrated as
    one block of all N axes.
    """

    dimension: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    bounds: tuple[tuple[float, float], ...] | None = None
    scale: float = 1.0
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"scale must be finite and positive, got {self.scale}")
        # adopted values are set on the instance, so dataclasses.replace
        # carries them over
        if self.gradient is None:
            object.__setattr__(self, "gradient", getattr(self.value, "gradient", None))
        if self.blocks is None:
            blocks = getattr(self.value, "blocks", None) or (tuple(range(self.dimension)),)
            object.__setattr__(self, "blocks", blocks)
        if sorted(itertools.chain(*self.blocks)) != list(range(self.dimension)):
            raise ValidationError(
                f"blocks {self.blocks} do not partition the axes 0..{self.dimension - 1}"
            )

    def gradient_or_fd(self) -> Callable[[np.ndarray], np.ndarray]:
        """The exact gradient, or central differences for an opaque value."""
        if self.gradient is not None:
            return self.gradient
        step = FD_GRADIENT_STEP * self.scale

        def fd(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape)
            for k in range(self.dimension):
                dx = np.zeros(x.shape[-1])
                dx[k] = step
                out[..., k] = (self.value(x + dx) - self.value(x - dx)) / (2.0 * step)
            return out

        return fd

    def _split(self):
        """(c, [(axes, k, W, grad W)]) with V = c + sum of k W over the distinct blocks.

        W and grad W take arrays of shape (points, len(axes)), the block's own
        columns.  A value that evaluates its blocks on their own columns (see
        above), with its own gradient, is called through self.value and
        self.gradient with the block's index, and blocks with equal keys are
        integrated once, unless bounds are explicit.  Any other value is one
        block of all N axes, called on N-vectors.
        """
        inner, grad = inspect.unwrap(self.value), self.gradient_or_fd()
        if not (
            hasattr(inner, "block_keys")
            and inner.blocks == self.blocks
            and inspect.unwrap(grad) == inner.gradient
        ):
            return 0.0, [(tuple(range(self.dimension)), 1, self.value, grad)]
        groups = {}
        for j, key in enumerate(inner.block_keys):
            groups.setdefault(j if self.bounds else key, []).append(j)
        return inner.constant, [
            (self.blocks[js[0]], len(js), functools.partial(self.value, block=js[0]),
             functools.partial(grad, block=js[0]))
            for js in groups.values()
        ]


def harmonic_potential(m: float, omegas) -> PotentialField:
    """V(x) = sum m*omega_k^2*x_k^2/2 with analytic gradient, one block per axis.

    Block k is (0.5*m)*(omega_k^2*x_k^2); axes of equal frequency are equal
    blocks.
    """
    omegas = [float(w) for w in omegas]
    if not all(w > 0 for w in omegas) or m <= 0:
        raise ValidationError("need m > 0 and omega_k > 0")
    # Python floats, so a square beyond float range is inf without a warning
    squares = np.array([w * w for w in omegas])

    def value(x, block=None):
        x = np.asarray(x, dtype=float)
        if block is None:
            return 0.5 * m * np.sum(squares * x**2, axis=-1)
        return 0.5 * m * (squares[block] * x[..., 0] ** 2)

    def gradient(x, block=None):
        return m * (squares if block is None else squares[block]) * np.asarray(x, dtype=float)

    value.gradient, value.constant = gradient, 0.0
    value.blocks, value.block_keys = tuple((k,) for k in range(len(omegas))), omegas
    return PotentialField(dimension=len(omegas), value=value, scale=1.0 / min(omegas))


@functools.lru_cache(maxsize=None)
def _signs(d: int) -> np.ndarray:
    """The 2^d sign patterns of a box's corners, (+, ..., +) first; read-only."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    signs.flags.writeable = False
    return signs


# rungs of each ladder probed per round of the automatic bounds: enough for
# the usual few doublings, and then the few shrinks, to take one round each
_RUNGS = 8


def _boxes(parts, T: float, scale: float) -> list[tuple[tuple[float, float], ...]]:
    """A symmetric box for each distinct block (axes, k, W, grad W) of parts,
    with exp(-W/T) < 1e-16 * exp(-W(0)/T) outside.

    Boltzmann factors are compared through their exponents relative to the
    block's origin, -(W - W(0))/T against log(1e-16), so no probe overflows
    however deep the potential dips.  A half-width doubles from scale until
    the exponents at both faces, +half and -half with every other axis at 0,
    are below the cutoff, then shrinks by 0.85 while they stay below, so the
    quadrature window stays as tight as the decay allows (wide windows waste
    Gauss-Legendre nodes).  Each round probes the next _RUNGS rungs of every
    pending axis of every block, with one call of each block's W that also
    takes W(0), and reads them in order; rungs past a turn or an end are
    ignored.  Then each block's corners are probed.  Boxes and errors are
    those of searching block by block and axis by axis: the first error in
    that order is raised.  W(0) is checked before any: the quadrature sums
    exp(-W/T) unshifted, so it must not underflow to 0 there (one that
    overflows fails the quadrature's finiteness check).
    """
    rise, cutoff = math.log(0.999999), math.log(1e-16)
    # per pending (block, axis): the next rung, its factor (2.0 doubling, 0.85
    # shrinking), the last face exponent (doubling) or the half-width accepted
    # so far (shrinking), the rungs doubled, and whether the accepted
    # half-width's -half face was not nan (its +half face is not); the keys
    # stay in block order
    keys = [(j, k) for j, (axes, *_) in enumerate(parts) for k in range(len(axes))]
    state = dict.fromkeys(keys, (scale, 2.0, math.inf, 0, False))
    halves, clean, origins = {}, set(), {}
    while state:
        keys = list(state)
        # each axis's rungs: its next rung times its factor again and again,
        # multiplied in order as repeated products are
        ladders = [state[key][:1] + state[key][1:2] * (_RUNGS - 1) for key in keys]
        rungs = np.multiply.accumulate(ladders, axis=1)
        faces, exponents = (rungs[:, :, None] * _signs(1)[:, 0]).reshape(len(keys), -1), []
        for j, group in itertools.groupby(keys, key=lambda key: key[0]):
            axes, _, value, _ = parts[j]
            pending = [k for _, k in group]
            # W(0), then the faces of each pending axis
            y = np.zeros((1 + faces.shape[1] * len(pending), len(axes)))
            rows = faces[len(exponents) : len(exponents) + len(pending)]
            for i, k in enumerate(pending):
                y[1:].reshape(len(pending), -1, len(axes))[i, :, k] = rows[i]
            v = value(y)
            origins[j] = w0 = float(v[0])
            if not (math.isfinite(w0) and math.exp(min(-w0 / T, 0.0)) > 0.0):
                raise IntegrationError("potential not finite at the origin")
            exponents += (-(v[1:] - w0) / T).reshape(len(pending), -1, 2).tolist()
        for key, ladder, pairs in zip(keys, rungs.tolist(), exponents):
            _, factor, last, doubled, seen = state.pop(key)
            end = None
            for rung, (lo, hi) in zip(ladder, pairs):
                # Python's max, so a nan at the -half face alone is passed over
                val = max(lo, hi)
                if factor == 2.0:
                    if val < cutoff:
                        factor, last, seen = 0.85, rung, hi == hi
                        break
                    if val > last + rise and val >= 0.0:
                        end = IntegrationError(
                            "Boltzmann factor does not decay; potential looks non-integrable"
                        )
                        break
                    last, doubled = val, doubled + 1
                    if doubled == 200:
                        end = IntegrationError("could not bound the integration domain")
                        break
                elif val < cutoff:
                    # an infinite half-width cannot shrink
                    if rung == last:
                        end = IntegrationError("could not bound the integration domain")
                        break
                    last, seen = rung, hi == hi
                else:
                    end = last
                    if seen:
                        clean.add(key)
                    break
            if end is None:
                state[key] = (factor * rung, factor, last, doubled, seen)
            else:
                halves[key] = end
    boxes = []
    for j, (axes, _, value, _) in enumerate(parts):
        box = [halves[j, k] for k in range(len(axes))]
        for h in box:
            if isinstance(h, Exception):
                raise h
        # corners may decay slower than face centers for non-separable
        # potentials, along any diagonal: all 2^d are probed (d <=
        # MAX_TENSOR_DIMENSION).  A one-axis block's corners are its faces,
        # which have been probed: they pass if neither was nan
        if not (len(axes) == 1 and (j, 0) in clean):
            for _ in range(60):
                if float((-(value(_signs(len(axes)) * box) - origins[j]) / T).max()) < cutoff:
                    break
                box = [1.3 * h for h in box]
            else:
                raise IntegrationError("could not bound the integration domain")
        boxes.append(tuple((-h, h) for h in box))
    return boxes


def _axes(d: int, batch: tuple) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the nodes and weights of a batch's pieces (row, start, stop),
    each the C-order nodes start..stop of the ORDERS[row]^d Gauss-Legendre
    grid on [-1, 1]^d (leading axis slowest), one after another."""
    pieces = []
    for row, start, stop in batch:
        nodes, weights = np.polynomial.legendre.leggauss(ORDERS[row])
        index = np.unravel_index(np.arange(start, stop), (ORDERS[row],) * d)
        pieces.append([(nodes[i], weights[i]) for i in index])
    return [tuple(map(np.concatenate, zip(*axis))) for axis in zip(*pieces)]


# the batches that hold whole grids are kept; slabs of larger grids are not
_batch_axes = functools.lru_cache(maxsize=None)(_axes)


def _grid_batches(box):
    """The nodes of the ORDERS tensor Gauss-Legendre grids over box, in batches.

    box is one (lo, hi) pair per axis.  Both grids form one batch if together
    they have at most CHUNK_POINTS nodes; otherwise each grid is cut into
    slabs of that many nodes, each a batch of its own.  Yields (y, w,
    pieces): y of shape (batch, d), product weights w of shape (batch,), and
    the grid pieces in the batch as (row, slice of the batch), row i for
    ORDERS[i].
    """
    d, step = len(box), CHUNK_POINTS
    sizes = [order**d for order in ORDERS]
    if sum(sizes) <= step:
        plan = [((0, 0, sizes[0]), (1, 0, sizes[1]))]
    else:
        plan = [
            ((row, a, min(a + step, n)),) for row, n in enumerate(sizes) for a in range(0, n, step)
        ]
    lo, hi = np.array(box, dtype=float).T
    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    for batch in plan:
        ends = list(itertools.accumulate(stop - start for _, start, stop in batch))
        # axis-major storage keeps each coordinate y[..., k] contiguous, which
        # makes the evaluators' per-axis arithmetic several times faster
        y = np.empty((d, ends[-1]))
        for k, (nodes, weights) in enumerate((_batch_axes if len(plan) == 1 else _axes)(d, batch)):
            y[k] = mid[k] + rad[k] * nodes
            wk = rad[k] * weights
            w = wk if k == 0 else w * wk
        yield y.T, w, [(row, slice(end - (b - a), end)) for (row, a, b), end in zip(batch, ends)]


# columns of a block's moments (see _boltzmann_moments)
INT_B, INT_BV, INT_B_ABS_V, INT_B_GRAD2 = range(4)


def _boltzmann_moments(
    potential: PotentialField, parts, T: float, with_gradient: bool = False
) -> list[tuple[int, np.ndarray]]:
    """(k, moments) for each distinct block (axes, k, W, grad W) of parts.

    A block's moments are those of b = exp(-W/T) over its own columns, in
    the columns INT_B, INT_BV, INT_B_ABS_V and INT_B_GRAD2: int b, int b*W,
    int b*|W| and int b*|grad W|^2 (0 without with_gradient).  Row 0 holds
    them at QUADRATURE_ORDER, row 1 at CHECK_ORDER (see _stable).  Every
    block's box is found first; then W and its gradient are evaluated once
    per batch of the block's grids (_grid_batches), and memory stays
    O(CHUNK_POINTS).  A grid piece's four moments are row sums of one
    (4, piece) array, and a grid's pieces are added with math.fsum.
    """
    largest = max(len(axes) for axes, *_ in parts)
    if largest > MAX_TENSOR_DIMENSION:
        raise ValidationError(
            f"tensor quadrature limited to N <= {MAX_TENSOR_DIMENSION} coupled axes, got {largest}"
        )
    # every box is found before any grid is integrated, so a block that does
    # not decay is rejected early
    if potential.bounds is None:
        boxes = _boxes(parts, T, potential.scale)
    else:
        boxes = [[potential.bounds[k] for k in axes] for axes, *_ in parts]
    out = []
    for (_, count, value, gradient), box in zip(parts, boxes):
        partials = ([], [])
        for y, w, pieces in _grid_batches(box):
            v = value(y)
            terms = np.empty((4, len(w)))
            terms[INT_B] = np.exp(-v / T) * w
            np.multiply(terms[INT_B], v, out=terms[INT_BV])
            np.abs(terms[INT_BV], out=terms[INT_B_ABS_V])
            if with_gradient:
                # |grad W|^2 summed over the block's axes in order, as sum
                # does below 8 terms
                np.multiply(terms[INT_B], (gradient(y) ** 2).sum(axis=-1), out=terms[INT_B_GRAD2])
            else:
                terms[INT_B_GRAD2] = 0.0
            for row, piece in pieces:
                partials[row].append(terms[:, piece].sum(axis=-1).tolist())
        # fsum keeps the number of slabs out of the rounding error
        out.append((count, np.array([[math.fsum(c) for c in zip(*slabs)] for slabs in partials])))
    return out


def _stable(moments: np.ndarray, k: int, scale: int | None = None) -> float:
    """Moment k at QUADRATURE_ORDER, if finite and the CHECK_ORDER rule agrees.

    The two rules must agree to 1e-8 of |moment k|, or of moment scale when
    given: a moment of a sign-changing integrand is judged against the
    integral of its magnitude, so a mean near 0 is not held to 1e-8 of itself.
    """
    value, check = float(moments[0, k]), float(moments[1, k])
    if not (math.isfinite(value) and math.isfinite(check)):
        raise IntegrationError(f"quadrature not finite: {value} vs {check} at reduced order")
    size = abs(value) if scale is None else float(moments[0, scale])
    if abs(value - check) > 1e-8 * (size + 1e-300):
        raise IntegrationError(f"quadrature unstable: {value} vs {check} at reduced order")
    return value


# a Boltzmann factor beyond float range makes a moment non-finite, which
# _stable reports in one line; numpy need not warn about it as well
@np.errstate(over="ignore", invalid="ignore")
def _integrals(potential: PotentialField, T: float, with_gradient: bool):
    """(c, sum_j k_j log z_j, the blocks' (k, moments)), each z_j checked."""
    c, parts = potential._split()
    if not math.isfinite(c):
        raise IntegrationError("potential not finite at the origin")
    blocks = _boltzmann_moments(potential, parts, T, with_gradient)
    return c, math.fsum(k * math.log(_stable(moments, INT_B)) for k, moments in blocks), blocks


def _grad2_mean(blocks, m: float, T: float) -> float:
    """Z2/Z0 = sum_j k_j <|grad W_j|^2>_j / (24 m T^3), each block checked."""
    try:
        scale = 24.0 * m * T**3
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise IntegrationError("24 m T^3 is beyond float range")
    return math.fsum(
        k * (_stable(moments, INT_B_GRAD2) / scale / float(moments[0, INT_B]))
        for k, moments in blocks
    )


def _exp(x: float) -> float:
    """e^x, inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def z0_integral(potential: PotentialField, T: float) -> float:
    """Configuration integral int exp(-V/T) dx; inf where it overflows."""
    if T <= 0:
        raise ValidationError("T must be positive")
    c, log_z, _ = _integrals(potential, T, False)
    return _exp(log_z - c / T)


def z2_integral(potential: PotentialField, T: float, m: float) -> float:
    """First quantum correction 1/(24 m T^3) int exp(-V/T) |grad V|^2 dx."""
    if T <= 0 or m <= 0:
        raise ValidationError("need T > 0 and m > 0")
    c, log_z, blocks = _integrals(potential, T, True)
    return _exp(log_z - c / T) * _grad2_mean(blocks, m, T)


@dataclass(frozen=True)
class KWPrediction:
    Zr: float
    Fr: float
    Er: float
    Sr: float
    z2_over_z0: float
    expansion_parameter: float
    within_validity: bool


def kw_expansion(potential: PotentialField, params: PhysicalParams) -> KWPrediction:
    """Second-order predictions for the regularized quartet.

    Classical references are computed from the same quadrature: F_c from
    Z_c = (2 pi m T)^(N/2) Z0, E_c = N T/2 + <V>.
    """
    T, m, h = params.T, params.m, params.h
    c, log_z, blocks = _integrals(potential, T, True)
    ratio = _grad2_mean(blocks, m, T)
    v_mean = math.fsum(
        k * (_stable(moments, INT_BV, INT_B_ABS_V) / moments[0, INT_B]) for k, moments in blocks
    ) + c

    # 2 pi m T is a positive float wherever 24 m T^3 is (_grad2_mean)
    log_prefactor = 0.5 * potential.dimension * math.log(2.0 * math.pi * m * T)
    # c enters F in energy units, so a large c/T does not overflow it
    f_c = c - T * (log_prefactor + log_z)
    e_c = 0.5 * potential.dimension * T + v_mean
    s_c = (e_c - f_c) / T

    param = h * h * ratio
    return KWPrediction(
        Zr=_exp(log_prefactor + log_z - c / T) * (1.0 - param), Fr=f_c + h * h * T * ratio,
        Er=e_c + 2.0 * h * h * T * ratio, Sr=s_c + h * h * ratio, z2_over_z0=ratio,
        expansion_parameter=param, within_validity=param < EXPANSION_VALIDITY,
    )
