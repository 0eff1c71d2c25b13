"""Second-order semiclassical (h^2) expansion for smooth potentials.

Z0 = int exp(-V/T) dx, Z2 = 1/(24 m T^3) int exp(-V/T) |grad V|^2 dx and the
mean potential <V> are evaluated by tensor-product Gauss-Legendre quadrature
over automatically chosen bounds, one small grid per block of coupled axes.
A potential V = c + sum_j V_j(x_{B_j}) over disjoint blocks B_j factorizes by
Fubini.  With U_j the potential on block j and every other axis at 0,

    log Z0 = sum_j log z_j + (N_b - 1) V(0)/T,  z_j = int exp(-U_j/T) dx_{B_j}
    <V>    = sum_j <U_j>_j - (N_b - 1) V(0)
    Z2/Z0  = sum_j <|grad_{B_j} V|^2>_j / (24 m T^3)

so a separable potential costs N grids of one axis, in any dimension, and
only the largest block counts against MAX_TENSOR_DIMENSION.  The built-in
harmonic potential declares one block per axis, a parsed potential joins the
axes of each of its separate terms (see qcthermo.expressions), and an opaque
callable is one block.  Each block finds its own box: the face probes of all
blocks' searches are batched into a few calls of the potential, then each
block of several axes probes its corners.  The grids of every block and of
both orders are packed into batches of at most CHUNK_POINTS nodes, so V and
its gradient are called once per batch and evaluated once per node, and all
moments come from the same Boltzmann factor.  Each block's moments are
checked on their own against a reduced-order rule, and a moment that is not
finite is rejected.  Z0 is carried as its logarithm.  The gradient is exact
for the built-in harmonic potential and for potentials parsed by
:func:`qcthermo.expressions.parse_potential`; only an opaque callable without
a gradient falls back to central differences.  The quartet predictions follow

    Z_r ~ (2 pi m T)^(N/2) (Z0 - h^2 Z2)
    F_r ~ F_c + h^2 T Z2/Z0
    E_r ~ E_c + 2 h^2 T Z2/Z0
    S_r ~ S_c + h^2 Z2/Z0.
"""

from __future__ import annotations

import functools
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
# nodes per slab of the quadrature pass; bounds its working memory
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
    only; the quadrature then integrates each block on its own grid.  When
    None it is adopted from value.blocks, as gradient is, and otherwise all
    axes form one block.  A wrong partition gives wrong moments.
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
        if sorted(k for block in self.blocks for k in block) != list(range(self.dimension)):
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


def harmonic_potential(m: float, omegas) -> PotentialField:
    """V(x) = sum m*omega_k^2*x_k^2/2 with analytic gradient, one block per axis."""
    omegas = np.asarray([float(w) for w in omegas])
    if np.any(omegas <= 0) or m <= 0:
        raise ValidationError("need m > 0 and omega_k > 0")

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * m * np.sum(omegas**2 * x**2, axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return m * omegas**2 * x

    return PotentialField(
        dimension=len(omegas),
        value=value,
        gradient=gradient,
        scale=float(1.0 / omegas.min()),
        blocks=tuple((k,) for k in range(len(omegas))),
    )


def _origin(potential: PotentialField, T: float) -> float:
    """V(0), checked so that exp(-V(0)/T) neither is nan nor underflows to 0."""
    v0 = float(potential.value(np.zeros(potential.dimension)))
    # the quadrature sums exp(-V/T) unshifted, so it must not underflow to 0
    # here; one that overflows fails the quadrature's finiteness check
    if not (math.isfinite(v0) and math.exp(min(-v0 / T, 0.0)) > 0.0):
        raise IntegrationError("potential not finite at the origin")
    return v0


@functools.lru_cache(maxsize=None)
def _signs(d: int) -> np.ndarray:
    """The 2^d sign patterns of a box's corners, (+, ..., +) first; read-only."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    signs.flags.writeable = False
    return signs


# rungs of each ladder probed per round of the automatic bounds: enough for
# the usual few doublings, and then the few shrinks, to take one round each
_RUNGS = 8


def _slab_points(n: int) -> int:
    """Points per call of the evaluators: at most CHUNK_POINTS, and at most
    CHUNK_POINTS * MAX_TENSOR_DIMENSION coordinates where n allows."""
    return max(1, min(CHUNK_POINTS, CHUNK_POINTS * MAX_TENSOR_DIMENSION // n))


def _ladders(starts, factors, width: int) -> np.ndarray:
    """Row i is starts[i] times factors[i] again and again, width rungs,
    multiplied in order as repeated products are."""
    ladders = np.empty((len(starts), width))
    ladders[:, 0] = starts
    ladders[:, 1:] = np.reshape(factors, (-1, 1))
    return np.multiply.accumulate(ladders, axis=1)


def _exponents(potential: PotentialField, T: float, v0: float, axes, coords) -> np.ndarray:
    """-(V - v0)/T at coords, of shape (g, m, d), in shape (g, m).

    The m points of row i lie on the axes axes[i] (axes has shape (g, d)),
    every other axis at 0.  They are evaluated _slab_points at a time.
    """
    g, m, d = coords.shape
    cols, vals = axes.repeat(m, axis=0), coords.reshape(g * m, d)
    v = np.empty(g * m)
    step = _slab_points(potential.dimension)
    for start in range(0, g * m, step):
        s = slice(start, min(start + step, g * m))
        x = np.zeros((s.stop - start, potential.dimension))
        x[np.arange(len(x))[:, None], cols[s]] = vals[s]
        v[s] = potential.value(x)
    return (-(v - v0) / T).reshape(g, m)


def _half_widths(potential: PotentialField, T: float, v0: float, axes: list[int], cutoff: float):
    """({axis: its half-width or the IntegrationError its search ends in},
    the axes whose two faces at that half-width were both not nan).

    A half-width doubles from potential.scale until the exponents at both
    faces, +half and -half, are below the cutoff, then shrinks by 0.85 while
    they stay below, so the quadrature window stays as tight as the decay
    allows (wide windows waste Gauss-Legendre nodes).  Each round probes the
    next _RUNGS rungs of every pending axis in one pass and reads them in
    order; rungs past a turn or an end are ignored.
    """
    rise = math.log(0.999999)
    ends, clean = {}, set()
    # per pending axis: the next rung, its factor (2.0 doubling, 0.85
    # shrinking), the last face exponent (doubling) or the half-width accepted
    # so far (shrinking), the rungs doubled, and whether the accepted
    # half-width's -half face was not nan (its +half face is not)
    state = {k: (potential.scale, 2.0, math.inf, 0, False) for k in axes}
    while state:
        keys = list(state)
        rungs = _ladders([state[k][0] for k in keys], [state[k][1] for k in keys], _RUNGS)
        faces = _exponents(
            potential, T, v0,
            np.array(keys)[:, None], (rungs.reshape(-1, 1, 1) * _signs(1)).reshape(len(keys), -1, 1),
        )
        for k, ladder, pairs in zip(keys, rungs.tolist(), faces.reshape(len(keys), -1, 2).tolist()):
            _, factor, last, doubled, seen = state.pop(k)
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
                        clean.add(k)
                    break
            if end is None:
                state[k] = (factor * rung, factor, last, doubled, seen)
            else:
                ends[k] = end
    return ends, clean


def _auto_bounds(
    potential: PotentialField, T: float, blocks: tuple[tuple[int, ...], ...], v0: float
) -> list[tuple[tuple[float, float], ...]]:
    """One symmetric box per block with exp(-V/T) < 1e-16 * exp(-v0/T) outside.

    Each block is probed on its own axes with every other axis at 0, and v0
    is V(0) (see _origin).  Boltzmann factors are compared through their
    exponents relative to the origin, -(V - V(0))/T against log(1e-16), so no
    probe overflows however deep the potential dips.  Every axis's faces are
    searched at once (_half_widths), then each block's corners in turn.
    Boxes and errors are those of searching block by block and axis by axis:
    the first error in that order is raised.
    """
    cutoff = math.log(1e-16)
    halves, clean = _half_widths(potential, T, v0, [k for block in blocks for k in block], cutoff)
    boxes = []
    for block in blocks:
        for k in block:
            if isinstance(halves[k], Exception):
                raise halves[k]
        box = [halves[k] for k in block]
        # corners may decay slower than face centers for non-separable
        # potentials, along any diagonal: all 2^d of the block's are probed
        # (d <= MAX_TENSOR_DIMENSION).  A one-axis block's corners are its
        # faces, which _half_widths has probed: they pass if neither was nan
        if not (len(block) == 1 and block[0] in clean):
            for _ in range(60):
                corners = _signs(len(block)) * box
                if float(_exponents(potential, T, v0, np.array([block]), corners[None]).max()) < cutoff:
                    break
                box = [1.3 * h for h in box]
            else:
                raise IntegrationError("could not bound the integration domain")
        boxes.append(tuple((-h, h) for h in box))
    return boxes


@functools.lru_cache(maxsize=None)
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _grid_batches(grids, n: int):
    """The nodes of tensor Gauss-Legendre grids, packed into batches.

    grids is a list of (bounds, order, axes): axis axes[i] runs over
    bounds[i], every other of the n coordinates is 0, and the nodes are in C
    order (leading axis slowest).  A grid of at most _slab_points(n) nodes
    joins the current batch if it fits and starts the next one if not; a
    larger grid is cut into slabs of that many nodes, each a batch of its
    own.  So a batch never holds more than CHUNK_POINTS nodes, nor more than
    CHUNK_POINTS * MAX_TENSOR_DIMENSION coordinates where n allows, and a
    block of a potential in many dimensions is streamed in small batches too.

    Yields (x, w, pieces): x of shape (batch, n), product weights w of shape
    (batch,), and the grid pieces in the batch, those cut alike (same order,
    block size and node range) together as (grid indices, their nodes'
    positions in the batch of shape (g, piece), their axes of shape (g, d)).
    """
    step = _slab_points(n)
    plan, used = [], step
    for i, (_, order, axes) in enumerate(grids):
        total = order ** len(axes)
        if total > step:
            plan += [[(i, s, min(s + step, total))] for s in range(0, total, step)]
            used = step
        elif used + total <= step:
            plan[-1].append((i, 0, total))
            used += total
        else:
            plan.append([(i, 0, total)])
            used = total
    for batch in plan:
        alike, at = {}, 0
        for i, start, stop in batch:
            _, order, axes = grids[i]
            alike.setdefault((order, len(axes), start, stop), []).append((i, at))
            at += stop - start
        # axis-major storage keeps each coordinate x[..., k] contiguous, which
        # makes the evaluators' per-axis arithmetic several times faster
        x, w, pieces = np.zeros((n, at)), np.empty(at), []
        for (order, d, start, stop), members in alike.items():
            members, offsets = zip(*members)
            rows = np.array(offsets)[:, None] + np.arange(stop - start)
            axes = np.array([grids[i][2] for i in members])
            lo, hi = np.array([grids[i][0] for i in members], dtype=float).transpose(2, 0, 1)
            mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
            nodes, weights = _rule(order)
            index = np.unravel_index(np.arange(start, stop), (order,) * d)
            for k, i in enumerate(index):
                x[axes[:, k, None], rows] = mid[:, k, None] + rad[:, k, None] * nodes[i]
                wk = rad[:, k, None] * weights[i]
                w[rows] = wk if k == 0 else w[rows] * wk
            pieces.append((members, rows, axes))
        yield x.T, w, pieces


# columns of a block's moments (see _boltzmann_moments)
INT_B, INT_BV, INT_B_ABS_V, INT_B_GRAD2 = range(4)


# a Boltzmann factor beyond float range makes a moment non-finite, which
# _stable reports in one line; numpy need not warn about it as well
@np.errstate(over="ignore", invalid="ignore")
def _boltzmann_moments(
    potential: PotentialField, T: float, gradient=None
) -> tuple[float, list[np.ndarray]]:
    """(V(0) * (N_b - 1), per-block moments) over the potential's N_b blocks.

    Block j's moments are those of b = exp(-U_j/T), with U_j the potential on
    the block's axes and every other axis at 0, in the columns INT_B, INT_BV,
    INT_B_ABS_V and INT_B_GRAD2: int b, int b*U_j, int b*|U_j| and
    int b*|grad_{B_j} V|^2.  Row 0 holds them at QUADRATURE_ORDER, row 1 at
    CHECK_ORDER (see _stable).  Every block's box is found first; then the
    grids of all blocks and both orders are packed into batches
    (_grid_batches), V and the gradient are evaluated once per batch, and
    memory stays O(CHUNK_POINTS) in any dimension.  A grid piece's four
    moments are row sums of one (4, piece) array, and a grid's pieces are
    added with math.fsum.  The gradient moment is 0 when no gradient is given.
    """
    n, blocks = potential.dimension, potential.blocks
    largest = max(len(block) for block in blocks)
    if largest > MAX_TENSOR_DIMENSION:
        raise ValidationError(
            f"tensor quadrature limited to N <= {MAX_TENSOR_DIMENSION} coupled axes, got {largest}"
        )
    # V(0) serves the automatic bounds and the offset between blocks; a single
    # block over explicit bounds never evaluates it
    v0 = _origin(potential, T) if potential.bounds is None or len(blocks) > 1 else 0.0
    # every box is found before any grid is integrated, so a block that does
    # not decay is rejected early
    if potential.bounds is None:
        boxes = _auto_bounds(potential, T, blocks, v0)
    else:
        boxes = [[potential.bounds[k] for k in axes] for axes in blocks]
    grids = [
        (bounds, order, axes)
        for axes, bounds in zip(blocks, boxes)
        for order in (QUADRATURE_ORDER, CHECK_ORDER)
    ]
    partials = [[] for _ in grids]
    for x, w, pieces in _grid_batches(grids, n):
        v = potential.value(x)
        b = np.exp(-v / T) * w
        bv = b * v
        grad = None if gradient is None else gradient(x)
        for members, rows, axes in pieces:
            terms = np.empty((4,) + rows.shape)
            terms[INT_B] = b[rows]
            terms[INT_BV] = bv[rows]
            np.abs(terms[INT_BV], out=terms[INT_B_ABS_V])
            if grad is None:
                terms[INT_B_GRAD2] = 0.0
            else:
                # |grad|^2 summed over the block's axes in order, as sum does
                # below 8 terms
                grad2 = (grad[rows[..., None], axes[:, None, :]] ** 2).sum(axis=-1)
                np.multiply(terms[INT_B], grad2, out=terms[INT_B_GRAD2])
            for i, sums in zip(members, terms.sum(axis=-1).T.tolist()):
                partials[i].append(sums)
    # fsum keeps the number of slabs out of the rounding error
    moments = [[math.fsum(column) for column in zip(*slabs)] for slabs in partials]
    return (len(blocks) - 1) * v0, [np.array(moments[2 * j : 2 * j + 2]) for j in range(len(blocks))]


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
        raise IntegrationError(
            f"quadrature unstable: {value} vs {check} at reduced order"
        )
    return value


def _log_z0(offset: float, blocks: list[np.ndarray], T: float) -> float:
    """log Z0 = sum_j log z_j + (N_b - 1) V(0)/T, each z_j checked."""
    return math.fsum(math.log(_stable(moments, INT_B)) for moments in blocks) + offset / T


def _grad2_mean(blocks: list[np.ndarray], m: float, T: float) -> float:
    """Z2/Z0 = sum_j <|grad_{B_j} V|^2>_j / (24 m T^3), each block checked."""
    try:
        scale = 24.0 * m * T**3
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise IntegrationError("24 m T^3 is beyond float range")
    return math.fsum(
        _stable(moments, INT_B_GRAD2) / scale / float(moments[0, INT_B]) for moments in blocks
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
    return _exp(_log_z0(*_boltzmann_moments(potential, T), T))


def z2_integral(potential: PotentialField, T: float, m: float) -> float:
    """First quantum correction 1/(24 m T^3) int exp(-V/T) |grad V|^2 dx."""
    if T <= 0 or m <= 0:
        raise ValidationError("need T > 0 and m > 0")
    offset, blocks = _boltzmann_moments(potential, T, potential.gradient_or_fd())
    log_z0 = _log_z0(offset, blocks, T)
    return _exp(log_z0) * _grad2_mean(blocks, m, T)


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
    n = potential.dimension
    offset, blocks = _boltzmann_moments(potential, T, potential.gradient_or_fd())
    log_z0 = _log_z0(offset, blocks, T)
    ratio = _grad2_mean(blocks, m, T)
    v_mean = math.fsum(
        _stable(moments, INT_BV, INT_B_ABS_V) / moments[0, INT_B] for moments in blocks
    ) - offset

    # 2 pi m T is a positive float wherever 24 m T^3 is (_grad2_mean)
    log_prefactor = 0.5 * n * math.log(2.0 * math.pi * m * T)
    f_c = -T * (log_prefactor + log_z0)
    e_c = 0.5 * n * T + v_mean
    s_c = (e_c - f_c) / T

    param = h * h * ratio
    zr = _exp(log_prefactor + log_z0) * (1.0 - param)
    fr = f_c + h * h * T * ratio
    er = e_c + 2.0 * h * h * T * ratio
    sr = s_c + h * h * ratio
    return KWPrediction(
        Zr=zr,
        Fr=fr,
        Er=er,
        Sr=sr,
        z2_over_z0=ratio,
        expansion_parameter=param,
        within_validity=param < EXPANSION_VALIDITY,
    )
