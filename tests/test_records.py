"""The package's records behave as frozen dataclasses over the same fields:
construction, equality, hash, repr, immutability and validation messages."""

import copy
import importlib
import inspect
import math
import pickle
import pkgutil

import pytest

import qcthermo
from qcthermo.core import (
    BoxGeometry,
    ComparisonReport,
    OscillatorSpec,
    PhysicalParams,
    ReducedParams,
    ThermoQuartet,
    ValidationError,
    _Record,
)
from qcthermo.gibbs import LevelSet, MinimizeResult, PhaseSpaceCheck, SimplexPoint
from qcthermo.oscillator import BernoulliSeries, MonotonicityCertificate
from qcthermo.semiclassical import KWPrediction
from qcthermo.sweeps import FitResult, SweepPlan, SweepResult, SweepRow
from qcthermo.theta import SlopeWitnesses, ThetaValue
from qcthermo.well import EntropyAsymptote, GeometricCoefficients

LOG2 = math.log(2.0)
PARAMS = PhysicalParams(T=1.0, h=0.1, m=1.0)
QUARTET = ThermoQuartet(
    Z=2.0, F=-LOG2, E=0.5, S=0.5 + LOG2, flavor="classical", T=1.0, log_Z=LOG2
)
PLAN = SweepPlan(
    "oscillator", "h_to_0", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), PARAMS,
    base_spec=OscillatorSpec([1.0]),
)
POINT = SimplexPoint((0.25, 0.75))

# each record's fields, in declaration order, with values its __init__ keeps
# as given; the flag says whether the fields are hashable
FIELDS = [
    (PhysicalParams, dict(T=1.0, h=0.1, m=1.0), True),
    (BoxGeometry, dict(distinct_edges=((1.0, 1), (2.0, 1))), True),
    (OscillatorSpec, dict(distinct_frequencies=((1.5, 1),)), True),
    (ReducedParams, dict(mu=(0.25,), tau=(), rho=0.125, lambda_theta=(20.0,), eps=0.25,
                         nu=0.25, delta=None, kappa=None), True),
    (ThermoQuartet, dict(Z=2.0, F=-LOG2, E=0.5, S=0.5 + LOG2, flavor="classical", T=1.0,
                         log_Z=LOG2), True),
    (ComparisonReport, dict(point=ReducedParams(), ratios={"Z_ratio": 1.0}, diffs={},
                            signs={}, asymptotic_residuals={}, classical=QUARTET,
                            regularized=QUARTET), False),
    (ThetaValue, dict(value=0.5, representation_used="poisson", terms_used=2,
                      truncation_bound=1e-48, log_value=-LOG2, mean_energy=1.0,
                      entropy=1.0 - LOG2, excess=(-0.125, 0.5, 0.375)), True),
    (SlopeWitnesses, dict(slope_bound=-0.5, integral_to_one=0.1, integrand_at_one=0.01),
     True),
    (EntropyAsymptote, dict(value=1.0, within_validity=True), True),
    (GeometricCoefficients, dict(U=(1.0, 3.0, 2.0), V=(4.0, 6.0, 2.0)), True),
    (BernoulliSeries, dict(kind="f_sinh", coefficients=(1.0, -1 / 6), radius=math.pi), True),
    (MonotonicityCertificate, dict(z_ratio_slope=-0.1, e_ratio_slope=0.2, entropy_slope=0.3,
                                   signs=(-1, 1, 1)), True),
    (SweepPlan, dict(system="oscillator", direction="h_to_0", grid=PLAN.grid,
                     base_params=PARAMS, base_geometry=None,
                     base_spec=OscillatorSpec([1.0])), True),
    (SweepRow, dict(swept_value=1.0, report=None, error="ValidationError: x"), True),
    (FitResult, dict(coefficient=1.0, slope=2.0, residual_norm=0.0, sign=1), True),
    (SweepResult, dict(plan=PLAN, rows=(), fitted_rates={"Z_ratio": None}), False),
    (LevelSet, dict(energies=(0.0, 1.0)), True),
    (SimplexPoint, dict(probabilities=(0.25, 0.75)), True),
    (MinimizeResult, dict(point=POINT, F_min=-0.5, iterations=3), True),
    (PhaseSpaceCheck, dict(z_quadrature=1.0, z_exact=1.0, e_quadrature=0.5, e_exact=0.5,
                           variational_ok=True, resolution=64), True),
    (KWPrediction, dict(Zr=2.0, Fr=-LOG2, Er=0.5, Sr=0.5 + LOG2, z2_over_z0=0.04,
                        expansion_parameter=4e-4, within_validity=True), True),
]

# the defaults each record's signature documents
DEFAULTS = {
    ReducedParams: dict(mu=(), tau=(), rho=0.0, lambda_theta=(), eps=None, nu=None,
                        delta=None, kappa=None),
    ThermoQuartet: dict(log_Z=math.nan),
    BernoulliSeries: dict(radius=math.pi),
    SweepPlan: dict(base_geometry=None, base_spec=None),
    SweepRow: dict(error=None),
    SweepResult: dict(fitted_rates=None),
}


@pytest.mark.parametrize(
    "cls, fields, hashable", FIELDS, ids=[cls.__name__ for cls, _, _ in FIELDS]
)
def test_record_semantics(cls, fields, hashable):
    values = tuple(fields.values())
    record = cls(**fields)
    assert cls.__match_args__ == tuple(fields)
    assert tuple(getattr(record, name) for name in fields) == values

    twin = cls(*values)
    assert twin == record and not twin != record
    if hashable:
        assert hash(twin) == hash(record) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(record)

    # the same fields in another class, even of the same name, differ
    other = type(cls.__name__, (cls,), {"__slots__": ()})(*values)
    assert record != other and other != record
    assert record != values

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert getattr(record, name) == fields[name]
    assert not hasattr(record, "__dict__")

    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls", [cls for cls, _, _ in FIELDS], ids=lambda cls: cls.__name__)
def test_signatures_are_the_fields(cls):
    params = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in params) == cls.__match_args__
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert repr(defaults) == repr(DEFAULTS.get(cls, {}))


def test_field_setter_is_built_on_first_use():
    record = type("Pair", (_Record,), {"__slots__": ("a", "b"), "__match_args__": ("a", "b"),
                                       "_defaults": {"b": 2}})
    assert "__init__" not in vars(record)
    assert str(inspect.signature(record)) == "(a, b=2)"
    assert "__init__" in vars(record)
    assert repr(record(1)) == "Pair(a=1, b=2)" and record(1, b=3).b == 3
    with pytest.raises(TypeError):
        record()


def _row():
    """A record with SweepRow's fields whose setters are not built yet."""
    return type("Row", (_Record,), {"__slots__": SweepRow.__match_args__,
                                    "__match_args__": SweepRow.__match_args__,
                                    "_defaults": SweepRow._defaults})


@pytest.mark.parametrize("base_first", [True, False], ids=["base_first", "subclass_first"])
def test_subclass_gets_its_own_setter(base_first):
    # SweepRow's setter may be built already, which is the base-first order
    for base in [_row()] + ([SweepRow] if base_first else []):
        # the subclass's setter finds the base's slots through the MRO
        tagged = type("Tagged", (base,), {"__slots__": ("tag",),
                                          "__match_args__": base.__match_args__ + ("tag",),
                                          "_defaults": {"error": None, "tag": None}})
        if base_first:
            assert base(2.0, None).error is None
        assert repr(tagged(1.0, None)) == (
            "Tagged(swept_value=1.0, report=None, error=None, tag=None)")
        assert tagged(1.0, None, None, "y").tag == "y"
        assert str(inspect.signature(tagged)) == "(swept_value, report, error=None, tag=None)"
        assert base(2.0, None) == base(2.0, None, None)
        with pytest.raises(TypeError):
            base(1.0, None, None, "y")


def _package_records():
    for info in pkgutil.iter_modules(qcthermo.__path__):
        vars(importlib.import_module(f"qcthermo.{info.name}"))  # runs a lazily loaded module
    records, stack = set(), [_Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("qcthermo."):
                records.add(cls)
    return records


def test_every_record_is_covered():
    assert _package_records() == {cls for cls, _, _ in FIELDS}


def test_literal_reprs():
    assert repr(PARAMS) == "PhysicalParams(T=1.0, h=0.1, m=1.0)"
    assert repr(QUARTET) == (
        "ThermoQuartet(Z=2.0, F=-0.6931471805599453, E=0.5, S=1.1931471805599454, "
        "flavor='classical', T=1.0, log_Z=0.6931471805599453)"
    )
    assert repr(BoxGeometry([1, 2])) == "BoxGeometry(distinct_edges=((1.0, 1), (2.0, 1)))"
    assert repr(ReducedParams(tau=(0.5,), rho=0.1, delta=0.5, kappa=0.5)) == (
        "ReducedParams(mu=(), tau=(0.5,), rho=0.1, lambda_theta=(), eps=None, nu=None, "
        "delta=0.5, kappa=0.5)"
    )
    assert repr(BernoulliSeries("f_sinh", (1.0,))) == (
        "BernoulliSeries(kind='f_sinh', coefficients=(1.0,), radius=3.141592653589793)"
    )
    assert repr(SweepResult(PLAN, ())) == (
        "SweepResult(plan=SweepPlan(system='oscillator', direction='h_to_0', "
        "grid=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0), base_params=PhysicalParams(T=1.0, h=0.1, "
        "m=1.0), base_geometry=None, base_spec=OscillatorSpec(distinct_frequencies=((1.0, 1),))), "
        "rows=(), fitted_rates={})"
    )
    assert repr(LevelSet([0, 1])) == "LevelSet(energies=(0.0, 1.0))"


def test_defaults():
    assert ThermoQuartet(2.0, -LOG2, 0.5, 0.5 + LOG2, "classical", 1.0) == QUARTET
    assert ReducedParams() == ReducedParams((), (), 0.0, (), None, None, None, None)
    assert BernoulliSeries("g_tanh", (1.0,)).radius == math.pi
    assert SweepRow(1.0, None).error is None
    first, second = SweepResult(PLAN, ()), SweepResult(PLAN, ())
    assert first.fitted_rates == {} and first.fitted_rates is not second.fitted_rates


def test_geometries_store_their_distinct_axes():
    # the (value, multiplicity) pairs are the field, in first-seen order; a
    # pair builds what as many equal values build
    box = BoxGeometry([2, 1, 2])
    assert box.distinct_edges == ((2.0, 2), (1.0, 1)) and box.dimension == 3
    assert box == BoxGeometry((2.0, 1.0, 2.0)) == BoxGeometry([(2, 2), 1]) == BoxGeometry([2, (1, 1), 2])
    assert box != BoxGeometry([1, 2, 2])
    for name in ("distinct_edges", "dimension"):
        with pytest.raises(AttributeError):
            setattr(box, name, ())
    spec = OscillatorSpec([3, 3])
    assert spec.distinct_frequencies == ((3.0, 2),) and spec.dimension == 2
    assert repr(spec) == "OscillatorSpec(distinct_frequencies=((3.0, 2),))"
    # N -> inf multiplicities are floats, beyond the integers of a float too
    assert OscillatorSpec([(3.0, 1e300), (3.0, 1e300)]).dimension == 2e300


def _plan(system="well", direction="h_to_0", grid=(1, 2, 3, 4, 5, 6), **kwargs):
    return SweepPlan(system, direction, grid, PARAMS, **kwargs)


@pytest.mark.parametrize("build, message", [
    (lambda: PhysicalParams(0, 1, 1), "temperature must be positive, got T=0"),
    (lambda: PhysicalParams(1, -1, 0), "mass must be positive, got m=0"),
    (lambda: PhysicalParams(1, -1, 1), "Planck constant must be >= 0, got h=-1"),
    (lambda: BoxGeometry([]), "box needs at least one edge"),
    (lambda: BoxGeometry([1, -1]), "edges must be positive, got (1.0, -1.0)"),
    (lambda: OscillatorSpec([]), "oscillator needs at least one frequency"),
    (lambda: OscillatorSpec([0]), "frequencies must be positive, got (0.0,)"),
    (lambda: BoxGeometry([1, (2, 0.5)]), "multiplicities must be >= 1, got (1, 0.5)"),
    (lambda: OscillatorSpec([(1, 1e308), (2, 1e308)]),
     "oscillator with more frequencies than a float counts"),
    (lambda: ThermoQuartet(0, 0, 0, 0, "x", 1), "statistical sum must be positive, got 0"),
    (lambda: ThermoQuartet(1, 0, 0, 0, "x", 1), "unknown flavor 'x'"),
    (lambda: ThermoQuartet(1, 1, 0, 0, "classical", 1),
     "free energy identity F = E - T*S violated: F=1, E=0, T*S=0"),
    (lambda: _plan(system="x", direction="h"), "unknown system 'x'"),
    (lambda: _plan(direction="h", grid=()),
     "direction 'h' not valid for well; choose from "
     "('h_to_0', 'T_to_inf', 'a_to_inf', 'm_to_inf', 'N_to_inf')"),
    (lambda: _plan(grid=(1,)), "grid needs at least 6 points"),
    (lambda: _plan(grid=(1, 2, 3, 4, 5, math.inf)), "grid values must be finite"),
    (lambda: _plan(grid=(1, 2, 3, 4, 6, 5)), "grid must be strictly monotone"),
    (lambda: _plan(), "well sweep needs base_geometry"),
    (lambda: _plan(system="oscillator"), "oscillator sweep needs base_spec"),
    # the named system's field holds an instance of its class, and the other
    # field is None: neither plan may sweep the other system
    pytest.param(lambda: _plan(direction="a_to_inf", grid=(1, 2, 4, 8, 16, 32),
                               base_geometry=OscillatorSpec([1.0])),
                 "well sweep needs base_geometry", id="well plan of an oscillator"),
    pytest.param(lambda: _plan(system="oscillator", direction="omega_to_0",
                               base_geometry=BoxGeometry([1.0]), base_spec=OscillatorSpec([1.0])),
                 "oscillator sweep needs base_spec", id="oscillator plan with a box too"),
    (lambda: LevelSet([1]), "need at least two levels"),
    (lambda: LevelSet([2, 1]), "energies must be non-decreasing"),
    (lambda: SimplexPoint([-1, 2]), "probabilities must be >= 0"),
    (lambda: SimplexPoint([0.5, 0.6]), "probabilities must sum to 1, got 1.1"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message
