"""Spans around the calls into each qcthermo module, and the per-layer metrics.

Modules import each other's functions by name (``from .theta import theta``),
so a function is wrapped in every qcthermo module namespace that holds it,
not only where it is defined.  Potential callables are wrapped where they
enter ``kw_expansion``, so every point the quadrature evaluates is counted.

Spans are kept in memory in flat arrays (one slot per call) and written out
once the run ends.  A layer's self time is its span minus the spans it
directly caused.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from array import array

import numpy as np

# (module, function); a span's name is "module.function".
TARGETS = [
    ("theta", "theta"), ("theta", "energy_sum"),
    ("core", "reduce_well"), ("core", "reduce_oscillator"),
    ("well", "well_regularized"), ("well", "well_classical"), ("well", "hear_the_drum"),
    ("oscillator", "osc_regularized"), ("oscillator", "osc_classical"),
    ("sweeps", "comparison_report"), ("sweeps", "run_sweep"), ("sweeps", "fit_leading_order"),
    ("semiclassical", "kw_expansion"), ("semiclassical", "z0_integral"),
    ("semiclassical", "z2_integral"),
    ("expressions", "parse_potential"),
    ("gibbs", "minimize_free_energy"), ("gibbs", "free_energy_functional"),
    ("gibbs", "gibbs_closed_form"),
    ("cli", "run"),
]
# callables handed to kw_expansion
POTENTIAL = "semiclassical.potential"      # value of a built-in potential
PARSED = "expressions.potential"           # value of a parsed expression
GRADIENT = "semiclassical.gradient"        # analytic or finite-difference gradient

CLI_LABELS = ["eval", "sweep", "hear-drum", "gibbs", "kw"]

UNITS = {
    "theta.calls_per_op": "count", "theta.us_per_call": "us", "theta.terms_per_call": "count",
    "well.regularized_us_per_call": "us", "well.self_us_per_call": "us",
    "oscillator.regularized_us_per_call": "us",
    "core.reduce_calls_per_report": "count",
    "sweeps.report_us_per_call": "us", "sweeps.self_us_per_report": "us",
    "sweeps.fit_us_per_call": "us", "sweeps.row_errors_per_op": "count",
    "semiclassical.potential_points_per_op": "count",
    "semiclassical.gradient_points_per_op": "count",
    "semiclassical.z0_ms_per_op": "ms", "semiclassical.z2_ms_per_op": "ms",
    "semiclassical.self_ms_per_op": "ms", "semiclassical.kw_4d_s": "s",
    "expressions.parse_us": "us", "expressions.points_per_op": "count",
    "expressions.ns_per_point": "ns",
    "gibbs.iterations": "count", "gibbs.minimize_ms": "ms", "gibbs.functional_ms": "ms",
    "gibbs.functional_calls_per_op": "count",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.numpy_import_ms": "ms",
    **{f"cli.run_ms.{label}": "ms" for label in CLI_LABELS},
    "cli.self_ms": "ms", "cli.quartet_calls_per_eval": "count",
    "cli.classical_calls_per_drum": "count",
    "trace.overhead_pct": "%",
}
QUARTETS = ["well.well_classical", "well.well_regularized",
            "oscillator.osc_classical", "oscillator.osc_regularized"]


def _points(x) -> int:
    return math.prod(np.shape(x)[:-1])


class Tracer:
    """Records one span per wrapped call: name, parent, start, end, attribute."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parsed = set()
        self._stack = [-1]
        self._patches = None
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("d")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, attr=None):
        """fn wrapped in a span; attr(args, result) gives the span attribute."""
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.attr.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if attr is not None:
                self.attr[i] = attr(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every loaded qcthermo module namespace."""
        if self._patches is None:
            self._patches = self._make_patches()
        for mod, key, _, wrapped in self._patches:
            setattr(mod, key, wrapped)

    def uninstall(self):
        """Put the unwrapped functions back; the spans stay."""
        for mod, key, fn, _ in self._patches:
            setattr(mod, key, fn)

    def _make_patches(self):
        """(module, attribute, function, wrapper) for every name of a target."""
        attrs = {
            "theta.theta": lambda a, r: r.terms_used,
            "sweeps.run_sweep": lambda a, r: sum(1 for row in r.rows if row.error),
            "gibbs.minimize_free_energy": lambda a, r: r.iterations,
            "cli.run": lambda a, r: CLI_LABELS.index(a[0][0]) if a[0][0] in CLI_LABELS else -1,
        }
        modules = [m for k, m in sys.modules.items() if k == "qcthermo" or k.startswith("qcthermo.")]
        patches = []
        for mod_name, fn_name in TARGETS:
            fn = getattr(sys.modules["qcthermo." + mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            if name == "semiclassical.kw_expansion":
                wrapped = self.wrap(name, self._kw(fn))
            elif name == "expressions.parse_potential":
                wrapped = self.wrap(name, self._parse(fn))
            else:
                wrapped = self.wrap(name, fn, attrs.get(name))
            for mod in modules:
                patches += [(mod, key, fn, wrapped) for key, value in vars(mod).items()
                            if value is fn]
        return patches

    def _parse(self, parse):
        def parse_and_mark(text, dimension):
            value = parse(text, dimension)
            self.parsed.add(value)
            return value
        return parse_and_mark

    def _kw(self, kw_expansion):
        def counted_points(args, result):
            return _points(args[0])

        def kw(potential, params):
            name = PARSED if potential.value in self.parsed else POTENTIAL
            value = self.wrap(name, potential.value, counted_points)
            p = dataclasses.replace(potential, value=value)
            # the finite-difference gradient calls the counted value 2N times
            gradient = self.wrap(GRADIENT, p.gradient_or_fd(), counted_points)
            return kw_expansion(dataclasses.replace(p, gradient=gradient), params)
        return kw

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            attr=np.frombuffer(self.attr))


class Spans:
    """Read-side view of a tracer's arrays."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        self.attr = np.frombuffer(tracer.attr).copy()
        n = len(self.dur)
        has_parent = self.parent >= 0
        self.child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - self.child
        # the enclosing comparison_report and cli.run span of every span
        report, run = self.id("sweeps.comparison_report"), self.id("cli.run")
        name, parent = self.name.tolist(), self.parent.tolist()
        in_report, in_run = [-1] * n, [-1] * n
        for i in range(n):
            p = parent[i]
            in_report[i] = i if name[i] == report else (in_report[p] if p >= 0 else -1)
            in_run[i] = i if name[i] == run else (in_run[p] if p >= 0 else -1)
        self.in_report = np.array(in_report, dtype=np.int64)
        self.in_run = np.array(in_run, dtype=np.int64)

    def id(self, name):
        return self.names.index(name) if name in self.names else -2

    def sel(self, *names):
        return np.isin(self.name, [self.id(n) for n in names])


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def _mean(x):
    return float(np.mean(x)) if len(x) else 0.0


def layer_metrics(spans: Spans, ops: int) -> dict:
    """Per-layer metrics of the traced operations; 0 where the workload never
    calls the layer (nothing to divide by)."""
    s = spans
    dur, self_t, attr = s.dur, s.self_time, s.attr
    m = {}
    theta = s.sel("theta.theta")
    m["theta.calls_per_op"] = theta.sum() / ops
    m["theta.us_per_call"] = _ratio(dur[theta].sum() * 1e6, theta.sum())
    m["theta.terms_per_call"] = _mean(attr[theta])
    well = s.sel("well.well_regularized")
    m["well.regularized_us_per_call"] = _ratio(dur[well].sum() * 1e6, well.sum())
    m["well.self_us_per_call"] = _ratio(self_t[well].sum() * 1e6, well.sum())
    osc = s.sel("oscillator.osc_regularized")
    m["oscillator.regularized_us_per_call"] = _ratio(dur[osc].sum() * 1e6, osc.sum())
    report = s.sel("sweeps.comparison_report")
    reduce_in_report = s.sel("core.reduce_well", "core.reduce_oscillator") & (s.in_report >= 0)
    m["core.reduce_calls_per_report"] = _ratio(reduce_in_report.sum(), report.sum())
    m["sweeps.report_us_per_call"] = _ratio(dur[report].sum() * 1e6, report.sum())
    m["sweeps.self_us_per_report"] = _ratio(self_t[report].sum() * 1e6, report.sum())
    fit = s.sel("sweeps.fit_leading_order")
    m["sweeps.fit_us_per_call"] = _ratio(dur[fit].sum() * 1e6, fit.sum())
    m["sweeps.row_errors_per_op"] = attr[s.sel("sweeps.run_sweep")].sum() / ops

    kw = s.sel("semiclassical.kw_expansion")
    value, parsed, grad = s.sel(POTENTIAL, PARSED), s.sel(PARSED), s.sel(GRADIENT)
    m["semiclassical.potential_points_per_op"] = attr[value].sum() / ops
    m["semiclassical.gradient_points_per_op"] = attr[grad].sum() / ops
    for key, name in (("z0", "semiclassical.z0_integral"), ("z2", "semiclassical.z2_integral")):
        m[f"semiclassical.{key}_ms_per_op"] = _ratio(dur[s.sel(name)].sum() * 1e3, kw.sum())
    m["semiclassical.self_ms_per_op"] = _ratio(self_t[kw].sum() * 1e3, kw.sum())
    parse = s.sel("expressions.parse_potential")
    m["expressions.parse_us"] = _ratio(dur[parse].sum() * 1e6, parse.sum())
    m["expressions.points_per_op"] = attr[parsed].sum() / ops
    m["expressions.ns_per_point"] = _ratio(dur[parsed].sum() * 1e9, attr[parsed].sum())

    minimize = s.sel("gibbs.minimize_free_energy")
    functional = s.sel("gibbs.free_energy_functional")
    m["gibbs.iterations"] = _mean(attr[minimize])
    m["gibbs.minimize_ms"] = _ratio(dur[minimize].sum() * 1e3, minimize.sum())
    m["gibbs.functional_ms"] = _ratio(dur[functional].sum() * 1e3, minimize.sum())
    m["gibbs.functional_calls_per_op"] = _ratio(functional.sum(), minimize.sum())

    run = s.sel("cli.run")
    for k, label in enumerate(CLI_LABELS):
        runs = run & (attr == k)
        m[f"cli.run_ms.{label}"] = _ratio(dur[runs].sum() * 1e3, runs.sum())
    m["cli.self_ms"] = _ratio(self_t[run].sum() * 1e3, run.sum())
    quartet = s.sel(*QUARTETS)
    classical = s.sel("well.well_classical")
    has_run = s.in_run >= 0
    run_label = np.where(has_run, attr[np.where(has_run, s.in_run, 0)], -1)
    evals = (run & (attr == CLI_LABELS.index("eval"))).sum()
    drums = (run & (attr == CLI_LABELS.index("hear-drum"))).sum()
    m["cli.quartet_calls_per_eval"] = _ratio(
        (quartet & (run_label == CLI_LABELS.index("eval"))).sum(), evals)
    m["cli.classical_calls_per_drum"] = _ratio(
        (classical & (run_label == CLI_LABELS.index("hear-drum"))).sum(), drums)
    return {k: float(v) for k, v in m.items()}
