"""The three workloads: seeded inputs and the operation.  The checks of the
outputs live in reference.py.

Each workload builds one round of cases from its seed.  A run repeats the
round whole, so every run attempts the same mix and fails the same share.
The program is reached through module attributes looked up at call time
(``qcthermo.sweeps.run_sweep``, not a name bound at import), so the wrappers
that tracing installs see every call.

Inputs that fail on purpose do not depend on the seed:

- F1 (sweeps): two box plans whose first row has mu > 30.8, where the direct
  lattice sum underflows to 0 and the row is recorded as an error.
- F2 (cli): ``eval --system well --edges 1 --T 1 --h 1`` exits 3, because the
  small-mu energy residual is inf for mu >= 2 and the CLI rejects it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import qcthermo
import qcthermo.semiclassical
import qcthermo.sweeps

GRID_POINTS = 10
N_GIBBS_LEVELS = 3700
CHILD_TIMEOUT_S = 120


def _mu_scale(T, m, a):
    """mu / h for an edge a."""
    return math.sqrt(2.0 * math.pi / (m * a * a * T))


def _geom(lo, hi, n=GRID_POINTS, descending=False):
    g = [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]
    return g[::-1] if descending else g


# --- sweeps ----------------------------------------------------------------


def _sweep_case(rng, system, direction, dims, small=False):
    """A plan whose reduced parameter runs from p_hi down to p_lo.

    Crossing grids take the largest mu from above 2/sqrt(pi) to about 0.2
    (tau from above 1.5 to about 0.1); small grids stay below mu = 0.1 or
    tau = 0.3, where the leading-order slopes hold.
    """
    T, m = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    base = [rng.uniform(0.5, 2.0) for _ in range(dims)]
    if system == "well":
        p_hi = rng.uniform(0.06, 0.1) if small else rng.uniform(1.6, 3.0)
        p_lo = p_hi * 0.8 ** (GRID_POINTS - 1) if small else rng.uniform(0.15, 0.3)
        per_h = _mu_scale(T, m, min(base))  # largest mu / h
    else:
        p_hi = rng.uniform(0.2, 0.3) if small else rng.uniform(1.5, 3.0)
        p_lo = p_hi * 0.8 ** (GRID_POINTS - 1) if small else rng.uniform(0.05, 0.15)
        per_h = max(base) / (2.0 * T)  # largest tau / h
    h = p_hi / per_h
    power = 2.0 if system == "well" else 1.0  # mu ~ T^-1/2 and m^-1/2, tau ~ 1/T
    if direction == "h_to_0":
        grid = _geom(p_lo / per_h, h, descending=True)
    elif direction in ("T_to_inf", "m_to_inf"):
        ratio = (p_hi / p_lo) ** power
        x0 = T if direction == "T_to_inf" else m
        grid = _geom(x0, x0 * ratio)
    elif direction == "a_to_inf":
        grid = _geom(1.0, p_hi / p_lo)
    elif direction == "omega_to_0":
        grid = _geom(p_lo / p_hi, 1.0, descending=True)
    else:  # N_to_inf: h/N with N copies of the base, so p falls like 1/N
        grid = [float(n) for n in range(1, GRID_POINTS + 1)]
    return dict(system=system, direction=direction, T=T, h=h, m=m, dims=base,
                grid=grid, small=small)


# F1: the first row of each has mu = 40 (h_to_0) and mu = 35.4 (T_to_inf).
F1_CASES = [
    dict(system="well", direction="h_to_0", T=1.0, h=40.0 / math.sqrt(2.0 * math.pi),
         m=1.0, dims=[1.0], grid=[40.0 / math.sqrt(2.0 * math.pi) * 0.6**k
                                  for k in range(GRID_POINTS)], small=False),
    dict(system="well", direction="T_to_inf", T=0.005, h=1.0, m=1.0, dims=[1.0, 2.0],
         grid=[0.005 * 2.5**k for k in range(GRID_POINTS)], small=False),
]


class Sweeps:
    """One run_sweep per operation over box and oscillator plans."""

    name = "sweeps"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        slots = [
            ("oscillator", "h_to_0", 2, False), ("oscillator", "T_to_inf", 3, False),
            ("oscillator", "omega_to_0", 1, False), ("oscillator", "N_to_inf", 2, False),
            ("oscillator", "h_to_0", 2, True), ("oscillator", "omega_to_0", 3, True),
            ("well", "h_to_0", 3, False), ("well", "T_to_inf", 2, False),
            ("well", "a_to_inf", 3, False), ("well", "m_to_inf", 2, False),
            ("well", "h_to_0", 2, False), ("well", "T_to_inf", 3, False),
            ("well", "h_to_0", 2, True), ("well", "a_to_inf", 3, True),
        ] + [("well", "N_to_inf", 2, False)] * 4
        self.cases = [_sweep_case(rng, *slot) for slot in slots] + [dict(c) for c in F1_CASES]
        rng.shuffle(self.cases)
        self.once = []

    same = staticmethod(operator.eq)

    def prepare(self):
        for case in self.cases:
            params = qcthermo.PhysicalParams(T=case["T"], h=case["h"], m=case["m"])
            well = case["system"] == "well"
            case["plan"] = qcthermo.SweepPlan(
                system=case["system"], direction=case["direction"], grid=tuple(case["grid"]),
                base_params=params,
                base_geometry=qcthermo.BoxGeometry(case["dims"]) if well else None,
                base_spec=None if well else qcthermo.OscillatorSpec(case["dims"]),
            )

    def warm_up(self):
        for case in self.cases:
            self.call(case)

    def call(self, case):
        return qcthermo.sweeps.run_sweep(case["plan"])

    @staticmethod
    def failed(result) -> bool:
        return any(row.error for row in result.rows)

    def check(self, case, result, where):
        import reference

        return reference.check_sweep(case, result, where)


# --- semiclassical ---------------------------------------------------------


def _kw_case(rng, kind, n):
    case = dict(kind=kind, n=n, T=rng.uniform(0.5, 2.0), h=rng.uniform(0.05, 0.3),
                m=rng.uniform(0.5, 2.0))
    if kind == "harmonic":
        case["omegas"] = [rng.uniform(0.5, 2.0) for _ in range(n)]
    else:
        coeffs = [(float(f"{rng.uniform(0.3, 1.5):.6f}"), float(f"{rng.uniform(0.02, 0.3):.6f}"))
                  for _ in range(n)]
        case["coeffs"] = coeffs
        case["text"] = " + ".join(f"{c2!r}*x{k}^2 + {c4!r}*x{k}^4"
                                  for k, (c2, c4) in enumerate(coeffs, 1))
    return case


def _build_potential(case):
    case["params"] = qcthermo.PhysicalParams(T=case["T"], h=case["h"], m=case["m"])
    if case["kind"] == "harmonic":
        case["potential"] = qcthermo.semiclassical.harmonic_potential(case["m"], case["omegas"])
    else:
        value = qcthermo.expressions.parse_potential(case["text"], case["n"])
        case["potential"] = qcthermo.semiclassical.PotentialField(dimension=case["n"], value=value)


class Semiclassical:
    """One kw_expansion per operation; one 4-D harmonic operation per run."""

    name = "semiclassical"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # Cost classes: 2-D (~10-30 ms), 3-D harmonic (~0.15 s), 3-D parsed
        # (~2 s).  With 8 + 11 + 1 per round the median and p90 both fall
        # inside the 3-D harmonic class.
        mix = [("harmonic", 2)] * 6 + [("parsed", 2)] * 2 + [("harmonic", 3)] * 11 + [("parsed", 3)]
        self.cases = [_kw_case(rng, kind, n) for kind, n in mix]
        rng.shuffle(self.cases)
        self.once = [_kw_case(rng, "harmonic", 4)]

    same = staticmethod(operator.eq)

    def prepare(self):
        for case in self.cases + self.once:
            _build_potential(case)

    def warm_up(self):
        rng = random.Random(0)
        for kind in ("harmonic", "parsed"):
            case = _kw_case(rng, kind, 1)
            _build_potential(case)
            self.call(case)

    @staticmethod
    def call(case):
        return qcthermo.semiclassical.kw_expansion(case["potential"], case["params"])

    @staticmethod
    def failed(result) -> bool:
        return False

    @staticmethod
    def check(case, result, where):
        import reference

        return reference.check_kw_case(case, result, where)


# --- cli -------------------------------------------------------------------

F2_ARGV = ["eval", "--system", "well", "--edges", "1", "--T", "1", "--h", "1"]


def _num(x: float) -> str:
    return repr(float(x))


def _cli_cases(rng):
    cases = []

    def add(label, argv, **info):
        cases.append(dict(label=label, argv=argv, **info))

    for system, n in (("well", 2), ("well", 3), ("oscillator", 2), ("oscillator", 3)):
        T, m = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        dims = [rng.uniform(0.8, 2.0) for _ in range(n)]
        if system == "well":  # mu < 2 everywhere: F2 is a separate, fixed case
            h = rng.uniform(0.3, 1.8) / _mu_scale(T, m, min(dims))
            flag = "--edges"
        else:
            h = rng.uniform(0.1, 2.0) * 2.0 * T / max(dims)
            flag = "--omega"
        add("eval", ["eval", "--system", system, flag, ",".join(map(_num, dims)), "--T", _num(T),
                     "--h", _num(h), "--m", _num(m), "--format", "json"],
            system=system, T=T, h=h, m=m, dims=dims)
    for system, direction, n in (("well", "h_to_0", 2), ("oscillator", "T_to_inf", 2)):
        case = _sweep_case(rng, system, direction, n)
        if system == "well":  # keep mu < 2 on every row (F2)
            case["grid"] = [x * 0.6 for x in case["grid"]]
        start, factor = case["grid"][0], case["grid"][1] / case["grid"][0]
        case["grid"] = [start * factor**k for k in range(GRID_POINTS)]
        flag = "--edges" if system == "well" else "--omega"
        add("sweep", ["sweep", "--system", system, "--direction", direction,
                      flag, ",".join(map(_num, case["dims"])), "--start", _num(start),
                      "--factor", _num(factor), "--points", str(GRID_POINTS),
                      "--T", _num(case["T"]), "--h", _num(case["h"]), "--m", _num(case["m"]),
                      "--format", "csv"], sweep=case)
    edges = [rng.uniform(0.5, 3.0) for _ in range(3)]
    T, m = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    add("hear-drum", ["hear-drum", "--edges", ",".join(map(_num, edges)), "--T", _num(T),
                      "--m", _num(m), "--format", "json"], edges=edges, T=T, m=m)
    kw = _kw_case(rng, "harmonic", 1)
    add("kw", ["kw", "--omega", _num(kw["omegas"][0]), "--T", _num(kw["T"]), "--h", _num(kw["h"]),
               "--m", _num(kw["m"]), "--format", "json"], kw=kw)
    kw = _kw_case(rng, "parsed", 2)
    add("kw", ["kw", "--potential", kw["text"], "--dim", "2", "--T", _num(kw["T"]),
               "--h", _num(kw["h"]), "--m", _num(kw["m"]), "--format", "json"], kw=kw)
    for _ in range(2):
        # an oscillator ladder spanning about 42 T, as a truncation at a
        # 1e-12 tail leaves it: the minimizer then takes some 500 iterations
        T = rng.uniform(0.5, 2.0)
        step = T * rng.uniform(40.0, 45.0) / N_GIBBS_LEVELS
        levels = [step * (k + 0.5) for k in range(N_GIBBS_LEVELS)]
        add("gibbs", ["gibbs", "--levels", ",".join(map(_num, levels)), "--T", _num(T),
                      "--seed", str(rng.randrange(1000)), "--format", "json"],
            levels=[float(_num(e)) for e in levels], T=T)
    add("eval", list(F2_ARGV), f2=True)
    return cases


class Cli:
    """One qcthermo child process per operation, run from the repo's src."""

    name = "cli"

    def __init__(self, seed: int, src: Path):
        rng = random.Random(seed)
        self.cases = _cli_cases(rng)
        rng.shuffle(self.cases)
        self.once = []
        self.src = src
        self.in_process = False
        # QCTHERMO_FORMAT would change the default output format of F2's argv
        self.env = {k: v for k, v in os.environ.items() if k != "QCTHERMO_FORMAT"}
        self.schema = json.loads((src.parent / "docs" / "output.schema.json").read_text())

    def prepare(self):
        pass

    def warm_up(self):
        self.call(next(c for c in self.cases if c["label"] == "eval" and not c.get("f2")))

    def call(self, case):
        """(exit code, stdout digest, stdout, stderr)."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            import qcthermo.cli

            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qcthermo.cli.run(case["argv"])
            stdout, stderr = out.getvalue().encode(), err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "qcthermo.cli", *case["argv"]],
                                  cwd=self.src, env=self.env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr.decode()
        return code, hashlib.sha256(stdout).hexdigest(), stdout, stderr

    @staticmethod
    def failed(result) -> bool:
        return result[0] != 0

    @staticmethod
    def same(a, b) -> bool:
        """Same exit code and byte-identical stdout."""
        return a[:2] == b[:2]

    def check(self, case, result, where):
        import reference

        return reference.check_cli(case, result, self.schema, where)


def make(name: str, seed: int, src: Path):
    if name == "sweeps":
        return Sweeps(seed)
    if name == "semiclassical":
        return Semiclassical(seed)
    if name == "cli":
        return Cli(seed, src)
    raise ValueError(f"unknown workload {name!r}")
