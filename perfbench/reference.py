"""Reference values computed apart from qcthermo, and the checks that use them.

Nothing here imports qcthermo.  Box lattice sums are summed term by term in
mpmath, oscillator ratios come from tau/sinh(tau) and tau*coth(tau), the
harmonic semiclassical integrals from their closed forms, and the separable
anharmonic ones from one-dimensional mpmath quadratures.  Each check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

mp.mp.dps = 30

# Tolerances are set well above the rounding error of double precision
# results measured against these references and far below any error that
# would change a printed digit of physics.
RTOL = 1e-10
FIT_SLOPE_ATOL = 1e-6
SMALL_PARAM_SLOPE_ATOL = 0.06
QUAD_RTOL = 1e-9
FD_RTOL = 1e-6
DRUM_RTOL = 1e-3

TERM_CUTOFF = mp.mpf(10) ** -40


def _close(a, b, rtol=RTOL, atol=0.0) -> bool:
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * abs(b) + atol


class Lattice:
    """Per-axis box sums, cached by mu.

    With a = (pi/4) mu^2, Z_q = e^{-a} sum_{n>=1} e^{-a(n^2-1)}, so
    log Z_q = -a + log(sum) stays exact in the deep-quantum regime, and the
    per-axis mean-energy ratio is 2 a sum n^2 e^{-a n^2} / sum e^{-a n^2}.
    """

    def __init__(self):
        self._cache = {}

    def axis(self, mu: float):
        """(log Z_q(mu), per-axis E ratio) as mpf."""
        hit = self._cache.get(mu)
        if hit is not None:
            return hit
        a = mp.pi / 4 * mp.mpf(mu) ** 2
        s0 = s1 = mp.mpf(1)
        n = 2
        while True:
            term = mp.exp(-a * (n * n - 1))
            s0 += term
            s1 += n * n * term
            if n * n * term < TERM_CUTOFF * s1:
                break
            n += 1
        out = (-a + mp.log(s0), 2 * a * s1 / s0)
        self._cache[mu] = out
        return out


LATTICE = Lattice()


class Point:
    """Classical and regularized values of one box or oscillator point."""

    def __init__(self, system: str, T: float, h: float, m: float, dims):
        self.system, self.T, self.h, self.m = system, T, h, m
        self.dims = tuple(dims)
        n = len(self.dims)
        T_ = mp.mpf(T)
        if system == "well":
            self.mu = [h * math.sqrt(2.0 * math.pi / (m * a * a * T)) for a in self.dims]
            axes = [LATTICE.axis(mu) for mu in self.mu]
            self.log_zq = [lz for lz, _ in axes]
            log_zc = sum(mp.log(mp.mpf(a) * mp.sqrt(2 * mp.pi * m * T_)) for a in self.dims)
            e_c = n * T_ / 2
            s_c = mp.mpf(n) / 2 + log_zc
            self.log_zr = n * mp.log(2 * mp.pi * mp.mpf(h)) + sum(self.log_zq)
            self.e_r = T_ / 2 * sum(er for _, er in axes)
        else:
            self.tau = [h * w / (2.0 * T) for w in self.dims]
            taus = [mp.mpf(h) * mp.mpf(w) / (2 * T_) for w in self.dims]
            log_zc = sum(mp.log(2 * mp.pi * T_ / w) for w in self.dims)
            e_c = n * T_
            s_c = n + log_zc
            self.log_zr = log_zc + sum(mp.log(t / mp.sinh(t)) for t in taus)
            self.e_r = T_ * sum(t * mp.coth(t) for t in taus)
        self.log_zc, self.e_c, self.s_c = log_zc, e_c, s_c
        self.f_c = e_c - T_ * s_c
        self.f_r = -T_ * self.log_zr
        self.s_r = (self.e_r - self.f_r) / T_
        self.log_z_ratio = self.log_zr - log_zc
        self.z_ratio = mp.exp(self.log_z_ratio)
        self.e_ratio = self.e_r / e_c
        self.diffs = {"dF": self.f_r - self.f_c, "dE": self.e_r - e_c, "dS": self.s_r - s_c}
        self.scale = abs(self.f_c) + abs(e_c) + abs(T_ * s_c) + 1

    def residuals(self) -> dict:
        """The documented leading-order asymptotes, where they are defined."""
        z, e = self.z_ratio, self.e_ratio
        if self.system == "well":
            if max(self.mu) >= 2.0:
                return {}
            z_pred = mp.fprod(1 - mp.mpf(mu) / 2 for mu in self.mu)
            e_pred = mp.fsum(1 / (1 - mp.mpf(mu) / 2) for mu in self.mu) / len(self.mu)
            return {"small_mu_product": abs(z - z_pred), "small_mu_energy": abs(e - e_pred)}
        t2 = mp.fsum(mp.mpf(t) ** 2 for t in self.tau)
        return {
            "small_tau_quadratic_z": abs(z - (1 - t2 / 6)),
            "small_tau_quadratic_e": abs(e - (1 + t2 / (3 * len(self.tau)))),
        }


def check_report(ref: Point, ratios, diffs, signs, residuals, where: str) -> list[str]:
    """Ratios, differences, sign structure and residuals of one point."""
    bad = []
    if not _close(ratios["Z_ratio"], ref.z_ratio, atol=1e-300):
        bad.append(f"{where}: Z_ratio {ratios['Z_ratio']!r} != {mp.nstr(ref.z_ratio, 17)}")
    if not _close(ratios["E_ratio"], ref.e_ratio):
        bad.append(f"{where}: E_ratio {ratios['E_ratio']!r} != {mp.nstr(ref.e_ratio, 17)}")
    for key in ("dF", "dE", "dS"):
        if not _close(diffs[key], ref.diffs[key], atol=1e-13 * float(ref.scale)):
            bad.append(f"{where}: {key} {diffs[key]!r} != {mp.nstr(ref.diffs[key], 17)}")
    if not (float(ratios["Z_ratio"]) < 1.0 and float(ratios["E_ratio"]) > 1.0):
        bad.append(f"{where}: sign structure broken, Z_ratio >= 1 or E_ratio <= 1")
    expect = {"sgn_dF": 1, "sgn_dE": 1, "sgn_dS": int(mp.sign(ref.diffs["dS"]))}
    if dict(signs) != expect:
        bad.append(f"{where}: signs {dict(signs)} != {expect}")
    for name, value in ref.residuals().items():
        if not _close(residuals[name], value, atol=1e-13):
            bad.append(f"{where}: residual {name} {residuals[name]!r} != {mp.nstr(value, 17)}")
    return bad


def check_quartet(q: dict, log_z, e, T: float, where: str) -> list[str]:
    """One output quartet against its reference log Z and E, and F = E - T*S."""
    bad = []
    T_ = mp.mpf(T)
    f = -T_ * log_z
    s = (e - f) / T_
    scale = float(abs(f) + abs(e) + abs(T_ * s) + 1)
    for key, want in (("log_Z", log_z), ("E", e), ("F", f), ("S", s)):
        if not _close(q[key], want, atol=1e-13 * scale):
            bad.append(f"{where}: {key} {q[key]!r} != {mp.nstr(want, 17)}")
    if abs(q["F"] - (q["E"] - T * q["S"])) > 1e-12 * scale:
        bad.append(f"{where}: F != E - T*S")
    return bad


def fit_slope(xs, ys):
    """Least-squares slope and log-coefficient of log|y| against log x."""
    pts = [(math.log(x), math.log(abs(y))) for x, y in zip(xs, ys) if abs(y) > 1e-280]
    if len(pts) < 4:
        return None
    n = len(pts)
    mx = math.fsum(p[0] for p in pts) / n
    my = math.fsum(p[1] for p in pts) / n
    sxx = math.fsum((p[0] - mx) ** 2 for p in pts)
    sxy = math.fsum((p[0] - mx) * (p[1] - my) for p in pts)
    slope = sxy / sxx
    return slope, my - slope * mx


# --- semiclassical ---------------------------------------------------------


def harmonic_kw(omegas, m: float, T: float):
    """(Z0, <V>, Z2/Z0) of V = sum m w^2 x^2 / 2."""
    z0 = mp.fprod(mp.sqrt(2 * mp.pi * T / (m * mp.mpf(w) ** 2)) for w in omegas)
    return z0, mp.mpf(len(omegas)) * T / 2, mp.fsum(mp.mpf(w) ** 2 for w in omegas) / (24 * mp.mpf(T) ** 2)


@functools.lru_cache(maxsize=None)
def _separable_axis(c2: float, c4: float, T: float):
    """(Z0, <V>, <V'^2>) of one axis with V = c2 x^2 + c4 x^4."""
    v = lambda x: c2 * x**2 + c4 * x**4
    dv = lambda x: 2 * c2 * x + 4 * c4 * x**3
    w = lambda x: mp.exp(-v(x) / T)
    i0 = 2 * mp.quad(w, [0, 1, mp.inf])
    i1 = 2 * mp.quad(lambda x: v(x) * w(x), [0, 1, mp.inf])
    i2 = 2 * mp.quad(lambda x: dv(x) ** 2 * w(x), [0, 1, mp.inf])
    return i0, i1 / i0, i2 / i0


def separable_kw(coeffs, m: float, T: float):
    """(Z0, <V>, Z2/Z0) of V = sum c2 x^2 + c4 x^4 from 1-D mpmath quadratures."""
    axes = [_separable_axis(c2, c4, T) for c2, c4 in coeffs]
    z0 = mp.fprod(a[0] for a in axes)
    v_mean = mp.fsum(a[1] for a in axes)
    g2 = mp.fsum(a[2] for a in axes)
    return z0, v_mean, g2 / (24 * m * mp.mpf(T) ** 3)


def check_kw(pred: dict, ref, n: int, T: float, h: float, m: float, ratio_rtol: float, where: str) -> list[str]:
    """A KW prediction (Zr, Fr, Er, Sr, z2_over_z0) against (Z0, <V>, Z2/Z0)."""
    z0, v_mean, ratio = ref
    bad = []
    r = pred["z2_over_z0"]
    if not _close(r, ratio, rtol=ratio_rtol):
        bad.append(f"{where}: z2_over_z0 {r!r} != {mp.nstr(ratio, 17)}")
    f_c = pred["Fr"] - h * h * T * r
    e_c = pred["Er"] - 2.0 * h * h * T * r
    log_pref = 0.5 * n * math.log(2.0 * math.pi * m * T)
    log_z0 = -f_c / T - log_pref
    if not _close(log_z0, mp.log(z0), atol=QUAD_RTOL):
        bad.append(f"{where}: log Z0 {log_z0!r} != {mp.nstr(mp.log(z0), 17)}")
    if not _close(e_c - 0.5 * n * T, v_mean, rtol=QUAD_RTOL, atol=QUAD_RTOL * T):
        bad.append(f"{where}: <V> {e_c - 0.5 * n * T!r} != {mp.nstr(v_mean, 17)}")
    scale = abs(pred["Fr"]) + abs(pred["Er"]) + abs(T * pred["Sr"]) + 1.0
    if abs(pred["Fr"] - (pred["Er"] - T * pred["Sr"])) > 1e-12 * scale:
        bad.append(f"{where}: Fr != Er - T*Sr")
    zr = math.exp(-f_c / T) * (1.0 - h * h * r)
    if not _close(pred["Zr"], zr, rtol=1e-9):
        bad.append(f"{where}: Zr {pred['Zr']!r} != (2 pi m T)^(N/2) Z0 (1 - h^2 Z2/Z0)")
    return bad


# --- gibbs -----------------------------------------------------------------


def gibbs_reference(levels, T: float):
    """(-T log Z, Boltzmann probabilities) of a finite spectrum."""
    e0 = min(levels)
    w = [mp.exp(-(mp.mpf(e) - e0) / T) for e in levels]
    z = mp.fsum(w)
    return e0 - T * mp.log(z), [float(x / z) for x in w]


# --- per-workload checks ---------------------------------------------------

# Slope of |ratio - 1| against the swept value on small-parameter grids:
# the leading deviation is linear in mu for the box and quadratic in tau for
# the oscillator; these are d log(mu or tau^2) / d log(swept value).
EXPECTED_SLOPE = {
    ("well", "h_to_0"): 1.0,
    ("well", "a_to_inf"): -1.0,
    ("oscillator", "h_to_0"): 2.0,
    ("oscillator", "omega_to_0"): 2.0,
}
F1_MESSAGE = "ConvergenceError: lattice sum underflowed"
F1_MU = 30.8  # exp(-(pi/4) mu^2) underflows to 0 above this
F2_MESSAGE = "non-finite value in output field '$.asymptotic_residuals.small_mu_energy'"


def row_point(case, value) -> Point:
    """The physical point of one grid value, mapped apart from the program."""
    T, h, m, dims = case["T"], case["h"], case["m"], list(case["dims"])
    d = case["direction"]
    if d == "h_to_0":
        h = value
    elif d == "T_to_inf":
        T = value
    elif d == "m_to_inf":
        m = value
    elif d in ("a_to_inf", "omega_to_0"):
        dims = [x * value for x in dims]
    else:
        n = int(round(value))
        h, dims = h / n, dims * n
    return Point(case["system"], T, h, m, dims)


def _check_report_dict(point, rep, where):
    return check_report(point, rep["ratios"], rep["diffs"], rep["signs"],
                        rep["asymptotic_residuals"], where)


def check_sweep_rows(case, rows, where):
    """rows: (swept_value, report as a dict or None, error or None)."""
    bad = []
    xs, ys = [], {"Z_ratio": [], "E_ratio": []}
    if [r[0] for r in rows] != case["grid"]:
        bad.append(f"{where}: swept values differ from the grid")
    for value, rep, err in rows:
        point = row_point(case, value)
        if rep is None:
            if not (err.startswith(F1_MESSAGE) and max(point.mu) > F1_MU):
                bad.append(f"{where}: unexpected row error at {value}: {err}")
            continue
        bad += _check_report_dict(point, rep, f"{where} row {value:.6g}")
        xs.append(value)
        ys["Z_ratio"].append(float(point.z_ratio - 1))
        ys["E_ratio"].append(float(point.e_ratio - 1))
    return bad, xs, ys


def check_sweep(case, result, where):
    """A SweepResult: every row, and both fitted rates."""
    rows = [(r.swept_value,
             None if r.report is None else dict(
                 ratios=r.report.ratios, diffs=r.report.diffs, signs=r.report.signs,
                 asymptotic_residuals=r.report.asymptotic_residuals),
             r.error) for r in result.rows]
    bad, xs, ys = check_sweep_rows(case, rows, where)
    for key in ("Z_ratio", "E_ratio"):
        want = fit_slope(xs, ys[key])
        fit = result.fitted_rates.get(key)
        if want is None or fit is None:
            if (want is None) != (fit is None):
                bad.append(f"{where}: {key} fit present={fit is not None}, expected={want is not None}")
            continue
        if abs(fit.slope - want[0]) > FIT_SLOPE_ATOL:
            bad.append(f"{where}: {key} slope {fit.slope!r} != {want[0]!r}")
        expected = EXPECTED_SLOPE.get((case["system"], case["direction"]))
        if case["small"] and abs(fit.slope - expected) > SMALL_PARAM_SLOPE_ATOL:
            bad.append(f"{where}: {key} small-parameter slope {fit.slope:.4f}, expected {expected}")
    return bad


def check_kw_case(case, result, where):
    """A KWPrediction of a harmonic or separable parsed potential."""
    T, h, m, n = case["T"], case["h"], case["m"], case["n"]
    if case["kind"] == "harmonic":
        want, rtol = harmonic_kw(case["omegas"], m, T), QUAD_RTOL
    else:
        want, rtol = separable_kw(case["coeffs"], m, T), FD_RTOL
    pred = dict(Zr=result.Zr, Fr=result.Fr, Er=result.Er, Sr=result.Sr,
                z2_over_z0=result.z2_over_z0)
    bad = check_kw(pred, want, n, T, h, m, rtol, where)
    param = h * h * result.z2_over_z0
    if result.expansion_parameter != param or result.within_validity != (param < 0.1):
        bad.append(f"{where}: expansion parameter or validity flag inconsistent")
    return bad


def check_cli(case, result, schema, where):
    """One CLI run: exit code, schema or CSV header, and the physics."""
    import csv
    import io
    import json

    import jsonschema

    code, _, stdout, stderr = result
    if case.get("f2") and code != 0:
        if code == 3 and F2_MESSAGE in stderr:
            return []
        return [f"{where}: F2 failed differently: exit {code}: {stderr.strip()}"]
    if code != 0:
        return [f"{where}: exit {code}: {stderr.strip()}"]
    text = stdout.decode()
    if case["label"] == "sweep":
        sweep = case["sweep"]
        lines = list(csv.reader(io.StringIO(text)))
        residuals = (["small_mu_energy", "small_mu_product"] if sweep["system"] == "well"
                     else ["small_tau_quadratic_e", "small_tau_quadratic_z"])
        header = ["swept_value", "Z_ratio", "E_ratio", "dF", "dE", "dS",
                  "sgn_dF", "sgn_dE", "sgn_dS"] + ["residual_" + r for r in residuals]
        if lines[0] != header:
            return [f"{where}: CSV header {lines[0]}"]
        rows = []
        for line in lines[1:]:
            v = [float(x) for x in line]
            rows.append((v[0], dict(
                ratios={"Z_ratio": v[1], "E_ratio": v[2]},
                diffs={"dF": v[3], "dE": v[4], "dS": v[5]},
                signs={"sgn_dF": int(v[6]), "sgn_dE": int(v[7]), "sgn_dS": int(v[8])},
                asymptotic_residuals=dict(zip(residuals, v[9:]))), None))
        return check_sweep_rows(sweep, rows, where)[0]
    payload = json.loads(text)
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        return [f"{where}: schema: {exc.message}"]
    return _CLI_CHECKS[case["label"]](case, payload, where)


def _cli_eval(case, payload, where):
    if case.get("f2"):  # once F2 is mended its output is checked like any other
        case = dict(case, system="well", T=1.0, h=1.0, m=1.0, dims=[1.0])
    point = Point(case["system"], case["T"], case["h"], case["m"], case["dims"])
    bad = _check_report_dict(point, payload, where)
    bad += check_quartet(payload["classical"], point.log_zc, point.e_c, case["T"], where + " classical")
    bad += check_quartet(payload["regularized"], point.log_zr, point.e_r, case["T"],
                         where + " regularized")
    return bad


def _cli_hear_drum(case, payload, where):
    bad = []
    rho_unit = math.sqrt(math.pi / (2.0 * case["m"] * case["T"]))  # mu_k = 2 rho / a_k
    for s in payload["samples"]:
        point = Point("well", case["T"], s["rho"] / rho_unit, case["m"], case["edges"])
        if not _close(s["ratio"], point.z_ratio):
            bad.append(f"{where}: sample ratio at rho={s['rho']!r}")
    for got, want in zip(payload["recovered_edges"], sorted(case["edges"])):
        if abs(got - want) > DRUM_RTOL * want:
            bad.append(f"{where}: recovered edge {got!r}, true {want!r}")
    return bad


def _cli_kw(case, payload, where):
    kw = case["kw"]
    T, h, m, n = kw["T"], kw["h"], kw["m"], kw["n"]
    pred = dict(payload["predicted"], z2_over_z0=payload["z2_over_z0"])
    if kw["kind"] == "harmonic":
        bad = check_kw(pred, harmonic_kw(kw["omegas"], m, T), n, T, h, m, QUAD_RTOL, where)
        point = Point("oscillator", T, h, m, kw["omegas"])
        return bad + check_quartet(payload["exact"], point.log_zr, point.e_r, T, where + " exact")
    return check_kw(pred, separable_kw(kw["coeffs"], m, T), n, T, h, m, FD_RTOL, where)


def _cli_gibbs(case, payload, where):
    f_min, probs = gibbs_reference(case["levels"], case["T"])
    bad = []
    if payload["levels"] != case["levels"]:
        bad.append(f"{where}: levels differ from the input")
    for key in ("F_min", "F_closed_form"):
        if not _close(payload[key], f_min, rtol=1e-9, atol=1e-9):
            bad.append(f"{where}: {key} {payload[key]!r} != -T log Z {float(f_min)!r}")
    err = max(abs(a - b) for a, b in zip(payload["probabilities"], probs))
    if err > 1e-6:
        bad.append(f"{where}: probabilities off the Gibbs distribution by {err:.3g}")
    if payload["random_check"]["min_excess_free_energy"] < 0:
        bad.append(f"{where}: a random point has lower free energy than the Gibbs point")
    return bad


_CLI_CHECKS = {"eval": _cli_eval, "hear-drum": _cli_hear_drum, "kw": _cli_kw, "gibbs": _cli_gibbs}
