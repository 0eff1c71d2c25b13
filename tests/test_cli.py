import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcthermo import cli
from qcthermo.cli import run
from qcthermo.core import SYSTEMS, BoxGeometry, ConvergenceError, PhysicalParams, reduce_well
from qcthermo.well import well_classical, well_regularized

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output.schema.json").read_text()
)

EVAL_ARGS = ["eval", "--system", "well", "--edges", "1,2", "--T", "1", "--h", "0.1"]
SWEEP_ARGS = [
    "sweep", "--system", "oscillator", "--omega", "1", "--direction", "h_to_0",
    "--start", "0.1", "--factor", "0.5", "--points", "6", "--T", "1", "--h", "1",
]
DRUM_ARGS = ["hear-drum", "--edges", "1,2,3", "--T", "1"]
GIBBS_ARGS = ["gibbs", "--levels", "0,1,2", "--T", "1", "--seed", "7"]
KW_ARGS = ["kw", "--omega", "1", "--T", "1", "--h", "0.1"]


def run_cli(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize(
    "args", [EVAL_ARGS, SWEEP_ARGS, DRUM_ARGS, GIBBS_ARGS, KW_ARGS]
)
def test_json_output_validates_against_schema(args, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)


def test_eval_values(capsys):
    code, out = run_cli(EVAL_ARGS, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ratios"]["Z_ratio"] == pytest.approx(0.81985686103665, rel=1e-12)
    assert payload["signs"]["sgn_dF"] == 1
    assert payload["signs"]["sgn_dS"] == -1
    params, box = PhysicalParams(T=1.0, h=0.1, m=1.0), BoxGeometry([1.0, 2.0])
    for key, quartet in (("classical", well_classical(params, box)),
                         ("regularized", well_regularized(params, box))):
        assert payload[key] == {k: getattr(quartet, k) for k in payload[key]}
    assert payload["reduced"]["mu"] == list(reduce_well(params, box).mu)


def test_sweep_csv_headers(capsys):
    code, out = run_cli(SWEEP_ARGS + ["--format", "csv"], capsys)
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:9] == [
        "swept_value", "Z_ratio", "E_ratio", "dF", "dE", "dS",
        "sgn_dF", "sgn_dE", "sgn_dS",
    ]
    assert all(h.startswith("residual_") for h in header[9:])
    assert len(out.splitlines()) == 7  # header + 6 grid points


def test_pi_literals_accepted(capsys):
    code, out = run_cli(
        ["eval", "--system", "well", "--edges", "1", "--T", "2pi", "--h", "0.2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced"]["mu"][0] == pytest.approx(0.2, rel=1e-14)


def test_expression_potential(capsys):
    code, out = run_cli(
        ["kw", "--potential", "x1^2/2", "--dim", "1", "--T", "1", "--h", "0.1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    # matches the built-in harmonic potential at omega = 1
    assert payload["z2_over_z0"] == pytest.approx(1.0 / 24.0, rel=1e-12, abs=0)


def test_separable_potential_in_50_dimensions(capsys):
    # V = sum c_k x_k^2: z2/z0 = sum c_k / (12 m T^2), <V> = N T/2, and
    # Z0 = prod sqrt(pi T / c_k)
    n, T, m, h = 50, 1.3, 0.7, 0.1
    coeffs = [0.5 + 0.02 * k for k in range(1, n + 1)]
    text = " + ".join(f"{c!r}*x{k}^2" for k, c in enumerate(coeffs, 1))
    args = ["kw", "--potential", text, "--dim", str(n), "--T", str(T), "--m", str(m)]
    code, out = run_cli(args + ["--h", str(h)], capsys)
    assert code == 0
    payload = json.loads(out)
    ratio = sum(coeffs) / (12.0 * m * T * T)
    assert payload["z2_over_z0"] == pytest.approx(ratio, rel=1e-12)
    predicted = payload["predicted"]
    assert predicted["Er"] == pytest.approx(n * T + 2 * h * h * T * ratio, rel=1e-12)
    log_z0 = sum(0.5 * math.log(math.pi * T / c) for c in coeffs)
    log_zc = 0.5 * n * math.log(2 * math.pi * m * T) + log_z0
    assert predicted["Fr"] == pytest.approx(-T * log_zc + h * h * T * ratio, rel=1e-12)
    assert predicted["Zr"] == pytest.approx(math.exp(log_zc) * (1 - h * h * ratio), rel=1e-12)


def test_constant_factor_over_a_sum_is_separable(capsys):
    # 2*(x1^2 + ... + x5^2) is one block per axis, the harmonic well at omega = 2
    from qcthermo.semiclassical import harmonic_potential, kw_expansion

    text = "2*(x1^2+x2^2+x3^2+x4^2+x5^2)"
    code, out = run_cli(["kw", "--potential", text, "--dim", "5", "--T", "1", "--h", "0.1"], capsys)
    assert code == 0
    payload = json.loads(out)
    want = kw_expansion(harmonic_potential(1.0, [2.0] * 5), PhysicalParams(T=1.0, h=0.1, m=1.0))
    assert payload["z2_over_z0"] == pytest.approx(want.z2_over_z0, rel=1e-12)
    assert payload["z2_over_z0"] == pytest.approx(5 * 4 / 24, rel=1e-12)
    for key in ("Fr", "Er", "Sr"):
        assert payload["predicted"][key] == pytest.approx(getattr(want, key), rel=1e-12)


def test_long_sum_potential_exits_0(capsys):
    # 600 terms of 0.001*x1^2: omega^2 = 1.2, and z2/z0 = omega^2/24 at T = m = 1
    text = " + ".join(["0.001*x1^2"] * 600)
    code, out = run_cli(["kw", "--potential", text, "--dim", "1", "--T", "1", "--h", "0.1"], capsys)
    assert code == 0
    assert json.loads(out)["z2_over_z0"] == pytest.approx(0.05, rel=1e-10)


def test_mean_potential_of_zero_exits_0(capsys):
    # <V> = 0 exactly; its quadrature check is scaled by int b*|V|
    code, out = run_cli(
        ["kw", "--potential", "x1^2 + x2^2 - 1", "--dim", "2", "--T", "1", "--h", "0.1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    want = 1.0 + 0.02 * payload["z2_over_z0"]
    assert payload["predicted"]["Er"] == pytest.approx(want, rel=1e-14)


def test_kw_z_beyond_float_range_exits_3(capsys):
    # Z0 = (sqrt(2 pi)/0.01)^300 overflows while log Z0 and F, E, S do not:
    # the printed Z_r is inf, an error, as for an eval quartet
    code = run(["kw", "--omega", ",".join(["0.01"] * 300), "--T", "1", "--h", "0.1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: non-finite value in output field '$.predicted.Zr'\n"


def test_tau_beyond_float_range_is_named(capsys):
    # tau = h*omega/(2T) = 5e309 is beyond float range
    message = "tau = h*omega/(2T) is beyond float range at omega=1e+300"
    for args in (["eval", "--system", "oscillator", "--omega", "1e300", "--T", "1", "--h", "1e10"],
                 ["kw", "--omega", "1e300", "--T", "1", "--h", "1e10"]):
        assert run(args) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
    code, out = run_cli(["sweep", "--system", "oscillator", "--omega", "1e300", "--direction",
                         "h_to_0", "--start", "1e10", "--factor", "1e-10", "--points", "6",
                         "--T", "1", "--h", "1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0] == {"error": f"ConvergenceError: {message}",
                                          "swept_value": 1e10}


def test_mu_beyond_float_range_is_named(capsys):
    # mu = 2*rho/a is inf in both: a tiny edge, and a tiny mass and temperature
    for args, edge in ((["--edges", "1e-300", "--T", "1", "--h", "1e10"], "1e-300"),
                       (["--edges", "1", "--T", "1e-300", "--h", "1e300", "--m", "1e-300"], "1.0")):
        assert run(["eval", "--system", "well", *args]) == 3
        message = f"mu = 2*rho/a is beyond float range at edge a={edge}"
        assert capsys.readouterr().err == f"error: {message}\n"


def test_unused_axes_of_a_huge_dimension_exit_3(capsys):
    # x2..x300000 are blocks of their own with W = 0, all equal: one
    # integral, which does not decay
    code = run(["kw", "--potential", "x1^2", "--dim", "300000", "--T", "1", "--h", "0.1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: Boltzmann factor does not decay; potential looks non-integrable\n"


def test_hear_drum_recovers_edges_at_any_scale(capsys):
    # rho is fitted in units of a power of two near the smallest sample, so
    # the design matrix stays in float range.  Two equal edges are a double
    # root, which turns the samples' rounding into an error of about its square
    # root; each sample is exp of the summed per-axis excess log(mu Z_q), not a
    # difference of two log Z of about 460 at 1e100, so it stays near 2e-14
    for edges, rel in (("1e100,1e100", 1e-12), ("1e-200,1e-200", 1e-9), ("1e100,2e100", 1e-9)):
        code, out = run_cli(["hear-drum", "--edges", edges, "--T", "1"], capsys)
        assert code == 0, edges
        want = [float(a) for a in edges.split(",")]
        assert json.loads(out)["recovered_edges"] == pytest.approx(want, rel=rel)


def test_non_finite_field_path_names_list_items():
    with pytest.raises(ConvergenceError) as exc:
        cli._sanitize({"levels": [0.0, 1.0], "probabilities": [0.5, float("nan")]})
    assert str(exc.value) == "non-finite value in output field '$.probabilities[1]'"
    with pytest.raises(ConvergenceError, match=r"field '\$\.rows\[2\]\.F'$"):
        cli._sanitize({"rows": [{"F": 1.0}, {"F": 2.0}, {"F": -math.inf}]})
    with pytest.raises(ConvergenceError, match=r"field '\$\[1\]'$"):
        cli._sanitize([0.0, math.inf])


def _leaves(obj):
    if isinstance(obj, (dict, list, tuple)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from _leaves(value)
    else:
        yield obj


@pytest.mark.parametrize("args", [
    EVAL_ARGS,
    ["eval", "--system", "oscillator", "--omega", "1,2", "--T", "1", "--h", "0.5"],
    SWEEP_ARGS,
    DRUM_ARGS,
    GIBBS_ARGS,
    KW_ARGS,
    ["kw", "--potential", "x1^2/2", "--dim", "1", "--T", "1", "--h", "0.1"],
    ["kw", "--potential", "x1^2 + x2^2 + x1*x2", "--dim", "2", "--T", "1", "--h", "0.1"],
])
def test_output_holds_only_plain_python_values(args, monkeypatch, capsys):
    # _emit checks the payload alone for non-finite floats and walks only
    # dicts, lists and tuples: so every leaf is a plain Python value, never a
    # numpy scalar, and every float of a CSV row is one of the payload's
    emitted = []
    emit = cli._emit

    def spy(payload, csv_rows, parsed):
        emitted.append((payload, csv_rows))
        emit(payload, csv_rows, parsed)

    monkeypatch.setattr(cli, "_emit", spy)
    for fmt in ("json", "csv"):
        assert run(args + ["--format", fmt]) == 0
    capsys.readouterr()
    assert len(emitted) == 2
    plain = {float, int, bool, str, type(None)}
    for payload, (header, rows) in emitted:
        values = list(_leaves(payload))
        assert {type(v) for v in values} <= plain
        assert {type(v) for v in _leaves(rows)} <= plain
        floats = {v for v in values if type(v) is float}
        assert {v for v in _leaves(rows) if type(v) is float} <= floats


def test_validation_exit_code(capsys, tmp_path):
    for args in (
        ["eval", "--system", "well", "--T", "1", "--h", "0.1"],
        ["gibbs", "--levels", "0,1", "--T", "1", "--tol", "-1"],
        ["gibbs", "--levels", "0,1,2", "--T", "1", "--random-points", "0"],
        ["kw", "--potential", "x1^2/2", "--dim", "1", "--T", "1", "--h", "0.1", "--scale", "0"],
        ["kw", "--potential", "x1^2/2", "--dim", "1", "--T", "1", "--h", "0.1", "--scale", "-1"],
        ["kw", "--potential", "x1^2", "--dim", "1", "--omega", "1", "--T", "1", "--h", "0.1"],
        # an empty frequency list
        ["kw", "--omega", ",", "--T", "1", "--h", "0.1"],
        # five coupled axes are beyond the tensor quadrature
        ["kw", "--potential", "(x1+x2+x3+x4+x5)^2 + x1^2 + x2^2 + x3^2 + x4^2 + x5^2",
         "--dim", "5", "--T", "1", "--h", "0.1"],
        # a number list holding a division by zero or a number beyond float range
        ["eval", "--system", "well", "--edges", "1/0", "--T", "1", "--h", "1"],
        ["eval", "--system", "oscillator", "--omega", "1,pi/0", "--T", "1", "--h", "1"],
        ["eval", "--system", "well", "--edges", "1e999", "--T", "1", "--h", "1"],
        ["gibbs", "--levels", "0,1e999", "--T", "1"],
        DRUM_ARGS + ["--samples", "0"],
        DRUM_ARGS + ["--samples", "-5"],
        # beyond the cap the last samples leave the fit's small-rho regime
        DRUM_ARGS + ["--samples", "29"],
        DRUM_ARGS + ["--samples", "10000"],
        # the frequency list sets the dimension and the scale
        ["kw", "--omega", "1,2", "--dim", "3", "--T", "1", "--h", "0.1"],
        ["kw", "--omega", "1,2", "--dim", "2", "--T", "1", "--h", "0.1"],
        ["kw", "--omega", "1", "--scale", "2", "--T", "1", "--h", "0.1"],
        ["kw", "--omega", "1", "--scale", "1", "--T", "1", "--h", "0.1"],
    ):
        code = run(args)
        err = capsys.readouterr().err
        assert code == 2, args
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert run(DRUM_ARGS + ["--samples", "28"]) == 0
    assert json.loads(capsys.readouterr().out)["round_trip_error"] < 1e-11
    # an output file that cannot be opened
    missing = str(tmp_path / "missing" / "x.json")
    for out, reason in ((missing, "No such file or directory"), (str(tmp_path), "Is a directory")):
        assert run(EVAL_ARGS + ["--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {out!r}: {reason}\n")


def test_list_and_text_values_may_start_with_a_minus(capsys):
    # argparse reads a word that starts with '-' as an option; run joins it to
    # its flag, so the space form prints what the '=' form prints
    for flag, value, rest in (
        ("--levels", "-1,0,1", ["--T", "1"]),
        ("--potential", "-(x1^2)+x1^4", ["--dim", "1", "--T", "1", "--h", "0.1"]),
    ):
        command = "gibbs" if flag == "--levels" else "kw"
        assert run([command, f"{flag}={value}"] + rest) == 0
        joined = capsys.readouterr()
        assert run([command, flag, value] + rest) == 0
        assert capsys.readouterr() == joined
    assert run(["eval", "--system", "well", "--edges", "-1,2", "--T", "1", "--h", "1"]) == 2
    assert capsys.readouterr().err == "error: edges must be positive, got (-1.0, 2.0)\n"
    # a word that is one of the options is not a value: this one is missing
    with pytest.raises(SystemExit) as exc:
        run(["kw", "--potential", "--dim", "1", "--T", "1", "--h", "0.1"])
    assert exc.value.code == 2
    assert "argument --potential: expected one argument" in capsys.readouterr().err


def test_abbreviated_flags_take_values_that_start_with_a_minus(capsys):
    # argparse takes a unique prefix of an option, and so does the join
    for abbreviated, full in (
        (["gibbs", "--lev", "-1,0,1", "--T", "1"], ["gibbs", "--levels=-1,0,1", "--T", "1"]),
        (["kw", "--pot", "-(x1^2)+x1^4", "--dim", "1", "--T", "1", "--h", "0.1"],
         ["kw", "--potential=-(x1^2)+x1^4", "--dim", "1", "--T", "1", "--h", "0.1"]),
    ):
        assert run(full) == 0
        expected = capsys.readouterr()
        assert run(abbreviated) == 0
        assert capsys.readouterr() == expected
    assert run(["eval", "--system", "well", "--edg", "-1,2", "--T", "1", "--h", "1"]) == 2
    assert capsys.readouterr().err == "error: edges must be positive, got (-1.0, 2.0)\n"
    # a prefix of two options of kw, --omega and --out, is argparse's error
    with pytest.raises(SystemExit) as exc:
        run(["kw", "--o", "-1", "--T", "1", "--h", "0.1"])
    assert exc.value.code == 2
    assert "ambiguous option: --o could match --omega, --out" in capsys.readouterr().err


def test_unwritable_stdout_exits_2(capsys, monkeypatch):
    def full(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys.stdout, "write", full)
    assert run(DRUM_ARGS) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device_exits_2():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qcthermo.cli"] + DRUM_ARGS,
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


def test_computation_exit_code(capsys):
    for args in (
        # huge edges: the printed classical Z is beyond float range
        ["eval", "--system", "well", "--edges", "1e300,1e300,1e300", "--T", "1", "--h", "1"],
        # so is the one of tiny frequencies
        ["eval", "--system", "oscillator", "--omega", "1e-300,1e-300", "--T", "1", "--h", "1"],
        # mu = 2.5e-300 is computed, but lam = 4/(pi mu^2) is beyond float range
        ["eval", "--system", "well", "--edges", "1e300", "--T", "1", "--h", "1"],
        # the double well's Boltzmann factor is beyond float range
        ["kw", "--potential", "x1^4 - 100*x1^2", "--dim", "1", "--T", "0.01", "--h", "0.1"],
        # the samples' rounding at this scale makes a triple root complex
        ["hear-drum", "--edges", "1e150,1e150,1e150", "--T", "1"],
        # mu = 2.5e155: (pi/4) mu^2 overflows, and the box's free energy with it
        ["eval", "--system", "well", "--edges", "1", "--T", "1e-310", "--h", "1"],
    ):
        code = run(args)
        err = capsys.readouterr().err
        assert code == 3, args
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("args", [
    # mu = 2.5e6: Z_q underflows, log Z_q does not
    ["eval", "--system", "well", "--edges", "1", "--T", "1", "--h", "1e6"],
    # both statistical sums underflow; log Z carries them
    ["eval", "--system", "well", "--edges", "1e-300,1e-300,1e-300", "--T", "1", "--h", "1e-300"],
    ["eval", "--system", "oscillator", "--omega", "1e300,1e300,1e300", "--T", "1", "--h", "1e-300"],
])
def test_underflowing_statistical_sums_are_computed(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    jsonschema.validate(payload, SCHEMA)
    tiny = [q for q in (payload["classical"], payload["regularized"]) if q["Z"] == 5e-324]
    assert tiny and all(q["log_Z"] < -700 for q in tiny)
    assert all(q["F"] == pytest.approx(-1.0 * q["log_Z"], rel=1e-15) for q in tiny)  # T = 1


def test_subnormal_2mT_keeps_rho_finite(capsys):
    # 2mT = 2e-310 is subnormal; no oscillator value depends on m
    args = ["eval", "--system", "oscillator", "--omega", "1", "--T", "1", "--h", "1"]
    payloads = []
    for m in ("1e-310", "1"):
        code, out = run_cli(args + ["--m", m], capsys)
        assert code == 0
        payloads.append(json.loads(out))
    tiny, reference = payloads
    jsonschema.validate(tiny, SCHEMA)
    assert tiny["params"].pop("m") == 1e-310 and reference["params"].pop("m") == 1.0
    rho = math.sqrt(math.pi / 2.0) / math.sqrt(1e-310)
    assert tiny["reduced"].pop("rho") == pytest.approx(rho, rel=1e-15)
    del reference["reduced"]["rho"]
    assert tiny == reference


def test_edges_whose_mu_underflows_are_classical(capsys):
    # mu = 2 rho / a underflows to 0: the edge's excess is its classical limit, 0
    code = run(["eval", "--system", "well", "--edges", "1e300", "--T", "1", "--h", "1e-30"])
    err = capsys.readouterr().err
    assert code == 3
    # lam = 4/(pi mu^2) is inf, and the output cannot print it
    assert err == "error: non-finite value in output field '$.reduced.lambda_theta[0]'\n"
    code, out = run_cli(["sweep", "--system", "well", "--direction", "a_to_inf", "--edges", "1",
                         "--start", "1e280", "--factor", "10", "--points", "8", "--T", "1",
                         "--h", "1e-40"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    rows = payload["rows"]
    assert all("error" not in row for row in rows)
    # mu is 2.5e-320 at a = 1e280 and 0 from a = 1e285 on
    assert [row["diffs"]["dF"] for row in rows[5:]] == [-0.0] * 3
    assert all(row["ratios"] == {"Z_ratio": 1.0, "E_ratio": 1.0} for row in rows[5:])


N_TO_INF_ARGS = [
    "sweep", "--system", "well", "--direction", "N_to_inf", "--edges", "1,2",
    "--start", "100", "--factor", "2", "--points", "6", "--T", "1", "--h", "0.3",
]


def test_n_to_inf_sweep_prints_every_row(capsys):
    # log Z reaches ~1e4 at N = 3200; a row prints only ratios and differences
    code, out = run_cli(N_TO_INF_ARGS + ["--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [float(row[0]) for row in rows] == [100.0 * 2**k for k in range(6)]
    assert all(0.0 < float(row[1]) < 1.0 < float(row[2]) for row in rows)
    code, out = run_cli(N_TO_INF_ARGS, capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert all("error" not in row for row in payload["rows"])
    assert set(payload["fitted_rates"]) == {"E_ratio", "Z_ratio"}


def test_deep_quantum_box_matches_mpmath(capsys):
    code, out = run_cli(["eval", "--system", "well", "--edges", "1", "--T", "1", "--h", "25"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    with mp.workdps(40):
        h = mp.mpf(25)
        d = mp.pi / 4 * (h * mp.sqrt(2 * mp.pi)) ** 2  # (pi/4) mu^2, mu = h sqrt(2 pi)
        s0 = mp.nsum(lambda n: mp.exp(-d * (n * n - 1)), [1, mp.inf])
        log_z = mp.log(2 * mp.pi * h) - d + mp.log(s0)
    assert payload["reduced"]["mu"][0] == pytest.approx(25 * math.sqrt(2 * math.pi), rel=1e-15)
    assert payload["regularized"]["log_Z"] == pytest.approx(float(log_z), rel=1e-14)
    assert payload["regularized"]["E"] == pytest.approx(float(d), rel=1e-14)


WELL_MU_2 = ["eval", "--system", "well", "--edges", "1", "--T", "1", "--h", "1"]  # mu = 2.5
WELL_SWEEP_ACROSS_MU_2 = [
    "sweep", "--system", "well", "--direction", "h_to_0", "--edges", "1", "--T", "1",
    "--h", "3", "--start", "3", "--factor", "0.7", "--points", "6",
]


def test_energy_residual_left_out_beyond_mu_2(capsys):
    code, out = run_cli(WELL_MU_2, capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert set(payload["asymptotic_residuals"]) == {"small_mu_product"}
    code, out = run_cli(WELL_SWEEP_ACROSS_MU_2, capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    energy = ["small_mu_energy" in row["asymptotic_residuals"] for row in payload["rows"]]
    # mu = 2.5066 h: the grid 3, 2.1, ..., 0.504 crosses mu = 2 after the fourth row
    assert energy == [False] * 4 + [True] * 2


def test_oscillator_residuals_left_out_where_tau_squared_overflows(capsys):
    # tau = 1.35e154: sum tau^2 is beyond float range, and so are both small-tau
    # asymptotes; they are left out, and every other field is finite
    for h in ("2.7e154", "1e300"):
        code, out = run_cli(["eval", "--system", "oscillator", "--omega", "1", "--T", "1",
                             "--h", h], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["asymptotic_residuals"] == {}
    # at tau = 1.25e154, tau^2 = 1.56e308 is a float, and both print
    code, out = run_cli(["eval", "--system", "oscillator", "--omega", "1", "--T", "1",
                         "--h", "2.5e154"], capsys)
    assert code == 0
    assert json.loads(out)["asymptotic_residuals"] == {
        "small_tau_quadratic_e": abs(1.25e154 - (1.0 + 1.5625e308 / 3.0)),
        "small_tau_quadratic_z": abs(0.0 - (1.0 - 1.5625e308 / 6.0)),
    }
    code, out = run_cli(["sweep", "--system", "oscillator", "--omega", "1", "--direction",
                         "h_to_0", "--start", "2.7e154", "--factor", "0.5", "--points", "6",
                         "--T", "1", "--h", "1", "--format", "csv"], capsys)
    assert code == 0
    assert [row[9:] for row in csv.reader(io.StringIO(out))][1:3] == [
        ["", ""], [format(abs(6.75e153 - (1.0 + 6.75e153**2 / 3.0)), ".17g"),
                   format(abs(0.0 - (1.0 - 6.75e153**2 / 6.0)), ".17g")]
    ]


def test_sweep_csv_keeps_residual_columns_across_mu_2(capsys):
    code, out = run_cli(WELL_SWEEP_ACROSS_MU_2 + ["--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "swept_value", "Z_ratio", "E_ratio", "dF", "dE", "dS",
        "sgn_dF", "sgn_dE", "sgn_dS", "residual_small_mu_energy", "residual_small_mu_product",
    ]
    assert [row[9] == "" for row in rows[1:]] == [True] * 4 + [False] * 2
    assert all(float(row[10]) >= 0 for row in rows[1:])


def test_argparse_exit_code():
    for args in (
        ["eval", "--system", "banana", "--T", "1", "--h", "1"],
        # only gibbs draws random points, so only gibbs takes --seed
        EVAL_ARGS + ["--seed", "0"],
        DRUM_ARGS + ["--seed", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2, args


def cli_bytes(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "qcthermo.cli"] + args,
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout


# runs cli.run on each argv in one child and asserts after each step that no
# module of the given list has been imported, and at the end that the argvs ran
# exactly the given qcthermo modules.  A module that `import qcthermo` put in
# sys.modules is of a ModuleType subclass until its first use runs it.
LEAN_CHILD = """
import json, sys, types

forbidden, argvs, ran = json.loads(sys.argv[1])

def check(step, expected=None):
    loaded = sorted(set(forbidden) & set(sys.modules))
    assert not loaded, f"{loaded} imported by {step}"
    if expected is not None:
        executed = sorted(name.removeprefix("qcthermo.") for name, module in sys.modules.items()
                          if name.startswith("qcthermo.") and type(module) is types.ModuleType)
        assert executed == expected, f"{step} ran {executed}, not {expected}"

import qcthermo
check("import qcthermo", [])
import qcthermo.cli
check("import qcthermo.cli", ["cli", "core"])
for argv in argvs:
    assert qcthermo.cli.run(argv) == 0, argv
    check(argv)
check(argvs, ran)
"""


def run_lean_child(forbidden, argvs, ran):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_CHILD, json.dumps([forbidden, argvs, sorted(ran)])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_eval_and_sweep_never_import_numpy(tmp_path):
    # nor the dataclasses machinery (inspect comes with it) or fractions
    argvs = [
        EVAL_ARGS,
        ["eval", "--system", "oscillator", "--omega", "1,2", "--T", "1", "--h", "0.5"],
        SWEEP_ARGS + ["--format", "csv", "--out", str(tmp_path / "sweep.csv")],
    ]
    run_lean_child(["numpy", "dataclasses", "inspect", "fractions"], argvs,
                   ["cli", "core", "oscillator", "sweeps", "theta", "well"])
    assert (tmp_path / "sweep.csv").read_text().startswith("swept_value,")


def test_hear_drum_never_imports_numpy(tmp_path):
    # the fit and its roots are plain Python
    argvs = [
        DRUM_ARGS + ["--format", "json"],
        DRUM_ARGS + ["--format", "csv", "--out", str(tmp_path / "drum.csv")],
    ]
    run_lean_child(["numpy", "dataclasses", "inspect", "fractions"], argvs,
                   ["cli", "core", "theta", "well"])
    assert (tmp_path / "drum.csv").read_text().startswith("recovered_edge,")


def test_gibbs_never_imports_dataclasses(tmp_path):
    # nor csv, as its output is JSON
    run_lean_child(["dataclasses", "csv"], [GIBBS_ARGS + ["--out", str(tmp_path / "gibbs.json")]],
                   ["cli", "core", "gibbs"])
    assert json.loads((tmp_path / "gibbs.json").read_text())["command"] == "gibbs"


@pytest.mark.parametrize("argv, ran", [
    (KW_ARGS, ["cli", "core", "oscillator", "semiclassical"]),
    (["kw", "--potential", "x1^2/2", "--T", "1", "--h", "0.1"],
     ["cli", "core", "expressions", "semiclassical"]),
])
def test_kw_runs_only_the_modules_of_its_input(argv, ran, tmp_path):
    out = tmp_path / "kw.json"
    run_lean_child(["csv"], [argv + ["--format", "json", "--out", str(out)]], ran)
    assert json.loads(out.read_text())["command"] == "kw"


def test_numpy_warnings_stay_off_stderr():
    kw = ["kw", "--dim", "1", "--T", "1", "--h", "0.1", "--potential"]
    for args, message in (
        # nan at the origin
        (kw + ["x1^2 + (x1-1)^0.5"], "potential not finite at the origin"),
        # exp(-V/T) overflows on the quadrature nodes
        (kw + ["x1^2 - 1000*exp(-x1^2)"], "quadrature not finite: inf vs inf at reduced order"),
        # a constant is split off the blocks: F, E and S are finite and Z0 = e^1000 sqrt(pi)
        (kw + ["x1^2 - 1000"], "non-finite value in output field '$.predicted.Zr'"),
        # the samples' rounding at this scale makes a triple root complex
        (["hear-drum", "--edges", "1e150,1e150,1e150", "--T", "1"],
         "complex edge estimates; rho samples too large or too noisy"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "qcthermo.cli", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: {message}\n"


def test_deep_potentials_exit_0_or_2():
    def kw(text):
        return subprocess.run(
            [sys.executable, "-m", "qcthermo.cli", "kw", "--potential", text,
             "--dim", "1", "--T", "1", "--h", "0.1"],
            capture_output=True,
            text=True,
        )

    # 490 terms of 0.01*x1^2: omega^2 = 9.8, and z2/z0 = omega^2/24 at T = m = 1
    ok = kw(" + ".join(["0.01*x1^2"] * 490))
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["z2_over_z0"] == pytest.approx(9.8 / 24.0, rel=1e-12)
    for text in ("(" * 1200 + "x1^2" + ")" * 1200, " + ".join(["0.01*x1^2"] * 3000)):
        proc = kw(text)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_determinism_byte_identical():
    for args in (GIBBS_ARGS, SWEEP_ARGS + ["--format", "csv"], DRUM_ARGS):
        code1, out1 = cli_bytes(args)
        code2, out2 = cli_bytes(args)
        assert code1 == code2 == 0
        assert out1 == out2


def test_env_var_default_format():
    code, out = cli_bytes(SWEEP_ARGS, env_extra={"QCTHERMO_FORMAT": "csv"})
    assert code == 0
    assert out.splitlines()[0].startswith(b"swept_value,")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run_cli(EVAL_ARGS + ["--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    jsonschema.validate(json.loads(target.read_text()), SCHEMA)


def run_captured(argv):
    """(exit code, stdout, stderr, warning messages, argparse usage error) of
    cli.run; any other exception propagates as the traceback it would print."""
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejected a flag value
            code, usage = exc.code, True
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught], usage


def check_contract(argv):
    """Exit 0, 2 or 3 with no warning; one error line, or argparse's usage
    error; on exit 0 schema-valid JSON with F = E - T S for eval."""
    code, out, err, caught, usage = run_captured(argv)
    assert not caught, (argv, caught)
    if usage:
        assert code == 2 and err.startswith("usage: ") and "error: argument" in err, err
        return code, None
    assert code in (0, 2, 3), argv
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        return code, None
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    if payload["command"] == "eval":
        T = payload["params"]["T"]
        for q in (payload["classical"], payload["regularized"]):
            scale = max(abs(q["E"]), abs(T * q["S"]), abs(q["F"]), 1e-300)
            assert abs(q["F"] - (q["E"] - T * q["S"])) <= 1e-12 * scale, (argv, q)
    return code, payload


def test_range_reproducers():
    # a flag value that is no finite number is argparse's usage error
    for value in ("1/0", "pi/0", "1e999"):
        assert check_contract(["eval", "--system", "well", "--edges", "1",
                               "--T", value, "--h", "1"]) == (2, None)
    # levels far above the lowest on the scale of T drop out: (E_n - E_min)/T
    # is 1e293, or beyond float range, or 5e299; F_min = E_min within T * tol
    for levels, T, f_min in (
        ("-1e293,0,1e297", 1.0, -1e293),
        ("1.9e93,8.3e248,1.3e275", 2.5e-225, 1.9e93),
        ("0,5e299,1e300", 1.0, 0.0),
    ):
        code, payload = check_contract(["gibbs", f"--levels={levels}", "--T", repr(T)])
        assert code == 0
        assert abs(payload["F_min"] - f_min) <= 1e-10 * T
        assert payload["probabilities"] == payload["closed_form_probabilities"] == [1.0, 0.0, 0.0]
    # 24 m T^3 underflows to 0
    assert check_contract(["kw", "--omega", "1", "--T", "1e-200", "--h", "1e-200",
                           "--m", "1e-200"]) == (3, None)
    # z2/z0 = omega^2/(24 T^2) = 4e317 is beyond float range: inf, with no warning
    assert check_contract(["kw", "--omega", "1e60", "--T", "1e-100", "--h", "1e-200",
                           "--m", "1"]) == (3, None)
    # 2 m T overflows; rho's unit is taken factor by factor
    code, payload = check_contract(["hear-drum", "--edges", "1,2", "--T", "1e200",
                                    "--m", "1e200"])
    assert code == 0
    assert payload["recovered_edges"] == pytest.approx([1.0, 2.0], rel=1e-9)
    # factor**k overflows on the grid, or the last start * factor**k does
    for start, factor in (("1", "1e300"), ("1e300", "100")):
        assert check_contract(["sweep", "--system", "well", "--direction", "h_to_0",
                               "--edges", "1", "--start", start, "--factor", factor,
                               "--points", "6", "--T", "1", "--h", "1"]) == (2, None)
    # N has no cap: a row multiplies the base's multiplicities by N.  With h/N,
    # N mu = 2 sqrt(pi/2) on every row, so dF -> sqrt(pi/2) T and Z_ratio ->
    # exp(-sqrt(pi/2)), up to N mu^2 / 8 < 1e-16
    for start in ("2e220", "1e16"):
        code, payload = check_contract(["sweep", "--system", "well", "--direction", "N_to_inf",
                                        "--edges", "1", "--start", start, "--factor", "2",
                                        "--points", "6", "--T", "1", "--h", "1"])
        assert code == 0
        for row in payload["rows"]:
            assert "error" not in row
            assert row["ratios"]["Z_ratio"] == 0.28555685229871414
            assert row["diffs"]["dF"] == 1.2533141373155001
            assert row["asymptotic_residuals"] == {"small_mu_energy": pytest.approx(0, abs=3e-16),
                                                   "small_mu_product": 0.0}


def number(lo=-300.0, hi=300.0):
    """A log-uniform positive number, printed as the CLI reads it."""
    return st.floats(min_value=lo, max_value=hi).map(lambda x: repr(10.0**x))


def number_list(max_size=3):
    return st.lists(number(), min_size=1, max_size=max_size).map(",".join)


@st.composite
def physics(draw, need_h=True):
    argv = ["--T", draw(number()), "--m", draw(number())]
    return argv + ["--h", draw(number())] if need_h else argv


@st.composite
def eval_argv(draw):
    system = draw(st.sampled_from(["well", "oscillator"]))
    flag = "--edges" if system == "well" else "--omega"
    return ["eval", "--system", system, flag, draw(number_list())] + draw(physics())


@st.composite
def sweep_argv(draw):
    system = draw(st.sampled_from(["well", "oscillator"]))
    flag = "--edges" if system == "well" else "--omega"
    direction = draw(st.sampled_from(SYSTEMS[system].DIRECTIONS))
    points = draw(st.integers(min_value=6, max_value=8))
    if direction == "N_to_inf":  # N from 1 to 1e5 along the grid
        start, end = draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0))
        grid = [repr(10.0**start), repr(10.0 ** ((end - start) / (points - 1)))]
    else:
        grid = [draw(number()), draw(number())]
    return (["sweep", "--system", system, "--direction", direction,
             flag, draw(number_list(max_size=2)), "--start", grid[0], "--factor", grid[1],
             "--points", str(points)] + draw(physics()))


@st.composite
def drum_argv(draw):
    return ["hear-drum", "--edges", draw(number_list())] + draw(physics(need_h=False))


def potential_text(dim):
    """An expression of the potential grammar in x1..x{dim}; binary operations
    are parenthesized."""
    leaves = st.one_of(
        number(), st.just("pi"), st.sampled_from([f"x{k}" for k in range(1, dim + 1)])
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/^"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            children.map(lambda e: f"-{e}"),
            children.map(lambda e: f"exp({e})"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def kw_argv(draw):
    if draw(st.booleans()):
        field = ["--omega", draw(number_list(max_size=2))]
    else:
        # at most two axes, so that no case builds a 3-D slab grid; the text
        # is joined to its flag, as a leading minus would read as a flag
        dim = draw(st.integers(1, 2))
        text = draw(potential_text(dim))
        # most drawn texts do not confine; half of them get a quartic well,
        # so that the quadrature runs too
        if draw(st.booleans()):
            text = " + ".join(f"x{k}^4" for k in range(1, dim + 1)) + f" + {text}"
        field = [f"--potential={text}", "--dim", str(dim), "--scale", draw(number())]
    return ["kw"] + field + draw(physics())


@st.composite
def gibbs_argv(draw):
    # the levels are joined to their flag, as a leading minus would read as a flag
    level = st.one_of(st.just("0"), st.tuples(st.sampled_from(["", "-"]), number()).map("".join))
    levels = ",".join(draw(st.lists(level, min_size=2, max_size=6)))
    return ["gibbs", f"--levels={levels}", "--T", draw(number()),
            "--random-points", str(draw(st.integers(1, 5)))]


@given(argv=st.one_of(eval_argv(), sweep_argv(), drum_argv(), kw_argv(), gibbs_argv()))
@settings(max_examples=200, deadline=None)
def test_extreme_inputs_keep_the_exit_contract(argv):
    check_contract(argv + ["--format", "json"])
