"""Command-line front end.

Subcommands: eval, sweep, hear-drum, gibbs, kw.  Output is JSON (schema in
docs/output.schema.json) or CSV with the documented stable headers; byte
identical across repeated invocations for a fixed seed.  Exit codes: 0
success, 2 validation error, 3 convergence/inversion/integration failure.
Each handler imports the modules it runs, so that a process compiles and runs
only what its subcommand calls.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .core import (
    SYSTEMS,
    BoxGeometry,
    ConvergenceError,
    IntegrationError,
    InversionError,
    OscillatorSpec,
    PhysicalParams,
    ValidationError,
    parse_number,
)

__all__ = ["main", "run"]

MAX_DRUM_EDGES = 10
# hear-drum samples rho = 0.01 * min(edge) * i for i = 1..count, so the last
# sample sits at mu = 2 rho / a = 0.02 * count on the shortest edge.  The fit
# models the box's excess as a polynomial in rho, which holds while the
# neglected Poisson term 2 exp(-4 pi / mu^2) stays below 2^-53: mu < 0.579,
# so count <= 28.
MAX_DRUM_SAMPLES = 28


def _number_list(text: str) -> list[float]:
    return [parse_number(part) for part in text.split(",") if part.strip()]


def _sanitize(obj) -> None:
    """Raise ConvergenceError naming the first non-finite float in obj, in walk
    order, as '$.rows[2].F'."""
    path = _non_finite_path(obj)
    if path is not None:
        raise ConvergenceError(f"non-finite value in output field {'$' + path!r}")


def _non_finite_path(obj):
    """The path below obj of its first non-finite float ('' for obj itself), or
    None when every float in it is finite.  The walk copies nothing, and a path
    is built only as a non-finite float's walk unwinds."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else ""
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = _non_finite_path(value)
            if path is not None:
                return f".{key}{path}"
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            path = _non_finite_path(value)
            if path is not None:
                return f"[{i}]{path}"
    return None


def _emit(payload: dict, csv_rows, args) -> None:
    # every CSV cell is also a payload value, so this check covers the rows
    _sanitize(payload)
    if args.format == "json":
        import json

        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        import csv
        import io

        buf = io.StringIO()
        header, rows = csv_rows
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        where = repr(args.out) if args.out else "stdout"
        raise ValidationError(f"cannot write {where}: {exc.strerror}")


def _quartet_dict(q) -> dict:
    return {"Z": q.Z, "F": q.F, "E": q.E, "S": q.S, "log_Z": q.log_Z, "flavor": q.flavor}


def _reduced_dict(r, values) -> dict:
    """The reduced parameters with one mu, lambda_theta or tau per value, in
    the order given: r holds one per distinct value, in first-seen order."""
    where = {v: i for i, v in enumerate(dict.fromkeys(values))}
    at = [where[v] for v in values]
    out = {"rho": r.rho}
    if r.mu:
        out.update(mu=[r.mu[i] for i in at], lambda_theta=[r.lambda_theta[i] for i in at],
                   eps=r.eps, nu=r.nu)
    if r.tau:
        out.update(tau=[r.tau[i] for i in at], delta=r.delta, kappa=r.kappa)
    return out


def _build_system(args):
    """The parsed edges or frequencies, one per axis, and their system."""
    build = SYSTEMS[args.system]
    text = getattr(args, build.FLAG)
    if not text:
        raise ValidationError(f"{args.system} needs --{build.FLAG}")
    values = _number_list(text)
    return values, build(values)


def cmd_eval(args) -> None:
    from .sweeps import comparison_report

    params = PhysicalParams(T=args.T, h=args.h, m=args.m)
    values, system = _build_system(args)
    report = comparison_report(params, system)
    payload = {
        "command": "eval",
        "version": __version__,
        "system": args.system,
        "params": {"T": params.T, "h": params.h, "m": params.m},
        "reduced": _reduced_dict(report.point, values),
        "classical": _quartet_dict(report.classical),
        "regularized": _quartet_dict(report.regularized),
        "ratios": report.ratios,
        "diffs": report.diffs,
        "signs": report.signs,
        "asymptotic_residuals": report.asymptotic_residuals,
    }
    flat = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else k, obj[k])
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            flat.append((prefix, obj))

    walk("", payload)
    _emit(payload, (["key", "value"], flat), args)


def cmd_sweep(args) -> None:
    from .sweeps import SweepPlan, run_sweep

    params = PhysicalParams(T=args.T, h=args.h, m=args.m)
    _, system = _build_system(args)
    if args.points < 1:
        raise ValidationError("--points must be >= 1")
    try:
        grid = tuple(args.start * args.factor**k for k in range(args.points))
    except OverflowError:
        raise ValidationError("sweep grid is beyond float range") from None
    plan = SweepPlan(
        system=args.system,
        direction=args.direction,
        grid=grid,
        base_params=params,
        **{system.BASE_FIELD: system},
    )
    result = run_sweep(plan)
    residual_names = system.RESIDUALS
    header = [
        "swept_value", "Z_ratio", "E_ratio", "dF", "dE", "dS",
        "sgn_dF", "sgn_dE", "sgn_dS",
    ] + [f"residual_{n}" for n in residual_names]
    csv_out, json_rows = [], []
    for row in result.rows:
        if row.report is None:
            json_rows.append({"swept_value": row.swept_value, "error": row.error})
            continue
        rep = row.report
        csv_out.append(
            [row.swept_value, rep.ratios["Z_ratio"], rep.ratios["E_ratio"],
             rep.diffs["dF"], rep.diffs["dE"], rep.diffs["dS"],
             rep.signs["sgn_dF"], rep.signs["sgn_dE"], rep.signs["sgn_dS"]]
            # an empty cell marks a residual that is undefined at this point
            + [rep.asymptotic_residuals.get(n, "") for n in residual_names]
        )
        json_rows.append(
            {
                "swept_value": row.swept_value,
                "ratios": rep.ratios,
                "diffs": rep.diffs,
                "signs": rep.signs,
                "asymptotic_residuals": rep.asymptotic_residuals,
            }
        )
    payload = {
        "command": "sweep",
        "version": __version__,
        "system": args.system,
        "direction": args.direction,
        "rows": json_rows,
        "fitted_rates": {
            key: {
                "coefficient": fit.coefficient,
                "slope": fit.slope,
                "residual_norm": fit.residual_norm,
                "sign": fit.sign,
            }
            for key, fit in sorted(result.fitted_rates.items())
        },
    }
    _emit(payload, (header, csv_out), args)


def cmd_hear_drum(args) -> None:
    from .well import _drum_samples, hear_the_drum

    edges = _number_list(args.edges)
    geom = BoxGeometry(edges)
    n = len(edges)
    if n > MAX_DRUM_EDGES:
        raise ValidationError(f"at most {MAX_DRUM_EDGES} edges supported, got {n}")
    if args.samples < 1:
        raise ValidationError("--samples must be >= 1")
    if args.samples > MAX_DRUM_SAMPLES:
        raise ValidationError(f"--samples must be <= {MAX_DRUM_SAMPLES}")
    samples = _drum_samples(geom, args.T, args.m, args.samples)
    recovered = hear_the_drum(samples, n)
    true_sorted = sorted(edges)
    round_trip = max(abs(r - t) / t for r, t in zip(recovered, true_sorted))
    payload = {
        "command": "hear_drum",
        "version": __version__,
        "edges": edges,
        "samples": [{"rho": r, "ratio": v} for r, v in samples],
        "recovered_edges": list(recovered),
        "round_trip_error": round_trip,
    }
    rows = [[r, t] for r, t in zip(recovered, true_sorted)]
    _emit(payload, (["recovered_edge", "true_edge"], rows), args)


def cmd_gibbs(args) -> None:
    import numpy as np

    from .gibbs import (
        LevelSet,
        _free_energy,
        free_energy_functional,
        gibbs_closed_form,
        minimize_free_energy,
    )

    energies = _number_list(args.levels)
    levels = LevelSet(sorted(energies))
    if args.tol <= 0:
        raise ValidationError("--tol must be > 0")
    if args.random_points < 1:
        raise ValidationError("--random-points must be >= 1")
    result = minimize_free_energy(levels, args.T, args.tol)
    closed = gibbs_closed_form(levels, args.T)
    tv = 0.5 * sum(
        abs(a - b) for a, b in zip(result.point.probabilities, closed.probabilities)
    )
    f_closed = free_energy_functional(levels, args.T, closed)
    # each normalized draw is a simplex point by construction; one draw at a
    # time keeps the memory of a long ladder at one row
    energies = np.array(levels.energies)
    rng = np.random.default_rng(args.seed)
    draws = (rng.random(len(energies)) for _ in range(args.random_points))
    f_random = min(float(_free_energy(energies, args.T, raw / raw.sum())) for raw in draws)
    min_gap = f_random - f_closed
    payload = {
        "command": "gibbs",
        "version": __version__,
        "levels": list(levels.energies),
        "T": args.T,
        "F_min": result.F_min,
        "F_closed_form": f_closed,
        "iterations": result.iterations,
        "probabilities": list(result.point.probabilities),
        "closed_form_probabilities": list(closed.probabilities),
        "total_variation_distance": tv,
        "random_check": {
            "seed": args.seed,
            "points": args.random_points,
            "min_excess_free_energy": min_gap,
        },
    }
    rows = [[i, e, p] for i, (e, p) in enumerate(zip(levels.energies, result.point.probabilities))]
    _emit(payload, (["level", "energy", "probability"], rows), args)


def cmd_kw(args) -> None:
    from .semiclassical import PotentialField, harmonic_potential, kw_expansion

    if args.potential and args.omega:
        raise ValidationError("kw takes --potential or --omega, not both")
    params = PhysicalParams(T=args.T, h=args.h, m=args.m)
    if args.potential:
        from .expressions import parse_potential

        dim = 1 if args.dim is None else args.dim
        scale = 1.0 if args.scale is None else args.scale
        value = parse_potential(args.potential, dim)
        potential = PotentialField(dimension=dim, value=value, scale=scale)
        exact = None
    elif args.omega:
        # the frequency list sets the dimension, and the scale is 1
        if args.dim is not None or args.scale is not None:
            raise ValidationError("kw takes --dim and --scale only with --potential")
        from .oscillator import osc_regularized

        omegas = _number_list(args.omega)
        potential = harmonic_potential(args.m, omegas)
        exact = (
            osc_regularized(params, OscillatorSpec(omegas)) if args.h > 0 else None
        )
    else:
        raise ValidationError("kw needs --potential or --omega")
    prediction = kw_expansion(potential, params)
    payload = {
        "command": "kw",
        "version": __version__,
        "params": {"T": params.T, "h": params.h, "m": params.m},
        "z2_over_z0": prediction.z2_over_z0,
        "expansion_parameter": prediction.expansion_parameter,
        "within_validity": prediction.within_validity,
        "predicted": {
            "Zr": prediction.Zr,
            "Fr": prediction.Fr,
            "Er": prediction.Er,
            "Sr": prediction.Sr,
        },
    }
    if exact is not None:
        payload["exact"] = _quartet_dict(exact)
        payload["prediction_residuals"] = {
            "Fr": abs(prediction.Fr - exact.F),
            "Er": abs(prediction.Er - exact.E),
            "Sr": abs(prediction.Sr - exact.S),
        }
    rows = [["z2_over_z0", prediction.z2_over_z0],
            ["Zr", prediction.Zr], ["Fr", prediction.Fr],
            ["Er", prediction.Er], ["Sr", prediction.Sr]]
    _emit(payload, (["key", "value"], rows), args)


def _add_common(parser):
    parser.add_argument("--format", choices=["json", "csv"],
                        default=os.environ.get("QCTHERMO_FORMAT", "json"))
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _add_physics(parser, need_h=True):
    parser.add_argument("--T", type=parse_number, required=True)
    parser.add_argument("--m", type=parse_number, default=1.0)
    if need_h:
        parser.add_argument("--h", type=parse_number, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcthermo",
        description="Classical vs regularized quantum thermodynamics of boxes "
        "and harmonic oscillators",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="quartets and comparison at one point")
    p.add_argument("--system", choices=SYSTEMS, required=True)
    p.add_argument("--edges", default=None, help="comma-separated edges")
    p.add_argument("--omega", default=None, help="comma-separated frequencies")
    _add_physics(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="quasi-classical limit sweep")
    p.add_argument("--system", choices=SYSTEMS, required=True)
    p.add_argument("--direction", required=True)
    p.add_argument("--edges", default=None)
    p.add_argument("--omega", default=None)
    p.add_argument("--start", type=parse_number, required=True)
    p.add_argument("--factor", type=parse_number, required=True)
    p.add_argument("--points", type=int, required=True)
    _add_physics(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hear-drum", help="recover box edges from ratio samples")
    p.add_argument("--edges", required=True)
    p.add_argument("--samples", type=int, default=8)
    _add_physics(p, need_h=False)
    _add_common(p)
    p.set_defaults(func=cmd_hear_drum)

    p = sub.add_parser("gibbs", help="variational free-energy minimization")
    p.add_argument("--levels", required=True, help="comma-separated energies")
    p.add_argument("--T", type=parse_number, required=True)
    p.add_argument("--tol", type=parse_number, default=1e-10,
                   help="stop once the minimizer's Frank-Wolfe gap, an upper bound "
                        "on (F - F*)/T, is at most this")
    p.add_argument("--random-points", type=int, default=100)
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gibbs)

    p = sub.add_parser("kw", help="semiclassical h^2 expansion")
    p.add_argument("--omega", default=None)
    p.add_argument("--potential", default=None, help="expression in x1..xN")
    # unset, they are 1 with --potential and rejected with --omega
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--scale", type=parse_number, default=None)
    _add_physics(p)
    _add_common(p)
    p.set_defaults(func=cmd_kw)
    return parser


# flags whose value may start with '-', as negative levels or edges and a
# potential such as -(x1^2) do; argparse reads such a word as an option
_DASH_VALUE_FLAGS = ("--levels", "--edges", "--omega", "--potential")


def _join_dash_values(argv, parser) -> list[str]:
    """argv with each flag that argparse reads as one of _DASH_VALUE_FLAGS
    joined, as 'flag=word', to a next word that starts with '-' and begins
    none of the parser's options; a word that does, such as --dim, stays an
    option, as argparse reads it.  A flag is read as argparse reads it in
    the subcommand that argv[0] names: one of its option strings, or else a
    prefix of exactly one, so an ambiguous prefix keeps argparse's error."""
    (commands,) = parser._subparsers._group_actions
    options = [o for p in commands.choices.values() for o in p._option_string_actions]
    command = commands.choices.get(argv[0]) if argv else None
    own = command._option_string_actions if command else {}

    def dash_value_flag(flag):
        if flag in own:
            return flag in _DASH_VALUE_FLAGS
        matches = [o for o in own if flag[:2] == "--" and o.startswith(flag)]
        return len(matches) == 1 and matches[0] in _DASH_VALUE_FLAGS

    joined = []
    for word in argv:
        if (joined and word[:1] == "-" and dash_value_flag(joined[-1])
                and not any(o.startswith(word.partition("=")[0]) for o in options)):
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv, parser))
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, InversionError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
