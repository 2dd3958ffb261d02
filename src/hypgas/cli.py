"""Command-line front end.

Subcommands: scatter (potential -> scattering data), bound (gas parameters
-> energy and fraction bounds), certify (manifold + gas -> condensate
certificate), sweep (1- or 2-axis parameter grid -> CSV/JSON rows), and
verify (oracle suite -> pass/fail report).  Reports are JSON (or CSV for
sweeps), byte-identical across reruns of the same inputs.

Exit codes: 0 success, 1 certification/verification failure, 2 parse
error, 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

from . import bounds as _bounds
from . import manifolds as _manifolds
from . import oracles as _oracles
from . import scattering as _scattering
from .errors import HypgasError, InvalidRegimeError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


class ParseError(Exception):
    """Invalid CLI input: bad flags, unreadable or malformed files."""


def _finite_float(text) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def load_potential(path) -> _scattering.Potential:
    """Read a potential definition file.

    Schema: {"kind": "hardcore" | "piecewise", "r0": number,
    "pieces": [[radius, value], ...]}.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read potential file {path}: {exc}") from exc
    try:
        kind = doc["kind"]
        if kind == "hardcore":
            return _scattering.Potential.hardcore(float(doc["r0"]))
        if kind in ("piecewise", "piecewise_constant", "sampled"):
            pieces = [(float(r), float(v)) for r, v in doc["pieces"]]
            return _scattering.Potential(_scattering.PIECEWISE, float(doc["r0"]), pieces)
        raise ParseError(f"unknown potential kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed potential file {path}: {exc}") from exc


def _model_from_args(args) -> _manifolds.ManifoldModel:
    name = args.model
    if name == "modular":
        if args.L is None:
            raise ParseError("--model modular requires --L")
        variant = _manifolds.ModularSurface(L=args.L)
    elif name == "congruence3":
        if args.L is None or args.vol_x1 is None:
            raise ParseError("--model congruence3 requires --L and --vol-x1")
        variant = _manifolds.CongruenceQuotient3(
            L=args.L, vol_X1=args.vol_x1, index=args.index
        )
    elif name == "random":
        if args.g is None or args.alpha is None:
            raise ParseError("--model random requires --g and --alpha")
        variant = _manifolds.RandomSurface(g=args.g, alpha=args.alpha)
    elif name == "custom":
        if args.volume is None or args.gap is None:
            raise ParseError("--model custom requires --volume and --gap")
        variant = _manifolds.CustomManifold(volume=args.volume, gap=args.gap, d=args.d)
    else:
        raise ParseError(f"unknown model {name!r}")
    try:
        return _manifolds.ManifoldModel(variant, args.gap_policy or "")
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(payload) -> str:
    payload = dict(payload)
    payload["defaults"] = {
        "profile_nodes": _scattering.PROFILE_NODES,
        "quad_min_cells": _bounds.QUAD_MIN_CELLS,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def cmd_scatter(args) -> int:
    V = load_potential(args.potential)
    params = _scattering.ScatteringParams(mu=args.mu, d=args.d)
    solution = _scattering.scattering_length(V, params)
    R = args.R if args.R is not None else _bounds.comparison_radius(V.r0, solution.a)
    energy = _scattering.scattering_energy(args.d, solution.a, args.mu, R)
    profile = solution.profile
    payload = {
        "inputs": {
            "potential": asdict(V),
            "d": args.d,
            "mu": args.mu,
            "R": R,
        },
        "derived": {
            "a": solution.a,
            "c_d": solution.c_d,
            "alpha": solution.alpha,
            "beta": solution.beta,
            "energy_E_R": energy,
            "profile": {
                "r_max": profile.r_max,
                "grid": profile.grid.tolist(),
                "values": profile.values.tolist(),
            },
        },
        "provenance": {
            "a": "exterior matching of the regular zero-energy solution",
            "energy_E_R": "scattering_energy closed form",
            "formula_variants": _bounds.formula_variants(),
        },
        "warnings": [],
    }
    _emit(_json_report(payload), args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    V = load_potential(args.potential)
    d, rho, mu = args.d, args.rho, args.mu
    a = _scattering.scattering_length(V, _scattering.ScatteringParams(mu=mu, d=d)).a
    report = _bounds.make_report(d, rho, a, mu, V.r0, gap=args.gap)
    validity, provenance = dict(report.validity), dict(report.provenance)
    if validity["y_within_cap"] and a > 0:
        # the direct bound at the comparison radius, printed as provenance only
        R = _bounds.comparison_radius(V.r0, a)
        try:
            direct = _bounds.energy_upper_bound(d, rho, a, mu, R)
        except InvalidRegimeError:
            validity["direct_proviso"] = False
        else:
            validity["direct_proviso"] = True
            provenance["energy_upper_direct"] = f"energy_upper_bound at R={R}"
            provenance["energy_upper_direct_value"] = direct
    warnings = []
    if not validity["y_within_cap"]:
        warnings.append(
            f"Y = {report.Y} exceeds the smallness cap "
            f"{_bounds.y_cap(d, V.r0)}; energy bound not applicable"
        )
    payload = {
        "inputs": {
            "d": d,
            "rho": rho,
            "mu": mu,
            "eps": args.eps,
            "gap": args.gap,
            "potential": asdict(V),
        },
        "derived": {
            "a": a,
            "Y": report.Y,
            "Y0_eps": _bounds.y0_threshold(d, args.eps, mu, V.r0),
            "energy_upper_per_particle": report.energy_upper_per_particle,
            "fraction_lower": report.fraction_lower,
            "validity": validity,
        },
        "provenance": provenance,
        "warnings": warnings,
    }
    _emit(_json_report(payload), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    V = load_potential(args.potential)
    model = _model_from_args(args)
    cert = _manifolds.certify_bec(model, args.N, V, args.mu, args.eps)
    payload = asdict(cert)
    _emit(_json_report(payload), args.out)
    return EXIT_OK if cert.certified else EXIT_FAILED


_SWEEPABLE = ("rho", "mu", "eps")


def _parse_axis(spec):
    parts = spec.split(":")
    if len(parts) != 5:
        raise ParseError(f"axis must be name:min:max:count:linear|log, got {spec!r}")
    name, lo, hi, count, scale = parts
    if name not in _SWEEPABLE:
        raise ParseError(f"sweep axis {name!r} not in {_SWEEPABLE}")
    if scale not in ("linear", "log"):
        raise ParseError(f"axis scale must be linear or log, got {scale!r}")
    try:
        lo, hi, count = _finite_float(lo), _finite_float(hi), int(count)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ParseError(f"malformed axis {spec!r}: {exc}") from exc
    if count < 1 or hi < lo or (scale == "log" and lo <= 0):
        raise ParseError(f"invalid axis range in {spec!r}")
    if count == 1:
        values = [lo]
    elif scale == "linear":
        values = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    else:
        ratio = (hi / lo) ** (1.0 / (count - 1))
        values = [lo * ratio**i for i in range(count)]
    return name, values


def cmd_sweep(args) -> int:
    V = load_potential(args.potential)
    axes = [_parse_axis(spec) for spec in args.axis]
    if not 1 <= len(axes) <= 2:
        raise ParseError("sweep takes one or two --axis flags")
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ParseError("sweep axes must reference distinct parameters")

    points = [{}]
    for name, values in axes:  # lexicographic order: first axis outermost
        points = [dict(p, **{name: v}) for p in points for v in values]

    d = args.d
    base = {"rho": args.rho, "mu": args.mu, "eps": args.eps}
    lengths = {}  # a depends only on (V, mu, d), so solve once per mu
    rows = []
    for overrides in points:
        p = dict(base, **overrides)
        mu = p["mu"]
        if mu not in lengths:
            params = _scattering.ScatteringParams(mu=mu, d=d)
            lengths[mu] = _scattering.scattering_length(V, params).a
        report = _bounds.make_report(d, p["rho"], lengths[mu], mu, V.r0, gap=args.gap)
        row = {name: p[name] for name, _ in axes}
        row.update(
            a=lengths[mu],
            Y=report.Y,
            Y0_eps=_bounds.y0_threshold(d, p["eps"], mu, V.r0),
            energy_upper_per_particle=report.energy_upper_per_particle,
            fraction_lower=report.fraction_lower,
        )
        rows.append(row)

    fields = [name for name, _ in axes] + [
        "a",
        "Y",
        "Y0_eps",
        "energy_upper_per_particle",
        "fraction_lower",
    ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else repr(row[k])) for k in fields})
        _emit(buf.getvalue(), args.out)
    else:
        _emit(_json_report({"rows": rows, "axes": [a[0] for a in axes]}), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = _oracles.inequality_report(_oracles.default_case_grid())

    energy_checks = []
    energies_ok = True
    for d in (2, 3):
        for a in (0.5, 1.0):
            V = _scattering.Potential.hardcore(a)
            params = _scattering.ScatteringParams(mu=1.0, d=d)
            R = a + 1.0
            res = _oracles.discrete_minimizer(V, params, R, (R - a) / 400)
            closed = _scattering.scattering_energy(d, a, 1.0, R)
            rel = abs(res.energy - closed) / closed
            ok = rel <= 1e-4 and res.order >= 1.8
            energies_ok = energies_ok and ok
            energy_checks.append(
                {"d": d, "a": a, "R": R, "closed_form": closed,
                 "oracle": res.energy, "rel_error": rel, "order": res.order, "passed": ok}
            )

    passed = report.passed and energies_ok
    payload = {
        "inequalities": {
            "passed": report.passed,
            "n_cases": len(report.results),
            "n_skipped": len(report.skipped),
            "min_i_slack": min((r["i_slack"] for r in report.results), default=None),
            "min_k_slack": min((r["k_slack"] for r in report.results), default=None),
        },
        "energy_oracle": energy_checks,
        "passed": passed,
    }
    _emit(_json_report(payload), args.out)
    return EXIT_OK if passed else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypgas",
        description="Scattering lengths, dilute-gas energy bounds, and BEC "
        "certificates on hyperbolic manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, potential=True):
        if potential:
            p.add_argument("--potential", required=True, help="potential definition JSON file")
        p.add_argument("--d", type=int, default=2, choices=(2, 3))
        p.add_argument("--mu", type=_finite_float, default=1.0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("scatter", help="scattering length, C_d, E_R and profile")
    common(p)
    p.add_argument("--R", type=_finite_float, default=None, help="override R = max(R0, a+1)")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("bound", help="diluteness, energy upper bound, fraction bound")
    common(p)
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--eps", type=_finite_float, default=0.1)
    p.add_argument("--gap", type=_finite_float, default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("certify", help="condensate certificate for a manifold model")
    common(p)
    p.add_argument("--model", required=True, choices=("modular", "congruence3", "random", "custom"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=_finite_float, default=0.1)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--volume", type=_finite_float, default=None)
    p.add_argument("--gap", type=_finite_float, default=None)
    p.add_argument("--vol-x1", type=_finite_float, default=None)
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--gap-policy", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="grid over one or two parameters")
    common(p)
    p.add_argument("--rho", type=_finite_float, default=1e-3)
    p.add_argument("--eps", type=_finite_float, default=0.1)
    p.add_argument("--gap", type=_finite_float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--axis",
        action="append",
        required=True,
        help="name:min:max:count:linear|log with name in " + "/".join(_SWEEPABLE),
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    common(p, potential=False)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (HypgasError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
