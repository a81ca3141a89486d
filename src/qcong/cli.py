"""Command-line surface: coefficient tables, twisted expansions, Hecke
eigenchecks, congruence certification, expression evaluation, prime scans.

Exit codes: 0 success, 2 usage or input error, 3 cache error (corrupt
file or unusable cache directory),
4 degenerate normalizer (c(1) = 0), 5 failed eigencheck, 6 failed
certification.
"""

import argparse
import json
import os
import sys

from . import cache
from .borcherds import (
    EigenData,
    TwistParams,
    ZeroNormalizer,
    exact_c1,
    phi_star,
    predict_coefficient,
)
from .hecke import CongruenceSetting, density_scan, eigencheck, sturm_bound
from .mocktheta import MockTables
from .ntheory import NotInvertible
from .qexpr import (
    ExprSyntaxError,
    NonIntegralExponent,
    NonUnitDenominator,
    PoleAtOrigin,
    evaluate,
    parse,
)
from .series import EXACT, Ring

ENV_CACHE_DIR = "QCONG_CACHE_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CACHE = 3
EXIT_NORMALIZER = 4
EXIT_EIGENFAIL = 5
EXIT_CERTFAIL = 6


def _cache_dir(args):
    return args.cache_dir or os.environ.get(ENV_CACHE_DIR)


def _ring(modulus):
    return Ring(modulus) if modulus else EXACT


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True))


def cmd_coeffs(args) -> int:
    modulus = args.modulus or 0
    if args.exact and modulus:
        print("--exact and --modulus are mutually exclusive", file=sys.stderr)
        return EXIT_USAGE
    tables = MockTables(_ring(modulus), _cache_dir(args))
    tables.ensure(args.function, args.upto)
    values = tables.values(args.function)[: args.upto + 1]
    if args.json:
        _emit_json({
            "command": "coeffs", "function": args.function,
            "modulus": modulus, "upto": args.upto,
            "values": [str(v) for v in values],
        })
    else:
        for n, v in enumerate(values):
            print(f"{n},{v}")
    return EXIT_OK


def cmd_phi(args) -> int:
    modulus = args.modulus or 0
    try:
        params = TwistParams(args.delta, args.r)
    except ValueError as exc:
        print(f"invalid twist: {exc}", file=sys.stderr)
        return EXIT_USAGE
    directory = _cache_dir(args)
    values = None
    c1 = exact_c1(params)
    try:
        if directory:
            hit = cache.find_coeffs(directory, "phi_star", modulus, args.prec,
                                    args.delta, args.r)
            if hit is not None:
                values = hit[1][: args.prec]
        if values is None:
            if c1 == 0:
                raise ZeroNormalizer(f"c(1) = 0 for ({args.delta}, {args.r})")
            phi = phi_star(params, args.prec, _ring(modulus))
            values = phi.series.coeffs[1:]
            if directory:
                cache.save_coeffs(directory, "phi_star", values, modulus,
                                  args.prec, args.delta, args.r)
    except ZeroNormalizer as exc:
        print(f"degenerate normalizer: {exc}", file=sys.stderr)
        return EXIT_NORMALIZER
    if args.json:
        _emit_json({
            "command": "phi", "delta": args.delta, "r": args.r,
            "modulus": modulus, "prec": args.prec, "c1": str(c1),
            "values": [str(v) for v in values],
        })
    else:
        for n, v in enumerate(values, start=1):
            print(f"{n},{v}")
    return EXIT_OK


def cmd_heckecheck(args) -> int:
    try:
        params = TwistParams(args.delta, args.r)
        setting = CongruenceSetting(args.ell, args.R, args.B)
        tables = MockTables(Ring(setting.modulus), _cache_dir(args))
        report = eigencheck(params, setting, args.p, args.lam, args.prec, tables)
    except (ValueError, NotInvertible) as exc:
        print(f"invalid eigencheck request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = {"command": "heckecheck"}
    out.update(report.to_dict())
    out["table_source"] = tables.source
    _emit_json(out)
    return EXIT_OK if report.certified else EXIT_EIGENFAIL


def cmd_certify(args) -> int:
    prec = args.prec
    try:
        params = TwistParams(args.delta, args.r)
        setting = CongruenceSetting(args.ell, args.R, args.B)
        if prec is None:
            prec = sturm_bound(setting.k, 6)
        eigen = EigenData(setting, args.p, args.lam)
        predictions = [
            (M,) + predict_coefficient(params, args.p, M, eigen) for M in args.M
        ]
        # the eigencheck fetches each table once, deep enough for the rows too
        rows_need = {}
        for _, kind, index, _ in predictions:
            rows_need[kind] = max(rows_need.get(kind, 0), index)
        tables = MockTables(Ring(setting.modulus), _cache_dir(args))
        report = eigencheck(params, setting, args.p, args.lam, prec, tables,
                            also_reads=rows_need)
    except (ValueError, NotInvertible) as exc:
        print(f"invalid certification request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not report.certified:
        print(f"eigencheck failed at q^{report.first_failure}; "
              "certification prerequisites not met", file=sys.stderr)
        return EXIT_EIGENFAIL
    rows = []
    all_match = True
    for M, kind, index, predicted in predictions:
        actual = tables.values(kind)[index]
        match = actual == predicted
        all_match = all_match and match
        rows.append({"M": M, "function": kind, "index": index,
                     "predicted": str(predicted), "actual": str(actual),
                     "match": match})
    if args.json:
        _emit_json({
            "command": "certify", "delta": args.delta, "r": args.r,
            "p": args.p, "ell": args.ell, "R": args.R, "B": args.B,
            "weight": setting.k, "lambda": args.lam,
            "eigencheck_prec": prec, "rows": rows, "all_match": all_match,
        })
    else:
        for row in rows:
            print(f"{row['M']},{row['index']},{row['predicted']},"
                  f"{row['actual']},{str(row['match']).lower()}")
    return EXIT_OK if all_match else EXIT_CERTFAIL


def cmd_eval(args) -> int:
    modulus = args.modulus or 0
    try:
        series = evaluate(parse(args.expression), args.prec, _ring(modulus))
    except (ExprSyntaxError, NonUnitDenominator, NonIntegralExponent,
            PoleAtOrigin, NotInvertible, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        _emit_json({
            "command": "eval", "expression": args.expression,
            "modulus": modulus, "prec": args.prec,
            "values": [str(v) for v in series.coeffs],
        })
    else:
        for n, v in enumerate(series.coeffs):
            print(f"{n},{v}")
    return EXIT_OK


def cmd_scan(args) -> int:
    try:
        params = TwistParams(args.delta, args.r)
        setting = CongruenceSetting(args.ell, args.R, args.B)
    except ValueError as exc:
        print(f"invalid scan request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tables = MockTables(Ring(setting.modulus), _cache_dir(args))
    try:
        rows = density_scan(params, setting, args.bound, args.prec, tables)
    except (ValueError, NotInvertible) as exc:
        print(f"scan failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        _emit_json({
            "command": "scan", "delta": args.delta, "r": args.r,
            "ell": args.ell, "R": args.R, "B": args.B,
            "bound": args.bound, "prec": args.prec,
            "rows": [
                {"p": p, "class": label, "lambda": str(lam),
                 "first_failure": fail}
                for p, label, lam, fail in rows
            ],
        })
    else:
        for p, label, lam, fail in rows:
            print(f"{p},{label},{lam},{'' if fail is None else fail}")
    return EXIT_OK


def _add_common(sub, cache_opt=True):
    sub.add_argument("--json", action="store_true", help="emit JSON")
    if cache_opt:
        sub.add_argument("--cache-dir", default=None,
                         help=f"coefficient cache directory (or ${ENV_CACHE_DIR})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcong",
        description="Exact q-series engine for mock theta congruences.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    c = sp.add_parser("coeffs", help="mock theta coefficient tables")
    c.add_argument("--function", choices=("f", "omega"), required=True)
    c.add_argument("--upto", type=int, required=True)
    c.add_argument("--modulus", type=int, default=0)
    c.add_argument("--exact", action="store_true",
                   help="exact integer arithmetic (the default)")
    c.add_argument("--binary-cache", action="store_true",
                   help="no effect, kept for old scripts: a modular cache is "
                   "written binary whenever its modulus is at most 2**64")
    _add_common(c)
    c.set_defaults(func=cmd_coeffs)

    c = sp.add_parser("phi", help="normalized twisted expansion b(n)")
    c.add_argument("--delta", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--prec", type=int, required=True)
    c.add_argument("--modulus", type=int, default=0)
    _add_common(c)
    c.set_defaults(func=cmd_phi)

    c = sp.add_parser("heckecheck", help="certify eigen behaviour mod ell^R")
    for flag in ("--delta", "--r", "--p", "--ell", "--R", "--B", "--prec"):
        c.add_argument(flag, type=int, required=True)
    c.add_argument("--lambda", dest="lam", type=int, default=0)
    _add_common(c)
    c.set_defaults(func=cmd_heckecheck)

    c = sp.add_parser("certify", help="predicted vs computed congruences")
    for flag in ("--delta", "--r", "--p", "--ell", "--R", "--B"):
        c.add_argument(flag, type=int, required=True)
    c.add_argument("--M", type=int, nargs="*", default=[])
    c.add_argument("--prec", type=int, default=None,
                   help="eigencheck precision (default: the Sturm bound)")
    c.add_argument("--lambda", dest="lam", type=int, default=0)
    _add_common(c)
    c.set_defaults(func=cmd_certify)

    c = sp.add_parser("eval", help="evaluate an eta/Eisenstein expression")
    c.add_argument("expression")
    c.add_argument("--prec", type=int, required=True)
    c.add_argument("--modulus", type=int, default=0)
    _add_common(c, cache_opt=False)
    c.set_defaults(func=cmd_eval)

    c = sp.add_parser("scan", help="classify primes by eigen behaviour")
    for flag in ("--delta", "--r", "--ell", "--R", "--B", "--bound", "--prec"):
        c.add_argument(flag, type=int, required=True)
    _add_common(c)
    c.set_defaults(func=cmd_scan)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A check through q^0 checks nothing, so it must not certify anything.
    if getattr(args, "prec", None) is not None and args.prec < 1:
        print(f"--prec must be at least 1, got {args.prec}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except cache.CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
