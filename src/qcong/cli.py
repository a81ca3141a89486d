"""Command-line surface: coefficient tables, twisted expansions, Hecke
eigenchecks, congruence certification, expression evaluation, prime scans.

Exit codes: 0 success, 2 usage or input error, 3 cache error (corrupt
file or unusable cache directory), 4 degenerate normalizer (c(1) = 0),
5 failed eigencheck, 6 failed certification.  `main` alone turns an
exception into code 2, 3 or 4; codes 5 and 6 are command results.
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
    _normalizer,
    phi_star,
    predict_coefficient,
)
from .hecke import LEVEL, CongruenceSetting, density_scan, eigencheck, sturm_bound
from .mocktheta import MockTables
from .qexpr import evaluate, parse
from .series import Ring

ENV_CACHE_DIR = "QCONG_CACHE_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CACHE = 3
EXIT_NORMALIZER = 4
EXIT_EIGENFAIL = 5
EXIT_CERTFAIL = 6


def _cache_dir(args):
    return args.cache_dir or os.environ.get(ENV_CACHE_DIR)


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True))


def _emit_values(args, doc, values, start=0):
    """A table of values: JSON `doc` plus "values", or one `n,value` line each."""
    if args.json:
        _emit_json({"command": args.command, **doc,
                    "values": [str(v) for v in values]})
    else:
        for n, v in enumerate(values, start=start):
            print(f"{n},{v}")
    return EXIT_OK


def _emit_rows(args, doc, rows, columns):
    """Result rows: JSON `doc` plus "rows", or one CSV line of `columns` each."""
    if args.json:
        _emit_json({"command": args.command, **doc, "rows": rows})
    else:
        for row in rows:
            # lower() spells a bool as JSON does; no other cell has a capital
            print(",".join("" if row[c] is None else str(row[c]).lower()
                           for c in columns))
    return EXIT_OK


def _congruence_request(args):
    """The (twist, setting, table store) of a heckecheck, certify or scan."""
    params = TwistParams(args.delta, args.r)
    setting = CongruenceSetting(args.ell, args.R, args.B)
    return params, setting, MockTables(Ring(setting.modulus), _cache_dir(args))


def cmd_coeffs(args) -> int:
    tables = MockTables(Ring(args.modulus), _cache_dir(args))
    tables.ensure(args.function, args.upto)
    return _emit_values(args, {"function": args.function, "modulus": args.modulus,
                               "upto": args.upto},
                        tables.values(args.function)[: args.upto + 1])


def cmd_phi(args) -> int:
    params = TwistParams(args.delta, args.r)
    c1 = _normalizer(params)  # checked before the cache is looked at
    values, _ = cache.load_or_build(
        _cache_dir(args), "phi_star", args.modulus, args.prec,
        lambda: phi_star(params, args.prec, Ring(args.modulus)).coeffs[1:],
        args.delta, args.r)
    return _emit_values(args, {"delta": args.delta, "r": args.r,
                               "modulus": args.modulus, "prec": args.prec,
                               "c1": str(c1)},
                        values[: args.prec], start=1)  # a text file decodes whole


def cmd_heckecheck(args) -> int:
    params, setting, tables = _congruence_request(args)
    report = eigencheck(params, setting, args.p, args.lam, args.prec, tables)
    _emit_json({"command": "heckecheck", **report.to_dict(),
                "table_source": tables.source})
    return EXIT_OK if report.certified else EXIT_EIGENFAIL


def cmd_certify(args) -> int:
    params, setting, tables = _congruence_request(args)
    prec = sturm_bound(setting.k, LEVEL) if args.prec is None else args.prec
    eigen = EigenData(setting, args.p, args.lam)
    predictions = [
        (M,) + predict_coefficient(params, M, eigen) for M in args.M
    ]
    # the eigencheck fetches each table once, deep enough for the rows too
    rows_need = {}
    for _, kind, index, _ in predictions:
        rows_need[kind] = max(rows_need.get(kind, 0), index)
    report = eigencheck(params, setting, args.p, args.lam, prec, tables,
                        also_reads=rows_need)
    if not report.certified:
        print(f"eigencheck failed at q^{report.first_failure}; "
              "certification prerequisites not met", file=sys.stderr)
        return EXIT_EIGENFAIL
    rows = [{"M": M, "function": kind, "index": index, "predicted": str(predicted),
             "actual": str(tables.values(kind)[index]),
             "match": tables.values(kind)[index] == predicted}
            for M, kind, index, predicted in predictions]
    all_match = all(row["match"] for row in rows)
    _emit_rows(args, {"delta": args.delta, "r": args.r, "p": args.p,
                      "ell": args.ell, "R": args.R, "B": args.B,
                      "weight": setting.k, "lambda": args.lam,
                      "eigencheck_prec": prec, "all_match": all_match},
               rows, ("M", "index", "predicted", "actual", "match"))
    return EXIT_OK if all_match else EXIT_CERTFAIL


def cmd_eval(args) -> int:
    series = evaluate(parse(args.expression), args.prec, Ring(args.modulus))
    return _emit_values(args, {"expression": args.expression,
                               "modulus": args.modulus, "prec": args.prec},
                        series.coeffs)


def cmd_scan(args) -> int:
    params, setting, tables = _congruence_request(args)
    rows = density_scan(params, setting, args.bound, args.prec, tables)
    return _emit_rows(args, {"delta": args.delta, "r": args.r, "ell": args.ell,
                             "R": args.R, "B": args.B, "bound": args.bound,
                             "prec": args.prec},
                      [{"p": p, "class": label, "lambda": str(lam),
                        "first_failure": fail} for p, label, lam, fail in rows],
                      ("p", "class", "lambda", "first_failure"))


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
    c.add_argument("--M", type=int, nargs="+", required=True)
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
    # The one place an exception becomes an exit code; exits 5 and 6 are
    # results, returned by the commands themselves.
    try:
        # A check through q^0 checks nothing, so it must not certify anything.
        if getattr(args, "prec", None) is not None and args.prec < 1:
            raise ValueError(f"--prec must be at least 1, got {args.prec}")
        return args.func(args)
    except cache.CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NORMALIZER if isinstance(exc, ZeroNormalizer) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
