"""Command line driver.

Exit codes: 0 all checks pass, 1 verification mismatch, 2 usage error
or unusable cache directory, 3 request beyond the exact integer capacity
of the theta engine or beyond the memory available, 141 (128 + SIGPIPE)
when the reader of stdout closes it early, as in `qflab theta ... |
head -1`; that exit prints nothing to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .cache import cache_theta, make_cache
from .forms import parse_form
from .qseries import (EtaQuotient, cusp_orders, eta_quotient_expansion,
                      newman_check, sturm_bound)
from .regularity import is_strongly_s_regular
from .search import SearchConfig, search_diagonal
from .transforms import gamma_sublattices, lambda_composite
from .verify import run_lemma54, run_props, run_table1, table1_markdown


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflab",
        description="exact representation numbers of positive definite "
                    "integral quadratic forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p, choices=("text", "json", "csv")):
        p.add_argument("--out", choices=choices,
                       default="text", help="output format")

    p = sub.add_parser("theta", help="theta series coefficients")
    p.add_argument("--form", required=True,
                   help='diagonal "1,2,3,10" or JSON {"rank":..,"hessian":..}')
    p.add_argument("--prec", type=int, required=True)
    p.add_argument("--cache-dir", default=None)
    add_out(p)

    p = sub.add_parser("sreg", help="strong square-regularity check")
    p.add_argument("--form", required=True)
    p.add_argument("--bound", type=int, default=300)
    p.add_argument("--cache-dir", default=None)
    add_out(p)

    p = sub.add_parser("lambda", help="scaled Watson transform")
    p.add_argument("--form", required=True)
    p.add_argument("--n", type=int, required=True,
                   help="transform index (prime power or composite)")

    p = sub.add_parser("gamma", help="the two index-p norm-p sublattices")
    p.add_argument("--form", required=True)
    p.add_argument("-p", "--prime", type=int, required=True)

    p = sub.add_parser("eta", help="eta quotient expansion and modular data")
    p.add_argument("--quotient", required=True,
                   help='exponent list "delta:r,delta:r,..."')
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--prec", type=int, default=48)
    add_out(p, ("text", "json"))

    p = sub.add_parser("sturm", help="coefficient bound for a cusp form space")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, default=2)

    p = sub.add_parser("verify", help="run a verification suite")
    suites = p.add_subparsers(dest="suite", required=True)
    s = suites.add_parser("table1", help="the classification table")
    s.add_argument("--bound", type=int, default=300, help="regularity bound")
    add_out(s)
    s = suites.add_parser("props", help="the genus-pair identities")
    s.add_argument("--nmax", type=int, default=500, help="identity range")
    add_out(s)
    s = suites.add_parser("lemma54", help="the level-120 eta quotients")
    s.add_argument("--prec", type=int, default=200,
                   help="expansion precision")
    add_out(s)

    p = sub.add_parser("search", help="search diagonal forms <1,a,b,c>")
    p.add_argument("--cmax", type=int, required=True)
    p.add_argument("--bound", type=int, default=50)
    p.add_argument("--no-filters", action="store_true")
    add_out(p)
    return parser


_REGULARITY_COLUMNS = ["form", "dF", "ms", "verdict",
                       "witness_n", "expected", "actual"]


def _print_csv(header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    print(buf.getvalue(), end="")


def _emit_suite(report, out: str) -> int:
    if out == "json":
        print(report.to_json())
    elif out == "csv":
        _print_csv(["suite", "check", "verdict", "detail"], report.csv_rows())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout is gone: point it at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OverflowError as exc:
        print(f"error: request exceeds the exact integer capacity limit of "
              f"the theta engine ({exc})", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: request exceeds the memory available", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the cache directory is the CLI's only file I/O
        print(f"error: unusable cache directory: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "theta":
        form = parse_form(args.form)
        coeffs = cache_theta(form, args.prec, args.cache_dir).tolist()
        if args.out == "json":
            print(json.dumps({"D": 1, "prec": args.prec, "coeffs": coeffs}))
        elif args.out == "csv":
            print("n,r")
            for n, c in enumerate(coeffs):
                print(f"{n},{c}")
        else:
            print(coeffs)
        return 0

    if args.command == "sreg":
        form = parse_form(args.form)
        report = is_strongly_s_regular(form, args.bound,
                                       cache=make_cache(args.cache_dir))
        if args.out == "json":
            print(report.to_json())
        elif args.out == "csv":
            _print_csv(_REGULARITY_COLUMNS, [report.csv_row()])
        else:
            print(f"form <{report.form.describe()}>: {report.verdict}"
                  + (f", witness n={report.counterexample[0]} expected "
                     f"{report.counterexample[1]} actual {report.counterexample[2]}"
                     if report.counterexample else ""))
        return 0 if report.passed else 1

    if args.command == "lambda":
        form = parse_form(args.form)
        print(lambda_composite(form, args.n).describe())
        return 0

    if args.command == "gamma":
        form = parse_form(args.form)
        first, second = gamma_sublattices(form, args.prime)
        print(first.describe())
        print(second.describe())
        return 0

    if args.command == "eta":
        quotient = EtaQuotient.parse(args.quotient, args.level)
        if sum(delta * r for delta, r in quotient.exponents) < 0:
            raise ValueError("negative leading exponent: no printable expansion")
        series = eta_quotient_expansion(quotient, args.prec)
        newman = newman_check(quotient)
        cusps = cusp_orders(quotient)
        if args.out == "json":
            print(json.dumps({
                "level": quotient.level,
                "exponents": list(quotient.exponents),
                "weight": str(newman.weight),
                "characterDiscriminant": newman.character_discriminant,
                "newman": {"cond24a": newman.cond24a,
                           "cond24b": newman.cond24b},
                "cuspOrders": {str(d): str(o) for d, o in cusps.orders},
                "isCuspForm": cusps.is_cusp_form,
                "series": json.loads(series.to_json()),
            }, indent=2))
        else:
            print(f"level {quotient.level}, weight {newman.weight}, "
                  f"character discriminant {newman.character_discriminant}")
            print(f"modularity congruences: {newman.cond24a and newman.cond24b}")
            print("cusp orders: "
                  + ", ".join(f"{d}: {o}" for d, o in cusps.orders))
            print(f"cusp form: {cusps.is_cusp_form}")
            print(f"expansion: {series.to_json()}")
        return 0

    if args.command == "sturm":
        print(sturm_bound(args.level, args.weight))
        return 0

    if args.command == "verify":
        if args.suite == "table1":
            report = run_table1(args.bound)
            if args.out == "text":
                print(table1_markdown(report))
        elif args.suite == "props":
            report = run_props(args.nmax)
        else:
            report = run_lemma54(args.prec)
        return _emit_suite(report, args.out)

    if args.command == "search":
        config = SearchConfig(args.cmax, args.bound, not args.no_filters)
        result = search_diagonal(config, progress=True)
        if args.out == "json":
            print(json.dumps(result.to_dict(), indent=2))
        elif args.out == "csv":
            _print_csv(_REGULARITY_COLUMNS, [result.reports[diag].csv_row()
                                             for diag in result.survivors])
        else:
            print(f"examined {result.examined}, filtered {result.filtered_out}, "
                  f"{len(result.survivors)} survivors "
                  f"({result.elapsed:.1f}s)")
            for diag in result.survivors:
                print(",".join(map(str, diag)))
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
