"""Command-line frontend.

Commands: report (evaluate pair descriptors), enumerate (equality-case
search), verify-paper (built-in fixture suite), nef (divisor positivity
query).  Exit codes: 0 success, 1 verification failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .bg import full_report
from .chow import ChowError
from .fixtures import all_fixtures
from .models import FAMILIES, is_nef
from .search import (DEFAULT_HYP_BOUNDS, DEFAULT_PN_BOUNDS, SearchConfig,
                     SearchSpaceError, VerificationError,
                     enumerate_hypersurface, enumerate_pn)
from .serialize import (InputError, bounds_fields, case_record, cycle_display,
                        dump_record, format_rational, parse_ambient,
                        parse_document, report_record)

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError:
        raise InputError(f"range {text!r} is not 'A..B' or a single integer")


def _out_stream(args):
    if args.out:
        return open(args.out, "w")
    return contextlib.nullcontext(sys.stdout)


def _pair_summary(pair) -> str:
    divisors = ", ".join(cycle_display(cls) for _, cls in pair.components)
    return f"({pair.model}, D = [{divisors}])"


def cmd_report(args) -> int:
    if args.input == "-":
        # bytes when stdin has them, so parse_document checks the UTF-8
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
    pairs = parse_document(data)
    with _out_stream(args) as out:
        for pair in pairs:
            report = full_report(pair)
            if args.format == "records":
                out.write(dump_record(report_record(pair, report)) + "\n")
            else:
                out.write(f"{_pair_summary(pair)}\n")
                out.write(f"  rank {report.rank}"
                          f"  c1^2.H^(n-2) = {format_rational(report.c1_sq)}"
                          f"  c2.H^(n-2) = {format_rational(report.c2_eval)}\n")
                out.write(
                    f"  discriminant = {format_rational(report.discriminant)}"
                    f"  equality(rank n) = {report.equality_n}"
                    f"  equality(rank n+1) = {report.equality_n_plus_1}"
                    f"  -(K+D) nef = {report.minus_k_plus_d_nef}\n")
    return 0


def _search_config(args) -> SearchConfig:
    defaults = DEFAULT_PN_BOUNDS if args.family == "pn" else DEFAULT_HYP_BOUNDS
    if args.family == "pn" and args.q is not None:
        raise SearchSpaceError("--q only applies to --family hypersurface")
    n_min, n_max = _parse_range(args.n) if args.n is not None else (
        defaults.n_min, defaults.n_max)
    q_min, q_max = _parse_range(args.q) if args.q is not None else (
        defaults.q_min, defaults.q_max)
    return SearchConfig(
        family=args.family, n_min=n_min, n_max=n_max, mode=args.mode,
        require_nef=args.nef, exclude_trivial=not args.include_trivial,
        s_max=args.s_max, q_min=q_min, q_max=q_max)


def _case_summary(case) -> str:
    partition = ",".join(str(d) for d in case.partition) or "empty"
    modes = ",".join(case.modes)
    head = (f"n={case.n} q={case.q}" if case.family == "hypersurface"
            else f"n={case.n}")
    return (f"{head} degrees=({partition}) equality={modes} "
            f"nef={case.nef}")


def cmd_enumerate(args) -> int:
    config = _search_config(args)
    if config.family == "pn":
        cases = enumerate_pn(config, workers=args.workers)
    else:
        cases = enumerate_hypersurface(config, workers=args.workers)
    with _out_stream(args) as out:
        if args.format == "records":
            for case in cases:
                out.write(dump_record(case_record(case, config)) + "\n")
            summary = {"summary": {"family": config.family,
                                   "count": len(cases),
                                   "bounds": bounds_fields(config)}}
            out.write(dump_record(summary) + "\n")
        else:
            for case in cases:
                out.write(_case_summary(case) + "\n")
            bounds = (f"n in [{config.n_min}, {config.n_max}]"
                      + (f", q in [{config.q_min}, {config.q_max}]"
                         if config.family == "hypersurface" else "")
                      + (", -(K+D) nef required" if config.require_nef
                         else ", no nef filter"))
            out.write(f"found {len(cases)} equality case(s); bounds: "
                      f"{bounds}\n")
    return 0


def cmd_verify(args) -> int:
    results = all_fixtures()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name:<{width}}  expected {r.expected}"
        if not r.passed:
            line += f"  computed {r.computed}  ({r.citation})"
            failures += 1
        print(line)
    print(f"{len(results) - failures}/{len(results)} fixtures passed")
    return 0 if failures == 0 else VERIFY_ERROR


def cmd_nef(args) -> int:
    ambient = {"kind": args.kind}
    ambient.update((key, getattr(args, key)) for key in ("n", "q", "m")
                   if getattr(args, key) is not None)
    model = parse_ambient(ambient)
    try:
        coeffs = [int(c) for c in args.divisor.split(",")]
    except ValueError:
        raise InputError(f"divisor {args.divisor!r} must be integers")
    divisor = model.divisor(*coeffs)
    result = is_nef(model, divisor)
    print(f"{cycle_display(divisor)} on {model}: "
          f"{'nef' if result else 'not nef'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logbg",
        description="Exact calculator and search tool for logarithmic "
                    "Chern classes and Bogomolov-Gieseker discriminants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="evaluate pair descriptors from a JSON document")
    p_report.add_argument("input", nargs="?", default="-",
                          help="descriptor file, or - for stdin")
    p_report.add_argument("--format", choices=("table", "records"),
                          default="table")
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=cmd_report)

    p_enum = sub.add_parser("enumerate", help="search for equality cases")
    p_enum.add_argument("--family", choices=("pn", "hypersurface"),
                        required=True)
    p_enum.add_argument("--mode", choices=("n", "n1", "either"),
                        default="either")
    nef_group = p_enum.add_mutually_exclusive_group()
    nef_group.add_argument("--nef", dest="nef", action="store_true",
                           default=True,
                           help="require -(K+D) nef (default)")
    nef_group.add_argument("--no-nef", dest="nef", action="store_false")
    p_enum.add_argument("--n", default=None, metavar="A..B")
    p_enum.add_argument("--q", default=None, metavar="A..B")
    p_enum.add_argument("--s-max", type=int, default=None)
    p_enum.add_argument("--include-trivial", action="store_true",
                        help="keep D = 0 and, on P^n, D = H")
    p_enum.add_argument("--workers", type=int, default=1)
    p_enum.add_argument("--format", choices=("table", "records"),
                        default="table")
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser(
        "verify-paper", help="run the pinned source-fixture suite")
    p_verify.set_defaults(func=cmd_verify)

    p_nef = sub.add_parser("nef", help="test a divisor class for nefness")
    p_nef.add_argument("--kind", choices=tuple(FAMILIES), required=True)
    p_nef.add_argument("--n", type=int, default=None)
    p_nef.add_argument("--q", type=int, default=None)
    p_nef.add_argument("--m", type=int, default=None)
    p_nef.add_argument("--divisor", required=True,
                       help="comma-separated integer coefficients")
    p_nef.set_defaults(func=cmd_nef)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ChowError, SearchSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
