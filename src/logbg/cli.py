"""Command-line frontend.

Commands: report (evaluate pair descriptors), enumerate (equality-case
search), verify-paper (built-in fixture suite), nef (divisor positivity
query).  Every command writes serialize's lines to _out_stream.  Exit
codes: 0 success, 1 verification failure, 2 usage or input error (a
closed stdin or stdout among them).  A stdout whose reader has closed
ends the command with exit 0 and no message.

main() builds the parser on its first call and reuses it on every later
call in the same process, so it may be called repeatedly; importing the
module builds none.  build_parser() returns a new parser on each call.
The start-up that perfbench's setup probe times is the import plus one
build_parser(), the one build a shell run makes.  A command loads only
what it runs: report's parse_document imports json, and verify-paper
imports the fixtures module when it runs.

main() pauses the cyclic garbage collector for each command and then
restores the caller's setting: logbg builds no reference cycles, so a
collection would free nothing, at a cost that grows with the input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import re
import sys

from .bg import reporter
from .models import FAMILIES, ChowError, is_nef
from .search import (DEFAULT_BOUNDS, MODES, SearchConfig, VerificationError,
                     enumerate_cases)
from .serialize import (Echoes, InputError, bounds_fields, case_record,
                        case_table, fixture_table, nef_line, parse_ambient,
                        parse_document, report_record, report_table,
                        summary_record, summary_table)

USAGE_ERROR = 2
VERIFY_ERROR = 1


_INTEGER = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """An optional sign and ASCII digits, nothing else: int() would also
    take '1_0', surrounding whitespace and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return integer(lo), integer(hi)
        value = integer(text)
        return value, value
    except ValueError:
        raise InputError(f"range {text!r} is not 'A..B' or a single integer")


def _out_stream(args):
    """The one stream every command writes its lines to."""
    if args.out is not None:  # "" too: open("") is the error to report
        return open(args.out, "w")
    if sys.stdout is None:
        raise OSError("stdout is closed")
    return contextlib.nullcontext(sys.stdout)


def cmd_report(args) -> int:
    if args.input == "-":
        if sys.stdin is None:
            raise OSError("stdin is closed")
        # bytes when stdin has them, so parse_document checks the UTF-8
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
    pairs = parse_document(data)
    write = report_record if args.format == "records" else report_table
    # one reporter (bg.reporter) per distinct model, keyed by id(model)
    # as Echoes keys; `pairs` holds every model until the command ends
    echoes = Echoes()
    reporters = {}
    with _out_stream(args) as out:
        for i, pair in enumerate(pairs):
            evaluate = reporters.get(id(pair.model))
            if evaluate is None:
                evaluate = reporters[id(pair.model)] = reporter(pair.model)
            report = evaluate(pair)
            try:
                text = write(pair, report, echoes)
            except ValueError:
                # the only one formatting raises: int-to-str past the
                # interpreter's digit limit
                raise InputError(
                    f"pair {i + 1} of {len(pairs)}: its report holds an "
                    "integer over the interpreter's "
                    f"{sys.get_int_max_str_digits()}-digit limit for "
                    "printing")
            out.write(text + "\n")
    return 0


def _search_config(args) -> SearchConfig:
    defaults = DEFAULT_BOUNDS[args.family]
    n_min, n_max = _parse_range(args.n) if args.n is not None else (
        defaults.n_min, defaults.n_max)
    q_min, q_max = _parse_range(args.q) if args.q is not None else (
        defaults.q_min, defaults.q_max)
    return SearchConfig(
        family=args.family, n_min=n_min, n_max=n_max, mode=args.mode,
        require_nef=args.nef, exclude_trivial=not args.include_trivial,
        s_max=args.s_max, q_min=q_min, q_max=q_max)


def cmd_enumerate(args) -> int:
    if args.workers < 1:
        raise InputError(f"workers must be at least 1, got {args.workers}")
    config = _search_config(args)
    cases = enumerate_cases(config)
    if args.format == "records":
        write, summary = case_record, summary_record
        echoes = Echoes(bounds_fields(config))
    else:
        write, summary, echoes = case_table, summary_table, Echoes()
    with _out_stream(args) as out:
        for case in cases:
            out.write(write(case, echoes) + "\n")
        out.write(summary(config, len(cases), echoes) + "\n")
    return 0


def cmd_verify(args) -> int:
    from .fixtures import all_fixtures  # only verify-paper needs them
    results = all_fixtures()
    with _out_stream(args) as out:
        out.write(fixture_table(results) + "\n")
    return 0 if all(r.passed for r in results) else VERIFY_ERROR


def cmd_nef(args) -> int:
    ambient = {"kind": args.kind}
    ambient.update((key, getattr(args, key)) for key in ("n", "q", "m")
                   if getattr(args, key) is not None)
    model = parse_ambient(ambient)
    try:
        coeffs = [integer(c) for c in args.divisor.split(",")]
    except ValueError:
        raise InputError(f"divisor {args.divisor!r} must be integers")
    divisor = model.divisor(*coeffs)
    result = is_nef(model, divisor)
    with _out_stream(args) as out:
        out.write(nef_line(model, divisor, result) + "\n")
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
    p_enum.add_argument("--family", choices=tuple(DEFAULT_BOUNDS),
                        required=True)
    p_enum.add_argument("--mode", choices=MODES, default="either")
    nef_group = p_enum.add_mutually_exclusive_group()
    nef_group.add_argument("--nef", dest="nef", action="store_true",
                           default=True,
                           help="require -(K+D) nef (default)")
    nef_group.add_argument("--no-nef", dest="nef", action="store_false")
    p_enum.add_argument("--n", default=None, metavar="A..B")
    p_enum.add_argument("--q", default=None, metavar="A..B")
    p_enum.add_argument("--s-max", type=integer, default=None)
    p_enum.add_argument("--include-trivial", action="store_true",
                        help="keep D = 0 and, on P^n, D = H")
    p_enum.add_argument("--workers", type=integer, default=1,
                        help="at least 1; the search runs in one process")
    p_enum.add_argument("--format", choices=("table", "records"),
                        default="table")
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser(
        "verify-paper", help="run the pinned source-fixture suite")
    p_verify.set_defaults(func=cmd_verify, out=None)

    p_nef = sub.add_parser("nef", help="test a divisor class for nefness")
    p_nef.add_argument("--kind", choices=tuple(FAMILIES), required=True)
    p_nef.add_argument("--n", type=integer, default=None)
    p_nef.add_argument("--q", type=integer, default=None)
    p_nef.add_argument("--m", type=integer, default=None)
    p_nef.add_argument("--divisor", required=True,
                       help="comma-separated integer coefficients")
    p_nef.set_defaults(func=cmd_nef, out=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # safe to share: parse_args keeps its state in the Namespace it
    # returns, and usage errors and --help format at call time
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # no cycles to free (tests/test_cli.py pins that), so a collection
    # would only walk live data: the parsed document, its pairs, the cases
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        if args.out is None:  # so that a closed pipe shows here, not at exit
            sys.stdout.flush()
        return code
    except (InputError, ChowError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and args.out is None:
            # stdout's reader has gone, which is no error of the input; the
            # interpreter's flush at exit must not meet the closed pipe again
            sys.stdout = open(os.devnull, "w")
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    finally:
        if gc_was_on:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
