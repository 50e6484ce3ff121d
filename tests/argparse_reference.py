"""The argparse parser that logbg's CLI used before it read its command
line from `logbg.cli.COMMANDS`, kept unchanged as the reference that
tests/test_fuzz.py holds `logbg.cli.parse_args` to.

build_parser() returns a new parser; its parse_args(argv) gives the
namespace the `cmd_*` functions read, prints --help and exits 0, and
ends a usage error in SystemExit(2).
"""

import argparse

from logbg.cli import cmd_enumerate, cmd_nef, cmd_report, cmd_verify, integer
from logbg.models import FAMILIES
from logbg.search import DEFAULT_BOUNDS, MODES


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
