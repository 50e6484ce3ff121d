"""Command-line frontend.

Commands: report (evaluate pair descriptors), enumerate (equality-case
search), verify-paper (built-in fixture suite), nef (divisor positivity
query).  Every command writes serialize's lines to _out_stream.  Exit
codes: 0 success, 1 verification failure, 2 usage or input error (a
closed stdin or stdout among them).  A stdout whose reader has closed
ends the command with exit 0 and no message.

COMMANDS, built at import, is the one description of the command line:
each command's function and help line, its options (namespace field,
kind, choices, default), the options it requires, the pair it forbids
together and its positionals.  parse_args walks argv against it, and
--help and usage errors are written from it; no argument parser is
built and argparse is not loaded.  build_parser() returns COMMANDS
itself, so the start-up that perfbench's setup probe times (the import
plus build_parser()) is what a shell run pays before parsing.  A
command loads only what it runs: report's parse_document imports json,
and verify-paper imports the fixtures module when it runs.

main() pauses the cyclic garbage collector for each command and then
restores the caller's setting: logbg builds no reference cycles, so a
collection would free nothing, at a cost that grows with the input.
"""

from __future__ import annotations

import contextlib
import gc
import os
import re
import sys
import types

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
# an argument led by `-` that names no option but is a positional
_NEGATIVE_NUMBER = re.compile(r"-[0-9]+|-[0-9]*\.[0-9]+")


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


class Option:
    """One option of a command: the namespace field it sets, its kind
    (str or integer for an option that takes a value, the constant it
    stores for a flag), the values it allows and its default."""

    __slots__ = ("dest", "kind", "choices", "default", "help")

    def __init__(self, dest, kind=str, choices=None, default=None, help=""):
        self.dest, self.kind, self.choices = dest, kind, choices
        self.default, self.help = default, help

    def synopsis(self, name: str) -> str:
        if type(self.kind) is bool:
            return name
        if self.choices is None:
            return f"{name} {self.dest.upper()}"
        return f"{name} {{{','.join(self.choices)}}}"


class Command:
    """One command: its function and help line, its options by name,
    the names it requires, the one pair of names it forbids together,
    and its positionals as (dest, default, help)."""

    __slots__ = ("func", "help", "options", "required", "exclusive",
                 "positionals", "defaults")

    def __init__(self, func, help, options=(), required=(), exclusive=(),
                 positionals=()):
        self.func, self.help, self.options = func, help, dict(options)
        self.required, self.exclusive = required, exclusive
        self.positionals = positionals
        # the namespace before argv: every command has an `out`
        self.defaults = {"func": func, "out": None}
        self.defaults.update((o.dest, o.default) for o in self.options.values())
        self.defaults.update((dest, default) for dest, default, _ in positionals)


# the options of the commands that write records or a table
OUTPUT_OPTIONS = {
    "--format": Option("format", choices=("table", "records"),
                       default="table"),
    "--out": Option("out", help="write to this file, not stdout")}

COMMANDS = {
    "report": Command(
        cmd_report, "evaluate pair descriptors from a JSON document",
        OUTPUT_OPTIONS,
        positionals=(("input", "-", "descriptor file, or - for stdin"),)),
    "enumerate": Command(
        cmd_enumerate, "search for equality cases", {
            "--family": Option("family", choices=tuple(DEFAULT_BOUNDS)),
            "--mode": Option("mode", choices=MODES, default="either"),
            "--nef": Option("nef", True, default=True,
                            help="require -(K+D) nef (default)"),
            "--no-nef": Option("nef", False, default=True),
            "--n": Option("n", help="A..B, or one integer"),
            "--q": Option("q", help="A..B, or one integer"),
            "--s-max": Option("s_max", integer),
            "--include-trivial": Option(
                "include_trivial", True, default=False,
                help="keep D = 0 and, on P^n, D = H"),
            "--workers": Option(
                "workers", integer, default=1,
                help="at least 1; the search runs in one process"),
            **OUTPUT_OPTIONS},
        required=("--family",), exclusive=("--nef", "--no-nef")),
    "verify-paper": Command(cmd_verify, "run the pinned source-fixture suite"),
    "nef": Command(
        cmd_nef, "test a divisor class for nefness", {
            "--kind": Option("kind", choices=tuple(FAMILIES)),
            "--n": Option("n", integer),
            "--q": Option("q", integer),
            "--m": Option("m", integer),
            "--divisor": Option(
                "divisor", help="comma-separated integer coefficients")},
        required=("--kind", "--divisor")),
}

DESCRIPTION = ("Exact calculator and search tool for logarithmic Chern "
               "classes and\nBogomolov-Gieseker discriminants.")


def build_parser() -> dict:
    """The command table that parse_args reads: COMMANDS itself, built
    when the module is imported."""
    return COMMANDS


def _usage(name) -> str:
    """The usage line of command `name`, or of logbg when None."""
    if name is None:
        return f"usage: logbg [-h] {{{','.join(COMMANDS)}}} ...\n"
    command = COMMANDS[name]
    parts = [f"usage: logbg {name} [-h]"]
    for option, spec in command.options.items():
        if option in command.exclusive:
            if option == command.exclusive[0]:
                parts.append(f"[{' | '.join(command.exclusive)}]")
        elif option in command.required:
            parts.append(spec.synopsis(option))
        else:
            parts.append(f"[{spec.synopsis(option)}]")
    parts += (f"[{dest}]" for dest, _, _ in command.positionals)
    return " ".join(parts) + "\n"


def _help(name) -> str:
    """The --help text of command `name`, or of logbg when None."""
    def row(left, text):
        return f"  {left:<22} {text}".rstrip()

    if name is None:
        rows = [row(each, command.help) for each, command in COMMANDS.items()]
        return (f"{_usage(None)}\n{DESCRIPTION}\n\ncommands:\n"
                + "\n".join(rows)
                + "\n\n'logbg <command> --help' lists a command's options.\n")
    command = COMMANDS[name]
    rows = [row("-h, --help", "show this help and exit")]
    rows += (row(spec.synopsis(option), spec.help)
             for option, spec in command.options.items())
    rows += (row(dest, text) for dest, _, text in command.positionals)
    return f"{_usage(name)}\n{command.help}\n\noptions:\n" + "\n".join(rows) + "\n"


def _exit_help(name):
    if sys.stdout is not None:
        sys.stdout.write(_help(name))
    raise SystemExit(0)


def _usage_error(name, message):
    """Exit 2 with the usage line of command `name` (of logbg when None)
    and one error line."""
    prog = "logbg" if name is None else f"logbg {name}"
    if sys.stderr is not None:
        sys.stderr.write(f"{_usage(name)}{prog}: error: {message}\n")
    raise SystemExit(USAGE_ERROR)


def _option_named(name, names, text):
    """The one of `names` that `text` names: itself, or the one name it
    is a prefix of, with "-h" for "--help"; None if it names none.  An
    ambiguous prefix is a usage error of command `name`."""
    if text == "-h" or text in names:
        return "--help" if text == "-h" else text
    if len(text) < 3 or not text.startswith("--"):
        return None
    matches = [option for option in names if option.startswith(text)]
    if len(matches) > 1:
        _usage_error(name, f"ambiguous option: {text} could match "
                           f"{', '.join(matches)}")
    return matches[0] if matches else None


def parse_args(argv):
    """The namespace that main() runs for `argv`, read against COMMANDS.

    An option is its full name or any unique prefix of it, with its
    value in the next argument or after `=`; the argument after an
    option that takes a value is that value unless it starts with `--`,
    so it may start with one `-`.  A repeated option keeps its last
    value.  An argument that names no option is a positional if it does
    not start with `-`, is `-` itself, holds a space, looks like a
    negative number or follows `--`; any other is unrecognized.  --help
    prints to stdout and exits 0; a usage error exits 2 (_usage_error)."""
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    name = argv[0]
    if _option_named(None, ("--help",), name):
        _exit_help(None)
    command = COMMANDS.get(name)
    if command is None:
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {name!r} "
                           f"(choose from {choices})")
    values = dict(command.defaults)
    names = (*command.options, "--help")
    seen, positionals, extras = set(), [], []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--":
            positionals.extend(args)
            break
        text, eq, value = arg.partition("=")
        option = _option_named(name, names, text) if arg[:1] == "-" else None
        if option is None:
            if arg[:1] != "-" or arg == "-" or " " in arg \
                    or _NEGATIVE_NUMBER.fullmatch(arg):
                positionals.append(arg)
            else:
                extras.append(arg)
            continue
        spec = command.options.get(option)  # None for --help
        if spec is None or type(spec.kind) is bool:
            if eq:
                _usage_error(name, f"argument {option}: ignored explicit "
                                   f"argument {value!r}")
            if spec is None:
                _exit_help(name)
            value = spec.kind
        else:
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("--"):
                    _usage_error(name, f"argument {option}: expected one "
                                       "argument")
            try:
                value = spec.kind(value)
            except ValueError:
                _usage_error(name, f"argument {option}: invalid "
                                   f"{spec.kind.__name__} value: {value!r}")
            if spec.choices is not None and value not in spec.choices:
                choices = ", ".join(map(repr, spec.choices))
                _usage_error(name, f"argument {option}: invalid choice: "
                                   f"{value!r} (choose from {choices})")
        if option in command.exclusive:
            first, second = command.exclusive
            other = second if option == first else first
            if other in seen:
                _usage_error(name, f"argument {option}: not allowed with "
                                   f"argument {other}")
        seen.add(option)
        values[spec.dest] = value
    missing = [option for option in command.required if option not in seen]
    if missing:
        _usage_error(name, "the following arguments are required: "
                           + ", ".join(missing))
    for (dest, _, _), arg in zip(command.positionals, positionals):
        values[dest] = arg
    extras += positionals[len(command.positionals):]
    if extras:
        _usage_error(name, f"unrecognized arguments: {' '.join(extras)}")
    return types.SimpleNamespace(**values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
