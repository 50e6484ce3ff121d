"""Fuzz gate for the `report`, `nef` and `enumerate` commands: whatever
the input, a run exits 0 with its output, or 2 with nothing on stdout,
never a traceback.  An exit 2 from logbg's own checks leaves one
`error:` line on stderr; a usage error from the command-line parser
leaves a usage line before its `error:` line.

`report` writes each pair as it goes, so the one exit 2 that follows
output is the documented one: a later pair whose report holds an integer
past the interpreter's digit limit for printing, after the lines of the
pairs before it.

test_parse_memo_never_changes_a_result also holds a pair read after
another, whose parse filled the document's memo, to what it gives alone.

test_parser_matches_argparse_reference holds logbg.cli.parse_args to
the argparse parser it replaced (tests/argparse_reference.py).

Every test runs its examples through main() in one process, so each also
runs a few hundred commands, usage errors among them, on the one command
table that main() reads.
"""

import contextlib
import copy
import io
import json
import re
import sys

from hypothesis import given, settings, strategies as st

import argparse_reference
from logbg.cli import build_parser, main, parse_args
from logbg.models import FAMILIES
from logbg.search import DEFAULT_BOUNDS, MODES

# ints of every size up to 3,000 digits: a document's json.dumps stays
# under the interpreter's 4,300-digit limit, and a 2,200-digit n or
# coefficient takes a report past it
big = st.one_of(
    st.integers(0, 2 ** 80),
    st.sampled_from([40, 1000, 2200, 3000]).map(lambda d: 10 ** d - 1))
huge = st.one_of(big, big.map(lambda x: -x))


def junk_of(ints):
    """A value of any JSON type, its ints from `ints` or -3..3."""
    return st.one_of(st.none(), st.booleans(), st.floats(),
                     st.text(max_size=3), ints, st.integers(-3, 3),
                     st.lists(st.integers(0, 3), max_size=2),
                     st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                                     max_size=1))


junk = junk_of(huge)


@st.composite
def valid_pairs(draw, big=big):
    """A pair descriptor that parses: any family, fields of 2..9 or from
    `big`, prime classes with coefficients of 1..4 or from `big`."""
    kind = draw(st.sampled_from(sorted(FAMILIES)))
    size = st.integers(2, 9) | big.map(lambda x: x + 2)
    if kind == "hirzebruch":
        m = draw(size.map(lambda x: x - 1))
        ambient = {"kind": kind, "m": m}
        prime = st.one_of(
            st.sampled_from([(1, 0), (0, 1)]),
            st.tuples(st.integers(1, 3), st.integers(0, 4)).map(
                lambda ab: (ab[0], ab[0] * m + ab[1])))
    else:
        ambient = {"kind": kind, "n": draw(size)}
        if kind == "hypersurface":
            ambient["q"] = draw(size.map(lambda x: x - 1))
        prime = st.tuples(st.integers(1, 4) | big.map(lambda x: x + 1))
    generators = FAMILIES[kind].generators
    return {"ambient": ambient,
            "divisors": [{"label": f"D{i}", "class": dict(zip(generators, c))}
                         for i, c in enumerate(draw(st.lists(prime,
                                                             max_size=4)))]}


def slots(value):
    """Every (container, key) in a JSON value, depth first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield value, key
        yield from slots(item)


@st.composite
def documents(draw):
    """One pair or a list of pairs, with up to three edits that replace
    a value by one of any JSON type, delete a key or add one."""
    pairs = draw(st.lists(valid_pairs(), min_size=1, max_size=4))
    doc = {"pairs": pairs} if len(pairs) > 1 or draw(st.booleans()) \
        else pairs[0]
    return edit(draw, doc, junk)


def edit(draw, doc, junk):
    """`doc` after up to three edits in place, each drawing its new
    value, if any, from `junk`."""
    for _ in range(draw(st.integers(0, 3))):
        places = list(slots(doc))
        if not places:
            break
        container, key = draw(st.sampled_from(places))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace" or not isinstance(container, dict):
            container[key] = draw(junk)
        elif action == "delete":
            del container[key]
        else:
            container[draw(st.sampled_from(
                ["n", "q", "m", "H", "h", "C0", "f", "label", "x"]))] = \
                draw(junk)
    return doc


def run(argv, stdin=b""):
    """(exit code, stdout, stderr) of main(argv) with `stdin` as input;
    usage errors end in SystemExit(2)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.endswith("\n"), err
    assert err.count("\n") == 1, err


@settings(max_examples=200, derandomize=True, deadline=None)
@given(documents(), st.sampled_from(["table", "records"]))
def test_report_exits_0_or_2(document, fmt):
    data = json.dumps(document).encode()
    code, out, err = run(["report", "-", "--format", fmt], data)
    lines_per_pair = 3 if fmt == "table" else 1
    assert code in (0, 2), (code, err)
    if code == 0:
        assert err == ""
        pairs = document["pairs"] if "pairs" in document else [document]
        assert out.count("\n") == lines_per_pair * len(pairs)
        return
    assert_one_error_line(err)
    written = re.match(r"error: pair (\d+) of \d+: .* 4300-digit limit", err)
    if written is None:
        assert out == ""
    else:
        assert out.count("\n") == lines_per_pair * (int(written[1]) - 1)


# small ints only: no report reaches the digit limit, whose error line
# names the pair's position
small = st.integers(0, 3)


@st.composite
def memo_pairs(draw):
    """(V, M): a valid pair V, and a pair M that had V's ambient and
    classes before up to three edits.  V holds M's classes in a drawn
    order, under new labels, and its dicts may list their keys in
    another order, so a raw JSON item may miss the memo where the model
    or class it names is already there."""
    pair = draw(valid_pairs(small))

    def shuffled(obj):
        return dict(draw(st.permutations(list(obj.items()))))

    classes = draw(st.permutations([d["class"] for d in pair["divisors"]]))
    v = {"ambient": shuffled(pair["ambient"]),
         "divisors": [{"label": f"V{i}", "class": shuffled(c)}
                      for i, c in enumerate(classes)]}
    return v, edit(draw, copy.deepcopy(pair), junk_of(small))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(memo_pairs(), st.sampled_from(["table", "records"]))
def test_parse_memo_never_changes_a_result(pairs, fmt):
    """M after V, which fills parse_document's memo with M's ambient and
    classes, gives what M alone gives: the same exit code and error, and
    on exit 0 V's lines followed by M's."""
    v, m = pairs
    argv = ["report", "-", "--format", fmt]
    code_v, out_v, _ = run(argv, json.dumps({"pairs": [v]}).encode())
    code_m, out_m, err_m = run(argv, json.dumps({"pairs": [m]}).encode())
    code, out, err = run(argv, json.dumps({"pairs": [v, m]}).encode())
    assert code_v == 0
    assert (code, err) == (code_m, err_m.replace("pairs[0]", "pairs[1]"))
    assert out == (out_v + out_m if code == 0 else "")


@st.composite
def nef_arguments(draw):
    """--kind, the fields of that kind and one coefficient per generator,
    small or huge, with now and then a field missing, a field of another
    kind or a coefficient that is no integer."""
    kind = draw(st.sampled_from(sorted(FAMILIES)))
    fields = dict.fromkeys(FAMILIES[kind].fields)
    if draw(st.integers(0, 4)) == 0:
        fields.pop(draw(st.sampled_from(sorted(fields))))
    if draw(st.integers(0, 4)) == 0:
        fields[draw(st.sampled_from(["n", "q", "m"]))] = None
    coeffs = [str(draw(huge | st.integers(-3, 3)))
              for _ in FAMILIES[kind].generators]
    if draw(st.integers(0, 4)) == 0:
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = \
            draw(st.text(max_size=3))
    argv = ["nef", f"--kind={kind}", f"--divisor={','.join(coeffs)}"]
    return argv + [f"--{name}={draw(st.integers(-1, 9) | big)}"
                   for name in fields]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(nef_arguments())
def test_nef_exits_0_or_2(argv):
    code, out, err = run(argv)
    assert code in (0, 2), (code, err)
    if code == 0:
        assert err == ""
        assert out.count("\n") == 1 and out.endswith(" nef\n"), out
    else:
        assert out == ""
        assert_one_error_line(err)


# range endpoints: small, or past sys.maxsize (never between about 10^9
# and 2^63, where a case's partition would be a tuple of n ones)
endpoint = st.integers(-1, 40) | st.integers(10 ** 19, 10 ** 40)
box = st.lists(st.integers(-1, 40), min_size=2, max_size=2).map(
    lambda ab: "{}..{}".format(*sorted(ab)))
bad_values = st.one_of(
    st.tuples(endpoint, endpoint).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    endpoint.map(str),
    st.sampled_from(["", "..", "3..", "..9", "1_0", "2..1_0", " 3", "+2",
                     "\u0663", "\uff12..\uff15", "x"]))


@st.composite
def enumerate_arguments(draw):
    """A family, mode, --n and --q box (n and q from -1 to 40), nef flag,
    trivial filter, --s-max, format and worker count, with up to two
    edits that drop an option, give one a bad value (an empty, reversed,
    huge or malformed range, a non-ASCII digit, no choice) or add a flag
    that another excludes."""
    family = draw(st.sampled_from(sorted(DEFAULT_BOUNDS)))
    options = {"--family": family, "--mode": draw(st.sampled_from(MODES)),
               "--n": draw(box),
               "--format": draw(st.sampled_from(["table", "records"]))}
    if family == "hypersurface":
        options["--q"] = draw(box)
    for name, values in (("--s-max", st.integers(1, 9)),
                         ("--workers", st.integers(1, 3))):
        if draw(st.booleans()):
            options[name] = str(draw(values))
    flags = draw(st.sampled_from([[], ["--nef"], ["--no-nef"]]))
    if draw(st.booleans()):
        flags.append("--include-trivial")
    names = ["--family", "--mode", "--n", "--q", "--s-max", "--workers",
             "--format"]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["drop", "bad", "nef"]))
        if edit == "nef":
            flags = ["--nef", "--no-nef"]
        elif edit == "drop" and options:
            del options[draw(st.sampled_from(sorted(options)))]
        else:
            options[draw(st.sampled_from(names))] = draw(bad_values)
    return (["enumerate"] + [f"{name}={value}"
                             for name, value in options.items()] + flags)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(enumerate_arguments())
def test_enumerate_exits_0_or_2(argv):
    code, out, err = run(argv)
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err, err
    if code == 2:
        assert out == ""
        if not err.startswith("usage: logbg enumerate "):
            assert_one_error_line(err)
        return
    assert err == ""
    lines = out.splitlines()
    if "--format=records" in argv:
        count = json.loads(lines[-1])["summary"]["count"]
    else:
        count = int(re.match(r"found (\d+) equality case", lines[-1])[1])
    assert len(lines) == count + 1, out


@st.composite
def spelled(draw, argv):
    """`argv` with each `--name=value` kept, or split into `--name
    value`, now and then a flag given a value, and each option name now
    and then cut to a prefix of at least one letter, which may name
    another option or several."""
    spelling = []
    for arg in argv:
        if not arg.startswith("--"):
            spelling.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if draw(st.booleans()):
            name = name[:draw(st.integers(3, len(name)))]
        if eq and draw(st.booleans()):
            spelling += [name, value]
        elif not eq and draw(st.integers(0, 9)) == 0:
            spelling.append(name + "=1")
        else:
            spelling.append(name + eq + value)
    return spelling


def argparse_spelling(argv):
    """`argv` as the reference must read it to take what logbg takes.
    logbg reads the argument after an option that takes a value as that
    value unless it starts with `--`; argparse reads one led by a single
    `-` as an option, so here it is joined to its option by `=`.  This
    is the one rule in which the two parsers differ on purpose."""
    options = build_parser()[argv[0]].options

    def takes_value(arg):
        if not arg.startswith("--") or "=" in arg:
            return False
        names = [arg] if arg in options else [
            name for name in options if name.startswith(arg)]
        return len(names) == 1 and type(options[names[0]].kind) is not bool

    spelling = []
    for arg in argv:
        if arg[:1] == "-" and arg[:2] != "--" and spelling \
                and takes_value(spelling[-1]):
            spelling[-1] += "=" + arg
        else:
            spelling.append(arg)
    return spelling


# values for `nef` and `report` options: valid ones, and ones a check
# refuses (no integer, no choice, empty, or led by one or two dashes)
integers = st.sampled_from([*map(str, range(-3, 10)), "+2", "1_0", "",
                            " 3", "\u0663", "-x", "--2"])
OPTION_VALUES = {
    "nef": {"--kind": st.sampled_from([*sorted(FAMILIES), "x"]),
            "--n": integers, "--q": integers, "--m": integers,
            "--divisor": st.sampled_from(
                ["1", "1,2", "-1,2", "0,-2", "x", "", "-h", "--1"])},
    "report": {"--format": st.sampled_from(["table", "records", "json"]),
               "--out": st.sampled_from(["o.txt", "", "-", "-o", "--o"])},
}
REQUIRED = {"nef": ["--kind", "--divisor"], "report": []}


@st.composite
def command_arguments(draw, command):
    """`command` with its required options and up to four more, repeats
    among them, in any order, each `--name=value`, and for `report` up
    to two positionals among them, led by `-` now and then."""
    values = OPTION_VALUES[command]
    names = REQUIRED[command] + draw(st.lists(st.sampled_from(sorted(values)),
                                              max_size=4))
    args = [f"{name}={draw(values[name])}"
            for name in draw(st.permutations(names))]
    if command == "report":
        for word in draw(st.lists(st.sampled_from(["-", "doc.json", "-1", "-x y"]),
                                  max_size=2)):
            args.insert(draw(st.integers(0, len(args))), word)
    return [command, *args]


# what may follow an argv: nothing, an unknown option, a flag given a
# value, a stray word or (a prefix of) --help; always last, so that
# argparse, which finds an ambiguous prefix anywhere before it acts on
# any option, meets each argument in the same order as logbg
TAILS = st.sampled_from(
    [[], [], [], [], [], [], ["--bogus"], ["-x"], ["--nef=1"], ["stray"],
     ["--help"], ["--he"], ["-h"], ["--help=1"]])

REFERENCE = argparse_reference.build_parser()


def parsed(parse, argv):
    """(0, every namespace field the `cmd_*` functions read) when
    parse(argv) accepts argv, else (SystemExit code, None)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = parse(argv)
        except SystemExit as exc:
            return exc.code, None
    return 0, {dest: getattr(namespace, dest)
               for dest in build_parser()[argv[0]].defaults}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(enumerate_arguments(), command_arguments("nef"),
                 command_arguments("report")).flatmap(spelled), TAILS)
def test_parser_matches_argparse_reference(argv, tail):
    """parse_args and the argparse parser it replaced both accept an
    argv, with the same value in every field a command reads, or both
    exit with the same code: 0 after --help, 2 on a usage error."""
    argv = argv + tail
    assert parsed(parse_args, argv) == \
        parsed(REFERENCE.parse_args, argparse_spelling(argv))
