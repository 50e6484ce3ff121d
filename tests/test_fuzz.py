"""Fuzz gate for the `report` and `nef` commands: whatever the input,
a run exits 0 with its output, or 2 with one `error:` line on stderr and
nothing on stdout, never a traceback.

`report` writes each pair as it goes, so the one exit 2 that follows
output is the documented one: a later pair whose report holds an integer
past the interpreter's digit limit for printing, after the lines of the
pairs before it.  `enumerate` is left out: its work is not yet bounded
before it starts.
"""

import contextlib
import io
import json
import re
import sys

from hypothesis import given, settings, strategies as st

from logbg.cli import main
from logbg.models import FAMILIES

# ints of every size up to 3,000 digits: a document's json.dumps stays
# under the interpreter's 4,300-digit limit, and a 2,200-digit n or
# coefficient takes a report past it
big = st.one_of(
    st.integers(0, 2 ** 80),
    st.sampled_from([40, 1000, 2200, 3000]).map(lambda d: 10 ** d - 1))
huge = st.one_of(big, big.map(lambda x: -x))
junk = st.one_of(st.none(), st.booleans(), st.floats(),
                 st.text(max_size=3), huge, st.integers(-3, 3),
                 st.lists(st.integers(0, 3), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                                 max_size=1))


@st.composite
def valid_pairs(draw):
    """A pair descriptor that parses: any family, small or huge fields,
    prime classes with small or huge coefficients."""
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
    """(exit code, stdout, stderr) of main(argv) with `stdin` as input."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
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
