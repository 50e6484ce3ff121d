"""Byte-level output gate for the CLI.

Each case runs `logbg.cli.main` in-process and compares the sha256 of
its stdout, and its exit code, with tests/golden.json.  The digests pin
`enumerate` (both families, both formats, with and without the nef
filter, single modes with trivial cases kept, a hypersurface box from q = 1
with trivial cases dropped, where the trivial rule differs from P^n's,
an unfiltered hypersurface box out to q = 400, and wide boxes: P^n to n = 100 and
n = 300 (19,275 records) and,
unfiltered in mode n with trivial cases, to n = 40, hypersurfaces to
n = 220 and q = 400, one-n P^n boxes at n = 400, whose long partitions
have many runs, with and without --s-max 60, one-n P^n boxes whose
--s-max leaves only trivial cases and so no output but the summary
(n = 1200 with --s-max 40 and, as records, n = 3000 with --s-max 10),
and --s-max caps on both
families with and without the nef filter, --workers 2 on the default
hypersurface box,
which must match its --workers 1 digest, a rejected --workers 0, and a
rejected n = 10^20 - 1, past any partition length),
`verify-paper`, `report`
in both formats on three documents from all three families (one with at
most three components per pair; one with 9 to 40 per pair, repeating
classes both in runs and interleaved; one that repeats the same P^n,
X_q and F_m ambients and the same classes across pairs, has C_inf on
two values of m and pairs with no components; one that repeats
ambients and classes with their keys in another order, and a class once
with its zero coefficient spelled out; one whose labels need JSON
escaping: quotes, backslashes, control and non-ASCII characters, an
astral character, a lone surrogate and the empty string), and `nef`
queries.  A
change that alters one of these outputs on purpose updates its digest
and says why.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from logbg.cli import main

with open(os.path.join(os.path.dirname(__file__), "golden.json")) as _fh:
    GOLDEN = json.load(_fh)

REPORT_DOCUMENT = {"pairs": [
    {"ambient": {"kind": "projective_space", "n": 7},
     "divisors": [{"label": f"D{i}", "class": {"H": d}}
                  for i, d in enumerate([2, 1, 1])]},
    {"ambient": {"kind": "projective_space", "n": 3}, "divisors": []},
    {"ambient": {"kind": "projective_space", "n": 2},
     "divisors": [{"label": "Q", "class": {"H": 4}}]},
    {"ambient": {"kind": "hypersurface", "n": 7, "q": 2},
     "divisors": [{"label": f"L{i}", "class": {"h": 1}} for i in range(3)]},
    {"ambient": {"kind": "hypersurface", "n": 4, "q": 3},
     "divisors": [{"label": "A", "class": {"h": 2}},
                  {"label": "B", "class": {"h": 5}}]},
    {"ambient": {"kind": "hirzebruch", "m": 2},
     "divisors": [{"label": "C0", "class": {"C0": 1}},
                  {"label": "Cinf", "class": {"C0": 1, "f": 2}}]},
    {"ambient": {"kind": "hirzebruch", "m": 3},
     "divisors": [{"label": "F", "class": {"f": 1}},
                  {"label": "S", "class": {"C0": 2, "f": 7}}]},
]}


def _pn(n, degrees):
    return {"ambient": {"kind": "projective_space", "n": n},
            "divisors": [{"label": f"D{i}", "class": {"H": d}}
                         for i, d in enumerate(degrees)]}


def _hyp(n, q, degrees):
    return {"ambient": {"kind": "hypersurface", "n": n, "q": q},
            "divisors": [{"label": f"L{i}", "class": {"h": d}}
                         for i, d in enumerate(degrees)]}


def _hirz(m, classes):
    return {"ambient": {"kind": "hirzebruch", "m": m},
            "divisors": [{"label": f"E{i}", "class": {"C0": a, "f": b}}
                         for i, (a, b) in enumerate(classes)]}


MANY_COMPONENTS_DOCUMENT = {"pairs": [
    _pn(7, [1] * 5 + [2, 1, 2, 1, 3, 3, 3, 1]),
    _pn(2, [3, 1, 1, 4, 1, 1, 3, 2, 2]),
    _pn(30, [1] * 40),
    _pn(12, [5, 4, 3, 2, 1] * 4 + [1] * 6),
    _hyp(5, 3, [1, 2] * 5 + [5, 5, 5]),
    _hyp(40, 2, [1] * 38 + [2, 2]),
    _hyp(3, 7, [2, 2, 1, 2, 2, 1, 1, 1, 3, 2, 1, 3]),
    _hirz(2, [(1, 0), (0, 1), (1, 2), (0, 1), (0, 1), (1, 0), (2, 5),
              (0, 1), (1, 2), (1, 2), (1, 2), (0, 1)]),
    _hirz(1, [(1, 0), (0, 1)] * 10 + [(3, 4)] * 3),
    _hirz(5, [(0, 1)] * 9 + [(1, 5), (1, 0), (1, 5), (2, 13)] * 2),
]}

REPEATED_DOCUMENT = {"pairs": [
    _pn(5, [1, 1, 1]),
    _hirz(2, [(1, 0), (1, 2), (0, 1)]),
    _hyp(4, 2, [1, 1, 2]),
    _pn(5, [1, 2, 1, 1]),
    _hirz(3, [(1, 3), (0, 1), (1, 0)]),
    _pn(5, []),
    _hyp(4, 2, [1, 2, 1, 1]),
    _hirz(2, [(0, 1), (1, 2), (0, 1), (1, 0), (1, 2)]),
    _pn(9, [1] * 6 + [2, 2]),
    {"ambient": {"q": 2, "n": 4, "kind": "hypersurface"},
     "divisors": [{"label": "A", "class": {"h": 2}},
                  {"label": "B", "class": {"h": 1}}]},
    _hyp(6, 3, [1, 1]),
    _hirz(3, [(1, 3)] * 3 + [(0, 1), (1, 3)]),
    _pn(5, [1, 1, 1]),
    _hyp(4, 2, []),
    _hirz(2, []),
    _pn(9, [2, 1, 2, 1, 1]),
    _hyp(6, 3, [1, 3, 1]),
    _hirz(3, [(1, 0), (0, 1)] * 2),
    _pn(5, [2, 2]),
]}

# equal ambients and classes whose JSON keys come in another order, or
# with a zero coefficient spelled out: each is the same ambient or class
REORDERED_DOCUMENT = {"pairs": [
    {"ambient": {"kind": "hirzebruch", "m": 2},
     "divisors": [{"label": "A", "class": {"C0": 1, "f": 2}},
                  {"class": {"f": 2, "C0": 1}, "label": "B"},
                  {"label": "F", "class": {"f": 1}}]},
    {"ambient": {"m": 2, "kind": "hirzebruch"},
     "divisors": [{"label": "C", "class": {"f": 2, "C0": 1}},
                  {"label": "G", "class": {"C0": 0, "f": 1}},
                  {"label": "H", "class": {"f": 1, "C0": 0}},
                  {"label": "E", "class": {"C0": 1, "f": 2}}]},
    {"ambient": {"kind": "hypersurface", "n": 5, "q": 3},
     "divisors": [{"label": "L", "class": {"h": 1}},
                  {"label": "M", "class": {"h": 2}}]},
    {"ambient": {"q": 3, "kind": "hypersurface", "n": 5},
     "divisors": [{"class": {"h": 2}, "label": "M"},
                  {"label": "L", "class": {"h": 1}},
                  {"label": "N", "class": {"h": 1}}]},
    {"divisors": [{"label": "P", "class": {"H": 3}}],
     "ambient": {"n": 4, "kind": "projective_space"}},
    {"ambient": {"kind": "projective_space", "n": 4},
     "divisors": [{"label": "P", "class": {"H": 3}},
                  {"label": "Q", "class": {"H": 1}}]},
    {"ambient": {"kind": "hirzebruch", "m": 2}, "divisors": []},
]}

# one label per JSON escaping rule, across all three families; run_case
# writes the document with json.dump, so the lone surrogate reaches the
# file as the escape \ud800
ESCAPED_DOCUMENT = {"pairs": [
    {"ambient": {"kind": "projective_space", "n": 6},
     "divisors": [{"label": label, "class": {"H": d}}
                  for label, d in (('"', 1), ("\\", 2), ("/", 1),
                                   ("\n", 1), ("\t", 3))]},
    {"ambient": {"kind": "hypersurface", "n": 5, "q": 2},
     "divisors": [{"label": label, "class": {"h": 1}}
                  for label in ("\u0001", "\u00e9", "\x7f",
                                'a"b\\c/\u00e9\U0001f600')]},
    {"ambient": {"kind": "hirzebruch", "m": 2},
     "divisors": [{"label": "\U0001f600", "class": {"C0": 1}},
                  {"label": "\ud800", "class": {"C0": 1, "f": 2}},
                  {"label": "", "class": {"f": 1}}]},
]}

ENUM = ("enumerate", "--family")
CASES = {
    "enum-pn-table": ENUM + ("pn",),
    "enum-pn-records": ENUM + ("pn", "--format", "records"),
    "enum-hyp-table": ENUM + ("hypersurface",),
    "enum-hyp-records": ENUM + ("hypersurface", "--format", "records"),
    "enum-hyp-workers-2-records": ENUM + ("hypersurface", "--format",
                                          "records", "--workers", "2"),
    "enum-pn-workers-0": ENUM + ("pn", "--workers", "0"),
    "enum-pn-no-nef-table": ENUM + ("pn", "--no-nef"),
    "enum-pn-no-nef-records": ENUM + ("pn", "--no-nef", "--format",
                                      "records"),
    "enum-hyp-no-nef-table": ENUM + ("hypersurface", "--no-nef"),
    "enum-hyp-no-nef-records": ENUM + ("hypersurface", "--no-nef",
                                       "--format", "records"),
    "enum-pn-mode-n-trivial": ENUM + ("pn", "--n", "2..14", "--mode", "n",
                                      "--include-trivial", "--format",
                                      "records"),
    "enum-pn-mode-n1-trivial": ENUM + ("pn", "--n", "2..14", "--mode", "n1",
                                       "--include-trivial", "--format",
                                       "records"),
    "enum-hyp-mode-n-trivial": ENUM + ("hypersurface", "--n", "2..30",
                                       "--q", "1..30", "--mode", "n",
                                       "--include-trivial", "--format",
                                       "records"),
    "enum-hyp-mode-n1-trivial": ENUM + ("hypersurface", "--n", "2..30",
                                        "--q", "1..30", "--mode", "n1",
                                        "--include-trivial", "--format",
                                        "records"),
    "enum-hyp-q1-records": ENUM + ("hypersurface", "--n", "2..40", "--q",
                                   "1..4", "--format", "records"),
    "enum-hyp-wide-no-nef-trivial": ENUM + ("hypersurface", "--n", "2..60",
                                            "--q", "1..400", "--no-nef",
                                            "--include-trivial", "--format",
                                            "records"),
    "enum-pn-s-max-table": ENUM + ("pn", "--n", "2..12", "--s-max", "3",
                                   "--no-nef", "--include-trivial"),
    "enum-pn-with-q": ENUM + ("pn", "--n", "2..3", "--q", "2..3"),
    "enum-pn-huge-n": ENUM + ("pn", "--n", "99999999999999999999.."
                              "99999999999999999999"),
    "enum-hyp-s-max-trivial-records": ENUM + (
        "hypersurface", "--n", "2..120", "--q", "1..60", "--s-max", "9",
        "--include-trivial", "--format", "records"),
    "enum-pn-s-max-mode-n1-records": ENUM + (
        "pn", "--n", "2..60", "--s-max", "12", "--mode", "n1", "--format",
        "records"),
    "enum-pn-s-max-no-nef-trivial-records": ENUM + (
        "pn", "--n", "2..60", "--s-max", "12", "--no-nef",
        "--include-trivial", "--format", "records"),
    "enum-pn-wide-records": ENUM + ("pn", "--n", "2..100", "--format",
                                    "records"),
    "enum-pn-wider-records": ENUM + ("pn", "--n", "2..300", "--format",
                                     "records"),
    "enum-pn-one-n-records": ENUM + ("pn", "--n", "400..400", "--format",
                                     "records"),
    "enum-pn-one-n-s-max-records": ENUM + ("pn", "--n", "400..400",
                                           "--s-max", "60", "--format",
                                           "records"),
    "enum-pn-one-n-pruned-s-max": ENUM + ("pn", "--n", "1200..1200",
                                          "--s-max", "40"),
    "enum-pn-one-n-pruned-s-max-records": ENUM + (
        "pn", "--n", "3000..3000", "--s-max", "10", "--format", "records"),
    "enum-pn-no-nef-mode-n-trivial-records": ENUM + (
        "pn", "--n", "2..40", "--mode", "n", "--no-nef",
        "--include-trivial", "--format", "records"),
    "enum-hyp-wide-records": ENUM + ("hypersurface", "--n", "2..220",
                                     "--q", "1..400", "--format",
                                     "records"),
    "verify-paper": ("verify-paper",),
    "report-table": ("report", "{doc}"),
    "report-records": ("report", "{doc}", "--format", "records"),
    "report-many-table": ("report", "{many}"),
    "report-many-records": ("report", "{many}", "--format", "records"),
    "report-repeated-table": ("report", "{repeated}"),
    "report-repeated-records": ("report", "{repeated}", "--format",
                                "records"),
    "report-reordered-table": ("report", "{reordered}"),
    "report-reordered-records": ("report", "{reordered}", "--format",
                                 "records"),
    "report-escaped-table": ("report", "{escaped}"),
    "report-escaped-records": ("report", "{escaped}", "--format",
                               "records"),
    "nef-fiber": ("nef", "--kind", "hirzebruch", "--m", "2",
                  "--divisor", "0,2"),
    "nef-section": ("nef", "--kind", "hirzebruch", "--m", "3",
                    "--divisor", "1,0"),
    "nef-cinf": ("nef", "--kind", "hirzebruch", "--m", "3",
                 "--divisor", "1,3"),
    "nef-pn": ("nef", "--kind", "projective_space", "--n", "7",
               "--divisor", "4"),
    "nef-pn-negative": ("nef", "--kind", "projective_space", "--n", "7",
                        "--divisor", "-1"),
    "nef-hyp": ("nef", "--kind", "hypersurface", "--n", "3", "--q", "2",
                "--divisor", "1"),
    "nef-missing-n": ("nef", "--kind", "projective_space", "--divisor", "1"),
    "nef-bad-divisor": ("nef", "--kind", "hirzebruch", "--m", "2",
                        "--divisor", "1,x"),
    "nef-wrong-length": ("nef", "--kind", "hirzebruch", "--m", "2",
                         "--divisor", "1"),
}


def run_case(name, directory, *extra):
    """(sha256 of stdout, exit code) of one case, run with the further
    arguments `extra`."""
    paths = {}
    for key, document in (("doc", REPORT_DOCUMENT),
                          ("many", MANY_COMPONENTS_DOCUMENT),
                          ("repeated", REPEATED_DOCUMENT),
                          ("reordered", REORDERED_DOCUMENT),
                          ("escaped", ESCAPED_DOCUMENT)):
        paths[key] = os.path.join(directory, f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(document, fh)
    argv = [arg.format(**paths) for arg in CASES[name]] + list(extra)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    digest, code = run_case(name, str(tmp_path))
    assert code == GOLDEN[name]["exit"]
    assert digest == GOLDEN[name]["sha256"]


@pytest.mark.parametrize("name", sorted(
    name for name, argv in CASES.items()
    if argv[0] in ("report", "enumerate") and GOLDEN[name]["exit"] == 0))
def test_out_file_matches_golden(name, tmp_path):
    """--out gets the bytes stdout gets, and stdout gets none."""
    path = tmp_path / "out.txt"
    digest, code = run_case(name, str(tmp_path), "--out", str(path))
    assert code == 0
    assert digest == hashlib.sha256(b"").hexdigest()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        GOLDEN[name]["sha256"]
