"""Every `--format records` line equals json.dumps of the reference dict
in records.py, keys sorted and no spaces, whatever its labels hold."""

import contextlib
import io
import json
import sys
from itertools import groupby

import pytest
from hypothesis import example, given, settings, strategies as st

import records
from logbg import __version__
from logbg.bg import full_report
from logbg.cli import main
from logbg.logchern import pn_pair
from logbg.models import default_polarization
from logbg.search import (EqualityCase, SearchConfig, enumerate_cases,
                          report_modes)
from logbg.serialize import (_MODES, Echoes, _fragment, bounds_fields,
                             case_record, parse_document)

# every code point, lone surrogates included
labels = st.text(st.characters(exclude_categories=()), max_size=6)


# every value type an Echoes or _MODES fragment holds
scalars = st.one_of(labels, st.integers(-2 ** 70, 2 ** 70), st.booleans(),
                    st.none())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(st.dictionaries(labels, scalars, max_size=6),
                 st.lists(scalars, max_size=4).map(tuple)))
@example({'"\\\x00\x1f\x7f\xe9\u2028\U0001f600': 'q"\\\n\xe9', "": ""})
@example({"a": True, "b": False, "c": None, "d": 1, "e": 0})
@example({"big": 2 ** 64, "neg": -2 ** 64 - 1})
@example(())
@example(("n",))
@example(("n1",))
@example(("n", "n1"))
def test_fragment_is_json_dumps(obj):
    assert _fragment(obj) == json.dumps(obj, sort_keys=True,
                                        separators=(",", ":"))


@st.composite
def descriptors(draw):
    """One pair on P^n, a hypersurface or F_m, with prime classes whose
    zero coefficients are sometimes left out."""
    kind = draw(st.sampled_from(["projective_space", "hypersurface",
                                 "hirzebruch"]))
    if kind == "hirzebruch":
        m = draw(st.integers(1, 4))
        ambient = {"kind": kind, "m": m}
        prime = st.one_of(
            st.sampled_from([(1, 0), (0, 1)]),
            st.integers(1, 3).flatmap(lambda a: st.tuples(
                st.just(a), st.integers(a * m, a * m + 4))))
        classes = [dict(zip(("C0", "f"), c))
                   for c in draw(st.lists(prime, max_size=5))]
    else:
        ambient = {"kind": kind, "n": draw(st.integers(2, 9))}
        if kind == "hypersurface":
            ambient["q"] = draw(st.integers(1, 4))
        gen = "H" if kind == "projective_space" else "h"
        classes = [{gen: d} for d in draw(st.lists(st.integers(1, 4),
                                                   max_size=5))]
    classes = [{k: v for k, v in c.items() if v or not draw(st.booleans())}
               for c in classes]
    names = draw(st.lists(labels, min_size=len(classes),
                          max_size=len(classes), unique=True))
    return {"ambient": ambient,
            "divisors": [{"label": label, "class": c}
                         for label, c in zip(names, classes)]}


def run(argv, stdin=None) -> list[str]:
    out = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue().splitlines()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(descriptors(), min_size=1, max_size=4))
def test_report_lines_match_reference(pairs):
    text = json.dumps({"pairs": pairs})
    expected = []
    for pair in parse_document(text):
        report = full_report(pair, default_polarization(pair.model))
        expected.append(records.dump(
            records.report_record(pair, report, __version__)))
    assert run(["report", "-", "--format", "records"], text) == expected


# (argv, the SearchConfig that argv selects): two boxes per family
BOXES = [
    (("pn", "--n", "2..12"), dict(family="pn", n_min=2, n_max=12)),
    (("pn", "--n", "2..14", "--mode", "n", "--no-nef", "--include-trivial"),
     dict(family="pn", n_min=2, n_max=14, mode="n", require_nef=False,
          exclude_trivial=False)),
    (("hypersurface", "--n", "2..20", "--q", "2..20"),
     dict(family="hypersurface", n_min=2, n_max=20, q_min=2, q_max=20)),
    (("hypersurface", "--n", "2..30", "--q", "1..30", "--mode", "n1",
      "--s-max", "9", "--include-trivial"),
     dict(family="hypersurface", n_min=2, n_max=30, q_min=1, q_max=30,
          mode="n1", s_max=9, exclude_trivial=False)),
]


@pytest.mark.parametrize("argv, fields", BOXES)
def test_enumerate_lines_match_reference(argv, fields):
    config = SearchConfig(**fields)
    cases = enumerate_cases(config)
    assert len(cases) > 1
    expected = [records.dump(records.case_record(case, config, __version__))
                for case in cases]
    expected.append(records.dump(records.summary_record(config, len(cases))))
    assert run(["enumerate", "--format", "records", "--family", *argv]) == \
        expected


# case_record writes each (degree, multiplicity) run by string repeat
@pytest.mark.parametrize("partition", [
    (), (1,), (1,) * 9, (4,), (3, 2, 2), (2, 1, 1), (5, 3, 1) + (1,) * 30])
def test_case_partition_matches_reference(partition):
    config = SearchConfig(family="pn", n_min=2, n_max=12,
                          exclude_trivial=False)
    report = full_report(pn_pair(12, partition))
    runs = tuple((d, len(list(run))) for d, run in groupby(partition))
    case = EqualityCase("pn", 12, 1, runs, report_modes(report), report)
    assert case.partition == partition
    assert case_record(case, Echoes(bounds_fields(config))) == \
        records.dump(records.case_record(case, config, __version__))


def test_class_echoes_are_shared_per_shape(monkeypatch):
    """A class's display, item head and class JSON are encoded once per
    (kind, m, grade, coefficients): (1, 2) is C_inf on F_2 but not on
    F_1, and H on P^3 and on P^5 is one shape, encoded once.  A record
    also echoes the polarization through its shape: (1, 2) on F_1 and H
    are components' shapes, and F_2's (1, 3) is the fourth."""
    from logbg import serialize
    pairs = [{"ambient": ambient, "divisors": [{"label": label, "class": c}]}
             for ambient, label, c in (
                 ({"kind": "hirzebruch", "m": 1}, "A", {"C0": 1, "f": 2}),
                 ({"kind": "hirzebruch", "m": 2}, "B", {"C0": 1, "f": 2}),
                 ({"kind": "projective_space", "n": 3}, "H3", {"H": 1}),
                 ({"kind": "projective_space", "n": 5}, "H5", {"H": 1}))]
    text = json.dumps({"pairs": pairs})
    parsed = parse_document(text)
    reports = [full_report(pair) for pair in parsed]
    assert [records.display(cls) for pair in parsed for cls in pair.classes
            ] == ["1*C0 + 2*f", "1*C0 + 2*f (= Cinf)", "1*H", "1*H"]
    displays = []
    real = serialize.cycle_display
    monkeypatch.setattr(serialize, "cycle_display",
                        lambda cls: displays.append(cls) or real(cls))
    assert run(["report", "-", "--format", "records"], text) == [
        records.dump(records.report_record(pair, report, __version__))
        for pair, report in zip(parsed, reports)]
    assert len(displays) == 4
    table = []
    for pair, report in zip(parsed, reports):
        table += [
            f"({pair.model}, D = [{records.display(pair.classes[0])}])",
            f"  rank {report.rank}  c1^2.H^(n-2) = {report.c1_sq}"
            f"  c2.H^(n-2) = {report.c2_eval}",
            f"  discriminant = {report.discriminant}"
            f"  equality(rank n) = {report.equality_n}"
            f"  equality(rank n+1) = {report.equality_n_plus_1}"
            f"  -(K+D) nef = {report.minus_k_plus_d_nef}"]
    displays.clear()
    assert run(["report", "-", "--format", "table"], text) == table
    assert len(displays) == 3
