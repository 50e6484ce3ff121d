import gc
import io
import json
import os
import re
import subprocess
import sys
import types

import pytest
from hypothesis import example, given, settings, strategies as st

import logbg
import logbg.fixtures
from logbg import cli
from logbg.cli import main
from logbg.logchern import _log_chern_coeffs, hypersurface_pair, pn_pair
from logbg.models import FAMILIES, ChowError
from logbg.serialize import InputError, parse_document
from test_golden import REPEATED_DOCUMENT

HIRZEBRUCH_DOC = {
    "ambient": {"kind": "hirzebruch", "m": 2},
    "divisors": [
        {"label": "C0", "class": {"C0": 1}},
        {"label": "Cinf", "class": {"C0": 1, "f": 2}},
    ],
}


def mutate(monkeypatch, real, fake):
    """Replace the function `real` in every logbg module that bound it,
    as an edit of its source would."""
    modules = [module for name, module in sys.modules.items()
               if name == "logbg" or name.startswith("logbg.")]
    for module in modules:
        if getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, fake)


def wrong_modes(monkeypatch):
    """Make every root claim both modes, so enumerate exits 1."""
    from logbg import search
    solve = search._solve
    monkeypatch.setattr(search, "_solve", lambda config, B: dict.fromkeys(
        solve(config, B), ("n", "n1")))


def run_report(tmp_path, doc, fmt="records"):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    code = main(["report", str(path), "--format", fmt, "--out", str(out)])
    return code, out.read_text()


class TestRationalSerialization:
    """Reports write their rationals as f"{x!s}": "p", or "p/q" in lowest
    terms with the sign on p."""

    def test_canonical_strings(self):
        from fractions import Fraction
        assert f"{Fraction(3, 1)!s}" == "3"
        assert f"{Fraction(-1, 7)!s}" == "-1/7"
        assert f"{Fraction(2, -4)!s}" == "-1/2"

    def test_round_trip(self):
        from fractions import Fraction
        for x in (Fraction(0), Fraction(22, 7), Fraction(-5, 3), Fraction(9)):
            assert Fraction(f"{x!s}") == x

    # ints past the digit limit: 10**LIMIT has LIMIT + 1 digits, and
    # -7 * 10**LIMIT over 7 reduces to one
    LIMIT = sys.get_int_max_str_digits()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(), st.just(0),
                     st.just(10 ** LIMIT), st.just(-7 * 10 ** LIMIT)),
           st.one_of(st.integers(1, 10 ** 30), st.just(7),
                     st.just(10 ** LIMIT)))
    @example(0, 1)
    @example(-6, 4)
    @example(10 ** LIMIT, 1)
    @example(1, 10 ** LIMIT + 1)
    def test_integer_text_is_str_of_fraction(self, num, den):
        """The writers print a discriminant from N_n and 2n with the bytes
        of str(Fraction), and fail past the digit limit as it does."""
        from fractions import Fraction

        from logbg.bg import _ratio
        try:
            expected = str(Fraction(num, den))
        except ValueError:
            with pytest.raises(ValueError):
                _ratio(num, den)
        else:
            assert _ratio(num, den) == expected


class TestDescriptorParsing:
    def test_unknown_key_named_in_error(self):
        doc = dict(HIRZEBRUCH_DOC)
        doc["extra"] = 1
        with pytest.raises(InputError, match="extra"):
            parse_document(json.dumps(doc))

    def test_wrong_generator_rejected(self):
        doc = {"ambient": {"kind": "projective_space", "n": 3},
               "divisors": [{"label": "D", "class": {"C0": 1}}]}
        with pytest.raises(InputError, match="C0"):
            parse_document(json.dumps(doc))

    def test_missing_key_rejected(self):
        with pytest.raises(InputError, match="kind"):
            parse_document(json.dumps({"ambient": {}, "divisors": []}))

    def test_multi_pair_document(self):
        doc = {"pairs": [HIRZEBRUCH_DOC,
                         {"ambient": {"kind": "projective_space", "n": 3},
                          "divisors": []}]}
        assert len(parse_document(json.dumps(doc))) == 2


def bad_component_docs(component, message):
    """Two documents on P^3 that break one component rule, each with its
    error message: the component alone, and the component after a valid
    class that the parser's memo then holds.  `message` has an {i} for
    the component's index."""
    ambient = {"kind": "projective_space", "n": 3}
    valid = {"label": "A", "class": {"H": 1}}
    return [({"ambient": ambient, "divisors": divisors},
             message.format(i=len(divisors) - 1))
            for divisors in ([component], [valid, component])]


class TestReportCommand:
    def test_hirzebruch_fixture(self, tmp_path):
        code, text = run_report(tmp_path, HIRZEBRUCH_DOC)
        assert code == 0
        record = json.loads(text)
        assert record["discriminant"] == "0"
        assert record["equality_n"] is True
        assert record["minus_k_plus_d_nef"] is True

    @pytest.mark.parametrize("name", ["-1", "-.5", "-x y"])
    def test_input_led_by_one_dash(self, tmp_path, monkeypatch, capsys,
                                   name):
        """An argument led by `-` that names no option is the input when
        it looks like a negative number or holds a space, as it was
        under argparse; any other is unrecognized."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(json.dumps(HIRZEBRUCH_DOC))
        assert main(["report", name]) == 0
        assert "F_2" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["report", "-x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "logbg report: error: unrecognized arguments: -x\n")

    def test_cinf_alias_in_echo(self, tmp_path):
        _, text = run_report(tmp_path, HIRZEBRUCH_DOC)
        record = json.loads(text)
        displays = [d["display"] for d in record["input"]["divisors"]]
        assert any("Cinf" in d for d in displays)

    def test_remark_tuple(self, tmp_path):
        doc = {"ambient": {"kind": "projective_space", "n": 7},
               "divisors": [{"label": f"D{i}", "class": {"H": d}}
                            for i, d in enumerate([2, 1, 1])]}
        code, text = run_report(tmp_path, doc)
        assert code == 0
        record = json.loads(text)
        assert record["equality_n_plus_1"] is True
        assert record["equality_n"] is False

    def test_p3_empty_divisor(self, tmp_path):
        doc = {"ambient": {"kind": "projective_space", "n": 3},
               "divisors": []}
        _, text = run_report(tmp_path, doc)
        record = json.loads(text)
        assert record["equality_n_plus_1"] is True
        assert record["equality_n"] is False

    def test_invariant_over_m_range(self, tmp_path):
        fields = set()
        for m in range(1, 51):
            doc = {"ambient": {"kind": "hirzebruch", "m": m},
                   "divisors": [{"label": "C0", "class": {"C0": 1}},
                                {"label": "Cinf", "class": {"C0": 1, "f": m}}]}
            # fresh files per m: truncating a written file is slow on
            # some file systems
            (tmp_path / f"m{m}").mkdir()
            _, text = run_report(tmp_path / f"m{m}", doc)
            record = json.loads(text)
            fields.add((record["c1_sq"], record["c2_eval"],
                        record["discriminant"], record["equality_n"],
                        record["equality_n_plus_1"],
                        record["minus_k_plus_d_nef"]))
        assert fields == {("0", "0", "0", True, True, True)}

    @pytest.mark.parametrize("cls", [{"C0": 2}, {"C0": 1, "f": 1}])
    def test_non_prime_hirzebruch_class_exit_2(self, tmp_path, capsys, cls):
        doc = {"ambient": {"kind": "hirzebruch", "m": 2},
               "divisors": [{"label": "D", "class": cls}]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert "prime" in capsys.readouterr().err

    P3 = {"kind": "projective_space", "n": 3}

    # the second label follows a class already parsed, so it is seen on
    # the parser's repeated-class path
    @pytest.mark.parametrize("doc, message", [
        ({"ambient": P3, "divisors": [{"label": 1, "class": {"H": 1}}]},
         "key 'label' in divisors[0] must be a string"),
        ({"ambient": P3, "divisors": [{"label": "A", "class": {"H": 1}},
                                      {"label": ["A"], "class": {"H": 1}}]},
         "key 'label' in divisors[1] must be a string"),
        ({"ambient": P3, "divisors": {"label": "A"}},
         "key 'divisors' in document must be a list"),
        ({"pairs": [{"ambient": P3, "divisors": []},
                    {"ambient": P3, "divisors": "D1"}]},
         "key 'divisors' in pairs[1] must be a list"),
        # each component rule, in the order the parser checks them
        *bad_component_docs(["A", {"H": 1}],
                            "divisors[{i}] must be an object"),
        *bad_component_docs({"label": "B", "class": {"H": 1}, "colour": 1},
                            "unknown key 'colour' in divisors[{i}]"),
        *bad_component_docs({"class": {"H": 1}},
                            "missing key 'label' in divisors[{i}]"),
        *bad_component_docs({"label": "B"},
                            "missing key 'class' in divisors[{i}]"),
        *bad_component_docs({"label": "B", "class": [["H", 1]]},
                            "key 'class' in divisors[{i}] must be an object"),
        *bad_component_docs({"label": "B", "class": {"H": 1, "h": 1}},
                            "unknown key 'h' in divisors[{i}].class"),
        # two rules broken at once: the earlier check fires
        ({"ambient": P3, "divisors": [{"class": {"H": 1}, "colour": 1}]},
         "unknown key 'colour' in divisors[0]"),
        ({"ambient": P3, "divisors": [{"label": "A", "class": {"H": 1}},
                                      {"label": 7, "class": [1]}]},
         "key 'label' in divisors[1] must be a string")])
    def test_malformed_divisors_exit_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_prime_hirzebruch_class_accepted(self, tmp_path):
        doc = {"ambient": {"kind": "hirzebruch", "m": 2},
               "divisors": [{"label": "D", "class": {"C0": 1, "f": 2}}]}
        code, text = run_report(tmp_path, doc)
        assert code == 0
        assert json.loads(text)["equality_n"] is False

    def test_malformed_document_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient": {"kind": "projective_space"}}')
        assert main(["report", str(path)]) == 2
        assert "n" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        b'{"ambient": {"kind": "hirzebruch\xff", "m": 2}, "divisors": []}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"ambient": {"kind": "projective_space", "n": 3}, "divisors": '
        b'[{"label": "D", "class": {"H": ' + b"9" * 5000 + b"}}]}",
    ], ids=["not-utf8", "nested-100000", "int-5000-digits"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_document_exit_2(self, tmp_path, monkeypatch, capsys,
                                         data, source):
        if source == "file":
            path = tmp_path / "bad.json"
            path.write_bytes(data)
            argv = ["report", str(path)]
        else:
            monkeypatch.setattr(sys, "stdin",
                                io.TextIOWrapper(io.BytesIO(data)))
            argv = ["report", "-"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON:")
        assert captured.err.count("\n") == 1


class TestDigitLimit:
    """A valid document whose report holds an integer past Python's
    4300-digit int-to-str limit is an input error, not a traceback."""

    @pytest.mark.parametrize("fmt", ["table", "records"])
    def test_huge_n_exit_2(self, tmp_path, capsys, fmt):
        doc = {"ambient": {"kind": "projective_space", "n": int("9" * 3000)},
               "divisors": [{"label": "A", "class": {"H": 1}}]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pair 1 of 1: ")
        assert "4300-digit" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["table", "records"])
    def test_earlier_pairs_written_and_later_pair_named(self, tmp_path,
                                                          capsys, fmt):
        small = {"ambient": {"kind": "projective_space", "n": 3},
                 "divisors": []}
        huge = {"ambient": {"kind": "projective_space", "n": int("9" * 3000)},
                "divisors": []}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [small, huge]}))
        assert main(["report", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert "P^3" in captured.out or '"n":3' in captured.out
        assert captured.err.startswith("error: pair 2 of 2: ")
        assert captured.err.count("\n") == 1


def _distinct_classes(document):
    """The distinct (ambient, class) pairs of a document, each written
    out over its family's fields and generators."""
    keys = set()
    for pair in document["pairs"]:
        ambient = pair["ambient"]
        family = FAMILIES[ambient["kind"]]
        model = (ambient["kind"], *(ambient[f] for f in family.fields))
        for divisor in pair["divisors"]:
            cls = divisor["class"]
            keys.add((model, tuple(cls.get(g, 0) for g in family.generators)))
    return keys


@st.composite
def class_documents(draw):
    """A {"pairs": [...]} document of well-formed components on up to
    two ambients, which its pairs share: prime and non-prime classes,
    each spelled with its keys in any order and a zero coefficient
    written or left out, and labels that may repeat."""
    fields = {"n": st.integers(2, 4), "q": st.integers(1, 3),
              "m": st.integers(1, 3)}
    ambients = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(sorted(FAMILIES)))
        ambients.append({"kind": kind, **{
            key: draw(fields[key]) for key in FAMILIES[kind].fields}})
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        ambient = draw(st.sampled_from(ambients))
        generators = FAMILIES[ambient["kind"]].generators
        divisors = []
        for i in range(draw(st.integers(0, 4))):
            if len(generators) == 1:
                coeffs = (draw(st.integers(1, 3) | st.integers(-1, 3)),)
            else:
                m = ambient["m"]
                coeffs = draw(
                    st.sampled_from([(1, 0), (0, 1), (1, m), (2, 2 * m + 1)])
                    | st.tuples(st.integers(-1, 2), st.integers(-1, 4)))
            written = [(g, c) for g, c in zip(generators, coeffs)
                       if c or draw(st.booleans())]
            label = draw(st.just(f"D{i}") | st.sampled_from(["A", "B"]))
            divisors.append({"label": label,
                             "class": dict(draw(st.permutations(written)))})
        keys = draw(st.permutations(list(ambient)))
        pairs.append({"ambient": {key: ambient[key] for key in keys},
                      "divisors": divisors})
    return {"pairs": pairs}


def library_pairs(document):
    """The document's pairs built by LogPair(model, components), with one
    class from model.divisor per (ambient, coefficients); the error of
    the first pair that fails ends the list."""
    pairs, classes = [], {}
    for pair in document["pairs"]:
        ambient = pair["ambient"]
        family = FAMILIES[ambient["kind"]]
        model = family.build(*[ambient[key] for key in family.fields])
        components = []
        for divisor in pair["divisors"]:
            coeffs = tuple(divisor["class"].get(g, 0)
                           for g in family.generators)
            key = (model, coeffs)
            if key not in classes:
                classes[key] = model.divisor(*coeffs)
            components.append((divisor["label"], classes[key]))
        try:
            pairs.append(logbg.LogPair(model, components))
        except ChowError as exc:
            return pairs, str(exc)
    return pairs, None


def _divisors(classes):
    return [{"label": label, "class": cls} for label, cls in classes]


F2 = {"kind": "hirzebruch", "m": 2}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(class_documents())
# a non-prime first component, a non-prime later one, and a non-prime
# class repeated after a prime one, also across pairs
@example({"pairs": [{"ambient": F2, "divisors": _divisors([
    ("A", {"C0": 1, "f": 1}), ("B", {"C0": 1})])}]})
@example({"pairs": [{"ambient": F2, "divisors": _divisors([
    ("A", {"C0": 1}), ("B", {"f": 1}), ("C", {"f": 2}), ("D", {"C0": 2})])}]})
@example({"pairs": [
    {"ambient": F2, "divisors": _divisors([("A", {"f": 1})])},
    {"ambient": F2, "divisors": _divisors([
        ("A", {"f": 1}), ("B", {"C0": 1, "f": 1}), ("C", {"f": 1}),
        ("D", {"C0": 1, "f": 1})])}]})
def test_parser_matches_library_pairs(document):
    """parse_document checks each class once per document, LogPair once
    per pair; both accept the same pairs, with the same log Chern
    coefficients, and refuse the same first pair with the same error."""
    expected, error = library_pairs(document)
    if error is None:
        pairs = parse_document(json.dumps(document))
        assert pairs == expected
        assert [_log_chern_coeffs(p) for p in pairs] == \
            [_log_chern_coeffs(p) for p in expected]
    else:
        with pytest.raises(ChowError) as exc:
            parse_document(json.dumps(document))
        assert str(exc.value) == error


# (n, q, degrees, label): one component list D1..Dl of multiples of
# the hyperplane class, on P^n when q is None, and the label its error
# names, or None when it is accepted
BUILDER_CASES = [
    (7, None, [2, 1, 1, 2], None),
    (12, None, [3, 1, 3, 3, 2, 1, 1, 2], None),
    (5, None, [], None),
    (7, 2, [1] * 5, None),
    (7, 2, [], None),
    (3, None, [0, 1], "D1"),
    (3, None, [2, 1, -1, 1, 0], "D3"),
    (3, None, [1, 0, 1, 0], "D2"),
    (3, None, [2, 1, 2, 1, -2, 2, -2], "D5"),
]


@pytest.mark.parametrize("n, q, degrees, label", BUILDER_CASES)
def test_builders_agree(n, q, degrees, label):
    """LogPair, with one class object per component, the runs builder
    behind pn_pair and hypersurface_pair, and parse_document build one
    labeled component list into equal pairs with equal log Chern
    coefficients and boundaries, or refuse
    it with the same error, naming the same first label."""
    ambient = ({"kind": "projective_space", "n": n} if q is None else
               {"kind": "hypersurface", "n": n, "q": q})
    family = FAMILIES[ambient["kind"]]
    model = family.build(*[ambient[key] for key in family.fields])
    [generator] = family.generators
    labeled = [(f"D{i}", d) for i, d in enumerate(degrees, 1)]
    document = {"ambient": ambient, "divisors": _divisors(
        [(name, {generator: d}) for name, d in labeled])}
    builders = (
        lambda: logbg.LogPair(model, [(name, model.divisor(d))
                                      for name, d in labeled]),
        lambda: (pn_pair(n, degrees) if q is None
                 else hypersurface_pair(n, q, len(degrees))),
        lambda: parse_document(json.dumps(document))[0])
    outcomes = []
    for build in builders:
        try:
            pair = build()
        except ChowError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((pair, _log_chern_coeffs(pair),
                             pair._boundary_coeffs()))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if label is None:
        assert isinstance(outcomes[0][0], logbg.LogPair)
    else:
        assert outcomes[0][0] is ChowError
        assert outcomes[0][1].startswith(f"component {label!r} = ")
        assert outcomes[0][1].endswith("prime-divisor class on this model")


class TestParseMemo:
    """parse_document builds one model per distinct ambient and one class
    per distinct (ambient, class), but still checks every component."""

    # True and 1.0 hash like 1; the last input takes the two-generator
    # path, on F_1
    @pytest.mark.parametrize("cls", [{"H": True}, {"H": 1.0},
                                     {"H": 1, "x": 0}, {"C0": 1, "f": True}])
    def test_bad_class_after_valid_copy_exit_2(self, tmp_path, capsys, cls):
        ambient, valid = (({"kind": "hirzebruch", "m": 1}, {"C0": 1, "f": 1})
                          if "C0" in cls else
                          ({"kind": "projective_space", "n": 3}, {"H": 1}))
        doc = {"ambient": ambient,
               "divisors": [{"label": "A", "class": valid},
                            {"label": "B", "class": cls}]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "divisors[1]" in captured.err

    def test_non_prime_after_prime_copy_exit_2(self, tmp_path, capsys):
        prime = {"label": "A", "class": {"C0": 1, "f": 2}}
        doc = {"pairs": [
            {"ambient": {"kind": "hirzebruch", "m": 2}, "divisors": [prime]},
            {"ambient": {"kind": "hirzebruch", "m": 2},
             "divisors": [prime, {"label": "B", "class": {"C0": 1, "f": 1}}]},
        ]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'B'" in captured.err and "prime" in captured.err

    def test_duplicate_label_after_memo_hit_exit_2(self, tmp_path, capsys):
        doc = {"ambient": {"kind": "projective_space", "n": 3},
               "divisors": [{"label": "A", "class": {"H": 1}},
                            {"label": "A", "class": {"H": 1}}]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    # a repeat fails the memo's type check and takes the first
    # occurrence's checks, so its error is the one a first copy gives
    @pytest.mark.parametrize("c", [True, 1.0, "1", [1], {}])
    def test_bad_class_after_valid_pair_exit_2(self, tmp_path, capsys, c):
        ambient = {"kind": "projective_space", "n": 3}
        doc = {"pairs": [
            {"ambient": ambient,
             "divisors": [{"label": "A", "class": {"H": 1}}]},
            {"ambient": ambient,
             "divisors": [{"label": "B", "class": {"H": c}}]},
        ]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: coefficient 'H' in divisors[0].class must be an "
                "integer\n")

    @pytest.mark.parametrize("ambient, err", [
        ({"kind": "projective_space", "n": True},
         "error: key 'n' in ambient must be an integer\n"),
        ({"kind": [], "n": 3}, "error: unknown ambient kind []\n"),
    ])
    def test_bad_ambient_after_valid_copy_exit_2(self, tmp_path, capsys,
                                                 ambient, err):
        doc = {"pairs": [
            {"ambient": {"kind": "projective_space", "n": 3},
             "divisors": [{"label": "A", "class": {"H": 1}}]},
            {"ambient": ambient, "divisors": []},
        ]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr() == ("", err)

    # which check fires first, and which label it names, when a document
    # breaks several rules
    P3 = {"kind": "projective_space", "n": 3}
    F2 = {"kind": "hirzebruch", "m": 2}
    NOT_PRIME = "is not an effective prime-divisor class on this model\n"

    @pytest.mark.parametrize("doc, err", [
        pytest.param(
            {"ambient": P3,
             "divisors": [{"label": "A", "class": {"H": 0}},
                          {"label": "A", "class": {"H": 1}}]},
            "error: duplicate component labels in ['A', 'A']\n",
            id="duplicate-labels-before-non-prime"),
        pytest.param(
            {"ambient": P3,
             "divisors": [{"label": "A", "class": {"H": 0}},
                          {"label": "B", "class": {"H": 1}},
                          {"label": "C", "class": {"H": True}}]},
            "error: coefficient 'H' in divisors[2].class must be an "
            "integer\n",
            id="malformed-component-before-non-prime"),
        pytest.param(
            {"ambient": F2,
             "divisors": [{"label": "A", "class": {"C0": 1, "f": 1}},
                          {"label": "B", "class": {"C0": 2}}]},
            f"error: component 'A' = 1*C0 + 1*f {NOT_PRIME}",
            id="first-of-two-non-prime"),
        pytest.param(
            {"pairs": [
                {"ambient": P3,
                 "divisors": [{"label": "A", "class": {"H": 1}}]},
                {"ambient": P3,
                 "divisors": [{"label": "A", "class": {"H": 2}}]},
                {"ambient": P3,
                 "divisors": [{"label": "A", "class": {"H": 1}},
                              {"label": "Z", "class": {"H": -1}}]}]},
            f"error: component 'Z' = -1*H {NOT_PRIME}",
            id="non-prime-first-seen-in-pair-3"),
        pytest.param(
            {"ambient": F2,
             "divisors": [{"label": "A", "class": {"f": 1, "C0": 1}},
                          {"label": "B", "class": {"C0": 1, "f": 1}}]},
            f"error: component 'A' = 1*C0 + 1*f {NOT_PRIME}",
            id="non-prime-in-two-key-orders"),
    ])
    def test_error_order_exit_2(self, tmp_path, capsys, doc, err):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr() == ("", err)

    def test_reordered_keys_share_one_model_and_class(self, cycle_calls):
        first, second = parse_document(json.dumps({"pairs": [
            {"ambient": {"kind": "hirzebruch", "m": 2},
             "divisors": [{"label": "A", "class": {"f": 2, "C0": 1}}]},
            {"ambient": {"m": 2, "kind": "hirzebruch"},
             "divisors": [{"label": "A", "class": {"C0": 1, "f": 2}}]},
        ]}))
        assert first.model is second.model
        assert first.classes[0] is second.classes[0]
        assert len(cycle_calls) == 1

    def test_one_object_per_distinct_ambient_and_class(self):
        pairs = parse_document(json.dumps(REPEATED_DOCUMENT))
        models = {}
        classes = {}
        for pair in pairs:
            assert models.setdefault(pair.model, pair.model) is pair.model
            for _, cls in pair.components:
                assert classes.setdefault(cls, cls) is cls
        assert len(classes) == len(_distinct_classes(REPEATED_DOCUMENT))

    def test_calls_share_no_object(self):
        text = json.dumps(REPEATED_DOCUMENT)
        first, second = parse_document(text), parse_document(text)
        assert first == second
        ids = [{id(obj) for pair in pairs
                for obj in (pair.model, *pair.classes)}
               for pairs in (first, second)]
        assert not ids[0] & ids[1]

    def test_builds_one_class_per_distinct_class(self, cycle_calls):
        distinct = _distinct_classes(REPEATED_DOCUMENT)
        components = sum(len(pair["divisors"])
                         for pair in REPEATED_DOCUMENT["pairs"])
        assert len(distinct) < components
        parse_document(json.dumps(REPEATED_DOCUMENT))
        assert len(cycle_calls) == len(distinct)


class TestEnumerateCommand:
    def test_table_summary(self, capsys):
        assert main(["enumerate", "--family", "pn", "--n", "7..7",
                     "--mode", "n1"]) == 0
        out = capsys.readouterr().out
        assert "degrees=(2,1,1)" in out
        assert "bounds" in out

    def test_records_include_bounds_and_summary(self, tmp_path):
        out = tmp_path / "cases.jsonl"
        assert main(["enumerate", "--family", "hypersurface",
                     "--n", "7..7", "--q", "2..2", "--format", "records",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert any(r.get("partition") == [1, 1, 1] for r in records[:-1])
        assert "summary" in records[-1]
        assert records[-1]["summary"]["bounds"]["n_min"] == 7

    def test_empty_range_usage_error(self, capsys):
        assert main(["enumerate", "--family", "pn", "--n", "5..4"]) == 2

    @pytest.mark.parametrize("argv", [["--family", "pn", "--n", ""],
                                      ["--family", "hypersurface", "--n", ""],
                                      ["--family", "hypersurface", "--q", ""]])
    def test_empty_range_string_usage_error(self, capsys, argv):
        """An empty --n is a malformed range, not a request for the
        default box."""
        assert main(["enumerate", *argv]) == 2
        err = capsys.readouterr().err
        assert "range '' is not 'A..B'" in err

    @pytest.mark.parametrize("family", ["pn", "hypersurface"])
    def test_dimension_past_sequence_index_exit_2(self, capsys, family):
        huge = "99999999999999999999"
        assert main(["enumerate", "--family", family,
                     "--n", f"{huge}..{huge}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "too large" in err

    def test_q_with_pn_rejected(self, capsys):
        assert main(["enumerate", "--family", "pn", "--n", "2..3",
                     "--q", "2..3"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        assert main(["enumerate", "--family", "pn", "--n", "2..3",
                     "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err

    def test_verification_failure_exit_1(self, monkeypatch, capsys):
        wrong_modes(monkeypatch)
        assert main(["enumerate", "--family", "pn", "--n", "7..7"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "(pn, n=7, q=1, partition=(2, 1, 1))" in err

    @pytest.mark.parametrize("nef_flag", ["--nef", "--no-nef"])
    def test_non_nef_case_exit_1(self, monkeypatch, capsys, nef_flag):
        """The solver puts t >= 0 at every case, so a report with -(K+D)
        not nef is a verification failure, with or without the filter."""
        from logbg import bg
        monkeypatch.setattr(bg, "is_nef_coeffs", lambda model, coeffs: False)
        assert main(["enumerate", "--family", "pn", "--n", "7..7",
                     "--s-max", "4", nef_flag]) == 1
        assert capsys.readouterr().err == (
            "error: full_report gives -(K+D) not nef on (pn, n=7, q=1, "
            "partition=(2, 1, 1)), but every solution has t >= 0\n")

    def test_default_box_without_nef_filter(self, capsys):
        assert main(["enumerate", "--family", "pn", "--no-nef"]) == 0
        assert "found 65 equality case(s)" in capsys.readouterr().out

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        texts = []
        for run, workers in ((1, "1"), (2, "1"), (3, "4")):
            out = tmp_path / f"run{run}.jsonl"
            main(["enumerate", "--family", "pn", "--n", "2..12",
                  "--format", "records", "--workers", workers,
                  "--out", str(out)])
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]


class TestIntegerArguments:
    """Integer arguments are an optional sign and ASCII digits; the '_'
    separators, whitespace and non-ASCII digits that int() takes are
    usage errors."""

    @staticmethod
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:  # parse_args rejects a bad integer value
            return exc.code

    NEF = ["nef", "--kind", "projective_space"]
    PN = ["enumerate", "--family", "pn"]

    @pytest.mark.parametrize("argv", [
        NEF + ["--n", "3", "--divisor", "1_0"],
        NEF + ["--n", "3", "--divisor", " 1"],
        NEF + ["--n", "3", "--divisor", "\u0661"],
        NEF + ["--n", "3", "--divisor", "+-1"],
        NEF + ["--n", "1_0", "--divisor", "1"],
        NEF + ["--n", "\u0663", "--divisor", "1"],
        ["nef", "--kind", "hirzebruch", "--m", "2 ", "--divisor", "0,1"],
        PN + ["--n", "1_0..1_2"],
        PN + ["--n", "2.. 3"],
        PN + ["--n", "\uff12..\uff13"],
        ["enumerate", "--family", "hypersurface", "--q", "2..1_0"],
        PN + ["--n", "2..3", "--s-max", "1_0"],
        PN + ["--n", "2..3", "--workers", "\t1"],
    ])
    def test_malformed_integer_exit_2(self, capsys, argv):
        assert self.exit_code(argv) == 2
        assert capsys.readouterr().out == ""

    def test_signed_integers_accepted(self, capsys):
        assert main(self.NEF + ["--n", "+3", "--divisor", "-2"]) == 0
        assert capsys.readouterr().out == "-2*H on P^3: not nef\n"
        assert main(self.PN + ["--n", "+7..7", "--s-max", "+4"]) == 0
        assert "degrees=(2,1,1)" in capsys.readouterr().out

    @pytest.mark.parametrize("equals", [False, True], ids=["apart", "equals"])
    def test_value_may_start_with_one_dash(self, capsys, equals):
        """The argument after an option that takes a value is its value
        unless it starts with '--', so '-1,2' and '-3..4' need no '='."""
        def spell(option, value):
            return [f"{option}={value}"] if equals else [option, value]

        assert main(["nef", "--kind", "hirzebruch", "--m", "1",
                     *spell("--divisor", "-1,2")]) == 0
        assert capsys.readouterr() == ("-1*C0 + 2*f on F_1: not nef\n", "")
        assert main(self.PN + spell("--n", "-3..4")) == 2
        assert capsys.readouterr() == (
            "", "error: empty or invalid dimension range [-3, 4]\n")


class TestVerifyPaperCommand:
    def test_all_fixtures_pass(self, capsys):
        assert main(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("fixtures passed")

    def test_failed_fixture_exit_1(self, monkeypatch, capsys):
        from logbg import fixtures
        monkeypatch.setattr(fixtures, "_wedge_terms", lambda n, r: (5, 3))
        assert main(["verify-paper"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert len(failed) == 1
        assert "slope of wedge^r cotangent" in failed[0]
        assert "computed (n,r)=(2,1): 5/3;" in failed[0]
        assert failed[0].endswith("(Section 4.1)")
        total = len(lines) - 1
        assert lines[-1] == f"{total - 1}/{total} fixtures passed"

    def test_fixtures_build_few_classes_and_no_products(self, cycle_calls):
        # the rows compare integer coefficients: classes are built only
        # for each grid point's pair and polarization and by the slopes
        from logbg.fixtures import all_fixtures
        all_fixtures()
        assert len(cycle_calls) <= 400

    def test_builds_few_models_and_classes(self, model_calls, cycle_calls,
                                           capsys):
        # the wedge slopes are a closed form: the 77 grid points build
        # no model and no class
        assert main(["verify-paper"]) == 0
        assert capsys.readouterr().out.strip().endswith("fixtures passed")
        assert len(model_calls) <= 66
        assert len(cycle_calls) <= 186

    def test_fixtures_build_a_fraction_only_for_a_slope_or_report(
            self, fraction_calls):
        # every row decides on integers, and a report holds no Fraction:
        # a passing run builds none (a mismatch builds one to print it)
        from logbg.fixtures import all_fixtures
        all_fixtures()
        assert len(fraction_calls) == 0

    # the rows that fail when log c2 on (F_m, C0 + C_inf) is 1, not 0
    FM_LOG_C2_ONE = [
        ("log c2 on (F_m, C0+Cinf), m=1..50", "0", "m=1: 1*pt; m=2: 1*pt; "
         "m=3: 1*pt; m=4: 1*pt; ... (50 mismatches)", "Lemma 4.4"),
        ("rank-2 discriminant on (F_m, C0+Cinf), m=1..50", "0",
         "m=1: 1; m=2: 1; m=3: 1; m=4: 1; ... (50 mismatches)", "Lemma 4.4"),
        ("rank-3 discriminant on (F_m, C0+Cinf), m=1..50", "0",
         "m=1: 1; m=2: 1; m=3: 1; m=4: 1; ... (50 mismatches)", "Lemma 4.4"),
    ]

    def failed_rows(self, capsys):
        """(name, expected, computed, citation) of each [FAIL] line of a
        verify-paper run that exits 1."""
        assert main(["verify-paper"]) == 1
        lines = capsys.readouterr().out.splitlines()
        rows = [re.fullmatch(r"\[FAIL\] (.+?) +expected (.+)  "
                             r"computed (.+)  \((.+)\)", line).groups()
                for line in lines if line.startswith("[FAIL]")]
        total = len(lines) - 1
        assert lines[-1] == f"{total - len(rows)}/{total} fixtures passed"
        return rows

    def test_wrong_c0_square_fails_its_rows(self, monkeypatch, capsys):
        from logbg.models import AmbientModel
        real = AmbientModel.intersect

        def intersect(model, a, b):  # C0^2 = -(m + 1) on F_m
            value = real(model, a, b)
            return value - a[0] * b[0] if model.kind == "hirzebruch" else value

        monkeypatch.setattr(AmbientModel, "intersect", intersect)
        assert self.failed_rows(capsys) == [
            ("intersection table C0^2, C0.f, f^2 on F_m, m=1..50",
             "(-m, 1, 0)", "m=1; m=2; m=3; m=4; ... (50 mismatches)",
             "Section 4.2"),
        ] + self.FM_LOG_C2_ONE

    def test_wrong_tangent_c2_fails_its_rows(self, monkeypatch, capsys):
        from logbg import models
        real = models.tangent_coefficients

        def tangent_coefficients(model):  # c2(T) = 5 on F_m
            c1, c2 = real(model)
            return c1, c2 + 1 if model.kind == "hirzebruch" else c2

        mutate(monkeypatch, real, tangent_coefficients)
        assert self.failed_rows(capsys) == [
            ("c2 of the tangent bundle of F_m, m=1..50", "4",
             "m=1: 5*pt; m=2: 5*pt; m=3: 5*pt; m=4: 5*pt; ... "
             "(50 mismatches)", "Lemma 4.4"),
        ] + self.FM_LOG_C2_ONE

    def test_wrong_pn_log_c2_fails_its_rows(self, monkeypatch, capsys):
        from logbg import logchern
        real = logchern._log_chern_coeffs

        def log_chern_coeffs(pair, tangent=None):  # log c2 + 1 on P^n
            c1, c2 = real(pair, tangent)
            return c1, c2 + 1 if pair.model.kind == "projective_space" else c2

        mutate(monkeypatch, real, log_chern_coeffs)
        assert self.failed_rows(capsys) == [
            ("log c2 on (P^n, H), n=2..12", "n(n-1)/2 * H^2",
             "n=2: 2*H^2; n=3: 4*H^2; n=4: 7*H^2; n=5: 11*H^2; ... "
             "(11 mismatches)", "Lemma 4.1"),
            ("rank-n discriminant on (P^n, H), n=2..12", "0",
             "n=2: 1; n=3: 1; n=4: 1; n=5: 1; ... (11 mismatches)",
             "Lemma 4.1"),
            ("(P^7, degrees (2,1,1)): rank n+1 equality", "True", "False",
             "Section 5 remark"),
            ("(P^8, degrees (2,1,1,1)): rank n equality", "True", "False",
             "Section 5 remark"),
        ]


class TestNefCommand:
    def test_fiber_class_nef(self, capsys):
        assert main(["nef", "--kind", "hirzebruch", "--m", "2",
                     "--divisor", "0,2"]) == 0
        assert "nef" in capsys.readouterr().out

    def test_negative_section_not_nef(self, capsys):
        assert main(["nef", "--kind", "hirzebruch", "--m", "3",
                     "--divisor", "1,0"]) == 0
        assert "not nef" in capsys.readouterr().out

    def test_missing_dimension_exit_2(self, capsys):
        assert main(["nef", "--kind", "projective_space",
                     "--divisor", "1"]) == 2

    @pytest.mark.parametrize("argv, field", [
        (["--kind", "projective_space"], "'n'"),
        (["--kind", "hypersurface", "--n", "3"], "'q'"),
        (["--kind", "hypersurface", "--q", "2"], "'n'"),
        (["--kind", "hirzebruch"], "'m'"),
    ])
    def test_missing_field_named(self, capsys, argv, field):
        assert main(["nef", *argv, "--divisor", "1"]) == 2
        err = capsys.readouterr().err
        assert "missing" in err and field in err

    @pytest.mark.parametrize("argv, flag", [
        (["--kind", "projective_space", "--n", "3", "--q", "4"], "'q'"),
        (["--kind", "projective_space", "--n", "3", "--m", "1"], "'m'"),
        (["--kind", "hypersurface", "--n", "3", "--q", "2", "--m", "1"],
         "'m'"),
        (["--kind", "hirzebruch", "--m", "2", "--n", "2"], "'n'"),
    ])
    def test_flag_of_another_kind_exit_2(self, capsys, argv, flag):
        assert main(["nef", *argv, "--divisor", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


def tree_env():
    """The environment of a fresh interpreter that imports logbg from
    the tree under test."""
    src = os.path.dirname(os.path.dirname(logbg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=tree_env())


class TestEntryPoint:
    def test_import_does_not_load_process_pool(self):
        # the search runs in one process, whatever --workers says
        proc = run_python("-c", "\n".join([
            "import contextlib, io, sys, logbg.cli",
            "print('concurrent.futures' in sys.modules)",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = logbg.cli.main(['enumerate', '--family', 'pn',",
            "                           '--n', '2..12', '--workers', '2'])",
            "print(code, 'concurrent.futures' in sys.modules)"]))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["False", "0 False", ""]

    def test_import_path_skips_dataclass_machinery(self):
        # importing it and inspect once cost a third of CLI start-up
        src = os.path.dirname(os.path.dirname(os.path.abspath(logbg.__file__)))
        proc = subprocess.run([sys.executable, "-I", "-c", "\n".join([
            "import sys",
            "before = set(sys.modules)",
            "sys.path.insert(0, sys.argv[1])",
            "import logbg.cli",
            "logbg.cli.build_parser()",
            "print(*sorted(set(sys.modules) - before))"]), src],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "logbg.cli" in loaded and "logbg.serialize" in loaded
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded

    def test_no_command_loads_fractions(self, tmp_path):
        # fractions and the decimal and numbers modules it pulls in were
        # a fifth of CLI start-up; every output is printed from ints.
        # argparse, with the gettext and locale it loads, was two thirds
        # of what was left; logbg reads its command line from its own
        # table.  Only report reads JSON and only verify-paper runs the
        # fixtures, so no other command, and no start-up, loads json or
        # fixtures.  Every list below is of modules not in sys.modules
        # before logbg's import, so one that site loaded is never barred.
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(REPEATED_DOCUMENT))
        src = os.path.dirname(os.path.dirname(os.path.abspath(logbg.__file__)))
        slow = ("fractions", "decimal", "numbers", "argparse", "gettext",
                "locale")
        lazy = ("json", "logbg.fixtures")
        commands = [  # (argv, what it may load beyond start-up)
            (["report", str(path), "--format", "records"], ("json",)),
            (["verify-paper"], ("logbg.fixtures",)),
            (["nef", "--kind", "hirzebruch", "--m", "2", "--divisor", "1,2"],
             ())]
        commands += [(["enumerate", "--family", family, "--n", "2..12",
                       "--format", form], ())
                     for family in ("pn", "hypersurface")
                     for form in ("table", "records")]

        def barred(names, allowed=()):
            # the names of `slow` and `lazy` but not `allowed`, with a
            # submodule (json.decoder) counting as its package
            banned = {*slow, *lazy} - set(allowed)
            return sorted(name for name in names if name in banned
                          or name.partition(".")[0] in banned)

        for argv, allowed in commands:
            proc = subprocess.run([sys.executable, "-I", "-c", "\n".join([
                "import contextlib, io, sys",
                "before = set(sys.modules)",
                "sys.path.insert(0, sys.argv[1])",
                "import logbg.cli",
                "logbg.cli.build_parser()",
                "print(*sorted(set(sys.modules) - before))",
                "with contextlib.redirect_stdout(io.StringIO()):",
                "    code = logbg.cli.main(sys.argv[2:])",
                "print(code)",
                "print(*sorted(set(sys.modules) - before))",
                "print('typing' in before)"]), src, *argv],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            imported, code, loaded, site_typing, _ = proc.stdout.split("\n")
            imported, loaded = imported.split(), loaded.split()
            assert "logbg.cli" in imported
            assert barred(imported) == []
            assert site_typing == "True" or "typing" not in imported
            assert code == "0", argv
            assert barred(loaded, allowed) == [], argv

        # a failing verify-paper prints its mismatched slopes from ints too
        proc = subprocess.run([sys.executable, "-I", "-c", "\n".join([
            "import contextlib, io, sys",
            "before = set(sys.modules)",
            "sys.path.insert(0, sys.argv[1])",
            "import logbg.cli, logbg.fixtures",
            "logbg.fixtures._wedge_terms = lambda n, r: (5, 3)",
            "out = io.StringIO()",
            "with contextlib.redirect_stdout(out):",
            "    code = logbg.cli.main(['verify-paper'])",
            "print(code)",
            "print(*sorted(set(sys.modules) - before))",
            "print(out.getvalue(), end='')"]), src],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, loaded, table = proc.stdout.split("\n", 2)
        assert code == "1"
        assert "computed (n,r)=(2,1): 5/3;" in table
        assert barred(loaded.split(), ("logbg.fixtures",)) == []

    def test_module_invocation(self):
        proc = run_python("-m", "logbg.cli", "nef", "--kind",
                          "projective_space", "--n", "7", "--divisor", "4")
        assert proc.returncode == 0
        assert "nef" in proc.stdout

    # main() may run many commands in one process; no call may leak into
    # the next

    def test_nef_flag_does_not_carry_over(self, capsys):
        box = ["enumerate", "--family", "pn", "--n", "2..12"]
        assert main([*box, "--no-nef"]) == 0
        assert capsys.readouterr().out.endswith(", no nef filter\n")
        assert main(box) == 0
        assert capsys.readouterr().out.endswith(", -(K+D) nef required\n")

    def test_usage_error_leaves_next_command_unchanged(self, tmp_path,
                                                       capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(REPEATED_DOCUMENT))
        with pytest.raises(SystemExit) as exc:
            main(["enumerate"])  # --family is required
        assert exc.value.code == 2
        assert "--family" in capsys.readouterr().err
        assert main(["report", str(path), "--format", "records"]) == 0
        fresh = run_python("-m", "logbg.cli", "report", str(path),
                           "--format", "records")
        assert fresh.returncode == 0, fresh.stderr
        assert capsys.readouterr().out == fresh.stdout

    def test_help_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert "verify-paper" in texts[0]


class BrokenStdout(io.StringIO):
    """A stdout whose reader has closed the pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A reader that stops early is no usage or input error: exit 0,
    and nothing on stderr."""

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--family", "pn", "--format", "records"],
        ["report", "{document}"],
        ["verify-paper"]], ids=["enumerate", "report", "verify-paper"])
    def test_exit_0_without_message(self, tmp_path, monkeypatch, capsys,
                                    argv):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(REPEATED_DOCUMENT))
        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        code = main([arg.format(document=path) for arg in argv])
        # what the interpreter flushes at exit
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_broken_out_file_exit_2(self, tmp_path, monkeypatch, capsys):
        """Only stdout's reader may go: --out is a file the user named."""
        monkeypatch.setattr(cli, "open", lambda path, mode: BrokenStdout(),
                            raising=False)
        assert main(["enumerate", "--family", "pn", "--out",
                     str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_reader_closes_after_100_bytes(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "logbg.cli", "enumerate", "--family",
             "pn", "--n", "2..300", "--format", "records"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=tree_env())
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""
        assert head.startswith(b'{"bounds":') and len(head) == 100


# one argv per command, with the document as {document}
COMMANDS = {
    "report": ["report", "{document}"],
    "enumerate": ["enumerate", "--family", "pn", "--n", "2..12"],
    "verify-paper": ["verify-paper"],
    "nef": ["nef", "--kind", "hirzebruch", "--m", "2", "--divisor", "1,2"],
}


class TestClosedStream:
    """A stream that was closed before the run starts (sys.stdin or
    sys.stdout is None, as `<&-` and `>&-` leave it) is a usage error:
    exit 2 and one error line, not a traceback."""

    @pytest.mark.parametrize("name", COMMANDS)
    def test_closed_stdout_exit_2(self, tmp_path, capsys, monkeypatch, name):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(REPEATED_DOCUMENT))
        monkeypatch.setattr(sys, "stdout", None)
        assert main([arg.format(document=path)
                     for arg in COMMANDS[name]]) == 2
        assert capsys.readouterr().err == "error: stdout is closed\n"

    @pytest.mark.parametrize("argv", [["report"], ["report", "-"]])
    def test_closed_stdin_exit_2(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdin", None)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: stdin is closed\n"

    @pytest.mark.parametrize("name", ["report", "enumerate"])
    def test_empty_out_exit_2(self, tmp_path, capsys, name):
        """--out "" names no file: exit 2 with one error line, and
        nothing on stdout."""
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(REPEATED_DOCUMENT))
        argv = [arg.format(document=path) for arg in COMMANDS[name]]
        assert main(argv + ["--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and "''" in captured.err

    @pytest.mark.parametrize("name", ["report", "enumerate"])
    def test_out_file_with_closed_stdout_exit_0(self, tmp_path, capsys,
                                                monkeypatch, name):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(REPEATED_DOCUMENT))
        argv = [arg.format(document=path) for arg in COMMANDS[name]]
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 0
        expected = out.read_text()
        out.unlink()
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", None)
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == expected
        assert capsys.readouterr().err == ""

    def test_closed_stdout_in_a_shell(self):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m logbg.cli verify-paper >&-',
             sys.executable], capture_output=True, text=True, env=tree_env())
        assert proc.returncode == 2
        assert proc.stderr == "error: stdout is closed\n"


@pytest.fixture
def collector():
    """The cyclic collector's state, put back after the test."""
    was_on = gc.isenabled()
    yield
    if was_on:
        gc.enable()
    else:
        gc.disable()


NON_INTEGER_DOCUMENT = {"ambient": {"kind": "projective_space", "n": 3},
                        "divisors": [{"label": "D", "class": {"H": "1"}}]}


@pytest.mark.usefixtures("collector")
class TestCollectorPause:
    """main() pauses the cyclic collector for one command and puts it
    back as the caller had it, whatever way the command ends."""

    def test_off_while_the_command_runs(self, monkeypatch, capsys):
        seen, real = [], logbg.fixtures.all_fixtures

        def recording():
            seen.append(gc.isenabled())
            return real()

        monkeypatch.setattr(logbg.fixtures, "all_fixtures", recording)
        gc.enable()
        assert main(["verify-paper"]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_on_after_exit_0(self, capsys):
        gc.enable()
        assert main(["enumerate", "--family", "pn", "--n", "2..12"]) == 0
        assert gc.isenabled()

    def test_on_after_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(NON_INTEGER_DOCUMENT))
        gc.enable()
        assert main(["report", str(path)]) == 2
        assert gc.isenabled()

    def test_on_after_exit_1(self, monkeypatch, capsys):
        wrong_modes(monkeypatch)
        gc.enable()
        assert main(["enumerate", "--family", "pn", "--n", "7..7"]) == 1
        assert gc.isenabled()

    def test_on_after_uncaught_exception(self, monkeypatch):
        def failing():
            raise RuntimeError("boom")

        monkeypatch.setattr(logbg.fixtures, "all_fixtures", failing)
        gc.enable()
        with pytest.raises(RuntimeError, match="boom"):
            main(["verify-paper"])
        assert gc.isenabled()

    def test_caller_that_turned_it_off_keeps_it_off(self, capsys):
        gc.disable()
        assert main(["verify-paper"]) == 0
        assert not gc.isenabled()

    @pytest.mark.parametrize("on", [True, False])
    def test_usage_error_leaves_it_untouched(self, monkeypatch, capsys, on):
        gc.enable() if on else gc.disable()
        calls = []
        monkeypatch.setattr(logbg.cli, "gc", types.SimpleNamespace(
            isenabled=lambda: calls.append("isenabled"),
            disable=lambda: calls.append("disable"),
            enable=lambda: calls.append("enable")))
        with pytest.raises(SystemExit) as exc:
            main(["enumerate"])  # --family is required
        assert exc.value.code == 2
        assert calls == []
        assert gc.isenabled() is on


# one argv per path through main(); (argv, exit code, wrong modes)
NO_CYCLE_RUNS = {
    "report-table": (["report", "{repeated}"], 0, False),
    "report-records": (["report", "{repeated}", "--format", "records"], 0,
                       False),
    "enum-pn-table": (["enumerate", "--family", "pn"], 0, False),
    "enum-pn-records": (["enumerate", "--family", "pn", "--format",
                         "records"], 0, False),
    "enum-hyp-table": (["enumerate", "--family", "hypersurface"], 0, False),
    "enum-hyp-records": (["enumerate", "--family", "hypersurface",
                          "--format", "records"], 0, False),
    "verify-paper": (["verify-paper"], 0, False),
    "nef": (["nef", "--kind", "hirzebruch", "--m", "2", "--divisor", "1,3"],
            0, False),
    "input-error": (["report", "{non_integer}"], 2, False),
    "verification-failure": (["enumerate", "--family", "pn", "--n", "7..7"],
                             1, True),
}


@pytest.mark.usefixtures("collector")
@pytest.mark.parametrize("name", NO_CYCLE_RUNS)
def test_command_leaves_no_cyclic_garbage(name, tmp_path, monkeypatch,
                                          capsys):
    """What makes the pause safe: no command leaves a reference cycle
    for the collector to free.  A path that starts to make one should
    break the cycle in the code."""
    argv, code, wrong = NO_CYCLE_RUNS[name]
    paths = {}
    for key, document in (("repeated", REPEATED_DOCUMENT),
                          ("non_integer", NON_INTEGER_DOCUMENT)):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(document))
    argv = [arg.format(**paths) for arg in argv]
    if wrong:
        wrong_modes(monkeypatch)
    gc.collect()
    gc.disable()
    assert main(argv) == code
    assert gc.collect() == 0
