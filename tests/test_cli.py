import io
import json
import os
import subprocess
import sys

import pytest

import logbg
from logbg.cli import main
from logbg.serialize import InputError, format_rational, parse_document

HIRZEBRUCH_DOC = {
    "ambient": {"kind": "hirzebruch", "m": 2},
    "divisors": [
        {"label": "C0", "class": {"C0": 1}},
        {"label": "Cinf", "class": {"C0": 1, "f": 2}},
    ],
}


def run_report(tmp_path, doc, fmt="records"):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    code = main(["report", str(path), "--format", fmt, "--out", str(out)])
    return code, out.read_text()


class TestRationalSerialization:
    def test_canonical_strings(self):
        from fractions import Fraction
        assert format_rational(Fraction(3, 1)) == "3"
        assert format_rational(Fraction(-1, 7)) == "-1/7"
        assert format_rational(Fraction(2, -4)) == "-1/2"

    def test_round_trip(self):
        from fractions import Fraction
        for x in (Fraction(0), Fraction(22, 7), Fraction(-5, 3), Fraction(9)):
            assert Fraction(format_rational(x)) == x


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


class TestReportCommand:
    def test_hirzebruch_fixture(self, tmp_path):
        code, text = run_report(tmp_path, HIRZEBRUCH_DOC)
        assert code == 0
        record = json.loads(text)
        assert record["discriminant"] == "0"
        assert record["equality_n"] is True
        assert record["minus_k_plus_d_nef"] is True

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
            _, text = run_report(tmp_path, doc)
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

    def test_q_with_pn_rejected(self, capsys):
        assert main(["enumerate", "--family", "pn", "--n", "2..3",
                     "--q", "2..3"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        assert main(["enumerate", "--family", "pn", "--n", "2..3",
                     "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err

    def test_verification_failure_exit_1(self, monkeypatch, capsys):
        from logbg import search
        monkeypatch.setattr(search, "pn_modes_closed_form",
                            lambda n, partition: ("n", "n1"))
        assert main(["enumerate", "--family", "pn", "--n", "7..7"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "(pn, n=7, q=1, partition=(2, 1, 1))" in err

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


class TestVerifyPaperCommand:
    def test_all_fixtures_pass(self, capsys):
        assert main(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("fixtures passed")

    def test_failed_fixture_exit_1(self, monkeypatch, capsys):
        from fractions import Fraction

        from logbg import fixtures
        monkeypatch.setattr(fixtures, "wedge_cotangent_slope",
                            lambda n, r: Fraction(5, 3))
        assert main(["verify-paper"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert len(failed) == 1
        assert "slope of wedge^r cotangent" in failed[0]
        assert "computed (n,r)=(2,1): 5/3;" in failed[0]
        assert failed[0].endswith("(Section 4.1)")
        total = len(lines) - 1
        assert lines[-1] == f"{total - 1}/{total} fixtures passed"


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


def run_python(*args):
    """A fresh interpreter that imports logbg from the tree under test."""
    src = os.path.dirname(os.path.dirname(logbg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


class TestEntryPoint:
    def test_import_does_not_load_process_pool(self):
        # the pool is only needed for --workers above 1
        proc = run_python(
            "-c", "import sys, logbg.cli; "
            "print('concurrent.futures.process' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_invocation(self):
        proc = run_python("-m", "logbg.cli", "nef", "--kind",
                          "projective_space", "--n", "7", "--divisor", "4")
        assert proc.returncode == 0
        assert "nef" in proc.stdout
