"""Self-test of the benchmark's oracle and input generator.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root: real logbg output is produced from ./src,
and the oracle must accept it and catch a corrupted copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest
from fractions import Fraction

import oracle
import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
from logbg.cli import main  # noqa: E402


def run_cli(argv, stdin=None) -> str:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


def replace_line(text: str, index: int, edit) -> str:
    lines = text.splitlines()
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


class OracleTest(unittest.TestCase):
    def test_report_corrupted_record_is_caught(self):
        document = {"pairs": workloads.mixed_document(7)["pairs"][:40]}
        text = run_cli(["report", "-", "--format", "records"],
                       json.dumps(document))
        self.assertEqual(oracle.check_report(text, document), [])

        def bump_c2(record):
            record["c2_eval"] = oracle.fmt(
                Fraction(record["c2_eval"]) + 1)

        problems = oracle.check_report(replace_line(text, 17, bump_c2),
                                       document)
        self.assertEqual(len(problems), 1)
        self.assertIn("report record 17: c2_eval", problems[0])

    def test_enumerate_corrupted_or_missing_record_is_caught(self):
        text = run_cli(["enumerate", "--family", "pn", "--format",
                        "records", "--workers", "1"])
        self.assertEqual(oracle.check_enumerate(text, "pn"), [])

        def flip_nef(record):
            record["nef"] = not record["nef"]

        problems = oracle.check_enumerate(replace_line(text, 3, flip_nef),
                                          "pn")
        self.assertEqual(problems, ["enumerate case 3: nef is False, "
                                    "expected True"])
        lines = text.splitlines()
        dropped = "\n".join(lines[:5] + lines[6:]) + "\n"
        self.assertTrue(any("case set differs" in p for p in
                            oracle.check_enumerate(dropped, "pn")))

    def test_verify_failure_or_changed_fixture_is_caught(self):
        text = run_cli(["verify-paper"])
        self.assertEqual(oracle.check_verify(text), [])
        failed = text.replace("[PASS]", "[FAIL]", 1)
        self.assertEqual(len(oracle.check_verify(failed)), 1)
        lines = text.splitlines()
        dropped = "\n".join(lines[:3] + lines[4:-1]
                            + ["19/19 fixtures passed"]) + "\n"
        self.assertTrue(any("expected 21" in p
                            for p in oracle.check_verify(dropped)))
        edited = text.replace("expected n(n-1)/2 * H^2",
                              "expected n(n-1) * H^2  ")
        self.assertEqual(len(oracle.check_verify(edited)), 1)

    def test_seed_fixture_expectations_hold_in_closed_form(self):
        """The expected values in the stored verify-paper lines follow
        from the oracle's closed forms, not only from logbg's verdict."""
        seed = oracle.SEED_CASES["verify-paper"]

        def claimed(label, value):
            line = next(x for x in seed if x.startswith("[PASS] " + label))
            self.assertTrue(line.endswith("expected " + value), line)

        for n in range(2, 13):  # (P^n, H)
            r = oracle.expected_report({"kind": "projective_space", "n": n},
                                       [(1,)])
            self.assertEqual(r["c1_sq"], str(n * n))  # (n H)^2
            self.assertEqual(Fraction(r["c2_eval"]), Fraction(n * (n - 1), 2))
            self.assertEqual(r["discriminant"], "0")
            self.assertTrue(r["minus_k_plus_d_nef"])
        claimed("log c1 on (P^n, H)", "n*H")
        claimed("log c2 on (P^n, H)", "n(n-1)/2 * H^2")
        claimed("rank-n discriminant on (P^n, H)", "0")
        claimed("-(K + H) nef on P^n", "nef")

        for m in range(1, 51):  # (F_m, C0 + Cinf) with Cinf = C0 + m f
            self.assertEqual(oracle.expected_report(
                {"kind": "hirzebruch", "m": m}, [])["c2_eval"], "4")
            r = oracle.expected_report({"kind": "hirzebruch", "m": m},
                                       [(1, 0), (1, m)])
            self.assertEqual((r["c1_sq"], r["c2_eval"], r["discriminant"]),
                             ("0", "0", "0"))
            self.assertTrue(r["equality_n"] and r["equality_n_plus_1"])
            self.assertTrue(r["minus_k_plus_d_nef"])
        claimed("c2 of the tangent bundle of F_m", "4")
        claimed("log c2 on (F_m, C0+Cinf)", "0")
        claimed("(2f)^2 on F_m", "0")
        claimed("rank-2 discriminant on (F_m, C0+Cinf)", "0")
        claimed("rank-3 discriminant on (F_m, C0+Cinf)", "0")
        claimed("-(K + D) = 2f nef on F_m", "nef")

        lemma = [  # Lemma 4.1 examples: (label, ambient, degrees, flag)
            ("(P^7, degrees (2,1,1)): rank n+1",
             {"kind": "projective_space", "n": 7}, (2, 1, 1),
             "equality_n_plus_1"),
            ("(P^8, degrees (2,1,1,1)): rank n",
             {"kind": "projective_space", "n": 8}, (2, 1, 1, 1),
             "equality_n"),
            ("hypersurface (n,q,l)=(7,2,3): rank n+1",
             {"kind": "hypersurface", "n": 7, "q": 2}, (1, 1, 1),
             "equality_n_plus_1"),
            ("hypersurface (n,q,l)=(8,2,4): rank n",
             {"kind": "hypersurface", "n": 8, "q": 2}, (1, 1, 1, 1),
             "equality_n"),
        ]
        for label, ambient, degrees, flag in lemma:
            r = oracle.expected_report(ambient, [(d,) for d in degrees])
            self.assertTrue(r[flag], label)
            claimed(label, "True")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_document(self):
        self.assertEqual(workloads.mixed_document(3),
                         workloads.mixed_document(3))
        self.assertNotEqual(workloads.mixed_document(3),
                            workloads.mixed_document(4))

    def test_hirzebruch_classes_are_prime_classes(self):
        """Only C0, f, and a C0 + b f with a >= 1, b >= a m."""
        kinds = set()
        for pair in workloads.mixed_document(5)["pairs"]:
            kinds.add(pair["ambient"]["kind"])
            if pair["ambient"]["kind"] != "hirzebruch":
                continue
            m = pair["ambient"]["m"]
            for divisor in pair["divisors"]:
                a, b = divisor["class"]["C0"], divisor["class"]["f"]
                self.assertTrue((a, b) in ((1, 0), (0, 1))
                                or (a >= 1 and b >= a * m), (m, a, b))
        self.assertEqual(kinds, set(oracle.GENERATORS))


if __name__ == "__main__":
    unittest.main()
