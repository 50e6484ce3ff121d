"""Output oracle: checks logbg's output against closed forms.

Nothing here imports logbg.  For a pair (X, D = sum D_i) the log
tangent bundle has c1 = -(K + D) and
c2 = c2(T_X) + K.D + D^2 - sum_{i<j} D_i.D_j; the oracle writes these
out per family and evaluates them against the default polarization:

- P^n, degrees d_i (s = sum, e2 = second elementary symmetric):
  c1^2 = (n+1-s)^2, c2 = C(n+1,2) - (n+1)s + s^2 - e2.
- degree-q hypersurface in P^{n+1}, degrees a_i (A = sum): deg h^n = q,
  c1^2 = q(n+2-q-A)^2,
  c2 = q(C(n+2,2) - q(n+2) + q^2 - (n+2-q)A + A^2 - e2).
- F_m, classes a_i C0 + b_i f with C0^2 = -m, C0.f = 1, f^2 = 0:
  c1 = (2-A) C0 + (m+2-B) f, c2(T) = 4, K = -2 C0 - (m+2) f.

Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import comb

GENERATORS = {
    "projective_space": ("H",),
    "hypersurface": ("h",),
    "hirzebruch": ("C0", "f"),
}

# Case sets and summary records of the two default enumerate boxes, and
# the lines of verify-paper, as printed by the seed commit; the search
# must keep finding exactly these cases and the fixtures must not change.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "seed_cases.json")) as _fh:
    SEED_CASES = json.load(_fh)


def fmt(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def expected_report(ambient: dict, classes: list[tuple[int, ...]]) -> dict:
    """Report fields of the pair (ambient, classes) from the closed forms;
    `classes` holds each component's coefficients on GENERATORS."""
    kind = ambient["kind"]
    if kind == "hirzebruch":
        m = ambient["m"]

        def dot(x, y):
            return -m * x[0] * y[0] + x[0] * y[1] + x[1] * y[0]

        D = (sum(c[0] for c in classes), sum(c[1] for c in classes))
        K = (-2, -(m + 2))
        c1 = (2 - D[0], m + 2 - D[1])
        c1_sq = Fraction(dot(c1, c1))
        crossings = (dot(D, D) - sum(dot(c, c) for c in classes)) // 2
        c2 = Fraction(4 + dot(K, D) + dot(D, D) - crossings)
        rank = 2
        nef = c1[0] >= 0 and c1[1] - m * c1[0] >= 0
        polarization = {"C0": "1", "f": fmt(m + 1)}
    else:
        n = ambient["n"]
        degrees = [c[0] for c in classes]
        s = sum(degrees)
        e2 = (s * s - sum(d * d for d in degrees)) // 2
        rank = n
        if kind == "projective_space":
            t = n + 1 - s
            c1_sq = Fraction(t * t)
            c2 = Fraction(comb(n + 1, 2) - (n + 1) * s + s * s - e2)
            polarization = {"H": "1"}
        else:
            q = ambient["q"]
            t = n + 2 - q - s
            c1_sq = Fraction(q * t * t)
            c2 = Fraction(q * (comb(n + 2, 2) - q * (n + 2) + q * q
                               - (n + 2 - q) * s + s * s - e2))
            polarization = {"h": "1"}
        nef = t >= 0
    return {
        "rank": rank,
        "c1_sq": fmt(c1_sq),
        "c2_eval": fmt(c2),
        "discriminant": fmt(c2 - Fraction(rank - 1, 2 * rank) * c1_sq),
        "equality_n": c2 - Fraction(rank - 1, 2 * rank) * c1_sq == 0,
        "equality_n_plus_1": c2 - Fraction(rank, 2 * (rank + 1)) * c1_sq == 0,
        "minus_k_plus_d_nef": nef,
        "polarization": polarization,
    }


def _compare(record: dict, expected: dict, where: str) -> list[str]:
    return [f"{where}: {key} is {record.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if record.get(key) != value]


def _records(text: str, where: str) -> tuple[list[dict], list[str]]:
    records = []
    for i, line in enumerate(text.splitlines()):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            return [], [f"{where}: line {i + 1} is not JSON"]
    return records, []


def check_report(text: str, document: dict) -> list[str]:
    """`report --format records` output for a {"pairs": [...]} document."""
    records, problems = _records(text, "report")
    if problems:
        return problems
    pairs = document["pairs"]
    if len(records) != len(pairs):
        return [f"report: {len(records)} records for {len(pairs)} pairs"]
    for i, (record, pair) in enumerate(zip(records, pairs)):
        where = f"report record {i}"
        ambient = pair["ambient"]
        gens = GENERATORS[ambient["kind"]]
        classes = [tuple(d["class"].get(g, 0) for g in gens)
                   for d in pair["divisors"]]
        echo = record.get("input", {})
        if echo.get("ambient") != ambient:
            problems.append(f"{where}: ambient echo {echo.get('ambient')!r}")
        echoed = [(d.get("label"), d.get("class"))
                  for d in echo.get("divisors", [])]
        sent = [(d["label"], {g: fmt(c) for g, c in zip(gens, cls)})
                for d, cls in zip(pair["divisors"], classes)]
        if echoed != sent:
            problems.append(f"{where}: divisor echo {echoed!r}")
        problems += _compare(record, expected_report(ambient, classes), where)
    return problems


def check_enumerate(text: str, family: str) -> list[str]:
    """`enumerate --format records` output on a default box."""
    records, problems = _records(text, "enumerate")
    if problems:
        return problems
    if not records:
        return ["enumerate: no output"]
    seed = SEED_CASES[family]
    cases, summary = records[:-1], records[-1]
    if summary != seed["summary"]:
        problems.append(f"enumerate: summary {summary!r}, "
                        f"expected {seed['summary']!r}")
    keys = []
    for i, case in enumerate(cases):
        where = f"enumerate case {i}"
        n, q, partition = case.get("n"), case.get("q"), case.get("partition")
        if family == "pn":
            keys.append([n, partition])
            ambient = {"kind": "projective_space", "n": n}
        else:
            keys.append([n, q, len(partition)])
            ambient = {"kind": "hypersurface", "n": n, "q": q}
            if set(partition) != {1}:
                problems.append(f"{where}: partition {partition!r}")
                continue
        expected = expected_report(ambient, [(d,) for d in partition])
        modes = ([m for m, flag in (("n", expected["equality_n"]),
                                    ("n1", expected["equality_n_plus_1"]))
                  if flag])
        expected.update(family=family, modes=modes,
                        nef=expected["minus_k_plus_d_nef"],
                        bounds=seed["summary"]["summary"]["bounds"])
        if family == "pn":
            expected["q"] = 1
        problems += _compare(case, expected, where)
    if keys != seed["cases"]:
        problems.append(f"enumerate: case set differs from the seed "
                        f"({len(keys)} cases, expected {len(seed['cases'])})")
    return problems


def check_verify(text: str) -> list[str]:
    """`verify-paper`: exactly the seed commit's fixture lines, in order,
    each with its name and expected value, and the same total.  The
    closed forms behind the expected values are checked by
    test_oracle.py."""
    lines, seed = text.splitlines(), SEED_CASES["verify-paper"]
    problems = [f"verify-paper line {i + 1}: {got!r}, expected {want!r}"
                for i, (got, want) in enumerate(zip(lines, seed))
                if got != want]
    if len(lines) != len(seed):
        problems.append(f"verify-paper: {len(lines)} lines, "
                        f"expected {len(seed)}")
    return problems
