"""Pinned verification fixtures for the `verify-paper` command.

Each fixture carries the citation it reproduces, a pinned expected
value, and the value the calculator computes; a failure prints all
three.  These are the same facts the test suite asserts, exposed as a
user-facing self-check.
"""

from __future__ import annotations

from fractions import Fraction

from . import chow
from .bg import check_equality_n, check_equality_n_plus_1, discriminant, full_report
from .chow import Value, _set
from .logchern import (LogPair, hypersurface_pair, log_c1, log_chern,
                       pn_pair, slope, wedge_cotangent_slope)
from .models import (ChernData, c_infinity, canonical_class, hirzebruch,
                     is_nef, projective_space, tangent_chern)


class FixtureResult(Value):
    __slots__ = ("name", "citation", "expected", "computed", "passed")

    def __init__(self, name: str, citation: str, expected: str,
                 computed: str, passed: bool):
        _set(self, "name", name)
        _set(self, "citation", citation)
        _set(self, "expected", expected)
        _set(self, "computed", computed)
        _set(self, "passed", passed)


def _grid(name, citation, expected, mismatches) -> FixtureResult:
    if mismatches:
        computed = "; ".join(mismatches[:4])
        if len(mismatches) > 4:
            computed += f"; ... ({len(mismatches)} mismatches)"
    else:
        computed = expected
    return FixtureResult(name, citation, expected, computed, not mismatches)


def _hirzebruch_boundary(m: int) -> LogPair:
    model = hirzebruch(m)
    return LogPair(model, (("C0", model.divisor(1, 0)),
                           ("Cinf", c_infinity(model))))


def lemma_4_1_suite() -> list[FixtureResult]:
    bad_c1, bad_c2, bad_disc, bad_nef = [], [], [], []
    for n in range(2, 13):
        pair = pn_pair(n, [1])
        model = pair.model
        chern = log_chern(pair)
        if chern.c1 != model.divisor(n):
            bad_c1.append(f"n={n}: {chern.c1}")
        if chern.c2 != model.cycle(2, Fraction(n * (n - 1), 2)):
            bad_c2.append(f"n={n}: {chern.c2}")
        report = full_report(pair)
        if report.discriminant != 0:
            bad_disc.append(f"n={n}: {report.discriminant}")
        if not report.minus_k_plus_d_nef:
            bad_nef.append(f"n={n}: not nef")
    cite = "Lemma 4.1"
    return [
        _grid("log c1 on (P^n, H), n=2..12", cite, "n*H", bad_c1),
        _grid("log c2 on (P^n, H), n=2..12", cite, "n(n-1)/2 * H^2", bad_c2),
        _grid("rank-n discriminant on (P^n, H), n=2..12", cite, "0", bad_disc),
        _grid("-(K + H) nef on P^n, n=2..12", cite, "nef", bad_nef),
    ]


def lemma_4_4_suite() -> list[FixtureResult]:
    bad = {key: [] for key in
           ("table", "c2T", "logc1", "logc2", "c1sq", "disc2", "disc3",
            "nef", "kd_c0", "kd_f")}
    for m in range(1, 51):
        model = hirzebruch(m)
        C0, f = model.divisor(1, 0), model.divisor(0, 1)
        if (chow.degree(C0 * C0), chow.degree(C0 * f),
                chow.degree(f * f)) != (-m, 1, 0):
            bad["table"].append(f"m={m}")
        if tangent_chern(model).c2 != model.point(4):
            bad["c2T"].append(f"m={m}: {tangent_chern(model).c2}")
        pair = _hirzebruch_boundary(m)
        chern = log_chern(pair)
        c1, c2 = chern.c1, chern.c2
        if c1 != model.divisor(0, 2):
            bad["logc1"].append(f"m={m}: {c1}")
        if c2 != model.point(0):
            bad["logc2"].append(f"m={m}: {c2}")
        if chow.degree(c1 * c1) != 0:
            bad["c1sq"].append(f"m={m}")
        H = model.divisor(1, m + 1)
        for rank, key in ((2, "disc2"), (3, "disc3")):
            value = discriminant(ChernData(rank, c1, c2), H)
            if value != 0:
                bad[key].append(f"m={m}: {value}")
        if not is_nef(model, c1):
            bad["nef"].append(f"m={m}")
        k_plus_d = canonical_class(model) + pair.boundary()
        if chow.degree(k_plus_d * C0) != -2:
            bad["kd_c0"].append(f"m={m}: {chow.degree(k_plus_d * C0)}")
        if chow.degree(k_plus_d * f) != 0:
            bad["kd_f"].append(f"m={m}: {chow.degree(k_plus_d * f)}")
    cite42, cite5 = "Lemma 4.4", "Section 5"
    return [
        _grid("intersection table C0^2, C0.f, f^2 on F_m, m=1..50",
              "Section 4.2", "(-m, 1, 0)", bad["table"]),
        _grid("c2 of the tangent bundle of F_m, m=1..50", cite42, "4",
              bad["c2T"]),
        _grid("log c1 on (F_m, C0+Cinf), m=1..50", cite42, "2f",
              bad["logc1"]),
        _grid("log c2 on (F_m, C0+Cinf), m=1..50", cite42, "0",
              bad["logc2"]),
        _grid("(2f)^2 on F_m, m=1..50", cite42, "0", bad["c1sq"]),
        _grid("rank-2 discriminant on (F_m, C0+Cinf), m=1..50", cite42, "0",
              bad["disc2"]),
        _grid("rank-3 discriminant on (F_m, C0+Cinf), m=1..50", cite42, "0",
              bad["disc3"]),
        _grid("-(K + D) = 2f nef on F_m, m=1..50", cite42, "nef",
              bad["nef"]),
        _grid("(K + D).C0 on F_m, m=1..50", cite5, "-2", bad["kd_c0"]),
        _grid("(K + D).f on F_m, m=1..50", cite5, "0", bad["kd_f"]),
    ]


def slope_suite() -> list[FixtureResult]:
    bad = []
    for n in range(2, 13):
        for r in range(1, n + 1):
            value = wedge_cotangent_slope(n, r)
            if value != Fraction(-r * (n + 1), n):
                bad.append(f"(n,r)=({n},{r}): {value}")
    model = projective_space(3)
    pair = pn_pair(3, [1])
    log_slope = slope(model, -log_c1(pair), model.dim, model.divisor(1))
    results = [
        _grid("slope of wedge^r cotangent on P^n, n=2..12, r=1..n",
              "Section 4.1", "-r(n+1)/n", bad),
        FixtureResult("slope of Omega^1(log H) on P^3", "Section 4.1",
                      "-1", str(log_slope), log_slope == -1),
    ]
    return results


def remark_tuple_suite() -> list[FixtureResult]:
    checks = [
        ("(P^7, degrees (2,1,1)): rank n+1 equality",
         check_equality_n_plus_1(pn_pair(7, [2, 1, 1]))),
        ("(P^8, degrees (2,1,1,1)): rank n equality",
         check_equality_n(pn_pair(8, [2, 1, 1, 1]))),
        ("hypersurface (n,q,l)=(7,2,3): rank n+1 equality",
         check_equality_n_plus_1(hypersurface_pair(7, 2, 3))),
        ("hypersurface (n,q,l)=(8,2,4): rank n equality",
         check_equality_n(hypersurface_pair(8, 2, 4))),
    ]
    return [FixtureResult(name, "Section 5 remark", "True", str(ok), ok)
            for name, ok in checks]


def all_fixtures() -> list[FixtureResult]:
    return (lemma_4_1_suite() + lemma_4_4_suite() + slope_suite()
            + remark_tuple_suite())
