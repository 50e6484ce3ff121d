"""Pinned verification fixtures for the `verify-paper` command.

Each fixture carries the citation it reproduces, a pinned expected
value, and the value the calculator computes; a failure prints all
three.  The fixtures are one table of rows (name, citation, expected,
check) under the grid each suite runs over.  A grid point computes its
integer data once, by the core that `report` and `enumerate` use, which
tests/test_bg.py::TestAgainstClassPipeline ties to the reference in
tests/classes.py.
A check returns None where its row holds at the point, else the
computed text, and builds a class only to print it: the discriminant
rows test the integer numerator N_r of bg, and the two slope rows
cross-multiply the (numerator, denominator) of logchern's checked slope
helpers.  A mismatched rational is printed from those integers by
bg._ratio, so no run, passing or failing, imports `fractions`.
"""

from __future__ import annotations

from math import comb
from types import SimpleNamespace

from .bg import _numerator, _pairing, _ratio, full_report
from .logchern import (LogPair, _log_chern_coeffs, _slope_terms,
                       _wedge_terms, hypersurface_pair, pn_pair)
from .models import (Value, _set, c_infinity, default_polarization,
                     hirzebruch, is_nef_coeffs, tangent_coefficients)


class FixtureResult(Value):
    __slots__ = ("name", "citation", "expected", "computed", "passed")

    def __init__(self, name: str, citation: str, expected: str,
                 computed: str, passed: bool):
        _set(self, "name", name)
        _set(self, "citation", citation)
        _set(self, "expected", expected)
        _set(self, "computed", computed)
        _set(self, "passed", passed)


def _suite(points, rows) -> list[FixtureResult]:
    """One result per row, from its check at every point: the first four
    mismatches are shown, and a passing row shows its expected value."""
    results = []
    for name, citation, expected, check in rows:
        mismatches = [text for text in map(check, points) if text is not None]
        computed = "; ".join(mismatches[:4]) or expected
        if len(mismatches) > 4:
            computed += f"; ... ({len(mismatches)} mismatches)"
        results.append(FixtureResult(name, citation, expected, computed,
                                     not mismatches))
    return results


def _mismatch(value, want, at: str | None = None) -> str | None:
    if value == want:
        return None
    return str(value) if at is None else f"{at}: {value}"


def _zero_discriminant(rank: int, p) -> str | None:
    """None where the rank-`rank` discriminant at point p is 0."""
    num = _numerator(rank, *p.pairing)
    return None if num == 0 else f"{p.at}: {_ratio(num, 2 * rank)}"


def _slope_mismatch(terms: tuple[int, int], want: int, per: int,
                    at: str | None = None) -> str | None:
    """None where the slope of `terms`, (numerator, denominator), is
    want/per: both denominators are positive, so cross-multiplying is
    exact."""
    num, den = terms
    if num * per == want * den:
        return None
    value = _ratio(num, den)
    return value if at is None else f"{at}: {value}"


def _deg(model, a: tuple, b: tuple):  # deg(a.b) of two divisors
    return model.q * model.intersect(a, b)


_C0, _F = (1, 0), (0, 1)  # the basis divisors of F_m


def _hirzebruch_boundary(m: int) -> LogPair:
    model = hirzebruch(m)
    return LogPair(model, (("C0", model.divisor(1, 0)),
                           ("Cinf", c_infinity(model))))


def _log_point(pair: LogPair, at: str, **data) -> SimpleNamespace:
    """A pair's log Chern coefficients and their default-H pairing."""
    model = pair.model
    c1, c2 = _log_chern_coeffs(pair)
    return SimpleNamespace(
        at=at, model=model, c1=c1, c2=c2,
        pairing=_pairing(model, c1, c2, default_polarization(model)), **data)


def _boundary_point(m: int) -> SimpleNamespace:
    pair = _hirzebruch_boundary(m)
    t1, t2 = tangent_coefficients(pair.model)
    # K + D from the tangent data and the boundary, not from log c1
    k_plus_d = tuple(d - t for t, d in zip(t1, pair._boundary_coeffs()))
    return _log_point(pair, f"m={m}", m=m, t2=t2, k_plus_d=k_plus_d)


_PN, _FM = "(P^n, H), n=2..12", "(F_m, C0+Cinf), m=1..50"
_S5 = "Section 5 remark"


def lemma_4_1_suite() -> list[FixtureResult]:
    grid = [_log_point(pn_pair(n, [1]), f"n={n}", n=n) for n in range(2, 13)]
    return _suite(grid, (
        (f"log c1 on {_PN}", "Lemma 4.1", "n*H",
         lambda p: None if p.c1 == (p.n,)
         else f"{p.at}: {p.model.divisor(*p.c1)}"),
        (f"log c2 on {_PN}", "Lemma 4.1", "n(n-1)/2 * H^2",
         lambda p: None if p.c2 == comb(p.n, 2)
         else f"{p.at}: {p.model.cycle(2, p.c2)}"),
        (f"rank-n discriminant on {_PN}", "Lemma 4.1", "0",
         lambda p: _zero_discriminant(p.n, p)),
        ("-(K + H) nef on P^n, n=2..12", "Lemma 4.1", "nef",
         lambda p: None if is_nef_coeffs(p.model, p.c1)
         else f"{p.at}: not nef"),
    ))


def lemma_4_4_suite() -> list[FixtureResult]:
    grid = list(map(_boundary_point, range(1, 51)))
    return _suite(grid, (
        ("intersection table C0^2, C0.f, f^2 on F_m, m=1..50",
         "Section 4.2", "(-m, 1, 0)",
         lambda p: None if (_deg(p.model, _C0, _C0), _deg(p.model, _C0, _F),
                            _deg(p.model, _F, _F)) == (-p.m, 1, 0) else p.at),
        ("c2 of the tangent bundle of F_m, m=1..50", "Lemma 4.4", "4",
         lambda p: None if p.t2 == 4 else f"{p.at}: {p.model.cycle(2, p.t2)}"),
        (f"log c1 on {_FM}", "Lemma 4.4", "2f",
         lambda p: None if p.c1 == (0, 2)
         else f"{p.at}: {p.model.divisor(*p.c1)}"),
        (f"log c2 on {_FM}", "Lemma 4.4", "0",
         lambda p: None if p.c2 == 0
         else f"{p.at}: {p.model.cycle(2, p.c2)}"),
        ("(2f)^2 on F_m, m=1..50", "Lemma 4.4", "0",
         lambda p: None if _deg(p.model, p.c1, p.c1) == 0 else p.at),
        (f"rank-2 discriminant on {_FM}", "Lemma 4.4", "0",
         lambda p: _zero_discriminant(2, p)),
        (f"rank-3 discriminant on {_FM}", "Lemma 4.4", "0",
         lambda p: _zero_discriminant(3, p)),
        ("-(K + D) = 2f nef on F_m, m=1..50", "Lemma 4.4", "nef",
         lambda p: None if is_nef_coeffs(p.model, p.c1) else p.at),
        ("(K + D).C0 on F_m, m=1..50", "Section 5", "-2",
         lambda p: _mismatch(_deg(p.model, p.k_plus_d, _C0), -2, p.at)),
        ("(K + D).f on F_m, m=1..50", "Section 5", "0",
         lambda p: _mismatch(_deg(p.model, p.k_plus_d, _F), 0, p.at)),
    ))


def slope_suite() -> list[FixtureResult]:
    grid = [SimpleNamespace(n=n, r=r, at=f"(n,r)=({n},{r})")
            for n in range(2, 13) for r in range(1, n + 1)]
    wedge = _suite(grid, (
        ("slope of wedge^r cotangent on P^n, n=2..12, r=1..n",
         "Section 4.1", "-r(n+1)/n",
         lambda p: _slope_mismatch(_wedge_terms(p.n, p.r),
                                   -p.r * (p.n + 1), p.n, p.at)),
    ))
    return wedge + _suite([_log_point(pn_pair(3, [1]), "n=3")], (
        ("slope of Omega^1(log H) on P^3", "Section 4.1", "-1",
         lambda p: _slope_mismatch(
             _slope_terms(p.model, p.model.divisor(*(-c for c in p.c1)),
                          p.model.n, p.model.divisor(1)), -1, 1)),
    ))


def remark_tuple_suite() -> list[FixtureResult]:
    pairs = (pn_pair(7, [2, 1, 1]), pn_pair(8, [2, 1, 1, 1]),
             hypersurface_pair(7, 2, 3), hypersurface_pair(8, 2, 4))
    # one point: the reports of the four pairs, in this order
    return _suite([tuple(map(full_report, pairs))], (
        ("(P^7, degrees (2,1,1)): rank n+1 equality", _S5, "True",
         lambda r: _mismatch(r[0].equality_n_plus_1, True)),
        ("(P^8, degrees (2,1,1,1)): rank n equality", _S5, "True",
         lambda r: _mismatch(r[1].equality_n, True)),
        ("hypersurface (n,q,l)=(7,2,3): rank n+1 equality", _S5, "True",
         lambda r: _mismatch(r[2].equality_n_plus_1, True)),
        ("hypersurface (n,q,l)=(8,2,4): rank n equality", _S5, "True",
         lambda r: _mismatch(r[3].equality_n, True)),
    ))


def all_fixtures() -> list[FixtureResult]:
    return (lemma_4_1_suite() + lemma_4_4_suite() + slope_suite()
            + remark_tuple_suite())
