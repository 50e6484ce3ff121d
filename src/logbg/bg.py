"""Bogomolov-Gieseker discriminants and the two equality tests.

For a rank-r sheaf the discriminant against a polarization H is

    (c2 - (r-1)/(2r) * c1^2) . H^{n-2} = N_r / 2r,
    N_r = 2r * c2.H^{n-2} - (r-1) * c1^2.H^{n-2},

with H^0 the identity on a surface.  _numerator is the one place N_r
is written, and every equality is decided on it: the discriminant is 0
exactly when the integer N_r is.  A report's equality_n and
equality_n_plus_1 test N_n and N_{n+1} on one shared
(c1^2.H^{n-2}, c2.H^{n-2}) pair: the latter is the discriminant of the
trivial-sheaf extension, which has the same c1 and c2.  No command
builds a Fraction or imports `fractions`: a report keeps its integers,
reading its discriminant builds N_n/2n, and _ratio writes every rational
a command prints, a discriminant from N_n and 2n among them.

reporter(model, H) checks H and reads the tangent data and the pairing
factor (AmbientModel.pairing_factor) once, and returns the function that
reports each pair on the model; full_report(pair, H) is
reporter(pair.model, H)(pair).  _pairing serves the verify-paper
fixtures.  A report builds no cycle class but the default H; it shares
no code with the search's solver, which it re-verifies.
"""

from __future__ import annotations

from math import gcd

from .logchern import LogPair, _log_chern_coeffs
from .models import (AmbientModel, ChowError, CycleClass, GradeError, Value,
                     _set, default_polarization, is_ample_coeffs,
                     is_nef_coeffs, tangent_coefficients)


class BGReport(Value):
    """The BG data of a pair at rank n against H.  Its discriminant is no
    field but a property, N_n/2n read from rank, c1_sq and c2_eval, so
    equality, hash and pickling build no Fraction."""

    __slots__ = ("rank", "c1_sq", "c2_eval", "equality_n",
                 "equality_n_plus_1", "minus_k_plus_d_nef", "polarization")

    def __init__(self, rank: int, c1_sq: int, c2_eval: int,
                 equality_n: bool, equality_n_plus_1: bool,
                 minus_k_plus_d_nef: bool, polarization: CycleClass):
        _set(self, "rank", rank)  # dim X: rank of the log tangent bundle
        _set(self, "c1_sq", c1_sq)  # c1^2 . H^{n-2}
        _set(self, "c2_eval", c2_eval)  # c2 . H^{n-2}
        _set(self, "equality_n", equality_n)
        _set(self, "equality_n_plus_1", equality_n_plus_1)
        _set(self, "minus_k_plus_d_nef", minus_k_plus_d_nef)
        _set(self, "polarization", polarization)

    @property
    def discriminant(self) -> Fraction:
        return _at_rank(self.rank, self.c1_sq, self.c2_eval)


def _check_polarization(H: CycleClass, model: AmbientModel) -> None:
    if H.grade != 1:
        raise GradeError("polarization must have grade 1")
    if H.model != model:
        raise ChowError("polarization lives on a different model")
    if not is_ample_coeffs(model, H.coeffs):
        raise ChowError(f"polarization {H} is not ample")


def _pairing(model: AmbientModel, c1: tuple[int, ...], c2: int,
             H: CycleClass) -> tuple[int, int]:
    """(c1^2 . H^{n-2}, c2 . H^{n-2}) from coefficients: the model's
    pairing factor times (c1.c1) and times c2."""
    qh = model.pairing_factor(H.coeffs)
    return qh * model.intersect(c1, c1), qh * c2


def _numerator(rank: int, c1_sq: int, c2_eval: int) -> int:
    """N_r = 2r * c2.H^{n-2} - (r-1) * c1^2.H^{n-2}, the rank-r
    discriminant times 2r."""
    return 2 * rank * c2_eval - (rank - 1) * c1_sq


def _at_rank(rank: int, c1_sq: int, c2_eval: int) -> Fraction:
    """The rank-`rank` discriminant N_r/2r."""
    from fractions import Fraction
    return Fraction(_numerator(rank, c1_sq, c2_eval), 2 * rank)


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, from the ints: p/q in lowest terms,
    the sign on p, and "p" when q divides p.  An int past the
    interpreter's digit limit raises ValueError, as str(Fraction) does."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def reporter(model: AmbientModel, H: CycleClass | None = None):
    """The report function of pairs on `model` against H (default: the
    default polarization); it refuses a pair on another model."""
    if H is None:
        H = default_polarization(model)
    _check_polarization(H, model)
    tangent = tangent_coefficients(model)
    n, intersect = model.n, model.intersect
    qh = model.pairing_factor(H.coeffs)

    def report(pair: LogPair) -> BGReport:
        if pair.model is not model and pair.model != model:
            raise ChowError(f"pair lives on {pair.model}, not {model}")
        c1, c2 = _log_chern_coeffs(pair, tangent)
        c1_sq, c2_eval = qh * intersect(c1, c1), qh * c2
        return BGReport(n, c1_sq, c2_eval,
                        _numerator(n, c1_sq, c2_eval) == 0,
                        _numerator(n + 1, c1_sq, c2_eval) == 0,
                        is_nef_coeffs(model, c1), H)

    return report


def full_report(pair: LogPair, H: CycleClass | None = None) -> BGReport:
    return reporter(pair.model, H)(pair)
