"""Bogomolov-Gieseker discriminants and the two equality tests.

For a rank-r sheaf the discriminant against a polarization H is

    (c2 - (r-1)/(2r) * c1^2) . H^{n-2}

evaluated as an exact rational; on a surface H^0 is the identity.  A
report's equality_n and equality_n_plus_1 test the rank-n and
rank-(n+1) coefficients (n-1)/2n and n/(2(n+1)) on one shared
(c1^2.H^{n-2}, c2.H^{n-2}) pair: the latter equals the discriminant of
the trivial-sheaf extension, which has the same c1 and c2.

One integer pairing, _pairing, serves full_report, evaluate_pair and
the verify-paper fixtures.  A report takes no chow.mul and builds no
cycle class but the default H; it shares no code with the search's
closed forms, which it re-verifies.
"""

from __future__ import annotations

from fractions import Fraction

from .chow import (ChowError, CycleClass, GradeError, Scalar, Value,
                   _int_or_fraction, _set)
from .logchern import LogPair, _log_chern_coeffs
from .models import (AmbientModel, ChernData, default_polarization,
                     is_nef_coeffs)


class BGReport(Value):
    __slots__ = ("rank", "c1_sq", "c2_eval", "discriminant", "equality_n",
                 "equality_n_plus_1", "minus_k_plus_d_nef", "polarization")

    def __init__(self, rank: int, c1_sq: Scalar, c2_eval: Scalar,
                 discriminant: Fraction, equality_n: bool,
                 equality_n_plus_1: bool, minus_k_plus_d_nef: bool,
                 polarization: CycleClass):
        _set(self, "rank", rank)  # dim X: rank of the log tangent bundle
        _set(self, "c1_sq", c1_sq)  # c1^2 . H^{n-2}
        _set(self, "c2_eval", c2_eval)  # c2 . H^{n-2}
        _set(self, "discriminant", discriminant)
        _set(self, "equality_n", equality_n)
        _set(self, "equality_n_plus_1", equality_n_plus_1)
        _set(self, "minus_k_plus_d_nef", minus_k_plus_d_nef)
        _set(self, "polarization", polarization)


def _check_polarization(H: CycleClass, model: AmbientModel) -> None:
    if H.grade != 1:
        raise GradeError("polarization must have grade 1")
    if H.model != model:
        raise ChowError("polarization lives on a different model")


def _pairing(model: AmbientModel, c1: tuple[Scalar, ...], c2: Scalar,
             H: CycleClass) -> tuple[Scalar, Scalar]:
    """(c1^2 . H^{n-2}, c2 . H^{n-2}) from coefficients: q (c1.c1) h0^(n-2)
    and q c2 h0^(n-2) for H = h0 h, no power of H on the surface F_m.  The
    types match chow.pair_with_polarization of chow.mul's classes: c1.c1
    is an int where integral, and the factors multiply in the same order."""
    q = model.q
    c1_sq = _int_or_fraction(model.intersect(c1, c1))
    if len(H.coeffs) == 1:
        hk = H.coeffs[0] ** (model.dim - 2)
        return q * c1_sq * hk, q * c2 * hk
    return q * c1_sq, q * c2


def evaluate_pair(chern: ChernData, H: CycleClass) -> tuple[Scalar, Scalar]:
    """(c1^2 . H^{n-2}, c2 . H^{n-2}) as exact rationals."""
    _check_polarization(H, chern.c1.model)
    return _pairing(chern.c1.model, chern.c1.coeffs, chern.c2.coeffs[0], H)


def _at_rank(rank: int, c1_sq: Scalar, c2_eval: Scalar) -> Fraction:
    return Fraction(2 * rank * c2_eval - (rank - 1) * c1_sq, 2 * rank)


def discriminant(chern: ChernData, H: CycleClass) -> Fraction:
    return _at_rank(chern.rank, *evaluate_pair(chern, H))


def full_report(pair: LogPair, H: CycleClass | None = None) -> BGReport:
    model = pair.model
    if H is None:
        H = default_polarization(model)
    _check_polarization(H, model)
    c1, c2 = _log_chern_coeffs(pair)
    c1_sq, c2_eval = _pairing(model, c1, c2, H)
    n = model.dim
    value = _at_rank(n, c1_sq, c2_eval)
    # rank n + 1: _at_rank(n + 1, ...) == 0 without a Fraction; c1 = -(K+D)
    return BGReport(n, c1_sq, c2_eval, value, value == 0,
                    2 * (n + 1) * c2_eval == n * c1_sq,
                    is_nef_coeffs(model, c1), H)
