"""Bogomolov-Gieseker discriminants and the two equality predicates.

For a rank-r sheaf the discriminant against a polarization H is

    (c2 - (r-1)/(2r) * c1^2) . H^{n-2}

evaluated as an exact rational; on a surface H^0 is the identity.  The
two predicates test the rank-n and rank-(n+1) coefficients (n-1)/2n and
n/(2(n+1)) on one shared (c1^2.H^{n-2}, c2.H^{n-2}) pair: the latter
equals the discriminant of the trivial-sheaf extension, which has the
same c1 and c2.
"""

from __future__ import annotations

from fractions import Fraction

from . import chow
from .chow import ChowError, CycleClass, GradeError, Scalar, Value, _set
from .logchern import LogPair, log_chern
from .models import ChernData, default_polarization, is_nef


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


def evaluate_pair(chern: ChernData, H: CycleClass) -> tuple[Scalar, Scalar]:
    """(c1^2 . H^{n-2}, c2 . H^{n-2}) as exact rationals."""
    if H.grade != 1:
        raise GradeError("polarization must have grade 1")
    model = chern.c1.model
    if H.model != model:
        raise ChowError("polarization lives on a different model")
    k = model.dim - 2
    c1_sq = chow.pair_with_polarization(chow.mul(chern.c1, chern.c1), H, k)
    c2_eval = chow.pair_with_polarization(chern.c2, H, k)
    return c1_sq, c2_eval


def _at_rank(rank: int, c1_sq: Scalar, c2_eval: Scalar) -> Fraction:
    return Fraction(2 * rank * c2_eval - (rank - 1) * c1_sq, 2 * rank)


def discriminant(chern: ChernData, H: CycleClass) -> Fraction:
    return _at_rank(chern.rank, *evaluate_pair(chern, H))


def full_report(pair: LogPair, H: CycleClass | None = None) -> BGReport:
    if H is None:
        H = default_polarization(pair.model)
    chern = log_chern(pair)
    c1_sq, c2_eval = evaluate_pair(chern, H)
    n = chern.rank
    value = _at_rank(n, c1_sq, c2_eval)
    return BGReport(
        rank=n,
        c1_sq=c1_sq,
        c2_eval=c2_eval,
        discriminant=value,
        equality_n=value == 0,
        # _at_rank(n + 1, ...) == 0, without building the Fraction
        equality_n_plus_1=2 * (n + 1) * c2_eval == n * c1_sq,
        # c1 = -(K + D)
        minus_k_plus_d_nef=is_nef(pair.model, chern.c1),
        polarization=H,
    )


def check_equality_n(pair: LogPair, H: CycleClass | None = None) -> bool:
    """Vanishing at the rank-n coefficient (n-1)/2n."""
    return full_report(pair, H).equality_n


def check_equality_n_plus_1(pair: LogPair, H: CycleClass | None = None) -> bool:
    """Vanishing at the rank-(n+1) coefficient n/(2(n+1))."""
    return full_report(pair, H).equality_n_plus_1
