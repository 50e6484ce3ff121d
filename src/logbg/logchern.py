"""Logarithmic Chern classes and slopes.

For a pair (X, D) with D = sum D_i simple normal crossing:

    c1(T_X(-log D)) = -(K_X + D)
    c2(T_X(-log D)) = c2(T_X) + K_X.D + D^2 - sum_{i<j} D_i.D_j
                    = c2(T_X) + K_X.D + (D^2 + sum_i D_i^2) / 2.

All of it is integral: prime-divisor classes and the tangent data have
integer coefficients, and D^2 - sum_i D_i^2 = 2 sum_{i<j} D_i.D_j, so
D^2 = sum_i D_i^2 mod 2 and the halving is exact.

The rank-(n+1) extension of T_X(-log D) by the trivial sheaf shares
its c1 and c2 for every extension class, so no extension class appears
in the API: bg reads the same c1 and c2 at rank n+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import chow
from .chow import ChowError, CycleClass, GradeError
from .models import (AmbientModel, ChernData, default_polarization,
                     hypersurface, is_prime_class, projective_space,
                     tangent_coefficients)


@dataclass(frozen=True)
class LogPair:
    """An ambient model with an ordered list of labeled prime-divisor
    classes. Distinct components may share a class (two hyperplanes are
    two components); the SNC hypothesis is a modeling assumption."""

    model: AmbientModel
    components: tuple[tuple[str, CycleClass], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        labels = [label for label, _ in self.components]
        if len(set(labels)) != len(labels):
            raise ChowError(f"duplicate component labels in {labels}")
        for label, cls in self.components:
            if cls.model != self.model:
                raise ChowError(
                    f"component {label!r} lives on {cls.model}, "
                    f"not {self.model}")
            if cls.grade != 1:
                raise GradeError(f"component {label!r} must have grade 1")
            if not is_prime_class(self.model, cls):
                raise ChowError(
                    f"component {label!r} = {cls} is not an effective "
                    "prime-divisor class on this model")

    @property
    def classes(self) -> tuple[CycleClass, ...]:
        return tuple(cls for _, cls in self.components)

    def boundary(self) -> CycleClass:
        """The total divisor D = sum D_i (zero if there are no components)."""
        total = self.model.zero(1)
        for cls in self.classes:
            total = total + cls
        return total


def pn_pair(n: int, degrees) -> LogPair:
    """Convenience: (P^n, D) with D_i of the given degrees."""
    model = projective_space(n)
    comps = tuple((f"D{i + 1}", model.divisor(d))
                  for i, d in enumerate(degrees))
    return LogPair(model, comps)


def hypersurface_pair(n: int, q: int, l: int) -> LogPair:
    """Convenience: degree-q hypersurface with l degree-1 components."""
    h = hypersurface(n, q).divisor(1)
    comps = tuple((f"D{i + 1}", h) for i in range(l))
    return LogPair(h.model, comps)


def log_c1(pair: LogPair) -> CycleClass:
    return log_chern(pair).c1


def log_c2(pair: LogPair) -> CycleClass:
    return log_chern(pair).c2


def log_chern(pair: LogPair) -> ChernData:
    """(rank, c1, c2) of the logarithmic tangent bundle itself.

    One pass over the components' integer coefficients sums D and
    sum_i D_i^2 through the model's intersection form; c2 is then the
    closed form of the module docstring, and c1 and c2 are the only
    cycle classes built.  No chow.mul is taken.
    """
    model = pair.model
    t1, t2 = tangent_coefficients(model)
    intersect = model.intersect
    # prime classes are integral, so every coefficient here is an int
    components = [cls.coeffs for cls in pair.classes]
    D = tuple(sum(E[i] for E in components)
              for i in range(model.basis_size(1)))
    squares = sum(intersect(E, E) for E in components)
    # K.D = -c1(T).D
    c2 = t2 - intersect(t1, D) + (intersect(D, D) + squares) // 2
    c1 = model.divisor(*(t - d for t, d in zip(t1, D)))
    return ChernData(model.dim, c1, model.cycle(2, c2))


def slope(model: AmbientModel, c1: CycleClass, rank: int,
          H: CycleClass) -> Fraction:
    """mu_H = c1 . H^{n-1} / rank."""
    if rank < 1:
        raise ChowError("rank must be positive")
    if c1.grade != 1 or H.grade != 1:
        raise GradeError("slope needs grade-1 classes")
    # int / int would be a float
    return Fraction(chow.pair_with_polarization(c1, H, model.dim - 1), rank)


def wedge_cotangent_slope(n: int, r: int) -> Fraction:
    """Slope of the r-th wedge of the cotangent bundle on P^n, from
    c1(wedge^r Omega^1) = -C(n-1, r-1)(n+1) H and rank C(n, r)."""
    if not 1 <= r <= n:
        raise ChowError(f"need 1 <= r <= n, got r={r}, n={n}")
    model = projective_space(n)
    c1 = model.divisor(-comb(n - 1, r - 1) * (n + 1))
    return slope(model, c1, comb(n, r), default_polarization(model))
