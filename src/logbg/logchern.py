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

from fractions import Fraction
from math import comb

from . import chow
from .chow import ChowError, CycleClass, GradeError, Value, _set
from .models import (AmbientModel, ChernData, default_polarization,
                     hypersurface, is_prime_class, projective_space,
                     tangent_coefficients)


class LogPair(Value):
    """An ambient model with an ordered list of labeled prime-divisor
    classes. Distinct components may share a class (two hyperplanes are
    two components); the SNC hypothesis is a modeling assumption.

    Validation runs once per distinct class object, at its first
    occurrence, so an error names the first offending label; `groups`
    holds each distinct object's integer coefficients with its
    multiplicity, in order of first occurrence; it is derived, so it
    takes no part in equality, hash or repr."""

    _fields = ("model", "components")
    __slots__ = _fields + ("groups",)

    def __init__(self, model: AmbientModel,
                 components: tuple[tuple[str, CycleClass], ...] = ()):
        components = tuple(components)
        labels = [label for label, _ in components]
        if len(set(labels)) != len(labels):
            raise ChowError(f"duplicate component labels in {labels}")
        # id(class) -> multiplicity; every class stays alive in components
        counts = {}
        distinct = []
        for label, cls in components:
            key = id(cls)
            if key in counts:
                counts[key] += 1
                continue
            # parse_document hands out one model per distinct ambient
            if cls.model is not model and cls.model != model:
                raise ChowError(
                    f"component {label!r} lives on {cls.model}, "
                    f"not {model}")
            if cls.grade != 1:
                raise GradeError(f"component {label!r} must have grade 1")
            if not is_prime_class(model, cls):
                raise ChowError(
                    f"component {label!r} = {cls} is not an effective "
                    "prime-divisor class on this model")
            counts[key] = 1
            distinct.append(cls)
        _set(self, "model", model)
        _set(self, "components", components)
        _set(self, "groups", tuple(
            (cls.coeffs, counts[id(cls)]) for cls in distinct))

    @property
    def classes(self) -> tuple[CycleClass, ...]:
        return tuple(cls for _, cls in self.components)

    def _boundary_coeffs(self) -> tuple[int, ...]:
        # prime classes are integral, so every coefficient is an int
        return tuple(sum(k * E[i] for E, k in self.groups)
                     for i in range(self.model.basis_size(1)))

    def boundary(self) -> CycleClass:
        """The total divisor D = sum D_i (zero if there are no components)."""
        return self.model.divisor(*self._boundary_coeffs())


def pn_pair(n: int, degrees) -> LogPair:
    """Convenience: (P^n, D) with D_i of the given degrees; one class per
    distinct integer degree."""
    model = projective_space(n)
    # the memo takes ints only: True and 1.0 equal 1 as keys, and must
    # reach model.divisor, which rejects them
    classes = {}
    comps = []
    for i, d in enumerate(degrees):
        if type(d) is int:
            cls = classes.get(d)
            if cls is None:
                cls = classes[d] = model.divisor(d)
        else:
            cls = model.divisor(d)
        comps.append((f"D{i + 1}", cls))
    return LogPair(model, tuple(comps))


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

    D and sum_i D_i^2 are sums over the pair's distinct class objects,
    each term times its multiplicity, of integer coefficients and of the
    model's intersection form; c2 is then the closed form of the module
    docstring, and c1 and c2 are the only cycle classes built.  No
    chow.mul is taken.
    """
    model = pair.model
    t1, t2 = tangent_coefficients(model)
    intersect = model.intersect
    D = pair._boundary_coeffs()
    squares = sum(k * intersect(E, E) for E, k in pair.groups)
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
