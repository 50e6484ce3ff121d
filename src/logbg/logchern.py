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
from itertools import chain, count, groupby, repeat
from math import comb
from operator import index

from . import chow
from .chow import ChowError, CycleClass, GradeError, Value, _set
from .models import (AmbientModel, ChernData, default_polarization,
                     hypersurface, is_prime_class, projective_space,
                     tangent_coefficients)


class LogPair(Value):
    """An ambient model with an ordered list of labeled prime-divisor
    classes. Distinct components may share a class (two hyperplanes are
    two components); the SNC hypothesis is a modeling assumption.

    Every pair is checked and grouped by one function, _groups, from
    runs ((class, multiplicity), ...) in component order: validation runs
    once per distinct class object, at its first occurrence, so an error
    names the first offending label, and `groups` holds each distinct
    object's integer coefficients with its multiplicity, in order of
    first occurrence.  The constructor hands over its explicit
    components as runs of one; pn_pair and hypersurface_pair hand over
    runs of equal degrees, so building and verifying a search pair costs
    O(distinct classes), and its `components`, labeled D1..Dl, is built
    when first read.  Only model and components take part in equality,
    hash, repr and pickling."""

    _fields = ("model", "components")
    __slots__ = ("model", "groups", "_runs", "_components")

    def __init__(self, model: AmbientModel,
                 components: tuple[tuple[str, CycleClass], ...] = ()):
        components = tuple(components)
        labels, classes = zip(*components) if components else ((), ())
        if len(set(labels)) != len(labels):
            raise ChowError(f"duplicate component labels in {list(labels)}")
        # each component is a run of one; every class stays alive in
        # components, so the ids _groups keys on stay valid
        _set(self, "model", model)
        _set(self, "groups", _groups(model, zip(classes, repeat(1)),
                                     labels.__getitem__))
        _set(self, "_runs", None)
        _set(self, "_components", components)

    @classmethod
    def _from_runs(cls, model: AmbientModel,
                   runs: tuple[tuple[CycleClass, int], ...]) -> "LogPair":
        """The pair whose components, labeled D1..Dl, repeat each run's
        class `multiplicity` times, in order; they are built when first
        read."""
        pair = cls.__new__(cls)
        _set(pair, "model", model)
        _set(pair, "groups", _groups(
            model, runs, lambda j: f"D{1 + sum(k for _, k in runs[:j])}"))
        _set(pair, "_runs", runs)
        _set(pair, "_components", None)
        return pair

    @property
    def components(self) -> tuple[tuple[str, CycleClass], ...]:
        components = self._components
        if components is None:
            classes = chain.from_iterable(
                repeat(cls, k) for cls, k in self._runs)
            components = tuple(zip(map("D{}".format, count(1)), classes))
            _set(self, "_components", components)
        return components

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


def _groups(model: AmbientModel, runs, label_of) -> tuple:
    """The (coefficients, multiplicity) of each distinct class object in
    `runs`, ((class, multiplicity), ...), in order of first occurrence.
    Each object is checked once, at its first run; label_of(j) names the
    first component of run j, and only an error calls it."""
    counts = {}  # id(class) -> [class, multiplicity]
    for j, (cls, k) in enumerate(runs):
        group = counts.get(id(cls))
        if group is not None:
            group[1] += k
            continue
        # parse_document hands out one model per distinct ambient
        if cls.model is not model and cls.model != model:
            raise ChowError(
                f"component {label_of(j)!r} lives on {cls.model}, "
                f"not {model}")
        if cls.grade != 1:
            raise GradeError(f"component {label_of(j)!r} must have grade 1")
        if not is_prime_class(model, cls):
            raise ChowError(
                f"component {label_of(j)!r} = {cls} is not an effective "
                "prime-divisor class on this model")
        counts[id(cls)] = [cls, k]
    return tuple((cls.coeffs, k) for cls, k in counts.values())


def pn_pair(n: int, degrees) -> LogPair:
    """Convenience: (P^n, D) with D_i of the given degrees, labeled
    D1..Dl; one class per distinct integer degree and one run per stretch
    of equal degrees, so its cost beyond one C-level pass over `degrees`
    depends on the runs, not on l."""
    model = projective_space(n)
    degrees = tuple(degrees)
    # True and 1.0 equal 1, so they must not share a class or a run with
    # it: any degree that is not an int gets its own run, and
    # model.divisor rejects it
    if set(map(type, degrees)) <= {int}:
        classes = {d: model.divisor(d) for d in set(degrees)}
        runs = tuple((classes[d], len(list(run)))
                     for d, run in groupby(degrees))
    else:
        runs = tuple((model.divisor(d), 1) for d in degrees)
    return LogPair._from_runs(model, runs)


def hypersurface_pair(n: int, q: int, l: int) -> LogPair:
    """Convenience: degree-q hypersurface with l degree-1 components,
    labeled D1..Dl; one run, at any l."""
    h = hypersurface(n, q).divisor(1)
    l = index(l)  # as range(l) did: no float, no str
    return LogPair._from_runs(h.model, ((h, l),) if l > 0 else ())


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
