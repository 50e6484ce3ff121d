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

_log_chern_coeffs reads both in one pass over a pair's distinct classes;
the search builds each pair from its degree runs by _pair_from_runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count, groupby, repeat
from math import comb
from operator import sub

from .models import (AmbientModel, ChowError, CycleClass, GradeError, Value,
                     _set, default_polarization, hypersurface,
                     is_ample_coeffs, is_prime_class, projective_space,
                     tangent_coefficients)


class LogPair(Value):
    """An ambient model with an ordered list of labeled prime-divisor
    classes. Distinct components may share a class (two hyperplanes are
    two components); the SNC hypothesis is a modeling assumption.

    A pair is checked and grouped from runs ((class, multiplicity), ...)
    in component order: each distinct class object is checked once, at
    its first occurrence, so an error names the first offending label,
    and `groups` holds each distinct object's integer coefficients with
    its multiplicity, in order of first occurrence.  The constructor
    (its components as runs of one) and _pair_from_runs (runs of equal
    degrees, behind pn_pair, hypersurface_pair and the search) check by
    _groups; serialize.parse_document checks each of its classes once
    per document instead.  All three set the slots by _fill.  Building
    and verifying a search pair costs O(distinct classes), and its
    `components`, labeled D1..Dl, is built when first read.  Only model
    and components take part in equality, hash, repr and pickling."""

    _fields = ("model", "components")
    __slots__ = ("model", "groups", "_runs", "_components")

    def __init__(self, model: AmbientModel,
                 components: tuple[tuple[str, CycleClass], ...] = ()):
        components = tuple(components)
        labels, classes = zip(*components) if components else ((), ())
        _check_labels(labels)
        # each component is a run of one; every class stays alive in
        # components, so the ids _groups keys on stay valid
        self._fill(model, _groups(model, zip(classes, repeat(1)),
                                  labels.__getitem__), None, components)

    @classmethod
    def _from_runs(cls, model: AmbientModel,
                   runs: tuple[tuple[CycleClass, int], ...]) -> "LogPair":
        """The pair whose components, labeled D1..Dl, repeat each run's
        class `multiplicity` times, in order; they are built when first
        read."""
        return cls.__new__(cls)._fill(model, _groups(
            model, runs, lambda j: f"D{1 + sum(k for _, k in runs[:j])}"),
            runs, None)

    def _fill(self, model: AmbientModel, groups: tuple, runs, components):
        """Set the slots, unchecked: the caller has checked the classes
        behind `groups`.  One of `runs` and `components` is None."""
        _set(self, "model", model)
        _set(self, "groups", groups)
        _set(self, "_runs", runs)
        _set(self, "_components", components)
        return self

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
        """The coefficients of D = sum D_i (zero with no components)."""
        return tuple(sum(k * E[i] for E, k in self.groups)
                     for i in range(len(self.model.generators)))


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
        # _pair_from_runs builds every class on the pair's own model
        if cls.model is not model and cls.model != model:
            raise ChowError(
                f"component {label_of(j)!r} lives on {cls.model}, "
                f"not {model}")
        if cls.grade != 1:
            raise GradeError(f"component {label_of(j)!r} must have grade 1")
        if not is_prime_class(model, cls):
            raise _not_prime(label_of(j), cls)
        counts[id(cls)] = [cls, k]
    return tuple([(cls.coeffs, k) for cls, k in counts.values()])


def _check_labels(labels) -> None:
    if len(set(labels)) != len(labels):
        raise ChowError(f"duplicate component labels in {list(labels)}")


def _not_prime(label: str, cls: CycleClass) -> ChowError:
    return ChowError(f"component {label!r} = {cls} is not an effective "
                     "prime-divisor class on this model")


def pn_pair(n: int, degrees) -> LogPair:
    """Convenience: (P^n, D) with D_i of the given degrees, labeled
    D1..Dl; one run per stretch of equal degrees, so its cost beyond one
    C-level pass over `degrees` depends on the runs, not on l."""
    degrees = tuple(degrees)  # read twice below
    # True and 1.0 equal 1: keying runs on the type keeps them apart
    return _pair_from_runs(projective_space(n), tuple(
        (d, len(list(run))) for (_, d), run
        in groupby(zip(map(type, degrees), degrees))), {})


def _pair_from_runs(model: AmbientModel,
                    runs: tuple[tuple[int, int], ...],
                    classes: dict) -> LogPair:
    """(model, D) from runs ((degree, multiplicity), ...) on P^n or a
    hypersurface; `classes` maps int degrees to their classes and gains
    those it lacks.  model.divisor sees, and rejects, each True or 1.0."""
    class_runs = []
    for d, k in runs:
        if type(d) is not int or d not in classes:
            classes[d] = model.divisor(d)
        class_runs.append((classes[d], k))
    return LogPair._from_runs(model, tuple(class_runs))


def hypersurface_pair(n: int, q: int, l: int) -> LogPair:
    """Convenience: degree-q hypersurface with l degree-1 components,
    labeled D1..Dl; one run, at any l."""
    model = hypersurface(n, q)
    if type(l) is not int:  # True would be one component
        raise TypeError(f"component count must be int, got {type(l).__name__}")
    if l < 0:
        raise ChowError(f"component count must be non-negative, got {l}")
    return _pair_from_runs(model, ((1, l),) if l > 0 else (), {})


def _log_chern_coeffs(pair: LogPair) -> tuple[tuple[int, ...], int]:
    """Integer coefficients of log c1 and log c2, with no class built: one
    pass over the distinct class objects, times their multiplicity, sums
    D and sum_i D_i^2 for the module docstring's c2."""
    model = pair.model
    t1, t2 = tangent_coefficients(model)
    intersect = model.intersect
    squares = 0
    if len(t1) == 1:  # the common case, without the inner loop
        d = 0
        for E, k in pair.groups:
            d += k * E[0]
            squares += k * intersect(E, E)
        D = (d,)
    else:
        D = [0] * len(t1)
        for E, k in pair.groups:
            for i, e in enumerate(E):
                D[i] += k * e
            squares += k * intersect(E, E)
    # K.D = -c1(T).D
    c2 = t2 - intersect(t1, D) + (intersect(D, D) + squares) // 2
    return tuple(map(sub, t1, D)), c2


def slope(model: AmbientModel, c1: CycleClass, rank: int,
          H: CycleClass) -> Fraction:
    """mu_H = c1 . H^{n-1} / rank, for an ample H: q (c1.H) h0^(n-2), with
    h0 the first coefficient of H; h0^0 = 1 on the surface F_m."""
    if rank < 1:
        raise ChowError("rank must be positive")
    if c1.grade != 1 or H.grade != 1:
        raise GradeError("slope needs grade-1 classes")
    if c1.model != model or H.model != model:
        raise ChowError(f"slope needs c1 and H on {model}")
    if not is_ample_coeffs(model, H.coeffs):
        raise ChowError(f"polarization {H} is not ample")
    degree = (model.q * model.intersect(c1.coeffs, H.coeffs)
              * H.coeffs[0] ** (model.n - 2))
    # int / int would be a float
    return Fraction(degree, rank)


def wedge_cotangent_slope(n: int, r: int) -> Fraction:
    """Slope of the r-th wedge of the cotangent bundle on P^n, from
    c1(wedge^r Omega^1) = -C(n-1, r-1)(n+1) H and rank C(n, r)."""
    if not 1 <= r <= n:
        raise ChowError(f"need 1 <= r <= n, got r={r}, n={n}")
    model = projective_space(n)
    c1 = model.divisor(-comb(n - 1, r - 1) * (n + 1))
    return slope(model, c1, comb(n, r), default_polarization(model))
