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

Every pair, held as its runs ((class, multiplicity), ...), comes from
one checked core, _build: the constructor, the runs builder
_pair_from_runs and the descriptor parser hand it the classes they have
not checked.  _log_chern_coeffs reads c1 and c2 from the runs.

slope and wedge_cotangent_slope import `fractions` only when called,
so that no command loads it; the fixtures read their integer terms.
"""

from __future__ import annotations

from itertools import chain, count, groupby, repeat
from math import comb
from operator import sub

from .models import (AmbientModel, ChowError, CycleClass, GradeError, Value,
                     _set, hypersurface, is_ample_coeffs, is_prime_class,
                     projective_space, tangent_coefficients)


class LogPair(Value):
    """An ambient model with an ordered list of labeled prime-divisor
    classes. Distinct components may share a class (two hyperplanes are
    two components); the SNC hypothesis is a modeling assumption.

    The constructor checks each distinct class object once, at its
    first component, so an error names the first offending label.
    `_runs` holds the classes, one run per component for a constructed
    pair.  A pair built from runs costs O(runs), not O(l), and its
    `components`, labeled D1..Dl, is built when first read.  Only model
    and components take part in equality, hash, repr and pickling."""

    _fields = ("model", "components")
    __slots__ = ("model", "_runs", "_components")

    def __init__(self, model: AmbientModel,
                 components: tuple[tuple[str, CycleClass], ...] = ()):
        components = tuple(components)
        _build(self, model, tuple([(cls, 1) for _, cls in components]),
               components, {id(cls): cls for _, cls in components}.values())

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
        D = [0] * len(self.model.generators)
        for cls, k in self._runs:
            for i, e in enumerate(cls.coeffs):
                D[i] += k * e
        return tuple(D)


def _build(pair: LogPair, model: AmbientModel, runs, components,
           new) -> LogPair:
    """Check, then set the slots of `pair`; every LogPair comes from here.

    `runs` is ((class, multiplicity), ...), labeled D1..Dl when
    `components` is None; else `components` is ((label, class), ...) with
    distinct labels, and `runs` its ((class, 1), ...).  `new` holds the
    classes not yet checked, in order of first occurrence; each must live
    on `model`, at grade 1, and be prime, and an error names the label of
    its first component.  The runs are stored as they come: equal classes
    in different runs stay apart."""
    if components is not None:
        labels = [label for label, _ in components]
        if len(set(labels)) != len(labels):
            raise ChowError(f"duplicate component labels in {labels}")
    for cls in new:
        if cls.model is not model and cls.model != model:
            error, text = ChowError, f"lives on {cls.model}, not {model}"
        elif cls.grade != 1:
            error, text = GradeError, "must have grade 1"
        elif not is_prime_class(model, cls):
            error, text = ChowError, (f"= {cls} is not an effective "
                                      "prime-divisor class on this model")
        else:
            continue
        i = 0  # the index of the class's first component
        for other, k in runs:
            if other is cls:
                break
            i += k
        label = f"D{i + 1}" if components is None else components[i][0]
        raise error(f"component {label!r} {text}")
    _set(pair, "model", model)
    _set(pair, "_runs", runs)
    _set(pair, "_components", components)
    return pair


def pn_pair(n: int, degrees) -> LogPair:
    """Convenience: (P^n, D) with D_i of the given degrees, labeled
    D1..Dl; one run per stretch of equal degrees, so its cost beyond
    C-level passes over `degrees` depends on the runs, not on l."""
    model = projective_space(n)
    degrees = tuple(degrees)  # scanned, then grouped
    types = set(map(type, degrees))
    if not types <= {int}:  # True and 1.0 would join a run of 1
        raise TypeError("degrees must be int, got " + ", ".join(
            sorted(t.__name__ for t in types - {int})))
    runs = tuple([(d, len(list(run))) for d, run in groupby(degrees)])
    return _pair_from_runs(model, runs, {})


def _pair_from_runs(model: AmbientModel,
                    runs: tuple[tuple[int, int], ...],
                    classes: dict) -> LogPair:
    """(model, D) from runs ((degree, multiplicity), ...) on P^n or a
    hypersurface.  `classes` maps int degrees to checked classes: every
    class it lacks is built (model.divisor rejects each True or 1.0),
    then _build checks them, and all are added if all pass."""
    new, class_runs = {}, []
    for d, k in runs:
        cls = classes.get(d) or new.get(d)
        if cls is None or type(d) is not int:
            cls = new[d] = model.divisor(d)
        class_runs.append((cls, k))
    pair = _build(LogPair.__new__(LogPair), model, tuple(class_runs), None,
                  new.values() if new else ())
    if new:  # most search cases build no class
        classes.update(new)
    return pair


def hypersurface_pair(n: int, q: int, l: int) -> LogPair:
    """Convenience: degree-q hypersurface with l degree-1 components,
    labeled D1..Dl; one run, at any l."""
    model = hypersurface(n, q)
    if type(l) is not int:  # True would be one component
        raise TypeError(f"component count must be int, got {type(l).__name__}")
    if l < 0:
        raise ChowError(f"component count must be non-negative, got {l}")
    return _pair_from_runs(model, ((1, l),) if l > 0 else (), {})


def _log_chern_coeffs(pair: LogPair, tangent: tuple | None = None
                      ) -> tuple[tuple[int, ...], int]:
    """Integer coefficients of log c1 and log c2, with no class built: the
    pair's runs, each class times its multiplicity, sum D and sum_i D_i^2
    for the module docstring's c2, in one pass on P^n and hypersurfaces,
    where E.E = e^2.  `tangent` is the model's tangent_coefficients."""
    model = pair.model
    t1, t2 = tangent or tangent_coefficients(model)
    intersect = model.intersect
    if len(t1) == 1:  # the common case, in one pass
        d = squares = 0
        for cls, k in pair._runs:
            e = cls.coeffs[0]
            d += k * e
            squares += k * e * e
        D = (d,)
    else:
        D = pair._boundary_coeffs()
        squares = sum([k * intersect(cls.coeffs, cls.coeffs)
                       for cls, k in pair._runs])
    # K.D = -c1(T).D
    c2 = t2 - intersect(t1, D) + (intersect(D, D) + squares) // 2
    return tuple(map(sub, t1, D)), c2


def _slope_terms(model: AmbientModel, c1: CycleClass, rank: int,
                 H: CycleClass) -> tuple[int, int]:
    """slope's (numerator, denominator), with all its checks:
    (q (c1.H) h0^(n-2), rank), with h0 the first coefficient of H; h0^0 = 1
    on the surface F_m.  The denominator is positive."""
    if type(rank) is not int:  # True would be rank 1
        raise TypeError(f"rank must be int, got {type(rank).__name__}")
    if rank < 1:
        raise ChowError("rank must be positive")
    if c1.grade != 1 or H.grade != 1:
        raise GradeError("slope needs grade-1 classes")
    if c1.model != model or H.model != model:
        raise ChowError(f"slope needs c1 and H on {model}")
    h = H.coeffs
    if not is_ample_coeffs(model, h):
        raise ChowError(f"polarization {H} is not ample")
    return (model.q * model.intersect(c1.coeffs, h) * h[0] ** (model.n - 2),
            rank)


def slope(model: AmbientModel, c1: CycleClass, rank: int,
          H: CycleClass) -> Fraction:
    """mu_H = c1 . H^{n-1} / rank, for an int rank >= 1 and an ample H on
    `model`, both classes of grade 1, as a Fraction built from
    _slope_terms; the fixtures compare those integers instead."""
    from fractions import Fraction
    return Fraction(*_slope_terms(model, c1, rank, H))


def _wedge_terms(n: int, r: int) -> tuple[int, int]:
    """wedge_cotangent_slope's (numerator, denominator), with all its
    checks: (-C(n-1, r-1)(n+1), C(n, r)).  The denominator is positive."""
    if type(n) is not int or type(r) is not int:  # True would be 1
        raise TypeError(f"n and r must be int, got ({type(n).__name__}, "
                        f"{type(r).__name__})")
    if n < 2 or not 1 <= r <= n:
        raise ChowError(f"need n >= 2 and 1 <= r <= n, got r={r}, n={n}")
    return -comb(n - 1, r - 1) * (n + 1), comb(n, r)


def wedge_cotangent_slope(n: int, r: int) -> Fraction:
    """Slope of the r-th wedge of the cotangent bundle on P^n against H:
    c1(wedge^r Omega^1) = -C(n-1, r-1)(n+1) H over rank C(n, r), as
    deg H^n = 1, as a Fraction built from _wedge_terms.  It builds no
    model, and refuses what projective_space refuses."""
    from fractions import Fraction
    return Fraction(*_wedge_terms(n, r))
