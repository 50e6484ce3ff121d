"""The three ambient families: P^n, degree-q hypersurfaces in P^{n+1},
and Hirzebruch surfaces F_m, together with their intrinsic data.

This is the only module that tells the families apart.  FAMILIES holds
what the descriptor, display and basis layers need; the rules that
differ (the F_m intersection form, tangent data, default polarization,
nef and prime-class tests, C_inf) are the only `kind` branches.

Numerically P^n is the q = 1 hypersurface, and every model stores n and
q (n = 2, q = 1 on F_m), so the degree of a top class is q times its
coefficient on every model and the Picard-rank-one models share one
tangent formula.  Hypersurface classes live in the truncated subring
generated by the hyperplane section h with deg(h^n) = q; smoothness and
genericity are modeling assumptions and are not checked.
"""

from __future__ import annotations

from math import comb
from types import MappingProxyType
from typing import Callable

from .chow import ChowError, CycleClass, GradeError, Scalar, Value, _set


class AmbientModel(Value):
    _fields = ("kind", "n", "q", "m")
    __slots__ = _fields + ("generators",)

    def __init__(self, kind: str, n: int, q: int = 1, m: int = 0):
        _set(self, "kind", kind)  # a key of FAMILIES
        _set(self, "n", n)  # dimension
        # degree: deg(generator^n) on the Picard-rank-one models
        _set(self, "q", q)
        _set(self, "m", m)  # Hirzebruch twist
        # the family's codimension-1 basis, which every CycleClass reads
        _set(self, "generators", FAMILIES[kind].generators)

    @property
    def family(self) -> "Family":
        return FAMILIES[self.kind]

    @property
    def dim(self) -> int:
        return self.n

    def basis_size(self, grade: int) -> int:
        return len(self.generators) if grade == 1 else 1

    def basis_names(self, grade: int) -> tuple[str, ...]:
        generators = self.generators
        if grade == 0:
            return ("",)
        if grade == 1:
            return generators
        if len(generators) > 1:
            return ("pt",)
        return (f"{generators[0]}^{grade}",)

    def __str__(self) -> str:
        return self.family.label(self)

    def intersect(self, a: tuple, b: tuple) -> Scalar:
        """The one coefficient of a.b, from the coefficient tuples of two
        classes of positive grade; integral on integral input."""
        if self.kind == "hirzebruch":
            # only 1+1 remains on a surface: C0^2 = -m, C0.f = 1, f^2 = 0
            (a0, a1), (b0, b1) = a, b
            return a0 * b0 * (-self.m) + a0 * b1 + a1 * b0
        return a[0] * b[0]

    # -- class constructors ------------------------------------------------

    def cycle(self, grade: int, *coeffs: Scalar) -> CycleClass:
        return CycleClass(self, grade, coeffs)

    def zero(self, grade: int) -> CycleClass:
        return CycleClass(self, grade, (0,) * self.basis_size(grade))

    def unit(self) -> CycleClass:
        return self.cycle(0, 1)

    def point(self, c: Scalar = 1) -> CycleClass:
        return self.cycle(self.dim, c)

    def divisor(self, *coeffs: Scalar) -> CycleClass:
        """Grade-1 class: one coefficient on P^n/hypersurface, (C0, f)
        coordinates on F_m."""
        return self.cycle(1, *coeffs)


class ChernData(Value):
    __slots__ = ("rank", "c1", "c2")

    def __init__(self, rank: int, c1: CycleClass, c2: CycleClass):
        if rank < 1:
            raise ChowError("rank must be positive")
        if c1.model != c2.model:
            raise ChowError("c1 and c2 must live on one model")
        if c1.grade != 1 or c2.grade != 2:
            raise GradeError("ChernData needs c1 in grade 1, c2 in grade 2")
        _set(self, "rank", rank)
        _set(self, "c1", c1)
        _set(self, "c2", c2)


def projective_space(n: int) -> AmbientModel:
    if n < 2:
        raise ChowError(f"projective space needs n >= 2, got {n}")
    return AmbientModel("projective_space", n=n)


def hypersurface(n: int, q: int) -> AmbientModel:
    if n < 2 or q < 1:
        raise ChowError(f"hypersurface needs n >= 2 and q >= 1, got ({n}, {q})")
    return AmbientModel("hypersurface", n=n, q=q)


def hirzebruch(m: int) -> AmbientModel:
    if m < 1:
        raise ChowError(f"Hirzebruch surface needs m >= 1, got {m}")
    return AmbientModel("hirzebruch", n=2, m=m)


class Family(Value):
    __slots__ = ("fields", "generators", "label", "build")

    def __init__(self, fields: tuple[str, ...], generators: tuple[str, ...],
                 label: Callable[[AmbientModel], str],
                 build: Callable[..., AmbientModel]):
        # descriptor keys besides "kind", in order
        _set(self, "fields", fields)
        _set(self, "generators", generators)  # the codimension-1 basis
        _set(self, "label", label)
        _set(self, "build", build)  # constructor taking `fields`


# module-level label functions, so that a Family pickles by reference
def _pn_label(x: AmbientModel) -> str:
    return f"P^{x.n}"


def _hypersurface_label(x: AmbientModel) -> str:
    return f"X_{x.q} in P^{x.n + 1}"


def _hirzebruch_label(x: AmbientModel) -> str:
    return f"F_{x.m}"


FAMILIES = MappingProxyType({
    "projective_space": Family(("n",), ("H",), _pn_label, projective_space),
    "hypersurface": Family(("n", "q"), ("h",), _hypersurface_label,
                           hypersurface),
    "hirzebruch": Family(("m",), ("C0", "f"), _hirzebruch_label, hirzebruch),
})


def c_infinity(model: AmbientModel) -> CycleClass:
    """The section C_inf ~ C0 + m*f on F_m."""
    if model.kind != "hirzebruch":
        raise ChowError("C_inf only exists on a Hirzebruch surface")
    return model.divisor(1, model.m)


def is_c_infinity(cls: CycleClass) -> bool:
    return (cls.model.kind == "hirzebruch" and cls.grade == 1
            and cls.coeffs == (1, cls.model.m))


def tangent_coefficients(model: AmbientModel) -> tuple[tuple[int, ...], int]:
    """The integer c1 coefficients and c2 of the tangent bundle.

    On the Picard-rank-one models the values truncate
    (1+h)^{n+2} / (1+qh): c1 = (n+2-q)h, c2 = (C(n+2,2) - q(n+2) + q^2) h^2,
    which at q = 1 are (n+1)H and C(n+1,2) H^2 on P^n.  On F_m, c2 equals
    the Euler number 4 and c1 = 2C0 + (m+2)f.
    """
    if model.kind == "hirzebruch":
        return (2, model.m + 2), 4
    n, q = model.n, model.q
    return (n + 2 - q,), comb(n + 2, 2) - q * (n + 2) + q * q


def tangent_chern(model: AmbientModel) -> ChernData:
    """Rank (the dimension), c1 and c2 of the tangent bundle."""
    c1, c2 = tangent_coefficients(model)
    return ChernData(model.dim, model.divisor(*c1), model.cycle(2, c2))


def canonical_class(model: AmbientModel) -> CycleClass:
    return -tangent_chern(model).c1


def default_polarization(model: AmbientModel) -> CycleClass:
    """H on P^n, h on a hypersurface, the interior ample class
    C0 + (m+1)f on F_m."""
    if model.kind == "hirzebruch":
        return model.divisor(1, model.m + 1)
    return model.divisor(1)


def is_nef(model: AmbientModel, divisor: CycleClass) -> bool:
    """Whether a grade-1 class on `model` is nef, by is_nef_coeffs."""
    if divisor.model != model:
        raise ChowError("divisor does not live on this model")
    if divisor.grade != 1:
        raise GradeError("nefness is a codimension-1 question")
    return is_nef_coeffs(model, divisor.coeffs)


def is_nef_coeffs(model: AmbientModel, coeffs: tuple[Scalar, ...]) -> bool:
    """Nefness of the divisor with these coefficients: a single sign on
    Picard-rank-one models; on F_m, nonnegative pairing with f and C0."""
    if model.kind == "hirzebruch":
        a, b = coeffs
        return a >= 0 and b - a * model.m >= 0
    return coeffs[0] >= 0


def is_prime_class(model: AmbientModel, cls: CycleClass) -> bool:
    """Whether some prime divisor has this class.  On F_m those are C0, f
    and aC0 + bf with a >= 1, b >= am (Hartshorne, Algebraic Geometry,
    V.2.18); on the Picard-rank-one models, the positive multiples of the
    generator."""
    if model.kind == "hirzebruch":
        a, b = cls.coeffs
        if a.denominator != 1 or b.denominator != 1:
            return False
        return (a, b) in ((1, 0), (0, 1)) or (a >= 1 and b >= a * model.m)
    c, = cls.coeffs
    return c.denominator == 1 and c >= 1
