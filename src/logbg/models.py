"""The three ambient families: P^n, degree-q hypersurfaces in P^{n+1},
and Hirzebruch surfaces F_m, their intrinsic data and their cycle
classes.

This is the only module that tells the families apart.  FAMILIES holds
what the descriptor and basis layers need: each family's descriptor
fields, its codimension-1 basis and its builder.  The rules that differ
(the parameter checks and display of AmbientModel, the F_m intersection
form, the pairing factor, tangent data, default polarization, nef and
prime-class tests, C_inf) are the only `kind` branches.

Numerically P^n is the q = 1 hypersurface, and every model stores n and
q (n = 2, q = 1 on F_m), so the degree of a top class is q times its
coefficient on every model and the Picard-rank-one models share one
tangent formula.  Hypersurface classes live in the truncated subring
generated by the hyperplane section h with deg(h^n) = q; smoothness and
genericity are modeling assumptions and are not checked.

A CycleClass is a graded vector of int coefficients in the fixed
codimension basis of its owning model: rank one in every codimension
for projective spaces and hypersurfaces, and (C0, f) in codimension one
on a Hirzebruch surface.  Intersection numbers come from the model's
form on coefficient tuples (AmbientModel.intersect), not from products
of classes.

Value, the base of every record class in the package, is a `__slots__`
class with hand-written `__init__` methods, not a frozen dataclass.  A
CLI run lasts milliseconds, so start-up counts: the module behind
`@dataclass` imports `inspect`, `ast`, `dis` and `tokenize` (about
10 ms under `python -X importtime`, a third of the whole import of
logbg.cli), and each `@dataclass(frozen=True)` then execs generated code
and calls `inspect.signature` (about 1 ms per class).
"""

from __future__ import annotations

from collections.abc import Callable
from math import comb
from operator import attrgetter
from types import MappingProxyType


class ChowError(ValueError):
    """Base class for invalid cycle arithmetic."""


class GradeError(ChowError):
    """Operation is not defined at these codimensions."""


_set = object.__setattr__


class Value:
    """An immutable record compared, hashed and shown by its fields.

    A subclass lists its fields in `__slots__` (or in `_fields`, when its
    fields and slots differ), in constructor order, and sets them
    with `object.__setattr__` in its `__init__`.  A field that the others
    determine may be left out of `_compared`, the fields that equality and
    hash read (default: all).  Equality, hash and repr match those of a
    frozen dataclass with the same fields, the rest marked compare=False;
    pickling and copying rebuild through the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._values = attrgetter(*cls._fields)  # the field tuple, in C
        cls._key = attrgetter(*cls.__dict__.get("_compared", cls._fields))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


class CycleClass(Value):
    __slots__ = ("model", "grade", "coeffs")

    def __init__(self, model: AmbientModel, grade: int,
                 coeffs: tuple[int, ...]):
        _set(self, "model", model)
        _set(self, "grade", grade)
        _set(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        model, grade, coeffs = self.model, self.grade, self.coeffs
        if not 0 <= grade <= model.n:
            raise GradeError(f"grade {grade} out of range for {model}")
        expected = len(model.generators) if grade == 1 else 1
        if len(coeffs) != expected:
            raise ChowError(
                f"{model} needs {expected} coefficient(s) at "
                f"codimension {grade}, got {len(coeffs)}")
        # exactly int: a bool or another int subclass is refused too
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(
                    f"coefficients must be int, got {type(c).__name__}")

    def __str__(self) -> str:
        names = self.model.basis_names(self.grade)
        parts = [f"{c}*{b}" if b else f"{c}"
                 for c, b in zip(self.coeffs, names)]
        return " + ".join(parts)


class AmbientModel(Value):
    """A model of one family.  It refuses what the builders refuse, and
    any value of a parameter that the family fixes but the int n = 2,
    q = 1 or m = 0."""

    _fields = ("kind", "n", "q", "m")
    __slots__ = _fields + ("generators",)

    def __init__(self, kind: str, n: int, q: int = 1, m: int = 0):
        if type(kind) is not str or kind not in FAMILIES:
            raise ChowError(f"unknown model kind {kind!r}")
        if kind == "projective_space":
            title, fixed = "projective space", (("q", q, 1), ("m", m, 0))
            if type(n) is not int:
                raise TypeError(f"{title} needs an int n, got "
                                f"{type(n).__name__}")
            if n < 2:
                raise ChowError(f"{title} needs n >= 2, got {n}")
        elif kind == "hypersurface":
            title, fixed = "hypersurface", (("m", m, 0),)
            if type(n) is not int or type(q) is not int:
                raise TypeError(f"{title} needs int n and q, got "
                                f"({type(n).__name__}, {type(q).__name__})")
            if n < 2 or q < 1:
                raise ChowError(f"{title} needs n >= 2 and q >= 1, "
                                f"got ({n}, {q})")
        else:
            title, fixed = "Hirzebruch surface", (("n", n, 2), ("q", q, 1))
            if type(m) is not int:
                raise TypeError(f"{title} needs an int m, got "
                                f"{type(m).__name__}")
            if m < 1:
                raise ChowError(f"{title} needs m >= 1, got {m}")
        for name, value, want in fixed:
            if type(value) is not int or value != want:
                raise ChowError(f"{title} needs {name} = {want}, "
                                f"got {value!r}")
        _set(self, "kind", kind)  # a key of FAMILIES
        _set(self, "n", n)  # dimension
        # degree: deg(generator^n) on the Picard-rank-one models
        _set(self, "q", q)
        _set(self, "m", m)  # Hirzebruch twist
        # the family's codimension-1 basis, which every CycleClass reads
        _set(self, "generators", FAMILIES[kind].generators)

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
        if self.kind == "projective_space":
            return f"P^{self.n}"
        if self.kind == "hypersurface":
            return f"X_{self.q} in P^{self.n + 1}"
        return f"F_{self.m}"

    def intersect(self, a: tuple, b: tuple) -> int:
        """The one coefficient of a.b, from the coefficient tuples of two
        classes of positive grade."""
        if self.kind == "hirzebruch":
            # only 1+1 remains on a surface: C0^2 = -m, C0.f = 1, f^2 = 0
            (a0, a1), (b0, b1) = a, b
            return a0 * b0 * (-self.m) + a0 * b1 + a1 * b0
        return a[0] * b[0]

    def pairing_factor(self, h: tuple) -> int:
        """q h0^(n-2), with h0 the first coefficient h[0] of a grade-1
        class H: c.H^{n-2} is this factor times c, for the one
        coefficient c of a codimension-2 class (c2, or intersect(c1, c1)).
        It is 1 on the surface F_m, where H^0 is the identity."""
        return self.q * h[0] ** (self.n - 2)

    # -- class constructors ------------------------------------------------

    def cycle(self, grade: int, *coeffs: int) -> CycleClass:
        return CycleClass(self, grade, coeffs)

    def divisor(self, *coeffs: int) -> CycleClass:
        """Grade-1 class: one coefficient on P^n/hypersurface, (C0, f)
        coordinates on F_m."""
        return CycleClass(self, 1, coeffs)


def projective_space(n: int) -> AmbientModel:
    return AmbientModel("projective_space", n)


def hypersurface(n: int, q: int) -> AmbientModel:
    return AmbientModel("hypersurface", n, q)


def hirzebruch(m: int) -> AmbientModel:
    return AmbientModel("hirzebruch", 2, m=m)


class Family(Value):
    __slots__ = ("fields", "generators", "build")

    def __init__(self, fields: tuple[str, ...], generators: tuple[str, ...],
                 build: Callable[..., AmbientModel]):
        # descriptor keys besides "kind", in order
        _set(self, "fields", fields)
        _set(self, "generators", generators)  # the codimension-1 basis
        # constructor taking `fields`; AmbientModel itself cannot be it,
        # since F_m fixes n = 2 and its descriptor gives only m
        _set(self, "build", build)


FAMILIES = MappingProxyType({
    "projective_space": Family(("n",), ("H",), projective_space),
    "hypersurface": Family(("n", "q"), ("h",), hypersurface),
    "hirzebruch": Family(("m",), ("C0", "f"), hirzebruch),
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


def is_nef_coeffs(model: AmbientModel, coeffs: tuple[int, ...]) -> bool:
    """Nefness of the divisor with these coefficients: a single sign on
    Picard-rank-one models; on F_m, nonnegative pairing with f and C0."""
    if model.kind == "hirzebruch":
        a, b = coeffs
        return a >= 0 and b - a * model.m >= 0
    return coeffs[0] >= 0


def is_ample_coeffs(model: AmbientModel, coeffs: tuple[int, ...]) -> bool:
    """Ampleness of the divisor with these coefficients: h0 >= 1 on
    Picard-rank-one models; on F_m, a >= 1 and b > a m (Hartshorne,
    Algebraic Geometry, V.2.18)."""
    if model.kind == "hirzebruch":
        a, b = coeffs
        return a >= 1 and b > a * model.m
    return coeffs[0] >= 1


def is_prime_class(model: AmbientModel, cls: CycleClass) -> bool:
    """Whether some prime divisor has this class.  On F_m those are C0, f
    and aC0 + bf with a >= 1, b >= am (Hartshorne, Algebraic Geometry,
    V.2.18); on the Picard-rank-one models, the positive multiples of the
    generator."""
    if model.kind == "hirzebruch":
        a, b = cls.coeffs
        return (a, b) in ((1, 0), (0, 1)) or (a >= 1 and b >= a * model.m)
    return cls.coeffs[0] >= 1
