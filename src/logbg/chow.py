"""Exact cycle-class arithmetic on the supported ambient models.

A coefficient is an int, or a `fractions.Fraction` where it is not
integral; never a float.
A CycleClass is a graded vector in the fixed codimension basis of its
owning model: rank one in every codimension for projective spaces and
hypersurfaces, and (C0, f) in codimension one on a Hirzebruch surface.

Value, the base of every record class in the package, is a `__slots__`
class with hand-written `__init__` methods, not a frozen dataclass.  A
CLI run lasts milliseconds, so start-up counts: the module behind
`@dataclass` imports `inspect`, `ast`, `dis` and `tokenize` (about
10 ms under `python -X importtime`, a third of the whole import of
logbg.cli), and each `@dataclass(frozen=True)` then execs generated code
and calls `inspect.signature` (about 1 ms per class).
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .models import AmbientModel

Scalar = Union[int, Fraction]


class ChowError(ValueError):
    """Base class for invalid cycle arithmetic."""


class ModelMismatchError(ChowError):
    """Operands belong to different ambient models."""


class GradeError(ChowError):
    """Operation is not defined at these codimensions."""


def _int_or_fraction(x: Scalar) -> Scalar:
    """x as an int when it is integral, else as a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


_set = object.__setattr__


class Value:
    """An immutable record compared, hashed and shown by its fields.

    A subclass lists its fields in `__slots__` (or in `_fields`, when it
    has slots that are not fields), in constructor order, and sets them
    with `object.__setattr__` in its `__init__`.  Equality, hash and repr
    match those of a frozen dataclass with the same fields; pickling and
    copying rebuild through the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._values = attrgetter(*cls._fields)  # the field tuple, in C

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

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

    def __init__(self, model: "AmbientModel", grade: int,
                 coeffs: tuple[Scalar, ...]):
        _set(self, "model", model)
        _set(self, "grade", grade)
        _set(self, "coeffs", coeffs)  # int, or Fraction where non-integral
        self.__post_init__()

    def __post_init__(self):
        # model.basis_size(grade), inlined: every class is checked here
        model, grade, coeffs = self.model, self.grade, self.coeffs
        if not 0 <= grade <= model.n:
            raise GradeError(f"grade {grade} out of range for {model}")
        expected = len(model.generators) if grade == 1 else 1
        if len(coeffs) != expected:
            raise ChowError(
                f"{model} needs {expected} coefficient(s) at "
                f"codimension {grade}, got {len(coeffs)}")
        # a bool fails `type(c) is int`, so the coercion rejects it
        for c in coeffs:
            if type(c) is not int:
                _set(self, "coeffs", tuple(map(_int_or_fraction, coeffs)))
                break

    def _check_same_model(self, other: "CycleClass") -> None:
        if self.model != other.model:
            raise ModelMismatchError(
                f"cannot combine classes on {self.model} and {other.model}")

    def __add__(self, other: "CycleClass") -> "CycleClass":
        if not isinstance(other, CycleClass):
            return NotImplemented
        self._check_same_model(other)
        if self.grade != other.grade:
            raise GradeError(
                f"cannot add codimension {self.grade} to {other.grade}")
        return CycleClass(
            self.model, self.grade,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycleClass":
        return CycleClass(
            self.model, self.grade, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "CycleClass") -> "CycleClass":
        return self + (-other)

    def scale(self, t: Scalar) -> "CycleClass":
        t = _int_or_fraction(t)
        return CycleClass(
            self.model, self.grade, tuple(t * c for c in self.coeffs))

    def __rmul__(self, t: Scalar) -> "CycleClass":
        if isinstance(t, (int, Fraction)):
            return self.scale(t)
        return NotImplemented

    def __mul__(self, other) -> "CycleClass":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, CycleClass):
            return mul(self, other)
        return NotImplemented

    def __pow__(self, k: int) -> "CycleClass":
        if k < 0:
            raise GradeError("negative intersection powers are undefined")
        result = self.model.unit()
        for _ in range(k):
            result = mul(result, self)
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        names = self.model.basis_names(self.grade)
        parts = [f"{c}*{b}" if b else f"{c}"
                 for c, b in zip(self.coeffs, names)]
        return " + ".join(parts)


def mul(a: CycleClass, b: CycleClass) -> CycleClass:
    """Intersection product, truncated above the ambient dimension."""
    a._check_same_model(b)
    model = a.model
    g = a.grade + b.grade
    if g > model.dim:
        raise GradeError(
            f"codimension {a.grade} + {b.grade} exceeds dim {model.dim}")
    if a.grade == 0:
        return b.scale(a.coeffs[0])
    if b.grade == 0:
        return a.scale(b.coeffs[0])
    return CycleClass(model, g, (model.intersect(a.coeffs, b.coeffs),))


def degree(a: CycleClass) -> Scalar:
    """Degree of a top-codimension class (deg h^n = q on a hypersurface,
    and q = 1 on the other models)."""
    model = a.model
    if a.grade != model.dim:
        raise GradeError(
            f"degree needs codimension {model.dim}, got {a.grade}")
    return model.q * a.coeffs[0]


def pair_with_polarization(a: CycleClass, H: CycleClass, k: int) -> Scalar:
    """deg(a . H^k); the identity pairing when k = 0 on a surface.

    Where every graded piece has rank one (P^n and hypersurfaces, whose H
    has one coefficient h0) a . H^k = a0 h0^k times the top generator, so
    the degree is q a0 h0^k in closed form, at any n.  On F_m the product
    is taken, in at most two steps."""
    if H.grade != 1:
        raise GradeError("polarization must have codimension 1")
    if a.grade + k != a.model.dim:
        raise GradeError(
            f"codimension {a.grade} + {k} != dim {a.model.dim}")
    a._check_same_model(H)
    if len(H.coeffs) == 1:
        return a.model.q * a.coeffs[0] * H.coeffs[0] ** k
    result = a
    for _ in range(k):
        result = mul(result, H)
    return degree(result)
