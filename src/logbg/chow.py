"""Cycle classes on the supported ambient models.

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

from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .models import AmbientModel


class ChowError(ValueError):
    """Base class for invalid cycle arithmetic."""


class GradeError(ChowError):
    """Operation is not defined at these codimensions."""


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

