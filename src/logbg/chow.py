"""Exact cycle-class arithmetic on the supported ambient models.

All coefficients are `fractions.Fraction`; no floats appear anywhere.
A CycleClass is a graded vector in the fixed codimension basis of its
owning model: rank one in every codimension for projective spaces and
hypersurfaces, and (C0, f) in codimension one on a Hirzebruch surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class CycleClass:
    model: "AmbientModel"
    grade: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not 0 <= self.grade <= self.model.dim:
            raise GradeError(
                f"grade {self.grade} out of range for {self.model}")
        expected = self.model.basis_size(self.grade)
        if len(self.coeffs) != expected:
            raise ChowError(
                f"{self.model} needs {expected} coefficient(s) at "
                f"codimension {self.grade}, got {len(self.coeffs)}")
        object.__setattr__(
            self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))

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
        t = _as_fraction(t)
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


def degree(a: CycleClass) -> Fraction:
    """Degree of a top-codimension class (deg h^n = q on a hypersurface,
    and q = 1 on the other models)."""
    model = a.model
    if a.grade != model.dim:
        raise GradeError(
            f"degree needs codimension {model.dim}, got {a.grade}")
    return model.q * a.coeffs[0]


def pair_with_polarization(a: CycleClass, H: CycleClass, k: int) -> Fraction:
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
