"""Reference log Chern and Bogomolov-Gieseker values, from the textbook
formulas on coefficient tuples.

Nothing here comes from logbg's integer core: the intersection form is
written out (h.h = 1 and deg h^n = q on P^n and hypersurfaces; C0^2 = -m,
C0.f = 1, f^2 = 0 on F_m), the tangent data come from a series division,
log c2 multiplies out every pair of components, and H^k is taken one
factor at a time.  A model is read only for its kind, n, q and m.
"""

from fractions import Fraction
from math import comb


def intersect(model, a, b):
    """The coefficient of a.b for two divisors' coefficient tuples."""
    if model.kind != "hirzebruch":
        return a[0] * b[0]
    form = ((-model.m, 1), (1, 0))
    return sum(x * form[i][j] * y
               for i, x in enumerate(a) for j, y in enumerate(b))


def iterated_pairing(model, grade, a, H, k):
    """deg(a . H^k) for a class of this grade, one product per factor."""
    for _ in range(k):
        if grade == 0:
            a = tuple(a[0] * h for h in H)
        else:
            a = (intersect(model, a, H) if grade == 1 else a[0] * H[0],)
        grade += 1
    assert grade == model.n, "a . H^k must be a top class"
    return model.q * a[0]


def tangent_series_oracle(n, q):
    """Formal division of (1+h)^{n+2} by (1+qh), truncated at h^2."""
    c1 = comb(n + 2, 1) - q
    return c1, comb(n + 2, 2) - q * c1


def tangent(model):
    """(c1 coefficients, c2) of the tangent bundle."""
    if model.kind == "hirzebruch":  # -K = 2C0 + (m+2)f, Euler number 4
        return (2, model.m + 2), 4
    c1, c2 = tangent_series_oracle(model.n, model.q)
    return (c1,), c2


def pairwise_log_c2(model, divisors):
    """c2(T) + K.D + D^2 - sum_{i<j} D_i.D_j, every pair multiplied out."""
    c1, c2 = tangent(model)
    D = tuple(sum(d[i] for d in divisors) for i in range(len(c1)))
    crossings = sum(intersect(model, divisors[i], divisors[j])
                    for i in range(len(divisors))
                    for j in range(i + 1, len(divisors)))
    return (c2 - intersect(model, c1, D) + intersect(model, D, D)
            - crossings)


def log_chern(pair):
    """(log c1 coefficients, log c2) of a pair: c1(T) - D, and c2."""
    divisors = [cls.coeffs for _, cls in pair.components]
    c1 = tuple(t - sum(d[i] for d in divisors)
               for i, t in enumerate(tangent(pair.model)[0]))
    return c1, pairwise_log_c2(pair.model, divisors)


def split_bundle_chern(model, r, B):
    """(c1, c2) of a direct sum of r copies of a line bundle of class B."""
    return tuple(r * b for b in B), comb(r, 2) * intersect(model, B, B)


def discriminant(model, r, c1, c2, H):
    """(c2 - (r-1)/(2r) c1^2) . H^{n-2} at rank r."""
    k = model.n - 2
    return (iterated_pairing(model, 2, (c2,), H, k) - Fraction(r - 1, 2 * r)
            * iterated_pairing(model, 2, (intersect(model, c1, c1),), H, k))


def is_ample(model, H):
    """Whether the divisor with coefficients H is ample: a positive
    multiple of h on P^n and hypersurfaces; a C0 + b f with a >= 1 and
    b > a m on F_m (Hartshorne, Algebraic Geometry, V.2.18)."""
    if model.kind != "hirzebruch":
        return H[0] >= 1
    a, b = H
    return a >= 1 and b > a * model.m
