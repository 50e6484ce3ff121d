from fractions import Fraction
from math import comb

import pytest

from logbg.chow import ChowError, GradeError
from logbg.models import (ChernData, c_infinity, canonical_class,
                          default_polarization, hirzebruch, hypersurface,
                          is_c_infinity, is_nef, is_prime_class,
                          projective_space, tangent_chern)


def tangent_series_oracle(n, q):
    """Formal division of (1+h)^{n+2} by (1+qh), truncated at h^2.

    Independent of the closed forms used by tangent_chern.
    """
    num = [comb(n + 2, k) for k in range(3)]
    c0 = num[0]
    c1 = num[1] - q * c0
    c2 = num[2] - q * c1
    return c1, c2


class TestTangentChern:
    def test_p7(self):
        model = projective_space(7)
        data = tangent_chern(model)
        assert data.rank == 7
        assert data.c1 == model.divisor(8)
        assert data.c2 == model.cycle(2, 28)

    def test_quadric_sevenfold(self):
        data = tangent_chern(hypersurface(7, 2))
        assert data.c2.coeffs[0] == 36 - 18 + 4 == 22

    def test_f3(self):
        model = hirzebruch(3)
        data = tangent_chern(model)
        assert data.rank == 2
        assert data.c1 == model.divisor(2, 5)
        assert data.c2 == model.point(4)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("q", range(1, 13))
    def test_series_division_oracle(self, n, q):
        data = tangent_chern(hypersurface(n, q))
        c1, c2 = tangent_series_oracle(n, q)
        assert data.c1.coeffs[0] == c1
        assert data.c2.coeffs[0] == c2

    @pytest.mark.parametrize("n", range(2, 13))
    def test_degree_one_hypersurface_matches_projective_space(self, n):
        flat = tangent_chern(hypersurface(n, 1))
        proj = tangent_chern(projective_space(n))
        assert flat.rank == proj.rank
        assert flat.c1.coeffs == proj.c1.coeffs
        assert flat.c2.coeffs == proj.c2.coeffs

    # (model, c1 coefficients, c2): P^n has (n+1)H and C(n+1,2)H^2; the
    # quintic threefold and the quartic K3 have c1 = 0 and c2 = 10h^2 and
    # 6h^2 (Euler number 4 * 6 = 24); F_m has 2C0 + (m+2)f and 4
    @pytest.mark.parametrize("model,c1,c2", [
        (projective_space(2), (3,), 3), (projective_space(7), (8,), 28),
        (projective_space(40), (41,), 820), (hypersurface(7, 2), (7,), 22),
        (hypersurface(4, 3), (3,), 6), (hypersurface(3, 5), (0,), 10),
        (hypersurface(2, 4), (0,), 6), (hirzebruch(1), (2, 3), 4),
        (hirzebruch(5), (2, 7), 4)],
        ids=["P2", "P7", "P40", "X2inP8", "X3inP5", "X5inP4", "X4inP3", "F1",
             "F5"])
    def test_pinned_closed_forms(self, model, c1, c2):
        data = tangent_chern(model)
        assert data == ChernData(model.dim, model.divisor(*c1),
                                 model.cycle(2, c2))
        assert data.c1.coeffs == c1 and data.c2.coeffs == (c2,)
        assert all(type(c) is int for c in data.c1.coeffs + data.c2.coeffs)

    def test_surface_euler_numbers(self):
        for m in range(1, 51):
            assert tangent_chern(hirzebruch(m)).c2.coeffs[0] == 4
        assert tangent_chern(projective_space(2)).c2.coeffs[0] == 3

    def test_invalid_models_rejected(self):
        with pytest.raises(ChowError):
            projective_space(1)
        with pytest.raises(ChowError):
            hypersurface(2, 0)
        with pytest.raises(ChowError):
            hirzebruch(0)


class TestCanonicalClass:
    def test_projective(self):
        for n in (2, 5, 9):
            assert canonical_class(projective_space(n)) == \
                projective_space(n).divisor(-(n + 1))

    def test_hirzebruch(self):
        for m in (1, 2, 7):
            assert canonical_class(hirzebruch(m)) == \
                hirzebruch(m).divisor(-2, -(m + 2))

    def test_adjunction_oracle(self):
        # K = (q - n - 2) h on a degree-q hypersurface in P^{n+1}
        assert canonical_class(hypersurface(8, 2)) == \
            hypersurface(8, 2).divisor(-8)


class TestPolarization:
    def test_defaults(self):
        assert default_polarization(projective_space(4)) == \
            projective_space(4).divisor(1)
        assert default_polarization(hypersurface(4, 3)) == \
            hypersurface(4, 3).divisor(1)
        assert default_polarization(hirzebruch(2)) == \
            hirzebruch(2).divisor(1, 3)

    def test_hirzebruch_default_is_interior(self):
        from logbg import chow
        for m in range(1, 20):
            model = hirzebruch(m)
            H = default_polarization(model)
            assert chow.degree(H * model.divisor(1, 0)) > 0
            assert chow.degree(H * model.divisor(0, 1)) > 0


class TestIsNef:
    def test_fiber_multiple_nef(self):
        for m in range(1, 51):
            assert is_nef(hirzebruch(m), hirzebruch(m).divisor(0, 2))

    def test_negative_section_not_nef(self):
        for m in range(1, 51):
            assert not is_nef(hirzebruch(m), hirzebruch(m).divisor(1, 0))

    def test_ample_multiple_nef(self):
        assert is_nef(projective_space(7), projective_space(7).divisor(4))
        assert not is_nef(projective_space(7), projective_space(7).divisor(-1))

    def test_zero_is_nef(self):
        for model in (projective_space(3), hypersurface(3, 2), hirzebruch(2)):
            assert is_nef(model, model.zero(1))

    def test_invariant_under_positive_scaling(self):
        model = hirzebruch(3)
        for coeffs in [(1, 3), (1, 2), (0, 1), (2, 5), (1, 4)]:
            divisor = model.divisor(*coeffs)
            scaled = Fraction(7, 3) * divisor
            assert is_nef(model, divisor) == is_nef(model, scaled)

    def test_wrong_grade_rejected(self):
        with pytest.raises(GradeError):
            is_nef(hirzebruch(1), hirzebruch(1).point())


class TestConstructors:
    """cycle, divisor and point take ints and Fractions only; the one
    coercion is CycleClass's.  A stored coefficient is an int, or a
    Fraction whose denominator is not 1."""

    # bool is an int subclass, but True is not the coefficient 1
    @pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", "2", True, False])
    def test_floats_and_strings_rejected(self, bad):
        P3, F2 = projective_space(3), hirzebruch(2)
        with pytest.raises(TypeError):
            P3.cycle(1, bad)
        with pytest.raises(TypeError):
            P3.divisor(bad)
        with pytest.raises(TypeError):
            P3.point(bad)
        with pytest.raises(TypeError):
            F2.divisor(1, bad)
        with pytest.raises(TypeError):
            P3.divisor(2).scale(bad)
        with pytest.raises(TypeError):
            bad * F2.divisor(1, 2)
        with pytest.raises(TypeError):
            F2.divisor(1, 2) * bad

    def test_ints_and_fractions_accepted(self):
        P3, F2 = projective_space(3), hirzebruch(2)
        assert P3.cycle(1, 2).coeffs == (2,)
        assert P3.divisor(Fraction(1, 3)).coeffs == (Fraction(1, 3),)
        assert P3.point(Fraction(-5, 2)).coeffs == (Fraction(-5, 2),)
        assert F2.divisor(1, Fraction(3, 2)).coeffs == (1, Fraction(3, 2))
        assert P3.divisor(Fraction(4, 2)).coeffs == (2,)
        classes = (P3.cycle(2, 7), F2.divisor(1, 2), P3.divisor(Fraction(4, 2)),
                   F2.divisor(Fraction(-6, 3), Fraction(1, 2)),
                   Fraction(1, 2) * P3.divisor(4), P3.divisor(3).scale(
                       Fraction(1, 2)), F2.divisor(Fraction(1, 3), 1) * 3)
        for cls in classes:
            for c in cls.coeffs:
                assert type(c) is int or (type(c) is Fraction
                                          and c.denominator != 1), cls

    def test_integral_fraction_is_the_int(self):
        for model in (projective_space(3), hypersurface(4, 2), hirzebruch(2)):
            size = model.basis_size(1)
            as_fraction = model.divisor(*[Fraction(2)] * size)
            as_int = model.divisor(*[2] * size)
            assert as_fraction == as_int
            assert hash(as_fraction) == hash(as_int)
            assert as_fraction.coeffs == (2,) * size
            assert all(type(c) is int for c in as_fraction.coeffs)


class TestCInfinity:
    def test_only_the_class_c0_plus_mf(self):
        for m in range(1, 6):
            model = hirzebruch(m)
            assert is_c_infinity(c_infinity(model))
            assert is_c_infinity(model.divisor(1, m))
            for a, b in ((1, 0), (0, 1), (1, m + 1), (2, 2 * m), (0, m)):
                assert not is_c_infinity(model.divisor(a, b))
            assert not is_c_infinity(model.cycle(2, 1))
        assert not is_c_infinity(projective_space(3).divisor(1))


class Int(int):
    """An int subclass, which CycleClass keeps as it is."""


HALF = Fraction(1, 2)


class TestIsPrimeClass:
    def test_hirzebruch_table(self):
        # Hartshorne V.2.18: the prime divisors of F_m have class C0, f,
        # or a C0 + b f with a >= 1 and b >= a m
        for m in range(1, 5):
            model = hirzebruch(m)
            for a in range(-2, 4):
                for b in range(-2, 3 * m + 3):
                    prime = (a, b) in ((1, 0), (0, 1)) or (a >= 1
                                                           and b >= a * m)
                    assert is_prime_class(model, model.divisor(a, b)) \
                        is prime, (m, a, b)
                    assert is_prime_class(
                        model, model.divisor(Int(a), Int(b))) is prime
                    for coeffs in ((a + HALF, b), (a, b + HALF),
                                   (a + HALF, b + HALF)):
                        assert not is_prime_class(
                            model, model.divisor(*coeffs)), (m, coeffs)

    @pytest.mark.parametrize("model", [
        projective_space(2), projective_space(7), hypersurface(3, 2),
        hypersurface(5, 4)], ids=["P2", "P7", "X2_in_P4", "X4_in_P6"])
    def test_picard_rank_one_table(self, model):
        # the positive multiples of the generator
        for c in range(-2, 4):
            assert is_prime_class(model, model.divisor(c)) is (c >= 1), c
            assert is_prime_class(model, model.divisor(Int(c))) is (c >= 1)
            assert not is_prime_class(model, model.divisor(c + HALF)), c
