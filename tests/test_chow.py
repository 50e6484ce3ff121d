from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from logbg import chow
from logbg.chow import GradeError, ModelMismatchError
from logbg.models import hirzebruch, hypersurface, projective_space

F2 = hirzebruch(2)
P7 = projective_space(7)


class TestAdd:
    def test_hirzebruch_boundary_sum(self):
        m = 3
        model = hirzebruch(m)
        total = model.divisor(2, m) + model.divisor(0, 2)
        assert total == model.divisor(2, m + 2)

    def test_zero_plus_zero(self):
        z = P7.zero(1)
        assert (z + z).is_zero()

    def test_integer_addition_rank_one(self):
        assert P7.divisor(2) + P7.divisor(1) == P7.divisor(3)

    def test_model_mismatch_rejected(self):
        with pytest.raises(ModelMismatchError):
            P7.divisor(1) + projective_space(8).divisor(1)

    def test_grade_mismatch_rejected(self):
        with pytest.raises(GradeError):
            P7.divisor(1) + P7.cycle(2, 1)


class TestMul:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_intersection_matrix(self, m):
        model = hirzebruch(m)
        C0, f = model.divisor(1, 0), model.divisor(0, 1)
        matrix = [[chow.degree(a * b) for b in (C0, f)] for a in (C0, f)]
        assert matrix == [[-m, 1], [1, 0]]

    def test_c1_relative_times_pullback(self):
        m = 4
        model = hirzebruch(m)
        assert model.divisor(2, m) * model.divisor(0, 2) == model.point(4)

    def test_fiber_square_vanishes(self):
        two_f = F2.divisor(0, 2)
        assert (two_f * two_f).is_zero()

    def test_grade_overflow_rejected(self):
        with pytest.raises(GradeError):
            F2.point() * F2.divisor(1, 0)

    def test_monomial_truncation(self):
        h2 = P7.divisor(1) * P7.divisor(1)
        assert h2 == P7.cycle(2, 1)
        with pytest.raises(GradeError):
            P7.cycle(4, 1) * P7.cycle(4, 1)


class TestDegree:
    def test_point_class_normalization(self):
        for n in range(2, 8):
            model = projective_space(n)
            assert chow.degree(model.divisor(1) ** n) == 1

    def test_bezout_on_quadric(self):
        # 7 generic hyperplane sections of a quadric in P^8 meet in 2 points
        model = hypersurface(7, 2)
        assert chow.degree(model.divisor(1) ** 7) == 2

    def test_extremal_pairing(self):
        model = hirzebruch(3)
        k_plus_d = model.divisor(0, -2)
        assert chow.degree(k_plus_d * model.divisor(1, 0)) == -2

    def test_wrong_grade_rejected(self):
        with pytest.raises(GradeError):
            chow.degree(P7.divisor(1))


class TestPairing:
    def test_projective_identity(self):
        for n in range(2, 8):
            model = projective_space(n)
            a = model.cycle(2, Fraction(5, 3))
            assert chow.pair_with_polarization(
                a, model.divisor(1), n - 2) == Fraction(5, 3)

    def test_hypersurface_scaling(self):
        model = hypersurface(6, 3)
        a = model.cycle(2, 7)
        assert chow.pair_with_polarization(a, model.divisor(1), 4) == 21

    def test_surface_identity_pairing(self):
        a = F2.point(Fraction(-3, 2))
        assert chow.pair_with_polarization(
            a, F2.divisor(1, 3), 0) == Fraction(-3, 2)

    def test_grade_mismatch_rejected(self):
        with pytest.raises(GradeError):
            chow.pair_with_polarization(P7.cycle(2, 1), P7.divisor(1), 3)

    @pytest.mark.parametrize("model, H", [
        (P7, hypersurface(7, 2).divisor(1)),
        (hirzebruch(1), F2.divisor(1, 3))])
    def test_model_mismatch_rejected_at_every_k(self, model, H):
        for grade in range(model.dim + 1):
            a = model.cycle(grade, *(3,) * model.basis_size(grade))
            with pytest.raises(ModelMismatchError):
                chow.pair_with_polarization(a, H, model.dim - grade)


def iterated_pairing(a, H, k):
    """deg(a . H^k) with one product per factor of H: the oracle for the
    closed form of pair_with_polarization."""
    result = a
    for _ in range(k):
        result = chow.mul(result, H)
    return chow.degree(result)


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12)


def hirzebruch_divisors(model):
    return st.tuples(rationals, rationals).map(
        lambda c: model.divisor(*c))


class TestAlgebraicProperties:
    @given(a=st.tuples(rationals, rationals), b=st.tuples(rationals, rationals))
    def test_mul_commutative_on_hirzebruch(self, a, b):
        assert F2.divisor(*a) * F2.divisor(*b) == F2.divisor(*b) * F2.divisor(*a)

    @given(a=rationals, b=rationals, c=rationals)
    def test_mul_associative_rank_one(self, a, b, c):
        model = projective_space(5)
        x, y, z = model.divisor(a), model.divisor(b), model.divisor(c)
        assert (x * y) * z == x * (y * z)

    @given(t=rationals, a=st.tuples(rationals, rationals),
           b=st.tuples(rationals, rationals))
    def test_bilinearity(self, t, a, b):
        x, y = F2.divisor(*a), F2.divisor(*b)
        assert (t * x) * y == t * (x * y)
        assert (x + y) * y == x * y + y * y

    @given(a=st.tuples(rationals, rationals), b=st.tuples(rationals, rationals))
    def test_degree_symmetric(self, a, b):
        x, y = F2.divisor(*a), F2.divisor(*b)
        assert chow.degree(x * y) == chow.degree(y * x)

    @given(a=rationals, b=rationals)
    def test_degree_linear(self, a, b):
        x, y = F2.point(a), F2.point(b)
        assert chow.degree(x + y) == chow.degree(x) + chow.degree(y)

    @given(a=st.tuples(rationals, rationals))
    def test_canonical_form(self, a):
        cls = F2.divisor(*a) * F2.divisor(1, 1)
        for c in cls.coeffs:
            assert c.denominator > 0
            from math import gcd
            assert gcd(abs(c.numerator), c.denominator) == 1


@st.composite
def pairing_inputs(draw):
    """(a, H, k) on any family, at any grade, with non-unit and negative
    coefficients in both a and H."""
    family = draw(st.sampled_from(["pn", "hyp", "fm"]))
    if family == "fm":
        model = hirzebruch(draw(st.integers(1, 6)))
    elif family == "pn":
        model = projective_space(draw(st.integers(2, 12)))
    else:
        model = hypersurface(draw(st.integers(2, 12)), draw(st.integers(1, 6)))
    grade = draw(st.integers(0, model.dim))
    coeffs = draw(st.lists(rationals, min_size=model.basis_size(grade),
                           max_size=model.basis_size(grade)))
    H = model.divisor(*draw(st.lists(rationals, min_size=model.basis_size(1),
                                     max_size=model.basis_size(1))))
    return model.cycle(grade, *coeffs), H, model.dim - grade


class TestClosedFormPairing:
    @given(pairing_inputs())
    def test_matches_iterated_products(self, inputs):
        a, H, k = inputs
        assert chow.pair_with_polarization(a, H, k) == iterated_pairing(a, H, k)

    def test_non_unit_polarization(self):
        model = hypersurface(9, 3)
        a, H = model.cycle(2, Fraction(-5, 2)), model.divisor(3)
        assert chow.pair_with_polarization(a, H, 7) == \
            iterated_pairing(a, H, 7) == 3 * Fraction(-5, 2) * 3 ** 7
