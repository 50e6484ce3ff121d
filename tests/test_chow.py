"""Intersection numbers: the models' form on coefficient tuples, and the
closed-form pairings of slope and bg._pairing, and bg._numerator,
against the iterated products of the reference module."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import classes
from classes import intersect, iterated_pairing
from logbg.bg import _numerator, _pairing
from logbg.logchern import slope
from logbg.models import (ChowError, hirzebruch, hypersurface,
                          projective_space)

F2 = hirzebruch(2)
C0, F = (1, 0), (0, 1)  # the basis divisors of F_m


class TestMul:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_intersection_matrix(self, m):
        model = hirzebruch(m)
        matrix = [[model.q * model.intersect(a, b) for b in (C0, F)]
                  for a in (C0, F)]
        assert matrix == [[-m, 1], [1, 0]]

    def test_c1_relative_times_pullback(self):
        m = 4
        assert hirzebruch(m).intersect((2, m), (0, 2)) == 4

    def test_fiber_square_vanishes(self):
        assert F2.intersect((0, 2), (0, 2)) == 0


class TestDegree:
    """deg(D . H^{n-1}) is slope's pairing at rank 1."""

    def test_point_class_normalization(self):
        for n in range(2, 8):
            model = projective_space(n)
            H = model.divisor(1)
            assert slope(model, H, 1, H) == 1

    def test_bezout_on_quadric(self):
        # 7 generic hyperplane sections of a quadric in P^8 meet in 2 points
        model = hypersurface(7, 2)
        h = model.divisor(1)
        assert slope(model, h, 1, h) == 2

    def test_extremal_pairing(self):
        k_plus_d = (0, -2)
        assert hirzebruch(3).intersect(k_plus_d, C0) == -2


class TestPairing:
    """bg._pairing gives (c1^2 . H^{n-2}, c2 . H^{n-2})."""

    def test_projective_identity(self):
        for n in range(2, 8):
            model = projective_space(n)
            assert _pairing(model, (0,), 5, model.divisor(1)) == (0, 5)

    def test_hypersurface_scaling(self):
        model = hypersurface(6, 3)
        assert _pairing(model, (0,), 7, model.divisor(1)) == (0, 21)

    def test_surface_identity_pairing(self):
        assert _pairing(F2, (0, 0), -3, F2.divisor(1, 3)) == (0, -3)


integers = st.integers(-20, 20)


@st.composite
def pairing_inputs(draw):
    """(model, c1, c2, H) on any family, with non-unit and negative
    coefficients in c1, c2 and H."""
    family = draw(st.sampled_from(["pn", "hyp", "fm"]))
    if family == "fm":
        model = hirzebruch(draw(st.integers(1, 6)))
    elif family == "pn":
        model = projective_space(draw(st.integers(2, 12)))
    else:
        model = hypersurface(draw(st.integers(2, 12)), draw(st.integers(1, 6)))
    size = len(model.generators)
    c1, H = (tuple(draw(st.lists(integers, min_size=size, max_size=size)))
             for _ in range(2))
    return model, c1, draw(integers), H


class TestClosedFormPairing:
    @given(pairing_inputs(), st.integers(1, 12))
    def test_matches_iterated_products(self, inputs, rank):
        model, c1, c2, H = inputs
        n = model.n
        if classes.is_ample(model, H):
            assert slope(model, model.divisor(*c1), rank,
                         model.divisor(*H)) == \
                Fraction(iterated_pairing(model, 1, c1, H, n - 1), rank)
        else:
            with pytest.raises(ChowError, match="is not ample$"):
                slope(model, model.divisor(*c1), rank, model.divisor(*H))
        pairing = _pairing(model, c1, c2, model.divisor(*H))
        assert pairing == (
            iterated_pairing(model, 2, (intersect(model, c1, c1),), H, n - 2),
            iterated_pairing(model, 2, (c2,), H, n - 2))
        # the integer numerator N_r is the discriminant times 2r
        assert Fraction(_numerator(rank, *pairing), 2 * rank) == \
            classes.discriminant(model, rank, c1, c2, H)

    def test_non_unit_polarization(self):
        model = hypersurface(9, 3)
        assert _pairing(model, (0,), -5, model.divisor(3))[1] == \
            iterated_pairing(model, 2, (-5,), (3,), 7) == 3 * -5 * 3 ** 7


def test_reference_imports_only_model_constructors():
    """tests/classes.py stays independent of the integer core it checks:
    from logbg it may import the model constructors and nothing else."""
    constructors = {"projective_space", "hypersurface", "hirzebruch"}
    tree = ast.parse(Path(classes.__file__).read_text(), classes.__file__)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            assert not any(name.split(".")[0] == "logbg" for name in names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "no relative imports"
            if node.module.split(".")[0] == "logbg":
                assert node.module in ("logbg", "logbg.models")
                assert {alias.name for alias in node.names} <= constructors
        elif isinstance(node, ast.Name):
            assert node.id not in ("__import__", "importlib")
