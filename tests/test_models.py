import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import logbg
from classes import tangent_series_oracle
from logbg.logchern import hypersurface_pair
from logbg.models import (AmbientModel, ChowError, GradeError, c_infinity,
                          default_polarization, hirzebruch, hypersurface,
                          is_c_infinity, is_nef, is_prime_class,
                          projective_space, tangent_coefficients)


class TestTangentChern:
    """The tangent bundle's c1 coefficients and c2, as integers."""

    def test_p7(self):
        assert tangent_coefficients(projective_space(7)) == ((8,), 28)

    def test_quadric_sevenfold(self):
        assert tangent_coefficients(hypersurface(7, 2))[1] == \
            36 - 18 + 4 == 22

    def test_f3(self):
        assert tangent_coefficients(hirzebruch(3)) == ((2, 5), 4)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("q", range(1, 13))
    def test_series_division_oracle(self, n, q):
        (c1,), c2 = tangent_coefficients(hypersurface(n, q))
        assert (c1, c2) == tangent_series_oracle(n, q)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_degree_one_hypersurface_matches_projective_space(self, n):
        assert tangent_coefficients(hypersurface(n, 1)) == \
            tangent_coefficients(projective_space(n))

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
        data = tangent_coefficients(model)
        assert data == (c1, c2)
        assert all(type(c) is int for c in data[0] + (data[1],))

    def test_surface_euler_numbers(self):
        for m in range(1, 51):
            assert tangent_coefficients(hirzebruch(m))[1] == 4
        assert tangent_coefficients(projective_space(2))[1] == 3

    def test_invalid_models_rejected(self):
        with pytest.raises(ChowError):
            projective_space(1)
        with pytest.raises(ChowError):
            hypersurface(2, 0)
        with pytest.raises(ChowError):
            hirzebruch(0)


def canonical(model):
    """The coefficients of K = -c1(T)."""
    return tuple(-c for c in tangent_coefficients(model)[0])


class TestCanonicalClass:
    def test_projective(self):
        for n in (2, 5, 9):
            assert canonical(projective_space(n)) == (-(n + 1),)

    def test_hirzebruch(self):
        for m in (1, 2, 7):
            assert canonical(hirzebruch(m)) == (-2, -(m + 2))

    def test_adjunction_oracle(self):
        # K = (q - n - 2) h on a degree-q hypersurface in P^{n+1}
        assert canonical(hypersurface(8, 2)) == (-8,)


class TestPolarization:
    def test_defaults(self):
        assert default_polarization(projective_space(4)) == \
            projective_space(4).divisor(1)
        assert default_polarization(hypersurface(4, 3)) == \
            hypersurface(4, 3).divisor(1)
        assert default_polarization(hirzebruch(2)) == \
            hirzebruch(2).divisor(1, 3)

    def test_hirzebruch_default_is_interior(self):
        for m in range(1, 20):
            model = hirzebruch(m)
            H = default_polarization(model).coeffs
            assert model.intersect(H, (1, 0)) > 0
            assert model.intersect(H, (0, 1)) > 0


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
            assert is_nef(model, model.divisor(*(0,) * len(model.generators)))

    def test_invariant_under_positive_scaling(self):
        model = hirzebruch(3)
        for coeffs in [(1, 3), (1, 2), (0, 1), (2, 5), (1, 4)]:
            divisor = model.divisor(*coeffs)
            scaled = model.divisor(*(7 * c for c in coeffs))
            assert is_nef(model, divisor) == is_nef(model, scaled)

    def test_wrong_grade_rejected(self):
        with pytest.raises(GradeError):
            is_nef(hirzebruch(1), hirzebruch(1).cycle(2, 1))

    def test_divisor_from_another_model_rejected(self):
        for model, other in ((projective_space(3), hypersurface(3, 2)),
                             (hirzebruch(2), hirzebruch(3)),
                             (projective_space(3), projective_space(4))):
            with pytest.raises(ChowError,
                               match="^divisor does not live on this model$"):
                is_nef(model, other.divisor(*(1,) * len(model.generators)))


class Int(int):
    """An int subclass: not an int coefficient."""


class TestConstructors:
    """cycle and divisor take ints only: CycleClass raises TypeError on any
    coefficient whose type is not exactly int, integral Fractions too."""

    # bool is an int subclass, but True is not the coefficient 1
    @pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", "2", True, False, 1.0,
                                     Fraction(1, 3), Fraction(4, 2), Int(1)])
    def test_floats_and_strings_rejected(self, bad):
        P3, F2 = projective_space(3), hirzebruch(2)
        with pytest.raises(TypeError):
            P3.cycle(1, bad)
        with pytest.raises(TypeError):
            P3.divisor(bad)
        with pytest.raises(TypeError):
            P3.cycle(3, bad)
        with pytest.raises(TypeError):
            F2.divisor(1, bad)

    @pytest.mark.parametrize("grade", [-1, 4, 10])
    def test_grade_out_of_range_rejected(self, grade):
        P3 = projective_space(3)
        with pytest.raises(GradeError,
                           match=f"^grade {grade} out of range for P\\^3$"):
            P3.cycle(grade, 1)
        with pytest.raises(GradeError, match="out of range for F_2$"):
            hirzebruch(2).cycle(3, 1)

    def test_ints_accepted(self):
        P3, F2 = projective_space(3), hirzebruch(2)
        assert P3.cycle(1, 2).coeffs == (2,)
        assert P3.cycle(3, -5).coeffs == (-5,)
        assert F2.divisor(1, -3).coeffs == (1, -3)
        assert F2.cycle(2, 4).coeffs == (4,)


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

    def test_only_on_a_hirzebruch_surface(self):
        for model in (projective_space(3), hypersurface(4, 2)):
            with pytest.raises(
                    ChowError,
                    match="^C_inf only exists on a Hirzebruch surface$"):
                c_infinity(model)


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

    @pytest.mark.parametrize("model", [
        projective_space(2), projective_space(7), hypersurface(3, 2),
        hypersurface(5, 4)], ids=["P2", "P7", "X2_in_P4", "X4_in_P6"])
    def test_picard_rank_one_table(self, model):
        # the positive multiples of the generator
        for c in range(-2, 4):
            assert is_prime_class(model, model.divisor(c)) is (c >= 1), c


class TestBuildersTakeInts:
    """The model builders and hypersurface_pair refuse any parameter whose
    type is not exactly int, as CycleClass refuses such coefficients:
    True equals 1, and built F_True and a one-component pair."""

    @pytest.mark.parametrize("bad", [3.0, True, Fraction(3), Int(3), "3"])
    @pytest.mark.parametrize("build", [
        projective_space, hirzebruch,
        lambda x: hypersurface(x, 2), lambda x: hypersurface(3, x),
        lambda x: hypersurface_pair(x, 2, 1),
        lambda x: hypersurface_pair(5, x, 1),
        lambda x: hypersurface_pair(5, 2, x)],
        ids=["P^n", "F_m", "X n", "X q", "pair n", "pair q", "pair l"])
    def test_non_ints_rejected(self, build, bad):
        with pytest.raises(TypeError, match="needs (an )?int|must be int"):
            build(bad)


class TestAmbientModelChecks:
    """AmbientModel(...) refuses what the builders refuse, with their
    exception types and messages, and every value of a parameter that
    its family fixes (q = 1 and m = 0 on P^n, m = 0 on a hypersurface,
    n = 2 and q = 1 on F_m) but that one int."""

    @pytest.mark.parametrize("args, kwargs, error, text", [
        (("projective_space", 1), {"q": 5, "m": 7}, ChowError,
         "projective space needs n >= 2, got 1"),
        (("projective_space", 3.0), {}, TypeError,
         "projective space needs an int n, got float"),
        (("projective_space", True), {}, TypeError,
         "projective space needs an int n, got bool"),
        (("projective_space", 3), {"q": 5}, ChowError,
         "projective space needs q = 1, got 5"),
        (("projective_space", 3), {"q": True}, ChowError,
         "projective space needs q = 1, got True"),
        (("projective_space", 3), {"m": 7}, ChowError,
         "projective space needs m = 0, got 7"),
        (("projective_space", 3), {"m": 0.0}, ChowError,
         "projective space needs m = 0, got 0.0"),
        (("hypersurface", 1, 2), {}, ChowError,
         "hypersurface needs n >= 2 and q >= 1, got (1, 2)"),
        (("hypersurface", 3, 0), {}, ChowError,
         "hypersurface needs n >= 2 and q >= 1, got (3, 0)"),
        (("hypersurface", 3, 2.0), {}, TypeError,
         "hypersurface needs int n and q, got (int, float)"),
        (("hypersurface", 3, 2), {"m": 1}, ChowError,
         "hypersurface needs m = 0, got 1"),
        (("hirzebruch", 5), {"m": 2}, ChowError,
         "Hirzebruch surface needs n = 2, got 5"),
        (("hirzebruch", 2.0), {"m": 2}, ChowError,
         "Hirzebruch surface needs n = 2, got 2.0"),
        (("hirzebruch", 2, 3), {"m": 2}, ChowError,
         "Hirzebruch surface needs q = 1, got 3"),
        (("hirzebruch", 2), {}, ChowError,
         "Hirzebruch surface needs m >= 1, got 0"),
        (("hirzebruch", 2), {"m": Fraction(2)}, TypeError,
         "Hirzebruch surface needs an int m, got Fraction"),
        (("P^3", 3), {}, ChowError, "unknown model kind 'P^3'"),
        ((None, 3), {}, ChowError, "unknown model kind None"),
        ((["hirzebruch"], 2), {"m": 1}, ChowError,
         "unknown model kind ['hirzebruch']"),
    ])
    def test_refused(self, args, kwargs, error, text):
        with pytest.raises(error) as excinfo:
            AmbientModel(*args, **kwargs)
        assert excinfo.type is error
        assert str(excinfo.value) == text

    @pytest.mark.parametrize("build, construct", [
        (lambda: projective_space(1),
         lambda: AmbientModel("projective_space", 1)),
        (lambda: projective_space(3.0),
         lambda: AmbientModel("projective_space", 3.0)),
        (lambda: hypersurface(3, 0),
         lambda: AmbientModel("hypersurface", 3, 0)),
        (lambda: hypersurface(True, 2),
         lambda: AmbientModel("hypersurface", True, 2)),
        (lambda: hirzebruch(0), lambda: AmbientModel("hirzebruch", 2, m=0)),
        (lambda: hirzebruch(True),
         lambda: AmbientModel("hirzebruch", 2, m=True))])
    def test_builders_refuse_as_the_constructor(self, build, construct):
        errors = []
        for call in (build, construct):
            with pytest.raises((ChowError, TypeError)) as excinfo:
                call()
            errors.append((excinfo.type, str(excinfo.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("model", [
        projective_space(4), hypersurface(5, 3), hirzebruch(2)],
        ids=["P^4", "X_3", "F_2"])
    def test_pickle_and_copy_round_trip(self, model):
        for twin in (pickle.loads(pickle.dumps(model)), copy.copy(model),
                     copy.deepcopy(model)):
            assert type(twin) is AmbientModel
            assert twin == model and hash(twin) == hash(model)
            assert str(twin) == str(model)
            assert twin.generators == model.generators


def _imports(tree: ast.AST) -> list[str]:
    """The absolute module names a module's import statements name, with
    a relative `from . import x` and `from .x import y` read inside
    logbg."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "logbg" if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            names.append(module)
            names += [f"{module}.{alias.name}" for alias in node.names]
    return names


SOURCES = sorted(Path(logbg.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


class TestStructure:
    """The class layer lives in models.py, which depends on no other
    module of the package; nothing imports by TYPE_CHECKING, and no
    chow module exists or is imported."""

    def test_models_imports_no_other_logbg_module(self):
        path = Path(logbg.__file__).parent / "models.py"
        for name in _imports(ast.parse(path.read_text(), str(path))):
            assert name.split(".")[0] != "logbg", name

    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def test_no_type_checking_imports(self, path):
        # Name.id, Attribute.attr and the alias.name of an import
        names = {getattr(node, field, None)
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 for field in ("id", "attr", "name")}
        assert "TYPE_CHECKING" not in names

    @pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
    def test_no_chow_module_imported(self, path):
        for name in _imports(ast.parse(path.read_text(), str(path))):
            assert "chow" not in name.split("."), name

    def test_no_chow_module(self):
        assert not (Path(logbg.__file__).parent / "chow.py").exists()
