import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from logbg import chow
from logbg.bg import discriminant, evaluate_pair, full_report
from logbg.chow import ChowError, CycleClass, GradeError, mul
from logbg.cli import main
from logbg.logchern import LogPair, hypersurface_pair, log_chern, pn_pair
from logbg.models import (ChernData, c_infinity, default_polarization,
                          hirzebruch, hypersurface, is_nef, projective_space)


def hirzebruch_boundary(m):
    model = hirzebruch(m)
    return LogPair(model, (("C0", model.divisor(1, 0)),
                           ("Cinf", c_infinity(model))))


def split_bundle_chern(model, r, B):
    """Chern data of a direct sum of r copies of a line bundle of class B."""
    return ChernData(r, r * B, comb(r, 2) * mul(B, B))


class TestDiscriminant:
    def test_split_bundle_vanishes(self):
        model = projective_space(5)
        B = model.divisor(3)
        chern = split_bundle_chern(model, 4, B)
        assert discriminant(chern, model.divisor(1)) == 0

    def test_split_bundle_500_random_samples(self):
        rng = random.Random(20260823)
        for _ in range(500):
            family = rng.choice(["pn", "hyp", "hirzebruch"])
            r = rng.randint(1, 9)
            if family == "pn":
                model = projective_space(rng.randint(2, 9))
                B = model.divisor(rng.randint(-6, 6))
            elif family == "hyp":
                model = hypersurface(rng.randint(2, 9), rng.randint(1, 6))
                B = model.divisor(rng.randint(-6, 6))
            else:
                model = hirzebruch(rng.randint(1, 9))
                B = model.divisor(rng.randint(-4, 4), rng.randint(-4, 4))
            from logbg.models import default_polarization
            chern = split_bundle_chern(model, r, B)
            assert discriminant(chern, default_polarization(model)) == 0

    def test_p2_log_hyperplane(self):
        model = projective_space(2)
        chern = ChernData(2, model.divisor(2), model.cycle(2, 1))
        assert discriminant(chern, model.divisor(1)) == 0

    def test_p2_tangent_bundle(self):
        model = projective_space(2)
        chern = ChernData(2, model.divisor(3), model.cycle(2, 3))
        assert discriminant(chern, model.divisor(1)) == Fraction(3, 4)

    def test_grade_mismatch_rejected(self):
        model = projective_space(4)
        chern = ChernData(2, model.divisor(1), model.cycle(2, 1))
        with pytest.raises(GradeError):
            discriminant(chern, model.cycle(2, 1))


class TestPolarizationChecks:
    """full_report checks H before any arithmetic: a grade other than 1
    raises GradeError, then H on another model raises ChowError itself
    (not a subclass); evaluate_pair keeps its checks, and its values at
    any rank."""

    def pairs_and_strangers(self):
        F3 = hirzebruch(3)
        return (
            (pn_pair(4, [2, 1]), (projective_space(5).divisor(1),
                                  hypersurface(4, 1).divisor(1),
                                  hirzebruch(1).divisor(1, 2))),
            (hypersurface_pair(5, 2, 3), (hypersurface(5, 3).divisor(1),
                                          projective_space(5).divisor(1))),
            (hirzebruch_boundary(3), (hirzebruch(4).divisor(1, 5),
                                      projective_space(2).divisor(1))),
            (LogPair(F3, ()), (hirzebruch(2).divisor(1, 3),)),
        )

    def test_grade_checked_first(self):
        for pair, strangers in self.pairs_and_strangers():
            model = pair.model
            for H in (model.cycle(2, 1), model.unit(),
                      strangers[0].model.cycle(2, 1)):
                with pytest.raises(GradeError,
                                   match="^polarization must have grade 1$"):
                    full_report(pair, H)

    def test_other_model_rejected(self):
        for pair, strangers in self.pairs_and_strangers():
            for H in strangers:
                with pytest.raises(ChowError) as excinfo:
                    full_report(pair, H)
                assert excinfo.type is ChowError, (pair.model, H.model)
                assert str(excinfo.value) == \
                    "polarization lives on a different model"

    def test_evaluate_pair_checks(self):
        model = projective_space(4)
        chern = ChernData(3, model.divisor(2), model.cycle(2, 1))
        with pytest.raises(GradeError,
                           match="^polarization must have grade 1$"):
            evaluate_pair(chern, model.cycle(2, 1))
        with pytest.raises(ChowError) as excinfo:
            evaluate_pair(chern, projective_space(5).divisor(1))
        assert excinfo.type is ChowError

    @pytest.mark.parametrize("m", (1, 2, 7, 50))
    def test_evaluate_pair_fm_rank_2_and_3(self, m):
        """The Lemma 4.4 fixture's rank-2 and rank-3 discriminants on
        (F_m, C0 + Cinf) against C0 + (m+1)f; rank 3 is not dim F_m."""
        model = hirzebruch(m)
        chern = log_chern(hirzebruch_boundary(m))
        H = model.divisor(1, m + 1)
        for rank in (2, 3):
            data = ChernData(rank, chern.c1, chern.c2)
            values = evaluate_pair(data, H)
            assert values == (0, 0)
            assert tuple(map(type, values)) == (int, int)
            value = discriminant(data, H)
            assert value == 0 and type(value) is Fraction

    def test_evaluate_pair_values_and_types(self):
        """Values and types at ranks other than dim, with integral,
        Fraction and negative H, and with Fraction Chern classes whose
        square is integral."""
        P4, P2, F2 = projective_space(4), projective_space(2), hirzebruch(2)
        X = hypersurface(3, 3)
        half = Fraction(1, 2)
        cases = (
            (ChernData(3, P4.divisor(2), P4.cycle(2, 1)), P4.divisor(1),
             (4, 1)),
            (ChernData(3, P4.divisor(2), P4.cycle(2, 1)), P4.divisor(half),
             (Fraction(1), Fraction(1, 4))),
            (ChernData(5, P4.divisor(-3), P4.cycle(2, 7)), P4.divisor(-2),
             (36, 28)),
            (ChernData(4, P2.divisor(3), P2.cycle(2, 3)), P2.divisor(half),
             (Fraction(9), Fraction(3))),
            (ChernData(2, X.divisor(1), X.cycle(2, -2)), X.divisor(2),
             (6, -12)),
            (ChernData(2, X.divisor(half), X.cycle(2, half)), X.divisor(2),
             (Fraction(3, 2), Fraction(3))),
            (ChernData(3, F2.divisor(half, half), F2.cycle(2, 1)),
             F2.divisor(1, 3), (0, 1)),
            (ChernData(4, F2.divisor(1, 3), F2.cycle(2, half)),
             F2.divisor(half, -1), (4, half)),
        )
        for chern, H, expected in cases:
            values = evaluate_pair(chern, H)
            assert values == expected, (chern, H)
            assert tuple(map(type, values)) == tuple(map(type, expected)), \
                (chern, H)


@st.composite
def pairs_and_polarizations(draw):
    """A pair on P^n, a hypersurface or F_m with random components, and a
    polarization on its model with int or Fraction coefficients, negative
    ones and zero among them (None for the default)."""
    family = draw(st.sampled_from(["pn", "hyp", "fm"]))
    if family == "fm":
        m = draw(st.integers(1, 6))
        model = hirzebruch(m)
        prime = st.one_of(
            st.sampled_from([(1, 0), (0, 1)]),
            st.integers(1, 4).flatmap(lambda a: st.tuples(
                st.just(a), st.integers(a * m, a * m + 5))))
    else:
        n = draw(st.integers(2, 12))
        model = (projective_space(n) if family == "pn"
                 else hypersurface(n, draw(st.integers(1, 6))))
        prime = st.tuples(st.integers(1, 6))
    classes = draw(st.lists(prime, max_size=10))
    pair = LogPair(model, tuple((f"D{i}", model.divisor(*c))
                                for i, c in enumerate(classes)))
    coefficient = st.one_of(st.integers(-7, 7), st.fractions(
        min_value=-7, max_value=7, max_denominator=6))
    H = draw(st.none() | st.lists(
        coefficient, min_size=model.basis_size(1),
        max_size=model.basis_size(1)).map(lambda c: model.divisor(*c)))
    return pair, H


class TestAgainstClassPipeline:
    """full_report's integer pairing equals the class pipeline it
    replaced, c1 and c2 from log_chern, c1^2 by chow.mul, each paired
    with H by chow.pair_with_polarization, in value and in type."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(pairs_and_polarizations())
    def test_report_matches_class_pipeline(self, pair_and_H):
        pair, H = pair_and_H
        report = full_report(pair, H)
        if H is None:
            H = default_polarization(pair.model)
            assert report.polarization == H
        else:
            assert report.polarization is H
        chern = log_chern(pair)
        k = pair.model.dim - 2
        c1_sq = chow.pair_with_polarization(chow.mul(chern.c1, chern.c1),
                                            H, k)
        c2_eval = chow.pair_with_polarization(chern.c2, H, k)
        assert (report.c1_sq, report.c2_eval) == (c1_sq, c2_eval)
        assert (type(report.c1_sq), type(report.c2_eval)) == \
            (type(c1_sq), type(c2_eval))
        assert report.discriminant == discriminant(chern, H)
        assert report.minus_k_plus_d_nef is is_nef(pair.model, chern.c1)


class TestEqualityPredicates:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_hyperplane_pair_rank_n(self, n):
        assert full_report(pn_pair(n, [1])).equality_n

    def test_remark_tuples(self):
        assert full_report(pn_pair(7, [2, 1, 1])).equality_n_plus_1
        assert full_report(pn_pair(8, [2, 1, 1, 1])).equality_n

    def test_p2_empty_divisor_rank_n_fails(self):
        assert not full_report(pn_pair(2, [])).equality_n

    @pytest.mark.parametrize("m", range(1, 51))
    def test_hirzebruch_boundary(self, m):
        assert full_report(hirzebruch_boundary(m)).equality_n

    @pytest.mark.parametrize("n", range(2, 13))
    def test_empty_divisor_rank_n_plus_1(self, n):
        # C(n+1,2) - n/(2(n+1)) * (n+1)^2 = 0 identically
        assert comb(n + 1, 2) - Fraction(n, 2 * (n + 1)) * (n + 1) ** 2 == 0
        assert full_report(pn_pair(n, [])).equality_n_plus_1


class TestFullReport:
    def test_hirzebruch_fixture(self):
        for m in (1, 5, 50):
            report = full_report(hirzebruch_boundary(m))
            assert report.c1_sq == 0
            assert report.c2_eval == 0
            assert report.discriminant == 0
            assert report.equality_n and report.equality_n_plus_1
            assert report.minus_k_plus_d_nef

    def test_projective_hyperplane_fields(self):
        for n in (2, 7, 12):
            report = full_report(pn_pair(n, [1]))
            assert report.c1_sq == n * n
            assert report.c2_eval == Fraction(n * (n - 1), 2)
            assert report.equality_n
            assert report.minus_k_plus_d_nef

    def test_quartic_curve_not_nef(self):
        report = full_report(pn_pair(2, [4]))
        assert not report.minus_k_plus_d_nef

    def test_discriminant_identity(self):
        for pair in (pn_pair(7, [2, 1, 1]), pn_pair(3, []),
                     hirzebruch_boundary(2)):
            report = full_report(pair)
            r = report.rank
            assert report.discriminant == \
                report.c2_eval - Fraction(r - 1, 2 * r) * report.c1_sq

    def test_coefficient_monotonicity(self):
        # rank n+1 discriminant <= rank n discriminant when c1_sq >= 0,
        # equality only at c1_sq = 0
        for pair in (pn_pair(7, [2, 1, 1]), pn_pair(5, [1, 1]),
                     hirzebruch_boundary(3)):
            report = full_report(pair)
            n = report.rank
            at_n = report.c2_eval - Fraction(n - 1, 2 * n) * report.c1_sq
            at_n1 = report.c2_eval - Fraction(n, 2 * (n + 1)) * report.c1_sq
            assert report.c1_sq >= 0
            assert at_n1 <= at_n
            assert (at_n1 == at_n) == (report.c1_sq == 0)

    def test_both_equalities_force_c1_sq_zero(self):
        report = full_report(hirzebruch_boundary(4))
        assert report.equality_n and report.equality_n_plus_1
        assert report.c1_sq == 0

    def test_polarization_scaling_preserves_flags(self):
        pair = pn_pair(7, [2, 1, 1])
        model = pair.model
        base = full_report(pair, model.divisor(1))
        for t in (2, 3, 5):
            scaled = full_report(pair, model.divisor(t))
            assert scaled.c1_sq == t ** 5 * base.c1_sq
            assert scaled.c2_eval == t ** 5 * base.c2_eval
            assert scaled.equality_n == base.equality_n
            assert scaled.equality_n_plus_1 == base.equality_n_plus_1

    def test_deterministic_serialization(self):
        from logbg.serialize import Echoes, report_record
        pair = pn_pair(8, [2, 1, 1, 1])
        first = report_record(pair, full_report(pair), Echoes())
        second = report_record(pair, full_report(pair), Echoes())
        assert first == second
        assert json.loads(first)["rank"] == 8


class TestProductCount:
    """A report takes no chow.mul, at any n and any number of
    components: log c1, log c2 and c1^2 are integers from the model's
    intersection form."""

    def test_full_report_independent_of_n(self, mul_calls):
        for n in (3, 100000):
            mul_calls.clear()
            full_report(pn_pair(n, [2, 1]))
            assert len(mul_calls) == 0

    def test_cli_report_independent_of_n(self, mul_calls, tmp_path):
        path = tmp_path / "pair.json"
        for n in (3, 100000):
            path.write_text(json.dumps({
                "ambient": {"kind": "projective_space", "n": n},
                "divisors": [{"label": "A", "class": {"H": 2}},
                             {"label": "B", "class": {"H": 1}}]}))
            mul_calls.clear()
            assert main(["report", str(path),
                         "--out", str(tmp_path / "out.txt")]) == 0
            assert len(mul_calls) == 0

    def test_full_report_independent_of_l(self, mul_calls):
        for n, q, l in ((3, 2, 2), (160, 2, 117)):
            mul_calls.clear()
            full_report(hypersurface_pair(n, q, l))
            assert len(mul_calls) == 0


class TestConstructionCount:
    """A report builds no cycle class when H is given, and only the
    default polarization when it is not, at any n and any number of
    components; log_chern reads the tangent data as integers and builds
    only c1 and c2."""

    def pairs(self):
        F3 = hirzebruch(3)
        many_fm = LogPair(F3, tuple((f"D{i}", F3.divisor(1, 3 + i % 4))
                                    for i in range(40)))
        return (pn_pair(3, []), pn_pair(3, [2, 1]), pn_pair(100000, [2, 1]),
                pn_pair(30, [1] * 31), pn_pair(12, range(12, 0, -1)),
                hypersurface_pair(3, 2, 2), hypersurface_pair(160, 2, 117),
                hirzebruch_boundary(2), many_fm)

    def test_full_report_builds_only_default_polarization(self, cycle_calls):
        for pair in self.pairs():
            H = pair.model.divisor(*(2,) * pair.model.basis_size(1))
            cycle_calls.clear()
            full_report(pair)
            assert len(cycle_calls) == 1, pair.model
            cycle_calls.clear()
            full_report(pair, H)
            assert len(cycle_calls) == 0, pair.model

    def test_log_chern_builds_c1_and_c2_only(self, cycle_calls, monkeypatch):
        from logbg import logchern, models

        def refuse(model):
            raise AssertionError("log_chern called tangent_chern")

        monkeypatch.setattr(models, "tangent_chern", refuse)
        monkeypatch.setattr(logchern, "tangent_chern", refuse, raising=False)
        for pair in self.pairs():
            cycle_calls.clear()
            log_chern(pair)
            assert len(cycle_calls) == 2, pair.model

    def test_counts_independent_of_l(self, cycle_calls, monkeypatch):
        """pn_pair builds one class per distinct degree, and a pair runs
        is_prime_class once per distinct class object, for any l."""
        from logbg import logchern

        prime_calls = []
        real_is_prime_class = logchern.is_prime_class

        def counting_is_prime_class(model, cls):
            prime_calls.append(1)
            return real_is_prime_class(model, cls)

        monkeypatch.setattr(logchern, "is_prime_class",
                            counting_is_prime_class)
        for l in (1, 117, 1000):
            cycle_calls.clear()
            prime_calls.clear()
            pn_pair(30, [2] * l + [1] * l)
            assert (len(cycle_calls), len(prime_calls)) == (2, 2), l
            cycle_calls.clear()
            prime_calls.clear()
            hypersurface_pair(160, 2, l)
            assert (len(cycle_calls), len(prime_calls)) == (1, 1), l

    def test_sharing_leaves_reports_unchanged(self):
        """A fresh class object per component and one shared object per
        coefficient tuple give the report and boundary of the pair as
        built, and its boundary is the sum of its classes."""
        for pair in self.pairs():
            shared = {}
            variants = (
                [(label, CycleClass(cls.model, cls.grade, cls.coeffs))
                 for label, cls in pair.components],
                [(label, shared.setdefault(cls.coeffs, cls))
                 for label, cls in pair.components])
            report, boundary = full_report(pair), pair.boundary()
            assert boundary == sum(pair.classes, pair.model.zero(1))
            for components in variants:
                other = LogPair(pair.model, tuple(components))
                assert full_report(other) == report, pair.model
                assert other.boundary() == boundary, pair.model
