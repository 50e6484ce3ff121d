import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import classes
from classes import intersect, iterated_pairing, split_bundle_chern
from logbg.bg import _at_rank, _pairing, full_report, reporter
from logbg.cli import main
from logbg.logchern import LogPair, hypersurface_pair, pn_pair, slope
from logbg.models import (ChowError, CycleClass, GradeError, c_infinity,
                          default_polarization, hirzebruch, hypersurface,
                          is_nef, projective_space)


def hirzebruch_boundary(m):
    model = hirzebruch(m)
    return LogPair(model, (("C0", model.divisor(1, 0)),
                           ("Cinf", c_infinity(model))))


def core_discriminant(model, r, chern, H):
    """The rank-r discriminant of (c1, c2) by the integer core, as the
    verify-paper fixtures take it at ranks other than dim X."""
    return _at_rank(r, *_pairing(model, *chern, H))


class TestDiscriminant:
    def test_split_bundle_vanishes(self):
        model = projective_space(5)
        chern = split_bundle_chern(model, 4, (3,))
        assert core_discriminant(model, 4, chern, model.divisor(1)) == 0

    def test_split_bundle_500_random_samples(self):
        rng = random.Random(20260823)
        for _ in range(500):
            family = rng.choice(["pn", "hyp", "hirzebruch"])
            r = rng.randint(1, 9)
            if family == "pn":
                model = projective_space(rng.randint(2, 9))
                B = (rng.randint(-6, 6),)
            elif family == "hyp":
                model = hypersurface(rng.randint(2, 9), rng.randint(1, 6))
                B = (rng.randint(-6, 6),)
            else:
                model = hirzebruch(rng.randint(1, 9))
                B = (rng.randint(-4, 4), rng.randint(-4, 4))
            chern = split_bundle_chern(model, r, B)
            assert core_discriminant(model, r, chern,
                                     default_polarization(model)) == 0

    def test_p2_log_hyperplane(self):
        model = projective_space(2)
        assert core_discriminant(model, 2, ((2,), 1), model.divisor(1)) == 0
        assert full_report(pn_pair(2, [1])).discriminant == 0

    def test_p2_tangent_bundle(self):
        model = projective_space(2)
        assert core_discriminant(model, 2, ((3,), 3), model.divisor(1)) == \
            Fraction(3, 4)
        assert full_report(pn_pair(2, [])).discriminant == Fraction(3, 4)


class TestReporter:
    """bg.reporter checks H and reads the tangent data once per model;
    its function reports only pairs on that model."""

    def test_refuses_a_pair_on_another_model(self):
        report = reporter(projective_space(3))
        assert report(pn_pair(3, [2, 1])) == full_report(pn_pair(3, [2, 1]))
        with pytest.raises(ChowError) as excinfo:
            report(pn_pair(4, [2, 1]))
        assert excinfo.type is ChowError
        assert str(excinfo.value) == "pair lives on P^4, not P^3"

    def test_equal_model_object_accepted(self):
        H = projective_space(3).divisor(2)
        report = reporter(projective_space(3), H)
        assert report(pn_pair(3, [1])) == full_report(pn_pair(3, [1]), H)

    def test_report_pays_once_per_model(self, tangent_calls, tmp_path):
        ambients = ({"kind": "projective_space", "n": 3},
                    {"kind": "hypersurface", "n": 4, "q": 2},
                    {"kind": "hirzebruch", "m": 2})
        classes = ({"H": 1}, {"h": 2}, {"C0": 1, "f": 2})
        pairs = [{"ambient": ambients[i % 3],
                  "divisors": [{"label": "D", "class": classes[i % 3]}]}
                 for i in range(300)]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": pairs}))
        assert main(["report", str(path), "--format", "records",
                     "--out", str(tmp_path / "out.txt")]) == 0
        assert len((tmp_path / "out.txt").read_text().splitlines()) == 300
        assert sorted(tangent_calls) == \
            ["_check_polarization"] * 3 + ["tangent_coefficients"] * 3


class TestPolarizationChecks:
    """full_report checks H before any arithmetic: a grade other than 1
    raises GradeError, then H on another model, or H not ample, raises
    ChowError itself (not a subclass); the integer pairing gives the
    values at any rank."""

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
            for H in (model.cycle(2, 1), model.cycle(0, 1),
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

    def test_non_ample_rejected(self):
        """Semistability is taken with respect to an ample H: full_report
        and slope refuse zero and negative multiples of h, and on F_m
        the nef but not ample C_inf = C0 + m f and f, and C0; every
        default polarization is taken."""
        P5, X, F3 = projective_space(5), hypersurface(4, 2), hirzebruch(3)
        cases = ((pn_pair(5, [3]), (P5.divisor(0), P5.divisor(-2))),
                 (hypersurface_pair(4, 2, 1), (X.divisor(0), X.divisor(-1))),
                 (hirzebruch_boundary(3),
                  (c_infinity(F3), F3.divisor(0, 1), F3.divisor(1, 0),
                   F3.divisor(0, 0), F3.divisor(2, 5))))
        for pair, polarizations in cases:
            model = pair.model
            for H in polarizations:
                for call in (lambda: full_report(pair, H),
                             lambda: slope(model, H, 2, H)):
                    with pytest.raises(ChowError) as excinfo:
                        call()
                    assert excinfo.type is ChowError
                    assert str(excinfo.value) == \
                        f"polarization {H} is not ample"
            H = default_polarization(model)
            assert full_report(pair, H).polarization is H
            assert slope(model, H, 1, H) > 0

    @pytest.mark.parametrize("m", (1, 2, 7, 50))
    def test_pairing_fm_rank_2_and_3(self, m):
        """The Lemma 4.4 fixture's rank-2 and rank-3 discriminants on
        (F_m, C0 + Cinf) against C0 + (m+1)f; rank 3 is not dim F_m."""
        model = hirzebruch(m)
        c1, c2 = classes.log_chern(hirzebruch_boundary(m))
        values = _pairing(model, c1, c2, model.divisor(1, m + 1))
        assert values == (0, 0)
        assert tuple(map(type, values)) == (int, int)
        for rank in (2, 3):
            value = _at_rank(rank, *values)
            assert value == 0 and type(value) is Fraction

    def test_pairing_values_and_types(self):
        """Integer values with unit, non-unit and negative H."""
        P4, F2, X = projective_space(4), hirzebruch(2), hypersurface(3, 3)
        cases = (
            (P4, (2,), 1, P4.divisor(1), (4, 1)),
            (P4, (-3,), 7, P4.divisor(-2), (36, 28)),
            (X, (1,), -2, X.divisor(2), (6, -12)),
            (F2, (1, 3), 2, F2.divisor(1, 3), (4, 2)),
            (F2, (0, 2), -1, F2.divisor(2, -1), (0, -1)),
        )
        for model, c1, c2, H, expected in cases:
            values = _pairing(model, c1, c2, H)
            assert values == expected, (model, c1, c2, H)
            assert tuple(map(type, values)) == (int, int)


@st.composite
def pairs_and_polarizations(draw):
    """A pair on P^n, a hypersurface or F_m with random components, and a
    polarization on its model with negative and zero coefficients among
    them, so not always ample (None for the default)."""
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
    size = len(model.generators)
    H = draw(st.none() | st.lists(
        st.integers(-7, 7), min_size=size,
        max_size=size).map(lambda c: model.divisor(*c)))
    return pair, H


class TestAgainstClassPipeline:
    """full_report's integer core equals the reference module: log c1
    and c2 by the pairwise formula, c1^2 by the written-out form, each
    paired with H one factor at a time, and the discriminant in its
    textbook form."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(pairs_and_polarizations())
    def test_report_matches_class_pipeline(self, pair_and_H):
        pair, H = pair_and_H
        if H is not None and not classes.is_ample(pair.model, H.coeffs):
            with pytest.raises(ChowError, match="is not ample$"):
                full_report(pair, H)
            return
        report = full_report(pair, H)
        if H is None:
            H = default_polarization(pair.model)
            assert report.polarization == H
        else:
            assert report.polarization is H
        model, h = pair.model, H.coeffs
        c1, c2 = classes.log_chern(pair)
        k = model.n - 2
        c1_sq = iterated_pairing(model, 2, (intersect(model, c1, c1),), h, k)
        c2_eval = iterated_pairing(model, 2, (c2,), h, k)
        assert (report.c1_sq, report.c2_eval) == (c1_sq, c2_eval)
        assert (type(report.c1_sq), type(report.c2_eval)) == (int, int)
        assert report.discriminant == \
            classes.discriminant(model, model.n, c1, c2, h)
        assert report.equality_n is (_at_rank(model.n, c1_sq, c2_eval) == 0)
        assert report.equality_n_plus_1 is \
            (_at_rank(model.n + 1, c1_sq, c2_eval) == 0)
        assert report.minus_k_plus_d_nef is \
            is_nef(model, model.divisor(*c1))


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
    """A report's cost in cycle classes does not grow with n or with the
    number of components: log c1, log c2 and c1^2 are integers from the
    model's intersection form, and only the default polarization is
    built."""

    def test_full_report_independent_of_n(self, cycle_calls):
        for n in (3, 100000):
            pair = pn_pair(n, [2, 1])
            cycle_calls.clear()
            full_report(pair)
            assert len(cycle_calls) == 1

    def test_cli_report_independent_of_n(self, cycle_calls, tmp_path):
        # the two component classes and the default polarization
        path = tmp_path / "pair.json"
        for n in (3, 100000):
            path.write_text(json.dumps({
                "ambient": {"kind": "projective_space", "n": n},
                "divisors": [{"label": "A", "class": {"H": 2}},
                             {"label": "B", "class": {"H": 1}}]}))
            cycle_calls.clear()
            assert main(["report", str(path),
                         "--out", str(tmp_path / "out.txt")]) == 0
            assert len(cycle_calls) == 3

    def test_full_report_independent_of_l(self, cycle_calls):
        for n, q, l in ((3, 2, 2), (160, 2, 117)):
            pair = hypersurface_pair(n, q, l)
            cycle_calls.clear()
            full_report(pair)
            assert len(cycle_calls) == 1


class TestConstructionCount:
    """A report builds no cycle class when H is given, and only the
    default polarization when it is not, at any n and any number of
    components."""

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
            H = pair.model.divisor(*(
                2 * c for c in default_polarization(pair.model).coeffs))
            cycle_calls.clear()
            full_report(pair)
            assert len(cycle_calls) == 1, pair.model
            cycle_calls.clear()
            full_report(pair, H)
            assert len(cycle_calls) == 0, pair.model

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
            report, boundary = full_report(pair), pair._boundary_coeffs()
            assert boundary == tuple(
                sum(cls.coeffs[i] for cls in pair.classes)
                for i in range(len(pair.model.generators)))
            for components in variants:
                other = LogPair(pair.model, tuple(components))
                assert full_report(other) == report, pair.model
                assert other._boundary_coeffs() == boundary, pair.model
