import json
import random
from fractions import Fraction
from math import comb

import pytest

from logbg.bg import (check_equality_n, check_equality_n_plus_1, discriminant,
                      full_report)
from logbg.chow import GradeError, mul
from logbg.cli import main
from logbg.logchern import LogPair, hypersurface_pair, log_chern, pn_pair
from logbg.models import (ChernData, c_infinity, hirzebruch, hypersurface,
                          projective_space)


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


class TestEqualityPredicates:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_hyperplane_pair_rank_n(self, n):
        assert check_equality_n(pn_pair(n, [1]))

    def test_remark_tuples(self):
        assert check_equality_n_plus_1(pn_pair(7, [2, 1, 1]))
        assert check_equality_n(pn_pair(8, [2, 1, 1, 1]))

    def test_p2_empty_divisor_rank_n_fails(self):
        assert not check_equality_n(pn_pair(2, []))

    @pytest.mark.parametrize("m", range(1, 51))
    def test_hirzebruch_boundary(self, m):
        assert check_equality_n(hirzebruch_boundary(m))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_empty_divisor_rank_n_plus_1(self, n):
        # C(n+1,2) - n/(2(n+1)) * (n+1)^2 = 0 identically
        assert comb(n + 1, 2) - Fraction(n, 2 * (n + 1)) * (n + 1) ** 2 == 0
        assert check_equality_n_plus_1(pn_pair(n, []))


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
        from logbg.serialize import dump_record, report_record
        pair = pn_pair(8, [2, 1, 1, 1])
        first = dump_record(report_record(pair, full_report(pair)))
        second = dump_record(report_record(pair, full_report(pair)))
        assert first == second


class TestProductCount:
    """The products behind one report do not grow with n or with the
    number of components: log_chern takes none, and the report takes
    one, c1^2."""

    def test_full_report_independent_of_n(self, mul_calls):
        for n in (3, 100000):
            mul_calls.clear()
            full_report(pn_pair(n, [2, 1]))
            assert len(mul_calls) == 1

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
            assert len(mul_calls) == 1

    def test_full_report_independent_of_l(self, mul_calls):
        for n, q, l in ((3, 2, 2), (160, 2, 117)):
            mul_calls.clear()
            full_report(hypersurface_pair(n, q, l))
            assert len(mul_calls) == 1


class TestConstructionCount:
    """A report builds at most four cycle classes, log c1, log c2, the
    polarization H and c1^2, at any n and any number of components;
    log_chern reads the tangent data as integers and builds only c1 and
    c2."""

    def pairs(self):
        F3 = hirzebruch(3)
        many_fm = LogPair(F3, tuple((f"D{i}", F3.divisor(1, 3 + i % 4))
                                    for i in range(40)))
        return (pn_pair(3, []), pn_pair(3, [2, 1]), pn_pair(100000, [2, 1]),
                pn_pair(30, [1] * 31), pn_pair(12, range(12, 0, -1)),
                hypersurface_pair(3, 2, 2), hypersurface_pair(160, 2, 117),
                hirzebruch_boundary(2), many_fm)

    def test_full_report_builds_at_most_four(self, cycle_calls):
        for pair in self.pairs():
            cycle_calls.clear()
            full_report(pair)
            assert len(cycle_calls) <= 4, pair.model

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
