import itertools
import pickle
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from logbg import chow
from logbg.bg import discriminant, full_report
from logbg.chow import ChowError, Value
from logbg.logchern import (LogPair, hypersurface_pair, log_c1, log_c2,
                            log_chern, pn_pair, slope, wedge_cotangent_slope)
from logbg.models import (ChernData, c_infinity, default_polarization,
                          hirzebruch, hypersurface, projective_space,
                          tangent_chern)
from logbg.search import DEFAULT_BOUNDS, EqualityCase, report_modes
from logbg.serialize import (Echoes, bounds_fields, case_record,
                             report_record)


def hirzebruch_boundary(m):
    model = hirzebruch(m)
    return LogPair(model, (("C0", model.divisor(1, 0)),
                           ("Cinf", c_infinity(model))))


class TestLogPairValidation:
    def test_duplicate_labels_rejected(self):
        model = projective_space(3)
        with pytest.raises(ChowError):
            LogPair(model, (("D", model.divisor(1)), ("D", model.divisor(2))))

    def test_non_effective_rejected(self):
        model = projective_space(3)
        with pytest.raises(ChowError):
            LogPair(model, (("D", model.divisor(0)),))
        with pytest.raises(ChowError):
            LogPair(model, (("D", Fraction(1, 2) * model.divisor(1)),))
        f2 = hirzebruch(2)
        with pytest.raises(ChowError):
            LogPair(f2, (("D", f2.divisor(0, 0)),))

    def test_non_prime_hirzebruch_classes_rejected(self):
        # 2C0 and C0 + f are effective on F_2 but no prime divisor has them
        f2 = hirzebruch(2)
        for a, b in ((2, 0), (1, 1), (0, 2)):
            with pytest.raises(ChowError, match="prime"):
                LogPair(f2, (("D", f2.divisor(a, b)),))

    def test_prime_hirzebruch_classes_accepted(self):
        f2 = hirzebruch(2)
        for a, b in ((1, 0), (0, 1), (1, 2), (1, 5), (2, 4), (3, 7)):
            LogPair(f2, (("D", f2.divisor(a, b)),))

    def test_foreign_class_rejected(self):
        with pytest.raises(ChowError):
            LogPair(projective_space(3), (("D", projective_space(4).divisor(1)),))

    def test_shared_classes_allowed(self):
        pair = pn_pair(7, [1, 1])
        assert len(pair.components) == 2

    def test_repeated_rejected_class_names_first_label(self):
        # each class object is checked once, at its first occurrence
        f2, p3 = hirzebruch(2), projective_space(3)
        good, not_prime = f2.divisor(1, 0), f2.divisor(1, 1)
        foreign, point = p3.divisor(1), f2.point()
        for bad, error in ((not_prime, "prime"), (foreign, "lives on"),
                           (point, "grade 1")):
            with pytest.raises(ChowError, match=f"component 'B' .*{error}"):
                LogPair(f2, (("A", good), ("B", bad), ("C", good),
                             ("D", bad), ("E", bad)))

    def test_equal_distinct_objects_match_one_shared_object(self):
        for model, coeffs in ((hypersurface(7, 2), (1,)),
                              (projective_space(5), (2,)),
                              (hirzebruch(3), (1, 4))):
            shared = model.divisor(*coeffs)
            one = LogPair(model, (("A", shared), ("B", shared)))
            two = LogPair(model, (("A", model.divisor(*coeffs)),
                                  ("B", model.divisor(*coeffs))))
            assert (len(one.groups), len(two.groups)) == (1, 2)
            assert log_chern(one) == log_chern(two)
            assert one == two

    # True == 1 == 1.0, so a degree must not be matched up by value
    @pytest.mark.parametrize("degrees", [[1, True], [True, 1], [1, 1.0],
                                         [1.0, 1], [2, 1, False], [True],
                                         [2.0, 2, 2], [1, 1, True, 1]])
    def test_pn_pair_rejects_non_integer_degrees(self, degrees):
        with pytest.raises(TypeError):
            pn_pair(3, degrees)

    @pytest.mark.parametrize("l", [2.0, "2", None])
    def test_hypersurface_pair_rejects_non_integer_count(self, l):
        with pytest.raises(TypeError):
            hypersurface_pair(7, 2, l)

    @pytest.mark.parametrize("degrees, label", [
        ([0], "D1"), ([1, 0, 2, 0], "D2"), ([1, 1, -1, -1, 2], "D3"),
        ([2, 1, 2, 1, 0, 1, 0], "D5"), ([3] * 50 + [-2] * 50, "D51")])
    def test_pn_pair_rejected_class_names_first_label(self, degrees, label):
        with pytest.raises(ChowError, match=f"component '{label}' .*prime"):
            pn_pair(3, degrees)


def explicit_pair(model, degrees):
    """LogPair(model, components) labeled D1..Dl, with one class object
    per distinct degree, as the run-built pairs share them."""
    shared = {d: model.divisor(d) for d in degrees}
    return LogPair(model, tuple((f"D{i + 1}", shared[d])
                                for i, d in enumerate(degrees)))


RUN_BUILT = [
    (lambda: pn_pair(5, []), lambda: explicit_pair(projective_space(5), [])),
    (lambda: pn_pair(7, [2, 1, 1]),
     lambda: explicit_pair(projective_space(7), [2, 1, 1])),
    (lambda: pn_pair(7, [2, 1, 2]),
     lambda: explicit_pair(projective_space(7), [2, 1, 2])),
    (lambda: pn_pair(12, [3, 1, 3, 3, 2, 1, 1, 2]),
     lambda: explicit_pair(projective_space(12), [3, 1, 3, 3, 2, 1, 1, 2])),
    (lambda: pn_pair(30, range(12, 0, -1)),
     lambda: explicit_pair(projective_space(30), list(range(12, 0, -1)))),
    (lambda: hypersurface_pair(7, 2, 0),
     lambda: explicit_pair(hypersurface(7, 2), [])),
    (lambda: hypersurface_pair(7, 2, 3),
     lambda: explicit_pair(hypersurface(7, 2), [1] * 3)),
    (lambda: hypersurface_pair(160, 2, 117),
     lambda: explicit_pair(hypersurface(160, 2), [1] * 117)),
]


class TestRunBuiltPairs:
    """pn_pair and hypersurface_pair build their pairs from runs; each
    equals, hashes, shows, groups and pickles as the pair built from its
    explicit components."""

    @pytest.mark.parametrize("make, make_explicit", RUN_BUILT)
    def test_same_as_explicit_components(self, make, make_explicit):
        explicit = make_explicit()
        for pair in (make(), make()):
            assert pair.groups == explicit.groups
            assert pair == explicit and explicit == pair
            assert hash(pair) == hash(explicit)
            assert repr(pair) == repr(explicit)
            assert pair.components == explicit.components
        for pair in (make(), make()):
            # first read of components is the pickling itself
            assert pickle.dumps(pair) == pickle.dumps(explicit)
            twin = pickle.loads(pickle.dumps(pair))
            assert twin == explicit and twin.groups == explicit.groups

    @pytest.mark.parametrize("make, make_explicit", RUN_BUILT)
    def test_same_reports_as_explicit_components(self, make, make_explicit):
        pair, explicit = make(), make_explicit()
        assert full_report(pair) == full_report(explicit)
        assert pair.boundary() == explicit.boundary()

    def test_full_report_memory_independent_of_l(self):
        """A search pair and its report take no per-component memory:
        labeling 10^6 components would take tens of MB."""
        tracemalloc.start()
        try:
            full_report(hypersurface_pair(10**6 + 2, 2, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestLogC1:
    def test_projective_hyperplane(self):
        for n in range(2, 13):
            assert log_c1(pn_pair(n, [1])) == projective_space(n).divisor(n)

    def test_hirzebruch_boundary(self):
        for m in range(1, 11):
            assert log_c1(hirzebruch_boundary(m)) == hirzebruch(m).divisor(0, 2)

    def test_empty_divisor_reduction(self):
        for model in (projective_space(5), hypersurface(4, 3), hirzebruch(2)):
            pair = LogPair(model, ())
            assert log_c1(pair) == tangent_chern(model).c1
            assert log_c2(pair) == tangent_chern(model).c2


class TestLogC2:
    def test_projective_hyperplane(self):
        for n in range(2, 13):
            expected = projective_space(n).cycle(2, Fraction(n * (n - 1), 2))
            assert log_c2(pn_pair(n, [1])) == expected

    def test_hirzebruch_boundary_vanishes(self):
        for m in range(1, 11):
            assert log_c2(hirzebruch_boundary(m)).is_zero()

    def test_p7_degrees_211(self):
        # 28 - 8*4 + 16 - (2*1 + 2*1 + 1*1) = 7
        assert log_c2(pn_pair(7, [2, 1, 1])) == projective_space(7).cycle(2, 7)

    def test_permutation_invariance(self):
        degrees = [3, 1, 2, 1]
        reference = log_c2(pn_pair(6, degrees))
        for perm in itertools.permutations(degrees):
            assert log_c2(pn_pair(6, perm)) == reference

    def test_merge_changes_c2_by_cross_term(self):
        # merging components (d_i, d_j) into one drops their pairwise term
        n = 9
        split = pn_pair(n, [4, 3, 2])
        merged = pn_pair(n, [7, 2])
        assert log_c1(split) == log_c1(merged)
        delta = log_c2(merged) - log_c2(split)
        assert delta == projective_space(n).cycle(2, 4 * 3)


def pairwise_log_c2(pair):
    """c2(T_X) + K.D + D^2 - sum_{i<j} D_i.D_j with every pair multiplied
    out: the O(l^2) form of log_c2."""
    tangent = tangent_chern(pair.model)
    D = sum(pair.classes, pair.model.zero(1))
    result = tangent.c2 + chow.mul(-tangent.c1, D) + chow.mul(D, D)
    classes = pair.classes
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            result = result - chow.mul(classes[i], classes[j])
    return result


@st.composite
def small_pairs(draw):
    family = draw(st.sampled_from(["pn", "hyp", "fm"]))
    if family == "fm":
        m = draw(st.integers(1, 6))
        model = hirzebruch(m)
        prime = st.one_of(
            st.sampled_from([(1, 0), (0, 1)]),
            st.integers(1, 4).flatmap(lambda a: st.tuples(
                st.just(a), st.integers(a * m, a * m + 5))))
        classes = draw(st.lists(prime, max_size=8))
    else:
        n = draw(st.integers(2, 8))
        model = (projective_space(n) if family == "pn"
                 else hypersurface(n, draw(st.integers(1, 5))))
        classes = draw(st.lists(st.tuples(st.integers(1, 6)), max_size=8))
    return LogPair(model, tuple((f"D{i}", model.divisor(*c))
                                for i, c in enumerate(classes)))


@st.composite
def pairs_with_runs(draw):
    """Pairs whose components repeat a few classes, in runs of up to 40
    equal classes, either consecutive or shuffled."""
    pair = draw(small_pairs())
    runs = draw(st.lists(st.tuples(st.sampled_from(pair.classes),
                                   st.integers(1, 40)), max_size=3)
                if pair.classes else st.just([]))
    classes = [cls for cls, k in runs for _ in range(k)]
    if draw(st.booleans()):
        classes = draw(st.permutations(classes))
    return LogPair(pair.model, tuple((f"D{i}", cls)
                                     for i, cls in enumerate(classes)))


class TestLinearLogC2:
    @given(small_pairs())
    def test_matches_pairwise_sum(self, pair):
        assert log_c2(pair) == pairwise_log_c2(pair)

    @settings(deadline=None)
    @given(pairs_with_runs())
    def test_runs_match_pairwise_sum(self, pair):
        assert log_c2(pair) == pairwise_log_c2(pair)

    @settings(deadline=None)
    @given(st.one_of(small_pairs(), pairs_with_runs()))
    def test_coefficient_is_integral(self, pair):
        # the closed form halves D^2 + sum D_i^2 exactly because D^2 and
        # sum D_i^2 agree mod 2
        D = pair.boundary()
        squares = sum(chow.mul(E, E).coeffs[0] for E in pair.classes)
        assert (chow.mul(D, D).coeffs[0] - squares) % 2 == 0
        assert log_c2(pair).coeffs[0].denominator == 1

    def test_products_per_run(self, mul_calls):
        """log_chern reads the intersection form on coefficient tuples
        and takes no chow.mul at all, for equal or distinct components."""
        for l in [*range(40), 117, 1000]:
            for pair in (pn_pair(5, [2] * l), hypersurface_pair(5, 3, l)):
                mul_calls.clear()
                log_c2(pair)
                assert len(mul_calls) == 0
        for l in range(1, 12):
            mul_calls.clear()
            log_c2(pn_pair(5, range(l, 0, -1)))
            assert len(mul_calls) == 0


def floats_in(value):
    """Every float reachable from value through the slots of value classes
    (a CycleClass's coefficients among them), dicts, lists and tuples."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, Value):
        for name in type(value).__slots__:
            yield from floats_in(getattr(value, name))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from floats_in(key)
            yield from floats_in(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from floats_in(item)


class TestNoFloat:
    """Exact values are ints, or Fractions where non-integral; an int / int
    anywhere in the pipeline would show up here as a float."""

    @settings(deadline=None)
    @given(small_pairs(), st.integers(1, 12))
    def test_no_value_is_a_float(self, pair, rank):
        model = pair.model
        H = default_polarization(model)
        chern = log_chern(pair)
        report = full_report(pair)
        values = [report, report_record(pair, report, Echoes()),
                  discriminant(chern, H),
                  discriminant(ChernData(rank, chern.c1, chern.c2), H),
                  slope(model, chern.c1, rank, H),
                  slope(model, -chern.c1, chern.rank, H)]
        if model.kind == "projective_space":
            values += [wedge_cotangent_slope(model.n, r)
                       for r in range(1, model.n + 1)]
        if model.kind != "hirzebruch":
            family = ("pn" if model.kind == "projective_space"
                      else "hypersurface")
            config = DEFAULT_BOUNDS[family]
            partition = tuple(sorted((cls.coeffs[0] for cls in pair.classes),
                                     reverse=True))
            case = EqualityCase(family, model.n, model.q, partition,
                                report_modes(report), report)
            values.append(case_record(case, bounds_fields(config)))
        assert list(floats_in(values)) == []

    def test_floats_in_sees_into_value_classes(self):
        report = full_report(pn_pair(4, [2, 1]))
        assert list(floats_in(report)) == []
        object.__setattr__(report.polarization, "coeffs", (0.5,))
        assert list(floats_in(report)) == [0.5]
        assert list(floats_in([{"case": report}])) == [0.5]


class TestExtensionChern:
    """The rank-(n+1) extension of T_X(-log D) by the trivial sheaf shares
    c1 and c2 with it; full_report's rank-(n+1) predicate is that
    extension's discriminant."""

    def test_rank_bump_and_shared_classes(self):
        for pair in (pn_pair(5, []), pn_pair(7, [2, 1, 1]),
                     hirzebruch_boundary(4), hypersurface_pair(7, 2, 3),
                     pn_pair(5, [2]), hypersurface_pair(7, 2, 1)):
            chern = log_chern(pair)
            assert chern.rank == pair.model.dim
            extension = ChernData(chern.rank + 1, chern.c1, chern.c2)
            H = default_polarization(pair.model)
            assert full_report(pair).equality_n_plus_1 == \
                (discriminant(extension, H) == 0)

    def test_empty_divisor_projective(self):
        pair = pn_pair(6, [])
        chern = log_chern(pair)
        assert chern.c1 == projective_space(6).divisor(7)
        assert chern.c2 == projective_space(6).cycle(2, comb(7, 2))
        extension = ChernData(7, chern.c1, chern.c2)
        assert discriminant(extension, default_polarization(pair.model)) == 0
        assert full_report(pair).equality_n_plus_1


class TestSlope:
    def test_cotangent_slope(self):
        for n in range(2, 13):
            model = projective_space(n)
            H = default_polarization(model)
            assert slope(model, model.divisor(-(n + 1)), n, H) == \
                Fraction(-(n + 1), n)

    def test_zero_class(self):
        model = hirzebruch(3)
        assert slope(model, model.zero(1), 5,
                     default_polarization(model)) == 0

    def test_log_cotangent_slope_is_minus_one(self):
        for n in range(2, 13):
            model = projective_space(n)
            c1 = -log_c1(pn_pair(n, [1]))
            assert slope(model, c1, n, default_polarization(model)) == -1


class TestWedgeCotangentSlope:
    def test_determinant_bundle(self):
        for n in range(2, 10):
            assert wedge_cotangent_slope(n, n) == -(n + 1)

    def test_paper_grid_value(self):
        assert wedge_cotangent_slope(7, 2) == Fraction(-16, 7)

    def test_oracle_5_3(self):
        # C(4,2) * 6 / C(5,3) = 36/10, with sign
        assert wedge_cotangent_slope(5, 3) == Fraction(-36, 10)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form_identity(self, n):
        for r in range(1, n + 1):
            assert wedge_cotangent_slope(n, r) * n + r * (n + 1) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ChowError):
            wedge_cotangent_slope(5, 0)
        with pytest.raises(ChowError):
            wedge_cotangent_slope(5, 6)
