from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from logbg import search
from logbg.bg import full_report
from logbg.logchern import hypersurface_pair, pn_pair
from logbg.search import (DEFAULT_BOUNDS, SearchConfig, SearchSpaceError,
                          VerificationError, enumerate_cases,
                          hyp_modes_closed_form, pn_modes_closed_form)
from logbg.serialize import bounds_fields, case_record
from scanner import (direct_modes, partitions_with_sum_at_most,
                     scan_hypersurface, scan_pn)


def pn_config(**kwargs):
    defaults = dict(family="pn", n_min=2, n_max=2)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


def hyp_config(**kwargs):
    defaults = dict(family="hypersurface", n_min=2, n_max=2, q_min=2, q_max=2)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


def keys(cases):
    return [(c.n, c.q, c.partition) for c in cases]


class TestConfigValidation:
    def test_empty_range_rejected(self):
        with pytest.raises(SearchSpaceError):
            pn_config(n_min=5, n_max=4)

    def test_q_bounds_on_pn_rejected(self):
        with pytest.raises(SearchSpaceError):
            SearchConfig(family="pn", n_min=2, n_max=3, q_max=5)

    def test_unknown_family_rejected(self):
        with pytest.raises(SearchSpaceError):
            SearchConfig(family="quadric", n_min=2, n_max=3)

    @pytest.mark.parametrize("family", ["pn", "hypersurface"])
    def test_dimension_past_sequence_index_rejected(self, family):
        """A partition of n_max + 1 parts must fit a tuple.  Only 10^20
        is tried: a dimension that fits would start building tuples of n
        ones."""
        q_max = None if family == "pn" else 3
        with pytest.raises(SearchSpaceError, match="too large"):
            SearchConfig(family, 10**20, 10**20, q_max=q_max)
        with pytest.raises(SearchSpaceError, match="too large"):
            SearchConfig(family, 2, 10**20, q_max=q_max)

    def test_missing_q_range_rejected(self):
        with pytest.raises(SearchSpaceError):
            SearchConfig(family="hypersurface", n_min=2, n_max=3)


class TestEnumeratePn:
    def test_finds_remark_tuple_n7(self):
        cases = enumerate_cases(pn_config(n_min=7, n_max=7, mode="n1"))
        assert (7, 1, (2, 1, 1)) in keys(cases)

    def test_finds_remark_tuple_n8(self):
        cases = enumerate_cases(pn_config(n_min=8, n_max=8, mode="n"))
        assert (8, 1, (2, 1, 1, 1)) in keys(cases)

    def test_hyperplane_included_without_trivial_filter(self):
        cases = enumerate_cases(pn_config(n_min=2, n_max=6, mode="n",
                                       exclude_trivial=False))
        for n in range(2, 7):
            assert (n, 1, (1,)) in keys(cases)

    def test_trivial_filter_drops_empty_and_hyperplane(self):
        cases = enumerate_cases(pn_config(n_min=2, n_max=6))
        assert all(c.partition not in ((), (1,)) for c in cases)

    def test_n2_brute_force_oracle(self):
        # direct cycle-arithmetic evaluation of every partition with s <= 3
        expected = []
        for partition in sorted(partitions_with_sum_at_most(3),
                                key=lambda p: (len(p), p)):
            if partition in ((), (1,)):
                continue
            modes = direct_modes(pn_pair(2, partition))
            if modes:
                expected.append((2, 1, partition))
        cases = enumerate_cases(pn_config(n_min=2, n_max=2))
        assert keys(cases) == expected

    def test_canonical_order(self):
        cases = enumerate_cases(pn_config(n_min=2, n_max=9))
        assert [c.key() for c in cases] == sorted(c.key() for c in cases)

    def test_monotone_bounds(self):
        small = keys(enumerate_cases(pn_config(n_min=2, n_max=6)))
        large = keys(enumerate_cases(pn_config(n_min=2, n_max=9)))
        assert set(small) <= set(large)


class TestEnumerateHypersurface:
    def test_finds_remark_tuples(self):
        cases = enumerate_cases(
            hyp_config(n_min=7, n_max=7, mode="n1"))
        assert (7, 2, (1, 1, 1)) in keys(cases)
        cases = enumerate_cases(
            hyp_config(n_min=8, n_max=8, mode="n"))
        assert (8, 2, (1, 1, 1, 1)) in keys(cases)

    def test_q1_rows_match_pn_all_ones(self):
        # lifting the q >= 2 floor must reproduce the all-ones P^n rows
        hyp = enumerate_cases(
            hyp_config(n_min=2, n_max=8, q_min=1, q_max=1))
        # the "D = H" trivial filter only applies on the P^n family
        pn = enumerate_cases(pn_config(n_min=2, n_max=8,
                                       exclude_trivial=False))
        pn_all_ones = [(c.n, c.partition) for c in pn
                       if c.partition and set(c.partition) == {1}]
        assert [(c.n, c.partition) for c in hyp] == pn_all_ones

    def test_sampled_subbox_against_direct_evaluation(self):
        for n in range(2, 10):
            for q in range(2, 6):
                for l in range(0, n + 3 - q):
                    fast = hyp_modes_closed_form(n, q, l)
                    assert fast == direct_modes(hypersurface_pair(n, q, l))


class TestFastPathAgreement:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_pn_full_box(self, n):
        for partition in partitions_with_sum_at_most(n + 1):
            assert pn_modes_closed_form(n, partition) == \
                direct_modes(pn_pair(n, partition))


class TestDeterminismAndWorkers:
    def test_identical_runs(self):
        config = pn_config(n_min=2, n_max=10)
        assert enumerate_cases(config) == enumerate_cases(config)

    def test_worker_count_does_not_change_output(self):
        """--workers selects nothing, and a box split by n still gives
        the box's cases: its n-slices' cases, concatenated."""
        for config in (pn_config(n_min=2, n_max=12),
                       hyp_config(n_min=2, n_max=20, q_max=20)):
            sliced = [case for n in range(config.n_min, config.n_max + 1)
                      for case in enumerate_cases(SearchConfig(
                          family=config.family, n_min=n, n_max=n,
                          mode=config.mode, require_nef=config.require_nef,
                          exclude_trivial=config.exclude_trivial,
                          s_max=config.s_max, q_min=config.q_min,
                          q_max=config.q_max))]
            assert enumerate_cases(config) == sliced


class TestEmittedReports:
    def test_every_case_has_vanishing_discriminant(self):
        cases = enumerate_cases(pn_config(n_min=2, n_max=12))
        cases += enumerate_cases(hyp_config(n_min=2, n_max=12,
                                                   q_max=12))
        assert cases
        for case in cases:
            report = case.report
            assert report.equality_n or report.equality_n_plus_1
            if "n" in case.modes:
                assert report.discriminant == 0

    def test_nef_flag_matches_report(self):
        config = pn_config(n_min=2, n_max=10)
        bounds = bounds_fields(config)
        for case in enumerate_cases(config):
            record = case_record(case, bounds)
            assert record["nef"] is case.report.minus_k_plus_d_nef
            assert record["nef"]  # nef was required


def solved(cases):
    return [(c.n, c.q, c.partition, c.modes) for c in cases]


class TestSolverMatchesScanner:
    # Every box here is small enough for the scanner to finish.
    @pytest.mark.parametrize("mode", ["n", "n1", "either"])
    @pytest.mark.parametrize("exclude_trivial", [True, False])
    @pytest.mark.parametrize("require_nef", [True, False])
    def test_full_boxes(self, mode, exclude_trivial, require_nef):
        flags = dict(mode=mode, exclude_trivial=exclude_trivial,
                     require_nef=require_nef)
        config = pn_config(n_max=22 if require_nef else 9, **flags)
        assert solved(enumerate_cases(config)) == scan_pn(config)
        hconfig = hyp_config(n_max=40, q_min=1, q_max=40, **flags)
        assert solved(enumerate_cases(hconfig)) == \
            scan_hypersurface(hconfig)

    @pytest.mark.parametrize("s_max", [1, 3, 5, 12])
    @pytest.mark.parametrize("require_nef", [True, False])
    def test_degree_caps(self, s_max, require_nef):
        flags = dict(s_max=s_max, require_nef=require_nef,
                     exclude_trivial=False)
        config = pn_config(n_max=22, **flags)
        assert solved(enumerate_cases(config)) == scan_pn(config)
        hconfig = hyp_config(n_max=40, q_min=1, q_max=40, **flags)
        assert solved(enumerate_cases(hconfig)) == \
            scan_hypersurface(hconfig)


def direct_cases(config, n, q, partitions):
    """(n, q, partition, modes) for each partition the full pipeline puts
    in `config`, in canonical order: the oracle beyond the scan boxes."""
    trivial = ((), (1,)) if config.family == "pn" else ((),)
    hits = []
    for partition in partitions:
        if config.exclude_trivial and partition in trivial:
            continue
        pair = (pn_pair(n, partition) if config.family == "pn"
                else hypersurface_pair(n, q, len(partition)))
        report = full_report(pair)
        modes = search.report_modes(report)
        if config.require_nef and not report.minus_k_plus_d_nef:
            continue
        if modes and (config.mode == "either" or config.mode in modes):
            hits.append((n, q, partition, modes))
    return sorted(hits, key=lambda h: (len(h[2]), h[2]))


search_flags = st.fixed_dictionaries({
    "mode": st.sampled_from(["n", "n1", "either"]),
    "exclude_trivial": st.booleans()})


@st.composite
def nef_hypersurfaces(draw):
    """(n, q) with q <= 400 and a nef cap n + 2 - q >= 0."""
    q = draw(st.integers(1, 400))
    return draw(st.integers(max(2, q - 2), 400)), q


class TestSolverMatchesDirectPipeline:
    # Every candidate in the box goes through full_report, not the closed
    # form, on boxes past the ones the scanner covers.
    @settings(deadline=None)
    @given(box=nef_hypersurfaces(), flags=search_flags)
    @example(box=(120, 6), flags={"mode": "either", "exclude_trivial": True})
    def test_hypersurface_nef_box(self, box, flags):
        n, q = box
        config = hyp_config(n_min=n, n_max=n, q_min=q, q_max=q, **flags)
        ones = [(1,) * l for l in range(n + 3 - q)]
        assert solved(enumerate_cases(config)) == \
            direct_cases(config, n, q, ones)

    @settings(deadline=None)
    @given(n=st.integers(23, 200), s_max=st.integers(1, 12),
           require_nef=st.booleans(), flags=search_flags)
    def test_pn_degree_capped_box(self, n, s_max, require_nef, flags):
        config = pn_config(n_min=n, n_max=n, s_max=s_max,
                           require_nef=require_nef, **flags)
        assert solved(enumerate_cases(config)) == direct_cases(
            config, n, 1, partitions_with_sum_at_most(s_max))


class TestHypersurfaceBound:
    """Past q = (isqrt(k + 1) + 1) // 2, with k the mode's largest rank, no
    rank has a real root of t^2 - k t + k q (q - 1) = 0, so the solver's q
    loop stops there."""

    @pytest.mark.parametrize("mode", ["n", "n1", "either"])
    def test_q_top_is_the_last_q_with_real_roots(self, mode):
        for n in range(2, 400):
            k = max(search._ranks(n, mode))
            q = (isqrt(k + 1) + 1) // 2
            assert 4 * q * (q - 1) <= k < 4 * (q + 1) * q

    # each example sends up to 904 pairs through full_report
    @settings(deadline=None, max_examples=10)
    @given(n=st.integers(2, 300),
           q=st.one_of(st.integers(1, 10), st.integers(1, 10 ** 4)),
           flags=search_flags)
    @example(n=120, q=6, flags={"mode": "either", "exclude_trivial": True})
    @example(n=119, q=6, flags={"mode": "n1", "exclude_trivial": False})
    def test_unfiltered_solver_matches_direct_pipeline(self, n, q, flags):
        config = hyp_config(n_min=n, n_max=n, q_min=q, q_max=q,
                            require_nef=False, **flags)
        ones = [(1,) * l for l in range(3 * (n + 1) + 1)]
        assert solved(enumerate_cases(config)) == \
            direct_cases(config, n, q, ones)

    @pytest.mark.parametrize("mode", ["n", "n1", "either"])
    def test_nef_filter_keeps_every_case(self, mode):
        # every root has t >= q (q - 1) >= 0, so l <= n + 2 - q
        config = hyp_config(n_max=200, q_min=1, q_max=200, mode=mode,
                            exclude_trivial=False)
        unfiltered = SearchConfig(family="hypersurface", n_min=2, n_max=200,
                                  mode=mode, require_nef=False,
                                  exclude_trivial=False, q_min=1, q_max=200)
        assert solved(enumerate_cases(config)) == \
            solved(enumerate_cases(unfiltered))

    @staticmethod
    def solver_points(monkeypatch, config):
        points = []
        solve = search._roots

        def counting(k, B):
            points.append((k, B))
            return solve(k, B)

        monkeypatch.setattr(search, "_roots", counting)
        return enumerate_cases(config), points

    def test_default_box_work(self, monkeypatch):
        # one _roots call per rank (n and n + 1) at each of 530 (n, q)
        cases, points = self.solver_points(monkeypatch,
                                           DEFAULT_BOUNDS["hypersurface"])
        assert len(cases) == 98
        assert len(points) == 1060

    def test_work_does_not_grow_with_q_max(self, monkeypatch):
        config = hyp_config(n_max=3, q_max=3_000_000, require_nef=False)
        cases, points = self.solver_points(monkeypatch, config)
        assert cases == []
        assert len(points) <= 4


class TestPnNefFilter:
    @pytest.mark.parametrize("mode", ["n", "n1", "either"])
    def test_nef_filter_keeps_every_case(self, mode):
        # every root has t >= 0, so s = n + 1 - t <= n + 1
        config = pn_config(n_max=60, mode=mode, exclude_trivial=False)
        unfiltered = SearchConfig(family="pn", n_min=2, n_max=60, mode=mode,
                                  require_nef=False, exclude_trivial=False)
        assert solved(enumerate_cases(config)) == \
            solved(enumerate_cases(unfiltered))


class TestPronicPartitions:
    def test_matches_filtered_partitions(self):
        expected = {B: [] for B in range(31)}
        for partition in partitions_with_sum_at_most(30):
            B = sum(d * (d - 1) for d in partition)
            if 1 not in partition and B <= 30:
                expected[B].append(partition)
        for B, partitions in expected.items():
            assert sorted(search._pronic_partitions(B, B)) == \
                sorted(partitions)


class TestUnfilteredBoxes:
    def test_default_pn_box_without_nef_filter(self):
        # 2.08e9 candidates for the scanner
        box = DEFAULT_BOUNDS["pn"]
        cases = enumerate_cases(SearchConfig(
            family=box.family, n_min=box.n_min, n_max=box.n_max,
            mode=box.mode, require_nef=False,
            exclude_trivial=box.exclude_trivial, s_max=box.s_max,
            q_min=box.q_min, q_max=box.q_max))
        assert len(cases) == 65

    def test_small_pn_box_without_nef_filter(self):
        cases = enumerate_cases(pn_config(n_max=9, require_nef=False))
        assert len(cases) == 14


class TestVerificationFailure:
    # The P^n side is tested through the CLI exit code in test_cli.py.
    def test_hypersurface_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(search, "hyp_modes_closed_form",
                            lambda n, q, l: ("n", "n1"))
        with pytest.raises(VerificationError, match="hypersurface, n=7, q=2"):
            enumerate_cases(hyp_config(n_min=7, n_max=7))
