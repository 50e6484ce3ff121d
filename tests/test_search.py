import ast
import itertools
import json
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from logbg import logchern, search
from logbg.bg import BGReport, full_report, reporter
from logbg.cli import main
from logbg.logchern import hypersurface_pair, pn_pair
from logbg.models import AmbientModel
from logbg.search import (DEFAULT_BOUNDS, MODES, SearchConfig,
                          SearchSpaceError, VerificationError,
                          enumerate_cases)
from logbg.serialize import Echoes, bounds_fields, case_record
import scanner
from scanner import (closed_form_modes, direct_modes,
                     partitions_with_sum_at_most, pn_modes,
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

    @pytest.mark.parametrize("mode", ["n+1", "both", "", None])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(SearchSpaceError) as error:
            pn_config(n_max=5, mode=mode)
        assert str(error.value) == f"unknown mode {mode!r}"

    @pytest.mark.parametrize("s_max", [0, -1, -10**20])
    def test_s_max_below_one_rejected(self, s_max):
        for config in (pn_config, hyp_config):
            with pytest.raises(SearchSpaceError,
                               match="^s_max must be positive$"):
                config(n_max=5, s_max=s_max)

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

    @pytest.mark.parametrize("bad", [5.5, 8.0, True, Fraction(8), "8"])
    @pytest.mark.parametrize("bound", ["n_min", "n_max", "q_min", "q_max",
                                       "s_max"])
    def test_non_int_bounds_rejected(self, bound, bad):
        """At construction: s_max=5.5 once enumerated, s_max=True would
        echo true, and n_max=8.0 failed only inside enumerate_cases."""
        with pytest.raises(TypeError, match=f"{bound} must be int"):
            hyp_config(**{"n_max": 8, "q_max": 8, bound: bad})

    @pytest.mark.parametrize("bad", [1, 0, "", None, 1.0])
    @pytest.mark.parametrize("flag", ["require_nef", "exclude_trivial"])
    def test_non_bool_flags_rejected(self, flag, bad):
        """At construction: require_nef=1 would echo 1 in the bounds, and
        exclude_trivial="" kept the trivial cases."""
        with pytest.raises(TypeError, match=f"{flag} must be bool, got "
                                            f"{type(bad).__name__}"):
            pn_config(**{flag: bad})


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
        # direct full_report evaluation of every partition with s <= 3
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
        order = [(c.n, c.q, len(c.partition), c.partition) for c in cases]
        assert order == sorted(order)

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
                    fast = closed_form_modes(n, q, l, l)
                    assert fast == direct_modes(hypersurface_pair(n, q, l))


class TestFastPathAgreement:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_pn_full_box(self, n):
        for partition in partitions_with_sum_at_most(n + 1):
            assert pn_modes(n, partition) == \
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


class TestRunOrder:
    """Keys that a lister of (degree, multiplicity) runs can build
    without expanding them: at equal length the runs, and the parts
    without their ones, sort as the partitions do, since 1 is below
    every part >= 2."""

    @staticmethod
    def case_order(key):
        n, q, partition = key
        return n, q, len(partition), partition

    @staticmethod
    def run_key(key):
        n, q, partition = key
        return n, q, len(partition), tuple(d for d in partition if d != 1)

    @pytest.mark.parametrize("config, count", [
        (pn_config(n_max=200), 4685),
        (pn_config(n_max=120, mode="n", require_nef=False,
                   exclude_trivial=False), 625)])
    def test_run_key_gives_case_order(self, config, count):
        cases = enumerate_cases(config)
        ordered = keys(cases)
        assert len(ordered) == count
        assert ordered == sorted(ordered, key=self.case_order)
        assert len(set(map(self.run_key, ordered))) == count
        shuffled = ordered[::-1]
        assert sorted(shuffled, key=self.run_key) == ordered
        by_runs = [(c.n, c.q, len(c.partition), c.runs) for c in cases]
        assert len(set(by_runs)) == count
        assert sorted(by_runs[::-1]) == by_runs


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
        echoes = Echoes(bounds_fields(config))
        for case in enumerate_cases(config):
            nef = json.loads(case_record(case, echoes))["nef"]
            assert nef is case.report.minus_k_plus_d_nef
            assert nef  # nef was required


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

    def test_scanner_imports_only_full_report_and_report_modes(self):
        """tests/scanner.py shares no code with the solver it checks: from
        logbg it may import full_report and report_modes and nothing
        else."""
        allowed = {"full_report", "report_modes"}
        tree = ast.parse(Path(scanner.__file__).read_text(), scanner.__file__)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
                assert not any(name.split(".")[0] == "logbg"
                               for name in names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "no relative imports"
                if node.module.split(".")[0] == "logbg":
                    assert {alias.name for alias in node.names} <= allowed
            elif isinstance(node, ast.Name):
                assert node.id not in ("__import__", "importlib")


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


@pytest.fixture
def divisor_calls(monkeypatch):
    """The B of each call of the solver's divisor list, in call order."""
    calls = []
    divisors = search._square_divisors
    monkeypatch.setattr(search, "_square_divisors",
                        lambda B: calls.append(B) or divisors(B))
    return calls


def pronic_partitions(B, largest):
    """Non-increasing tuples of parts d in [2, largest] with
    sum d (d - 1) = B."""
    if B == 0:
        yield ()
        return
    for d in range(2, largest + 1):
        if d * (d - 1) <= B:
            for rest in pronic_partitions(B - d * (d - 1), d):
                yield (d,) + rest


def quadratic_cases(config):
    """{(n, q, partition, modes)} of every case in `config`, from t^2 - k t
    + k B = 0 checked at each n for every t in 0..k; no solver helper
    from logbg.search takes part."""
    trivial = ((), (1,)) if config.family == "pn" else ((),)
    cases = set()
    for n in range(config.n_min, config.n_max + 1):
        ranks = {"n": (n,), "n1": (n + 1,), "either": (n, n + 1)}
        for k in ranks[config.mode]:
            for t in range(k + 1):
                if config.family == "pn":
                    # B = t (k - t) / k makes the quadratic vanish
                    if t * (k - t) % k:
                        continue
                    B = t * (k - t) // k
                    points = [(1, parts, n + 1 - t - sum(parts))
                              for parts in pronic_partitions(B, B)]
                else:
                    points = [(q, (), n + 2 - q - t)
                              for q in range(config.q_min, config.q_max + 1)
                              if t * t - k * t + k * q * (q - 1) == 0]
                for q, parts, ones in points:
                    B = q * (q - 1) + sum(d * (d - 1) for d in parts)
                    partition = parts + (1,) * ones
                    if (ones < 0 or (config.s_max is not None
                                     and sum(partition) > config.s_max)
                            or (config.exclude_trivial
                                and partition in trivial)):
                        continue
                    modes = tuple(
                        mode for mode, rank in (("n", n), ("n1", n + 1))
                        if t * t - rank * t + rank * B == 0)
                    cases.add((n, q, partition, modes))
    return cases


# six dimension ranges and, on hypersurfaces, six degree ranges
N_RANGES = [(2, 2), (2, 12), (7, 20), (20, 31), (29, 48), (44, 64)]
Q_RANGES = [(1, 1), (1, 3), (2, 2), (2, 7), (3, 5), (1, 40)]


class TestSolverMatchesQuadratic:
    @pytest.mark.parametrize("s_max", [None, 1, 3, 7])
    @pytest.mark.parametrize("exclude_trivial", [True, False])
    @pytest.mark.parametrize("mode", ["n", "n1", "either"])
    @pytest.mark.parametrize("family", ["pn", "hypersurface"])
    def test_grid(self, family, mode, exclude_trivial, s_max):
        q_ranges = Q_RANGES if family == "hypersurface" else [(2, None)]
        for (n_min, n_max), (q_min, q_max) in itertools.product(N_RANGES,
                                                               q_ranges):
            config = SearchConfig(family, n_min, n_max, mode=mode,
                                  exclude_trivial=exclude_trivial,
                                  s_max=s_max, q_min=q_min, q_max=q_max)
            # in canonical order, each case once
            assert solved(enumerate_cases(config)) == sorted(
                quadratic_cases(config),
                key=lambda c: (c[0], c[1], len(c[2]), c[2]))


class TestHypersurfaceBound:
    """Past q = (isqrt(k + 1) + 1) // 2, with k the mode's largest rank, no
    rank has a real root of t^2 - k t + k q (q - 1) = 0, so the solver's q
    loop stops there."""

    @pytest.mark.parametrize("mode", ["n", "n1", "either"])
    def test_q_top_is_the_last_q_with_real_roots(self, divisor_calls, mode):
        for n in range(2, 400):
            k = n + (mode != "n")
            divisor_calls.clear()
            search._plan(hyp_config(
                n_min=n, n_max=n, q_min=1, q_max=10 ** 6, mode=mode))
            q_top = len(divisor_calls) + 1
            assert divisor_calls == [q * (q - 1)
                                     for q in range(2, q_top + 1)]
            assert 4 * q_top * (q_top - 1) <= k < 4 * (q_top + 1) * q_top

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

    def test_default_box_work(self, divisor_calls):
        # one divisor list per admissible B = q (q - 1), q = 2..6
        assert len(enumerate_cases(DEFAULT_BOUNDS["hypersurface"])) == 98
        assert divisor_calls == [2, 6, 12, 20, 30]

    def test_work_does_not_grow_with_q_max(self, divisor_calls):
        config = hyp_config(n_max=3, q_max=3_000_000, require_nef=False)
        assert enumerate_cases(config) == []
        assert divisor_calls == []


class TestPnSolverWork:
    def test_default_box_work(self, divisor_calls):
        # one divisor list per B = 1..31 // 4; B = 0 needs none
        assert len(enumerate_cases(DEFAULT_BOUNDS["pn"])) == 65
        assert divisor_calls == [1, 2, 3, 4, 5, 6, 7]

    def test_lists_only_b_with_a_root(self, monkeypatch):
        """Each B is solved first, and the pronic partitions of each R in
        the plan, and of no other R, are listed once: only a B with a
        root in the box is listed.  _pronic_partitions recurses through
        its global name, so its calls from itself are not counted."""
        listed = []
        real = search._pronic_partitions

        def counting(B, largest):
            if sys._getframe(1).f_code.co_name != "_pronic_partitions":
                listed.append(B)
            return real(B, largest)

        monkeypatch.setattr(search, "_pronic_partitions", counting)
        config = pn_config(n_min=500, n_max=500)
        plan = search._plan(config)
        assert enumerate_cases(config)
        with_roots = [B for B in range(501 // 4 + 1)
                      if search._solve(config, B)]
        assert listed == list(plan) == with_roots
        assert 0 < len(with_roots) < 501 // 4 + 1

    @pytest.mark.parametrize("n, s_max", [(1200, 40), (3000, 10)])
    def test_s_max_prunes_before_listing(self, monkeypatch, capsys, n,
                                         s_max):
        """Roots past --s-max are dropped before any partition is listed:
        in both boxes only R = 0 keeps a root, and its cases are trivial,
        so no partition of an R > 0 is ever listed."""
        real = search._pronic_partitions

        def only_empty(B, largest):
            if B > 0:
                raise AssertionError(f"listed the partitions of {B}")
            return real(B, largest)

        monkeypatch.setattr(search, "_pronic_partitions", only_empty)
        assert main(["enumerate", "--family", "pn", "--n", f"{n}..{n}",
                     "--s-max", str(s_max), "--format", "records"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["count"] == 0


class TestSolveModes:
    def test_modes_are_the_ranks_that_produced_the_root(self):
        """In every mode, _solve maps exactly the (n, t) with
        t^2 = k (t - B) at k = n or k = n + 1 to the modes whose
        equation holds, found by a scan of t over 0..n + 1."""
        for B in range(65):
            expected = {}
            for n in range(2, 301):
                for t in range(n + 2):
                    modes = ("n",) if t * t == n * (t - B) else ()
                    if t * t == (n + 1) * (t - B):
                        modes += ("n1",)
                    if modes:
                        expected[n, t] = modes
            for mode in MODES:
                config = pn_config(n_max=300, mode=mode)
                assert search._solve(config, B) == expected, (B, mode)


class TestPnNefFilter:
    @pytest.mark.parametrize("mode", ["n", "n1", "either"])
    def test_nef_filter_keeps_every_case(self, mode):
        # every root has t >= 0, so s = n + 1 - t <= n + 1
        config = pn_config(n_max=60, mode=mode, exclude_trivial=False)
        unfiltered = SearchConfig(family="pn", n_min=2, n_max=60, mode=mode,
                                  require_nef=False, exclude_trivial=False)
        assert solved(enumerate_cases(config)) == \
            solved(enumerate_cases(unfiltered))


def expand(runs):
    return tuple(d for d, k in runs for _ in range(k))


class TestPronicPartitions:
    def test_matches_filtered_partitions(self):
        expected = {B: [] for B in range(31)}
        for partition in partitions_with_sum_at_most(30):
            B = sum(d * (d - 1) for d in partition)
            if 1 not in partition and B <= 30:
                expected[B].append(partition)
        for B, partitions in expected.items():
            assert sorted(map(expand, search._pronic_partitions(B, B))) == \
                sorted(partitions)


    @staticmethod
    def unpruned(B, largest):
        """The lister with no feasibility table."""
        if B == 0:
            yield ()
            return
        for d in range(min(largest, (1 + isqrt(4 * B + 1)) // 2), 1, -1):
            for k in range(1, B // (d * (d - 1)) + 1):
                for rest in TestPronicPartitions.unpruned(
                        B - k * d * (d - 1), d - 1):
                    yield ((d, k),) + rest

    def test_same_runs_in_the_same_order(self):
        for B in range(121):
            for largest in (B, 4, 2, 1):
                assert list(search._pronic_partitions(B, largest)) == \
                    list(self.unpruned(B, largest)), (B, largest)

    def test_feasibility_table_is_parity(self):
        """The lister's rule equals the table ok[d][r]: r is a sum of
        parts j (j - 1) with 2 <= j <= d."""
        ok = [[True] + [False] * 200] * 2
        for d in range(2, 16):
            row = ok[-1][:]
            for r in range(d * (d - 1), 201):
                row[r] = row[r] or row[r - d * (d - 1)]
            ok.append(row)
        assert all(ok[d][r] == (r == 0 or (d >= 2 and r % 2 == 0))
                   for d in range(16) for r in range(201))

    def test_every_call_yields(self, monkeypatch):
        """No branch that yields nothing is entered: at R = 100 the
        lister is called 818 times, recursion included, for its 417
        partitions (the unpruned lister, 5,159 times)."""
        calls = []
        real = search._pronic_partitions

        def counting(B, largest):
            calls.append(1)
            return real(B, largest)

        monkeypatch.setattr(search, "_pronic_partitions", counting)
        partitions = list(search._pronic_partitions(100, 100))
        assert len(partitions) == len(set(partitions)) == 417
        assert len(calls) < 2 * len(partitions)


class TestRunsInvariant:
    """A case holds its partition only as runs: degrees strictly
    decreasing, multiplicities >= 1, degree 1 only in the last run, and
    `partition` is their expansion."""

    @pytest.mark.parametrize("config", [
        pn_config(n_min=400, n_max=400), DEFAULT_BOUNDS["hypersurface"]],
        ids=["pn-400", "hypersurface-default"])
    def test_every_case(self, config):
        cases = enumerate_cases(config)
        assert cases
        for case in cases:
            degrees = [d for d, _ in case.runs]
            assert all(a > b for a, b in zip(degrees, degrees[1:]))
            assert all(k >= 1 for _, k in case.runs)
            assert 1 not in degrees[:-1]
            assert case.partition == expand(case.runs)

    def test_traced_peak_below_3mb(self):
        """n = 500 has 2,133 cases of about 220 components each: their
        expanded degree tuples alone would take about 4 MB."""
        tracemalloc.start()
        try:
            assert enumerate_cases(pn_config(n_min=500, n_max=500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


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
        solve = search._solve
        monkeypatch.setattr(search, "_solve", lambda config, B: dict.fromkeys(
            solve(config, B), ("n", "n1")))
        with pytest.raises(VerificationError) as error:
            enumerate_cases(hyp_config(n_min=7, n_max=7))
        assert str(error.value) == (
            "the solver gives modes ('n', 'n1') but full_report gives "
            "('n1',) on (hypersurface, n=7, q=2, partition=(1, 1, 1))")

    @pytest.mark.parametrize("family, q_max, where", [
        ("pn", None, "(pn, n=7, q=1, "),
        ("hypersurface", 20, "(hypersurface, n=7, q=2, ")],
        ids=["pn", "hypersurface"])
    def test_error_names_the_smallest_n(self, monkeypatch, family, q_max,
                                        where):
        # no case has no modes, so every case in the box disagrees
        solve = search._solve
        monkeypatch.setattr(search, "_solve", lambda config, B: dict.fromkeys(
            solve(config, B), ()))
        with pytest.raises(VerificationError) as error:
            enumerate_cases(SearchConfig(family, 7, 20, q_max=q_max))
        assert where in str(error.value)


class TestGroupSharing:
    """The cases of one (n, q) share one model, its default polarization
    and one class per degree; each still gets its own pair and report."""

    @pytest.mark.parametrize("family, models, cases", [
        ("pn", 29, 65), ("hypersurface", 48, 98)])
    def test_one_model_per_n_and_q(self, monkeypatch, family, models,
                                   cases):
        built = []
        real_init = AmbientModel.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(AmbientModel, "__init__", counting_init)
        found = enumerate_cases(DEFAULT_BOUNDS[family])
        assert len(built) == models
        assert len(found) == cases
        assert len({(case.n, case.q) for case in found}) == models

    @pytest.mark.parametrize("family, groups", [("pn", 29),
                                                ("hypersurface", 48)])
    def test_one_reporter_per_group(self, tangent_calls, family, groups):
        """H is checked, and the tangent data read, once per (n, q)
        group, not once per case."""
        enumerate_cases(DEFAULT_BOUNDS[family])
        assert sorted(tangent_calls) == ["_check_polarization"] * groups \
            + ["tangent_coefficients"] * groups

    @pytest.mark.parametrize("family, q, where", [
        ("pn", 1, "(pn, n=8, q=1, partition=(2, 1, 1, 1))"),
        ("hypersurface", 2,
         "(hypersurface, n=8, q=2, partition=(1, 1, 1, 1))")])
    def test_every_case_of_a_group_is_reverified(self, monkeypatch, capsys,
                                                 family, q, where):
        """The group's reporter disagrees only on the second of the
        group's three or four cases; the run must still name that case."""
        group = [case for case in enumerate_cases(DEFAULT_BOUNDS[family])
                 if (case.n, case.q) == (8, q)]
        assert len(group) >= 3
        assert where.endswith(f"partition={group[1].partition})")
        calls = []

        def second_disagrees(model, H=None):
            evaluate = reporter(model, H)
            if (model.n, model.q) != (8, q):
                return evaluate

            def report_of(pair):
                report = evaluate(pair)
                calls.append(pair)
                if len(calls) != 2:
                    return report
                return BGReport(report.rank, report.c1_sq, report.c2_eval,
                                not report.equality_n,
                                report.equality_n_plus_1,
                                report.minus_k_plus_d_nef,
                                report.polarization)

            return report_of

        monkeypatch.setattr(search, "reporter", second_disagrees)
        assert main(["enumerate", "--family", family]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.endswith(f"on {where}\n")
        assert len(calls) == 2

    @pytest.mark.parametrize("family, checks", [("pn", 46),
                                                ("hypersurface", 48)])
    def test_one_class_check_per_degree_of_a_group(self, monkeypatch,
                                                   family, checks):
        """The class of a degree is checked once per (n, q) group, when
        it is first built, not once per case."""
        calls = []
        real = logchern.is_prime_class
        monkeypatch.setattr(logchern, "is_prime_class",
                            lambda model, cls: calls.append(1)
                            or real(model, cls))
        found = enumerate_cases(DEFAULT_BOUNDS[family])
        assert len(calls) == checks == len(
            {(case.n, case.q, d) for case in found for d, _ in case.runs})
