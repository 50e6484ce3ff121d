"""Bounded exhaustive search for equality cases.

Two families: hypersurface arrangements of degrees d_1 >= ... >= d_l on
P^n, and arrangements of l degree-1 sections on a degree-q hypersurface
in P^{n+1}.  The search does not scan its box: rank-k equality is the
integer quadratic t^2 - k t + k B = 0 in the c1 coefficient t, with B
fixed by q and the degrees, solved once per B, as the comment block
above report_modes derives.  So the search is exhaustive, the nef
filter drops nothing, and hypersurface work does not grow with the q
box.

Both families share one pipeline.  _plan solves each B and keeps the
roots (n, t) that survive the box, the mode, --s-max and the trivial
rule, each with its modes, the ranks that produced it; it lists
nothing.  enumerate_cases lists the pronic partitions of each
R = B - q (q - 1) in the plan once, ends them with a run of ones for
each of R's roots, sorts the cases and re-verifies each, in canonical
order, through the integer core (bg.reporter), so the emitted reports
never depend on the solver.  The cases of one (n, q) share one model,
one reporter and one class per degree, checked once, by the pair that
first builds it; each case still gets its own pair and report.  A case
is held as its runs from the lister to the record, so building and
verifying it costs O(runs), not O(l); the pair's components and the
case's partition list every part only when read.
"""

from __future__ import annotations

import sys
from itertools import groupby
from math import isqrt
from operator import itemgetter

from .bg import BGReport, reporter
from .logchern import _pair_from_runs
from .models import (AmbientModel, ChowError, Value, _set, hypersurface,
                     projective_space)

MODES = ("n", "n1", "either")


class SearchSpaceError(ChowError):
    """Invalid or contradictory search configuration."""


class VerificationError(Exception):
    """The re-verification through bg.reporter disagrees with the
    solver: on a root's modes, or on the nefness of -(K + D)."""


class SearchConfig(Value):
    __slots__ = ("family", "n_min", "n_max", "mode", "require_nef",
                 "exclude_trivial", "s_max", "q_min", "q_max")

    def __init__(self, family: str, n_min: int, n_max: int,
                 mode: str = "either", require_nef: bool = True,
                 exclude_trivial: bool = True, s_max: int | None = None,
                 q_min: int = 2, q_max: int | None = None):
        # exactly int, as model parameters are: True would echo true
        for name, bound in {"n_min": n_min, "n_max": n_max, "q_min": q_min,
                            "q_max": q_max, "s_max": s_max}.items():
            if type(bound) is not int and not (
                    bound is None and name in ("q_max", "s_max")):
                raise TypeError(
                    f"{name} must be int, got {type(bound).__name__}")
        if family not in ("pn", "hypersurface"):
            raise SearchSpaceError(f"unknown family {family!r}")
        if mode not in MODES:
            raise SearchSpaceError(f"unknown mode {mode!r}")
        if n_min < 2 or n_min > n_max:
            raise SearchSpaceError(
                f"empty or invalid dimension range [{n_min}, {n_max}]")
        # a case has at most n + 1 components; its partition, read by the
        # table output, is a tuple of them, whose length must be an index
        if n_max + 2 > sys.maxsize:
            raise SearchSpaceError(
                f"dimension {n_max} is too large: a partition of up to "
                f"{n_max + 1} parts cannot be built")
        if s_max is not None and s_max < 1:
            raise SearchSpaceError("s_max must be positive")
        if family == "pn":
            if q_max is not None:
                raise SearchSpaceError("q bounds only apply to hypersurfaces")
        else:
            if q_max is None or q_min < 1 or q_min > q_max:
                raise SearchSpaceError(
                    f"invalid degree range [{q_min}, {q_max}]")
        _set(self, "family", family)
        _set(self, "n_min", n_min)
        _set(self, "n_max", n_max)
        _set(self, "mode", mode)
        _set(self, "require_nef", require_nef)
        _set(self, "exclude_trivial", exclude_trivial)
        _set(self, "s_max", s_max)
        _set(self, "q_min", q_min)
        _set(self, "q_max", q_max)


class EqualityCase(Value):
    __slots__ = ("family", "n", "q", "runs", "modes", "report")

    def __init__(self, family: str, n: int, q: int,
                 runs: tuple[tuple[int, int], ...], modes: tuple[str, ...],
                 report: BGReport):
        _set(self, "family", family)
        _set(self, "n", n)
        _set(self, "q", q)  # 1 for the P^n family
        # (degree, multiplicity >= 1) runs, degrees strictly decreasing
        _set(self, "runs", runs)
        _set(self, "modes", modes)  # subset of ("n", "n1")
        _set(self, "report", report)

    @property
    def partition(self) -> tuple[int, ...]:
        """The component degrees, non-increasing, expanded on each read."""
        return tuple(d for d, k in self.runs for _ in range(k))


# -- one quadratic for both families ---------------------------------------
#
# P^n is numerically the degree-1 hypersurface, so one derivation covers
# both families.  On a degree-q hypersurface in P^{n+1} (P^n at q = 1)
# with components of degrees d_i, sum s and sum of squares p2, put
# b = n + 2 - q.  Then c1 = t h with t = b - s, and
#   2 c2 = ((n+2)(n+1) - 2 q b - 2 b s + s^2 + p2) h^2,
# the common factor deg(h^n) = q cancelling from the vanishing condition.
# As s^2 - 2 b s = t^2 - b^2 and (n+2)(n+1) - 2 q b - b^2 = q^2 - (n+2)
# = q^2 - q - s - t,
#   2 c2 = t^2 - t + B,  B = q (q - 1) + (p2 - s)
#                          = q (q - 1) + sum d_i (d_i - 1),
# and rank-k equality, k * (2 c2) == (k - 1) * t^2, is
#   t^2 - k t + k B = 0,
# at k = n for mode "n" and k = n + 1 for mode "n1": a root's modes are
# the ranks that produced it.  Each family fixes one term of B:
# P^n has q = 1, so B is a sum of pronic numbers d (d - 1) over the parts
# d >= 2; the hypersurface family has l degree-1 components
# (s = p2 = l), so B = q (q - 1).
#
# Each B is solved for (k, t).  At B = 0 the roots are t = 0 and t = k at
# every k.  At B > 0, k (t - B) = t^2 forces t > B, and u = t - B divides
# (u + B)^2, hence B^2: the roots are t = u + B at k = u + 2 B + B^2 / u
# for the divisors u of B^2, up to the box's largest rank k_max.
#
# The roots sum to k and multiply to k B >= 0, so 0 <= t <= k and
# B = t (k - t) / k <= k / 4: no B past k_max // 4, and so no q with
# q (q - 1) > k_max // 4, has a real root.  As t >= 0, -(K + D) = t h is
# nef at every solution, so the nef filter never drops a case.  Every
# root fits a case.  On P^n, s = n + 1 - t >= k - t >= t (k - t) / k
# = B >= sum d over the pronic parts, so the run of ones that completes
# them to s never numbers below 0.  On a hypersurface the smaller root is
# k B / (larger) >= B, so t <= k - B and l = n + 2 - q - t
# >= (q - 1)^2 >= 0.  Only R = B - q (q - 1) = 0 has the partition with
# no parts, so the trivial rule drops roots, not partitions.


def report_modes(report: BGReport) -> tuple[str, ...]:
    modes = []
    if report.equality_n:
        modes.append("n")
    if report.equality_n_plus_1:
        modes.append("n1")
    return tuple(modes)


def _square_divisors(B: int) -> list[int]:
    """The divisors of B^2, B >= 1, from the prime factors of B."""
    divisors, p, rest = [1], 2, B
    while p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        divisors = [d * p ** i for d in divisors for i in range(2 * e + 1)]
        p += 1
    if rest > 1:
        divisors = [d * rest ** i for d in divisors for i in range(3)]
    return divisors


def _solve(config: SearchConfig, B: int) -> dict[tuple[int, int], tuple]:
    """The (n, t) with n in the box and t^2 - k t + k B = 0 at k = n or
    k = n + 1, each with its modes: "n" for k = n, "n1" for k = n + 1."""
    if B:
        roots = [(u + 2 * B + B * B // u, u + B) for u in _square_divisors(B)]
    else:
        roots = [(k, t) for k in range(config.n_min, config.n_max + 2)
                 for t in (0, k)]
    solved = {}
    for shift, mode in enumerate(("n", "n1")):
        for k, t in roots:
            if config.n_min <= k - shift <= config.n_max:
                solved[k - shift, t] = solved.get((k - shift, t), ()) + (mode,)
    return solved


def _pronic_partitions(B: int, largest: int):
    """The partitions of B into pronic numbers d (d - 1), d in
    [2, largest], as runs ((d, k), ...): d strictly decreasing, each
    with its multiplicity k >= 1 (no runs at B = 0).  Pronic numbers are
    even and 2 is one, so a rest has a partition into degrees up to d iff
    it is 0, or even with d >= 2: only such a rest is entered."""
    if B == 0:
        yield ()
        return
    for d in range(min(largest, (1 + isqrt(4 * B + 1)) // 2), 1, -1):
        pronic = d * (d - 1)
        for k in range(1, B // pronic + 1):
            rest = B - k * pronic
            if rest == 0 or (d > 2 and rest % 2 == 0):
                for runs in _pronic_partitions(rest, d - 1):
                    yield ((d, k),) + runs


def _verified_case(family: str, model: AmbientModel, evaluate,
                   classes: dict, runs: tuple,
                   modes: tuple[str, ...]) -> EqualityCase:
    report = evaluate(_pair_from_runs(model, runs, classes))
    got = report_modes(report)
    if got == modes and report.minus_k_plus_d_nef:
        return EqualityCase(family, model.n, model.q, runs, modes, report)
    partition = tuple(d for d, k in runs for _ in range(k))
    where = f"({family}, n={model.n}, q={model.q}, partition={partition})"
    if got != modes:
        raise VerificationError(
            f"the solver gives modes {modes} but full_report gives "
            f"{got} on {where}")
    raise VerificationError(
        f"full_report gives -(K+D) not nef on {where}, but every "
        "solution has t >= 0")


def _plan(config: SearchConfig) -> dict[int, list[tuple]]:
    """The roots that survive the box, the mode, s_max and the trivial
    rule, as (n, q, s, modes), grouped by R = B - q (q - 1), the pronic
    sum of their cases' parts; s = n + 2 - q - t sums all the parts."""
    pn = config.family == "pn"
    # a case with no parts and at most this many ones is trivial
    trivial_ones = 1 if pn else 0
    B_max = (config.n_max + (config.mode != "n")) // 4
    plan = {}
    for q in (1,) if pn else range(config.q_min, config.q_max + 1):
        B_q = q * (q - 1)
        if B_q > B_max:
            break
        for B in range(B_q, B_max + 1 if pn else B_q + 1):
            for (n, t), modes in _solve(config, B).items():
                s = n + 2 - q - t
                if ((config.mode == "either" or config.mode in modes)
                        and (config.s_max is None or s <= config.s_max)
                        and not (config.exclude_trivial and B == B_q
                                 and s <= trivial_ones)):
                    plan.setdefault(B - B_q, []).append((n, q, s, modes))
    return plan


def enumerate_cases(config: SearchConfig) -> list[EqualityCase]:
    """The verified cases in the box, in canonical order, which is also
    the order they are verified in: a failure names the first."""
    family = config.family
    solutions = []
    for R, roots in _plan(config).items():
        # each of R's partitions once, with its part count and degree sum
        listed = [(runs, sum(k for _, k in runs), sum(d * k for d, k in runs))
                  for runs in _pronic_partitions(R, R)]
        # canonical order is (n, q, component count, partition); at equal
        # count runs compare as partitions do, and (n, q, runs) is unique
        solutions += [(n, q, parts + s - size,
                       runs + ((1, s - size),) if s > size else runs, modes)
                      for n, q, s, modes in roots
                      for runs, parts, size in listed]
    solutions.sort()
    cases = []
    for (n, q), group in groupby(solutions, key=itemgetter(0, 1)):
        model = projective_space(n) if family == "pn" else hypersurface(n, q)
        evaluate, classes = reporter(model), {}
        cases += [_verified_case(family, model, evaluate, classes, runs,
                                 modes)
                  for _, _, _, runs, modes in group]
    return cases


DEFAULT_BOUNDS = {
    "pn": SearchConfig(family="pn", n_min=2, n_max=30),
    "hypersurface": SearchConfig(family="hypersurface", n_min=2, n_max=160,
                                 q_min=2, q_max=160),
}
