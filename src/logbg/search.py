"""Bounded exhaustive search for equality cases.

Two families: hypersurface arrangements of degrees d_1 >= ... >= d_l on
P^n, and arrangements of l degree-1 sections on a degree-q hypersurface
in P^{n+1}.  The search does not scan its box.  In both families, with
t the c1 coefficient and B = q (q - 1) + sum d_i (d_i - 1) (q = 1 on
P^n), rank-k equality is the integer quadratic t^2 - k t + k B = 0, so
one root finder, _roots, serves both: on P^n it is solved at each
B <= k / 4 and each root is spread over the partitions of B into pronic
parts d (d - 1); on a hypersurface B = q (q - 1), which has real roots
only while 4 q (q - 1) <= k, so the work at each n stops there however
large the q box is.  Every root has 0 <= t <= k, so -(K + D) = t h is
nef at every solution, and the nef filter never drops a case.

Both families share one pipeline.  A per-family generator in
_SOLUTIONS yields the (q, partition, modes) solutions at one n;
enumerate_cases re-evaluates each through the full cycle-arithmetic
pipeline, so the emitted reports never depend on the solver, and sorts
them once in canonical order.  The P^n screen reads the pronic parts and
the count of ones, and pn_pair and hypersurface_pair build each pair
from runs of equal classes, so building and verifying a case costs
O(distinct classes), not O(l); the pair's components are built only if
read, and only the emitted partition lists every part.
"""

from __future__ import annotations

import sys
from math import isqrt

from .bg import BGReport, full_report
from .chow import ChowError, Value, _set
from .logchern import hypersurface_pair, pn_pair

MODES = ("n", "n1", "either")


class SearchSpaceError(ChowError):
    """Invalid or contradictory search configuration."""


class VerificationError(Exception):
    """The full cycle-arithmetic pipeline disagrees with the solver: on a
    closed form's modes, or on the nefness of -(K + D)."""


class SearchConfig(Value):
    __slots__ = ("family", "n_min", "n_max", "mode", "require_nef",
                 "exclude_trivial", "s_max", "q_min", "q_max")

    def __init__(self, family: str, n_min: int, n_max: int,
                 mode: str = "either", require_nef: bool = True,
                 exclude_trivial: bool = True, s_max: int | None = None,
                 q_min: int = 2, q_max: int | None = None):
        if family not in _SOLUTIONS:
            raise SearchSpaceError(f"unknown family {family!r}")
        if mode not in MODES:
            raise SearchSpaceError(f"unknown mode {mode!r}")
        if n_min < 2 or n_min > n_max:
            raise SearchSpaceError(
                f"empty or invalid dimension range [{n_min}, {n_max}]")
        # a case has at most n + 1 components, and its partition is a
        # tuple, whose length must be a sequence index
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
        _set(self, "family", family)  # a key of _SOLUTIONS
        _set(self, "n_min", n_min)
        _set(self, "n_max", n_max)
        _set(self, "mode", mode)
        _set(self, "require_nef", require_nef)
        _set(self, "exclude_trivial", exclude_trivial)
        _set(self, "s_max", s_max)
        _set(self, "q_min", q_min)
        _set(self, "q_max", q_max)


class EqualityCase(Value):
    __slots__ = ("family", "n", "q", "partition", "modes", "report")

    def __init__(self, family: str, n: int, q: int,
                 partition: tuple[int, ...], modes: tuple[str, ...],
                 report: BGReport):
        _set(self, "family", family)
        _set(self, "n", n)
        _set(self, "q", q)  # 1 for the P^n family
        # component degrees, non-increasing
        _set(self, "partition", partition)
        _set(self, "modes", modes)  # subset of ("n", "n1")
        _set(self, "report", report)

    def key(self):
        return (self.n, self.q, len(self.partition), self.partition)


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
# at k = n for mode "n" and k = n + 1 for mode "n1".  Each family fixes
# one term of B: P^n has q = 1, so B is a sum of pronic numbers d (d - 1)
# over the parts d >= 2; the hypersurface family has l degree-1
# components (s = p2 = l), so B = q (q - 1).  The search solves for t.
#
# The roots sum to k and multiply to k B >= 0, so 0 <= t <= k and
# B = t (k - t) / k <= k / 4: no B past k // 4, and no q with
# (2q - 1)^2 > k + 1, that is past (isqrt(k + 1) + 1) // 2, has a real
# root.  As t >= 0, -(K + D) = t h is nef at every solution, so the nef
# filter never drops a case.  Every root fits a case.  On P^n,
# s = n + 1 - t >= k - t >= t (k - t) / k = B >= sum d over the pronic
# parts, so the ones that pad them to s never number below 0.  On a
# hypersurface the smaller root is k B / (larger) >= B, so t <= k - B and
# l = n + 2 - q - t >= (q - 1)^2 >= 0.


def _modes(n: int, q: int, s: int, p2: int) -> tuple[str, ...]:
    t = n + 2 - q - s
    B = q * (q - 1) + p2 - s
    return tuple(mode for mode, k in (("n", n), ("n1", n + 1))
                 if k * (t * t - t + B) == (k - 1) * t * t)


def pn_modes_closed_form(n: int, parts: tuple[int, ...],
                         ones: int = 0) -> tuple[str, ...]:
    """The modes of P^n with components of degrees `parts` and `ones`
    more hyperplanes; the search passes its pronic parts and the count of
    ones, so the screen never walks the padded partition."""
    return _modes(n, 1, sum(parts) + ones, sum(d * d for d in parts) + ones)


def hyp_modes_closed_form(n: int, q: int, l: int) -> tuple[str, ...]:
    return _modes(n, q, l, l)


def report_modes(report: BGReport) -> tuple[str, ...]:
    modes = []
    if report.equality_n:
        modes.append("n")
    if report.equality_n_plus_1:
        modes.append("n1")
    return tuple(modes)


def _ranks(n: int, mode: str) -> tuple[int, ...]:
    return {"n": (n,), "n1": (n + 1,), "either": (n, n + 1)}[mode]


def _roots(k: int, B: int) -> tuple[int, ...]:
    """The integers t with t^2 - k t + k B = 0."""
    disc = k * k - 4 * k * B
    root = isqrt(max(disc, 0))
    if root * root != disc:
        return ()
    # root = k mod 2, as root^2 = k^2 mod 4
    return (k - root) // 2, (k + root) // 2


def _c1_roots(n: int, mode: str, B: int) -> set[int]:
    """The c1 coefficients t at which some rank of `mode` meets equality."""
    return {t for k in _ranks(n, mode) for t in _roots(k, B)}


def _pronic_partitions(B: int, largest: int):
    """Non-increasing tuples of parts d in [2, largest] whose pronic
    numbers d (d - 1) sum to B (the empty tuple at B = 0)."""
    if B == 0:
        yield ()
        return
    for d in range(min(largest, (1 + isqrt(4 * B + 1)) // 2), 1, -1):
        for rest in _pronic_partitions(B - d * (d - 1), d):
            yield (d,) + rest


def _verified_case(family: str, n: int, q: int, partition: tuple[int, ...],
                   modes: tuple[str, ...]) -> EqualityCase:
    pair = (pn_pair(n, partition) if family == "pn"
            else hypersurface_pair(n, q, len(partition)))
    report = full_report(pair)
    where = f"({family}, n={n}, q={q}, partition={partition})"
    if report_modes(report) != modes:
        raise VerificationError(
            f"closed form gives modes {modes} but full_report gives "
            f"{report_modes(report)} on {where}")
    if not report.minus_k_plus_d_nef:
        raise VerificationError(
            f"full_report gives -(K+D) not nef on {where}, but every "
            "solution has t >= 0")
    return EqualityCase(family, n, q, partition, modes, report)


def _pn_solutions(config: SearchConfig, n: int):
    """(q, partition, modes) of each P^n case at dimension n: the pronic
    parts of each B, padded with ones to s = n + 1 - t."""
    for B in range(max(_ranks(n, config.mode)) // 4 + 1):
        for t in _c1_roots(n, config.mode, B):
            s = n + 1 - t
            if config.s_max is not None and s > config.s_max:
                continue
            for parts in _pronic_partitions(B, B):
                ones = s - sum(parts)
                if config.exclude_trivial and not parts and ones <= 1:
                    continue
                yield 1, parts + (1,) * ones, pn_modes_closed_form(
                    n, parts, ones)


def _hyp_solutions(config: SearchConfig, n: int):
    """(q, partition, modes) of each hypersurface case at dimension n: l
    degree-1 components with l = n + 2 - q - t at B = q (q - 1)."""
    k = max(_ranks(n, config.mode))
    for q in range(config.q_min,
                   min(config.q_max, (isqrt(k + 1) + 1) // 2) + 1):
        for t in _c1_roots(n, config.mode, q * (q - 1)):
            l = n + 2 - q - t
            if ((config.s_max is not None and l > config.s_max)
                    or (config.exclude_trivial and l == 0)):
                continue
            yield q, (1,) * l, hyp_modes_closed_form(n, q, l)


_SOLUTIONS = {"pn": _pn_solutions, "hypersurface": _hyp_solutions}


def enumerate_cases(config: SearchConfig) -> list[EqualityCase]:
    """The verified cases in the box, in canonical order."""
    solutions = _SOLUTIONS[config.family]
    cases = [_verified_case(config.family, n, q, partition, modes)
             for n in range(config.n_min, config.n_max + 1)
             for q, partition, modes in solutions(config, n)]
    cases.sort(key=EqualityCase.key)
    return cases


DEFAULT_BOUNDS = {
    "pn": SearchConfig(family="pn", n_min=2, n_max=30),
    "hypersurface": SearchConfig(family="hypersurface", n_min=2, n_max=160,
                                 q_min=2, q_max=160),
}
