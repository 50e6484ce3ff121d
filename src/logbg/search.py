"""Bounded exhaustive search for equality cases.

Two families: hypersurface arrangements of degrees d_1 >= ... >= d_l on
P^n, and arrangements of l degree-1 sections on a degree-q hypersurface
in P^{n+1}.  The equality conditions are integer equations, so the
search solves them instead of scanning the box: on P^n for the sum of
squares of the degrees at each degree sum, on a hypersurface for the
integer roots of a quadratic in the c1 coefficient t = n + 2 - q - l.
That quadratic has real roots only while 4 q (q - 1) <= n + 1 (its
largest rank), so the hypersurface work at each n stops there, however
large the q box is.

Both families share one pipeline.  A per-family generator in
_SOLUTIONS yields the (q, partition, modes) solutions at one n; _slice
re-evaluates each through the full cycle-arithmetic pipeline, so the
emitted reports never depend on the solver, and sorts them.
enumerate_cases partitions the box by n; worker count never changes the
output because the slices are merged in canonical sort order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import isqrt

from .bg import BGReport, full_report
from .chow import ChowError
from .logchern import hypersurface_pair, pn_pair

MODES = ("n", "n1", "either")


class SearchSpaceError(ChowError):
    """Invalid or contradictory search configuration."""


class VerificationError(Exception):
    """A closed form disagrees with the full cycle-arithmetic pipeline."""


@dataclass(frozen=True)
class SearchConfig:
    family: str  # a key of _SOLUTIONS
    n_min: int
    n_max: int
    mode: str = "either"
    require_nef: bool = True
    exclude_trivial: bool = True
    s_max: int | None = None
    q_min: int = 2
    q_max: int | None = None

    def __post_init__(self):
        if self.family not in _SOLUTIONS:
            raise SearchSpaceError(f"unknown family {self.family!r}")
        if self.mode not in MODES:
            raise SearchSpaceError(f"unknown mode {self.mode!r}")
        if self.n_min < 2 or self.n_min > self.n_max:
            raise SearchSpaceError(
                f"empty or invalid dimension range [{self.n_min}, {self.n_max}]")
        if self.s_max is not None and self.s_max < 1:
            raise SearchSpaceError("s_max must be positive")
        if self.family == "pn":
            if self.q_max is not None:
                raise SearchSpaceError("q bounds only apply to hypersurfaces")
        else:
            if self.q_max is None or self.q_min < 1 or self.q_min > self.q_max:
                raise SearchSpaceError(
                    f"invalid degree range [{self.q_min}, {self.q_max}]")

    def degree_cap(self, n: int, q: int = 1) -> int:
        """Cap on the total boundary degree at dimension n on a degree-q
        hypersurface (P^n at q = 1).  Under the nef filter -(K + D) is nef
        only up to degree n + 2 - q, which may be negative."""
        cap = 3 * (n + 1) if self.s_max is None else self.s_max
        return min(cap, n + 2 - q) if self.require_nef else cap


@dataclass(frozen=True)
class EqualityCase:
    family: str
    n: int
    q: int  # 1 for the P^n family
    partition: tuple[int, ...]  # component degrees, non-increasing
    modes: tuple[str, ...]  # subset of ("n", "n1")
    nef: bool
    report: BGReport

    def key(self):
        return (self.n, self.q, len(self.partition), self.partition)


# -- closed forms ----------------------------------------------------------
#
# P^n is numerically the degree-1 hypersurface, so one formula covers
# both families.  On a degree-q hypersurface in P^{n+1} (P^n at q = 1)
# with components of degrees d_i, sum s and sum of squares p2:
# c1 = (n+2-q-s) h and 2 c2 = (a - 2bs + s^2 + p2) h^2 with
# a = (n+2)(n+1) - 2qb and b = n+2-q, the common factor deg(h^n) = q
# cancelling from the vanishing condition.  The hypersurface family has
# l degree-1 components, so s = p2 = l.  With t the c1 coefficient, the
# rank-k discriminant vanishes iff k * (2 c2) == (k-1) * t^2: a pure
# integer test, at k = n for mode "n" and k = n+1 for mode "n1".


def _c2_x2(n: int, q: int, s: int, p2: int) -> int:
    b = n + 2 - q
    return (n + 2) * (n + 1) - 2 * q * b - 2 * b * s + s * s + p2


def _modes(n: int, q: int, s: int, p2: int) -> tuple[str, ...]:
    t = n + 2 - q - s
    c2_x2 = _c2_x2(n, q, s, p2)
    return tuple(mode for mode, k in (("n", n), ("n1", n + 1))
                 if k * c2_x2 == (k - 1) * t * t)


def pn_modes_closed_form(n: int, partition: tuple[int, ...]) -> tuple[str, ...]:
    return _modes(n, 1, sum(partition), sum(d * d for d in partition))


def hyp_modes_closed_form(n: int, q: int, l: int) -> tuple[str, ...]:
    return _modes(n, q, l, l)


def report_modes(report: BGReport) -> tuple[str, ...]:
    modes = []
    if report.equality_n:
        modes.append("n")
    if report.equality_n_plus_1:
        modes.append("n1")
    return tuple(modes)


def _mode_hit(modes: tuple[str, ...], wanted: str) -> bool:
    if wanted == "either":
        return bool(modes)
    return wanted in modes


def _ranks(n: int, mode: str) -> tuple[int, ...]:
    return {"n": (n,), "n1": (n + 1,), "either": (n, n + 1)}[mode]


# -- solvers ---------------------------------------------------------------
#
# Both closed forms are solved for the free quantity instead of scanning
# it.  On P^n the rank-k test fixes p2 given (n, s).  On a hypersurface,
# s = p2 = l and t = b - l.  Then a - b^2 = q^2 - (n + 2) and
# s^2 - 2 b s = t^2 - b^2, so
#   2 c2 = t^2 + q^2 - (n + 2) + (b - t) = t^2 - t + q (q - 1),
# and k * (2 c2) == (k-1) * t^2 becomes
#   t^2 - k t + k q (q - 1) = 0.
# Its discriminant k^2 - 4 k q (q - 1) is negative once 4 q (q - 1) > k,
# that is once (2q - 1)^2 > k + 1, or q > (isqrt(k + 1) + 1) // 2.  With
# k the mode's largest rank (at most n + 1), no q past that bound can
# give a case.  Both
# roots are at least q (q - 1) >= 0: their sum is k and their product
# k q (q - 1), so the smaller is k q (q - 1) / (larger) >= q (q - 1).
# Hence l <= n + 2 - q, and the nef filter never drops a hypersurface
# case.  The solutions are taken in integers, rounding down, and kept
# only where the closed form holds.


def _pn_square_sums(n: int, s: int, mode: str) -> set[int]:
    """The sums of squares p2 at which a partition of s meets `mode` on
    P^n (at most one per rank)."""
    t = n + 1 - s
    base = _c2_x2(n, 1, s, 0)
    candidates = {((k - 1) * t * t - k * base) // k for k in _ranks(n, mode)}
    return {p2 for p2 in candidates if _mode_hit(_modes(n, 1, s, p2), mode)}


def _partitions_with_square_sum(s: int, p2: int):
    """Non-increasing positive integer partitions of s whose squares sum
    to p2 (the empty partition when s = p2 = 0)."""

    # r is the part sum still to place and p its sum of squares; with
    # every part in [1, largest], r <= p <= largest * r must hold.
    def gen(r: int, p: int, largest: int):
        if r == 0:
            yield ()
            return
        for first in range(min(largest, r), -(-p // r) - 1, -1):
            rest_r, rest_p = r - first, p - first * first
            if rest_r <= rest_p <= first * rest_r:
                for rest in gen(rest_r, rest_p, first):
                    yield (first,) + rest

    if s <= p2 <= s * s:
        yield from gen(s, p2, s)


def _hyp_q_top(n: int, mode: str) -> int:
    """The largest q at which t^2 - k t + k q (q - 1) = 0 has real roots
    for some rank k of `mode` at dimension n."""
    return (isqrt(max(_ranks(n, mode)) + 1) + 1) // 2


def _hyp_component_counts(n: int, q: int, mode: str) -> set[int]:
    """The integers l >= 0 at which l degree-1 components on a degree-q
    hypersurface meet `mode` (at most two per rank)."""
    b = n + 2 - q
    candidates = set()
    for k in _ranks(n, mode):
        disc = k * k - 4 * k * q * (q - 1)
        if disc >= 0:
            root = isqrt(disc)
            candidates.update((b - (k - root) // 2, b - (k + root) // 2))
    return {l for l in candidates
            if l >= 0 and _mode_hit(_modes(n, q, l, l), mode)}


def _verified_case(family: str, n: int, q: int, partition: tuple[int, ...],
                   modes: tuple[str, ...]) -> EqualityCase:
    pair = (pn_pair(n, partition) if family == "pn"
            else hypersurface_pair(n, q, len(partition)))
    report = full_report(pair)
    if report_modes(report) != modes:
        raise VerificationError(
            f"closed form gives modes {modes} but full_report gives "
            f"{report_modes(report)} on ({family}, n={n}, q={q}, "
            f"partition={partition})")
    return EqualityCase(family, n, q, partition, modes,
                        report.minus_k_plus_d_nef, report)


def _pn_solutions(config: SearchConfig, n: int):
    """(q, partition, modes) of each P^n case at dimension n."""
    for s in range(config.degree_cap(n) + 1):
        for p2 in _pn_square_sums(n, s, config.mode):
            for partition in _partitions_with_square_sum(s, p2):
                if config.exclude_trivial and partition in ((), (1,)):
                    continue
                yield 1, partition, pn_modes_closed_form(n, partition)


def _hyp_solutions(config: SearchConfig, n: int):
    """(q, partition, modes) of each hypersurface case at dimension n; q
    stops at _hyp_q_top, past which no rank has a real root."""
    q_max = min(config.q_max, _hyp_q_top(n, config.mode))
    for q in range(config.q_min, q_max + 1):
        l_cap = config.degree_cap(n, q)
        for l in _hyp_component_counts(n, q, config.mode):
            if l > l_cap or (config.exclude_trivial and l == 0):
                continue
            yield q, (1,) * l, hyp_modes_closed_form(n, q, l)


_SOLUTIONS = {"pn": _pn_solutions, "hypersurface": _hyp_solutions}


def _slice(args) -> list[EqualityCase]:
    """The verified cases at one n, in canonical order."""
    config, n = args
    cases = [_verified_case(config.family, n, q, partition, modes)
             for q, partition, modes in _SOLUTIONS[config.family](config, n)]
    cases.sort(key=EqualityCase.key)
    return cases


def pool_size(workers: int, slices: int) -> int:
    """Worker processes for `slices` n-slices: the request clamped to the
    slice count and the CPU count."""
    if workers < 1:
        raise SearchSpaceError(f"workers must be at least 1, got {workers}")
    return min(workers, slices, os.cpu_count() or 1)


def enumerate_cases(config: SearchConfig,
                    workers: int = 1) -> list[EqualityCase]:
    jobs = [(config, n) for n in range(config.n_min, config.n_max + 1)]
    workers = pool_size(workers, len(jobs))
    if workers == 1:
        slices = [_slice(job) for job in jobs]
    else:
        # imported here: the pool loads multiprocessing, which a serial
        # run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            slices = list(pool.map(_slice, jobs))
    return [case for chunk in slices for case in chunk]


DEFAULT_BOUNDS = {
    "pn": SearchConfig(family="pn", n_min=2, n_max=30),
    "hypersurface": SearchConfig(family="hypersurface", n_min=2, n_max=160,
                                 q_min=2, q_max=160),
}
