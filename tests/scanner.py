"""The scan-then-screen search that the solver in logbg.search replaced.

It walks every candidate in a search box and keeps those its own integer
closed form accepts, so it is only usable on boxes small enough to scan.
Tests compare the solver against it, and the closed form against
`direct_modes`.  It imports nothing from logbg but full_report and
report_modes, so it shares no code with the solver.
"""

from logbg.bg import full_report
from logbg.search import report_modes


def direct_modes(pair):
    """Evaluation by full_report; the oracle for the closed form."""
    return report_modes(full_report(pair))


def closed_form_modes(n, q, s, p2):
    """The modes of a degree-q hypersurface in P^{n+1} (P^n at q = 1)
    whose components have degrees of sum s and sum of squares p2: with
    t = n + 2 - q - s and B = q (q - 1) + p2 - s, rank-k equality is
    k (t^2 - t + B) == (k - 1) t^2, at k = n ("n") and k = n + 1 ("n1")."""
    t = n + 2 - q - s
    B = q * (q - 1) + p2 - s
    return tuple(mode for mode, k in (("n", n), ("n1", n + 1))
                 if k * (t * t - t + B) == (k - 1) * t * t)


def pn_modes(n, partition):
    """closed_form_modes of P^n with components of these degrees."""
    return closed_form_modes(n, 1, sum(partition),
                             sum(d * d for d in partition))


def partitions_with_sum_at_most(s_max: int):
    """Non-increasing positive integer partitions with sum <= s_max,
    including the empty partition."""

    def gen(remaining: int, largest: int):
        yield ()
        for first in range(min(largest, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(s_max, s_max)


def _mode_hit(modes, wanted):
    return bool(modes) if wanted == "either" else wanted in modes


def _degree_cap(config, n, q=1):
    """The largest total degree scanned at dimension n on a degree-q
    hypersurface (P^n at q = 1): s_max, or 3 (n + 1) without it, and under
    the nef filter at most n + 2 - q, past which -(K + D) is not nef."""
    cap = 3 * (n + 1) if config.s_max is None else config.s_max
    return min(cap, n + 2 - q) if config.require_nef else cap


def scan_pn(config):
    """(n, 1, partition, modes) for every screened hit, in canonical order."""
    hits = []
    for n in range(config.n_min, config.n_max + 1):
        for partition in partitions_with_sum_at_most(_degree_cap(config, n)):
            if config.exclude_trivial and partition in ((), (1,)):
                continue
            modes = pn_modes(n, partition)
            if _mode_hit(modes, config.mode):
                hits.append((n, 1, partition, modes))
    return sorted(hits, key=lambda h: (h[0], len(h[2]), h[2]))


def scan_hypersurface(config):
    """(n, q, (1,) * l, modes) for every screened hit, in canonical order."""
    hits = []
    for n in range(config.n_min, config.n_max + 1):
        for q in range(config.q_min, config.q_max + 1):
            for l in range(0, max(_degree_cap(config, n, q), 0) + 1):
                if config.exclude_trivial and l == 0:
                    continue
                modes = closed_form_modes(n, q, l, l)
                if _mode_hit(modes, config.mode):
                    hits.append((n, q, (1,) * l, modes))
    return hits

