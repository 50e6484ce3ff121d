"""The benchmark's workloads: the CLI arguments of one operation, its
input, and the oracle check of its output.

Every workload is one `logbg` command; an operation is one call of
`logbg.cli.main(argv)`.  Only `report-mixed` depends on the seed: its
descriptor document is drawn from the parameters in spec.json.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "spec.json")) as _fh:
    SPEC = json.load(_fh)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    stdin: str | None  # document fed to `report -`
    check: Callable[[str], list[str]]  # oracle on captured stdout

    @property
    def pool(self) -> bool:
        """Whether the command takes --workers, so the pool probe applies."""
        return "--workers" in self.argv

    def with_workers(self, workers: int) -> tuple[str, ...]:
        i = self.argv.index("--workers")
        return self.argv[:i + 1] + (str(workers),) + self.argv[i + 2:]


def _span(rng: random.Random, bounds: list[int]) -> int:
    return rng.randint(bounds[0], bounds[1])


def mixed_document(seed: int) -> dict:
    """A {"pairs": [...]} document drawn from spec.json's report_mixed
    parameters; the same seed gives the same document."""
    mix = SPEC["report_mixed"]
    rng = random.Random(seed)
    families = list(mix["family_weights"])
    weights = [mix["family_weights"][f] for f in families]
    counts = mix["component_count_weights"]
    pairs = []
    for _ in range(mix["pairs"]):
        kind = rng.choices(families, weights)[0]
        k = rng.choices(range(len(counts)), counts)[0]
        params = mix[kind]
        if kind == "projective_space":
            ambient = {"kind": kind, "n": _span(rng, params["n"])}
            classes = [{"H": _span(rng, params["degree"])} for _ in range(k)]
        elif kind == "hypersurface":
            ambient = {"kind": kind, "n": _span(rng, params["n"]),
                       "q": _span(rng, params["q"])}
            classes = [{"h": _span(rng, params["degree"])} for _ in range(k)]
        else:
            m = _span(rng, params["m"])
            ambient = {"kind": kind, "m": m}
            classes = []
            for _ in range(k):
                shape = rng.choices(list(params["class_weights"]),
                                    list(params["class_weights"].values()))[0]
                if shape == "C0":
                    classes.append({"C0": 1, "f": 0})
                elif shape == "f":
                    classes.append({"C0": 0, "f": 1})
                else:  # a C0 + b f with a >= 1 and b >= a m
                    a = _span(rng, params["a"])
                    b = a * m + _span(rng, params["b_minus_am"])
                    classes.append({"C0": a, "f": b})
        pairs.append({"ambient": ambient,
                      "divisors": [{"label": f"D{i + 1}", "class": c}
                                   for i, c in enumerate(classes)]})
    return {"pairs": pairs}


def build(name: str, seed: int) -> Workload:
    enum = ("enumerate", "--format", "records", "--workers", "1")
    if name == "enum-pn":
        return Workload(name, enum + ("--family", "pn"), None,
                        lambda out: oracle.check_enumerate(out, "pn"))
    if name == "enum-hyp":
        return Workload(
            name, enum + ("--family", "hypersurface"), None,
            lambda out: oracle.check_enumerate(out, "hypersurface"))
    if name == "report-mixed":
        document = mixed_document(seed)
        return Workload(name, ("report", "-", "--format", "records"),
                        json.dumps(document),
                        lambda out: oracle.check_report(out, document))
    if name == "verify-paper":
        return Workload(name, ("verify-paper",), None, oracle.check_verify)
    raise KeyError(name)


NAMES = ("enum-pn", "enum-hyp", "report-mixed", "verify-paper")
