"""Descriptor parsing and record serialization for the CLI.

Pair descriptors are JSON; unknown keys are errors, not warnings.
Rationals serialize as canonical "p/q" strings ("p" when the
denominator is one) and round-trip losslessly.
"""

from __future__ import annotations

import json

from . import __version__
from .bg import BGReport
from .chow import CycleClass, Scalar
from .logchern import LogPair
from .models import FAMILIES, AmbientModel, is_c_infinity
from .search import EqualityCase, SearchConfig


class InputError(ValueError):
    """Malformed descriptor document."""


def format_rational(x: Scalar) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def cycle_to_dict(cls: CycleClass) -> dict:
    names = cls.model.basis_names(cls.grade)
    return {name: format_rational(c) for name, c in zip(names, cls.coeffs)}


def cycle_display(cls: CycleClass) -> str:
    """Human form of a class; names the C_inf alias on F_m."""
    return f"{cls} (= Cinf)" if is_c_infinity(cls) else str(cls)


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise InputError(f"unknown key {key!r} in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise InputError(f"missing key {key!r} in {where}")
    return obj[key]


def _int_field(obj: dict, key: str, where: str) -> int:
    value = _require(obj, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"key {key!r} in {where} must be an integer")
    return value


def _ambient_key(obj) -> tuple:
    """(kind, *field values) of a checked ambient descriptor."""
    if not isinstance(obj, dict):
        raise InputError("'ambient' must be an object")
    kind = _require(obj, "kind", "ambient")
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise InputError(f"unknown ambient kind {kind!r}")
    fields = FAMILIES[kind].fields
    _check_keys(obj, {"kind", *fields}, "ambient")
    return (kind, *(_int_field(obj, key, "ambient") for key in fields))


def parse_ambient(obj) -> AmbientModel:
    kind, *values = _ambient_key(obj)
    return FAMILIES[kind].build(*values)


def parse_divisor(obj, model: AmbientModel, classes: dict,
                  index: int) -> tuple[str, CycleClass]:
    """A checked component; `classes` (coefficients -> CycleClass) is
    parse_document's for this model, and hands out one class per
    coefficient tuple once the checks have passed."""
    where = f"divisors[{index}]"
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    _check_keys(obj, {"label", "class"}, where)
    label = _require(obj, "label", where)
    if not isinstance(label, str):
        raise InputError(f"key 'label' in {where} must be a string")
    cls = _require(obj, "class", where)
    if not isinstance(cls, dict):
        raise InputError(f"key 'class' in {where} must be an object")
    generators = model.basis_names(1)
    _check_keys(cls, set(generators), f"{where}.class")
    coeffs = []
    for gen in generators:
        c = cls.get(gen, 0)
        if not isinstance(c, int) or isinstance(c, bool):
            raise InputError(
                f"coefficient {gen!r} in {where}.class must be an integer")
        coeffs.append(c)
    # every coefficient is an int here, so True and 1.0 never reach the key
    key = tuple(coeffs)
    divisor = classes.get(key)
    if divisor is None:
        divisor = classes[key] = model.divisor(*coeffs)
    return label, divisor


def parse_pair(obj, memo: dict, where: str = "document") -> LogPair:
    """One pair; `memo` is parse_document's, and hands out one model, and
    one dict of its classes, per distinct ambient."""
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    _check_keys(obj, {"ambient", "divisors"}, where)
    key = _ambient_key(_require(obj, "ambient", where))
    entry = memo.get(key)
    if entry is None:
        kind, *values = key
        entry = memo[key] = (FAMILIES[kind].build(*values), {})
    model, classes = entry
    divisors = _require(obj, "divisors", where)
    if not isinstance(divisors, list):
        raise InputError(f"key 'divisors' in {where} must be a list")
    components = tuple(parse_divisor(d, model, classes, i)
                       for i, d in enumerate(divisors))
    return LogPair(model, components)


def parse_document(data: str | bytes) -> list[LogPair]:
    """The pairs of a descriptor document; bytes must be UTF-8.

    Equal ambients in one document share one model, and equal classes
    on it one CycleClass.  The memo lives for this call only, so two
    calls share no object."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes)
                         else data)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bytes that are not UTF-8, or an
        # integer over the interpreter's digit limit; RecursionError:
        # nesting deeper than the decoder's recursion limit
        raise InputError(f"not valid JSON: {exc}") from exc
    # (kind, *fields) -> (AmbientModel, {coefficients: CycleClass})
    memo: dict = {}
    if isinstance(doc, dict) and "pairs" in doc:
        _check_keys(doc, {"pairs"}, "document")
        if not isinstance(doc["pairs"], list):
            raise InputError("key 'pairs' must be a list")
        return [parse_pair(p, memo, f"pairs[{i}]")
                for i, p in enumerate(doc["pairs"])]
    return [parse_pair(doc, memo)]


# -- output records --------------------------------------------------------


class Echoes(dict):
    """The echo (cycle_to_dict, cycle_display) of each class, formatted
    on first use; one instance serves one command.

    Keyed by id(class), which hashes in C; keying by the class itself
    would hash its field tuple and its model on every lookup.  Each entry
    holds its class, so no id is reused while the instance lives."""

    def of(self, cls: CycleClass) -> tuple[dict, str]:
        entry = self.get(id(cls))
        if entry is None:
            entry = self[id(cls)] = (
                cls, (cycle_to_dict(cls), cycle_display(cls)))
        return entry[1]


def pair_echo(pair: LogPair, echoes: Echoes) -> dict:
    model = pair.model
    ambient = {"kind": model.kind}
    ambient.update((key, getattr(model, key)) for key in model.family.fields)
    divisors = []
    for label, cls in pair.components:
        as_dict, display = echoes.of(cls)
        divisors.append({"label": label, "class": as_dict,
                         "display": display})
    return {"ambient": ambient, "divisors": divisors}


def report_fields(report: BGReport, polarization: dict) -> dict:
    """The report's fields; `polarization` is cycle_to_dict of its H."""
    return {
        "rank": report.rank,
        "c1_sq": format_rational(report.c1_sq),
        "c2_eval": format_rational(report.c2_eval),
        "discriminant": format_rational(report.discriminant),
        "equality_n": report.equality_n,
        "equality_n_plus_1": report.equality_n_plus_1,
        "minus_k_plus_d_nef": report.minus_k_plus_d_nef,
        "polarization": polarization,
    }


def report_record(pair: LogPair, report: BGReport, echoes: Echoes) -> dict:
    record = {"input": pair_echo(pair, echoes), "tool_version": __version__}
    record.update(report_fields(report, echoes.of(report.polarization)[0]))
    return record


def bounds_fields(config: SearchConfig) -> dict:
    fields = {name: getattr(config, name) for name in config._fields}
    if config.family == "pn":
        fields.pop("q_min")
        fields.pop("q_max")
    return fields


def case_record(case: EqualityCase, bounds: dict) -> dict:
    """The record of one case; `bounds` is bounds_fields of the run's
    config, built once per run and shared by every record."""
    record = {
        "family": case.family,
        "n": case.n,
        "q": case.q,
        "partition": list(case.partition),
        "modes": list(case.modes),
        "nef": case.report.minus_k_plus_d_nef,
        "bounds": bounds,
        "tool_version": __version__,
    }
    record.update(report_fields(case.report,
                                cycle_to_dict(case.report.polarization)))
    return record


def dump_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
