"""Descriptor parsing and record serialization for the CLI.

Pair descriptors are JSON; unknown keys are errors, not warnings.
Rationals serialize as canonical "p/q" strings ("p" when the
denominator is one) and round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import asdict

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


def parse_ambient(obj) -> AmbientModel:
    if not isinstance(obj, dict):
        raise InputError("'ambient' must be an object")
    kind = _require(obj, "kind", "ambient")
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise InputError(f"unknown ambient kind {kind!r}")
    family = FAMILIES[kind]
    _check_keys(obj, {"kind", *family.fields}, "ambient")
    return family.build(*(_int_field(obj, key, "ambient")
                          for key in family.fields))


def parse_divisor(obj, model: AmbientModel, index: int) -> tuple[str, CycleClass]:
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
    return label, model.divisor(*coeffs)


def parse_pair(obj, where: str = "document") -> LogPair:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    _check_keys(obj, {"ambient", "divisors"}, where)
    model = parse_ambient(_require(obj, "ambient", where))
    divisors = _require(obj, "divisors", where)
    if not isinstance(divisors, list):
        raise InputError(f"key 'divisors' in {where} must be a list")
    components = tuple(parse_divisor(d, model, i)
                       for i, d in enumerate(divisors))
    return LogPair(model, components)


def parse_document(data: str | bytes) -> list[LogPair]:
    """The pairs of a descriptor document; bytes must be UTF-8."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes)
                         else data)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bytes that are not UTF-8, or an
        # integer over the interpreter's digit limit; RecursionError:
        # nesting deeper than the decoder's recursion limit
        raise InputError(f"not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "pairs" in doc:
        _check_keys(doc, {"pairs"}, "document")
        if not isinstance(doc["pairs"], list):
            raise InputError("key 'pairs' must be a list")
        return [parse_pair(p, f"pairs[{i}]")
                for i, p in enumerate(doc["pairs"])]
    return [parse_pair(doc)]


# -- output records --------------------------------------------------------


def pair_echo(pair: LogPair) -> dict:
    model = pair.model
    ambient = {"kind": model.kind}
    ambient.update((key, getattr(model, key)) for key in model.family.fields)
    return {
        "ambient": ambient,
        "divisors": [{"label": label,
                      "class": cycle_to_dict(cls),
                      "display": cycle_display(cls)}
                     for label, cls in pair.components],
    }


def report_fields(report: BGReport) -> dict:
    return {
        "rank": report.rank,
        "c1_sq": format_rational(report.c1_sq),
        "c2_eval": format_rational(report.c2_eval),
        "discriminant": format_rational(report.discriminant),
        "equality_n": report.equality_n,
        "equality_n_plus_1": report.equality_n_plus_1,
        "minus_k_plus_d_nef": report.minus_k_plus_d_nef,
        "polarization": cycle_to_dict(report.polarization),
    }


def report_record(pair: LogPair, report: BGReport) -> dict:
    record = {"input": pair_echo(pair), "tool_version": __version__}
    record.update(report_fields(report))
    return record


def bounds_fields(config: SearchConfig) -> dict:
    fields = asdict(config)
    if config.family == "pn":
        fields.pop("q_min")
        fields.pop("q_max")
    return fields


def case_record(case: EqualityCase, config: SearchConfig) -> dict:
    record = {
        "family": case.family,
        "n": case.n,
        "q": case.q,
        "partition": list(case.partition),
        "modes": list(case.modes),
        "nef": case.nef,
        "bounds": bounds_fields(config),
        "tool_version": __version__,
    }
    record.update(report_fields(case.report))
    return record


def dump_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
