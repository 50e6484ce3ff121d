"""Descriptor parsing and record serialization for the CLI.

Pair descriptors are JSON; unknown keys are errors, not warnings.
parse_document's memo, which lives for one document, also keys each
checked ambient and class object by its raw JSON items (_items): a
repeat costs one type check and one dict lookup, and anything else takes
the full checks, with the same errors in the same order.  Parsed pairs
skip LogPair's per-pair checks: the parser checks each class once per
document, where it first builds it, and groups each pair's components
itself (_parse_pair), with the errors LogPair would raise.  Rationals
serialize as canonical "p/q" strings ("p" when the denominator is one)
and round-trip losslessly.

A record is one line with the bytes of json.dumps(record,
sort_keys=True, separators=(",", ":")): keys sorted, no spaces, and
non-ASCII and control characters as \\uXXXX escapes.  report_record and
case_record write that line from a template around JSON fragments that
one Echoes per command encodes once (each class's echo, each model's
ambient, each polarization and the run's bounds); per line only labels,
rationals, integers and flags are encoded.  dump_record encodes a whole
dict, for the summary line.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from . import __version__
from .bg import BGReport
from .logchern import LogPair, _check_labels, _not_prime
from .models import (FAMILIES, AmbientModel, CycleClass, is_c_infinity,
                     is_prime_class)
from .search import EqualityCase, SearchConfig


class InputError(ValueError):
    """Malformed descriptor document."""


def cycle_to_dict(cls: CycleClass) -> dict:
    names = cls.model.basis_names(cls.grade)
    return {name: f"{c!s}" for name, c in zip(names, cls.coeffs)}


def cycle_display(cls: CycleClass) -> str:
    """Human form of a class; names the C_inf alias on F_m."""
    return f"{cls} (= Cinf)" if is_c_infinity(cls) else str(cls)


def _check_keys(obj: dict, allowed, where: str) -> None:
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
    """The model of a checked ambient descriptor."""
    if not isinstance(obj, dict):
        raise InputError("'ambient' must be an object")
    kind = _require(obj, "kind", "ambient")
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise InputError(f"unknown ambient kind {kind!r}")
    family = FAMILIES[kind]
    _check_keys(obj, {"kind", *family.fields}, "ambient")
    return family.build(*[_int_field(obj, key, "ambient")
                          for key in family.fields])


_DIVISOR_KEYS = frozenset(("label", "class"))
_PAIR_KEYS = frozenset(("ambient", "divisors"))


def _items(obj) -> tuple | None:
    """A dict's items if every value is an exact int or str, which hash
    and equal only the same JSON (True and 1.0 equal 1); else None."""
    if type(obj) is not dict:
        return None
    for value in obj.values():
        if type(value) is not int and type(value) is not str:
            return None
    return tuple(obj.items())


def _parse_divisor(obj, entry: tuple, index: int,
                   built: list) -> tuple[str, CycleClass]:
    """A component; `entry` is parse_document's memo entry for its
    ambient, (model, classes), whose `classes` hands out one CycleClass
    per coefficient tuple.  A class it lacks is built, and `index` is
    appended to `built`, for _parse_pair to check."""
    where = f"divisors[{index}]"
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    model, classes = entry
    generators = model.generators
    _check_keys(obj, _DIVISOR_KEYS, where)
    label = _require(obj, "label", where)
    if not isinstance(label, str):
        raise InputError(f"key 'label' in {where} must be a string")
    cls = _require(obj, "class", where)
    if not isinstance(cls, dict):
        raise InputError(f"key 'class' in {where} must be an object")
    _check_keys(cls, generators, f"{where}.class")
    key = tuple([cls.get(gen, 0) for gen in generators])
    # True and 1.0 hash like 1, so every coefficient is checked before
    # the key is looked up
    for gen, c in zip(generators, key):
        if type(c) is not int:
            raise InputError(
                f"coefficient {gen!r} in {where}.class must be an integer")
    divisor = classes.get(key)
    if divisor is None:
        divisor = classes[key] = model.divisor(*key)
        built.append(index)
    return label, divisor


def _parse_pair(obj, memo: dict, where: str = "document") -> LogPair:
    """One checked pair; `memo` is parse_document's, and hands out one
    model, and one dict of its classes, per distinct ambient.  A
    component whose class object repeats checked raw items, under a str
    label and no unknown key, skips _parse_divisor.

    Every class here is built by model.divisor on the pair's model, so
    it has that model and grade 1, and only the prime-class test is
    left.  It runs once per class per document, in the pair that built
    the class: a class from an earlier pair has passed, as any failure
    ends the document.  That holds only while no caller keeps using a
    memo after an error, so parse_document must stay the only caller.
    The test runs after the duplicate-label check, in order of first
    occurrence, so the errors and their labels are those of LogPair."""
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    _check_keys(obj, _PAIR_KEYS, where)
    ambient = _require(obj, "ambient", where)
    items = _items(ambient)
    entry = None if items is None else memo.get(items)
    if entry is None:
        model = parse_ambient(ambient)
        entry = memo.get(model)
        if entry is None:
            entry = memo[model] = (model, {})
        if items is not None:
            memo[items] = entry
    divisors = _require(obj, "divisors", where)
    if not isinstance(divisors, list):
        raise InputError(f"key 'divisors' in {where} must be a list")
    model, classes = entry
    labels = []
    components = []
    built = []  # indices of the components whose class this pair built
    for i, d in enumerate(divisors):
        label = items = None
        if type(d) is dict and d.keys() <= _DIVISOR_KEYS:
            label, items = d.get("label"), _items(d.get("class"))
        divisor = None if items is None else classes.get(items)
        if divisor is None or type(label) is not str:
            label, divisor = _parse_divisor(d, entry, i, built)
            if items is not None:
                classes[items] = divisor
        labels.append(label)
        components.append((label, divisor))
    _check_labels(labels)
    for i in built:
        label, cls = components[i]
        if not is_prime_class(model, cls):
            raise _not_prime(label, cls)
    # one class per coefficient tuple on this model, so coefficients
    # group as class objects do in _groups
    counts = {}
    for _, cls in components:
        coeffs = cls.coeffs
        counts[coeffs] = counts.get(coeffs, 0) + 1
    return LogPair.__new__(LogPair)._fill(
        model, tuple(counts.items()), None, tuple(components))


def parse_document(data: str | bytes) -> list[LogPair]:
    """The pairs of a descriptor document; bytes must be UTF-8.

    Equal ambients in one document share one model, and equal classes
    on it one CycleClass (see the module docstring).  The memo lives for
    this call only, so two calls share no object."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes)
                         else data)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bytes that are not UTF-8, or an
        # integer over the interpreter's digit limit; RecursionError:
        # nesting deeper than the decoder's recursion limit
        raise InputError(f"not valid JSON: {exc}") from exc
    # each distinct AmbientModel, and the raw items of each checked
    # ambient object, -> (the model, its classes); no raw-items key here
    # or in classes equals another key
    memo: dict = {}
    if isinstance(doc, dict) and "pairs" in doc:
        _check_keys(doc, {"pairs"}, "document")
        if not isinstance(doc["pairs"], list):
            raise InputError("key 'pairs' must be a list")
        return [_parse_pair(p, memo, f"pairs[{i}]")
                for i, p in enumerate(doc["pairs"])]
    return [_parse_pair(doc, memo)]


# -- output records --------------------------------------------------------

# json.dumps(record, sort_keys=True, separators=(",", ":")), for the
# summary line and for the fragments an Echoes caches
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_VERSION = encode_basestring_ascii(__version__)


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _report_head(report: BGReport) -> str:
    """The report's fields from c1_sq to equality_n_plus_1, which sort
    together at the head of both kinds of record."""
    return (f'"c1_sq":"{report.c1_sq!s}",'
            f'"c2_eval":"{report.c2_eval!s}",'
            f'"discriminant":"{report.discriminant!s}",'
            f'"equality_n":{_bool(report.equality_n)},'
            f'"equality_n_plus_1":{_bool(report.equality_n_plus_1)}')


class Echoes(dict):
    """The JSON fragments of one command, each encoded on first use: per
    class its display and the head of its divisor item, per model its
    ambient echo, per polarization its class, and the run's `bounds`.

    Classes and models are keyed by id(object), which hashes in C;
    keying by the object would hash its field tuple (and a class's model)
    on every lookup.  Each of those entries holds its object, so no id is
    reused while the instance lives.  A polarization is keyed by (kind,
    coefficients), which fix its echo at grade 1, so the polarizations
    of models of one kind with equal coefficients, such as H on every
    P^n, share one echo."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: dict | None = None):
        # bounds_fields of the run's config, for case_record
        self.bounds = None if bounds is None else _ENCODER.encode(bounds)

    def of(self, cls: CycleClass) -> tuple[str, str]:
        """(display, divisor-item head) of a class; the head is the item's
        JSON up to its label: {"class":...,"display":...,"label":"""
        entry = self.get(id(cls))
        if entry is None:
            display = cycle_display(cls)
            head = (f'{{"class":{_ENCODER.encode(cycle_to_dict(cls))},'
                    f'"display":{encode_basestring_ascii(display)},'
                    '"label":')
            entry = self[id(cls)] = (cls, (display, head))
        return entry[1]

    def ambient(self, model: AmbientModel) -> str:
        entry = self.get(id(model))
        if entry is None:
            echo = {"kind": model.kind}
            echo.update((key, getattr(model, key))
                        for key in FAMILIES[model.kind].fields)
            entry = self[id(model)] = (model, _ENCODER.encode(echo))
        return entry[1]

    def polarization(self, H: CycleClass) -> str:
        key = (H.model.kind, H.coeffs)
        echo = self.get(key)
        if echo is None:
            echo = self[key] = _ENCODER.encode(cycle_to_dict(H))
        return echo


def report_record(pair: LogPair, report: BGReport, echoes: Echoes) -> str:
    """The record line of one report: json.dumps of the dict {"input":
    {"ambient": ..., "divisors": [{"class", "display", "label"}, ...]},
    "tool_version", and the report's fields}, keys sorted, no spaces."""
    of = echoes.of
    divisors = ",".join([f"{of(cls)[1]}{encode_basestring_ascii(label)}}}"
                         for label, cls in pair.components])
    return (f'{{{_report_head(report)},'
            f'"input":{{"ambient":{echoes.ambient(pair.model)},'
            f'"divisors":[{divisors}]}},'
            f'"minus_k_plus_d_nef":{_bool(report.minus_k_plus_d_nef)},'
            f'"polarization":{echoes.polarization(report.polarization)},'
            f'"rank":{report.rank},"tool_version":{_VERSION}}}')


def bounds_fields(config: SearchConfig) -> dict:
    fields = {name: getattr(config, name) for name in config._fields}
    if config.family == "pn":
        fields.pop("q_min")
        fields.pop("q_max")
    return fields


def case_record(case: EqualityCase, echoes: Echoes) -> str:
    """The record line of one case: json.dumps of the dict of the case's
    family, n, q, partition, modes and nef flag, the run's bounds (from
    `echoes`, built with them once per run), "tool_version" and the
    report's fields, keys sorted, no spaces."""
    report = case.report
    modes = ",".join(map(encode_basestring_ascii, case.modes))
    ones = case.partition.count(1)  # a suffix, as parts never increase
    head = map(str, case.partition[:len(case.partition) - ones])
    partition = (",".join(head) + ",1" * ones).lstrip(",")
    return (f'{{"bounds":{echoes.bounds},{_report_head(report)},'
            f'"family":{encode_basestring_ascii(case.family)},'
            f'"minus_k_plus_d_nef":{_bool(report.minus_k_plus_d_nef)},'
            f'"modes":[{modes}],"n":{case.n},'
            f'"nef":{_bool(report.minus_k_plus_d_nef)},'
            f'"partition":[{partition}],'
            f'"polarization":{echoes.polarization(report.polarization)},'
            f'"q":{case.q},"rank":{report.rank},'
            f'"tool_version":{_VERSION}}}')


def dump_record(record: dict) -> str:
    return _ENCODER.encode(record)
