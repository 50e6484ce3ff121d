"""Descriptor parsing, and every line the CLI writes.

Pair descriptors are JSON; unknown keys are errors, not warnings.
parse_document's memo, which lives for one document, also keys each
checked ambient and class object by its raw JSON items (_items): a
repeat costs one type check and one dict lookup, and anything else takes
the full checks, with the same errors in the same order; a pair's
location is formatted only for an error.  A parsed pair comes from
logchern._build, as every LogPair does, with its runs, and has it check
only the classes that pair built: each class once per document, with
the errors LogPair would raise.  Rationals serialize as canonical "p/q"
strings ("p" when the denominator is one) and round-trip losslessly;
a discriminant is printed from its integers N_n and 2n by bg._ratio,
with the bytes of str(Fraction), so no writer builds a Fraction.

Each writer returns one output text without its final newline; a table
writer takes its record writer's arguments, so a command picks its
writer once.  A record is one line with the bytes of json.dumps(record,
sort_keys=True, separators=(",", ":")): keys sorted, no spaces, and
non-ASCII and control characters as \\uXXXX escapes, written from a
template around JSON fragments that one Echoes per command encodes once
(each class shape's echo, each model's ambient and the run's bounds);
per line only labels, rationals, integers and flags are encoded.
_fragment writes those fragments, and every string is escaped by
encode_basestring_ascii from _json, the C function json.encoder uses, so
only report, whose parse_document imports json, loads the json package.
"""

from __future__ import annotations

from _json import encode_basestring_ascii

from . import __version__
from .bg import BGReport, _numerator, _ratio
from .logchern import LogPair, _build
from .models import FAMILIES, AmbientModel, CycleClass, is_c_infinity
from .search import EqualityCase, SearchConfig


class InputError(ValueError):
    """Malformed descriptor document."""


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
    per coefficient tuple.  A class it lacks is built and appended to
    `built`, the classes of the pair that _build must check."""
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
        built.append(divisor)
    return label, divisor


def _parse_pair(obj, memo: dict, index: int | None = None) -> LogPair:
    """One checked pair, the document's or pairs[index]; `memo` is
    parse_document's, and hands out one model, and one dict of its
    classes, per distinct ambient.  A component whose class object
    repeats checked raw items (_items' test, inline), under a str label
    and no unknown key, skips _parse_divisor.

    _build checks only the classes this pair built: a class from an
    earlier pair has passed, as any failure ends the document.  That
    holds only while no caller keeps using a memo after an error, so
    parse_document must stay the only caller."""
    if type(obj) is not dict or obj.keys() != _PAIR_KEYS:
        where = "document" if index is None else f"pairs[{index}]"
        if not isinstance(obj, dict):
            raise InputError(f"{where} must be an object")
        _check_keys(obj, _PAIR_KEYS, where)
        _require(obj, "ambient", where)
    ambient = obj["ambient"]
    items = _items(ambient)
    entry = None if items is None else memo.get(items)
    if entry is None:
        model = parse_ambient(ambient)
        entry = memo.setdefault(model, (model, {}))
        if items is not None:
            memo[items] = entry
    divisors = obj.get("divisors")
    if type(divisors) is not list:
        where = "document" if index is None else f"pairs[{index}]"
        if not isinstance(_require(obj, "divisors", where), list):
            raise InputError(f"key 'divisors' in {where} must be a list")
    model, classes = entry
    components, runs, built = [], [], []  # built: its new classes, in order
    for i, d in enumerate(divisors):
        divisor = items = None
        if type(d) is dict and d.keys() <= _DIVISOR_KEYS:
            label, cls = d.get("label"), d.get("class")
            if type(cls) is dict and type(label) is str:
                for value in cls.values():
                    if type(value) is not int and type(value) is not str:
                        break
                else:
                    items = tuple(cls.items())
                    divisor = classes.get(items)
        if divisor is None:
            label, divisor = _parse_divisor(d, entry, i, built)
            if items is not None:
                classes[items] = divisor
        components.append((label, divisor))
        runs.append((divisor, 1))
    return _build(LogPair.__new__(LogPair), model, tuple(runs),
                  tuple(components), built)


def parse_document(data: str | bytes) -> list[LogPair]:
    """The pairs of a descriptor document; bytes must be UTF-8.

    Equal ambients in one document share one model, and equal classes
    on it one CycleClass (see the module docstring).  The memo lives for
    this call only, so two calls share no object."""
    import json  # only report parses a document
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
        return [_parse_pair(p, memo, i) for i, p in enumerate(doc["pairs"])]
    return [_parse_pair(doc, memo)]


# -- output lines ----------------------------------------------------------

def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _value(value) -> str:
    """The JSON of a str, an int, a bool or None."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is bool:
        return _bool(value)
    if type(value) is int:
        return str(value)
    if value is None:
        return "null"
    raise TypeError(f"{type(value).__name__} is not a fragment value")


def _fragment(obj: dict | tuple) -> str:
    """json.dumps(obj, sort_keys=True, separators=(",", ":")) of a dict
    with str keys, or of a tuple, whose values _value writes."""
    if type(obj) is dict:
        return "{" + ",".join([f"{encode_basestring_ascii(key)}:{_value(v)}"
                               for key, v in sorted(obj.items())]) + "}"
    return "[" + ",".join(map(_value, obj)) + "]"


_VERSION = encode_basestring_ascii(__version__)
# every value of search.report_modes, a case's modes, as its JSON list
_MODES = {modes: _fragment(modes)
          for modes in [(), ("n",), ("n1",), ("n", "n1")]}


def _discriminant(report: BGReport) -> str:
    """str(report.discriminant), from N_n and 2n."""
    rank = report.rank
    return _ratio(_numerator(rank, report.c1_sq, report.c2_eval), 2 * rank)


def _report_head(report: BGReport) -> str:
    """The report's fields from c1_sq to equality_n_plus_1, which sort
    together at the head of both kinds of record."""
    return (f'"c1_sq":"{report.c1_sq!s}",'
            f'"c2_eval":"{report.c2_eval!s}",'
            f'"discriminant":"{_discriminant(report)}",'
            f'"equality_n":{_bool(report.equality_n)},'
            f'"equality_n_plus_1":{_bool(report.equality_n_plus_1)}')


class Echoes(dict):
    """The JSON fragments of one command, each encoded on first use: per
    class shape its display, the head of its divisor item and its class
    JSON, per model its ambient echo, and the run's `bounds`.

    Classes and models are keyed by id(object), which hashes in C;
    keying by the object would hash its field tuple (and a class's model)
    on every lookup.  Each of those entries holds its object, so no id is
    reused while the instance lives.  A class's echo is encoded once per
    shape (kind, m, grade, coefficients), which fixes all three fragments
    (C_inf needs m), so H on every P^n, as a component or as the
    polarization, shares one echo."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: dict | None = None):
        # bounds_fields of the run's config, for the records of enumerate
        self.bounds = None if bounds is None else _fragment(bounds)

    def of(self, cls: CycleClass) -> tuple[str, str, str]:
        """(display, divisor-item head, class JSON) of a class; the head
        is the item's JSON up to its label:
        {"class":...,"display":...,"label":"""
        entry = self.get(id(cls))
        if entry is None:
            shape = (cls.model.kind, cls.model.m, cls.grade, cls.coeffs)
            echo = self.get(shape)
            if echo is None:
                display = cycle_display(cls)
                encoded = _fragment(dict(zip(
                    cls.model.basis_names(cls.grade), map(str, cls.coeffs))))
                echo = self[shape] = (display, (
                    f'{{"class":{encoded},'
                    f'"display":{encode_basestring_ascii(display)},'
                    '"label":'), encoded)
            entry = self[id(cls)] = (cls, echo)
        return entry[1]

    def ambient(self, model: AmbientModel) -> str:
        entry = self.get(id(model))
        if entry is None:
            echo = {"kind": model.kind}
            echo.update((key, getattr(model, key))
                        for key in FAMILIES[model.kind].fields)
            entry = self[id(model)] = (model, _fragment(echo))
        return entry[1]


def report_table(pair: LogPair, report: BGReport, echoes: Echoes) -> str:
    divisors = ", ".join([echoes.of(cls)[0] for _, cls in pair.components])
    return (f"({pair.model}, D = [{divisors}])\n"
            f"  rank {report.rank}"
            f"  c1^2.H^(n-2) = {report.c1_sq!s}"
            f"  c2.H^(n-2) = {report.c2_eval!s}\n"
            f"  discriminant = {_discriminant(report)}"
            f"  equality(rank n) = {report.equality_n}"
            f"  equality(rank n+1) = {report.equality_n_plus_1}"
            f"  -(K+D) nef = {report.minus_k_plus_d_nef}")


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
            f'"polarization":{of(report.polarization)[2]},'
            f'"rank":{report.rank},"tool_version":{_VERSION}}}')


def bounds_fields(config: SearchConfig) -> dict:
    fields = {name: getattr(config, name) for name in config._fields}
    if config.family == "pn":
        fields.pop("q_min")
        fields.pop("q_max")
    return fields


def case_table(case: EqualityCase, echoes: Echoes) -> str:
    """The table line of one case; takes case_record's arguments."""
    partition = ",".join(str(d) for d in case.partition) or "empty"
    head = (f"n={case.n} q={case.q}" if case.family == "hypersurface"
            else f"n={case.n}")
    return (f"{head} degrees=({partition}) equality={','.join(case.modes)} "
            f"nef={case.report.minus_k_plus_d_nef}")


def case_record(case: EqualityCase, echoes: Echoes) -> str:
    """The record line of one case: json.dumps of the dict of the case's
    family, n, q, partition, modes and nef flag, the run's bounds (from
    `echoes`, built with them once per run), "tool_version" and the
    report's fields, keys sorted, no spaces."""
    report = case.report
    partition = "".join([f"{d}," * k for d, k in case.runs])[:-1]
    return (f'{{"bounds":{echoes.bounds},{_report_head(report)},'
            f'"family":{encode_basestring_ascii(case.family)},'
            f'"minus_k_plus_d_nef":{_bool(report.minus_k_plus_d_nef)},'
            f'"modes":{_MODES[case.modes]},"n":{case.n},'
            f'"nef":{_bool(report.minus_k_plus_d_nef)},'
            f'"partition":[{partition}],'
            f'"polarization":{echoes.of(report.polarization)[2]},'
            f'"q":{case.q},"rank":{report.rank},'
            f'"tool_version":{_VERSION}}}')


def summary_record(config: SearchConfig, count: int, echoes: Echoes) -> str:
    """The last line of enumerate's records: the count, the family and
    the run's bounds, from `echoes`."""
    return (f'{{"summary":{{"bounds":{echoes.bounds},"count":{count},'
            f'"family":{encode_basestring_ascii(config.family)}}}}}')


def summary_table(config: SearchConfig, count: int, echoes: Echoes) -> str:
    """The last line of enumerate's table: the count and the box; takes
    summary_record's arguments."""
    bounds = (f"n in [{config.n_min}, {config.n_max}]"
              + (f", q in [{config.q_min}, {config.q_max}]"
                 if config.family == "hypersurface" else "")
              + (", -(K+D) nef required" if config.require_nef
                 else ", no nef filter"))
    return f"found {count} equality case(s); bounds: {bounds}"


def fixture_table(results: list) -> str:
    """The verify-paper lines, one per fixtures.FixtureResult."""
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        line = (f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}"
                f"  expected {r.expected}")
        if not r.passed:
            line += f"  computed {r.computed}  ({r.citation})"
        lines.append(line)
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} fixtures passed")
    return "\n".join(lines)


def nef_line(model: AmbientModel, divisor: CycleClass, nef: bool) -> str:
    return (f"{cycle_display(divisor)} on {model}: "
            f"{'nef' if nef else 'not nef'}")
