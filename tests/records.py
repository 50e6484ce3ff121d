"""The dict-shaped records that logbg.serialize writes as text.

serialize.report_record and case_record build each line from JSON
fragments; a line is right when it equals `dump(record)` of the dict
built here.  Nothing here comes from logbg.serialize: rationals are
written with str(), which gives "p/q", or "p" when the denominator is
one, and displays and ambient echoes are spelled out from the model.
"""

import json


def dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def class_dict(cls) -> dict:
    names = cls.model.basis_names(cls.grade)
    return {name: str(c) for name, c in zip(names, cls.coeffs)}


def display(cls) -> str:
    model = cls.model
    text = " + ".join(f"{c}*{name}" for c, name in
                      zip(cls.coeffs, model.basis_names(cls.grade)))
    if model.kind == "hirzebruch" and cls.coeffs == (1, model.m):
        text += " (= Cinf)"
    return text


def ambient_dict(model) -> dict:
    fields = {"projective_space": ("n",), "hypersurface": ("n", "q"),
              "hirzebruch": ("m",)}[model.kind]
    return {"kind": model.kind, **{key: getattr(model, key)
                                   for key in fields}}


def report_fields(report) -> dict:
    return {
        "rank": report.rank,
        "c1_sq": str(report.c1_sq),
        "c2_eval": str(report.c2_eval),
        "discriminant": str(report.discriminant),
        "equality_n": report.equality_n,
        "equality_n_plus_1": report.equality_n_plus_1,
        "minus_k_plus_d_nef": report.minus_k_plus_d_nef,
        "polarization": class_dict(report.polarization),
    }


def report_record(pair, report, version: str) -> dict:
    divisors = [{"label": label, "class": class_dict(cls),
                 "display": display(cls)} for label, cls in pair.components]
    return {"input": {"ambient": ambient_dict(pair.model),
                      "divisors": divisors},
            "tool_version": version, **report_fields(report)}


def case_record(case, config, version: str) -> dict:
    return {"family": case.family, "n": case.n, "q": case.q,
            "partition": list(case.partition), "modes": list(case.modes),
            "nef": case.report.minus_k_plus_d_nef, "bounds": bounds(config),
            "tool_version": version, **report_fields(case.report)}


def bounds(config) -> dict:
    names = ("family", "n_min", "n_max", "mode", "require_nef",
             "exclude_trivial", "s_max")
    if config.family == "hypersurface":
        names += ("q_min", "q_max")
    return {name: getattr(config, name) for name in names}


def summary_record(config, count: int) -> dict:
    return {"summary": {"family": config.family, "count": count,
                        "bounds": bounds(config)}}
