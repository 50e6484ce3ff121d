"""The value-class contract: every record class compares, hashes, shows,
freezes, pickles and copies by its fields, as a frozen dataclass would."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import logbg
from logbg.bg import BGReport, full_report
from logbg.fixtures import FixtureResult, remark_tuple_suite
from logbg.logchern import LogPair, pn_pair
from logbg.models import (FAMILIES, AmbientModel, CycleClass, Family,
                          hirzebruch, hypersurface, projective_space)
from logbg.search import EqualityCase, SearchConfig, enumerate_cases

# each factory builds a new instance, with new parts, on every call
VALUES = {
    CycleClass: (lambda: hirzebruch(3).divisor(1, 4),
                 ("model", "grade", "coeffs")),
    AmbientModel: (lambda: hypersurface(4, 3), ("kind", "n", "q", "m")),
    Family: (lambda: Family(("n",), ("H",), projective_space),
             ("fields", "generators", "build")),
    LogPair: (lambda: pn_pair(7, [2, 1, 1]), ("model", "components")),
    BGReport: (lambda: full_report(pn_pair(7, [2, 1, 1])),
               ("rank", "c1_sq", "c2_eval", "equality_n",
                "equality_n_plus_1", "minus_k_plus_d_nef", "polarization")),
    SearchConfig: (lambda: SearchConfig("hypersurface", 2, 9, "n1", False,
                                        False, 5, 3, 4),
                   ("family", "n_min", "n_max", "mode", "require_nef",
                    "exclude_trivial", "s_max", "q_min", "q_max")),
    EqualityCase: (lambda: enumerate_cases(SearchConfig("pn", 7, 8))[-1],
                   ("family", "n", "q", "runs", "modes", "report")),
    FixtureResult: (lambda: remark_tuple_suite()[0],
                    ("name", "citation", "expected", "computed", "passed")),
}

classes = pytest.mark.parametrize("cls", list(VALUES),
                                  ids=lambda cls: cls.__name__)


def build(cls):
    make, fields = VALUES[cls]
    return make(), fields


@classes
def test_equal_distinct_instances(cls):
    a, b = build(cls)[0], build(cls)[0]
    assert type(a) is type(b) is cls
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@classes
def test_not_equal_to_its_field_tuple(cls):
    a, fields = build(cls)
    values = tuple(getattr(a, name) for name in fields)
    assert a != values and values != a
    assert cls.__eq__(a, values) is NotImplemented


@classes
def test_constructor_takes_fields_in_order_and_by_name(cls):
    a, fields = build(cls)
    values = [getattr(a, name) for name in fields]
    assert cls(*values) == a
    assert cls(**dict(zip(fields, values))) == a


@classes
def test_fields_are_frozen(cls):
    a, fields = build(cls)
    before = getattr(a, fields[0])
    with pytest.raises(AttributeError):
        setattr(a, fields[0], before)
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, fields[0]) is before


@classes
def test_pickle_and_copy_round_trip(cls):
    a, _ = build(cls)
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                 copy.deepcopy(a)):
        assert type(twin) is cls
        assert twin == a and hash(twin) == hash(a)


def test_report_discriminant_is_read_from_its_integers():
    """A BGReport stores no discriminant: it is N_n/2n of rank, c1_sq and
    c2_eval."""
    a = full_report(pn_pair(7, [2, 1, 1]))
    assert a.discriminant == Fraction(14 * a.c2_eval - 6 * a.c1_sq, 14) != 0


def test_report_equality_and_hash_build_no_fraction():
    """Equality and hash read the stored fields, which determine the
    discriminant, so comparing and hashing reports loads no fractions."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(logbg.__file__)))
    proc = subprocess.run([sys.executable, "-I", "-c", "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "from logbg.bg import full_report",
        "from logbg.logchern import pn_pair",
        "a, b = [full_report(pn_pair(7, [2, 1, 1])) for _ in range(2)]",
        "print(a is not b and a == b and hash(a) == hash(b))",
        "print('fractions' in sys.modules)"]), src],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_defaults():
    assert AmbientModel("projective_space", 3) == \
        AmbientModel("projective_space", 3, 1, 0)
    model = projective_space(3)
    assert LogPair(model) == LogPair(model, ())
    assert SearchConfig("pn", 2, 5) == \
        SearchConfig("pn", 2, 5, "either", True, True, None, 2, None)


def test_reprs():
    assert repr(hirzebruch(3).divisor(1, 0)) == (
        "CycleClass(model=AmbientModel(kind='hirzebruch', n=2, q=1, m=3), "
        "grade=1, coeffs=(1, 0))")
    assert repr(hypersurface(4, 3)) == \
        "AmbientModel(kind='hypersurface', n=4, q=3, m=0)"
    assert repr(pn_pair(3, [2, 1])) == (
        "LogPair(model=AmbientModel(kind='projective_space', n=3, q=1, m=0), "
        "components=(('D1', CycleClass(model=AmbientModel("
        "kind='projective_space', n=3, q=1, m=0), grade=1, coeffs=(2,))), "
        "('D2', CycleClass(model=AmbientModel(kind='projective_space', n=3, "
        "q=1, m=0), grade=1, coeffs=(1,)))))")


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_table_pickles(kind):
    family = FAMILIES[kind]
    twin = pickle.loads(pickle.dumps(family))
    assert twin == family and hash(twin) == hash(family)
    assert twin.build is family.build
    assert copy.deepcopy(family) == family
