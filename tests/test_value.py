"""The value-type contract of podium's records, AST nodes and series.

Every one of these types is immutable and compares, hashes and prints by
its fields: built positionally or by keyword with the field order and
defaults below, equal only to an instance of the same class with equal
fields, refusing assignment and deletion, and printed as
``Name(field=value, ...)``.  A Series takes the same contract, with its
own checked constructor and its own repr.  Importing podium must stay
lean: no module that generates or inspects code at import time.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import podium
from podium.dsl import Chain, GfRef, IFunc, IntLit, IVar, Neg, Poch, Pow, QPow, Subst, Theta
from podium.manifest import IdentityRecord, SuiteEntry, SuiteReport
from podium.partitions import _RULES, FunctionId, _Rule, _weight_one
from podium._value import Value
from podium.series import Mismatch, Series
from podium.theta import Domain


def _part(v):
    return (1, 2) if v % 2 else None


def _weight(parts):
    return -1


_ENTRY = SuiteEntry("p-id", "pass", 300, 0.25, "", "Andrews")

# (value, its repr), one row per type; the reprs are the frozen-record
# format the types have always printed.
CASES = [
    (IntLit(1), "IntLit(value=1)"),
    (QPow(3), "QPow(k=3)"),
    (Poch(-1, 1, 2), "Poch(sign=-1, a=1, b=2)"),
    (GfRef(FunctionId.POD), "GfRef(fid=<FunctionId.POD: 'pod'>)"),
    (Subst(QPow(1), 2, -1), "Subst(child=QPow(k=1), k=2, sign=-1)"),
    (
        Chain(IntLit(1), (("+", QPow(1)), ("-", QPow(2)))),
        "Chain(first=IntLit(value=1), rest=(('+', QPow(k=1)), ('-', QPow(k=2))))",
    ),
    (Pow(QPow(1), 3), "Pow(child=QPow(k=1), exponent=3)"),
    (Neg(IntLit(2)), "Neg(child=IntLit(value=2))"),
    (IVar("n"), "IVar(name='n')"),
    (IFunc("ceil2", IVar("n")), "IFunc(name='ceil2', child=IVar(name='n'))"),
    (
        Theta(Domain.NON_NEGATIVE, "n", IntLit(1), IVar("n")),
        "Theta(domain=<Domain.NON_NEGATIVE: 'N'>, var='n', weight=IntLit(value=1), "
        "exponent=IVar(name='n'))",
    ),
    (
        IdentityRecord("pod-gf", "gf(pod)", "1", 300, 5, "pod", "Andrews", "eq. 1"),
        "IdentityRecord(id='pod-gf', lhs='gf(pod)', rhs='1', order=300, modulus=5, "
        "description='pod', ref='Andrews', quote='eq. 1')",
    ),
    (
        _ENTRY,
        "SuiteEntry(name='p-id', status='pass', order=300, seconds=0.25, detail='', "
        "anchor='Andrews')",
    ),
    (
        SuiteReport((_ENTRY,)),
        "SuiteReport(entries=(SuiteEntry(name='p-id', status='pass', order=300, "
        "seconds=0.25, detail='', anchor='Andrews'),))",
    ),
    (
        _Rule(22, 30, _part, _weight),
        f"_Rule(cap=22, ceiling=30, part={_part!r}, weight={_weight!r})",
    ),
    (Mismatch(4, 1, 2), "Mismatch(index=4, left=1, right=2)"),
    (Series([1, 2]), "Series([1, 2], order=1)"),
]
VALUES = [value for value, _ in CASES]
IDS = [type(value).__name__ for value in VALUES]


def fields(value):
    return {name: getattr(value, name) for name in type(value).__match_args__}


def test_every_type_is_covered():
    assert len({type(value) for value in VALUES}) == len(VALUES) == 17
    assert all(isinstance(value, Value) for value in VALUES)


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
class TestContract:
    def test_positional_and_keyword_construction_agree(self, value):
        cls, by_name = type(value), fields(value)
        assert cls(*by_name.values()) == value
        assert cls(**by_name) == value
        first, *rest = by_name
        assert cls(by_name[first], **{name: by_name[name] for name in rest}) == value

    def test_equal_values_hash_equal(self, value):
        twin = type(value)(**fields(value))
        assert twin is not value
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)

    def test_equality_needs_every_field(self, value):
        for name in type(value).__match_args__:
            other = dict(fields(value), **{name: object()})
            try:
                changed = type(value)(**other)
            except (TypeError, ValueError):
                continue  # Series checks its fields
            assert changed != value and not changed == value

    def test_no_equality_with_the_bare_fields(self, value):
        values = tuple(fields(value).values())
        assert value != values and value != values[0]

    def test_assignment_and_deletion_refused(self, value):
        for name in type(value).__match_args__:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_slotted(self, value):
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__ == type(value).__match_args__

    def test_copies_are_equal(self, value):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_too_many_or_unknown_arguments_refused(self, value):
        cls, by_name = type(value), fields(value)
        with pytest.raises(TypeError):
            cls(*by_name.values(), 0)
        with pytest.raises(TypeError):
            cls(**by_name, nosuch=0)
        with pytest.raises(TypeError):
            cls(*by_name.values(), **{next(iter(by_name)): 0})


def test_a_class_is_part_of_the_value():
    assert IntLit(1) != QPow(1)
    assert QPow(1) != IntLit(1)
    assert Neg(IntLit(1)) != Neg(QPow(1))
    assert IVar("n") != IFunc("n", IntLit(1))
    assert {IntLit(1), QPow(1), IntLit(1)} == {IntLit(1), QPow(1)}


def test_positional_patterns_follow_field_order():
    match Poch(-1, 1, 2):
        case Poch(sign, a, b):
            assert (sign, a, b) == (-1, 1, 2)
        case _:
            pytest.fail("no match")


def test_missing_argument_refused():
    with pytest.raises(TypeError):
        IntLit()
    with pytest.raises(TypeError):
        IdentityRecord(id="a", lhs="1", order=3)
    with pytest.raises(TypeError):
        Mismatch(1)


class TestSeries:
    def series(self):
        return Series([1, -2, 3**80, 0])

    def test_copies_are_equal(self):
        series = self.series()
        copies = [copy.copy(series), copy.deepcopy(series)]
        copies += [pickle.loads(pickle.dumps(series, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is Series
            assert twin == series


class TestDefaults:
    def test_identity_record(self):
        record = IdentityRecord(id="a", lhs="gf(p)", rhs="1", order=40)
        assert record == IdentityRecord("a", "gf(p)", "1", 40, None, "", "", "")
        assert (record.modulus, record.description, record.ref, record.quote) == (None, "", "", "")
        assert record.anchor == ""

    def test_suite_entry(self):
        entry = SuiteEntry("a", "mismatch", 40, 0.5)
        assert (entry.detail, entry.anchor) == ("", "")
        assert entry == SuiteEntry(
            name="a", status="mismatch", order=40, seconds=0.5, detail="", anchor=""
        )
        assert entry.line() == "FAIL  a  order=40"

    def test_rule(self):
        rule = _Rule(35, 60)
        assert rule.part(7) == (None, 1)
        assert rule.weight is _weight_one
        # a middle default skipped by keyword
        skipped = _Rule(22, 30, weight=_weight)
        assert skipped.part is rule.part and skipped.weight is _weight
        assert skipped == _Rule(22, 30, rule.part, _weight)
        assert _Rule.__slots__ == ("cap", "ceiling", "part", "weight")
        assert _RULES[FunctionId.P] == rule


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_import_stays_lean(flags):
    """Importing podium and loading its manifest loads no code-generating
    or introspecting module that a bare interpreter has not already loaded.

    importlib.resources is refused too: from CPython 3.12 it imports
    inspect.  `site` may preload it (a .pth file can), so the run without
    `site` is the one that can see it on an older interpreter.
    """
    show = "import sys; print(' '.join(sys.modules))"
    src = os.path.dirname(os.path.dirname(podium.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    modules = {}
    for name, code in (
        ("bare", show),
        ("podium", "import podium; podium.bundled_manifest(); " + show),
    ):
        out = subprocess.run(
            [sys.executable, *flags, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        modules[name] = set(out.stdout.split())
    added = modules["podium"] - modules["bare"]
    assert "podium.dsl" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "importlib.resources"}
