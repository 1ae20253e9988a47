"""Value semantics of the package's records: the repr, equality and hash
each record class had as a dataclass, and its construction rules; and that
a record's fields are values, which reading computes nothing."""

import ast
import functools
from fractions import Fraction as F
from pathlib import Path

import pytest

import involute
from involute._record import Record
from involute.classify import IdentityWalk, NotClassified, SearchRecord, SearchSummary
from involute.continuum import ContinuousWalk
from involute.transform import StochasticCheck
from involute.walk import ErgodicityReport, MixingReport, SubsetWalk
from involute.weights import Custom, DeltaAB, GammaAB, GammaC

# (construction, the repr the dataclass gave it, frozen)
CASES = [
    (lambda: GammaAB(1, F(1, 2)), "GammaAB(a=Fraction(1, 1), b=Fraction(1, 2))", True),
    (lambda: GammaC(2), "GammaC(c=Fraction(2, 1))", True),
    (lambda: DeltaAB(4, 2), "DeltaAB(a_prime=Fraction(4, 1), b_prime=Fraction(2, 1))", True),
    (lambda: Custom(2, {(0, 0): 1, (0, 1): F(1, 2), (1, 1): 3}),
     "Custom(n=2, table={(0, 0): Fraction(1, 1), (0, 1): Fraction(1, 2), "
     "(1, 1): Fraction(3, 1)})", True),
    (lambda: ErgodicityReport(True, True, True, [[0, 1]]),
     "ErgodicityReport(irreducible=True, aperiodic=True, ergodic=True, "
     "communicating_classes=[[0, 1]])", False),
    (lambda: SubsetWalk(1, F(1, 3), [F(1, 4), F(3, 4)], [1, F(-1, 3)]),
     "SubsetWalk(m=1, p=Fraction(1, 3), pi=[Fraction(1, 4), Fraction(3, 4)], "
     "eigenvalues=[1, Fraction(-1, 3)])", False),
    (lambda: StochasticCheck(True), "StochasticCheck(ok=True, witness=None, reason='')", True),
    (lambda: IdentityWalk(), "IdentityWalk()", True),
    (lambda: NotClassified("r"), "NotClassified(reason='r')", True),
    (lambda: SearchRecord([F(1)], False, None),
     "SearchRecord(lam=[Fraction(1, 1)], reversible=False, classification=None)", False),
    (lambda: SearchSummary(3, 0, 0), "SearchSummary(n=3, stochastic=0, reversible=0, records=[])",
     False),
    (lambda: MixingReport(F(1, 2), 0.5),
     "MixingReport(second_abs_eigenvalue=Fraction(1, 2), empirical_rate=0.5)", False),
    (lambda: ContinuousWalk("kappa"), "ContinuousWalk(kind='kappa', a=0, b=0)", True),
]
IDS = [text.split("(", 1)[0] for _, text, _ in CASES]


@pytest.mark.parametrize("make, text, frozen", CASES, ids=IDS)
def test_repr_and_equality(make, text, frozen):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b and a is not b
    assert a != None and a != text  # noqa: E711
    for other_make, _, _ in CASES:
        other = other_make()
        if type(other) is not type(a):
            assert a != other and other != a


def test_equality_needs_the_same_class():
    assert GammaAB(2, 2) != DeltaAB(2, 2)
    assert GammaAB(1, 2) != (F(1), F(2))
    assert GammaAB(1, 2) != GammaAB(2, 1)
    assert GammaAB(1, 2) == GammaAB(F(1), F(2))
    assert StochasticCheck(False, 2, "x") != StochasticCheck(False, 3, "x")


@pytest.mark.parametrize("make, text, frozen", [c for c in CASES if c[2]],
                         ids=[i for i, c in zip(IDS, CASES) if c[2]])
def test_frozen_fields_refuse_assignment_and_deletion(make, text, frozen):
    value = make()
    name = text.split("(", 1)[1].split("=", 1)[0] if "=" in text else "x"
    with pytest.raises(AttributeError):
        setattr(value, name, 3)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == text


def test_frozen_records_hash_by_value():
    for make, _, frozen in CASES:
        if frozen:
            assert hash(make()) == hash(make())
    assert len({GammaAB(1, 2), GammaAB(F(2, 2), 2), GammaC(1), NotClassified("r"),
                NotClassified("r"), IdentityWalk(), IdentityWalk()}) == 4


def test_custom_hash_ignores_the_table():
    one, two = Custom(1, {(0, 0): 1}), Custom(1, {(0, 0): 2})
    assert one != two
    assert hash(one) == hash(two) == hash(Custom(1, {(0, 0): 5}))


@pytest.mark.parametrize("make, text, frozen", [c for c in CASES if not c[2]],
                         ids=[i for i, c in zip(IDS, CASES) if not c[2]])
def test_mutable_records_are_unhashable(make, text, frozen):
    with pytest.raises(TypeError):
        hash(make())


def test_keyword_construction_and_defaults():
    assert StochasticCheck(ok=True) == StochasticCheck(True, None, "")
    check = StochasticCheck(ok=False, witness=2, reason="x")
    assert (check.ok, check.witness, check.reason, bool(check)) == (False, 2, "x", False)
    assert ContinuousWalk(kind="trig") == ContinuousWalk("trig", 0, 0)
    assert ContinuousWalk("kappa", b=2) == ContinuousWalk("kappa", 0, 2)
    first = SearchSummary(n=3, stochastic=0, reversible=0)
    second = SearchSummary(3, 0, 0)
    first.records.append(SearchRecord([F(1)], False, None))
    assert second.records == [] and first.records is not second.records
    assert first != second


def test_mutable_records_take_assignment():
    report = MixingReport(F(1, 2), 0.0)
    report.empirical_rate = 0.5
    assert report == MixingReport(F(1, 2), 0.5) != MixingReport(F(1, 2), 0.0)


def _record_classes():
    found, todo = [], [Record]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found if cls.__module__.startswith("involute.")]


def test_record_fields_are_values_not_properties():
    classes = _record_classes()
    assert {MixingReport, SubsetWalk, ErgodicityReport, GammaAB}.issubset(classes)
    for cls in classes:
        for name in cls._fields:
            for klass in cls.__mro__:
                assert not isinstance(klass.__dict__.get(name),
                                      (property, functools.cached_property)), (cls, name)


def test_no_module_imports_cached_property():
    for path in Path(involute.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert "cached_property" not in [a.name for a in node.names], path.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "cached_property"), \
                path.name
