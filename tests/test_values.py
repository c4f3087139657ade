"""The contract of the library's frozen value types.

A value equals exactly the instances of its own class with equal fields,
hashes as the tuple of its fields, prints as ``Name(field=value, ...)`` and
refuses assignment and deletion.  The reprs and the two sha256 digests were
recorded from the ``dataclasses`` implementation these types replaced, so
they pin the printed form across it.
"""

import hashlib
from fractions import Fraction

import pytest

from sixpoint.divisors import BaseLocus, CCurve, ChamberReport, FCurve, Model
from sixpoint.genus2 import M2ChamberReport, M2Divisor, M2Model, Space
from sixpoint.hypersurfaces import DualityReport, PairLine
from sixpoint.report import Check, CheckGroup, PaperReport, build_report
from sixpoint.stability import (
    OneParameterSubgroup,
    PointConfiguration,
    StabilityVerdict,
    Status,
    WeightVector,
    Witness,
    stability_status,
    symmetric_weights,
)
from sixpoint.strata import LineRecord, StratumSignature

HALF = Fraction(1, 2)
WITNESS = Witness(1, (0, 1, 2, 3), Fraction(2), False)
LINE = LineRecord((0, 1, 2), 3, 3)
CHECK = Check("F(1,1,2,2).DA", "0", "0")
GROUP = CheckGroup("quotient-polarization", (CHECK,))

# each value type: constructor arguments in field order, and the repr
VALUES = [
    (PointConfiguration, (2, ((2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
     "PointConfiguration(d=2, points=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))"),
    (WeightVector, (2, (Fraction(3, 4),) * 4),
     "WeightVector(d=2, weights=(Fraction(3, 4), Fraction(3, 4), Fraction(3, 4), Fraction(3, 4)))"),
    (Witness, (1, (0, 1, 2, 3), Fraction(2), False),
     "Witness(dim=1, marks=(0, 1, 2, 3), weight=Fraction(2, 1), violation=False)"),
    (StabilityVerdict, (Status.STRICTLY_SEMISTABLE, (WITNESS,)),
     "StabilityVerdict(status=<Status.STRICTLY_SEMISTABLE: 'StrictlySemistable'>, witnesses=("
     "Witness(dim=1, marks=(0, 1, 2, 3), weight=Fraction(2, 1), violation=False),))"),
    (OneParameterSubgroup, ((0, 1, 2),), "OneParameterSubgroup(weights=(0, 1, 2))"),
    (LineRecord, ((0, 1, 2), 3, 3), "LineRecord(marks=(0, 1, 2), support=3, weighted=3)"),
    (StratumSignature, (((0, 1), (2,)), (LINE,)),
     "StratumSignature(coincidence=((0, 1), (2,)), lines=("
     "LineRecord(marks=(0, 1, 2), support=3, weighted=3),))"),
    (FCurve, ((3, 1, 1, 1),), "FCurve(partition=(1, 1, 1, 3))"),
    (CCurve, (4,), "CCurve(j=4)"),
    (ChamberReport, (Model.SEGRE_CUBIC, BaseLocus.EMPTY, True),
     "ChamberReport(model=<Model.SEGRE_CUBIC: 'SegreCubic'>, "
     "stable_base_locus=<BaseLocus.EMPTY: 'Empty'>, boundary_case=True)"),
    (M2Divisor, (Space.STACK, 1, 2, HALF),
     "M2Divisor(space=<Space.STACK: 'Stack'>, lam=Fraction(1, 1), delta0=Fraction(2, 1), "
     "delta1=Fraction(1, 2))"),
    (M2ChamberReport, (M2Model.SATAKE, True),
     "M2ChamberReport(model=<M2Model.SATAKE: 'SatakeA2'>, boundary_case=True)"),
    (PairLine, (((0, 1), (2, 3), (4, 5)),), "PairLine(pairs=((0, 1), (2, 3), (4, 5)))"),
    (DualityReport, (60, 12, 3, 0, 7),
     "DualityReport(samples=60, exact_samples=12, skipped=3, nonzero_residuals=0, seed=7)"),
    (Check, ("F(1,1,2,2).DA", "0", "0"), "Check(name='F(1,1,2,2).DA', expected='0', computed='0')"),
    (CheckGroup, ("quotient-polarization", (CHECK,)),
     "CheckGroup(name='quotient-polarization', checks=("
     "Check(name='F(1,1,2,2).DA', expected='0', computed='0'),))"),
    (PaperReport, ((GROUP,),),
     "PaperReport(groups=(CheckGroup(name='quotient-polarization', checks=("
     "Check(name='F(1,1,2,2).DA', expected='0', computed='0'),)),))"),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]

# recorded with the duality check already named with its sample count,
# "sampled images exactly on the quartic (2 samples, seed 7)"
REPORT_SHA256 = "727be5c4eef0b77fe4924d8c58ca7fb23bab0dc476acdbbc0141313faf360604"
VERDICT_SHA256 = "a4a9589357ad14615609018ba85c74d880805d1532f2aaab26e3d894ebcb60a1"


def field_values(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value)._fields)


def test_every_value_type_is_listed():
    assert len(VALUES) == len(set(IDS)) == 17


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_a_value_prints_its_fields(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_a_value_equals_an_equal_copy(cls, args, text):
    value, copy = cls(*args), cls(*args)
    assert value is not copy
    assert value == copy and not value != copy
    assert hash(value) == hash(copy)


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, text):
    by_keyword = cls(**dict(zip(cls._fields, args)))
    assert by_keyword == cls(*args)
    assert repr(by_keyword) == text


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_a_value_hashes_as_the_tuple_of_its_fields(cls, args, text):
    value = cls(*args)
    assert len(field_values(value)) == len(cls._fields) >= 1
    assert hash(value) == hash(field_values(value))


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_a_value_differs_from_another_type_with_the_same_fields(cls, args, text):
    value = cls(*args)
    twin = object.__new__(type(cls.__name__, (cls,), {}))
    twin.__dict__.update(value.__dict__)
    assert field_values(twin) == field_values(value)
    assert value != twin and twin != value
    assert value != field_values(value)
    assert value.__eq__(field_values(value)) is NotImplemented


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_a_value_refuses_assignment_and_deletion(cls, args, text):
    value = cls(*args)
    before = field_values(value)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert field_values(value) == before


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_report_prints_as_before():
    assert sha256(repr(build_report(duality_samples=2))) == REPORT_SHA256


def test_a_verdict_with_witnesses_prints_as_before():
    config = PointConfiguration(2, [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)])
    verdict = stability_status(config, symmetric_weights(6, 2))
    assert len(verdict.witnesses) > 1
    assert sha256(repr(verdict)) == VERDICT_SHA256
