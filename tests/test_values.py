"""The value types keep the behaviour of frozen dataclasses.

Each bilor value class is checked against a reference ``@dataclass(frozen=True)``
declared here with the same name, fields and defaults: the same repr,
equality and hash on the same values, keyword construction and defaults,
refusal of assignment and deletion, and pickle / copy round trips.
"""

import copy
import pickle
import re
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction as F

import pytest

import bilor
from bilor import DegreeError, ShapeError


@dataclass(frozen=True)
class MinorWitness:
    rows: tuple
    cols: tuple
    value: F


@dataclass(frozen=True)
class Verdict:
    prop: str
    passed: bool
    witness: object = None
    detail: object = None


@dataclass(frozen=True)
class HrrFailure:
    degree: object = None
    points: object = None
    value: object = None
    minor: object = None


@dataclass(frozen=True)
class HrrVerdict:
    prop: str
    up_to: int
    passed: bool
    failure: object = None
    detail: object = None


@dataclass(frozen=True)
class BivariateForm:
    degree: int
    coeffs: tuple


@dataclass(frozen=True)
class LinearForm:
    a: F
    b: F


@dataclass(frozen=True)
class CoordChange:
    p: F
    q: F
    r: F
    s: F


@dataclass(frozen=True)
class AlgebraProfile:
    degree: int
    hilbert: tuple
    sperner: int
    socle_degree: int


@dataclass(frozen=True)
class XYPoly:
    degree: int
    coeffs: tuple


@dataclass(frozen=True)
class PrimitiveBasis:
    degree: int
    vectors: tuple
    expected_dim: int


@dataclass(frozen=True)
class HessianFamily:
    degree: int
    order: int
    base: tuple


@dataclass(frozen=True)
class SignatureReport:
    positive: int
    zero: int
    negative: int


@dataclass(frozen=True)
class LorentzClass:
    degree: int
    order_strict: int
    order: int
    per_order: tuple


@dataclass(frozen=True)
class ApproxStep:
    form: object
    rank_steps: tuple
    final_mix: object
    distance: F


@dataclass(frozen=True)
class ToeplitzMatrix:
    rows: int
    cols: int
    diag: tuple


@dataclass(frozen=True)
class RootCount:
    total_real: int
    nonpositive_real: int
    degree_drop: int


@dataclass(frozen=True)
class PathMatrixWindow:
    band: int
    weights: tuple
    rows: tuple
    cols: tuple


WITNESS = bilor.MinorWitness((0, 1), (1, 2), F(-3, 4))
PASS = bilor.Verdict("lorentzian", True)
FAIL = bilor.Verdict("strictly-lorentzian", False, WITNESS, "zero form")
FAILURE = bilor.HrrFailure(1, ((F(1), F(2)),), F(-1), WITNESS)
FORM = bilor.BivariateForm(2, (F(1), F(1, 2), F(3)))

# (reference class, field values already in the normalized shape the bilor
# class stores)
CASES = [
    (MinorWitness, ((0, 1), (1, 2), F(-3, 4))),
    (Verdict, ("strictly-lorentzian", False, WITNESS, "zero form")),
    (HrrFailure, (1, ((F(1), F(2)),), F(-1), WITNESS)),
    (HrrVerdict, ("hrr", 2, False, FAILURE, None)),
    (BivariateForm, (2, (F(1), F(1, 2), F(3)))),
    (LinearForm, (F(1), F(-2, 3))),
    (CoordChange, (F(1), F(2), F(3, 5), F(4))),
    (AlgebraProfile, (4, (1, 2, 3, 2, 1), 3, 4)),
    (XYPoly, (2, (F(1), F(0), F(-1)))),
    (PrimitiveBasis, (1, ((F(1), F(-1)),), 1)),
    (HessianFamily, (2, 1, (((F(1), F(2)), (F(2), F(3))),))),
    (SignatureReport, (2, 0, 1)),
    (LorentzClass, (4, -1, 2, ((FAIL, PASS),))),
    (ApproxStep, (FORM, ((F(1, 2), F(1, 32)),), F(1, 2), F(3))),
    (ToeplitzMatrix, (2, 3, (F(1), F(2), F(3), F(4)))),
    (RootCount, (3, 2, 1)),
    (PathMatrixWindow, (2, ((F(1), F(1)), (F(2), F(1))), (0, 1), (1, 2))),
]
IDS = [ref.__name__ for ref, _ in CASES]


def test_every_value_class_is_covered():
    covered = {ref.__name__ for ref, _ in CASES}
    values = {name for name in bilor.__all__
              if isinstance(getattr(bilor, name), type)
              and issubclass(getattr(bilor, name), bilor.verdict.Frozen)}
    assert covered == values and len(covered) == 17


@pytest.mark.parametrize("ref, values", CASES, ids=IDS)
def test_fields_match_the_reference(ref, values):
    assert getattr(bilor, ref.__name__).__slots__ == tuple(f.name for f in fields(ref))


@pytest.mark.parametrize("ref, values", CASES, ids=IDS)
def test_repr_eq_and_hash_match_the_reference(ref, values):
    ours, theirs = getattr(bilor, ref.__name__)(*values), ref(*values)
    assert repr(ours) == repr(theirs)
    assert hash(ours) == hash(theirs) == hash(values)
    assert ours == getattr(bilor, ref.__name__)(*values)
    assert not ours != getattr(bilor, ref.__name__)(*values)


@pytest.mark.parametrize("ref, values", CASES, ids=IDS)
def test_other_classes_never_compare_equal(ref, values):
    cls = getattr(bilor, ref.__name__)
    ours = cls(*values)
    twin = type(cls.__name__, (cls,), {"__slots__": ()})(*values)
    assert ours != twin and twin != ours
    assert ours != ref(*values) and ref(*values) != ours
    assert ours != values
    assert ours.__eq__(values) is NotImplemented


def test_same_fields_in_another_class_are_not_equal():
    coeffs = (F(1), F(0), F(-1))
    assert bilor.BivariateForm(2, coeffs) != bilor.XYPoly(2, coeffs)
    assert bilor.SignatureReport(3, 2, 1) != bilor.RootCount(3, 2, 1)


@pytest.mark.parametrize("ref, values", CASES, ids=IDS)
def test_keyword_construction_and_defaults(ref, values):
    cls = getattr(bilor, ref.__name__)
    names = [f.name for f in fields(ref)]
    assert cls(**dict(zip(names, values))) == cls(*values)
    required = {f.name: v for f, v in zip(fields(ref), values) if f.default is MISSING}
    assert repr(cls(**required)) == repr(ref(**required))


@pytest.mark.parametrize("ref, values", CASES, ids=IDS)
def test_instances_are_frozen(ref, values):
    ours = getattr(bilor, ref.__name__)(*values)
    for name in (*(f.name for f in fields(ref)), "extra"):
        with pytest.raises(AttributeError):
            setattr(ours, name, None)
        with pytest.raises(AttributeError):
            delattr(ours, name)
    assert repr(ours) == repr(ref(*values))


@pytest.mark.parametrize("ref, values", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(ref, values):
    ours = getattr(bilor, ref.__name__)(*values)
    for twin in (pickle.loads(pickle.dumps(ours)), copy.copy(ours), copy.deepcopy(ours)):
        assert type(twin) is type(ours)
        assert twin == ours and repr(twin) == repr(ours)


def test_constructors_normalize_their_inputs():
    form = bilor.BivariateForm(1, [1, "1/2"])
    assert form.coeffs == (F(1), F(1, 2)) and type(form.coeffs) is tuple
    assert bilor.XYPoly(1, [2, 0]).coeffs == (F(2), F(0))
    assert bilor.ToeplitzMatrix(1, 2, [1, 2]).diag == (F(1), F(2))
    assert bilor.LinearForm(1, "2/4") == bilor.LinearForm(F(1), F(1, 2))
    assert bilor.CoordChange(1, 0, 0, 1) == bilor.CoordChange.identity()
    assert all(type(x) is F for x in (*bilor.LinearForm(1, 2).point(),
                                      *bilor.CoordChange(1, 2, 3, 4).matrix()[0]))


@pytest.mark.parametrize("build, error, message", [
    (lambda: bilor.BivariateForm(-1, ()), DegreeError, "form degree must be nonnegative"),
    (lambda: bilor.BivariateForm(2, (1, 2)), ShapeError,
     "degree 2 form needs 3 coefficients, got 2"),
    (lambda: bilor.BivariateForm(1, (1, "x")), ValueError, "Invalid literal for Fraction: 'x'"),
    (lambda: bilor.ToeplitzMatrix(0, 2, (1,)), ShapeError, "empty Toeplitz matrix"),
    (lambda: bilor.ToeplitzMatrix(2, 1, (1, 2, 3)), ShapeError,
     "2x1 Toeplitz matrix needs 2 diagonal values, got 3"),
    (lambda: bilor.XYPoly(2, (1,)), ShapeError, "coefficient count does not match degree"),
    (lambda: bilor.LinearForm("x", 1), ValueError, "Invalid literal for Fraction: 'x'"),
    (lambda: bilor.LinearForm(1, None), TypeError,
     "argument should be a string or a Rational instance"),
])
def test_validation_errors_are_unchanged(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
