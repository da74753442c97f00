"""Value semantics of the package's value types: equal when of one class
with equal fields, with equal hashes, a ``repr`` of the fields, and
immutable once built."""

import copy

import pytest

from padicforms.charseries import CharSeries
from padicforms.duality import DualFamily
from padicforms.forms import SpaceBasis
from padicforms.padic import PadicMatrix
from padicforms.qexp import ZZ, IntegerRing, ModRing, QSeries
from padicforms.weights import IwasawaTruncation, WeightDisc

MATRIX = PadicMatrix(((1, 2), (3, 4)), 5, 2)

# (class, its fields in order, another value for each field that can
# change alone: a WeightDisc's component follows its weights, and a
# DualFamily's rank its gram matrix)
SAMPLES = [
    (
        PadicMatrix,
        dict(rows=((1, 2), (3, 4)), p=5, m=2),
        dict(rows=((1, 2), (3, 0)), p=7, m=3),
    ),
    (IntegerRing, {}, {}),
    (ModRing, dict(p=5, m=2), dict(p=7, m=3)),
    (
        QSeries,
        dict(ring=ModRing(5, 2), coeffs=(1, 2, 3)),
        dict(ring=ModRing(5, 3), coeffs=(1, 2, 4)),
    ),
    (CharSeries, dict(coeffs=(1, 2), p=5, m=2), dict(coeffs=(1, 3), p=7, m=3)),
    (
        SpaceBasis,
        dict(weight=4, forms=(QSeries(ZZ, (1, 240)),)),
        dict(weight=8, forms=(QSeries(ZZ, (1, 480)),)),
    ),
    (
        WeightDisc,
        dict(p=5, component=0, sample_weights=(12, 24), m=3),
        dict(p=7, sample_weights=(12,), m=4),
    ),
    (
        IwasawaTruncation,
        dict(p=5, component=0, poly_coeffs=(1, 2), m=3, sample_weights=(4, 8)),
        dict(p=7, component=2, poly_coeffs=(1, 3), m=4, sample_weights=(4,)),
    ),
    (
        DualFamily,
        dict(rank=2, gram=PadicMatrix.identity(2, 5, 2), operator_on_dual=MATRIX),
        dict(gram=MATRIX, operator_on_dual=PadicMatrix.identity(2, 5, 2)),
    ),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls, fields, changes", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_values(cls, fields, changes):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword is not by_position
    assert by_keyword == by_position and not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position)
    shown = ", ".join(f"{name}={getattr(by_keyword, name)!r}" for name in fields)
    assert repr(by_keyword) == repr(by_position) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, changes", SAMPLES, ids=IDS)
def test_each_field_is_compared_and_hashed(cls, fields, changes):
    value = cls(**fields)
    for name, other in changes.items():
        changed = cls(**{**fields, name: other})
        assert changed != value and not changed == value, name
        assert hash(changed) != hash(value), name


@pytest.mark.parametrize("cls, fields, changes", SAMPLES, ids=IDS)
def test_values_of_another_class_differ(cls, fields, changes):
    value = cls(**fields)
    same_fields = type("Other", (cls,), {})(**fields)
    assert value != same_fields and same_fields != value and not value == same_fields
    assert value != tuple(fields.values()) and tuple(fields.values()) != value


@pytest.mark.parametrize("value", [ModRing(5, 2), MATRIX], ids=["ModRing", "PadicMatrix"])
def test_modulus_is_not_compared(value):
    skewed = copy.copy(value)
    vars(skewed)["modulus"] = 7
    assert skewed == value and hash(skewed) == hash(value)
    assert "modulus" not in repr(value)


@pytest.mark.parametrize("cls, fields, changes", SAMPLES, ids=IDS)
def test_values_are_immutable(cls, fields, changes):
    value = cls(**fields)
    for name in (*fields, "modulus", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields) and not hasattr(value, "extra")


def test_iwasawa_truncation_samples_default_to_empty():
    fit = IwasawaTruncation(5, 0, (1, 2), 3)
    assert fit.sample_weights == ()
    assert fit == IwasawaTruncation(p=5, component=0, poly_coeffs=(1, 2), m=3, sample_weights=())


def test_zz_is_truthy_and_the_one_integer_ring():
    assert ZZ and IntegerRing()
    assert ZZ == IntegerRing() and hash(ZZ) == hash(IntegerRing())
    assert ZZ != () and ZZ != ModRing(5, 2)
