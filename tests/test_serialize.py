from fractions import Fraction

import pytest

from padicforms.serialize import encode


@pytest.mark.parametrize(
    "value", [2.5, 1.0, 1j, object()], ids=["float", "whole-float", "complex", "object"]
)
def test_encode_rejects_non_integers(value):
    with pytest.raises(TypeError):
        encode(value)


def test_encode_numbers_as_decimal_strings():
    assert encode(12) == "12"
    assert encode(-3) == "-3"
    assert encode(Fraction(1, 2)) == "1/2"
    assert encode(Fraction(4, 2)) == "2"


def test_encode_passes_booleans_none_and_strings():
    # bool is an int: it must not become "1" or "0"
    for value in (True, False, None, "", "pass", "12"):
        assert encode(value) is value


def test_encode_keys_and_containers():
    value = {12: (1, (Fraction(1, 2), None)), Fraction(1, 2): [True, "x"], "k": {}}
    expected = {"12": ["1", ["1/2", None]], "1/2": [True, "x"], "k": {}}
    assert encode(value) == expected
    assert encode(((1, 2), ())) == [["1", "2"], []]


def test_encode_is_idempotent():
    value = {4: {5: (1, 2)}, "verdict": [{"slope": None, "mult": 2}], Fraction(3, 2): False}
    once = encode(value)
    assert encode(once) == once
