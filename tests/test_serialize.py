from fractions import Fraction

import pytest

from padicforms import coleman
from padicforms.charseries import CharSeries, newton_polygon
from padicforms.coleman import classicality_check, slope_spectrum
from padicforms.serialize import classicality_json, encode, polygon_json, slope_report_json


@pytest.mark.parametrize(
    "value", [2.5, 1.0, 1j, object()], ids=["float", "whole-float", "complex", "object"]
)
def test_encode_rejects_non_integers(value):
    with pytest.raises(TypeError):
        encode(value)


def test_encode_refuses_a_record():
    """A record is a tuple, but ``encode`` refuses it rather than writing
    its fields as a list, as it refuses any object that is not a number."""
    report = slope_spectrum(4, 5, 12, 8, classical=False)
    for record in (report, report.slopes):
        with pytest.raises(TypeError, match="record"):
            encode(record)
        with pytest.raises(TypeError, match="record"):
            encode({"report": [record]})


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


def test_polygon_json_warns_when_every_coefficient_is_saturated():
    # 1 + 0T + 0T^2 over Z/5^3: the zeros are known only to 5^3, so no
    # slope is certified and the floor of the next one is 3/2
    polygon = newton_polygon(CharSeries((1, 0, 0), 5, 3))
    assert encode(polygon_json(polygon)) == {
        "slopes": [],
        "vertices": [["0", "0"]],
        "certified_degree": "0",
        "next_slope_floor": "3/2",
        "warning": "all-coefficients-saturated",
    }


def test_slope_report_json_when_the_comparison_is_not_certified():
    # certified below 1/2 only, the polygon's floor 7/3 stops short of the
    # comparison bound min(k - 1, m - 2) = 3: one indeterminate entry
    report = slope_spectrum(4, 5, 12, 8, certify_below=Fraction(1, 2))
    polygon = {
        "slopes": [{"slope": "0", "mult": "1"}, {"slope": "1", "mult": "1"}],
        "vertices": [["0", "0"], ["1", "0"], ["2", "1"]],
        "certified_degree": "2",
        "next_slope_floor": "7/3",
    }
    naive = {
        "slopes": [{"slope": "1", "mult": "1"}, {"slope": "2", "mult": "1"}],
        "vertices": [["0", "0"], ["1", "1"], ["2", "3"]],
        "certified_degree": "2",
        "next_slope_floor": "10/3",
    }
    assert slope_report_json(report) == {
        "p": "5",
        "k": "4",
        "I": "12",
        "qprec": "45",
        "m": "8",
        "m_working": "8",
        "m_effective": "8",
        "charseries": ["1", "324879", "127620", "328750", "0", "0"],
        "slopes": polygon,
        "naive_slopes": naive,
        "threshold": "3",
        "classical": ["0", "1", "3"],
        "verdict": [{"slope": None, "verdict": "indeterminate"}],
        "naive_shift_checked": True,
    }


def test_classicality_json_when_the_spectrum_is_not_certified(monkeypatch):
    # a polygon that never certifies: the report of the cap
    # 8 + 3 * max(D, 2) + 16 = 39, D = 5, with no slope compared
    real = coleman.newton_polygon
    floor_0 = Fraction(0)
    monkeypatch.setattr(
        coleman, "newton_polygon", lambda series: real(series)._replace(next_slope_floor=floor_0)
    )
    report = classicality_check(4, 5, 12, 8)
    assert encode(classicality_json(report)) == {
        "p": "5",
        "k": "4",
        "I": "12",
        "m": "8",
        "m_working": "39",
        "compared_below": "3",
        "overconvergent": [],
        "classical": ["0", "1"],
        "boundary": {"overconvergent": None, "classical": "1"},
        "verdict": "indeterminate",
    }
