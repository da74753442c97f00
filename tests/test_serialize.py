from fractions import Fraction

import pytest

from padicforms import coleman
from padicforms.charseries import CharSeries, newton_polygon
from padicforms.cli import EXIT_VERIFICATION, main
from padicforms.coleman import classicality_check, slope_spectrum
from padicforms.errors import VerificationError
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


def test_slope_report_json_certifies_the_whole_comparison():
    # certify_below 1/2 lies below the comparison bound min(k - 1, m - 2)
    # = 3, through which the spectrum is certified all the same: the bytes
    # of `padicforms slopes --k 4 --p 5 --I 12 --m 8`
    report = slope_spectrum(4, 5, 12, 8, certify_below=Fraction(1, 2))
    polygon = {
        "slopes": [
            {"slope": "0", "mult": "1"},
            {"slope": "1", "mult": "1"},
            {"slope": "3", "mult": "1"},
        ],
        "vertices": [["0", "0"], ["1", "0"], ["2", "1"], ["3", "4"]],
        "certified_degree": "3",
        "next_slope_floor": "4",
    }
    naive = {
        "slopes": [
            {"slope": "1", "mult": "1"},
            {"slope": "2", "mult": "1"},
            {"slope": "4", "mult": "1"},
        ],
        "vertices": [["0", "0"], ["1", "1"], ["2", "3"], ["3", "7"]],
        "certified_degree": "3",
        "next_slope_floor": "5",
    }
    assert slope_report_json(report) == {
        "p": "5",
        "k": "4",
        "I": "12",
        "qprec": "45",
        "m": "8",
        "m_working": "12",
        "m_effective": "12",
        "charseries": ["1", "38606129", "64971370", "181578750", "203125000", "0"],
        "slopes": polygon,
        "naive_slopes": naive,
        "threshold": "3",
        "classical": ["0", "1", "3"],
        "verdict": [
            {"slope": "0", "overconvergent": "1", "classical": "1", "verdict": "match"},
            {"slope": "1", "overconvergent": "1", "classical": "1", "verdict": "match"},
        ],
        "naive_shift_checked": True,
    }


def test_classicality_json_when_the_spectrum_is_not_certified(monkeypatch, capsys):
    # a polygon that never certifies: the cap 8 + 3 * max(D, 2) + 16 = 39,
    # D = 5, leaves the comparison range uncertified, which is refused
    # rather than serialized, and the command exits 1
    real = coleman.newton_polygon
    floor_0 = Fraction(0)
    monkeypatch.setattr(
        coleman, "newton_polygon", lambda series: real(series)._replace(next_slope_floor=floor_0)
    )
    message = "polygon at weight 4 not certified below the comparison bound 3"
    with pytest.raises(VerificationError, match=f"^{message}$"):
        classicality_json(classicality_check(4, 5, 12, 8))
    code = main(["classicality", "--k", "4", "--p", "5", "--I", "12", "--m", "8"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        EXIT_VERIFICATION,
        "",
        f"verification failure: {message}\n",
    )
