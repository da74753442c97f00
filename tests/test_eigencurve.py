from fractions import Fraction

import pytest

from padicforms.coleman import katz_basis, slope_spectrum, up_matrix
from padicforms.eigencurve import (
    LocalPieceReport,
    WeightDisc,
    local_piece_report,
    slopes_at,
    two_var_charseries,
)
from padicforms.errors import ConfigError, PrecisionError
from padicforms.serialize import encode


def F(x):
    return Fraction(x)


DISC = WeightDisc(p=5, component=0, sample_weights=(4, 8, 12, 16), m=10)


def test_disc_validation():
    with pytest.raises(ConfigError):
        WeightDisc(5, 0, (4, 6), 8)
    with pytest.raises(ConfigError, match="at least one sample"):
        WeightDisc(5, 0, (), 8)
    with pytest.raises(ConfigError):
        WeightDisc(4, 0, (4, 8), 8)
    # m < 1 is refused up front, not by the first Z/p^m built after Katz work
    for m in (0, -1):
        with pytest.raises(ConfigError, match="precision exponent must be >= 1"):
            WeightDisc(5, 0, (4,), m)
    # a weight that is not an integer is refused, not carried into the Katz work
    for args in ((5, 0, (4.0, 8), 8), (5, 0.0, (4,), 8), (5, 0, (4,), 8.0)):
        with pytest.raises(TypeError):
            WeightDisc(*args)


def test_disc_refuses_a_non_integer_prime():
    # 5.0 == 5 passed the prime check and failed late, inside the Katz work
    for p in (5.0, Fraction(5)):
        with pytest.raises(TypeError):
            WeightDisc(p, 0, (4, 8), 3)


def test_disc_stores_plain_int_fields():
    """m and the component are stored as the plain ints that
    ``operator.index`` gives, as the weights are, so a bool m prints and
    serializes as 1, not as true."""
    disc = WeightDisc(5, False, (8, 4), True)
    assert (disc.m, disc.component, disc.sample_weights) == (1, 0, (4, 8))
    assert all(type(v) is int for v in (disc.m, disc.component, *disc.sample_weights))
    assert encode({"m": disc.m}) == {"m": "1"}
    with pytest.raises(ConfigError, match="must be >= 1, got 0$"):
        WeightDisc(5, 0, (4,), False)


def test_two_var_series_respecializes_exactly():
    series = two_var_charseries(DISC, twist_depth=6)
    assert int(series.coeffs[0].specialize(4)) == 1
    for k, direct in series.samples:
        spec = series.specialize(k)
        m_eff = spec.m
        for a, b in zip(spec.coeffs, direct.coeffs):
            assert int(a) % 5**m_eff == int(b) % 5**m_eff


def test_two_var_series_c1_is_trace():
    series = two_var_charseries(DISC, twist_depth=6)
    for k, direct in series.samples:
        assert int(series.coeffs[1].specialize(k)) == int(direct.coeffs[1]) % 5 ** series.coeffs[1].m


def test_single_sample_disc_is_constant():
    disc = WeightDisc(5, 0, (4,), 8)
    series = two_var_charseries(disc, twist_depth=6)
    for c in series.coeffs[1:]:
        assert c.degree == 0
    direct = series.samples[0][1]
    spec = series.specialize(4)
    assert [int(x) for x in spec.coeffs] == [int(x) % 5**spec.m for x in direct.coeffs]


def test_slopes_at_sample_matches_spectrum():
    series = two_var_charseries(DISC, twist_depth=6)
    poly, flag = slopes_at(series, 4)
    assert flag == "sample"
    depth4 = 6 + (16 - 4) // 4
    rep = slope_spectrum(4, 5, depth4, 10, classical=False)
    n = min(len(poly.slope_multiset()), 2)
    assert poly.slope_multiset()[:n] == rep.slopes.slope_multiset()[:n]
    _, flag = slopes_at(series, 20)
    assert flag == "interpolated"
    with pytest.raises(ConfigError):
        slopes_at(series, 5)


def test_held_out_weight_prediction():
    # fit on {4, 8, 12, 16} minus one weight, predict the held-out series
    p = 5
    full = DISC.sample_weights
    for held_out in (8, 12):
        rest = tuple(k for k in full if k != held_out)
        disc = WeightDisc(p, 0, rest, 10)
        series = two_var_charseries(disc, twist_depth=6 + (max(full) - max(rest)) // 4)
        depth = 6 + (max(full) - held_out) // 4
        direct_mat = up_matrix(katz_basis(held_out, p, depth), 10)
        from padicforms.charseries import char_series

        direct = char_series(direct_mat)
        predicted = series.specialize(held_out)
        # congruence precision: sum of v_p(w* - w_i) over used samples
        from padicforms.padic import val_p
        from padicforms.weights import w_coordinate

        e_bound = sum(
            val_p(
                (w_coordinate(held_out, p, 10) - w_coordinate(k, p, 10)) % 5**10,
                p,
                saturate=10,
            )
            for k in rest
        )
        prec = min(e_bound, predicted.m)
        for a, b in zip(predicted.coeffs, direct.coeffs):
            assert (int(a) - int(b)) % 5**prec == 0


def test_local_piece_report_ordinary_degree():
    series = two_var_charseries(DISC, twist_depth=6)
    report = local_piece_report(series, 0)
    assert isinstance(report, LocalPieceReport)
    assert report.constant
    assert set(report.degrees.values()) == {1}


def test_local_piece_break_at_slope_errors():
    series = two_var_charseries(DISC, twist_depth=6)
    # weight 4 has a slope-1 class: h = 1 hits it exactly
    with pytest.raises(PrecisionError):
        local_piece_report(series, 1)


def test_local_piece_below_first_positive_slope():
    series = two_var_charseries(DISC, twist_depth=6)
    report = local_piece_report(series, Fraction(1, 2))
    assert report.degrees == {k: 1 for k in DISC.sample_weights}
