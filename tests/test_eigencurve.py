from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms import acceptance, eigencurve
from padicforms.charseries import CharSeries, char_series, newton_polygon
from padicforms.coleman import KatzBasis, katz_basis, slope_spectrum, up_matrix
from padicforms.eigencurve import (
    LocalPieceReport,
    WeightDisc,
    local_piece_report,
    two_var_charseries,
)
from padicforms.errors import ConfigError, PrecisionError
from padicforms.padic import val_p
from padicforms.serialize import encode
from padicforms.weights import IwasawaTruncation, interpolate_iwasawa, w_coordinate


def F(x):
    return Fraction(x)


DISC = WeightDisc(p=5, component=0, sample_weights=(4, 8, 12, 16), m=10)


def test_disc_validation():
    with pytest.raises(ConfigError):
        WeightDisc(5, 0, (4, 6), 8)
    with pytest.raises(ConfigError, match="at least one sample"):
        WeightDisc(5, 0, (), 8)
    with pytest.raises(ConfigError, match=r"disc samples must be >= 1 \(uniform U_p"):
        WeightDisc(5, 0, (0,), 8)
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
        assert len(c.poly_coeffs) == 1
    direct = series.samples[0][1]
    spec = series.specialize(4)
    assert [int(x) for x in spec.coeffs] == [int(x) % 5**spec.m for x in direct.coeffs]


def test_slopes_at_sample_matches_spectrum():
    series = two_var_charseries(DISC, twist_depth=6)
    poly = newton_polygon(series.specialize(4))
    depth4 = 6 + (16 - 4) // 4
    rep = slope_spectrum(4, 5, depth4, 10, classical=False)
    n = min(len(poly.slope_multiset()), 2)
    assert poly.slope_multiset()[:n] == rep.slopes.slope_multiset()[:n]
    with pytest.raises(ConfigError):
        series.specialize(5)


def test_held_out_weight_prediction():
    # fit on {4, 8, 12, 16} minus one weight, predict the held-out series
    p = 5
    full = DISC.sample_weights
    for held_out in (8, 12):
        rest = tuple(k for k in full if k != held_out)
        disc = WeightDisc(p, 0, rest, 10)
        series = two_var_charseries(disc, twist_depth=6 + (max(full) - max(rest)) // 4)
        depth = 6 + (max(full) - held_out) // 4
        direct = char_series(up_matrix(katz_basis(held_out, p, depth), 10))
        predicted = series.specialize(held_out)
        # congruence precision: sum of v_p(w* - w_i) over used samples
        e_bound = sum(
            val_p(
                (w_coordinate(held_out, p, 10) - w_coordinate(k, p, 10)) % 5**10,
                p,
                saturate=10,
            )
            for k in rest
        )
        assert predicted.m == min(e_bound, min(c.m for c in series.coeffs))
        for a, b in zip(predicted.coeffs, direct.coeffs):
            assert (int(a) - int(b)) % 5**predicted.m == 0


@pytest.mark.parametrize(
    "disc, depth",
    [
        (WeightDisc(5, 0, acceptance.DISC_SAMPLES, 10), acceptance.DISC_DEPTH),
        (DISC, 6),
    ],
    ids=["criterion_9", "DISC"],
)
def test_refit_is_the_direct_disc_of_its_samples(disc, depth):
    """For every leave-one-out subset, the refit equals the disc series
    of those weights at the same top weight, as a record: the same
    disc, twist depth, fitted coefficients and per-weight series.  The
    twist depth grows when the largest sample is held out."""
    full = two_var_charseries(disc, depth)
    for held_out in disc.sample_weights:
        rest = tuple(k for k in disc.sample_weights if k != held_out)
        direct_depth = (full.top_weight - max(rest)) // (disc.p - 1)
        direct = two_var_charseries(WeightDisc(disc.p, 0, rest, disc.m), direct_depth)
        assert full.refit(rest) == direct
    assert full.refit(disc.sample_weights) == full


def test_refit_refuses_a_weight_that_is_not_a_sample():
    full = two_var_charseries(DISC, twist_depth=6)
    with pytest.raises(ConfigError) as exc:
        full.refit((4, 8, 20))
    assert str(exc.value) == "weights [20] are not samples of this series"
    with pytest.raises(ConfigError, match="weight 6 is not on component 0 mod 4"):
        full.refit((4, 6))


def test_criterion_9_builds_one_katz_model_per_sample(monkeypatch):
    """The full disc builds the 5 Katz models; its 5 held-out fits are
    refits of its own samples and build none."""
    built = []
    real = eigencurve.katz_basis

    def katz_basis_spy(k, p, twist_depth):
        built.append((k, twist_depth))
        return real(k, p, twist_depth)

    monkeypatch.setattr(eigencurve, "katz_basis", katz_basis_spy)
    assert acceptance.criterion_9(0).passed
    assert built == [(4, 14), (8, 13), (12, 12), (16, 11), (20, 10)]


def test_a_negative_depth_is_refused_before_any_katz_element(monkeypatch):
    # depth -1 at the top sample 16 leaves samples 4, 8 and 12 at depths
    # 2, 1 and 0: every Katz basis is made, and sample 16's refused,
    # before any sample's elements or U_p matrix
    built = []
    monkeypatch.setattr(KatzBasis, "elements_mod", lambda self, m: built.append(m))
    with pytest.raises(ConfigError, match="twist depth must be >= 0"):
        two_var_charseries(WeightDisc(5, 0, (4, 8, 12, 16), 8), -1)
    assert built == []


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


def test_local_piece_report_refuses_an_uncertified_floor():
    """The weight-12 sample read mod 5 only has polygon floor 1/3, so its
    slopes up to 1/2 are not certified, and the report says so rather
    than count its slope-<= 1/2 factor."""
    series = two_var_charseries(DISC, twist_depth=6)
    samples = tuple(
        (k, CharSeries(s.coeffs, 5, 1) if k == 12 else s) for k, s in series.samples
    )
    with pytest.raises(PrecisionError) as exc:
        local_piece_report(series._replace(samples=samples), Fraction(1, 2))
    assert str(exc.value) == "slopes near 1/2 not certified at weight 12 (polygon floor 1/3)"


def test_off_sample_slopes_certify_only_what_the_fit_supports():
    """Fitted through 4 and 8 only, the series predicts weight 12 to
    v_5(w_12 - w_4) + v_5(w_12 - w_8) = 2 digits, not to the fit's 9:
    claiming 9 certified the slopes 0, 1, 3, where weight 12 at the same
    top weight 32 has 0, 1, 7."""
    series = two_var_charseries(WeightDisc(5, 0, (4, 8), 10), twist_depth=6)
    poly = newton_polygon(series.specialize(12))
    direct = newton_polygon(char_series(up_matrix(katz_basis(12, 5, 5), 10)))
    assert direct.slope_multiset() == [0, 1, 7]
    certified = poly.slope_multiset()
    assert certified == direct.slope_multiset()[: len(certified)]


def test_off_component_weight_has_one_error():
    # the disc, a truncation, the interpolation and the disc series all
    # refuse weight 6 on component 0 mod 4 through weights.check_component
    series = two_var_charseries(WeightDisc(5, 0, (4,), 3), twist_depth=1)
    refusals = (
        lambda: WeightDisc(5, 0, (4, 6), 3),
        lambda: IwasawaTruncation(5, 0, (1,), 3).specialize(6),
        lambda: interpolate_iwasawa([(4, 1), (6, 1)], 5, 3),
        lambda: series.specialize(6),
    )
    for refuse in refusals:
        with pytest.raises(ConfigError) as info:
            refuse()
        assert str(info.value) == "weight 6 is not on component 0 mod 4"


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    p=st.sampled_from((5, 7)),
    data=st.data(),
    depth=st.integers(1, 3),
    m=st.integers(6, 9),
)
def test_specialization_holds_to_the_precision_it_claims(p, data, depth, m):
    """Off the samples and at them, ``specialize`` agrees with the direct
    series at the same top weight, and the disc series at m + 2 with the
    one at m, to the precision the run at m claims."""
    component = data.draw(st.sampled_from(range(0, p - 1, 2)), label="component")
    ladder = [k for k in range(component, 60, p - 1) if k >= 4][:6]
    samples = data.draw(
        st.lists(st.sampled_from(ladder), min_size=1, max_size=4, unique=True),
        label="samples",
    )
    series = two_var_charseries(WeightDisc(p, component, samples, m), depth)
    deeper = two_var_charseries(WeightDisc(p, component, samples, m + 2), depth)
    top = series.top_weight
    off = [k for k in range(ladder[0], top + 1, p - 1) if k not in samples]
    k = data.draw(st.sampled_from(off), label="k")
    predicted = series.specialize(k)
    direct = char_series(up_matrix(katz_basis(k, p, (top - k) // (p - 1)), m))
    modulus = p**predicted.m
    assert [a % modulus for a in direct.coeffs] == list(predicted.coeffs)
    for weight in (*samples, k):
        claimed = series.specialize(weight)
        modulus = p**claimed.m
        assert [a % modulus for a in deeper.specialize(weight).coeffs] == list(
            claimed.coeffs
        )
