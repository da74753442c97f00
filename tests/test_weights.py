from fractions import Fraction

import pytest

from padicforms.errors import PrecisionError, VerificationError
from padicforms.forms import SUPPORTED_PRIMES
from padicforms.weights import (
    IwasawaTruncation,
    _weight_distance,
    congruence_table,
    interpolate_iwasawa,
    w_coordinate,
)


def test_w_coordinate():
    assert w_coordinate(0, 5, 4) == 0
    assert w_coordinate(1, 5, 4) == 5
    assert w_coordinate(4, 5, 4) == (6**4 - 1) % 5**4  # 1295 mod 625 = 45
    assert w_coordinate(-1, 5, 3) == (pow(6, -1, 125) - 1) % 125


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_weight_distance_is_the_closed_form(p):
    """v_p(w_k - w_k') = v_p((1+p)^(k-k') - 1) = 1 + v_p(k - k') for odd p
    and k != k', saturated at m: the grid holds pairs of every distance
    from 0 to 5 and both signs, and m up to 5, so some pairs agree mod
    p^m and read m only by the saturation."""
    ks = sorted({k0 + j * p**e for k0 in (-6, 0, 4) for e in range(6) for j in (0, 1, -2)})
    for m in (1, 2, 3, 5):
        for k in ks:
            assert _weight_distance(k, k, p, m) == m
            for k2 in ks:
                if k2 != k:
                    assert _weight_distance(k, k2, p, m) == min(m, 1 + _valuation(k - k2, p))


def test_specialize_constant_and_linear():
    const = IwasawaTruncation(5, 0, (7,), 4)
    for k in (0, 4, 8, 20):
        assert int(const.specialize(k)) == 7
    linear = IwasawaTruncation(5, 0, (0, 1), 4)  # the polynomial w
    assert int(linear.specialize(0)) == 0
    assert int(linear.specialize(4)) == 1295 % 625
    with pytest.raises(ValueError):
        linear.specialize(3)


def test_interpolation_round_trip():
    # a(k) = 1 + 2^(k-1) on weights = 0 mod 4, a genuine Iwasawa function
    p, m = 5, 8
    weights = [4, 8, 12, 16]
    samples = [(k, 1 + 2 ** (k - 1)) for k in weights]
    fit = interpolate_iwasawa(samples, p, m)
    for k, value in samples:
        assert int(fit.specialize(k)) == value % 5**fit.m
    # held-out specialization agrees to the p-adic distance bound
    target = 1 + 2**23
    predicted = int(fit.specialize(24))
    bound = sum(1 + _valuation(24 - k, 5) for k in weights)
    bound = min(bound, fit.m)
    assert fit.precision_at(24) == bound
    assert (predicted - target) % 5**bound == 0


def test_precision_at_samples_and_without_samples():
    fit = interpolate_iwasawa([(k, 1 + 2 ** (k - 1)) for k in (4, 8, 12)], 5, 8)
    assert fit.sample_weights == (4, 8, 12)
    assert [fit.precision_at(k) for k in (4, 8, 12)] == [fit.m] * 3
    # a truncation built directly has no samples to be far from
    const = IwasawaTruncation(5, 0, (1,), 3)
    assert [const.precision_at(k) for k in (0, 4, 24, 104)] == [3] * 4
    with pytest.raises(ValueError, match="not on component 0"):
        const.precision_at(6)


def test_interpolation_respecializes_its_fit(monkeypatch):
    # the fit is checked against every sample before it is returned
    samples = [(k, 1 + 2 ** (k - 1)) for k in (4, 8, 12)]
    monkeypatch.setattr(IwasawaTruncation, "specialize", lambda self, k: -1)
    with pytest.raises(VerificationError, match="reproduce the weight-4 sample"):
        interpolate_iwasawa(samples, 5, 8)


def test_interpolation_of_polynomial_is_exact():
    # data that is exactly polynomial in w is recovered with full precision
    p, m = 5, 6
    weights = [4, 8, 12]
    values = [(3 + 5 * w_coordinate(k, p, m)) % 5**m for k in weights]
    fit = interpolate_iwasawa(list(zip(weights, values)), p, m)
    assert fit.m >= m - 2
    assert [int(fit.specialize(k)) % 5**fit.m for k in weights] == [
        v % 5**fit.m for v in values
    ]
    held_out = int(fit.specialize(20))
    assert held_out == (3 + 5 * w_coordinate(20, p, m)) % 5**fit.m


def test_interpolation_congruence_failure_detected():
    # values that violate a(k) = a(k') mod p^v(w_k - w_k') cannot be fitted
    with pytest.raises(VerificationError):
        interpolate_iwasawa([(4, 0), (8, 1), (12, 2)], 5, 6)


def test_interpolation_validation():
    with pytest.raises(ValueError, match="interpolation needs at least one sample"):
        interpolate_iwasawa([], 5, 3)
    with pytest.raises(ValueError):
        interpolate_iwasawa([(4, 1), (7, 2)], 5, 4)
    with pytest.raises(ValueError):
        interpolate_iwasawa([(4, 1), (4, 2)], 5, 4)
    with pytest.raises(PrecisionError):
        # weights congruent mod 4*5^3 are too close for m = 2
        interpolate_iwasawa([(4, 1), (4 + 4 * 125, 1)], 5, 2)


@pytest.mark.parametrize("bad", [2.5, Fraction(7, 2)], ids=["float", "Fraction"])
def test_iwasawa_truncation_rejects_non_integers(bad):
    # a float coefficient used to specialize to a float (47.5 at k = 4)
    with pytest.raises(TypeError):
        IwasawaTruncation(5, 0, (bad, 1), 3)
    with pytest.raises(TypeError):
        IwasawaTruncation(5, 0, (2, 1), 3).evaluate_at_w(bad)


@pytest.mark.parametrize("bad", [2.5, Fraction(7, 2)], ids=["float", "Fraction"])
def test_interpolation_rejects_non_integer_samples(bad):
    # float values used to give float polynomial coefficients
    with pytest.raises(TypeError):
        interpolate_iwasawa([(4, bad), (8, 7)], 5, 3)


def test_congruence_table():
    samples = [(k, 1 + 2 ** (k - 1)) for k in (4, 24, 104)]
    table = congruence_table(samples, 5, 6)
    by_pair = {entry["weights"]: entry for entry in table}
    # k - k' = 20 = 4*5 gives v(w-w') = 2; 2^20 - 1 is divisible by 25 not 125
    assert by_pair[(4, 24)]["required"] == 2
    assert by_pair[(4, 24)]["observed"] == 2
    # k - k' = 100 = 4*25 gives v(w-w') = 3
    assert by_pair[(4, 104)]["required"] == 3
    assert all(entry["holds"] for entry in table)
