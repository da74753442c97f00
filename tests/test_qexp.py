import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.errors import PrecisionError
from padicforms.qexp import ModRing, QSeries, ZZ


def test_construction_and_reduction():
    f = QSeries.from_coeffs([1, 2, 3])
    assert f.qprec == 3
    g = QSeries.from_coeffs([126, -1, 130], ModRing(5, 2))
    assert g.coeffs == (1, 24, 5)


def test_arithmetic_min_precision():
    f = QSeries.from_coeffs([1, 2, 3, 4])
    g = QSeries.from_coeffs([1, 1, 1])
    assert (f + g).coeffs == (2, 3, 4)
    assert (f - g).coeffs == (0, 1, 2)
    assert (f * g).coeffs == (1, 3, 6)


def test_ring_mismatch_rejected():
    f = QSeries.from_coeffs([1, 2], ModRing(5, 2))
    g = QSeries.from_coeffs([1, 2], ModRing(5, 3))
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * QSeries.from_coeffs([1, 2])


def test_pow_and_inverse():
    f = QSeries.from_coeffs([1, 1, 0, 0, 0])
    assert (f**2).coeffs == (1, 2, 1, 0, 0)
    assert (f * f.inverse()).coeffs == (1, 0, 0, 0, 0)
    g = QSeries.from_coeffs([1, 240, 2160], ModRing(5, 3))
    assert (g * g.inverse()).coeffs == (1, 0, 0)
    assert (g**-2) == (g.inverse()) ** 2
    with pytest.raises(ZeroDivisionError):
        QSeries.from_coeffs([5, 1], ModRing(5, 3)).inverse()
    with pytest.raises(ZeroDivisionError):
        QSeries.from_coeffs([2, 1]).inverse()


def test_truncate_shift_leading():
    f = QSeries.from_coeffs([0, 0, 7, 1])
    assert f.leading_index() == 2
    assert f.truncate(2).coeffs == (0, 0)
    assert f.shift_q(1).coeffs == (0, 0, 0, 7, 1)
    with pytest.raises(PrecisionError):
        f.truncate(9)
    with pytest.raises(PrecisionError):
        f.coefficient(4)


def test_to_ring():
    f = QSeries.from_coeffs([1, -24, 252])
    g = f.to_ring(ModRing(5, 2))
    assert g.coeffs == (1, 1, 2)
    h = g.to_ring(ModRing(5, 1))
    assert h.coeffs == (1, 1, 2)
    with pytest.raises(ValueError):
        h.to_ring(ModRing(5, 2))
    with pytest.raises(ValueError):
        g.to_ring(ZZ)


def test_non_integer_coefficients_are_rejected():
    for ring in (ZZ, ModRing(5, 3)):
        with pytest.raises(TypeError):
            QSeries.from_coeffs([2.5, Fraction(7, 2), 1], ring)
        with pytest.raises(TypeError):
            QSeries.constant(Fraction(1, 2), 3, ring)
        with pytest.raises(TypeError):
            QSeries.from_coeffs([1, 2], ring).scale(2.0)
    assert QSeries.from_coeffs([True, False, 3]).coeffs == (1, 0, 3)
    assert all(type(c) is int for c in QSeries.from_coeffs([True, 4]).coeffs)


def test_constant_and_truncate_need_positive_precision():
    assert QSeries.constant(7, 1).coeffs == (7,)
    for qprec in (0, -1):
        with pytest.raises(ValueError):
            QSeries.constant(1, qprec)
        with pytest.raises(ValueError):
            QSeries.constant(1, qprec, ModRing(5, 2))
        with pytest.raises(ValueError):
            QSeries.from_coeffs([1, 2]).truncate(qprec)


def _plain_product(x, y):
    q = min(len(x), len(y))
    return [sum(x[i] * y[n - i] for i in range(n + 1)) for n in range(q)]


def _plain_inverse(x, modulus):
    inv0 = x[0] if modulus is None else pow(x[0], -1, modulus)
    out = [inv0]
    for n in range(1, len(x)):
        out.append(-inv0 * sum(x[i] * out[n - i] for i in range(1, n + 1)))
    return out


def _assert_canonical(result, expected):
    """``result`` equals the validated ``expected`` and holds a tuple of
    plain ints, each in [0, p^m) over Z/p^m."""
    assert result == expected and hash(result) == hash(expected)
    assert result.ring == expected.ring
    assert type(result.coeffs) is tuple and len(result.coeffs) >= 1
    modulus = result.ring.modulus
    for c in result.coeffs:
        assert type(c) is int
        assert modulus is None or 0 <= c < modulus


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    p=st.sampled_from((5, 7, 11, 13)),
    m=st.one_of(st.none(), st.integers(1, 10)),
    q1=st.integers(1, 12),
    q2=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 6),
)
def test_internal_results_are_canonical(p, m, q1, q2, seed, k):
    # m None: over Z, with coefficients of both signs
    rng = random.Random(seed)
    ring = ZZ if m is None else ModRing(p, m)
    bound = 10**6 if m is None else p**m
    lo = -bound if m is None else 0
    x = [rng.randrange(lo, bound) for _ in range(q1)]
    y = [rng.randrange(lo, bound) for _ in range(q2)]
    f, g = QSeries.from_coeffs(x, ring), QSeries.from_coeffs(y, ring)
    c = -rng.randrange(bound + 1, 3 * bound)
    t = rng.randrange(0, 4)

    def ref(coeffs, ref_ring=ring):
        return QSeries(ref_ring, tuple(coeffs))

    q = min(q1, q2)
    _assert_canonical(f * g, ref(_plain_product(x, y)))
    _assert_canonical(f + g, ref([u + v for u, v in zip(x[:q], y[:q])]))
    _assert_canonical(f - g, ref([u - v for u, v in zip(x[:q], y[:q])]))
    _assert_canonical(-f, ref([-u for u in x]))
    _assert_canonical(f.scale(c), ref([c * u for u in x]))
    _assert_canonical(f.shift_q(t), ref([0] * t + x))
    cut = rng.randint(1, q1)
    _assert_canonical(f.truncate(cut), ref(x[:cut]))
    power = [1] + [0] * (q1 - 1)
    for _ in range(k):
        power = _plain_product(power, x)
    _assert_canonical(f**k, ref(power))
    unit = [rng.choice((1, -1)) if m is None else rng.randrange(1, p)] + x[1:]
    _assert_canonical(QSeries.from_coeffs(unit, ring).inverse(), ref(_plain_inverse(unit, ring.modulus)))
    m_low = rng.randint(1, 10 if m is None else m)
    _assert_canonical(f.to_ring(ModRing(p, m_low)), ref(x, ModRing(p, m_low)))
    _assert_canonical(f.to_ring(ring), ref(x))
