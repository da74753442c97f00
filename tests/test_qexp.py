import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from padicforms import qexp
from padicforms.errors import PrecisionError
from padicforms.qexp import _PACKED_BITS_PER_Q, _PACKED_MIN_Q, ModRing, QSeries, ZZ


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


_F = QSeries.from_coeffs([1, 2, 3])
_G = QSeries.from_coeffs([4, 5, 6])


@pytest.mark.parametrize(
    "read",
    [
        lambda: _F.coefficient(-1),
        lambda: _F.select([-1]),
        lambda: _F.select([0, -3]),
        lambda: _F.product_at(_G, [-1]),
        lambda: _F.product_at(_G, [2, -2]),
        lambda: _F.select([]),
        lambda: _F.select(range(0)),
        lambda: _F.product_at(_G, []),
    ],
    ids=[
        "coefficient(-1)",
        "select([-1])",
        "select([0, -3])",
        "product_at([-1])",
        "product_at([2, -2])",
        "select([])",
        "select(range(0))",
        "product_at([])",
    ],
)
def test_negative_and_empty_indices_are_refused(read):
    # a negative index used to wrap (a_{-1} read a_{Q-1}) or read 0, and an
    # empty index list built a series with no coefficients
    with pytest.raises(ValueError):
        read()


def test_index_reads():
    assert _F.select([2, 0, 2]).coeffs == (3, 1, 3)
    assert _F.product_at(_G, range(3)) == _F * _G
    assert _F.product_at(_G, [2, 0]).coeffs == (6 + 10 + 12, 4)
    for read in (lambda: _F.coefficient(3), lambda: _F.select([0, 3]), lambda: _F.product_at(_G, [3])):
        with pytest.raises(PrecisionError):
            read()


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


# Targeted examples on both sides of the kernel choice: over Z/7^17 the
# coefficients have 48 = 3 * 16 bits, so Q = 16 packs and Q = 15 does not;
# Z/7^18 has 51 bits; over Z, zbits 48 and 49 at Q = 16; all-zero factors.
# Then both sides of the slot codec's 1024-byte read-back threshold: Z/13^10
# at Q = 61 packs into 11-byte slots, 671 bytes, read by shift and mask;
# Z/13^60 at Q = 80 into 57-byte slots and Z at 200 bits into 52-byte
# slots, 4560 and 4160 bytes, read by byte slices.
@example(p=7, m=17, q1=16, q2=20, seed=1, k=2, zbits=0, zero=False)
@example(p=7, m=17, q1=15, q2=20, seed=2, k=2, zbits=0, zero=False)
@example(p=7, m=18, q1=16, q2=16, seed=3, k=2, zbits=0, zero=False)
@example(p=5, m=None, q1=16, q2=16, seed=4, k=2, zbits=48, zero=False)
@example(p=5, m=None, q1=16, q2=16, seed=5, k=2, zbits=49, zero=False)
@example(p=5, m=None, q1=80, q2=80, seed=6, k=3, zbits=0, zero=True)
@example(p=13, m=60, q1=80, q2=75, seed=7, k=2, zbits=0, zero=True)
@example(p=13, m=10, q1=61, q2=70, seed=8, k=2, zbits=0, zero=False)
@example(p=13, m=60, q1=80, q2=80, seed=9, k=2, zbits=0, zero=False)
@example(p=5, m=None, q1=80, q2=80, seed=10, k=2, zbits=200, zero=False)
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    p=st.sampled_from((5, 7, 11, 13)),
    m=st.one_of(st.none(), st.integers(1, 60)),
    q1=st.integers(1, 80),
    q2=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 6),
    zbits=st.integers(0, 300),
    zero=st.booleans(),
)
def test_internal_results_are_canonical(p, m, q1, q2, seed, k, zbits, zero):
    # m None: over Z, with coefficients of both signs below 2^zbits in
    # absolute value; zero: the second factor is all zero
    rng = random.Random(seed)
    ring = ZZ if m is None else ModRing(p, m)
    bound = 2**zbits if m is None else p**m
    lo = -bound + 1 if m is None else 0
    x = [rng.randrange(lo, bound) for _ in range(q1)]
    y = [0] * q2 if zero else [rng.randrange(lo, bound) for _ in range(q2)]
    f, g = QSeries.from_coeffs(x, ring), QSeries.from_coeffs(y, ring)
    c = -rng.randrange(bound + 1, 3 * bound)
    t = rng.randrange(0, 4)

    def ref(coeffs, ref_ring=ring):
        return QSeries(ref_ring, tuple(coeffs))

    q = min(q1, q2)
    with patch.object(qexp, "_packed_product", wraps=qexp._packed_product) as packed:
        _assert_canonical(f * g, ref(_plain_product(x, y)))
    # the documented choice: packed iff Q >= 16 and bits <= 3 * Q
    bits = max(map(abs, x[:q] + y[:q])) if m is None else p**m - 1
    assert packed.called == (q >= _PACKED_MIN_Q and bits.bit_length() <= _PACKED_BITS_PER_Q * q)
    event("packed kernel" if packed.called else "schoolbook kernel")
    _assert_canonical(f * f, ref(_plain_product(x, x)))
    _assert_canonical(g * g, ref(_plain_product(y, y)))
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


# Q = 24 takes the packed kernel at every width up to 3 * 24 = 72 bits.
# At Q = 40 and 65 bits, 2 * 65 + bits(40) = 136 bits fill 17 whole bytes,
# and c_39 = 40 * (2^65 - 1)^2 of two equal-sign series exceeds half of
# such a slot: the 2 bits the slot adds beyond that round it up to 18.
# Q = 80 at 200 bits packs 52-byte slots, 4160 bytes, beyond the codec's
# 1024-byte threshold for reading by shift and mask.
@pytest.mark.parametrize(
    "q, bits", [(24, 1), (24, 2), (24, 17), (24, 64), (24, 72), (40, 65), (80, 200)]
)
def test_packed_kernel_over_z_handles_every_sign_pattern(q, bits):
    # each pattern reaches |a_i| = 2^bits - 1, the largest its slots allow
    top = 2**bits - 1
    rng = random.Random(bits)
    patterns = {
        "all +top": [top] * q,
        "all -top": [-top] * q,
        "alternating": [top if i % 2 else -top for i in range(q)],
        "all negative": [-top] + [-rng.randint(1, top) for _ in range(q - 1)],
        "mixed": [top, -top] + [rng.randint(-top, top) for _ in range(q - 2)],
        "zeros and -top": [-top if i % 5 == 3 else 0 for i in range(q)],
    }
    for x in patterns.values():
        f = QSeries.from_coeffs(x)
        for y in patterns.values():
            with patch.object(qexp, "_packed_product", wraps=qexp._packed_product) as packed:
                assert list((f * QSeries.from_coeffs(y)).coeffs) == _plain_product(x, y)
                assert list((f * f).coeffs) == _plain_product(x, x)
            assert packed.call_count == 2
