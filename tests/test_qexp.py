import operator
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from padicforms import qexp
from padicforms.errors import PrecisionError
from padicforms.padic import slot_size
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
    with pytest.raises(ValueError, match="n >= 1"):
        g**-2
    with pytest.raises(ZeroDivisionError):
        QSeries.from_coeffs([5, 1], ModRing(5, 3)).inverse()
    with pytest.raises(ZeroDivisionError):
        QSeries.from_coeffs([2, 1]).inverse()


def test_truncate_shift_leading():
    f = QSeries.from_coeffs([0, 0, 7, 1])
    assert f.leading_index() == 2
    assert QSeries.from_coeffs([0, 0]).leading_index() is None
    assert f.truncate(2).coeffs == (0, 0)
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


@pytest.mark.parametrize("ring", [ZZ, ModRing(5, 3), ModRing(7, 1)])
def test_public_builds_reduce_every_coefficient(ring):
    """``QSeries(...)``, ``from_coeffs`` and ``constant`` give each
    coefficient as ``operator.index(c)``, mod p^m over Z/p^m:
    bools, negatives and coefficients at or beyond p^m alike, to plain
    ints."""
    raw = [True, -1, False, -126, 125, 126, 10**40 + 7, 0, 3]
    want = ring.reduce(map(operator.index, raw))
    for series in (QSeries(ring, tuple(raw)), QSeries.from_coeffs(raw, ring)):
        assert series.coeffs == want
        assert all(type(c) is int for c in series.coeffs)
    assert QSeries.constant(True, 3, ring).coeffs == (1, 0, 0)
    assert QSeries.constant(-1, 2, ring).coeffs == ring.reduce((-1, 0))
    for bad in (2.0, Fraction(1), Fraction(1, 2)):
        with pytest.raises(TypeError):
            QSeries.from_coeffs([1, bad], ring)
        with pytest.raises(TypeError):
            QSeries(ring, (bad,))
    for empty in ((), []):
        with pytest.raises(ValueError, match="constant term"):
            QSeries(ring, empty)
        with pytest.raises(ValueError, match="constant term"):
            QSeries.from_coeffs(empty, ring)


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


def _plain_inverse(x, ring):
    inv0 = ring.unit_inverse(x[0])
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
    assert all(type(c) is int for c in result.coeffs)
    assert result.ring.reduce(result.coeffs) == result.coeffs


def _expected_kernel(x, y, ring):
    """The kernel ``f * g`` runs by the documented rule, the slot line
    written out.  The s and t leading zeros of the first Q = min(len)
    coefficients are skipped, leaving n = Q - s - t: no kernel at all when
    n <= 0, else the packed product, in one-point slots when
    2 * bits + bits(n) + 2 bits fit 8 bytes and two-point beyond
    (``ring.bits`` of the coefficients the skipped zeros keep: the bits of
    p^m - 1, or over Z of the largest |coefficient|).  Returns the kernel
    and n."""
    q = min(len(x), len(y))
    s = next((i for i in range(q) if x[i]), q)
    t = next((i for i in range(q) if y[i]), q)
    n = q - s - t
    if n <= 0:
        return None, n
    bits = ring.bits(x[s : s + n], y[t : t + n])
    return ("one-point" if 2 * bits + n.bit_length() + 2 <= 64 else "two-point"), n


def _observed_product(f, g):
    """f * g, and the kernel it ran, by the number of products it read
    back, with the slots per packed integer: n for one point, ceil(n/2)
    for two."""
    with patch.object(qexp, "_packed_product", wraps=qexp._packed_product) as packed, patch.object(
        qexp, "pack_slots", wraps=qexp.pack_slots
    ) as pack, patch.object(qexp, "unpack_slots", wraps=qexp.unpack_slots) as unpack:
        result = f * g
    assert packed.call_count <= 1
    if not packed.called:
        return result, None, None
    n, (_, count, size) = len(packed.call_args.args[0]), pack.call_args.args
    assert size == slot_size(2 * packed.call_args.args[2] + n.bit_length() + 2)
    assert count == (n if size <= 8 else (n + 1) // 2)
    assert unpack.call_args.args[1:] == (count, size)
    points = len(unpack.call_args.args[0])
    return result, ("one-point" if points == 1 else "two-point"), n


def _check_product(x, y, ring):
    """f * g against the plain product, by the kernel the rule names."""
    f, g = QSeries.from_coeffs(x, ring), QSeries.from_coeffs(y, ring)
    result, kernel, n = _observed_product(f, g)
    _assert_canonical(result, QSeries(ring, tuple(_plain_product(x, y))))
    expected, expected_n = _expected_kernel(x, y, ring)
    assert kernel == expected
    assert n == (expected_n if expected else None)
    return expected


# Targeted examples: two-point products at Q = 15 and 16 whose slots
# take 13 to 18 bytes, over Z/7^17, Z/7^22 (62 bits) and Z/7^23 (65 bits)
# and over Z with zbits 64 and 65; all-zero factors, which need no
# kernel.  Then wide slots of every length, all read back by byte slices:
# Z/13^10 at Q = 61 packs two integers of 31 slots of 11 bytes, 341 bytes;
# Z/13^60 at Q = 80 into 40 slots of 57 bytes and Z at 200 bits into 40
# slots of 52 bytes, 2280 and 2080 bytes.
@example(p=7, m=22, q1=16, q2=20, seed=1, k=2, zbits=0, zero=False)
@example(p=7, m=17, q1=15, q2=20, seed=2, k=2, zbits=0, zero=False)
@example(p=7, m=23, q1=16, q2=16, seed=3, k=2, zbits=0, zero=False)
@example(p=5, m=None, q1=16, q2=16, seed=4, k=2, zbits=64, zero=False)
@example(p=5, m=None, q1=16, q2=16, seed=5, k=2, zbits=65, zero=False)
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
    k=st.integers(1, 6),
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

    def ref(coeffs):
        return QSeries(ring, tuple(coeffs))

    q = min(q1, q2)
    event(f"{_check_product(x, y, ring)} kernel")
    _assert_canonical(f * f, ref(_plain_product(x, x)))
    _assert_canonical(g * g, ref(_plain_product(y, y)))
    _assert_canonical(f + g, ref([u + v for u, v in zip(x[:q], y[:q])]))
    _assert_canonical(f - g, ref([u - v for u, v in zip(x[:q], y[:q])]))
    _assert_canonical(f.scale(c), ref([c * u for u in x]))
    cut = rng.randint(1, q1)
    _assert_canonical(f.truncate(cut), ref(x[:cut]))
    power = [1] + [0] * (q1 - 1)
    for _ in range(k):
        power = _plain_product(power, x)
    _assert_canonical(f**k, ref(power))
    unit = [rng.choice((1, -1)) if m is None else rng.randrange(1, p)] + x[1:]
    _assert_canonical(QSeries.from_coeffs(unit, ring).inverse(), ref(_plain_inverse(unit, ring)))


# Q = 24 packs one-point slots up to 28 bits (2 * 28 + bits(24) + 2 = 63
# bits in 8 bytes) and two-point slots from 29, on both sides of the
# 8-byte line.  At Q = 40 and 65 bits, 2 * 65 + bits(40) = 136 bits fill
# 17 whole bytes, and c_39 = 40 * (2^65 - 1)^2 of two equal-sign series
# exceeds half of such a slot: the 2 bits the slot adds beyond that round
# it up to 18.  Q = 80 at 200 bits packs two integers of 40 slots of 52
# bytes, 2080 bytes, read back by byte slices as every slot wider than 8
# bytes is.  A pattern with leading zeros multiplies at n = Q - s - t, so
# each product is held to the rule.
@pytest.mark.parametrize(
    "q, bits",
    [(24, 1), (24, 2), (24, 17), (24, 28), (24, 29), (24, 64), (24, 72), (24, 96)]
    + [(40, 65), (80, 200)],
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
    kernels = set()
    for x in patterns.values():
        for y in patterns.values():
            kernels.add(_check_product(x, y, ZZ))
        f = QSeries.from_coeffs(x)
        assert list((f * f).coeffs) == _plain_product(x, x)
    # every pattern takes the packed kernel, on one side of the 8-byte line
    assert kernels == {"one-point" if bits <= 28 else "two-point"}


_MAX_BITS = 420  # the widest coefficients the product test draws


def _fill(rng, length, ring, bits, fill, lead):
    """``lead`` zeros, then coefficients: uniform, all zero, or the worst
    case for the slots, every one p^m - 1 over Z/p^m, or +-(2^bits - 1)
    over Z (all + or random signs)."""
    top = 2**bits - 1 if ring.signed else ring.reduce([-1])[0]
    if fill == "uniform":
        body = [rng.randint(-top if ring.signed else 0, top) for _ in range(length)]
    elif fill == "zero":
        body = [0] * length
    elif fill == "top":
        body = [top] * length
    else:  # "signed top"
        body = [rng.choice((top, -top)) for _ in range(length)]
    return ([0] * lead + body)[:length]


@st.composite
def product_cases(draw):
    q = draw(st.integers(1, 120))
    if draw(st.booleans()):
        # half of the widths at most 4Q + 8 bits, the rest up to _MAX_BITS
        bits = draw(st.one_of(st.integers(0, min(4 * q + 8, _MAX_BITS)), st.integers(0, _MAX_BITS)))
        ring = ZZ
    else:
        p = draw(st.sampled_from((5, 7, 11, 13)))
        m = draw(st.integers(1, 180))
        while (p**m - 1).bit_length() > _MAX_BITS:
            m -= 1
        ring, bits = ModRing(p, m), None
    fills = st.sampled_from(("uniform", "uniform", "top", "signed top", "zero"))
    fill_f, fill_g = draw(fills), draw(fills)
    # leading zeros: none, a few, or any number up to Q
    lead = st.one_of(st.just(0), st.integers(0, 4), st.integers(0, q))
    s, t = draw(lead), draw(lead)
    extra = draw(st.integers(0, 3))  # g may run longer than f
    seed = draw(st.integers(0, 2**32 - 1))
    return q, ring, bits, (fill_f, s), (fill_g, t, extra), seed


def _product_case(q, ring, bits, f_spec, g_spec, seed):
    rng = random.Random(seed)
    (fill_f, s), (fill_g, t, extra) = f_spec, g_spec
    x = _fill(rng, q, ring, bits, fill_f, s)
    y = _fill(rng, q + extra, ring, bits, fill_g, t)
    return x, y


# Explicit cases on both sides of each slot line, at the worst fill:
# Q = 15 / 16 at 5^2, one-point in 2-byte / 4-byte slots; Z at Q = 16
# with 28 / 29 bits and Z/5^12 (28 bits) at Q = 32 / 64, across the
# one-point / two-point line (63 and 64 / 65 slot bits); Z/5^52 (121
# bits) at Q = 31 / 30, and Z at Q = 105 / 104 with 420 bits, two-point
# at odd and even Q, whose odd-index row is padded only when Q is odd;
# Q = 120 at 420 bits, the widest two-point product drawn; leading zeros
# that take n to 15 (20 - 3 - 2), to 1, to exactly 0 and past it.
@example(case=(15, ModRing(5, 2), None, ("top", 0), ("top", 0, 0), 1))
@example(case=(16, ModRing(5, 2), None, ("top", 0), ("top", 0, 0), 1))
@example(case=(16, ZZ, 28, ("signed top", 0), ("top", 0, 1), 2))
@example(case=(16, ZZ, 29, ("signed top", 0), ("top", 0, 1), 2))
@example(case=(32, ModRing(5, 12), None, ("top", 0), ("top", 0, 0), 3))
@example(case=(64, ModRing(5, 12), None, ("top", 0), ("uniform", 0, 0), 3))
@example(case=(31, ModRing(5, 52), None, ("top", 0), ("top", 0, 0), 4))
@example(case=(30, ModRing(5, 52), None, ("top", 0), ("top", 0, 0), 4))
@example(case=(105, ZZ, 420, ("signed top", 0), ("signed top", 0, 2), 5))
@example(case=(104, ZZ, 420, ("signed top", 0), ("signed top", 0, 2), 5))
@example(case=(120, ZZ, 420, ("top", 0), ("top", 0, 0), 6))
@example(case=(120, ModRing(5, 180), None, ("top", 3), ("uniform", 1, 0), 6))
@example(case=(20, ModRing(7, 3), None, ("uniform", 3), ("top", 2, 0), 7))
@example(case=(40, ModRing(7, 30), None, ("top", 25), ("top", 14, 0), 8))
@example(case=(40, ZZ, 99, ("uniform", 25), ("uniform", 15, 0), 9))
@example(case=(40, ZZ, 99, ("top", 39), ("top", 39, 3), 9))
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(case=product_cases())
def test_product_matches_plain_product(case):
    # f * g and f * f against the definition, with the kernel each took
    # held to the rule; leading zeros s + t >= Q give the zero series
    q, ring, *_ = case
    x, y = _product_case(*case)
    kernel = _check_product(x, y, ring)
    event(f"{kernel} kernel")
    f = QSeries.from_coeffs(x, ring)
    result, square_kernel, _ = _observed_product(f, f)
    _assert_canonical(result, QSeries(ring, tuple(_plain_product(x, x))))
    assert square_kernel == _expected_kernel(x, x, ring)[0]
    event(f"{square_kernel} kernel (square)")


def _plain_rows(a, b, s):
    """The rows of A B by one dot product per entry."""
    return tuple(tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in range(s)) for row in a)


# Both rings' members on the same integers: each ModRing result is the
# IntegerRing one reduced mod p^m.  Shapes reach 6 x 6, past the 4 rows
# and columns from which padic.product_rows packs.
@example(p=3, m=1, ints=[1, -1, 0, 3], shape=(4, 3, 4), seed=0)
@example(p=691, m=2, ints=[691, -691, 2**100, -(2**100)], shape=(6, 6, 6), seed=1)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    p=st.sampled_from((3, 5, 7, 11, 13, 691)),
    m=st.integers(1, 40),
    ints=st.lists(
        st.one_of(st.integers(-(2**200), 2**200), st.sampled_from((-1, 0, 1))), min_size=1, max_size=12
    ),
    shape=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_rings_agree_mod_p_m(p, m, ints, shape, seed):
    ring = ModRing(p, m)
    modulus = ring.modulus

    def down(values):
        return tuple(v % modulus for v in values)

    # reduce: one call per series, a tuple of residues
    assert ZZ.reduce(iter(ints)) == tuple(ints)
    assert ring.reduce(iter(ints)) == down(ints)
    # the rows kernel: plain dot products over Z, reduced over Z/p^m
    rng = random.Random(seed)
    r, n, s = shape
    a = [[rng.choice(ints) for _ in range(n)] for _ in range(r)]
    b = [[rng.choice(ints) for _ in range(s)] for _ in range(n)]
    plain = _plain_rows(a, b, s)
    assert ZZ.product_rows(a, b, s) == plain
    assert ring.product_rows([down(row) for row in a], [down(row) for row in b], s) == tuple(
        down(row) for row in plain
    )
    # unit_inverse: a refusal exactly when p | a, over Z unless a = +-1
    for x in ints + [p * x for x in ints]:
        if x % p == 0:
            with pytest.raises(ZeroDivisionError):
                ring.unit_inverse(x)
        else:
            inverse = ring.unit_inverse(x)
            assert 0 <= inverse < modulus and inverse * x % modulus == 1
        if x in (1, -1):
            assert ZZ.unit_inverse(x) * x == 1 and ZZ.unit_inverse(x) % modulus == inverse
        else:
            with pytest.raises(ZeroDivisionError):
                ZZ.unit_inverse(x)
    # bits covers every coefficient, signed over Z and unsigned over Z/p^m
    reduced = ring.reduce(ints)
    assert not ring.signed and all(0 <= c < 2 ** ring.bits(reduced, reduced) for c in reduced)
    assert ring.bits(reduced, reduced) == (modulus - 1).bit_length()
    half = len(ints) // 2
    x, y = ints[: half or 1], ints[half:] or ints
    top = ZZ.bits(x, y)
    assert ZZ.signed and all(abs(c) < 2**top for c in x + y)
    assert top == max(map(abs, x + y)).bit_length()
