import operator
import random
from fractions import Fraction
from struct import iter_unpack, unpack
from unittest.mock import patch

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from padicforms import padic
from padicforms.charseries import CharSeries
from padicforms.padic import (
    PadicMatrix,
    is_prime,
    pack_slots,
    product_rows,
    slot_size,
    unit_inverse,
    unpack_slots,
    val_p,
)
from padicforms.qexp import ModRing, QSeries


def test_val_p():
    assert val_p(250, 5) == 3
    assert val_p(-250, 5) == 3
    assert val_p(12, 5) == 0
    assert val_p(0, 5, saturate=6) == 6
    assert val_p(630, 5, saturate=3) == 1
    assert val_p(125, 5, saturate=3) == 3  # saturated: 125 = 0 mod 5^3
    assert val_p(625, 5, saturate=3) == 3  # true valuation 4, capped at 3
    assert val_p(3, 7, saturate=2) == 0
    with pytest.raises(ValueError):
        val_p(0, 5)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.sampled_from((3, 5, 7, 11, 13)),
    st.integers(1, 200),
    st.integers(-(13**201), 13**201),
)
@example(5, 1, 2)
@example(5, 2, -7)
@example(5, 3, 5**3 + 1)
@example(13, 200, 12)
def test_unit_inverse_matches_pow(p, e, x):
    """The inverse mod p, lifted to p^e, is ``pow``'s: every e from 1 to
    200, so every number of lifting steps and a short last step, and x
    negative or far beyond p^e."""
    if x % p == 0:
        with pytest.raises(ValueError):
            unit_inverse(x, p, e)
    else:
        assert unit_inverse(x, p, e) == pow(x, -1, p**e)


@pytest.mark.parametrize(
    "n, prime", [(-7, False), (0, False), (1, False), (2, True), (9, False), (13, True)]
)
def test_is_prime(n, prime):
    assert is_prime(n) is prime


def test_matrix_basics():
    a = PadicMatrix.from_rows([[1, 2], [3, 4]], 5, 3)
    b = PadicMatrix.identity(2, 5, 3)
    assert (a @ b).rows == a.rows
    assert not any(map(any, (a - a).rows))
    assert (a - a.scale(-1)).rows == a.scale(2).rows
    assert a.trace() == 5
    assert PadicMatrix.from_rows([[100, 0], [0, 30]], 5, 3).trace() == 5  # 130 mod 125
    assert a.transpose().rows == ((1, 3), (2, 4))
    assert (a**0).rows == b.rows
    assert (a**3).rows == (a @ a @ a).rows


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        PadicMatrix.from_rows([[1, 2, 3], [4, 5, 6]], 5, 3)
    a = PadicMatrix.identity(2, 5, 3)
    with pytest.raises(ValueError):
        a @ PadicMatrix.identity(3, 5, 3)
    with pytest.raises(ValueError):
        a @ PadicMatrix.identity(2, 7, 3)
    with pytest.raises(ValueError, match="^negative matrix powers are not supported$"):
        a**-1
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        a.apply((1,))


def test_matrix_apply_and_scale():
    a = PadicMatrix.from_rows([[1, 2], [0, 1]], 5, 2)
    assert a.apply((1, 1)) == (3, 1)
    assert a.scale(5).rows == ((5, 10), (0, 5))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_identity_checks_only_p_and_m(n):
    """It builds its known entries unvalidated, over a checked (p, m),
    and refuses a negative size."""
    want = [[int(i == j) for j in range(n)] for i in range(n)]
    _assert_canonical(PadicMatrix.identity(n, 7, 2), PadicMatrix.from_rows(want, 7, 2))
    for p, m in ((4, 2), (2, 2), (7, 0)):
        with pytest.raises(ValueError):
            PadicMatrix.identity(n, p, m)
    with pytest.raises(ValueError, match="size"):
        PadicMatrix.identity(-1 - n, 7, 2)


def test_identity_is_shared_only_after_validation():
    """Identities of one size share their rows, and only once n, p and m
    pass their checks: a float or Fraction equal to the int still raises
    ``TypeError`` after the int identity is built (hash(2.0) == hash(2))."""
    first = PadicMatrix.identity(2, 5, 2)
    assert PadicMatrix.identity(2, 5, 2).rows is first.rows
    assert PadicMatrix.identity(2, 7, 3).rows is first.rows
    for args in ((2, 5, 2.0), (2, 5.0, 2), (2, Fraction(5), 2), (2.0, 5, 2), (Fraction(2), 5, 2)):
        with pytest.raises(TypeError):
            PadicMatrix.identity(*args)
    with pytest.raises(ValueError, match="size"):
        PadicMatrix.identity(-1, 5, 2)
    for n, p, m in ((2, 5, 2), (0, 3, 1), (1, 7, 3), (5, 13, 10)):
        want = PadicMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], p, m)
        _assert_canonical(PadicMatrix.identity(n, p, m), want)
        _assert_canonical(PadicMatrix.identity(n, p, m) @ want, want)


@pytest.mark.parametrize("p, m", [(5, 3), (7, 1), (3, 40)])
def test_public_builds_reduce_every_entry(p, m):
    """``PadicMatrix(...)`` and ``from_rows`` give each entry as
    ``operator.index(x) % p^m``: bools, negatives and entries at or
    beyond p^m alike, to plain ints."""
    modulus = p**m
    rows = [
        [True, -1, modulus],
        [-modulus - 2, 10**40 + 3, False],
        [modulus - 1, 0, 2 * modulus + 1],
    ]
    want = tuple(tuple(operator.index(x) % modulus for x in row) for row in rows)
    for built in (PadicMatrix(tuple(map(tuple, rows)), p, m), PadicMatrix.from_rows(rows, p, m)):
        assert built.rows == want
        assert all(type(x) is int for row in built.rows for x in row)
    for bad in (2.0, Fraction(1), Fraction(1, 2)):
        with pytest.raises(TypeError):
            PadicMatrix.from_rows([[1, 2], [3, bad]], p, m)
    for shape in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1]] * 2):
        with pytest.raises(ValueError, match="square"):
            PadicMatrix.from_rows(shape, p, m)


def test_from_rows_takes_any_iterable_of_rows():
    """List rows, tuple rows and a generator of generators give equal
    matrices, each row read once; a ragged row and a float entry are
    refused as from every other build."""
    rows = [[1, -2, 30], [4, 5, 6], [7, 8, 126]]
    want = PadicMatrix(tuple(map(tuple, rows)), 5, 3)
    assert want.rows == ((1, 123, 30), (4, 5, 6), (7, 8, 1))
    for given_rows in (rows, tuple(map(tuple, rows)), ((x for x in row) for row in rows)):
        built = PadicMatrix.from_rows(given_rows, 5, 3)
        assert built == want and built.rows == want.rows
        assert type(built.rows) is tuple and all(type(row) is tuple for row in built.rows)
    with pytest.raises(ValueError, match="square"):
        PadicMatrix.from_rows(((x for x in row) for row in [[1, 2], [3]]), 5, 3)
    with pytest.raises(TypeError):
        PadicMatrix.from_rows(((x for x in row) for row in [[1, 2], [3, 4.0]]), 5, 3)


def test_non_integer_entries_are_rejected():
    with pytest.raises(TypeError):
        PadicMatrix.from_rows([[2.5, Fraction(7, 2)], [1, 1]], 5, 3)
    with pytest.raises(TypeError):
        PadicMatrix(((Fraction(4, 1), 0), (0, 1)), 5, 3)
    with pytest.raises(TypeError):
        PadicMatrix.identity(2, 5, 3).scale(0.5)
    with pytest.raises(TypeError):
        PadicMatrix.identity(2, 5, 3).apply((1.0, 2))
    assert PadicMatrix.from_rows([[True, False], [0, 1]], 5, 3) == PadicMatrix.identity(2, 5, 3)


@pytest.mark.parametrize("p, m", [(5, 2.0), (5.0, 2), (5, Fraction(2)), (Fraction(5), 2)])
def test_non_integer_p_or_m_is_rejected(p, m):
    # a float m used to be accepted: ModRing(5, 2.0).modulus read 25.0, and
    # series, matrices and char series over it held float residues
    builds = (
        lambda: ModRing(p, m),
        lambda: PadicMatrix.from_rows([[1, 2], [3, 4]], p, m),
        lambda: PadicMatrix.identity(2, p, m),
        lambda: CharSeries((1, 7), p, m),
    )
    if type(m) is not int:
        builds += (lambda: PadicMatrix.identity(2, 5, 3).reduce(m),)
    for build in builds:
        with pytest.raises(TypeError):
            build()
    assert ModRing(5, True).modulus == 5


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (24, 5)])
def test_power_product_count(monkeypatch, n, products):
    """Powers start from the base and stop at the top bit:
    bit_length(n) + popcount(n) - 2 products for n >= 1.  A matrix to
    the 0 is the identity; a series has no zeroth power."""
    a = PadicMatrix.from_rows([[1, 2], [3, 4]], 5, 3)
    f = QSeries.from_coeffs([1, 3, 0, 2, 1, 4], ModRing(5, 3))
    naive_a, naive_f = PadicMatrix.identity(2, 5, 3), QSeries.constant(1, 6, ModRing(5, 3))
    for _ in range(n):
        naive_a, naive_f = naive_a @ a, naive_f * f
    calls = []
    real_matmul, real_mul = PadicMatrix.__matmul__, QSeries.__mul__
    monkeypatch.setattr(
        PadicMatrix, "__matmul__", lambda x, y: calls.append("@") or real_matmul(x, y)
    )
    monkeypatch.setattr(QSeries, "__mul__", lambda x, y: calls.append("*") or real_mul(x, y))
    power_a = a**n
    if n:
        assert f**n == naive_f
    else:
        with pytest.raises(ValueError, match="n >= 1"):
            f**n
    assert calls.count("@") == products and calls.count("*") == products
    assert power_a == naive_a


def _plain_product(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _assert_canonical(result, expected):
    """``result`` equals the validated ``expected`` and is tuple-of-tuple
    rows of plain ints in [0, p^m)."""
    assert result == expected and hash(result) == hash(expected)
    assert (result.p, result.m) == (expected.p, expected.m)
    assert type(result.rows) is tuple
    modulus = result.p**result.m
    for row in result.rows:
        assert type(row) is tuple and len(row) == result.size
        assert all(type(x) is int and 0 <= x < modulus for x in row)


@example(p=13, m=10, n=5, seed=1, k=2)  # 79 bits: 10-byte slots, byte slices
@example(p=7, m=10, n=8, seed=2, k=2)  # 62 bits, 8-byte slots
@example(p=5, m=1, n=4, seed=3, k=2)  # 9 bits, 2-byte slots
@example(p=13, m=60, n=16, seed=5, k=1)  # 57-byte slots, 912-byte rows: byte slices
@example(p=13, m=60, n=24, seed=4, k=2)  # 57-byte slots, 1368-byte rows: byte slices
@example(p=7, m=3, n=3, seed=6, k=2)  # 3 rows: plain dot products
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    p=st.sampled_from((5, 7, 11, 13)),
    m=st.integers(1, 10),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 9),
)
def test_internal_results_are_canonical(p, m, n, seed, k):
    rng = random.Random(seed)
    modulus = p**m
    x = [[rng.randrange(modulus) for _ in range(n)] for _ in range(n)]
    y = [[rng.randrange(modulus) for _ in range(n)] for _ in range(n)]
    a = PadicMatrix.from_rows(x, p, m)
    b = PadicMatrix.from_rows(y, p, m)
    c = -rng.randrange(modulus + 1, 3 * modulus)
    m_low = rng.randint(1, m)

    def ref(rows, m_ref=m):
        return PadicMatrix.from_rows(rows, p, m_ref)

    with patch.object(padic, "pack_slots", wraps=pack_slots) as packer:
        with patch.object(padic, "unpack", wraps=unpack) as struct_reads:
            with patch.object(padic, "iter_unpack", wraps=iter_unpack) as cuts:
                _assert_canonical(a @ b, ref(_plain_product(x, y)))
    # the choice the padic docstring states, written out so that changing it
    # means changing this test: plain dot products below n = 4, then slots
    # of 2 bits(p^m) + bits(n) bits in 1, 2, 4 or 8 bytes, whole bytes
    # beyond; read back by struct up to 8 bytes a slot, by byte slices beyond
    bits = 2 * modulus.bit_length() + n.bit_length()
    size = next(w for w in (1, 2, 4, 8) if bits <= 8 * w) if bits <= 64 else -(-bits // 8)
    read = "struct" if size <= 8 else "slices"
    if n < 4:
        read = "plain"
    assert packer.called == (read != "plain")
    if packer.called:
        assert packer.call_args.args[1:] == (n, size)
    assert struct_reads.called == (read == "struct")
    assert (f"{size}s" in [cut.args[0] for cut in cuts.call_args_list]) == (read == "slices")
    event(read)
    _assert_canonical(a - b, ref([[u - v for u, v in zip(r, s)] for r, s in zip(x, y)]))
    _assert_canonical(a.scale(-1), ref([[-u for u in r] for r in x]))
    _assert_canonical(a.scale(c), ref([[c * u for u in r] for r in x]))
    _assert_canonical(a.transpose(), ref([list(col) for col in zip(*x)]))
    _assert_canonical(a.reduce(m_low), ref(x, m_low))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        power = _plain_product(power, x)
    _assert_canonical(a**k, ref(power))
    for m_bad in (0, m + 1):
        with pytest.raises(ValueError):
            a.reduce(m_bad)


def _triple_loop(x, y, s, modulus):
    """x (r rows of n) times y (n rows of s) by the entrywise definition."""
    out = [[0] * s for _ in x]
    for i, row in enumerate(x):
        for j in range(s):
            for k, a in enumerate(row):
                out[i][j] += a * y[k][j]
            out[i][j] %= modulus
    return out


@example(p=7, m=10, shape=(16, 16, 16), fills=("top", "top"), seed=0)  # 63-bit slots
@example(p=7, m=10, shape=(4, 16, 5), fills=("top", "top"), seed=0)
@example(p=13, m=60, shape=(5, 24, 7), fills=("top", "uniform"), seed=1)  # byte slices
@example(p=13, m=60, shape=(5, 24, 24), fills=("top", "top"), seed=4)  # byte slices
@example(p=5, m=3, shape=(4, 0, 6), fills=("uniform", "uniform"), seed=2)  # inner 0
@example(p=11, m=9, shape=(3, 16, 12), fills=("top", "top"), seed=3)  # plain, r < 4
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    p=st.sampled_from((5, 7, 11, 13)),
    m=st.integers(1, 60),
    shape=st.one_of(
        st.integers(0, 24).map(lambda n: (n, n, n)), st.tuples(*[st.integers(0, 24)] * 3)
    ),
    fills=st.tuples(*[st.sampled_from(("uniform", "top"))] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_triple_loop(p, m, shape, fills, seed):
    """The shared product kernel on r x n by n x s rows, and ``@`` on
    square shapes, against the entrywise definition; "top" fills every
    entry with p^m - 1, the largest residue, so every slot of a packed
    row holds its largest possible sum.  Inner dimension n = 0 gives
    r x s zeros, as the projector needs when T is nilpotent mod p."""
    rng = random.Random(seed)
    modulus = p**m
    (r, n, s), (fill_x, fill_y) = shape, fills

    def draw(rows, cols, fill):
        top = fill == "top"
        return [
            [modulus - 1 if top else rng.randrange(modulus) for _ in range(cols)]
            for _ in range(rows)
        ]

    x, y = draw(r, n, fill_x), draw(n, s, fill_y)
    got = product_rows(x, y, s, modulus)  # r tuples of s plain ints
    assert type(got) is tuple and all(type(row) is tuple for row in got)
    assert [list(row) for row in got] == _triple_loop(x, y, s, modulus)
    assert all(type(v) is int for row in got for v in row)
    if r == n == s:
        product = PadicMatrix.from_rows(x, p, m) @ PadicMatrix.from_rows(y, p, m)
        _assert_canonical(product, PadicMatrix.from_rows(_triple_loop(x, y, s, modulus), p, m))


def test_matmul_slot_width_worst_case():
    """Every entry p^m - 1 makes each slot of a packed row hold
    n (p^m - 1)^2, the largest sum it must carry without spilling; the
    product is then n mod p^m in every entry, since (-1)(-1) = 1.  For a
    given bits(n), that sum is closest to the slot's capacity at
    n = 2^k - 1.  m runs through 1-byte to 8-byte slots and wider ones:
    7^10 at n = 16 takes 63 bits, 8 whole bytes, and 7^2 at n = 31
    takes 17 bits, so its slots are 4 bytes, and would spill in 2.  The
    rectangular shapes, r x n by n x s, go through the same kernel, packed
    when r, s >= 4; inner dimension 0 gives zeros."""
    for p in (5, 7, 11, 13):
        for m in range(1, 61):
            modulus = p**m
            for n in (0, 1, 2, 3, 4, 7, 15, 16, 24, 31):
                top = PadicMatrix.from_rows([[modulus - 1] * n] * n, p, m)
                assert (top @ top).rows == ((n % modulus,) * n,) * n, (p, m, n)
                for r, s in ((4, 5), (9, 4), (2, 6), (5, 0)):
                    x, y = [[modulus - 1] * n] * r, [[modulus - 1] * s] * n
                    rows = product_rows(x, y, s, modulus)
                    assert rows == ((n % modulus,) * s,) * r, (p, m, r, n, s)


def test_slot_size_rule():
    """1, 2, 4 or 8 bytes up to 64 bits, the fewest whole bytes beyond."""
    for bits in range(1, 700):
        size = slot_size(bits)
        if bits <= 64:
            assert size == min(w for w in (1, 2, 4, 8) if bits <= 8 * w), bits
        else:
            assert 8 * (size - 1) < bits <= 8 * size, bits


# Packed rows of about 1 KB on both sides of the 8-byte struct line:
# 1024 and 1025 1-byte slots, read by struct, and 93 and 94 11-byte or 12
# and 13 80-byte slots, read by byte slices, with the largest slot values.
@example(size=1, count=1024, rows=2, fill="top", seed=0)
@example(size=1, count=1025, rows=2, fill="top", seed=0)
@example(size=11, count=93, rows=3, fill="top", seed=0)
@example(size=11, count=94, rows=3, fill="top", seed=0)
@example(size=80, count=12, rows=1, fill="zero", seed=0)
@example(size=80, count=13, rows=1, fill="top", seed=0)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    size=st.integers(1, 80),
    count=st.integers(1, 2048),
    rows=st.integers(1, 3),
    fill=st.sampled_from(("uniform", "zero", "top", "mixed")),
    seed=st.integers(0, 2**32 - 1),
)
def test_slot_codec_round_trip(size, count, rows, fill, seed):
    """``pack_slots`` puts value i of a row at bit 8 * size * i of one
    integer per row, and ``unpack_slots`` reads every slot back, each row
    after the one before, by struct up to 8-byte slots and by byte slices
    beyond; "mixed" draws each value from 0, the largest slot value
    2^(8 size) - 1 and uniform ones."""
    count = min(count, 2048 // size)  # packed rows up to 2048 bytes
    rng = random.Random(seed)
    top = 2 ** (8 * size) - 1
    draw = {
        "uniform": lambda: rng.randrange(top + 1),
        "zero": lambda: 0,
        "top": lambda: top,
        "mixed": lambda: rng.choice((0, top, rng.randrange(top + 1))),
    }[fill]
    values = [[draw() for _ in range(count)] for _ in range(rows)]
    packed = pack_slots(values, count, size)
    assert packed == [sum(v << 8 * size * i for i, v in enumerate(row)) for row in values]
    assert list(unpack_slots(packed, count, size)) == [v for row in values for v in row]
    event("struct" if size in (1, 2, 4, 8) else "slices")
