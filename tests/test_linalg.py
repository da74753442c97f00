import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms import linalg, padic
from padicforms.errors import PrecisionError, VerificationError
from padicforms.linalg import (
    independent_columns,
    invert_unimodular,
    ordinary_projector,
    rank_mod_p,
    restrict_to_image,
    solve_in_basis,
)
from padicforms.padic import PadicMatrix


def random_matrix(rng, n, p, m):
    return PadicMatrix.from_rows(
        [[rng.getrandbits(40) % p**m for _ in range(n)] for _ in range(n)], p, m
    )


def random_lower_unitriangular(rng, n, p, m):
    """The shape of the Katz heads: element g is q^g + O(q^(g+1))."""
    modulus = p**m
    rows = [
        [1 if i == j else (rng.getrandbits(40) % modulus if i > j else 0) for j in range(n)]
        for i in range(n)
    ]
    return PadicMatrix.from_rows(rows, p, m)


def random_unimodular(rng, n, p, m):
    """Product of random unitriangular matrices, so det is a unit."""
    modulus = p**m
    lower = random_lower_unitriangular(rng, n, p, m)
    upper = [[1 if i == j else (rng.getrandbits(40) % modulus if i < j else 0) for j in range(n)] for i in range(n)]
    return lower @ PadicMatrix.from_rows(upper, p, m)


def block_conjugate(rng, n, r, p, m, shift=False):
    """U (A + pB) U^-1 with U unimodular, A of size r and B of size n - r;
    with ``shift`` the lower block is J + pB instead, J the shift matrix,
    nilpotent mod p of the largest index its size allows.  The mod-p rank
    is below n whenever r is."""
    modulus = p**m
    rows = [
        [
            rng.randrange(modulus) if i < r and j < r
            else p * rng.randrange(modulus) + (shift and j == i + 1) if i >= r and j >= r
            else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    u = random_unimodular(rng, n, p, m)
    return u @ PadicMatrix.from_rows(rows, p, m) @ invert_unimodular(u)


def test_solve_identity_basis():
    b = PadicMatrix.identity(3, 5, 4)
    v = PadicMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 5, 4)
    res = solve_in_basis(v, b)
    assert res.as_matrix() == v
    assert res.precision_loss == 0


def test_solve_of_too_few_vectors_is_not_a_matrix():
    # one vector in a basis of two: its coordinates are a 2x1 block
    res = solve_in_basis([(1, 2)], PadicMatrix.identity(2, 5, 3))
    assert res.columns == ((1, 2),)
    with pytest.raises(ValueError, match="coordinate block is not square"):
        res.as_matrix()
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        solve_in_basis([(1,)], PadicMatrix.identity(2, 5, 3))


def test_solve_non_integral():
    b = PadicMatrix.from_rows([[1, 0], [0, 5]], 5, 3)
    with pytest.raises(PrecisionError):
        solve_in_basis([(0, 1)], b)
    # B = diag(1, 5) is not unimodular: even (0, 5), whose coordinate
    # (0, 1) is integral, would cost a digit, and no solve loses one
    with pytest.raises(PrecisionError):
        solve_in_basis([(0, 5)], b)


def test_solve_rejects_non_integer_vectors():
    b = PadicMatrix.identity(2, 5, 3)
    with pytest.raises(TypeError):
        solve_in_basis([(2.5, 1)], b)
    with pytest.raises(TypeError):
        solve_in_basis([(Fraction(7, 2), 1)], b)
    with pytest.raises(TypeError):
        rank_mod_p([[1.5, 0]], 5)


def test_solve_rejects_vectors_over_another_ring():
    b = PadicMatrix.identity(2, 5, 3)
    for vectors in (PadicMatrix.identity(2, 7, 3), PadicMatrix.identity(2, 5, 4)):
        with pytest.raises(ValueError, match="matrices live over different rings"):
            solve_in_basis(vectors, b)


def pivot_below_top(rng, n, p, m, skipped=1):
    """A row-permuted unimodular basis whose first ``skipped`` leading
    entries are divisible by p: L U with L, U unitriangular has first
    column L[:, 0], so making L's last ``skipped`` leading entries
    multiples of p and moving those rows to the top leaves the first unit
    pivot below them, at row ``skipped``."""
    lower = [list(row) for row in random_lower_unitriangular(rng, n, p, m).rows]
    for row in lower[n - skipped :]:
        row[0] = p * rng.randrange(p ** (m - 1))
    upper = random_lower_unitriangular(rng, n, p, m).transpose()
    b = PadicMatrix.from_rows(lower, p, m) @ upper
    return PadicMatrix.from_rows([*b.rows[n - skipped :], *b.rows[: n - skipped]], p, m)


def test_solve_unimodular_round_trip():
    rng = random.Random(11)
    bases = [random_unimodular(rng, rng.choice([2, 3, 4]), 5, 4) for _ in range(25)]
    bases += [random_lower_unitriangular(rng, n, 5, 8) for n in (1, 2, 5, 13, 30)]
    bases += [pivot_below_top(rng, n, p, 5) for n in (2, 3, 6, 10) for p in (5, 7)]
    for b in bases:
        v = random_matrix(rng, b.size, b.p, b.m)
        res = solve_in_basis(v, b)
        assert res.precision_loss == 0
        assert b @ res.as_matrix() == v


@st.composite
def skipping_systems(draw):
    """[B | V] over Z/p^m with B from ``pivot_below_top``, so the pivot
    search in column 0 must pass the first ``skipped`` rows."""
    p = draw(st.sampled_from((5, 7, 17)))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(2, 9))
    skipped = draw(st.integers(1, n - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    b = pivot_below_top(rng, n, p, m, skipped).rows
    width = rng.randint(1, 4)
    v = [[rng.randrange(p**m) for _ in range(width)] for _ in range(n)]
    return p, m, b, v, skipped


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(skipping_systems())
def test_solve_skips_rows_without_a_unit_pivot(case):
    """``_solve`` returns X with B X = V over Z/p^m, and its pivots are
    those of the rule mod p: the first row that is not yet a pivot row
    and reads a unit, which ``_fp_pivots`` finds for p < 16."""
    p, m, b, v, skipped = case
    n, modulus = len(b), p**m
    x, pivots = linalg._solve([list(row) + rhs for row, rhs in zip(b, v)], p, m, n)
    assert pivots[0] == (0, skipped)
    assert [c for c, _ in pivots] == list(range(n))
    columns = list(zip(*x))
    assert [[sum(map(mul, row, col)) % modulus for col in columns] for row in b] == v
    if p < 16:
        assert pivots == linalg._fp_pivots(bytes(a % p for row in b for a in row), p, n, n)


def test_solve_with_pivoting_needed():
    # leading entry is divisible by p, so the solver must pivot rows
    b = PadicMatrix.from_rows([[5, 1], [1, 0]], 5, 4)
    v = PadicMatrix.from_rows([[1, 0], [0, 1]], 5, 4)
    res = solve_in_basis(v, b)
    assert res.precision_loss == 0
    assert b @ res.as_matrix() == v


def test_invert_unimodular():
    rng = random.Random(7)
    for _ in range(10):
        b = random_unimodular(rng, 3, 7, 3)
        binv = invert_unimodular(b)
        assert b @ binv == PadicMatrix.identity(3, 7, 3)
    with pytest.raises(PrecisionError):
        invert_unimodular(PadicMatrix.from_rows([[5, 0], [0, 1]], 5, 3))
    empty = PadicMatrix.from_rows([], 5, 3)
    assert invert_unimodular(empty) == empty


def test_rank_and_pivots_mod_p():
    rows = [[2, 4, 0], [1, 2, 1], [3, 6, 1]]
    assert rank_mod_p(rows, 5) == 2
    # column 1 is twice column 0; row 2 is the sum of rows 0 and 1
    columns, pivot_rows = independent_columns(PadicMatrix.from_rows(rows, 5, 2))
    assert columns == [(2, 1, 3), (0, 1, 1)]
    assert pivot_rows == [0, 1]


def test_projector_unit_nonunit_split():
    t = PadicMatrix.from_rows([[1, 0], [0, 5]], 5, 3)
    res = ordinary_projector(t)
    assert res.idempotent.rows == ((1, 0), (0, 0))
    assert res.rank == 1


def test_projector_rank_at_least_modulus():
    # the trace of the identity is 5 = 0 in Z/5: rank is not read off it
    res = ordinary_projector(PadicMatrix.identity(5, 5, 1))
    assert res.idempotent == PadicMatrix.identity(5, 5, 1)
    assert res.rank == 5


def test_projector_topologically_nilpotent():
    # r = 0: the core is 0 x 0 and e = C Y has inner dimension 0, so e must
    # still come out n x n (an n x 0 e would also have no nonzero entry)
    rng = random.Random(5)
    strictly_upper = [[rng.randrange(7**4) if j > i else 7 * i for j in range(6)] for i in range(6)]
    for t in (PadicMatrix.identity(2, 5, 3).scale(5), PadicMatrix.from_rows(strictly_upper, 7, 4)):
        res = ordinary_projector(t)
        assert res.idempotent == PadicMatrix.from_rows([[0] * t.size] * t.size, t.p, t.m)
        assert res.rank == 0


def factorial_power_projector(t):
    """e(T) = lim T^(n!) by its definition: the first T^(n!) that
    repeats T^((n-1)!) and is idempotent."""
    prev, n = t, 1
    while True:
        n += 1
        cur = prev**n
        if cur == prev and cur @ cur == cur:
            return cur
        prev = cur


def test_projector_square_root_of_p():
    # T^2 = 5I over Z/5^3: brute-force factorial powers converge to 0
    t = PadicMatrix.from_rows([[0, 1], [5, 0]], 5, 3)
    assert not any(map(any, factorial_power_projector(t).rows))
    res = ordinary_projector(t)
    assert not any(map(any, res.idempotent.rows))


def _check_projector_algebra(t):
    """The defining properties of e(T): an idempotent commuting with T,
    T invertible mod p on its image and nilpotent mod p (of index at most
    n) on its kernel, and rank its mod-p rank."""
    p, n = t.p, t.size
    res = ordinary_projector(t)
    e = res.idempotent
    one = PadicMatrix.identity(n, p, t.m)
    assert e @ e == e
    assert e @ t == t @ e
    assert rank_mod_p(((t @ e) - (e - one)).rows, p) == n
    assert not any(map(any, ((t.reduce(1) ** n) @ (one - e).reduce(1)).rows))
    assert res.rank == rank_mod_p(e.rows, p)
    return res


def test_projector_algebra_random():
    rng = random.Random(2024)
    for p, m in [(5, 4), (7, 3)]:
        for _ in range(60):
            n = rng.choice(list(range(2, m + 1)))
            _check_projector_algebra(random_matrix(rng, n, p, m))


def test_projector_exactness_block_triangular():
    # block-triangular T preserves a sub/quotient pair: ranks add up
    rng = random.Random(5)
    for _ in range(20):
        a = random_matrix(rng, 2, 5, 4)
        c = random_matrix(rng, 2, 5, 4)
        b = [[rng.getrandbits(32) % 5**4 for _ in range(2)] for _ in range(2)]
        rows = [list(a.rows[i]) + b[i] for i in range(2)]
        rows += [[0, 0] + list(c.rows[i]) for i in range(2)]
        t = PadicMatrix.from_rows(rows, 5, 4)
        r_total = ordinary_projector(t).rank
        r_sub = ordinary_projector(a).rank
        r_quot = ordinary_projector(c).rank
        assert r_total == r_sub + r_quot


@st.composite
def projector_cases(draw):
    """A uniform matrix, or a conjugate U (A + pB) U^-1 with U unimodular,
    whose ordinary rank is then that of the r x r block A."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 20))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_matrix(rng, n, p, m), None
    r = draw(st.integers(0, n))
    modulus = p**m
    a = random_matrix(rng, r, p, m) if r else None
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < r and j < r:
                rows[i][j] = a.rows[i][j]
            elif i >= r and j >= r:
                rows[i][j] = p * rng.randrange(modulus)
    u = random_unimodular(rng, n, p, m)
    t = u @ PadicMatrix.from_rows(rows, p, m) @ invert_unimodular(u)
    return t, ordinary_projector(a).rank if r else 0


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(projector_cases())
def test_projector_properties(case):
    t, block_rank = case
    res = _check_projector_algebra(t)
    if block_rank is not None:
        assert res.rank == block_rank
    if t.size <= 4:
        assert res.idempotent == factorial_power_projector(t)


def _companion(coeffs, p, m):
    """Companion matrix of the monic x^n + c_(n-1) x^(n-1) + ... + c_0,
    coefficients listed from c_0."""
    n = len(coeffs)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if i:
            rows[i][i - 1] = 1
        rows[i][n - 1] = -coeffs[i]
    return PadicMatrix.from_rows(rows, p, m)


def test_projector_large_unit_order_companion():
    # x^7+3x^6+3x^4+x^2+3x+3 over Z/5^2: the unit part has order divisible
    # by 19531, far past any factorial-power iteration cap
    t = _companion([3, 3, 1, 0, 3, 0, 3], 5, 2)
    res = _check_projector_algebra(t)
    assert res.idempotent == PadicMatrix.identity(7, 5, 2)
    assert ordinary_projector(t, max_iterations=1) == res


def _counting_products(monkeypatch):
    """Patch ``padic.product_rows``, the kernel behind ``@`` and every
    product the projector makes, to record each call; returns the list
    of calls."""
    calls = []
    real_product_rows = padic.product_rows

    def counting_product_rows(a, b, s, modulus):
        calls.append(s)
        return real_product_rows(a, b, s, modulus)

    monkeypatch.setattr(padic, "product_rows", counting_product_rows)
    monkeypatch.setattr(linalg, "product_rows", counting_product_rows)
    return calls


def settled_product_count(n, m):
    """Products of ``ordinary_projector`` on a T singular mod p whose
    nilpotent part is 0 mod p (k = 1): squarings to N = 2^s >= m, but
    never past N >= n m; then the core A_P C, e, the fused check
    e [T^N | e | T] and T e."""
    squarings = min(max((m - 1).bit_length(), 1), (n * m - 1).bit_length())
    return squarings + 4


def test_projector_invertible_mod_p_is_identity(monkeypatch):
    # T invertible mod p returns the identity, rank n, without a single
    # matrix product; one unit short of that (mod-p rank n - 1) it takes
    # the powers and the checks
    rng = random.Random(0)
    invertible, deficient = [random_matrix(rng, 16, 5, 10)], []
    for n in (0, 1, 16):
        for p in (5, 7, 11, 13):
            m = rng.randint(1, 10)
            invertible.append(random_unimodular(rng, n, p, m))
            if n:
                t = block_conjugate(rng, n, n - 1, p, m)
                deficient.append((t, reference_projector(t)))
    calls = _counting_products(monkeypatch)
    for t in invertible:
        n, p, m = t.size, t.p, t.m
        assert rank_mod_p(t.rows, p) == n
        calls.clear()
        res = ordinary_projector(t)
        assert calls == []
        assert res.idempotent == PadicMatrix.identity(n, p, m)
        assert res.idempotent.rows == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert res.rank == n
    for t, (idem, rank) in deficient:
        assert rank_mod_p(t.rows, t.p) == t.size - 1
        calls.clear()
        res = ordinary_projector(t)
        assert len(calls) == settled_product_count(t.size, t.m)
        assert (res.idempotent.rows, res.rank) == (idem.rows, rank)
    _check_projector_algebra(invertible[0])


def test_projector_matmul_count_is_logarithmic(monkeypatch):
    rng = random.Random(3)
    settled = block_conjugate(rng, 16, 8, 5, 10)
    shifted = block_conjugate(rng, 16, 8, 5, 10, shift=True)
    # T = U (A + pB) U^-1 is nilpotent mod p of index k = 1 on its kernel
    # part: its mod-p rank is below n and already stable at T^2
    assert rank_mod_p(settled.rows, 5) == rank_mod_p((settled @ settled).rows, 5) < 16
    assert rank_mod_p(shifted.rows, 5) < 16
    calls = _counting_products(monkeypatch)
    ordinary_projector(settled)
    # N = 2^s >= k m takes ceil(log2 m) = 4 squarings at k = 1, then the
    # core, e, the fused check and T e
    assert len(calls) == settled_product_count(16, 10) == 4 + 4
    # the fused check is the one product with 3n columns
    assert calls.count(3 * 16) == 1
    calls.clear()
    ordinary_projector(shifted)
    # never more than ceil(log2(n m)) squarings, N >= n m, plus the rest
    assert len(calls) <= (16 * 10 - 1).bit_length() + 4


def _recording_pivots(monkeypatch):
    """Patch ``linalg._pivots_mod_p`` to record the rows of each matrix it
    eliminates; returns the list of them."""
    calls = []
    real_pivots = linalg._pivots_mod_p

    def recording_pivots(rows, p):
        calls.append(tuple(map(tuple, rows)))
        return real_pivots(rows, p)

    monkeypatch.setattr(linalg, "_pivots_mod_p", recording_pivots)
    return calls


def square_powers(t, count):
    """T, T^2, T^4, ..., T^(2^count) by ``naive_matmul``, keyed by exponent."""
    powers = {1: t}
    for j in range(count):
        powers[2 ** (j + 1)] = naive_matmul(powers[2**j], powers[2**j])
    return powers


@pytest.mark.parametrize("m, eliminations", [(1, 3), (2, 3), (3, 3), (10, 3)])
def test_projector_eliminates_each_matrix_once(monkeypatch, m, eliminations):
    # T singular mod p with k = 1 takes the pivots mod p of T, of T^2 (the
    # rank read that shows k = 1) and of e (its rank check).  The pivots
    # of T^2 give T^N its image basis, N = 2^s >= m, so T^N is never
    # eliminated; at m <= 2 it is T^2 itself, eliminated once
    rng = random.Random(m)
    t = block_conjugate(rng, 8, 4, 5, m)
    while rank_mod_p(t.rows, 5) != 4:  # A invertible mod p, so k = 1
        t = block_conjugate(rng, 8, 4, 5, m)
    lift = max((m - 1).bit_length(), 1)
    powers = square_powers(t, lift)
    calls = _recording_pivots(monkeypatch)
    res = ordinary_projector(t)
    assert len(calls) == eliminations
    assert calls == [t.rows, powers[2].rows, res.idempotent.rows]
    assert (powers[2**lift].rows in calls) == (m <= 2)
    idem, rank = reference_projector(t)
    assert (res.idempotent.rows, res.rank) == (idem.rows, rank)


@pytest.mark.parametrize(
    "n, r, m, read, power",
    [
        # n = 8 over Z/5^4: reads while N = 2^(s - 1 + 2) < 2^5, so up to T^8
        pytest.param(8, 6, 4, (1, 2, 4), 8, id="index-2"),
        pytest.param(8, 5, 4, (1, 2, 4, 8), 16, id="index-3"),
        pytest.param(8, 4, 4, (1, 2, 4, 8), 16, id="index-4"),
        # n = 6 over Z/5^5: reads up to T^4, where J^4 is not yet 0 mod p
        pytest.param(6, 0, 5, (1, 2, 4, 32), 32, id="jordan-block"),
    ],
)
def test_projector_reads_the_image_basis_where_the_rank_settles(monkeypatch, n, r, m, read, power):
    # T = U (A + pB) U^-1 with A invertible mod p of size r and, below, the
    # shift J + pB of size n - r, nilpotent mod p of index k = n - r.  The
    # mod-p rank of T^(2^s) settles at the first s with 2^(s-1) >= k, and
    # that read's pivots give T^N, N = 2^(s-1+lift) past it, its image
    # basis: T^N is not eliminated.  One Jordan block of size n has k = n,
    # no read can settle before the squaring reaches 2^s >= n m, and T^N is
    # eliminated after the last square
    rng = random.Random(n * 100 + r)
    t = block_conjugate(rng, n, r, 5, m, shift=True)
    while rank_mod_p(t.rows, 5) != n - 1:
        t = block_conjugate(rng, n, r, 5, m, shift=True)
    powers = square_powers(t, power.bit_length() - 1)
    calls = _recording_pivots(monkeypatch)
    res = ordinary_projector(t)
    assert calls == [powers[j].rows for j in read] + [res.idempotent.rows]
    assert (power in read) == (r == 0)
    idem, rank = reference_projector(t)
    assert (res.idempotent.rows, res.rank) == (idem.rows, rank) and rank == r


def test_projector_checks_every_block_of_the_fused_product(monkeypatch):
    # e T^N, e^2 and e T come from one product e [T^N | e | T], T e from
    # another: one wrong entry in any block is caught
    t = block_conjugate(random.Random(5), 8, 4, 5, 6)
    n, modulus = t.size, t.modulus
    real_product_rows = linalg.product_rows

    def corrupting(column, fused):
        def product_rows(a, b, s, modulus):
            rows = real_product_rows(a, b, s, modulus)
            if (s == 3 * n) if fused else (a is t.rows is not b):
                first = list(rows[0])
                first[column] = (first[column] + 1) % modulus
                rows = (tuple(first), *rows[1:])
            return rows

        return product_rows

    blocks = [(0, True, "outside the span"), (n, True, "not an idempotent")]
    blocks += [(2 * n, True, "not an idempotent"), (0, False, "not an idempotent")]
    for column, fused, message in blocks:
        monkeypatch.setattr(linalg, "product_rows", corrupting(column, fused))
        with pytest.raises(VerificationError, match=message):
            ordinary_projector(t)
    monkeypatch.undo()
    assert ordinary_projector(t).rank == 4


def test_projector_validates_only_its_public_builds(monkeypatch):
    calls = []
    real_post_init = PadicMatrix.__post_init__

    def counting_post_init(self):
        calls.append(self.size)
        real_post_init(self)

    monkeypatch.setattr(PadicMatrix, "__post_init__", counting_post_init)
    for m in (2, 10):
        t = block_conjugate(random.Random(3), 16, 8, 5, m, shift=True)
        assert rank_mod_p(t.rows, 5) < 16
        calls.clear()
        ordinary_projector(t)
        # the core A_P C, e and every product are built already reduced
        assert calls == []


def naive_matmul(x, y):
    """Product by the entrywise definition, independent of the packed-row
    kernel of ``PadicMatrix.__matmul__``."""
    modulus, n = x.modulus, x.size
    rows = [
        [sum(x.rows[i][k] * y.rows[k][j] for k in range(n)) % modulus for j in range(n)]
        for i in range(n)
    ]
    return PadicMatrix.from_rows(rows, x.p, x.m)


def reference_projector(t):
    """The projector as computed with two solves: A = T^N, then A = C X
    solved on the rows where the image basis C is unimodular and checked
    on every row, S = X C, and e = C S^-1 X.  Returns (e, rank)."""
    n, p, m = t.size, t.p, t.m
    modulus = p**m
    power = t
    for _ in range((n * m - 1).bit_length()):
        power = naive_matmul(power, power)
    columns, pivot_rows = independent_columns(power)
    r = len(columns)
    pivot_block = PadicMatrix.from_rows(
        [[columns[j][i] for j in range(r)] for i in pivot_rows], p, m
    )
    a_cols = [[power.rows[i][j] for i in range(n)] for j in range(n)]
    x = solve_in_basis([[v[i] for i in pivot_rows] for v in a_cols], pivot_block).columns
    for v, xj in zip(a_cols, x):  # x[j] = X[:, j]
        for i in range(n):
            assert sum(xj[b] * columns[b][i] for b in range(r)) % modulus == v[i]
    s = PadicMatrix.from_rows(
        [[sum(x[j][a] * columns[b][j] for j in range(n)) for b in range(r)] for a in range(r)],
        p,
        m,
    )
    y = solve_in_basis(x, s).columns  # y[j] = S^-1 X[:, j]
    idem = PadicMatrix.from_rows(
        [[sum(columns[b][i] * y[j][b] for b in range(r)) for j in range(n)] for i in range(n)],
        p,
        m,
    )
    return idem, r


@st.composite
def oracle_cases(draw):
    """A uniform matrix, one with every entry divisible by p, or a
    ``block_conjugate`` with A of any size r; the "shift" kind, whose
    nilpotent part takes the most squarings to kill, has J + pB below."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    m = draw(st.integers(1, 10))
    n = draw(st.integers(0, 16))
    kind = draw(st.sampled_from(("uniform", "times p", "conjugate", "shift")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return random_matrix(rng, n, p, m)
    if kind == "times p":
        return random_matrix(rng, n, p, m).scale(p)
    r = draw(st.integers(0, n))
    return block_conjugate(rng, n, r, p, m, shift=kind == "shift")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(oracle_cases())
def test_projector_matches_two_solve_reference(t):
    res = ordinary_projector(t)
    idem, rank = reference_projector(t)
    assert res.idempotent.rows == idem.rows
    assert res.rank == rank


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(oracle_cases())
def test_projector_reduction_consistency(t):
    # e(T) is a limit of powers of T, so it commutes with reduction: the
    # Z/p^m projector reduced mod p^m' is the projector of T mod p^m', and
    # both have the same (mod-p) rank, at every 1 <= m' < m
    res = ordinary_projector(t)
    for m_low in range(1, t.m):
        low = ordinary_projector(t.reduce(m_low))
        assert res.idempotent.reduce(m_low).rows == low.idempotent.rows
        assert res.rank == low.rank


def test_projector_rejects_an_image_basis_missing_a_column(monkeypatch):
    # With the last image column dropped, e = C (A_P C)^-1 A_P is still an
    # idempotent, but of rank r - 1, so it cannot fix every column of A.
    # T is an idempotent or diagonal, so A_P C stays unimodular and the
    # solve goes through to the checks.  The projector reads the basis
    # off the pivots mod p of the power whose rank read settled, or of
    # T^N when none did (n = 2, m = 1 reads no rank before N = 2); each
    # read of a singular matrix loses its last pivot, so the ranks still
    # settle where they do, one lower.  An invertible T (r = n) returns
    # the identity after its first read, which is not cut.
    real_pivots = linalg._pivots_mod_p
    calls = []

    def drop_last_pivot(rows, p):
        pivots = real_pivots(rows, p)
        if len(pivots) == len(rows):
            return pivots
        calls.append(len(rows))
        return pivots[:-1]

    monkeypatch.setattr(linalg, "_pivots_mod_p", drop_last_pivot)
    rng = random.Random(8)
    cases = [PadicMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 5, 4)]
    sizes = [(1, 1, 5, 3), (2, 1, 5, 3), (4, 2, 7, 2), (9, 5, 5, 10), (16, 16, 13, 4), (16, 15, 13, 4)]
    sizes.append((2, 1, 5, 1))  # no rank read before N = 2: T^N itself is read
    for n, r, p, m in sizes:
        diag = [[int(i == j and i < r) for j in range(n)] for i in range(n)]
        u = random_unimodular(rng, n, p, m)
        cases.append(u @ PadicMatrix.from_rows(diag, p, m) @ invert_unimodular(u))
    invertible = []
    for t in cases:
        full = rank_mod_p(t.rows, t.p) == t.size
        calls.clear()
        if full:
            invertible.append(t.size)
            identity = PadicMatrix.identity(t.size, t.p, t.m)
            assert ordinary_projector(t) == linalg.ProjectorResult(identity, t.size)
            assert calls == []
            continue
        with pytest.raises(VerificationError, match="outside the span of its image basis"):
            ordinary_projector(t)
        # T itself, then the one power the basis is read from
        assert calls == [t.size, t.size]
    assert invertible == [1, 16]


def test_projector_refuses_an_idempotent_whose_trace_is_not_its_rank(monkeypatch):
    # With the mod-p rank of e read one too high, its trace (its rank over
    # the local ring Z/p^m) disagrees.  The rank of T itself and of its
    # powers is read by ``_pivots_mod_p``, so only the final check sees it.
    real = linalg.rank_mod_p
    monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, p: real(rows, p) + 1)
    t = block_conjugate(random.Random(3), 6, 3, 5, 4)
    with pytest.raises(VerificationError, match="idempotent trace disagrees with mod-p rank"):
        ordinary_projector(t)


@st.composite
def shortcut_cases(draw):
    """A uniform matrix, or U (A + pB) U^-1 (A + J + pB with ``shift``)
    with A of size r <= n: n <= 6, p in {5, 7}, m <= 4."""
    p = draw(st.sampled_from((5, 7)))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_matrix(rng, n, p, m)
    return block_conjugate(rng, n, draw(st.integers(0, n)), p, m, shift=draw(st.booleans()))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(shortcut_cases())
def test_projector_facts_behind_the_acceptance_shortcuts(t):
    """The two facts acceptance criterion 1 reads its checks by: with
    e = e(T), (T - Te)^m = T^m (1 - e), exactly and so mod p, and e is
    exactly the identity if and only if T is invertible mod p."""
    n, p, m = t.size, t.p, t.m
    e = ordinary_projector(t).idempotent
    one = PadicMatrix.identity(n, p, m)
    assert (t - t @ e) ** m == (t**m) @ (one - e)
    assert (e.rows == one.rows) == (rank_mod_p(t.rows, p) == n)


def greedy_rows(columns, p):
    """Rows of the block with the given columns that raise the mod-p rank
    of the rows above them."""
    chosen, rows = [], []
    for i in range(len(columns[0]) if columns else 0):
        row = [c[i] for c in columns]
        if rank_mod_p([*chosen, row], p) > len(chosen):
            chosen.append(row)
            rows.append(i)
    return rows


def greedy_independent_columns(idem, p):
    """The choice ``independent_columns`` makes, by its definition and
    with ``rank_mod_p`` alone: add a column whenever it raises the mod-p
    rank of the ones before it, then take the rows of the chosen columns
    that do the same."""
    d = idem.size
    chosen = []
    for j in range(d):
        column = tuple(idem.rows[i][j] for i in range(d))
        if rank_mod_p([*chosen, column], p) > len(chosen):
            chosen.append(column)
    return chosen, greedy_rows(chosen, p)


def test_independent_columns_match_greedy_choice():
    rng = random.Random(31)
    for _ in range(40):
        p, m = rng.choice([(5, 3), (7, 2), (11, 1), (13, 4)])
        n = rng.randint(1, 9)
        rank = rng.randint(0, n)
        diag = [[int(i == j and i < rank) for j in range(n)] for i in range(n)]
        u = random_unimodular(rng, n, p, m)
        for idem in (
            u @ PadicMatrix.from_rows(diag, p, m) @ invert_unimodular(u),
            ordinary_projector(random_matrix(rng, n, p, m)).idempotent,
        ):
            assert idem @ idem == idem
            assert independent_columns(idem) == greedy_independent_columns(idem, p)


def integer_det(rows):
    """Determinant over Z by fraction-free (Bareiss) elimination: an
    oracle that shares no code with ``linalg``."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


@st.composite
def kernel_cases(draw):
    """U D_r V over Z/p^m with U, V unimodular products of unitriangular
    factors and D_r diagonal, r units then multiples of p, so its mod-p
    rank is r; and a generator for the solves.  p = 17 takes the mod-p
    pivots off the byte rows."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17)))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 9))
    r = draw(st.integers(0, n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    top = p ** (m - 1)
    diag = [rng.randrange(1, p) * (i < r) + p * rng.randrange(top) for i in range(n)]
    d = PadicMatrix.from_rows([[diag[i] * (i == j) for j in range(n)] for i in range(n)], p, m)
    return random_unimodular(rng, n, p, m) @ d @ random_unimodular(rng, n, p, m), r, rng


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(kernel_cases())
def test_elimination_against_oracles(case):
    t, r, rng = case
    n, p, m = t.size, t.p, t.m
    assert rank_mod_p(t.rows, p) == r
    columns, pivot_rows = independent_columns(t)
    assert len(columns) == r and set(columns) <= set(zip(*t.rows))
    assert all(a < b for a, b in zip(pivot_rows, pivot_rows[1:]))
    assert integer_det([[c[i] for c in columns] for i in pivot_rows]) % p
    # a dense unimodular B with its rows shuffled, so the first unit
    # pivot is rarely on the diagonal, and a sparse lower unitriangular B
    dense = list(random_unimodular(rng, n, p, m).rows)
    rng.shuffle(dense)
    sparse = [
        [int(i == j) or (i > j and rng.random() < 0.3) * rng.randrange(p**m) for j in range(n)]
        for i in range(n)
    ]
    for rows in (dense, sparse):
        b = PadicMatrix.from_rows(rows, p, m)
        vectors = [tuple(rng.randrange(p**m) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        res = solve_in_basis(vectors, b)
        assert len(res.columns) == len(vectors)
        assert [b.apply(x) for x in res.columns] == vectors


def test_rank_mod_p_refuses_ragged_rows(monkeypatch):
    for p in (5, 17):
        assert rank_mod_p([[], []], p) == rank_mod_p([], p) == 0

    def no_elimination(*args):
        raise AssertionError("elimination started on ragged rows")

    monkeypatch.setattr(linalg, "_fp_pivots", no_elimination)
    monkeypatch.setattr(linalg, "_eliminate", no_elimination)
    # p = 5 takes the byte kernel, p = 17 ``_eliminate``; the shape is
    # checked before any entry is read, so a non-integer entry in a
    # ragged matrix raises ValueError too
    for p in (5, 17):
        for rows in ([[0, 1], [1]], [[1, 0], [0]], [[], [1]], [[2.5, 1], [1]]):
            with pytest.raises(ValueError, match="unequal length"):
                rank_mod_p(rows, p)


def test_rank_mod_p_refuses_non_integers():
    for p in (5, 17):
        # whole-valued non-integers too: 5.0 and 10/2 reduce to 0.0 and 0/1
        for bad in (2.5, Fraction(7, 2), float(p), Fraction(2 * p, 2)):
            for rows in ([[bad, 0], [0, 1]], [[1, 0], [0, bad]]):
                with pytest.raises(TypeError):
                    rank_mod_p(rows, p)
        assert rank_mod_p([[True, 0], [0, -1]], p) == 2


@st.composite
def residue_rows(draw):
    """Rows mod p < 16 up to 24 x 24, rectangular, with zero columns and
    zero rows, or all p - 1: at p = 13 those drive a byte of the
    multiply-add to its largest value, (p - 1) + (p - 1)^2 = 156."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    height, width = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    if draw(st.integers(0, 4)) == 0:
        return p, width, [[p - 1] * width for _ in range(height)]
    zero_columns = draw(st.sets(st.integers(0, max(width - 1, 0))))
    row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, st.just([0] * width)), min_size=height, max_size=height))
    return p, width, [[0 if j in zero_columns else x for j, x in enumerate(r)] for r in rows]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(residue_rows())
def test_byte_pivots_match_elimination(case):
    p, width, rows = case
    expected = linalg._eliminate([list(r) for r in rows], p, 1, width)
    mat = bytes([x for r in rows for x in r])
    assert linalg._fp_pivots(mat, p, len(rows), width) == expected
    assert rank_mod_p(rows, p) == len(expected)
    # the same rows off their residues: negative and large representatives
    shifted = [[x + p * (i - j) * 10**6 for j, x in enumerate(r)] for i, r in enumerate(rows)]
    assert linalg._pivots_mod_p(shifted, p) == expected


def test_byte_pivots_follow_elimination_on_composite_moduli():
    # outside F_p the kernel still takes _eliminate's pivots while they
    # are units, and refuses a pivot that is not, as _eliminate does
    for p, rows in ((4, [[1, 2], [3, 1]]), (9, [[0, 1], [1, 3], [2, 1]])):
        assert rank_mod_p(rows, p) == len(linalg._eliminate(rows, p, 1, 2)) == 2
    for p, rows in ((4, [[2, 1]]), (9, [[1, 0], [0, 3]])):
        for kernel in (linalg._pivots_mod_p, lambda rows, p: linalg._eliminate(rows, p, 1, 2)):
            with pytest.raises(ValueError):
                kernel([list(r) for r in rows], p)


def test_restrict_to_image():
    # e = diag(1, 1, 0) over Z/5^3; T preserves im(e), N does not
    e = PadicMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 5, 3)
    columns, _ = independent_columns(e)
    t = PadicMatrix.from_rows([[2, 5, 7], [3, 1, 0], [0, 0, 25]], 5, 3)
    assert restrict_to_image(t, columns).rows == ((2, 5), (3, 1))
    n = PadicMatrix.from_rows([[1, 0, 0], [0, 1, 0], [25, 0, 0]], 5, 3)
    with pytest.raises(VerificationError, match="does not preserve"):
        restrict_to_image(n, columns)
    # a dense image basis, conjugated by a unimodular U: the pivot rows
    # clear each other's columns, and an operator that moves im(e) by
    # 25 times a kernel direction is still refused
    rng = random.Random(5)
    for _ in range(10):
        u = random_unimodular(rng, 4, 5, 3)
        u_inv = invert_unimodular(u)
        diag = PadicMatrix.from_rows([[int(i == j and i < 2) for j in range(4)] for i in range(4)], 5, 3)
        columns, _ = independent_columns(u @ diag @ u_inv)
        block = [[rng.randrange(125) if (i < 2) == (j < 2) else 0 for j in range(4)] for i in range(4)]
        t = u @ PadicMatrix.from_rows(block, 5, 3) @ u_inv
        r = restrict_to_image(t, columns).rows
        spanned = [
            tuple(sum(col[i] * r[c][k] for c, col in enumerate(columns)) % 125 for i in range(4))
            for k in range(2)
        ]
        assert [t.apply(col) for col in columns] == spanned
        leak = [[int(i == j) + 25 * ((i, j) == (2, 0)) for j in range(4)] for i in range(4)]
        with pytest.raises(VerificationError, match="does not preserve"):
            restrict_to_image(u @ PadicMatrix.from_rows(leak, 5, 3) @ u_inv, columns)
