import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.errors import PrecisionError, VerificationError
from padicforms.linalg import (
    echelon_mod_p,
    in_row_span_mod_p,
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


def test_solve_identity_basis():
    b = PadicMatrix.identity(3, 5, 4)
    v = PadicMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 5, 4)
    res = solve_in_basis(v, b)
    assert res.as_matrix() == v
    assert res.precision_loss == 0


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
        echelon_mod_p([[1.5, 0]], 5)
    ech, piv = echelon_mod_p([[1, 0]], 5)
    with pytest.raises(TypeError):
        in_row_span_mod_p([Fraction(1, 1), 0], ech, piv, 5)


def test_solve_rejects_vectors_over_another_ring():
    b = PadicMatrix.identity(2, 5, 3)
    for vectors in (PadicMatrix.identity(2, 7, 3), PadicMatrix.identity(2, 5, 4)):
        with pytest.raises(ValueError, match="matrices live over different rings"):
            solve_in_basis(vectors, b)


def pivot_below_top(rng, n, p, m):
    """A row-permuted unimodular basis whose leading entry is divisible
    by p: L U with L, U unitriangular has first column L[:, 0], so making
    L's last leading entry a multiple of p and moving that row to the top
    leaves the first unit pivot below it."""
    lower = [list(row) for row in random_lower_unitriangular(rng, n, p, m).rows]
    lower[-1][0] = p * rng.randrange(p ** (m - 1))
    upper = random_lower_unitriangular(rng, n, p, m).transpose()
    b = PadicMatrix.from_rows(lower, p, m) @ upper
    return PadicMatrix.from_rows([b.rows[-1], *b.rows[:-1]], p, m)


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


def test_echelon_mod_p():
    rows, pivots = echelon_mod_p([[2, 4, 0], [1, 2, 1]], 5)
    assert pivots == [0, 2]
    assert rank_mod_p([[2, 4, 0], [1, 2, 1], [3, 6, 1]], 5) == 2
    ech, piv = echelon_mod_p([[1, 1, 0], [0, 0, 1]], 5)
    assert in_row_span_mod_p([2, 2, 3], ech, piv, 5)
    assert not in_row_span_mod_p([1, 0, 0], ech, piv, 5)


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
    t = PadicMatrix.identity(2, 5, 3).scale(5)
    res = ordinary_projector(t)
    assert res.idempotent.is_zero()
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
    assert factorial_power_projector(t).is_zero()
    res = ordinary_projector(t)
    assert res.idempotent.is_zero()


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
    assert rank_mod_p(((t @ e) + (one - e)).rows, p) == n
    assert ((t.reduce(1) ** n) @ (one - e).reduce(1)).is_zero()
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


def test_projector_reduction_consistency():
    # reduction mod p of the Z/p^m projector is the mod-p projector
    rng = random.Random(17)
    for _ in range(20):
        t = random_matrix(rng, 3, 5, 4)
        e_high = ordinary_projector(t).idempotent.reduce(1)
        e_low = ordinary_projector(t.reduce(1)).idempotent
        assert e_high == e_low


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


def test_projector_invertible_mod_p_is_identity():
    t = random_matrix(random.Random(0), 16, 5, 10)
    assert rank_mod_p(t.rows, 5) == 16
    res = _check_projector_algebra(t)
    assert res.idempotent == PadicMatrix.identity(16, 5, 10)
    assert res.rank == 16


def test_projector_matmul_count_is_logarithmic(monkeypatch):
    calls = []
    real_matmul = PadicMatrix.__matmul__

    def counting_matmul(self, other):
        calls.append(self.size)
        return real_matmul(self, other)

    t = random_matrix(random.Random(3), 16, 5, 10)
    monkeypatch.setattr(PadicMatrix, "__matmul__", counting_matmul)
    ordinary_projector(t)
    # ceil(log2(n m)) squarings for T^N, N >= n m, plus the checks
    assert len(calls) <= (16 * 10 - 1).bit_length() + 4


def test_projector_validates_only_its_public_builds(monkeypatch):
    calls = []
    real_post_init = PadicMatrix.__post_init__

    def counting_post_init(self):
        calls.append(self.size)
        real_post_init(self)

    monkeypatch.setattr(PadicMatrix, "__post_init__", counting_post_init)
    for m in (2, 10):
        t = random_matrix(random.Random(3), 16, 5, m)
        calls.clear()
        ordinary_projector(t)
        # the pivot block of the image solve, S and e; products skip validation
        assert len(calls) <= 3


def greedy_independent_columns(idem, rank, p):
    """The column choice ``independent_columns`` replaced: add a column
    whenever it raises the mod-p rank, up to ``rank`` columns."""
    d = idem.size
    cols = [tuple(idem.rows[i][j] for i in range(d)) for j in range(d)]
    chosen = []
    for j in range(d):
        cand = [list(c) for c in chosen] + [list(cols[j])]
        if len(echelon_mod_p(cand, p)[0]) > len(chosen):
            chosen.append(cols[j])
        if len(chosen) == rank:
            break
    _, pivot_rows = echelon_mod_p([list(c) for c in chosen], p)
    return chosen, pivot_rows


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
            expected = greedy_independent_columns(idem, rank_mod_p(idem.rows, p), p)
            assert independent_columns(idem) == expected


def test_restrict_to_image():
    # e = diag(1, 1, 0) over Z/5^3; T preserves im(e), N does not
    e = PadicMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 5, 3)
    columns, pivot_rows = independent_columns(e)
    t = PadicMatrix.from_rows([[2, 5, 7], [3, 1, 0], [0, 0, 25]], 5, 3)
    assert restrict_to_image(t, columns, pivot_rows).rows == ((2, 5), (3, 1))
    n = PadicMatrix.from_rows([[1, 0, 0], [0, 1, 0], [25, 0, 0]], 5, 3)
    with pytest.raises(VerificationError, match="does not preserve"):
        restrict_to_image(n, columns, pivot_rows)
