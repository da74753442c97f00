import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicforms.charseries import (
    ALL_SATURATED,
    CharSeries,
    _hessenberg,
    char_series,
    newton_polygon,
    newton_polygon_from_points,
)
from padicforms.padic import PadicMatrix, val_p

from test_linalg import random_matrix, random_unimodular


def charpoly_reversed(rows, modulus):
    """Coefficients [c_0, ..., c_D] of det(I - T.A) mod N, c_0 = 1: the
    O(n^4) Berkowitz-style oracle for ``char_series``.

    Equivalently the reversed characteristic polynomial: if
    det(xI - A) = x^D + a_1 x^(D-1) + ... + a_D then c_j = a_j.
    Division-free, so valid over any Z/N.

    The recurrence expands det(xI - A_k) along the last row/column of
    the k-th leading principal submatrix:
        chi_k(x) = (x - a_kk) chi_{k-1}(x)
                   - sum_{j>=0} (R M^j C) * [chi_{k-1} truncated] ,
    where M = A_{k-1}, R and C are the last row/column fringes.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return [1]
    # ch[i] = coefficient of x^(k-i) in chi_k, ch[0] = 1
    ch = [1, -rows[0][0] % modulus]
    for k in range(2, n + 1):
        a = rows[k - 1][k - 1]
        R = [rows[k - 1][t] for t in range(k - 1)]
        C = [rows[t][k - 1] for t in range(k - 1)]
        # w[j] = R . M^j . C for j = 0 .. k-2
        w = []
        v = C[:]
        for j in range(k - 1):
            w.append(sum(x * y for x, y in zip(R, v)) % modulus)
            if j < k - 2:
                v = [
                    sum(rows[s][t] * v[t] for t in range(k - 1)) % modulus
                    for s in range(k - 1)
                ]
        new = [0] * (k + 1)
        for i, c in enumerate(ch):
            new[i] = (new[i] + c) % modulus
            new[i + 1] = (new[i + 1] - a * c) % modulus
        for j in range(k - 1):
            for d in range(k - 1 - j):
                new[2 + j + d] = (new[2 + j + d] - w[j] * ch[d]) % modulus
        ch = new
    return ch


def det_bruteforce(rows, modulus=None):
    """Permutation-sum determinant of a matrix with polynomial entries.

    Entries are coefficient lists; used as an independent oracle for
    det(I - T.U).
    """
    n = len(rows)
    total = {}
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = {0: sign}
        for i in range(n):
            nxt = {}
            for deg, c in prod.items():
                for d, e in enumerate(rows[i][perm[i]]):
                    nxt[deg + d] = nxt.get(deg + d, 0) + c * e
            prod = nxt
        for deg, c in prod.items():
            total[deg] = total.get(deg, 0) + c
    out = [total.get(d, 0) for d in range(max(total) + 1)]
    if modulus:
        out = [c % modulus for c in out]
    return out


def det_i_minus_tu_bruteforce(matrix):
    rows = [
        [
            [1, -matrix.rows[i][j]] if i == j else [0, -matrix.rows[i][j]]
            for j in range(matrix.size)
        ]
        for i in range(matrix.size)
    ]
    out = det_bruteforce(rows, matrix.modulus)
    out += [0] * (matrix.size + 1 - len(out))
    return out[: matrix.size + 1]


def test_charpoly_trivial_cases():
    u = PadicMatrix.from_rows([[0, 0], [0, 0]], 5, 5)
    assert charpoly_reversed(u.rows, u.modulus) == [1, 0, 0]
    u = PadicMatrix.identity(2, 5, 5)
    assert charpoly_reversed(u.rows, u.modulus) == [1, -2 % 5**5, 1]
    u = PadicMatrix.from_rows([[1, 1], [0, 5]], 5, 5)
    assert charpoly_reversed(u.rows, u.modulus) == [1, -6 % 5**5, 5]


def test_charpoly_against_bruteforce():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        u = random_matrix(rng, n, 5, 4)
        assert charpoly_reversed(u.rows, u.modulus) == det_i_minus_tu_bruteforce(u)


# "dense": entries times p^0..2 each; "no pivot": also zero below
# the diagonal block of rows j+1.. and columns ..j, so that column j has
# no pivot below its diagonal at any step; "all divisible": every entry
# times p as well
@example(0, 5, 3, "dense", 0)
@example(30, 13, 12, "dense", 1)
@example(30, 5, 12, "no pivot", 2)
@example(30, 7, 1, "all divisible", 3)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.integers(0, 30),
    st.sampled_from([5, 7, 11, 13]),
    st.integers(1, 12),
    st.sampled_from(["dense", "no pivot", "all divisible"]),
    st.integers(0, 2**32),
)
def test_char_series_matches_the_berkowitz_oracle(n, p, m, shape, seed):
    rng = random.Random(seed)
    modulus = p**m
    rows = [[rng.randrange(modulus) * p ** rng.randrange(3) for _ in range(n)] for _ in range(n)]
    if shape == "no pivot" and n > 1:
        j = rng.randrange(n - 1)
        for i in range(j + 1, n):
            rows[i][: j + 1] = [0] * (j + 1)
    elif shape == "all divisible":
        rows = [[p * x for x in row] for row in rows]
    u = PadicMatrix.from_rows(rows, p, m)
    assert list(char_series(u).coeffs) == charpoly_reversed(u.rows, u.modulus)


def test_char_series_of_integer_matrices():
    # det(xI - A) = x^2 - 5x - 2 and x^2 - 5x, read mod 5^3
    series = char_series(PadicMatrix.from_rows([[1, 2], [3, 4]], 5, 3))
    assert series.coeffs == (1, 120, 123)
    series = char_series(PadicMatrix.from_rows([[2, 3], [2, 3]], 5, 3))
    assert series.coeffs == (1, 120, 0)


def test_char_series_trace_normalization():
    rng = random.Random(9)
    for _ in range(10):
        u = random_matrix(rng, 3, 7, 3)
        series = char_series(u)
        assert series.coeffs[0] == 1
        assert series.coeffs[1] == -u.trace() % u.modulus


def test_char_series_inverse_reversal_identity():
    # det(I - TU) read backwards equals det(-TU) * det(I - T U^{-1}),
    # whose leading factor (-1)^n det(U) is the last series coefficient.
    rng = random.Random(13)
    from padicforms.linalg import invert_unimodular

    for n in (2, 3):
        for _ in range(10):
            u = random_unimodular(rng, n, 5, 4)
            series = det_i_minus_tu_bruteforce(u)
            uinv = invert_unimodular(u)
            series_inv = det_i_minus_tu_bruteforce(uinv)
            assert charpoly_reversed(u.rows, u.modulus) == series
            factor = series[-1]  # (-1)^n det(U)
            scaled = [(factor * c) % u.modulus for c in series_inv]
            assert scaled[::-1] == series


def test_char_series_conjugation_invariance():
    rng = random.Random(21)
    from padicforms.linalg import invert_unimodular

    u = random_matrix(rng, 3, 5, 4)
    base = char_series(u)
    for _ in range(5):
        g = random_unimodular(rng, 3, 5, 4)
        conj = invert_unimodular(g) @ u @ g
        assert char_series(conj).coeffs == base.coeffs


def test_newton_polygon_simple():
    poly = newton_polygon(CharSeries((1, -6, 5), 5, 5))
    assert poly.slope_multiset() == [Fraction(0), Fraction(1)]
    assert poly.next_slope_floor is None

    poly = newton_polygon(CharSeries((1, -1), 5, 5))
    assert poly.slope_multiset() == [Fraction(0)]


def test_newton_polygon_slopes_zero_and_three():
    # 1 - 126T + 125T^2 has roots 1 and 1/125: slopes {0, 3}
    poly = newton_polygon(CharSeries((1, -126, 125), 5, 5))
    assert poly.slope_multiset() == [Fraction(0), Fraction(3)]


def test_newton_polygon_saturation_truncates():
    # c_2 = 0 mod 5^3 is unknown >= 3; slope after the first segment is
    # bounded below but not certified
    poly = newton_polygon(CharSeries((1, -1, 0), 5, 3))
    assert poly.slope_multiset() == [Fraction(0)]
    assert poly.certified_degree == 1
    assert poly.next_slope_floor == Fraction(3)


def test_newton_polygon_all_saturated():
    poly = newton_polygon(CharSeries((1, 0, 0), 5, 3))
    assert poly.warning == ALL_SATURATED
    assert poly.slope_multiset() == []


def test_newton_polygon_hidden_cut_not_certified():
    # exact points (0,0), (2,0) with unknown (1, >=4): the hull vertex at
    # index 2 is certified only because the floor at index 1 cannot cut
    # below the chord; with a lower ceiling it could, so certification stops.
    poly = newton_polygon_from_points([(0, 0, 8), (1, None, 8), (2, 6, 8)])
    assert poly.vertices[-1] == (2, 6)
    poly = newton_polygon_from_points([(0, 0, 2), (1, None, 2), (2, 6, 2)])
    assert poly.certified_degree == 0
    assert poly.next_slope_floor == Fraction(2)


@pytest.mark.parametrize(
    "points", [[(1, 0, 4), (2, 3, 4)], [(0, None, 4), (1, 0, 4)]], ids=["from_1", "unknown_0"]
)
def test_newton_polygon_refuses_points_that_do_not_start_at_0(points):
    with pytest.raises(ValueError, match=r"^point list must start with \(0, v_0\)$"):
        newton_polygon_from_points(points)


# exact points on slopes 0, 1, 1, 5/2, 5/2 with unknown coefficients at 2 and 4
HULL_POINTS = [(0, 0), (1, 0), (2, None), (3, 2), (4, None), (5, 7)]


@pytest.mark.parametrize(
    "lowered, ceiling, degree, floor",
    [
        (None, 10, 5, None),  # no ceiling can cut below the hull
        (4, 5, 5, None),  # (4, >= 5) lies above the chord from (3, 2) to (5, 7)
        (4, 4, 3, Fraction(2)),  # (4, >= 4) cuts below it
        (4, 3, 1, Fraction(1)),  # (4, >= 3) also puts the vertex (3, 2) on a chord
        (2, 0, 0, Fraction(0)),  # (2, >= 0) cuts below the chord from (1, 0) to (3, 2)
        (3, 0, 5, None),  # a known point's ceiling is not read
    ],
)
def test_newton_polygon_one_low_ceiling_stops_certification(lowered, ceiling, degree, floor):
    points = [(j, v, ceiling if j == lowered else 10) for j, v in HULL_POINTS]
    poly = newton_polygon_from_points(points)
    assert poly.certified_degree == degree
    assert poly.next_slope_floor == floor
    full = [Fraction(0), Fraction(1), Fraction(1), Fraction(5, 2), Fraction(5, 2)]
    assert poly.slope_multiset() == full[:degree]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, 12)), st.integers(0, 12)),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 8),
    st.integers(1, 12),
)
def test_raising_one_ceiling_never_lowers_the_certified_degree(tail, index, rise):
    # the hull can only rise, and a known vertex stays a vertex under a
    # higher hull, so the certified prefix survives
    points = [(0, 0, 0)] + [(j, v, n) for j, (v, n) in enumerate(tail, start=1)]
    index %= len(points)
    raised = [(j, v, n + rise if j == index else n) for j, v, n in points]
    before = newton_polygon_from_points(points).certified_degree
    assert newton_polygon_from_points(raised).certified_degree >= before


def test_newton_polygon_integer_series_at_proven_precision():
    # x^2 - 4830x + 5^11 (the Delta pair at p = 5): slopes {1, 10}.  The
    # last coefficient has valuation 11, so mod 5^12 the polygon is
    # certified to the end; mod 5^11 that coefficient reads 0 and is not.
    companion = [[4830, -(5**11)], [1, 0]]
    poly = newton_polygon(char_series(PadicMatrix.from_rows(companion, 5, 12)))
    assert poly.slope_multiset() == [Fraction(1), Fraction(10)]
    assert poly.certified_degree == 2 and poly.next_slope_floor is None
    poly = newton_polygon(char_series(PadicMatrix.from_rows(companion, 5, 11)))
    assert poly.slope_multiset() == [Fraction(1)]
    assert poly.certified_degree == 1 and poly.next_slope_floor == Fraction(10)


def test_newton_polygon_conjugation_invariance():
    rng = random.Random(31)
    from padicforms.linalg import invert_unimodular

    u = random_matrix(rng, 3, 5, 4)
    base = newton_polygon(char_series(u))
    for _ in range(5):
        g = random_unimodular(rng, 3, 5, 4)
        conj = invert_unimodular(g) @ u @ g
        poly = newton_polygon(char_series(conj))
        assert poly.slopes == base.slopes
        assert poly.multiplicities == base.multiplicities


def test_char_series_validation():
    with pytest.raises(ValueError):
        CharSeries((2,), 5, 3)
    with pytest.raises(ValueError):
        CharSeries((), 5, 3)
    with pytest.raises(ValueError):
        CharSeries((1,), 4, 3)  # p not prime
    with pytest.raises(ValueError):
        CharSeries((1,), 5, 0)
    with pytest.raises(TypeError):
        CharSeries((1, 2.5, Fraction(5, 2)), 5, 3)
    assert CharSeries((126, -1), 5, 3).coeffs == (1, 124)


@pytest.mark.parametrize(
    "column",
    [
        (0, 25, 10, 5, 35),  # three of valuation 1, not the first entry
        (50, 0, 250, 75, 25),  # all of valuation 2 or more
        (5, 25, 0, 7, 3),  # a unit after entries of valuation 1 and 2
        (125, 375, 0, 625, 250),  # least valuation 3, first at once
        (0, 0, 0, 0, 0),  # nothing to clear
    ],
)
def test_hessenberg_pivot_is_the_first_row_of_least_valuation(column):
    """The row swapped under the diagonal of column 0 is the first below
    it of least valuation, also when several rows share that valuation:
    the gcd of p^m and the column gives p^v, and the pivot is the first
    entry not 0 mod p^(v+1).  The pivot stays at [1][0], which the row
    operations and the column swap leave alone."""
    p, m = 5, 6
    rng = random.Random(sum(column))
    rows = [[rng.randrange(p**m) for _ in range(6)] for _ in range(6)]
    for i, x in enumerate(column, start=1):
        rows[i][0] = x
    least = min((val_p(x, p) for x in column if x), default=None)
    first = next((x for x in column if x and val_p(x, p) == least), 0)
    assert _hessenberg(PadicMatrix.from_rows(rows, p, m))[1][0] == first
