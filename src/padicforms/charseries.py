"""Characteristic series det(1 - T.U) over Z/p^m and their Newton polygons.

Every characteristic series in the package is computed here, from a
``PadicMatrix`` over Z/p^m, by a division-free principal-submatrix
recurrence (Samuelson/Berkowitz style), so it is exact mod p^m.  A
caller with an integer matrix picks an m that provably suffices (see
``coleman.classical_up_spectrum``).  Newton polygons are lower convex
hulls of (index, valuation) points; a vanishing coefficient only means
"valuation >= m", and the polygon is truncated rather than guessed past
the point where such coefficients could cut below the hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .padic import PadicMatrix, _check_pm, val_p


def charpoly_reversed(rows: Sequence[Sequence[int]], modulus: int) -> List[int]:
    """Coefficients [c_0, ..., c_D] of det(I - T.A) mod N, c_0 = 1.

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


@dataclass(frozen=True)
class CharSeries:
    """det(1 - T.U) as a polynomial of degree <= D over Z/p^m.

    ``coeffs`` are plain ints, reduced mod p^m on construction.
    """

    coeffs: tuple
    p: int
    m: int

    def __post_init__(self) -> None:
        _check_pm(self.p, self.m)
        if not self.coeffs:
            raise ValueError("characteristic series needs at least c_0")
        modulus = self.p**self.m
        coeffs = tuple(c % modulus for c in self.coeffs)
        if coeffs[0] != 1:
            raise ValueError("c_0 must be exactly 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def valuation_points(self) -> List[Tuple[int, Optional[int]]]:
        """(index, valuation) pairs; None marks a saturated coefficient."""
        return [
            (j, None if c == 0 else val_p(c, self.p)) for j, c in enumerate(self.coeffs)
        ]


def char_series(matrix: PadicMatrix) -> CharSeries:
    """Characteristic series of U: coefficients of det(I - T.U)."""
    coeffs = charpoly_reversed(matrix.rows, matrix.modulus)
    return CharSeries(tuple(coeffs), matrix.p, matrix.m)


ALL_SATURATED = "all-coefficients-saturated"


@dataclass(frozen=True)
class NewtonPolygon:
    """Certified lower hull of a characteristic series.

    Slopes are the p-adic valuations of the eigenvalues, in increasing
    order with multiplicities.  ``certified_degree`` is the abscissa of
    the last hull vertex that is provably exact; beyond it the series
    coefficients are saturated (or absent) and slopes are unknown.
    ``next_slope_floor`` is a proven lower bound for any further slope
    (None means the series is exhausted: no further eigenvalue in the
    underlying matrix).
    """

    slopes: tuple
    multiplicities: tuple
    vertices: tuple
    certified_degree: int
    next_slope_floor: Optional[Fraction]
    warning: Optional[str] = None

    def slope_multiset(self) -> List[Fraction]:
        out: List[Fraction] = []
        for s, mult in zip(self.slopes, self.multiplicities):
            out.extend([s] * mult)
        return out

    def slope_zero_multiplicity(self) -> int:
        for s, mult in zip(self.slopes, self.multiplicities):
            if s == 0:
                return mult
        return 0

    def certifies_through(self, bound: Fraction) -> bool:
        """True when every slope < bound is provably in this polygon."""
        if self.next_slope_floor is None:
            return True
        return self.next_slope_floor >= bound

    def slopes_below(self, bound: Fraction) -> List[Fraction]:
        return [s for s in self.slope_multiset() if s < bound]

    def slopes_at(self, value: Fraction) -> int:
        for s, mult in zip(self.slopes, self.multiplicities):
            if s == value:
                return mult
        return 0


def _lower_hull(points: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    hull: List[Tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it is on or above the chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon_from_points(
    points: Sequence[Tuple[int, Optional[int]]],
    ceiling: int,
) -> NewtonPolygon:
    """Newton polygon of valuation data, truncated honestly.

    ``points`` are (index, valuation) with valuation None meaning
    "unknown, >= ceiling".
    """
    known = [(j, v) for j, v in points if v is not None]
    if not known or known[0][0] != 0:
        raise ValueError("point list must start with (0, v_0)")
    floor_pts = [(j, ceiling) for j, v in points if v is None]
    hull = _lower_hull(sorted(known + floor_pts))
    known_set = set(known)
    # certified prefix: hull vertices that are exactly-known points
    certified: List[Tuple[int, int]] = []
    for vert in hull:
        if vert in known_set:
            certified.append(vert)
        else:
            break

    slopes: List[Fraction] = []
    mults: List[int] = []
    for (x1, y1), (x2, y2) in zip(certified, certified[1:]):
        slopes.append(Fraction(y2 - y1, x2 - x1))
        mults.append(x2 - x1)

    jstar, vstar = certified[-1]
    later = [(j, ceiling if v is None else v) for j, v in points if j > jstar]
    floor = min((Fraction(v - vstar, j - jstar) for j, v in later), default=None)
    warning = ALL_SATURATED if len(known) == 1 and later else None
    return NewtonPolygon(
        tuple(slopes), tuple(mults), tuple(certified), jstar, floor, warning
    )


def newton_polygon(series: CharSeries) -> NewtonPolygon:
    """Newton polygon of a characteristic series over Z/p^m."""
    return newton_polygon_from_points(series.valuation_points(), series.m)

