"""Characteristic series det(1 - T.U) and Newton polygons.

The characteristic series is computed by a division-free principal-
submatrix recurrence (Samuelson/Berkowitz style), so it is exact over
Z/p^m and over Z.  Newton polygons are lower convex hulls of
(index, valuation) points; over Z/p^m a vanishing coefficient only
means "valuation >= m", and the polygon is truncated rather than
guessed past the point where such coefficients could cut below the
hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .padic import PadicMatrix, _check_pm, val_p


def charpoly_reversed(rows: Sequence[Sequence[int]], modulus: Optional[int] = None) -> List[int]:
    """Coefficients [c_0, ..., c_D] of det(I - T.A), c_0 = 1.

    Equivalently the reversed characteristic polynomial: if
    det(xI - A) = x^D + a_1 x^(D-1) + ... + a_D then c_j = a_j.
    Division-free, so valid over Z (modulus None) and over Z/N.

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
    red = (lambda x: x % modulus) if modulus else (lambda x: x)
    if n == 0:
        return [1]
    # ch[i] = coefficient of x^(k-i) in chi_k, ch[0] = 1
    ch = [1, red(-rows[0][0])]
    for k in range(2, n + 1):
        a = rows[k - 1][k - 1]
        R = [rows[k - 1][t] for t in range(k - 1)]
        C = [rows[t][k - 1] for t in range(k - 1)]
        # w[j] = R . M^j . C for j = 0 .. k-2
        w = []
        v = C[:]
        for j in range(k - 1):
            w.append(red(sum(x * y for x, y in zip(R, v))))
            if j < k - 2:
                v = [
                    red(sum(rows[s][t] * v[t] for t in range(k - 1)))
                    for s in range(k - 1)
                ]
        new = [0] * (k + 1)
        for i, c in enumerate(ch):
            new[i] = red(new[i] + c)
            new[i + 1] = red(new[i + 1] - a * c)
        for j in range(k - 1):
            for d in range(k - 1 - j):
                new[2 + j + d] = red(new[2 + j + d] - w[j] * ch[d])
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

    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)

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
    ceiling: Optional[int],
) -> NewtonPolygon:
    """Newton polygon of valuation data, truncated honestly.

    ``points`` are (index, valuation) with valuation None meaning
    "unknown, >= ceiling" (for exact integer data pass ceiling=None, in
    which case None means genuinely infinite and cannot cut the hull).
    """
    known = [(j, v) for j, v in points if v is not None]
    if not known or known[0][0] != 0:
        raise ValueError("point list must start with (0, v_0)")
    if ceiling is not None:
        floor_pts = [(j, ceiling) for j, v in points if v is None]
    else:
        floor_pts = []
    if len(known) == 1:
        later = [(j, v) for j, v in points if j > 0]
        floor = None
        for j, v in later:
            lb = v if v is not None else ceiling
            if lb is None:
                continue
            cand = Fraction(lb, j)
            floor = cand if floor is None else min(floor, cand)
        return NewtonPolygon(
            (), (), (known[0],), 0, floor, ALL_SATURATED if later else None
        )

    candidates = sorted(known + floor_pts)
    hull = _lower_hull(candidates)
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
    later = [(j, v) for j, v in points if j > jstar]
    floor: Optional[Fraction] = None
    for j, v in later:
        lb = v if v is not None else ceiling
        if lb is None:
            continue  # exact zero coefficient: no eigenvalue contribution
        cand = Fraction(lb - vstar, j - jstar)
        floor = cand if floor is None else min(floor, cand)
    return NewtonPolygon(
        tuple(slopes), tuple(mults), tuple(certified), jstar, floor, None
    )


def newton_polygon(series: CharSeries) -> NewtonPolygon:
    """Newton polygon of a characteristic series over Z/p^m."""
    return newton_polygon_from_points(series.valuation_points(), series.m)


def newton_polygon_exact(coeffs: Sequence[int], p: int) -> NewtonPolygon:
    """Newton polygon of an exact integer characteristic series."""
    if not coeffs or coeffs[0] != 1:
        raise ValueError("c_0 must be 1")
    pts: List[Tuple[int, Optional[int]]] = []
    for j, c in enumerate(coeffs):
        pts.append((j, None if c == 0 else val_p(c, p)))
    return newton_polygon_from_points(pts, None)
