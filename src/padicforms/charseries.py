"""Characteristic series det(1 - T.U) over Z/p^m and their Newton polygons.

Every characteristic series in the package is computed here, from a
``PadicMatrix`` over Z/p^m, in O(n^3).  ``char_series`` first brings U
to upper Hessenberg form by integral similarities: in each column it
takes the pivot of minimal valuation p^v.u below the diagonal, so every
multiplier (e / p^v).u^-1 is an integer, and each row operation and its
inverse column operation are exact mod p^m.  No digit is lost, and the
series of the Hessenberg matrix, from the division-free recurrence over
its leading blocks, is that of U exactly mod p^m.  A caller with an
integer matrix picks an m that provably suffices (see
``classical.old_factor``).  Newton polygons are lower convex hulls of
(index, valuation) points, each point with its own ceiling: a vanishing
coefficient only means "valuation >= ceiling" (m, for a series over
Z/p^m), and the polygon is truncated rather than guessed past the point
where such coefficients could cut below the hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index, mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import ConfigError
from .padic import PadicMatrix, _check_pm, unit_inverse, val_p


def _hessenberg(matrix: PadicMatrix) -> List[List[int]]:
    """Rows of an upper Hessenberg matrix similar to ``matrix`` over Z/p^m.

    Column j is cleared below the subdiagonal against the first row of
    minimal valuation p^v.u among rows j+1..n-1, swapped into row j+1
    (with the matching column swap): p^v is the gcd of p^m and the
    column's entries there, and the pivot is the first entry that is not
    0 mod p^(v+1).  Row i then loses t_i times that row, t_i =
    (a_ij / p^v).u^-1, and column j+1 gains sum_i t_i times column i, the
    inverse operations batched into one pass.  A column with no nonzero
    entry there needs nothing.
    """
    p, m, n, modulus = matrix.p, matrix.m, matrix.size, matrix.modulus
    a = [list(row) for row in matrix.rows]
    for j in range(n - 2):
        column = [row[j] for row in a[j + 1 :]]
        pk = gcd(modulus, *column)  # p^v, or p^m when the column is 0
        if pk == modulus:
            continue
        k = j + 1
        best = k + next(i for i, x in enumerate(column) if x % (pk * p))
        if best != k:
            a[k], a[best] = a[best], a[k]
            for row in a:
                row[k], row[best] = row[best], row[k]
        inv = unit_inverse(a[k][j] // pk, p, m)
        pivot = a[k][j:]
        mults = []
        for i in range(k + 1, n):
            row = a[i]
            t = (row[j] // pk) * inv % modulus
            mults.append(t)
            if t:
                row[j:] = [(x - t * y) % modulus for x, y in zip(row[j:], pivot)]
        if any(mults):
            for row in a:
                row[k] = (row[k] + sum(map(mul, mults, row[k + 1 :]))) % modulus
    return a


def _hessenberg_series(h: Sequence[Sequence[int]], modulus: int) -> List[int]:
    """Coefficients [c_0, ..., c_n] of det(1 - T.H) mod N for upper
    Hessenberg H, c_0 = 1.

    chi_k = det(x - H_k) on the leading k x k block H_k satisfies
        chi_k = (x - h_kk) chi_(k-1)
                - sum_(i<k) h_ik (h_(i+1,i) ... h_(k,k-1)) chi_i
    (0-indexed rows; Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9).  Division-free, so valid over any Z/N.  Each
    chi_k is kept as [coefficient of x^(k-s) for s = 0..k], so that the
    list for k = n is the series.
    """
    chis = [[1]]
    for k in range(len(h)):
        prev = chis[-1]
        hkk = h[k][k]
        new = [prev[0]] + [x - hkk * y for x, y in zip(prev[1:] + [0], prev)]
        prod = 1
        for i in range(k - 1, -1, -1):
            prod = prod * h[i + 1][i] % modulus
            if not prod:
                break
            c = h[i][k] * prod % modulus
            if c:
                lo = k + 1 - i
                new[lo:] = [x - c * y for x, y in zip(new[lo:], chis[i])]
        chis.append([x % modulus for x in new])
    return chis[-1]


@dataclass(frozen=True)
class CharSeries:
    """det(1 - T.U) as a polynomial of degree <= D over Z/p^m.

    ``coeffs`` are plain ints, reduced mod p^m on construction; each must
    be an integer (``operator.index``: a float or Fraction raises
    ``TypeError`` instead of being truncated).
    """

    coeffs: tuple
    p: int
    m: int

    def __post_init__(self) -> None:
        _check_pm(self.p, self.m)
        if not self.coeffs:
            raise ValueError("characteristic series needs at least c_0")
        modulus = self.p**self.m
        coeffs = tuple(index(c) % modulus for c in self.coeffs)
        if coeffs[0] != 1:
            raise ValueError("c_0 must be exactly 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def valuation_points(self) -> List[Tuple[int, Optional[int], int]]:
        """(index, valuation, ceiling) triples, every ceiling m; None marks
        a saturated coefficient."""
        return [
            (j, None if c == 0 else val_p(c, self.p), self.m)
            for j, c in enumerate(self.coeffs)
        ]


def char_series(matrix: PadicMatrix) -> CharSeries:
    """Characteristic series of U: coefficients of det(I - T.U), from
    the Hessenberg form of U, exact mod p^m."""
    coeffs = _hessenberg_series(_hessenberg(matrix), matrix.modulus)
    return CharSeries(tuple(coeffs), matrix.p, matrix.m)


ALL_SATURATED = "all-coefficients-saturated"


class NewtonPolygon(NamedTuple):
    """Certified lower hull of a characteristic series.

    ``vertices`` are the hull vertices that are provably exact, from
    (0, v_0) on; the slopes, their multiplicities and the certified
    degree are read off them.  Slopes are the p-adic valuations of the
    eigenvalues, in increasing order with multiplicities.
    ``certified_degree`` is the abscissa of the last vertex; beyond it
    the series coefficients are saturated (or absent) and slopes are
    unknown.  ``next_slope_floor`` is a proven lower bound for any
    further slope (None means the series is exhausted: no further
    eigenvalue in the underlying matrix).
    """

    vertices: tuple
    next_slope_floor: Optional[Fraction]
    warning: Optional[str] = None

    @property
    def slopes(self) -> tuple:
        pairs = zip(self.vertices, self.vertices[1:])
        return tuple(Fraction(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in pairs)

    @property
    def multiplicities(self) -> tuple:
        return tuple(x2 - x1 for (x1, _), (x2, _) in zip(self.vertices, self.vertices[1:]))

    @property
    def certified_degree(self) -> int:
        return self.vertices[-1][0]

    def slope_multiset(self) -> List[Fraction]:
        out: List[Fraction] = []
        for s, mult in zip(self.slopes, self.multiplicities):
            out.extend([s] * mult)
        return out

    def certifies_through(self, bound: Fraction) -> bool:
        """True when every slope < bound is provably in this polygon."""
        if self.next_slope_floor is None:
            return True
        return self.next_slope_floor >= bound

    def slopes_below(self, bound: Fraction) -> List[Fraction]:
        return [s for s in self.slope_multiset() if s < bound]


def check_slope_bound(slope_bound) -> Fraction:
    """The slope bound h as a Fraction; h < 0 raises ``ConfigError``."""
    h = Fraction(slope_bound)
    if h < 0:
        raise ConfigError("slope bound must be >= 0")
    return h


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
    points: Sequence[Tuple[int, Optional[int], int]],
) -> NewtonPolygon:
    """Newton polygon of valuation data, truncated honestly.

    ``points`` are (index, valuation, ceiling) with valuation None
    meaning "unknown, >= ceiling"; a known point's ceiling is not read.
    A hull vertex certifies only if it is a known point.
    """
    known = [(j, v) for j, v, _ in points if v is not None]
    if not known or known[0][0] != 0:
        raise ValueError("point list must start with (0, v_0)")
    heights = [(j, n if v is None else v) for j, v, n in points]
    hull = _lower_hull(sorted(heights))
    known_set = set(known)
    # certified prefix: hull vertices that are exactly-known points
    certified: List[Tuple[int, int]] = []
    for vert in hull:
        if vert in known_set:
            certified.append(vert)
        else:
            break
    jstar, vstar = certified[-1]
    later = [(j, v) for j, v in heights if j > jstar]
    floor = min((Fraction(v - vstar, j - jstar) for j, v in later), default=None)
    warning = ALL_SATURATED if len(known) == 1 and later else None
    return NewtonPolygon(tuple(certified), floor, warning)


def newton_polygon(series: CharSeries) -> NewtonPolygon:
    """Newton polygon of a characteristic series over Z/p^m."""
    return newton_polygon_from_points(series.valuation_points())

