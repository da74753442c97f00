"""Classical forms of level Gamma_0(p) and the one classicality comparison.

Coleman ("Classical and overconvergent modular forms", Invent. Math. 124,
1996) shows that overconvergent U_p eigenforms of weight k and slope
< k - 1 are classical.  This module holds the classical side: the
Gamma_0(p) dimension formulas, the old factor det(1 - T.B) of U_p on
the p-stabilized level-1 forms, the classical U_p slope multiset,
``comparison_bound``, the bound min(k - 1, m - 2) below which slopes
are compared, and ``compare``, the one comparison of certified
overconvergent slopes against classical ones.  ``coleman.slope_spectrum``
certifies the polygon through that bound before it compares, so a
comparison always covers its whole range.  ``compare`` decides the
boundary class at k - 1 for every caller, and the ``Comparison`` it
returns owns the verdicts: ``verdict`` for the whole range and
``classes`` for each slope class in it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

from .charseries import CharSeries, NewtonPolygon, char_series, newton_polygon
from .errors import ConfigError, VerificationError
from .forms import basis_dimension
from .hida import tp_matrix
from .padic import PadicMatrix, is_prime


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def genus_x0(p: int) -> int:
    """Genus of X_0(p) for prime p >= 5."""
    nu2 = 1 + _legendre(-1, p)
    nu3 = 1 + _legendre(-3, p)
    g = Fraction(p + 1, 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
    return int(g)


def dim_cusp_forms_gamma0_prime(k: int, p: int) -> int:
    """dim S_k(Gamma_0(p)) for prime p >= 5 and even k >= 2."""
    if not is_prime(p) or p < 5:
        raise ConfigError(f"dimension formula needs a prime p >= 5, got {p}")
    if k < 2 or k % 2 != 0:
        return 0
    g = genus_x0(p)
    if k == 2:
        return g
    nu2 = 1 + _legendre(-1, p)
    nu3 = 1 + _legendre(-3, p)
    return (k - 1) * (g - 1) + (k // 2 - 1) * 2 + nu2 * (k // 4) + nu3 * (k // 3)


def dim_new_cusp_forms_gamma0_prime(k: int, p: int) -> int:
    """dim S_k^new(Gamma_0(p)) = dim S_k(Gamma_0(p)) - 2 dim S_k(level 1),
    never negative: f(z) and f(pz) embed S_k(level 1) twice in
    S_k(Gamma_0(p))."""
    level1 = max(basis_dimension(k) - 1, 0)
    return dim_cusp_forms_gamma0_prime(k, p) - 2 * level1


def old_factor(k: int, p: int) -> CharSeries:
    """det(1 - T.B) of U_p on the p-stabilized level-1 forms of weight k.

    B = [[T_p, -p^(k-1)], [1, 0]] is the 2d x 2d block companion matrix
    of x^2 - x T_p + p^(k-1) on the full level-1 space of dimension d.
    B is integral, so its series is computed mod p^M with M = d(k-1) + 1,
    which loses nothing for the Newton polygon: c_0 = 1 and c_2d =
    det(B) = p^(d(k-1)) exactly, so the lower hull runs from (0, 0) to
    (2d, d(k-1)) and by convexity never rises above d(k-1) < M.  A
    coefficient that reads 0 mod p^M therefore lies strictly above the
    hull, and every nonzero residue has its exact valuation.  At k = 2
    the space is 0 and the series is 1.
    """
    if k < 2 or k % 2 != 0:
        raise ConfigError(f"classical forms need even k >= 2, got {k}")
    t_rows = tp_matrix(k, p)
    d = len(t_rows)
    c = p ** (k - 1)
    block = [[0] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        block[i][:d] = t_rows[i]
        block[i][d + i] = -c
        block[d + i][i] = 1
    return char_series(PadicMatrix.from_rows(block, p, d * (k - 1) + 1))


def classical_up_spectrum(k: int, p: int) -> List[Fraction]:
    """U_p slope multiset on weight-k forms of level Gamma_0(p).

    Old part: the Newton slopes of ``old_factor``, whose certification
    through degree 2d is checked, not assumed.  New cuspidal part: slope
    (k-2)/2 with the new-form multiplicity, from the Atkin-Lehner
    relation; only the valuation is used, never the sign.  At k = 2 the
    only Eisenstein series is the ordinary stabilization, of slope 0.
    """
    new_mult = dim_new_cusp_forms_gamma0_prime(k, p)  # ConfigError for p < 5 first
    series = old_factor(k, p)
    poly = newton_polygon(series)
    if poly.next_slope_floor is not None:  # None only once certified through the degree
        raise VerificationError(
            f"classical polygon at weight {k} not certified through degree {series.degree}"
        )
    slopes = poly.slope_multiset()
    if k == 2:
        slopes.append(Fraction(0))  # weight-2 Eisenstein stabilization
    slopes.extend([Fraction(k - 2, 2)] * new_mult)
    return sorted(slopes)


def comparison_bound(k: int, m: int) -> Fraction:
    """min(k - 1, m - 2), the bound below which slopes are compared.

    k - 1 is Coleman's classicality bound; m - 2 keeps the comparison
    inside what the requested modulus can certify.  Below k = 2 or m = 3
    nothing is compared, and ``ConfigError`` is raised.
    """
    if k < 2:
        raise ConfigError("classicality comparison needs k >= 2")
    if m < 3:
        raise ConfigError("m must be >= 3 to certify any slope (ceiling is m - 2)")
    return min(Fraction(k - 1), Fraction(m - 2))


class Comparison(NamedTuple):
    """Certified overconvergent U_p slopes against classical ones.

    ``spectrum`` is the whole classical slope multiset, and
    ``overconvergent`` the certified slopes strictly below ``bound``.
    Slope classes at exactly k - 1 sit on the classicality boundary and
    are counted apart, never on either side; ``boundary_overconvergent``
    is None when the polygon does not certify them.
    """

    bound: Fraction
    spectrum: tuple
    overconvergent: tuple
    boundary_overconvergent: Optional[int]
    boundary_classical: int

    @property
    def classical(self) -> tuple:
        """The classical slopes below the bound."""
        return tuple(s for s in self.spectrum if s < self.bound)

    @property
    def classes(self) -> tuple:
        """One entry per slope class below the bound: the slope, its count
        on each side and the verdict "match", "extra-overconvergent" or
        "missing-overconvergent"."""
        over, classical = self.overconvergent, self.classical
        out = []
        for s in sorted(set(over) | set(classical)):
            o, c = over.count(s), classical.count(s)
            verdict = "match" if o == c else (
                "extra-overconvergent" if o > c else "missing-overconvergent"
            )
            out.append({"slope": s, "overconvergent": o, "classical": c, "verdict": verdict})
        return tuple(out)

    @property
    def verdict(self) -> str:
        return "pass" if self.overconvergent == self.classical else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def compare(
    k: int, bound: Fraction, spectrum: Sequence[Fraction], polygon: NewtonPolygon
) -> Comparison:
    """Compare the weight-normalized polygon of U_p at weight k with
    ``spectrum``, the ``classical_up_spectrum`` of weight k at level
    Gamma_0(p), strictly below ``bound``, the ``comparison_bound`` of
    weight k at the requested modulus.  The caller builds the spectrum
    once and certifies the polygon through the bound.

    A polygon that does not certify through the bound raises
    ``VerificationError``: ``coleman.slope_spectrum`` certifies it by
    the cap argument of ``coleman._spectrum_core``, so only a broken
    argument gets here.  One that does not certify the boundary class
    at k - 1 leaves its count None.
    """
    if not polygon.certifies_through(bound):
        raise VerificationError(
            f"polygon at weight {k} not certified below the comparison bound {bound}"
        )
    spectrum = tuple(spectrum)
    edge = Fraction(k - 1)
    boundary = None
    if polygon.certifies_through(edge + Fraction(1, 2)):
        boundary = polygon.slope_multiset().count(edge)
    over = tuple(polygon.slopes_below(bound))
    return Comparison(bound, spectrum, over, boundary, spectrum.count(edge))
