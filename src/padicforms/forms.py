"""Classical level-1 modular forms as q-expansions.

Eisenstein series, the discriminant form, echelon (Victor Miller)
bases, the level-1 dimension formula and the Hasse invariant lift.
``MillerPowers`` owns the Miller rule: a table of E4, E6 and Delta at
one q-precision over one ring maps a weight to its factor E4^a E6^b
and gives the Miller rows (``miller_rows``) of every weight read from
it, so a caller that needs several weights builds one table.
The p-adic theory in this package is restricted to p in {5, 7, 11, 13}
so that E_{p-1} exists at level 1 and serves as the Hasse lift.  Two
checks decide the inputs of every p-adic entry point, and each raises
``ConfigError``: ``check_theory_prime`` for that rule, and
``check_level1_weight`` for the weights with level-1 forms, the even
ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import index, mul
from typing import List, Sequence

from .errors import ConfigError, PrecisionError
from .padic import Value, product_rows, unit_inverse
from .qexp import ModRing, QSeries, Ring, ZZ, _check_qprec

SUPPORTED_PRIMES = (5, 7, 11, 13)


def check_theory_prime(p: int) -> None:
    """Refuse a prime outside ``SUPPORTED_PRIMES``."""
    if p not in SUPPORTED_PRIMES:
        raise ConfigError(f"p-adic theory is configured for p in {SUPPORTED_PRIMES}, got {p}")


def check_level1_weight(k: int) -> None:
    """Refuse an odd weight: -I in SL_2(Z) acts on weight-k forms by
    (-1)^k, so an odd weight has none."""
    if k % 2 != 0:
        raise ConfigError(f"odd weight {k} has no level-1 forms")


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, via the defining recurrence."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


def sigma_series(k: int, qprec: int) -> List[int]:
    """Coefficients of sum_{n>=1} sigma_k(n) q^n, by sieving."""
    out = [0] * qprec
    for d in range(1, qprec):
        dk = d**k
        for n in range(d, qprec, d):
            out[n] += dk
    return out


def eisenstein(k: int, qprec: int, ring: Ring = ZZ) -> QSeries:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    Over Z this requires 2k/B_k to be an integer (true for instance for
    k in {4, 6, 8, 10, 14}); for other weights pass a Z/p^m ring in
    which the denominator is a unit (e.g. E_12 for p = 13).
    """
    if k < 4 or k % 2 != 0:
        raise ValueError(f"E_k needs even k >= 4, got {k}")
    _check_qprec(qprec)
    factor = Fraction(-2 * k) / bernoulli(k)
    sig = sigma_series(k - 1, qprec)
    if isinstance(ring, ModRing):
        if factor.denominator % ring.p == 0:
            raise ValueError(f"E_{k} is not {ring.p}-integral")
        c = factor.numerator * unit_inverse(factor.denominator, ring.p, ring.m)
    else:
        if factor.denominator != 1:
            raise ValueError(
                f"E_{k} is not integral over Z (factor {factor}); use a p-adic ring"
            )
        c = factor.numerator
    coeffs = [1] + [c * s for s in sig[1:]]
    return QSeries(ring, tuple(coeffs))


def eta_power_24(qprec: int) -> List[int]:
    """Coefficients of prod (1 - q^n)^24, as (prod (1 - q^n)^3)^8.

    The cube is Jacobi's sparse series sum_n (-1)^n (2n+1) q^(n(n+1)/2),
    so the three squarings make two dense products.
    """
    cube = [0] * qprec
    n = 0
    while n * (n + 1) // 2 < qprec:
        cube[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
        n += 1
    return list((QSeries.from_coeffs(cube) ** 8).coeffs)


def delta(qprec: int, ring: Ring = ZZ) -> QSeries:
    """The discriminant form, from the product formula q prod(1-q^n)^24.

    The product route avoids the large cancellations of (E4^3 - E6^2)/1728
    in small moduli.
    """
    _check_qprec(qprec)
    tail = eta_power_24(qprec - 1) if qprec > 1 else []
    return QSeries(ring, tuple([0] + tail))


def basis_dimension(k: int) -> int:
    """dim M_k(SL_2(Z)): 0 for odd or negative k, else the 12-periodic count."""
    if k < 0 or k % 2 != 0:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


class SpaceBasis(Value):
    """Echelon basis of the weight-k level-1 space: form j is q^j + O(q^dim).

    So the first dim coefficients of a series are its echelon
    coordinates, and ``contains_each`` is the one span test for these
    spaces, of any number of series at once.
    """

    __match_args__ = ("weight", "forms")

    def __init__(self, weight: int, forms: tuple) -> None:
        d = len(forms)
        for j, f in enumerate(forms):
            if f.qprec < d:
                raise ValueError(f"basis form {j} has q-precision {f.qprec} below dimension {d}")
            if f.coeffs[:d] != tuple(int(i == j) for i in range(d)):
                raise ValueError(f"basis form {j} is not q^{j} + O(q^{d})")
        vars(self).update(weight=weight, forms=forms)

    def combination(self, coords) -> QSeries:
        """sum_j coords[j] * form j, at this basis's q-precision."""
        coords = [index(c) for c in coords]
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} coordinates for a basis of dimension {self.dim}")
        q = self.qprec
        by_degree = zip(*(f.coeffs[:q] for f in self.forms))
        return QSeries._from_ints(self.ring, [sum(map(mul, coords, c)) for c in by_degree])

    def contains_each(self, series: Sequence[QSeries]) -> tuple:
        """Whether each of ``series`` lies in the span, on the q-precision
        it and the basis both carry: the combination of its echelon
        coordinates (its first dim coefficients) must equal it.  Over
        Z/p^m all the combinations come from one ``padic.product_rows``
        call, which packs from 4 series on; over Z each is a dot product
        per degree.  A series over another ring raises ``ValueError``,
        one known to fewer than dim coefficients ``PrecisionError``."""
        d, q, ring = self.dim, self.qprec, self.ring
        for g in series:
            if g.qprec < d:
                raise PrecisionError(f"q-precision {g.qprec} below dimension {d}")
            if d and g.ring != ring:
                raise ValueError(f"ring mismatch: {ring} vs {g.ring}")
        if d == 0:
            return tuple(g.is_zero() for g in series)
        coords = [g.coeffs[:d] for g in series]
        rows = [f.coeffs[:q] for f in self.forms]
        if ring.modulus is None:
            columns = list(zip(*rows))
            combinations = [tuple([sum(map(mul, c, col)) for col in columns]) for c in coords]
        else:
            combinations = product_rows(coords, rows, q, ring.modulus)
        return tuple([c[: g.qprec] == g.coeffs[:q] for c, g in zip(combinations, series)])

    @property
    def dim(self) -> int:
        return len(self.forms)

    @property
    def qprec(self) -> int:
        return min((f.qprec for f in self.forms), default=0)

    @property
    def ring(self):
        return self.forms[0].ring if self.forms else ZZ


class PowerTable:
    """The powers x^0, x^1, ... of one series, each built once, by one
    product from the power before; ``table[n]`` is x^n."""

    def __init__(self, x: QSeries, one: QSeries) -> None:
        self._powers = [one, x]

    def __getitem__(self, n: int) -> QSeries:
        powers = self._powers
        while len(powers) <= n:
            powers.append(powers[-1] * powers[1])
        return powers[n]


class MillerPowers:
    """E4, E6 and Delta at one q-precision over one ring: the one owner of
    the level-1 Miller rule.  The Miller monomials of weight k are
    E4^a E6^b Delta^c, with E4^a E6^b = ``factor(k - 12c)``; the powers
    ``e4[a]`` and ``delta[c]`` and each factor are built once, so one
    table serves the Miller rows of any number of weights.
    """

    def __init__(self, qprec: int, ring: Ring = ZZ) -> None:
        self.one = QSeries.constant(1, qprec, ring)
        self.e6 = eisenstein(6, qprec, ring)
        self.e4 = PowerTable(eisenstein(4, qprec, ring), self.one)
        self.delta = PowerTable(delta(qprec, ring), self.one)
        self._factors = {}  # (a, b) -> E4^a E6^b

    def product(self, *factors: QSeries) -> QSeries:
        """The product of ``factors``, with no product by this table's 1."""
        out = self.one
        for f in factors:
            if f is not self.one:
                out = f if out is self.one else out * f
        return out

    def factor(self, weight: int) -> QSeries:
        """E4^a E6^b with 4a + 6b = weight and b <= 1 (b = 0 when 4 | weight),
        built once per (a, b); this table's ``one`` at weight 0.  A weight
        with no such (a, b), odd, 2 or negative, raises ``ArithmeticError``."""
        b = weight % 4 // 2
        a = (weight - 6 * b) // 4
        if weight % 2 or a < 0:
            raise ArithmeticError(f"no E4^a E6^b monomial of weight {weight}")
        if (a, b) not in self._factors:
            self._factors[a, b] = self.product(self.e4[a], self.e6 if b else self.one)
        return self._factors[a, b]


def clear_tails(rows: list, start: int, *shadows: list) -> None:
    """Clear, in place, the q^(start+i) coefficient of each row j against
    the later rows i > j, last rows first, for rows j with pivot q^(start+j).

    Each list in ``shadows`` gets the same row operations, with the
    multipliers read from ``rows``.
    """
    for j in range(len(rows) - 2, -1, -1):
        for i in range(j + 1, len(rows)):
            cij = rows[j].coefficient(start + i)
            if cij != 0:
                for target in (rows,) + shadows:
                    target[j] = target[j] - target[i].scale(cij)


def miller_rows(k: int, start: int, powers: MillerPowers, *shadows: list) -> tuple:
    """Rows start, ..., dim-1 of the weight-k Miller basis.

    Row j is built from the monomials E4^a E6^b Delta^c with c >= j
    only, so the rows from ``start`` on need neither the earlier
    monomials nor the earlier rows.  Each list in ``shadows`` gets the
    same row operations (see ``clear_tails``).
    """
    d = basis_dimension(k)
    rows = [powers.product(powers.delta[c], powers.factor(k - 12 * c)) for c in range(start, d)]
    clear_tails(rows, start, *shadows)
    return tuple(rows)


def miller_basis(k: int, qprec: int, ring: Ring = ZZ) -> SpaceBasis:
    """Victor Miller's echelon basis of M_k(SL_2(Z)) from E4^a E6^b Delta^c.

    Form j has coefficient 1 at q^j and 0 at every other q^i with i < dim.
    Integral over Z; reduction mod p stays echelon since the pivots are 1.
    """
    check_level1_weight(k)
    d = basis_dimension(k)
    if d == 0:
        return SpaceBasis(k, ())
    if qprec < d:
        raise PrecisionError(f"q-precision {qprec} below dimension {d}")
    return SpaceBasis(k, miller_rows(k, 0, MillerPowers(qprec, ring)))
