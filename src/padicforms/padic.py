"""Exact dense square matrices over Z/p^m.

Everything is plain integer arithmetic reduced modulo p^m; there is no
floating point anywhere.  Values mod p^m are plain reduced ints, and
their valuations are saturated at the precision exponent: a zero
residue has valuation m, meaning "at least m", not "equals m".

A ``PadicMatrix`` validates its inputs once, at the public constructors
(``PadicMatrix(...)``, ``from_rows``): p must be a prime >= 3, m >= 1,
the rows square, and every entry an integer (``operator.index``; a float
or Fraction raises ``TypeError`` instead of being truncated), which is
then reduced mod p^m.  ``identity`` and ``zero`` check p and m alone:
their entries are 0 and 1.  Results the class computes itself
(products, sums, powers, transposes, reductions) are built already
reduced over the checked (p, m) and skip that validation.  A matrix
carries no label of the basis it is written in; the CLI names the basis
where it prints one.

The matrix product packs each row of its right factor into one integer,
one slot per entry, wide enough that no slot carries into the next (in
the spirit of Kronecker substitution): row i of A @ B is then one dot
product of row i of A with the packed rows of B, so a product makes n^2
integer products instead of n^3, and each entry is read back from its
slot.

All values are immutable after construction, so they can be shared
freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, lshift, matmul, mul
from typing import Callable, Iterable, Optional, Sequence


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_pm(p: int, m: int) -> None:
    if m < 1:
        raise ValueError(f"precision exponent must be >= 1, got {m}")
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 3, got {p}")


def power_from_base(x, n: int, product: Callable):
    """x**n for n >= 1 by square-and-multiply, starting from x rather than
    from the unit, so it makes bit_length(n) + popcount(n) - 2 products
    and none after the top bit."""
    if n < 1:
        raise ValueError(f"power_from_base needs n >= 1, got {n}")
    while not n & 1:
        x = product(x, x)
        n >>= 1
    result = x
    n >>= 1
    while n:
        x = product(x, x)
        if n & 1:
            result = product(result, x)
        n >>= 1
    return result


def val_p(x: int, p: int, saturate: Optional[int] = None) -> int:
    """p-adic valuation of an integer; ``saturate`` caps the result.

    For x = 0 the saturation cap is returned (it must be given).
    """
    if x == 0:
        if saturate is None:
            raise ValueError("valuation of 0 is infinite; pass a saturation cap")
        return saturate
    v = 0
    while x % p == 0:
        x //= p
        v += 1
        if saturate is not None and v >= saturate:
            return saturate
    return v


@dataclass(frozen=True)
class PadicMatrix:
    """A square matrix over Z/p^m, its rows tuples of residues in [0, p^m)."""

    rows: tuple
    p: int
    m: int

    def __post_init__(self) -> None:
        _check_pm(self.p, self.m)
        n = len(self.rows)
        modulus = self.p**self.m
        reduced = tuple(tuple(index(x) % modulus for x in row) for row in self.rows)
        for row in reduced:
            if len(row) != n:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", reduced)

    @classmethod
    def _reduced(cls, rows: tuple, p: int, m: int) -> "PadicMatrix":
        """A matrix from square tuple-of-tuple rows of ints already in
        [0, p^m), over a (p, m) already checked: no validation."""
        self = object.__new__(cls)
        vars(self).update(rows=rows, p=p, m=m)
        return self

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], p: int, m: int) -> "PadicMatrix":
        return cls(tuple(tuple(r) for r in rows), p, m)

    @classmethod
    def identity(cls, n: int, p: int, m: int) -> "PadicMatrix":
        _check_pm(p, m)
        rows = tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])
        return cls._reduced(rows, p, m)

    @classmethod
    def zero(cls, n: int, p: int, m: int) -> "PadicMatrix":
        _check_pm(p, m)
        return cls._reduced(tuple([(0,) * n for _ in range(n)]), p, m)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def modulus(self) -> int:
        return self.p**self.m

    def _check_compatible(self, other: "PadicMatrix") -> None:
        if (other.p, other.m) != (self.p, self.m):
            raise ValueError("matrices live over different rings")
        if other.size != self.size:
            raise ValueError("matrix size mismatch")

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_compatible(other)
        modulus = self.modulus
        rows = tuple(
            tuple((a + b) % modulus for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return PadicMatrix._reduced(rows, self.p, self.m)

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_compatible(other)
        modulus = self.modulus
        rows = tuple(
            tuple((a - b) % modulus for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return PadicMatrix._reduced(rows, self.p, self.m)

    def __neg__(self) -> "PadicMatrix":
        modulus = self.modulus
        rows = tuple(tuple(-a % modulus for a in row) for row in self.rows)
        return PadicMatrix._reduced(rows, self.p, self.m)

    def scale(self, c: int) -> "PadicMatrix":
        modulus = self.modulus
        c = index(c) % modulus
        rows = tuple(tuple(c * a % modulus for a in row) for row in self.rows)
        return PadicMatrix._reduced(rows, self.p, self.m)

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_compatible(other)
        modulus = self.modulus
        n = self.size
        # Each row of ``other`` is packed into one integer, entry j in the
        # slot at bit j*width, so row i of the product is one dot product of
        # row i with the packed rows.  A slot then holds a sum of n products
        # of residues below 2^b, b = bits(p^m): at most n * 2^(2b), which is
        # below 2^(2b + bits(n)) = 2^width, so no slot carries into the next.
        width = 2 * modulus.bit_length() + n.bit_length()
        mask = (1 << width) - 1
        shifts = range(0, n * width, width)
        packed = [sum(map(lshift, row, shifts)) for row in other.rows]
        # list comprehensions, not generators: no frame switch per entry
        rows = tuple(
            [
                tuple([(acc >> t & mask) % modulus for t in shifts])
                for acc in [sum(map(mul, row, packed)) for row in self.rows]
            ]
        )
        return PadicMatrix._reduced(rows, self.p, self.m)

    def __pow__(self, n: int) -> "PadicMatrix":
        """The n-th power, by ``power_from_base`` for n >= 1."""
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        if n == 0:
            return PadicMatrix.identity(self.size, self.p, self.m)
        return power_from_base(self, n, matmul)

    def apply(self, vector: Sequence[int]) -> tuple:
        """Matrix times column vector, as a tuple of reduced residues."""
        if len(vector) != self.size:
            raise ValueError("vector length mismatch")
        modulus = self.modulus
        vector = tuple(map(index, vector))
        return tuple(sum(map(mul, row, vector)) % modulus for row in self.rows)

    def transpose(self) -> "PadicMatrix":
        return PadicMatrix._reduced(tuple(zip(*self.rows)), self.p, self.m)

    def trace(self) -> int:
        """Sum of the diagonal, reduced mod p^m."""
        return sum(self.rows[i][i] for i in range(self.size)) % self.modulus

    def reduce(self, m_new: int) -> "PadicMatrix":
        if m_new > self.m:
            raise ValueError("cannot increase precision by reduction")
        _check_pm(self.p, m_new)
        modulus = self.p**m_new
        rows = tuple(tuple(a % modulus for a in row) for row in self.rows)
        return PadicMatrix._reduced(rows, self.p, m_new)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def min_valuation(self) -> int:
        """Smallest entry valuation (m for the zero matrix)."""
        v = self.m
        for row in self.rows:
            for a in row:
                v = min(v, val_p(a, self.p, saturate=self.m))
        return v
