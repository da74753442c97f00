"""Exact dense square matrices over Z/p^m.

Everything is plain integer arithmetic reduced modulo p^m; there is no
floating point anywhere.  Values mod p^m are plain reduced ints, and
their valuations are saturated at the precision exponent: a zero
residue has valuation m, meaning "at least m", not "equals m".

All values are immutable after construction, so they can be shared
freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


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
    """A square matrix over Z/p^m with an optional basis tag.

    The tag records the basis the matrix is written in; it is carried
    through arithmetic when unambiguous and dropped otherwise, and it
    never participates in numerical decisions.
    """

    rows: tuple
    p: int
    m: int
    basis_tag: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _check_pm(self.p, self.m)
        n = len(self.rows)
        modulus = self.p**self.m
        reduced = tuple(tuple(int(x) % modulus for x in row) for row in self.rows)
        for row in reduced:
            if len(row) != n:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", reduced)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[int]],
        p: int,
        m: int,
        basis_tag: Optional[str] = None,
    ) -> "PadicMatrix":
        return cls(tuple(tuple(r) for r in rows), p, m, basis_tag)

    @classmethod
    def identity(cls, n: int, p: int, m: int) -> "PadicMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), p, m)

    @classmethod
    def zero(cls, n: int, p: int, m: int) -> "PadicMatrix":
        return cls(tuple(tuple(0 for _ in range(n)) for _ in range(n)), p, m)

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

    def _merged_tag(self, other: "PadicMatrix") -> Optional[str]:
        return self.basis_tag if self.basis_tag == other.basis_tag else None

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_compatible(other)
        return PadicMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.p,
            self.m,
            self._merged_tag(other),
        )

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_compatible(other)
        return PadicMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.p,
            self.m,
            self._merged_tag(other),
        )

    def __neg__(self) -> "PadicMatrix":
        return PadicMatrix(
            tuple(tuple(-a for a in row) for row in self.rows),
            self.p,
            self.m,
            self.basis_tag,
        )

    def scale(self, c: int) -> "PadicMatrix":
        return PadicMatrix(
            tuple(tuple(c * a for a in row) for row in self.rows),
            self.p,
            self.m,
            self.basis_tag,
        )

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_compatible(other)
        n = self.size
        modulus = self.modulus
        cols = tuple(tuple(other.rows[k][j] for k in range(n)) for j in range(n))
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % modulus for col in cols)
            for row in self.rows
        )
        return PadicMatrix(out, self.p, self.m, self._merged_tag(other))

    def __pow__(self, n: int) -> "PadicMatrix":
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        result = PadicMatrix.identity(self.size, self.p, self.m)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        if self.basis_tag is not None:
            result = PadicMatrix(result.rows, self.p, self.m, self.basis_tag)
        return result

    def apply(self, vector: Sequence[int]) -> tuple:
        """Matrix times column vector, as a tuple of reduced residues."""
        if len(vector) != self.size:
            raise ValueError("vector length mismatch")
        modulus = self.modulus
        return tuple(
            sum(a * int(b) for a, b in zip(row, vector)) % modulus for row in self.rows
        )

    def transpose(self) -> "PadicMatrix":
        n = self.size
        return PadicMatrix(
            tuple(tuple(self.rows[j][i] for j in range(n)) for i in range(n)),
            self.p,
            self.m,
            self.basis_tag,
        )

    def trace(self) -> int:
        """Sum of the diagonal, reduced mod p^m."""
        return sum(self.rows[i][i] for i in range(self.size)) % self.modulus

    def reduce(self, m_new: int) -> "PadicMatrix":
        if m_new > self.m:
            raise ValueError("cannot increase precision by reduction")
        return PadicMatrix(self.rows, self.p, m_new, self.basis_tag)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def min_valuation(self) -> int:
        """Smallest entry valuation (m for the zero matrix)."""
        v = self.m
        for row in self.rows:
            for a in row:
                v = min(v, val_p(a, self.p, saturate=self.m))
        return v
