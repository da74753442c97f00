"""Exact dense square matrices over Z/p^m.

Everything is plain integer arithmetic reduced modulo p^m; there is no
floating point anywhere.  Values mod p^m are plain reduced ints, and
their valuations are saturated at the precision exponent: a zero
residue has valuation m, meaning "at least m", not "equals m".

A ``PadicMatrix`` validates its inputs once, at the public constructors
(``PadicMatrix(...)``, ``from_rows``): p must be a prime >= 3, m >= 1,
the rows square, and every entry an integer (``operator.index``; a float
or Fraction raises ``TypeError`` instead of being truncated), which is
then reduced mod p^m.  ``identity`` and ``zero`` check p, m and n >= 0:
their entries are 0 and 1.  Results the class computes itself
(products, sums, powers, transposes, reductions) are built already
reduced over the checked (p, m) and skip that validation.  A matrix
carries no label of the basis it is written in; the CLI names the basis
where it prints one.

Every matrix product over Z/p^m, ``A @ B`` and the rectangular ones of
``linalg.ordinary_projector``, goes through one kernel,
``product_rows``, for r x n by n x s.  It picks its method from the
shape of the result alone: when r >= 4 and s >= 4 (for A @ B, n >= 4),
each row of the right factor is packed into one integer, one slot per
entry, wide enough that no slot carries into the next (Kronecker
substitution; Harvey, J. Symbolic Comput. 44, 2009), and row i of the
product is one dot product of row i of A with the packed rows: n
integer products per row instead of n per entry.  A slot holds a sum
of n products of residues below 2^b, b = bits(p^m), so 2b + bits(n)
bits never carry.  Slots of up to 8 bytes are widened to 1, 2, 4 or 8
bytes, so that a row packs with one ``struct.pack`` and the whole
product reads back with one ``struct.unpack`` and one ``% p^m`` per
entry; wider slots keep 2b + bits(n) bits and read each entry back by
shift and mask.  A result with fewer than 4 rows or columns takes the plain
dot product of each row with each column instead: packing the n rows
of B costs more than it saves over so few entries.

Speed-up of the packed kernel over plain dot products / of the kernel
chosen over the packed product with shift-and-mask read-back that it
replaced, for n x n products with random residues; best of 25,
interleaved, CPython 3.11 on a 2-CPU Intel Xeon host.  Each column is
one modulus, with the bytes per slot it takes at each n (w: wider than
8 bytes).

     n   3^1          5^2          5^5          7^10         13^10
     2   0.60/1.14 1  0.77/1.08 2  0.71/1.52 4  0.77/1.34 8  0.82/1.22 w
     3   0.85/1.03 1  0.83/1.10 2  0.83/1.14 4  0.87/1.10 8  1.05/0.98 w
     4   1.05/0.95 1  0.99/0.99 2  1.02/1.03 4  1.11/1.04 8  1.27/1.02 w
     6   1.44/1.04 1  1.39/1.10 2  1.46/1.09 4  1.53/1.20 8  1.70/1.01 w
     8   1.88/1.10 1  1.75/1.15 2  1.96/1.21 4  1.77/1.17 8  1.76/1.00 w
    12   2.61/1.26 1  2.35/1.17 2  2.50/1.28 4  2.85/1.31 8  2.55/1.15 w
    16   3.95/1.58 2  3.22/1.15 2  3.24/1.34 4  3.78/1.34 8  3.07/1.02 w
    24   6.37/1.24 2  5.22/1.44 2  4.90/1.57 4  3.35/1.14 8  4.25/1.08 w

The projector's products over Z/7^10 (8-byte slots) at rank r:
speed-up of the packed kernel over plain dot products, which the
projector used for both before, for its core A_P C (r x n by n x r) /
for e = C Y (n x r by r x n).

     n   r = 1      r = 2      r = 3      r = 4      r = 6      r = 8
     4   0.46/1.08  0.67/1.11  0.88/1.08
     8   0.41/1.61  0.58/1.60  0.81/2.09  1.02/1.91  1.45/1.88
    16   0.33/2.29  0.51/2.42  0.75/2.62  0.99/2.94  1.49/2.93  2.01/3.05

All values are immutable after construction, so they can be shared
freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index, lshift, matmul, mul
from struct import pack, unpack
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


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"matrix size must be >= 0, got {n}")


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


# A slot of 1, 2, 4 or 8 bytes is one item of a little-endian struct format
# (standard sizes), so a run of such slots packs and unpacks in one call.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# ``product_rows`` packs when the product has at least this many rows and
# columns (see the module docstring for the measurements behind it).
_PACKED_MIN_SIDE = 4


def product_rows(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], s: int, modulus: int
) -> tuple:
    """The rows of A B over Z/modulus, for A given by r rows of n entries
    and B by n rows of s entries, every entry in [0, modulus): r tuples
    of s residues.  n = 0 gives r rows of s zeros."""
    n = len(b)
    # list comprehensions, not generators: no frame switch per entry
    if min(len(a), s) < _PACKED_MIN_SIDE:
        columns = list(zip(*b)) or [()] * s
        return tuple([tuple([sum(map(mul, row, col)) % modulus for col in columns]) for row in a])
    # A slot holds a sum of n products of residues below 2^k, k = bits(modulus):
    # at most n * 2^(2k) < 2^(2k + bits(n)), so no slot carries into the next.
    bits = 2 * modulus.bit_length() + n.bit_length()
    if bits <= 64:
        size = 1 << ((bits - 1) // 8).bit_length()  # bytes per slot: 1, 2, 4 or 8
        code, length = _STRUCT_CODES[size], s * size
        fmt = f"<{s}{code}"
        packed = [int.from_bytes(pack(fmt, *row), "little") for row in b]
        # the product rows' bytes end to end, read back by one unpack and
        # cut into rows of s >= 4 entries by zip
        data = b"".join([sum(map(mul, row, packed)).to_bytes(length, "little") for row in a])
        flat = [x % modulus for x in unpack(f"<{len(a) * s}{code}", data)]
        return tuple(zip(*[iter(flat)] * s))
    mask = (1 << bits) - 1
    shifts = range(0, s * bits, bits)
    packed = [sum(map(lshift, row, shifts)) for row in b]
    return tuple(
        [
            tuple([(acc >> t & mask) % modulus for t in shifts])
            for acc in [sum(map(mul, row, packed)) for row in a]
        ]
    )


@dataclass(frozen=True)
class PadicMatrix:
    """A square matrix over Z/p^m, its rows tuples of residues in [0, p^m)."""

    rows: tuple
    p: int
    m: int
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_pm(self.p, self.m)
        n = len(self.rows)
        modulus = self.p**self.m
        reduced = tuple(tuple(index(x) % modulus for x in row) for row in self.rows)
        for row in reduced:
            if len(row) != n:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", reduced)
        object.__setattr__(self, "modulus", modulus)

    @classmethod
    def _reduced(cls, rows: tuple, p: int, m: int, modulus: int) -> "PadicMatrix":
        """A matrix from square tuple-of-tuple rows of ints already in
        [0, p^m), over a (p, m) already checked and its modulus p^m: no
        validation."""
        self = object.__new__(cls)
        vars(self).update(rows=rows, p=p, m=m, modulus=modulus)
        return self

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], p: int, m: int) -> "PadicMatrix":
        return cls(tuple(tuple(r) for r in rows), p, m)

    @classmethod
    def identity(cls, n: int, p: int, m: int) -> "PadicMatrix":
        _check_pm(p, m)
        _check_size(n)
        rows = tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])
        return cls._reduced(rows, p, m, p**m)

    @classmethod
    def zero(cls, n: int, p: int, m: int) -> "PadicMatrix":
        _check_pm(p, m)
        _check_size(n)
        return cls._reduced(tuple([(0,) * n for _ in range(n)]), p, m, p**m)

    @property
    def size(self) -> int:
        return len(self.rows)

    def _check_compatible(self, other: "PadicMatrix") -> None:
        # p^m determines (p, m), p prime, so equal moduli mean one ring
        if other.modulus != self.modulus:
            raise ValueError("matrices live over different rings")
        if len(other.rows) != len(self.rows):
            raise ValueError("matrix size mismatch")

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_compatible(other)
        modulus = self.modulus
        rows = tuple(
            tuple((a + b) % modulus for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return PadicMatrix._reduced(rows, self.p, self.m, modulus)

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_compatible(other)
        modulus = self.modulus
        rows = tuple(
            tuple((a - b) % modulus for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return PadicMatrix._reduced(rows, self.p, self.m, modulus)

    def __neg__(self) -> "PadicMatrix":
        modulus = self.modulus
        rows = tuple(tuple(-a % modulus for a in row) for row in self.rows)
        return PadicMatrix._reduced(rows, self.p, self.m, modulus)

    def scale(self, c: int) -> "PadicMatrix":
        modulus = self.modulus
        c = index(c) % modulus
        rows = tuple(tuple(c * a % modulus for a in row) for row in self.rows)
        return PadicMatrix._reduced(rows, self.p, self.m, modulus)

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        """The product, by ``product_rows``."""
        self._check_compatible(other)
        modulus = self.modulus
        rows = product_rows(self.rows, other.rows, len(other.rows), modulus)
        return PadicMatrix._reduced(rows, self.p, self.m, modulus)

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
        return PadicMatrix._reduced(tuple(zip(*self.rows)), self.p, self.m, self.modulus)

    def trace(self) -> int:
        """Sum of the diagonal, reduced mod p^m."""
        return sum(self.rows[i][i] for i in range(self.size)) % self.modulus

    def reduce(self, m_new: int) -> "PadicMatrix":
        if m_new > self.m:
            raise ValueError("cannot increase precision by reduction")
        _check_pm(self.p, m_new)
        modulus = self.p**m_new
        rows = tuple(tuple(a % modulus for a in row) for row in self.rows)
        return PadicMatrix._reduced(rows, self.p, m_new, modulus)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def min_valuation(self) -> int:
        """Smallest entry valuation (m for the zero matrix)."""
        v = self.m
        for row in self.rows:
            for a in row:
                v = min(v, val_p(a, self.p, saturate=self.m))
        return v
