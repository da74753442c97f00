"""Exact dense square matrices over Z/p^m.

Everything is plain integer arithmetic reduced modulo p^m; there is no
floating point anywhere.  Values mod p^m are plain reduced ints, and
their valuations are saturated at the precision exponent: a zero
residue has valuation m, meaning "at least m", not "equals m".

A ``PadicMatrix`` validates its inputs once, at the public constructors
(``PadicMatrix(...)``, ``from_rows``): p must be a prime >= 3, m >= 1,
the rows square, and every entry an integer (``operator.index``; a float
or Fraction raises ``TypeError`` instead of being truncated), which is
then reduced mod p^m.  ``identity`` checks p, m and the size n, an
integer >= 0: its entries are 0 and 1.  Its rows do not depend on
(p, m), so every identity of one size shares one rows tuple, looked up
only once n, p and m pass those checks and keyed on n as an int: a
float or Fraction argument still raises ``TypeError`` after the int
identity is built.  Results the class computes itself (products,
differences, scalings, powers, transposes, reductions) are
built already reduced over the checked (p, m) and skip that
validation; their rows are built by list comprehensions, which run no
generator frame per entry.  A matrix carries no label of the basis it
is written in; the CLI names the basis where it prints one.

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
bits never carry.  A result with fewer than 4 rows or columns takes
the plain dot product of each row with each column instead: packing
the n rows of B costs more than it saves over so few entries.

The slot format is shared with the packed series product of ``qexp``,
and only the slot codec here knows it.  ``slot_size`` is the width
rule: the bits a slot must hold, rounded up to 1, 2, 4 or 8 bytes, to
whole bytes beyond 8.  ``pack_slots`` turns each of many rows into one
integer, value i at bit 8 * size * i, and ``unpack_slots`` reads every
slot of many such integers back in one call, one integer after
another.  Slots of 1, 2, 4 or 8 bytes pack one row per
``struct.pack`` and read back with one ``struct.unpack`` for all the
integers.  Wider slots pack through one ``int.to_bytes`` per value and
read back by shift and mask from integers of up to 1024 bytes, by byte
slices beyond: each shift copies the rest of the integer, so shift and
mask costs grow with the square of its length, while a slice costs
about the same for every slot.  The packed rows of a matrix product
at n <= 24 stay within 1024 bytes while p^m < 2^165.

Speed-up of the packed kernel over plain dot products, for n x n
products with random residues; best of 25, interleaved, CPython 3.11 on
a 2-CPU Intel Xeon host.  Each column is one modulus, with the bytes
per slot it takes at each n.

     n   3^1      5^2      5^5      7^10     13^10
     2   0.59 1   0.59 2   0.67 4   0.59 8   0.62 10
     3   0.74 1   0.55 2   0.72 4   0.63 8   0.88 10
     4   1.02 1   1.05 2   1.03 4   1.06 8   1.09 10
     6   1.45 1   1.43 2   1.47 4   1.62 8   1.58 10
     8   2.17 1   1.98 2   2.08 4   2.13 8   2.07 10
    12   2.90 1   2.84 2   2.97 4   2.98 8   2.72 10
    16   3.55 2   3.86 2   3.90 4   2.96 8   3.31 11
    24   5.18 2   5.34 2   5.22 4   5.12 8   4.42 11

The projector's products over Z/7^10 (8-byte slots) at rank r:
speed-up of the packed kernel over plain dot products for its core
A_P C (r x n by n x r) / for e = C Y (n x r by r x n); same host.

     n   r = 1      r = 2      r = 3      r = 4      r = 6      r = 8
     4   0.32/0.94  0.53/1.08  0.81/1.13
     8   0.25/2.53  0.51/1.92  0.80/1.91  1.05/1.95  1.61/2.18
    16   0.25/2.88  0.44/2.82  0.69/3.10  1.02/3.18  1.59/3.39  2.16/3.48

Read-back of one integer of wide slots: time by shift and mask over
time by byte slices, by the integer's length in bytes (rows) and the
slot size in bytes (columns); best of 15, interleaved, same host.

    bytes     9     16     24     36     47     64     80
      512   0.66   0.67   0.64   0.63   0.58   0.57   0.56
     1024   1.04   0.97   0.92   0.87   0.76   0.71   0.69
     1280   1.36   1.58   1.14   0.99   0.91   0.85   0.80
     1536   1.39   1.36   1.35   1.26   1.11   1.05   0.87
     2048   1.79   1.66   1.58   1.44   1.34   1.24   1.09
     4096   3.31   3.69   2.69   2.66   2.30   2.02   1.88

All values are immutable after construction, so they can be shared
freely between threads.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index, matmul, mul, sub
from struct import iter_unpack, pack, unpack
from typing import Callable, Iterable, Optional, Sequence

from .errors import ConfigError


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
    """Refuse a p or m that is not an integer (``operator.index``: a float
    raises ``TypeError``), then, by ``ConfigError``, m < 1 and p not a
    prime >= 3: the one owner of both rules for every ring Z/p^m."""
    if index(m) < 1:
        raise ConfigError(f"precision exponent must be >= 1, got {m}")
    if index(p) < 3 or not is_prime(p):
        raise ConfigError(f"p must be a prime >= 3, got {p}")


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
    if index(n) < 0:
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


def unit_inverse(x: int, p: int, e: int) -> int:
    """The inverse of x mod p^e, in [0, p^e), x a unit mod p: the inverse
    mod p, lifted by Newton's step y <- y(2 - xy) modulo p^2, p^4, ...
    and last p^e, each step doubling the digits that are right.  Its
    products are of the size of the modulus reached, where
    ``pow(x, -1, p^e)`` runs Euclid's algorithm on the full modulus:
    about 4 us against 18-29 us at 5^103 on a 2-CPU Xeon host, and
    under half a microsecond slower than ``pow`` below about 2^40.  An
    x that is 0 mod p raises ``ValueError``, as ``pow`` does."""
    y = pow(x, -1, p)
    modulus, top = p, p**e
    while modulus < top:
        modulus = min(modulus * modulus, top)
        y = y * (2 - x * y) % modulus
    return y


# A slot of 1, 2, 4 or 8 bytes is one item of a little-endian struct format
# (standard sizes), so a run of such slots packs and unpacks in one call.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# ``unpack_slots`` reads wider slots by shift and mask from integers of up to
# this many bytes and by byte slices from longer ones: each shift copies the
# rest of the integer (see the module docstring for the measurements).
_SHIFT_READ_MAX_BYTES = 1024

# ``product_rows`` packs when the product has at least this many rows and
# columns (see the module docstring for the measurements behind it).
_PACKED_MIN_SIDE = 4


def slot_size(bits: int) -> int:
    """Bytes per slot for values below 2^bits: 1, 2, 4 or 8 up to 64 bits,
    whole bytes beyond."""
    size = (bits + 7) // 8
    return size if size > 8 else 1 << (size - 1).bit_length()


def pack_slots(rows: Iterable[Iterable[int]], count: int, size: int) -> list:
    """One integer per row of ``count`` >= 1 values in [0, 2^(8*size)):
    the sum of value i times 2^(8*size*i)."""
    code = _STRUCT_CODES.get(size)
    if code:
        fmt = f"<{count}{code}"
        return [int.from_bytes(pack(fmt, *row), "little") for row in rows]
    # wide slots: every row's bytes end to end, cut into one run per row
    data = b"".join([c.to_bytes(size, "little") for row in rows for c in row])
    return [int.from_bytes(c, "little") for c, in iter_unpack(f"{count * size}s", data)]


def unpack_slots(values: Sequence[int], count: int, size: int) -> Sequence[int]:
    """The ``count`` slots of ``size`` bytes of each of ``values``, each in
    [0, 2^(8*size*count)): lowest slot first, one value after another."""
    length, code = count * size, _STRUCT_CODES.get(size)
    if not code and length <= _SHIFT_READ_MAX_BYTES:
        mask = (1 << 8 * size) - 1
        shifts = range(0, 8 * length, 8 * size)
        return [v >> t & mask for v in values for t in shifts]
    data = b"".join([v.to_bytes(length, "little") for v in values])
    if code:
        return unpack(f"<{len(values) * count}{code}", data)
    return [int.from_bytes(c, "little") for c, in iter_unpack(f"{size}s", data)]


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
    size = slot_size(2 * modulus.bit_length() + n.bit_length())
    packed = pack_slots(b, s, size)
    # the product rows read back end to end, cut into rows of s entries by zip
    sums = unpack_slots([sum(map(mul, row, packed)) for row in a], s, size)
    return tuple(zip(*[iter([x % modulus for x in sums])] * s))


class Value:
    """Base of the package's value types: immutable, and equal when of
    one class with equal fields.

    A subclass names its fields in ``__match_args__``, in the order its
    ``__init__`` takes them, and its ``__init__`` stores them, with any
    attribute derived from them such as a ``modulus``, in ``vars(self)``.
    Only the named fields are compared, hashed and shown by ``repr``.
    Assigning or deleting an attribute raises ``AttributeError``.  These
    are plain methods because ``@dataclass`` compiles generated ones for
    each class at import.
    """

    __match_args__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = self.__dict__, other.__dict__
        # equal values hold equal dicts, derived attributes included, so
        # one dict comparison answers the usual case; the fields decide
        # the rest
        if mine == theirs:
            return True
        for name in self.__match_args__:
            if mine[name] != theirs[name]:
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple(map(vars(self).__getitem__, self.__match_args__)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={vars(self)[name]!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")


class PadicMatrix(Value):
    """A square matrix over Z/p^m, its rows tuples of residues in [0, p^m)."""

    __match_args__ = ("rows", "p", "m")

    def __init__(self, rows: tuple, p: int, m: int) -> None:
        vars(self).update(rows=rows, p=p, m=m)
        # the checks stay in __post_init__, where perfbench/spans.py counts public builds
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_pm(self.p, self.m)
        n = len(self.rows)
        modulus = self.p**self.m
        reduced = tuple([tuple([x % modulus for x in map(index, row)]) for row in self.rows])
        for row in reduced:
            if len(row) != n:
                raise ValueError("matrix must be square")
        vars(self).update(rows=reduced, modulus=modulus)

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
        """The n x n identity, its rows shared by every identity of size n
        and looked up only once n, p and m are checked."""
        _check_pm(p, m)
        _check_size(n)
        return cls._reduced(_identity_rows(index(n)), p, m, p**m)

    @property
    def size(self) -> int:
        return len(self.rows)

    def _check_compatible(self, other: "PadicMatrix") -> None:
        # p^m determines (p, m), p prime, so equal moduli mean one ring
        if other.modulus != self.modulus:
            raise ValueError("matrices live over different rings")
        if len(other.rows) != len(self.rows):
            raise ValueError("matrix size mismatch")

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_compatible(other)
        modulus = self.modulus
        pairs = zip(self.rows, other.rows)
        rows = tuple([tuple([x % modulus for x in map(sub, a, b)]) for a, b in pairs])
        return PadicMatrix._reduced(rows, self.p, self.m, modulus)

    def scale(self, c: int) -> "PadicMatrix":
        modulus = self.modulus
        c = index(c) % modulus
        rows = tuple([tuple([c * a % modulus for a in row]) for row in self.rows])
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
        return tuple([sum(map(mul, row, vector)) % modulus for row in self.rows])

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
        rows = tuple([tuple([a % modulus for a in row]) for row in self.rows])
        return PadicMatrix._reduced(rows, self.p, m_new, modulus)


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple:
    """The rows of the n x n identity, for an int n >= 0 already checked:
    the same over every Z/p^m, so one tuple is built per n."""
    return tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])
