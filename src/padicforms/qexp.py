"""Truncated q-expansions with an exact coefficient ring tag.

A ``QSeries`` holds coefficients a_0, ..., a_{Q-1} of a formal series
sum a_n q^n, either over Z or over Z/p^m.  Arithmetic requires equal
ring tags; the q-precision of a result is the minimum of the inputs.

A ``QSeries`` validates its coefficients once, when a public entry
point builds it (``QSeries(...)``, ``from_coeffs``, ``constant``,
``map_coeffs``): each must be an integer (``operator.index``; a float
or Fraction raises ``TypeError`` instead of being truncated), reduced
mod p^m over Z/p^m.
Results the class computes itself (products, sums, scales, shifts,
truncations, ring changes, inverses) are built already reduced, with
one ``% modulus`` per coefficient, and skip that validation.

``f * g`` computes the first Q = min(f.qprec, g.qprec) coefficients of
the product by one of two exact kernels, chosen from Q and the
coefficient size alone: bits = bits(p^m - 1) over Z/p^m, and
bits(max |a_i|) over the first Q coefficients of both factors over Z.
When Q >= 16 and bits <= 3*Q, each factor is packed into one integer,
one byte-aligned slot of at least 2*bits + bits(Q) + 2 bits per
coefficient, the two integers are multiplied once (squared when f is g)
and the low Q slots are read back (Kronecker substitution, as in
``padic.product_rows``).  The slots are sized, packed and read back by
the slot codec of ``padic``: up to 8 bytes they are widened to 1, 2, 4
or 8 bytes, so that a whole series packs and unpacks in one call; wider
slots pack one coefficient at a time and are read back by shift and
mask when the packed series takes up to 1024 bytes, by byte slices when
it is longer.  Otherwise the schoolbook double loop runs, one integer
product per pair of indices below Q; it wins on short series, where
packing costs more than it saves, and on wide coefficients, where the
packed product computes all 2Q - 1 coefficients of the full product in
slots twice the coefficient size.  Both kernels give the same integers.

Packed-kernel speed-up (schoolbook time / packed time) for distinct
factors with random coefficients, over Z/p^m / over Z; best of seven,
CPython 3.11 on a 2-CPU Intel Xeon host.  On the line bits = 3*Q it is
1.34/1.08 at Q = 16, 1.15/1.15 at Q = 64 and 1.09/1.10 at Q = 128.
Squaring (f * f) gains a further 1.3-1.7x; it has no threshold of its
own.

    Q  bits: 3            16           48           96           192          384
        8    1.35/0.63    1.43/0.78    0.81/0.59    0.72/0.55    0.51/0.40    0.40/0.31
       12    2.13/1.24    2.28/1.23    1.05/0.85    0.91/0.73    0.61/0.48    0.45/0.35
       16    3.10/1.85    3.10/1.71    1.34/1.08    1.04/0.87    0.68/0.57    0.49/0.40
       24    5.31/3.09    4.41/2.55    1.80/1.53    1.31/1.17    0.79/0.73    0.57/0.47
       32    7.64/4.44    5.29/3.23    2.21/1.93    1.53/1.41    0.88/0.84    0.64/0.56
       48   12.79/8.20    7.46/4.98    2.81/2.67    1.91/1.81    1.07/1.02    0.75/0.70
       64   16.55/9.98    8.76/6.23    3.23/3.09    2.08/2.04    1.15/1.15    0.82/0.78
       96   27.80/15.74  11.68/8.71    4.17/4.06    2.60/2.58    1.34/1.40    0.98/0.94
      128   33.91/21.42  12.48/10.25   4.94/4.81    2.94/3.05    1.56/1.62    1.09/1.10
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, index, mul, sub
from typing import Callable, Sequence, Union

from .errors import PrecisionError
from .padic import _check_pm, pack_slots, power_from_base, slot_size, unpack_slots


@dataclass(frozen=True)
class IntegerRing:
    """The exact integers; the tag for classical integral q-expansions."""

    modulus = None  # nothing to reduce by

    def reduce(self, x: int) -> int:
        return index(x)

    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class ModRing:
    """The ring Z/p^m."""

    p: int
    m: int
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_pm(self.p, self.m)
        object.__setattr__(self, "modulus", self.p**self.m)

    def reduce(self, x: int) -> int:
        return index(x) % self.modulus

    def __str__(self) -> str:
        return f"Z/{self.p}^{self.m}"


ZZ = IntegerRing()

Ring = Union[IntegerRing, ModRing]

# The packed kernel runs when Q >= _PACKED_MIN_Q and bits <= _PACKED_BITS_PER_Q * Q
# (see the module docstring for the measurements behind both numbers).
_PACKED_MIN_Q = 16
_PACKED_BITS_PER_Q = 3


def _schoolbook_product(a: tuple, b: tuple) -> list:
    """The first len(a) coefficients of a*b, for len(b) == len(a): one
    integer product per pair of indices summing below len(a)."""
    q = len(a)
    out = [0] * q
    for i in range(q):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(q - i):
            out[i + j] += ai * b[j]
    return out


def _packed_product(a: tuple, b: tuple, bits: int, signed: bool) -> Sequence[int]:
    """The first len(a) coefficients of a*b, for len(b) == len(a) = Q and
    every |coefficient| < 2^bits (every coefficient in [0, 2^bits) unless
    ``signed``), by one big-integer product (Kronecker substitution).

    Each series becomes the integer sum_i a_i X^i at X = 2^(8*width), a
    slot of ``width`` bytes per coefficient, sized and packed by the
    ``padic`` slot codec.  A coefficient of the product is a sum of at most
    Q products, so its absolute value is below 2^(2*bits + bits(Q)) <= X/4
    and no slot carries into the next.  Signed coefficients are packed as
    a_i + 2^bits >= 0, and 2^bits * (1 + X + ... + X^(Q-1)) is taken off
    the packed integer after; adding X/2 to every low slot of the product
    then makes each slot's content c_n + X/2 lie in [0, X), read back as
    c_n.
    """
    q = len(a)
    width = slot_size(2 * bits + q.bit_length() + 2)  # bytes per slot
    rows = [a] if b is a else [a, b]  # a square packs once
    if signed:
        bias, half = 1 << bits, 1 << (8 * width - 1)
        # the biased factors, then 1 + X + ... + X^(Q-1)
        *packed, ones = pack_slots(
            [*(map(add, row, repeat(bias)) for row in rows), repeat(1, q)], q, width
        )
        packed = [x - bias * ones for x in packed]
    else:
        packed, half, ones = pack_slots(rows, q, width), 0, 0
    # x * x when squaring: CPython multiplies one object by itself faster
    low = (packed[0] * packed[-1] + half * ones) & ((1 << 8 * width * q) - 1)
    out = unpack_slots([low], q, width)
    return list(map(sub, out, repeat(half, q))) if signed else out


def _check_indices(indices: Sequence[int], qprec: int) -> None:
    """Refuse an empty index list (a series needs its constant term), a
    negative index (ValueError) and one at or beyond ``qprec``
    (PrecisionError)."""
    if not indices:
        raise ValueError("no coefficient indices: a q-expansion needs at least one")
    low, high = min(indices), max(indices)
    if low < 0:
        raise ValueError(f"negative coefficient index {low}")
    if high >= qprec:
        raise PrecisionError(f"coefficient a_{high} beyond q-precision {qprec}")


@dataclass(frozen=True)
class QSeries:
    """A q-expansion known through q^(qprec-1)."""

    ring: Ring
    coeffs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(map(self.ring.reduce, self.coeffs)))
        if not self.coeffs:
            raise ValueError("a q-expansion needs at least the constant term")

    @classmethod
    def _reduced(cls, ring: Ring, coeffs: tuple) -> "QSeries":
        """A series from a non-empty tuple of ints already reduced over
        ``ring``: no validation."""
        self = object.__new__(cls)
        vars(self).update(ring=ring, coeffs=coeffs)
        return self

    @classmethod
    def _from_ints(cls, ring: Ring, coeffs) -> "QSeries":
        """A series from computed ints, reduced by one ``% modulus`` each
        (kept as they are over Z)."""
        modulus = ring.modulus
        if modulus is None:
            return cls._reduced(ring, tuple(coeffs))
        return cls._reduced(ring, tuple([c % modulus for c in coeffs]))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int], ring: Ring = ZZ) -> "QSeries":
        return cls(ring, tuple(coeffs))

    @classmethod
    def constant(cls, value: int, qprec: int, ring: Ring = ZZ) -> "QSeries":
        if qprec < 1:
            raise ValueError(f"a q-expansion needs q-precision >= 1, got {qprec}")
        return cls(ring, (value,) + (0,) * (qprec - 1))

    @property
    def qprec(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"negative coefficient index {n}")
        if n >= self.qprec:
            raise PrecisionError(f"coefficient a_{n} beyond q-precision {self.qprec}")
        return self.coeffs[n]

    def _common(self, other: "QSeries") -> int:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        return min(self.qprec, other.qprec)

    def __add__(self, other: "QSeries") -> "QSeries":
        q = self._common(other)
        return QSeries._from_ints(
            self.ring, [a + b for a, b in zip(self.coeffs[:q], other.coeffs[:q])]
        )

    def __sub__(self, other: "QSeries") -> "QSeries":
        q = self._common(other)
        return QSeries._from_ints(
            self.ring, [a - b for a, b in zip(self.coeffs[:q], other.coeffs[:q])]
        )

    def __neg__(self) -> "QSeries":
        return QSeries._from_ints(self.ring, [-a for a in self.coeffs])

    def scale(self, c: int) -> "QSeries":
        c = index(c)
        return QSeries._from_ints(self.ring, [c * a for a in self.coeffs])

    def __mul__(self, other: "QSeries") -> "QSeries":
        q = self._common(other)
        a, b = self.coeffs[:q], other.coeffs[:q]  # the same tuple when squaring
        if q >= _PACKED_MIN_Q:
            modulus = self.ring.modulus
            if modulus is None:
                bits = max(max(map(abs, a)), max(map(abs, b))).bit_length()
            else:
                bits = (modulus - 1).bit_length()
            if bits <= _PACKED_BITS_PER_Q * q:
                return QSeries._from_ints(self.ring, _packed_product(a, b, bits, modulus is None))
        return QSeries._from_ints(self.ring, _schoolbook_product(a, b))

    def product_at(self, other: "QSeries", indices: Sequence[int]) -> "QSeries":
        """The coefficients of ``self * other`` at ``indices`` only, as the
        series whose n-th coefficient is the one at indices[n]: one dot
        product per index, and no full product."""
        q = self._common(other)
        _check_indices(indices, q)
        a, rev = self.coeffs, other.coeffs[q - 1 :: -1]
        return QSeries._from_ints(
            self.ring, [sum(map(mul, a, rev[q - 1 - n :])) for n in indices]
        )

    def select(self, indices: Sequence[int]) -> "QSeries":
        """The series whose n-th coefficient is this one's at indices[n]."""
        _check_indices(indices, self.qprec)
        return QSeries._reduced(self.ring, tuple(map(self.coeffs.__getitem__, indices)))

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return QSeries.constant(1, self.qprec, self.ring)
        return power_from_base(self, n, mul)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; the constant term must be a unit."""
        a = self.coeffs
        if isinstance(self.ring, ModRing):
            if a[0] % self.ring.p == 0:
                raise ZeroDivisionError("constant term is not a unit")
            inv0 = pow(a[0], -1, self.ring.modulus)
        else:
            if a[0] not in (1, -1):
                raise ZeroDivisionError("constant term is not a unit in Z")
            inv0 = a[0]
        modulus = self.ring.modulus
        out = [inv0]
        for n in range(1, self.qprec):
            c = -inv0 * sum(map(mul, a[1 : n + 1], reversed(out)))
            out.append(c if modulus is None else c % modulus)
        return QSeries._reduced(self.ring, tuple(out))

    def truncate(self, qprec: int) -> "QSeries":
        if qprec < 1:
            raise ValueError(f"a q-expansion needs q-precision >= 1, got {qprec}")
        if qprec > self.qprec:
            raise PrecisionError(
                f"cannot extend q-precision {self.qprec} to {qprec}"
            )
        return QSeries._reduced(self.ring, self.coeffs[:qprec])

    def shift_q(self, t: int) -> "QSeries":
        """Multiply by q^t; a series exact to Q is exact to Q+t after."""
        if t < 0:
            raise ValueError("negative q-shifts are not supported")
        return QSeries._reduced(self.ring, (0,) * t + self.coeffs)

    def map_coeffs(self, fn: Callable[[int, int], int]) -> "QSeries":
        """New series with coefficients fn(n, a_n), same ring and precision."""
        return QSeries(self.ring, tuple(fn(n, a) for n, a in enumerate(self.coeffs)))

    def to_ring(self, ring: Ring) -> "QSeries":
        """Reduce into a smaller ring (Z -> Z/p^m, or lower m)."""
        if isinstance(ring, ModRing) and isinstance(self.ring, ModRing):
            if ring.p != self.ring.p or ring.m > self.ring.m:
                raise ValueError(f"cannot reduce {self.ring} to {ring}")
        elif isinstance(ring, IntegerRing) and not isinstance(self.ring, IntegerRing):
            raise ValueError("cannot lift a modular series to Z")
        return QSeries._from_ints(ring, self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def leading_index(self):
        """Index of the first nonzero coefficient, or None."""
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return n
        return None
