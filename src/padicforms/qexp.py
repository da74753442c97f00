"""Truncated q-expansions with an exact coefficient ring tag.

A ``QSeries`` holds coefficients a_0, ..., a_{Q-1} of a formal series
sum a_n q^n, either over Z or over Z/p^m.  Arithmetic requires equal
ring tags; the q-precision of a result is the minimum of the inputs.

The ring, ``ZZ`` (an ``IntegerRing``) or a ``ModRing``, owns every rule
in which Z and Z/p^m differ, so that no caller asks which ring it holds
and a new ring, such as (Z/p^m)[w]/(w^n), is one more class with the
same members:

- ``reduce(ints)``: the canonical tuple of a whole series, ints as they
  are over Z and residues in [0, p^m) over Z/p^m.  It is called once per
  series, never once per coefficient, except by ``inverse``, whose
  steps each read the ones before;
- ``unit_inverse(a)``: the inverse of a unit, raising
  ``ZeroDivisionError`` for a non-unit (any a but +-1 over Z, a with
  p | a over Z/p^m); ``QSeries.inverse`` and ``forms.eisenstein``
  divide by it, the latter naming the ring's ``integral`` when it
  refuses;
- ``bits(a, b)`` and ``signed``: the width and sign of the coefficients
  the packed product lays into slots, bits(p^m - 1) unsigned over
  Z/p^m, and over Z bits(max |a_i|) of the two factors, signed, since
  only the ring knows how large its coefficients can be;
- ``product_rows(a, b, s)``: the rows of a matrix product, by
  ``padic.product_rows`` over Z/p^m and by plain dot products over Z,
  the one kernel of ``forms.SpaceBasis``'s span test and combinations;
- ``json()``: the ring's name in JSON output, "Z" or {"p": p, "m": m}.

A ``QSeries`` validates its coefficients once, when a public entry
point builds it (``QSeries(...)``, ``from_coeffs``, ``constant``):
each must be an integer (``operator.index``; a float or Fraction raises
``TypeError`` instead of being truncated), reduced mod p^m over Z/p^m:
one ``map(operator.index, ...)`` over all of them and one
``ring.reduce`` call, with no method call per coefficient.  Results the
class computes itself (products, sums, scales, truncations, inverses)
are built already reduced, by one ``ring.reduce`` call each, and skip
that validation.  Two refusals have one owner each:
``_check_qprec`` refuses a q-precision below 1 wherever one is asked
for (``QSeries.constant``, ``QSeries.truncate``, ``forms.eisenstein``,
``forms.delta``), and ``_check_indices`` a coefficient index out of
range wherever one is read (``coefficient``, ``select``,
``product_at``).

``f * g`` computes the first Q = min(f.qprec, g.qprec) coefficients of
the product.  It first skips the factors' leading zeros: with f = q^s f'
and g = q^t g', fg = q^(s+t) f'g', so f'g' is needed to n = Q - s - t
coefficients only, and not at all when n <= 0 (the product is then 0).
The running products of ``coleman.KatzBasis.elements_mod`` and the powers
of Delta, which start at q^c, multiply so at length Q - c.  Then the one
series kernel, ``_packed_product``, runs at every n and every
coefficient size: Kronecker substitution, as in ``padic.product_rows``,
on big integers with one slot of at least 2*bits + bits(n) + 2 bits per
coefficient, sized, packed and read back by the slot codec of ``padic``.
``bits`` is the ring's: bits(p^m - 1) over Z/p^m, and bits(max |a_i|)
over the n coefficients of both factors that are used, over Z.

The slot width alone picks the number of points.  Up to 8-byte slots
(1, 2, 4 or 8 bytes, each series packed by one ``struct.pack`` and the
product read back by one ``struct.unpack``) each factor is one integer,
evaluated at one point, and one product (a square when f is g) holds the
n coefficients in its low slots.  Wider slots take two points, X = 2^N
and -X, N half the slot width (Harvey, "Faster polynomial multiplication
via multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009):
each factor's even- and odd-index coefficients are packed apart, E and
O, evaluated as E + O X and E - O X, and two products of these
half-length integers give the even coefficients, as (P+ + P-)/2, and the
odd ones, as (P+ - P-)/2^(N+1).  CPython multiplies long integers by
Karatsuba, so two products of half the length cost about 2/3 of one,
while one point reads its slots back by ``struct`` up to 8 bytes.  Short
series and wide coefficients take the same kernel.  A schoolbook loop is
up to 7 times faster at n <= 8, but without one no end-to-end median of
the slopes-deep and acceptance benchmarks moved by more than 5 % (30
alternated pairs each).

One-point time / two-point time, with the bytes per slot, for distinct
factors of n coefficients of the given bits, unsigned; best of seven,
interleaved, CPython 3.11 on a 2-CPU Intel Xeon host.  The ratio crosses
1 at the 8-byte line at n = 61; one point wins further at n <= 32, and
two points on most widths from 8 bytes at n >= 89.  Two points at every
width took the series products of a traced acceptance round 28 % longer,
and criteria 3, 4 and 9 26 %, 15 % and 7 % longer (six alternated
benchmark pairs, same host).

      n  bits: 12       28       29       44       60       120
     16    0.52  4  0.61  8  0.77  9  0.92 12  0.78 16  1.17 31
     32    0.63  4  0.84  8  0.91  9  0.94 12  1.00 16  1.19 31
     61    0.78  4  0.99  8  1.03  9  1.08 12  1.16 16  1.30 31
     89    1.09  8  1.10  9  1.07  9  0.97 13  1.08 17  1.32 32
    128    1.20  8  1.14  9  1.15  9  1.19 13  1.27 17  1.28 32
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from operator import add, index, mul, sub
from typing import Sequence, Union

from .errors import PrecisionError
from .padic import (
    Value,
    _check_pm,
    pack_slots,
    power_from_base,
    product_rows,
    slot_size,
    unit_inverse,
    unpack_slots,
)


class IntegerRing(Value):
    """The exact integers; the tag for classical integral q-expansions.
    Its members are the ring's rules, listed in the module docstring."""

    signed = True  # packed coefficients take both signs
    integral = "integral over Z"

    def __str__(self) -> str:
        return "Z"

    def json(self) -> str:
        return "Z"

    def reduce(self, ints) -> tuple:
        return tuple(ints)

    def unit_inverse(self, a: int) -> int:
        if a not in (1, -1):
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        return a

    def bits(self, a: Sequence[int], b: Sequence[int]) -> int:
        return max(max(map(abs, a)), max(map(abs, b))).bit_length()

    def product_rows(self, a, b, s: int) -> tuple:
        columns = list(zip(*b)) or [()] * s
        return tuple([tuple([sum(map(mul, row, col)) for col in columns]) for row in a])


class ModRing(Value):
    """The ring Z/p^m, with the members of ``IntegerRing``."""

    __match_args__ = ("p", "m")
    signed = False  # packed coefficients are residues in [0, p^m)

    def __init__(self, p: int, m: int) -> None:
        _check_pm(p, m)
        vars(self).update(p=p, m=m, modulus=p**m, integral=f"{p}-integral")

    def __str__(self) -> str:
        return f"Z/{self.p}^{self.m}"

    def json(self) -> dict:
        return {"p": self.p, "m": self.m}

    def reduce(self, ints) -> tuple:
        modulus = self.modulus
        return tuple([c % modulus for c in ints])

    def unit_inverse(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"{a} is not a unit mod {self.p}")
        return unit_inverse(a, self.p, self.m)

    def bits(self, a: Sequence[int], b: Sequence[int]) -> int:
        return (self.modulus - 1).bit_length()

    def product_rows(self, a, b, s: int) -> tuple:
        return product_rows(a, b, s, self.modulus)


ZZ = IntegerRing()

Ring = Union[IntegerRing, ModRing]


def _packed_product(a: tuple, b: tuple, bits: int, signed: bool) -> Sequence[int]:
    """The first len(a) coefficients of a*b, for len(b) == len(a) = Q and
    every |coefficient| < 2^bits (every coefficient in [0, 2^bits) unless
    ``signed``), by Kronecker substitution at one or two points.

    A coefficient c_n of the product is a sum of at most Q products, so
    |c_n| < 2^(2*bits + bits(Q)) <= Y/4 for a slot Y = 2^(8*width) of
    ``width`` bytes, sized and packed by the ``padic`` slot codec, and no
    slot carries into the next.  Up to 8-byte slots each series becomes
    the integer sum_i a_i Y^i, and one product (a square when b is a)
    holds every c_n in its own slot.  Wider slots take two points,
    X = 2^N and -X with X^2 = Y, N = 4*width bits (Harvey, J. Symbolic
    Comput. 44, 2009): each series is split as E(Y) + X O(Y) into its
    even- and odd-index coefficients, each packed into one integer, one
    slot per coefficient, and evaluated at X and -X.  The two products
    P+ and P- of these half-length integers give (P+ + P-)/2 =
    sum c_(2k) Y^k and (P+ - P-)/(2X) = sum c_(2k+1) Y^k.
    Signed coefficients are packed as a_i + 2^bits >= 0, and
    2^bits * (1 + Y + Y^2 + ...) is taken off each packed integer after;
    adding Y/2 to every low slot of each sum then makes each slot's
    content c_n + Y/2 lie in [0, Y), read back as c_n.
    """
    q = len(a)
    width = slot_size(2 * bits + q.bit_length() + 2)  # bytes per slot
    rows, count = ([a] if b is a else [a, b]), q  # a square packs once
    two_points = width > 8  # one point up to the struct codec's 8-byte slots
    if two_points:
        # two points: each factor's even- and odd-index coefficients, one
        # row each, the odd row padded to the length of the even one
        count, pad = (q + 1) // 2, (0,) * (q & 1)
        rows = [half_row for f in rows for half_row in (f[::2], f[1::2] + pad)]
    if signed:
        bias, half = 1 << bits, 1 << (8 * width - 1)
        # the biased rows, then 1 + Y + ... + Y^(count-1)
        *packed, ones = pack_slots(
            [*(map(add, row, repeat(bias)) for row in rows), repeat(1, count)], count, width
        )
        offset = bias * ones
        packed = [x - offset for x in packed]
    else:
        packed, half, ones = pack_slots(rows, count, width), 0, 0
    # the low slots of each product, every slot's content raised by Y/2
    # when signed; x * x when squaring: CPython multiplies one object by
    # itself faster
    mask, lift = (1 << 8 * width * count) - 1, half * ones
    if two_points:
        shift = 4 * width  # X = 2^shift
        plus, minus = [], []  # each factor at X and at -X
        for even, odd in zip(packed[::2], packed[1::2]):
            odd <<= shift
            plus.append(even + odd)
            minus.append(even - odd)
        high, low = plus[0] * plus[-1], minus[0] * minus[-1]
        evens, odds = (high + low) >> 1, (high - low) >> (shift + 1)
        sums = [(evens + lift) & mask, (odds + lift) & mask]
    else:
        sums = [(packed[0] * packed[-1] + lift) & mask]
    out = unpack_slots(sums, count, width)
    if two_points:
        # even-index coefficients, then odd: interleave them
        merged = [0] * (2 * count)
        merged[::2], merged[1::2] = out[:count], out[count:]
        out = merged[:q]
    return list(map(sub, out, repeat(half, q))) if signed else out


def _check_qprec(qprec: int) -> None:
    """Refuse a q-precision below 1: a series needs its constant term."""
    if qprec < 1:
        raise ValueError(f"a q-expansion needs q-precision >= 1, got {qprec}")


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


class QSeries(Value):
    """A q-expansion known through q^(qprec-1)."""

    __match_args__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: tuple) -> None:
        vars(self).update(ring=ring, coeffs=coeffs)
        # the checks stay in __post_init__, where perfbench/spans.py counts public builds
        self.__post_init__()

    def __post_init__(self) -> None:
        coeffs = self.ring.reduce(map(index, self.coeffs))
        vars(self)["coeffs"] = coeffs
        if not coeffs:
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
        """A series from computed ints, by one ``ring.reduce`` call."""
        return cls._reduced(ring, ring.reduce(coeffs))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int], ring: Ring = ZZ) -> "QSeries":
        return cls(ring, tuple(coeffs))

    @classmethod
    def constant(cls, value: int, qprec: int, ring: Ring = ZZ) -> "QSeries":
        _check_qprec(qprec)
        return cls(ring, (value,) + (0,) * (qprec - 1))

    @property
    def qprec(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int) -> int:
        _check_indices((n,), self.qprec)
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

    def scale(self, c: int) -> "QSeries":
        c = index(c)
        return QSeries._from_ints(self.ring, [c * a for a in self.coeffs])

    def __mul__(self, other: "QSeries") -> "QSeries":
        q = self._common(other)
        a, b = self.coeffs[:q], other.coeffs[:q]  # the same tuple when squaring
        # q^s f * q^t g = q^(s+t) fg: f and g lose their s and t leading
        # zeros, and fg is needed to length n = Q - s - t only
        s = 0 if a[0] else next(compress(count(), a), q)
        t = s if b is a else 0 if b[0] else next(compress(count(), b), q)
        n = q - s - t
        if n <= 0:
            return QSeries._reduced(self.ring, (0,) * q)
        if n < q:
            square = b is a
            a = a[s : s + n]
            b = a if square else b[t : t + n]
        ring = self.ring
        product = _packed_product(a, b, ring.bits(a, b), ring.signed)
        if n < q:
            product = chain(repeat(0, q - n), product)
        return QSeries._from_ints(ring, product)

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
        """The n-th power for n >= 1, by ``power_from_base``."""
        return power_from_base(self, n, mul)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; the constant term must be a unit."""
        a, ring = self.coeffs, self.ring
        inv0 = ring.unit_inverse(a[0])
        out = [inv0]
        for n in range(1, self.qprec):
            # each step reads the ones before it, so each is reduced alone
            out += ring.reduce((-inv0 * sum(map(mul, a[1 : n + 1], reversed(out))),))
        return QSeries._reduced(ring, tuple(out))

    def truncate(self, qprec: int) -> "QSeries":
        _check_qprec(qprec)
        if qprec > self.qprec:
            raise PrecisionError(
                f"cannot extend q-precision {self.qprec} to {qprec}"
            )
        return QSeries._reduced(self.ring, self.coeffs[:qprec])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def leading_index(self):
        """Index of the first nonzero coefficient, or None."""
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return n
        return None
