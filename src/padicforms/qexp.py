"""Truncated q-expansions with an exact coefficient ring tag.

A ``QSeries`` holds coefficients a_0, ..., a_{Q-1} of a formal series
sum a_n q^n, either over Z or over Z/p^m.  Arithmetic requires equal
ring tags; the q-precision of a result is the minimum of the inputs.

A ``QSeries`` validates its coefficients once, at public construction
(``QSeries(...)``, ``from_coeffs``, ``constant``, ``map_coeffs``): each
must be an integer (``operator.index``; a float or Fraction raises
``TypeError`` instead of being truncated), reduced mod p^m over Z/p^m.
Results the class computes itself (products, sums, scales, shifts,
truncations, ring changes, inverses) are built already reduced, with
one ``% modulus`` per coefficient, and skip that validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index, mul
from typing import Callable, Sequence, Union

from .errors import PrecisionError
from .padic import _check_pm, power_from_base


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
        a, b = self.coeffs, other.coeffs
        out = [0] * q
        for i in range(q):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(q - i):
                out[i + j] += ai * b[j]
        return QSeries._from_ints(self.ring, out)

    def product_at(self, other: "QSeries", indices: Sequence[int]) -> "QSeries":
        """The coefficients of ``self * other`` at ``indices`` only, as the
        series whose n-th coefficient is the one at indices[n]: one dot
        product per index, and no full product."""
        q = self._common(other)
        if max(indices, default=0) >= q:
            raise PrecisionError(f"coefficient beyond q-precision {q}")
        a, rev = self.coeffs, other.coeffs[q - 1 :: -1]
        return QSeries._from_ints(
            self.ring, [sum(map(mul, a, rev[q - 1 - n :])) for n in indices]
        )

    def select(self, indices: Sequence[int]) -> "QSeries":
        """The series whose n-th coefficient is this one's at indices[n]."""
        return QSeries._reduced(self.ring, tuple(map(self.coefficient, indices)))

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
