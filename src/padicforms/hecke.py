"""Hecke operators on q-expansions, with exact p-power normalizations.

One formula (trivial nebentypus).  With U f = sum a_{np} q^n the
q-expansion operator, F f = sum a_n q^(np) the Frobenius and
a(k) = max(0, 1 - k):

  T_p  = p^a(k) U + p^a(2-k) F
  U_p  = p^a(k) U                  (= p^(-inf{1,k}) U_p^naive)
  U_p^naive = p U

The two exponents of T_p swap under k <-> 2 - k, the duality between
weight k and weight 2 - k: for k >= 1 T_p = U + p^(k-1) F, for k <= 1
T_p = p^(1-k) U + F, and both read U + F at k = 1.  So
T_p = U_p + p^a(2-k) F exactly.  ``NORMALIZATIONS`` tabulates the
p-power each named normalization puts on U: a(k) for the weight
normalization, 1 for the naive operator, 0 for U itself; ``up`` at
k = 0, where a(0) = 1, is the naive operator.  Applying T_p or U_p
divides the q-precision by p; F keeps it.
"""

from __future__ import annotations

from typing import Optional

from .errors import ConfigError, PrecisionError
from .padic import is_prime
from .qexp import QSeries


def _weight_shift(k: int) -> int:
    """a(k) = max(0, 1 - k), the p-power on U of U_p at weight k."""
    return max(0, 1 - k)


NORMALIZATIONS = {
    "weight": _weight_shift,
    "naive": lambda k: 1,
    "qexp": lambda k: 0,
}


def normalization_shift(k: int, kind: str) -> int:
    """p-power of the U_p normalization ``kind`` at weight k over the
    q-expansion operator U; it shifts every slope by that much."""
    if kind not in NORMALIZATIONS:
        raise ConfigError(f"unknown normalization {kind!r}")
    return NORMALIZATIONS[kind](k)


def check_prime(ell: int) -> None:
    """Refuse, by ``ConfigError``, an ell that is not prime: the one owner
    of that rule for every Hecke operator T_ell or U_ell."""
    if not is_prime(ell):
        raise ConfigError(f"{ell} is not prime")


def _hecke_map(f: QSeries, p: int, u_shift: int, f_shift: Optional[int]) -> QSeries:
    """p^u_shift U f, plus p^f_shift F f unless f_shift is None, to
    q-precision floor(Q/p)."""
    check_prime(p)
    q = f.qprec // p
    if q < 1:
        raise PrecisionError(f"q-precision {f.qprec} too small for level-{p} operators")
    a = f.coeffs
    scale = p**u_shift
    out = [scale * c for c in a[: q * p : p]]
    if f_shift is not None:
        scale = p**f_shift
        out[::p] = [c + scale * b for c, b in zip(out[::p], a)]
    return QSeries(f.ring, tuple(out))


def hecke_tp(f: QSeries, k: int, p: int) -> QSeries:
    """T_p = p^a(k) U + p^a(2-k) F at weight k; output q-precision is
    floor(Q/p)."""
    return _hecke_map(f, p, _weight_shift(k), _weight_shift(2 - k))


def up(f: QSeries, k: int, p: int) -> QSeries:
    """Normalized U_p = p^a(k) U = p^(-inf{1,k}) U_p^naive.

    p^a(k) is a nonnegative p-power, so the result stays integral; no
    precision is lost at any weight.
    """
    return _hecke_map(f, p, _weight_shift(k), None)


def frobenius(f: QSeries, p: int) -> QSeries:
    """F: q -> q^p on expansions; weight independent, precision preserving."""
    check_prime(p)
    out = [0] * f.qprec
    out[::p] = f.coeffs[: (f.qprec + p - 1) // p]
    return QSeries(f.ring, tuple(out))
