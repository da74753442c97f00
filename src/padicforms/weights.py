"""Weight space coordinates, weight discs and Iwasawa-polynomial
truncations.

A classical weight k lies on the component k mod (p-1) of weight space,
where its coordinate is w_k = (1+p)^k - 1.  ``check_component`` is the one
rule that compares a weight with a component: the weight disc, the
specialization of a truncation, the interpolation and the eigencurve's
specialization all call it.  A ``WeightDisc`` is the one description of
a disc of sample weights: the local eigencurve (``eigencurve``) and Hida
families (``hida``) both take theirs from it.  A point of the disc that
is not a classical weight is read through its coordinate alone
(``IwasawaTruncation.evaluate_at_w``).  ``_coordinate_distance`` is the
one owner of v_p(w_k - w_k'), saturated at m, on the coordinates: the
divided differences of ``interpolate_iwasawa`` read it on the sample
coordinates they hold, and through ``_weight_distance`` so do the
precision a fit claims off its samples
(``IwasawaTruncation.precision_at``) and the required side of
``congruence_table``.
Interpolation across a weight disc is done by Newton divided
differences over Z/p^m; every division by (w_j - w_i) = p^v * unit
checks the required divisibility (the Lambda-interpolation congruence)
and lowers the effective precision by v.

Coordinates, sample weights, sample values and polynomial coefficients
must be integers (``operator.index``: a float or Fraction raises
``TypeError`` instead of being carried into the arithmetic).
"""

from __future__ import annotations

from operator import index
from typing import List, Sequence, Tuple

from .errors import ConfigError, PrecisionError, VerificationError
from .forms import check_level1_weight, check_theory_prime
from .padic import Value, _check_pm, unit_inverse, val_p


def w_coordinate(k: int, p: int, m: int) -> int:
    """(1+p)^k - 1 reduced mod p^m; valid for any integer k."""
    _check_pm(p, m)
    return (pow(1 + p, k, p**m) - 1) % p**m


def _coordinate_distance(w1: int, w2: int, p: int, m: int) -> int:
    """v_p(w1 - w2) for coordinates w1, w2 reduced mod p^m, saturated at
    m: m when they agree."""
    return val_p(w1 - w2, p, saturate=m)


def _weight_distance(k1: int, k2: int, p: int, m: int) -> int:
    """v_p(w_k1 - w_k2), saturated at m, by ``_coordinate_distance``: m
    when the coordinates agree mod p^m, as at k1 = k2."""
    return _coordinate_distance(w_coordinate(k1, p, m), w_coordinate(k2, p, m), p, m)


def check_component(k: int, p: int, component: int) -> None:
    """Raise ``ConfigError`` unless the weight k lies on the component
    of weight space given by ``component`` mod p-1."""
    if (k - component) % (p - 1):
        raise ConfigError(f"weight {k} is not on component {component % (p - 1)} mod {p - 1}")


class WeightDisc(Value):
    """A residue disc of weight space with integer sample weights, read
    over Z/p^m.

    The prime passes ``forms.check_theory_prime``, m >= 1, and the sample
    weights, stored sorted and distinct, are at least one, at least 1
    (the uniform U_p normalization), on the component mod p-1 and even
    (``forms.check_level1_weight``); anything else raises ``ConfigError``,
    and a prime, weight, component or m that is not an integer ``TypeError``.
    """

    __match_args__ = ("p", "component", "sample_weights", "m")

    def __init__(self, p: int, component: int, sample_weights: tuple, m: int) -> None:
        p = index(p)
        check_theory_prime(p)
        m = index(m)
        if m < 1:
            raise ConfigError(f"precision exponent must be >= 1, got {m}")
        weights = tuple(sorted(set(map(index, sample_weights))))
        if not weights:
            raise ConfigError("a weight disc needs at least one sample weight")
        comp = index(component) % (p - 1)
        for k in weights:
            check_component(k, p, comp)
            check_level1_weight(k)
        if weights[0] < 1:
            raise ConfigError("disc samples must be >= 1 (uniform U_p normalization)")
        vars(self).update(p=p, component=comp, sample_weights=weights, m=m)


class IwasawaTruncation(Value):
    """A polynomial in the disc coordinate w, over Z/p^m, on one
    component of weight space; a fit of ``interpolate_iwasawa`` records
    the weights of its samples, which bound its precision elsewhere
    (``precision_at``)."""

    __match_args__ = ("p", "component", "poly_coeffs", "m", "sample_weights")

    def __init__(
        self, p: int, component: int, poly_coeffs: tuple, m: int, sample_weights: tuple = ()
    ) -> None:
        _check_pm(p, m)
        poly_coeffs = tuple(index(c) % p**m for c in poly_coeffs)
        vars(self).update(
            p=p, component=component, poly_coeffs=poly_coeffs, m=m, sample_weights=sample_weights
        )

    def evaluate_at_w(self, w: int) -> int:
        modulus = self.p**self.m
        w = index(w)
        acc = 0
        for c in reversed(self.poly_coeffs):
            acc = (acc * w + c) % modulus
        return acc

    def specialize(self, k: int) -> int:
        """The value at the classical weight k of the truncation's
        component, as a plain int in [0, p^m).

        For a fit of ``interpolate_iwasawa`` this int is exact mod p^m at
        the sample weights only; elsewhere it is a prediction, exact mod
        p^e for e = ``precision_at(k)`` when the interpolated function
        lies in Z_p[[w]].
        """
        check_component(k, self.p, self.component)
        return self.evaluate_at_w(w_coordinate(k, self.p, self.m))

    def precision_at(self, k: int) -> int:
        """The exponent e to which ``specialize(k)`` is claimed exact:
        min(m, sum over the samples k_i of v_p(w_k - w_(k_i)), each term
        saturated at m), so m at a sample, and m for a truncation built
        with no samples (such as the constant c_0 = 1).

        Off the samples this is the Newton-remainder bound: for a function
        in Z_p[[w]] the remainder of its interpolation through the samples
        is an integral multiple of the product of the (w - w_(k_i)).  The
        claim rests on that assumption, not on a recomputation.
        """
        check_component(k, self.p, self.component)
        p, m = self.p, self.m
        terms = [_weight_distance(k, s, p, m) for s in self.sample_weights]
        return min(m, sum(terms)) if terms else m


def interpolate_iwasawa(
    samples: Sequence[Tuple[int, int]],
    p: int,
    m: int,
) -> IwasawaTruncation:
    """Fit a polynomial in w through (k_j, value_j) by divided differences.

    The samples must lie on one component of weight space, which is
    read from the first sample's weight mod p-1 (``check_component``).

    The result's precision is m minus the accumulated division losses,
    and it is at least 1: a divided difference over a gap of valuation
    v >= its precision raises ``PrecisionError``, so each one keeps
    prec - v >= 1 digits.  A numerator that fails the required p-power
    divisibility means the data is not Iwasawa-interpolable and raises
    ``VerificationError``.
    The fit is re-specialized at every sample before it is returned,
    and a mismatch also raises ``VerificationError``.
    """
    _check_pm(p, m)
    if not samples:
        raise ValueError("interpolation needs at least one sample")
    ks = [index(k) for k, _ in samples]
    values = [index(v) for _, v in samples]
    if len(set(ks)) != len(ks):
        raise ValueError("sample weights must be distinct")
    component = ks[0] % (p - 1)
    for k in ks:
        check_component(k, p, component)

    modulus = p**m
    ws = [w_coordinate(k, p, m) for k in ks]
    # divided-difference entries carry their own effective precision
    table: List[Tuple[int, int]] = [(v % modulus, m) for v in values]
    newton: List[Tuple[int, int]] = [table[0]]
    n = len(samples)
    for level in range(1, n):
        nxt: List[Tuple[int, int]] = []
        for i in range(n - level):
            (hi, prec_hi), (lo, prec_lo) = table[i + 1], table[i]
            prec = min(prec_hi, prec_lo)
            v = _coordinate_distance(ws[i + level], ws[i], p, m)
            if v >= prec:
                raise PrecisionError(
                    f"weights {ks[i]} and {ks[i + level]} are too close p-adically "
                    f"for precision {prec}"
                )
            num = (hi - lo) % p**prec
            if num % p**v != 0:
                raise VerificationError(
                    "interpolation congruence fails between weights "
                    f"{ks[i]} and {ks[i + level]}: value difference has valuation "
                    f"< {v}"
                )
            unit_inv = unit_inverse((ws[i + level] - ws[i]) // p**v, p, prec - v)
            nxt.append((((num // p**v) * unit_inv) % p ** (prec - v), prec - v))
        table = nxt
        newton.append(table[0])

    m_eff = min(prec for _, prec in newton)
    red = p**m_eff
    # expand the Newton form sum c_r prod_{i<r} (w - w_i) into monomials
    # by Horner's rule: poly <- poly * (w - w_r) + c_r for r = n-1 down to 0
    poly: List[int] = []
    for (c, _), w_r in zip(reversed(newton), reversed(ws)):
        poly = [(lo - w_r * hi) % red for lo, hi in zip([c] + poly, poly + [0])]
    fit = IwasawaTruncation(p, component, tuple(poly), m_eff, tuple(ks))
    for k, value in zip(ks, values):
        if fit.specialize(k) != value % red:
            raise VerificationError(
                f"fitted polynomial fails to reproduce the weight-{k} sample"
            )
    return fit


def congruence_table(
    samples: Sequence[Tuple[int, int]], p: int, m: int
) -> List[dict]:
    """Observed vs required congruence exponents for all sample pairs.

    The theoretical floor is v_p(a(k) - a(k')) >= v_p(w_k - w_k');
    the table records both sides so the exponent is verified rather
    than asserted a priori.
    """
    out = []
    modulus = p**m
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            k1, a1 = samples[i]
            k2, a2 = samples[j]
            wv = _weight_distance(k2, k1, p, m)
            av = val_p((a2 - a1) % modulus, p, saturate=m)
            out.append(
                {
                    "weights": (k1, k2),
                    "required": wv,
                    "observed": av,
                    "holds": av >= wv,
                }
            )
    return out
