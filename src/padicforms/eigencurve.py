"""Local eigencurve data over a weight disc (``weights.WeightDisc``).

The two-variable characteristic series is built in two steps.  The
first computes the U_p characteristic series at integer sample weights
with a shared basis-shape convention (all samples are twisted up to one
common top weight, so the matrices have one size D).  The second
interpolates each coefficient as a polynomial in the disc coordinate w.
``two_var_charseries`` runs both; ``TwoVarCharSeries.refit`` runs the
second alone on a subset of a series' own samples, so a held-out fit
builds no Katz model.  A verification pass re-specializes at every
sample.  At another weight k of the disc a specialization is a
prediction, and it claims only the precision the fit supports.  For a
coefficient that is a power series in w over Z_p, the remainder of its
interpolation through the samples k_i is an integral multiple of the
product of the (w_k - w_(k_i)), so the prediction holds mod p^e with e
the sum of the v_p(w_k - w_(k_i)).
The series assumes every coefficient c_j(w) lies in Z_p[[w]]; an
off-sample claim rests on that assumption, not on a recomputation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple

from .charseries import CharSeries, char_series, check_slope_bound, newton_polygon
from .coleman import katz_basis, up_matrix
from .errors import ConfigError, PrecisionError
from .forms import basis_dimension
from .weights import (
    IwasawaTruncation,
    WeightDisc,
    interpolate_iwasawa,
    w_coordinate,
)


class TwoVarCharSeries(NamedTuple):
    """Characteristic series of U_p over a weight disc.

    ``coeffs[j]`` is c_j(w) as an Iwasawa truncation; specialization at
    a sample weight reproduces the per-weight series exactly to the
    coefficient's effective precision.
    """

    disc: WeightDisc
    top_weight: int
    twist_depth: int
    coeffs: tuple
    samples: tuple  # ((k, CharSeries), ...)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def qprec(self) -> int:
        """The ``KatzBasis.qprec`` of every per-weight Katz basis: each has
        the dimension D = dim M_top of the basis at the top weight and
        depth 0, so it has that basis' q-precision."""
        return katz_basis(self.top_weight, self.disc.p, 0).qprec

    def specialize(self, k: int) -> CharSeries:
        """CharSeries at classical weight k of the disc's component.

        Its m is the least ``IwasawaTruncation.precision_at(k)`` of its
        coefficients: each one's precision, capped off the samples by the
        sum over the samples k_i of v_p(w_k - w_(k_i)), each term
        saturated at that m, the interpolation remainder bound for
        coefficients in Z_p[[w]].  At a sample the cap is at least that
        m, so the series there is exact to the fit's precision.  The
        component of k is checked there too.
        """
        m_eff = min(c.precision_at(k) for c in self.coeffs)
        p, m = self.disc.p, self.disc.m
        w = w_coordinate(k, p, m)
        return CharSeries(tuple(c.evaluate_at_w(w) for c in self.coeffs), p, m_eff)

    def refit(self, weights) -> "TwoVarCharSeries":
        """The series fitted through this series' samples at ``weights``
        alone, at its top weight, from the per-weight series held here:
        no Katz model is built.  It equals ``two_var_charseries`` of the
        disc of those weights at twist depth (top - max(weights))/(p - 1),
        because a sample's Katz model depends on its weight and the top
        weight only.  A weight that is not a sample raises
        ``ConfigError``, as does a set of weights that ``WeightDisc``
        refuses."""
        p = self.disc.p
        disc = WeightDisc(p, self.disc.component, weights, self.disc.m)
        held = dict(self.samples)
        missing = [k for k in disc.sample_weights if k not in held]
        if missing:
            raise ConfigError(f"weights {missing} are not samples of this series")
        depth = (self.top_weight - disc.sample_weights[-1]) // (p - 1)
        samples = tuple((k, held[k]) for k in disc.sample_weights)
        return _fit(disc, self.top_weight, depth, samples)


def two_var_charseries(disc: WeightDisc, twist_depth: int) -> TwoVarCharSeries:
    """Interpolate the U_p characteristic series over the disc.

    ``twist_depth`` is taken at the largest sample weight, which fixes
    the top weight T = max(samples) + twist_depth * (p - 1).  Sample k
    is twisted to depth (T - k)/(p - 1), an integer because the samples
    share one component mod p - 1, so the last rung of its Katz ladder
    is weight T and every per-weight matrix acts on a space of the same
    dimension D = dim M_T.  ``samples`` holds each sample's series, that
    of ``up_matrix`` on ``katz_basis(k, p, (T - k)/(p - 1))`` over
    Z/p^m; the fit through them is the one ``TwoVarCharSeries.refit``
    makes through a subset.  Every sample's Katz basis is made before any
    matrix is built, so a depth that ``katz_basis`` refuses (a negative
    ``twist_depth``) is refused before any work.
    """
    p = disc.p
    top = max(disc.sample_weights) + twist_depth * (p - 1)
    bases = [katz_basis(k, p, (top - k) // (p - 1)) for k in disc.sample_weights]
    samples = tuple((basis.weight, char_series(up_matrix(basis, disc.m))) for basis in bases)
    return _fit(disc, top, twist_depth, samples)


def _fit(disc: WeightDisc, top: int, twist_depth: int, samples: tuple) -> TwoVarCharSeries:
    """The series through the per-weight ``samples`` ((k, CharSeries)
    for each sample weight of the disc, in order) at top weight ``top``:
    c_0 = 1, and each c_j, 1 <= j <= dim M_top, interpolated over w."""
    p, m = disc.p, disc.m
    coeffs = [IwasawaTruncation(p, disc.component, (1,), m)]
    for j in range(1, basis_dimension(top) + 1):
        coeffs.append(interpolate_iwasawa([(k, series.coeffs[j]) for k, series in samples], p, m))
    return TwoVarCharSeries(
        disc=disc,
        top_weight=top,
        twist_depth=twist_depth,
        coeffs=tuple(coeffs),
        samples=samples,
    )


class LocalPieceReport(NamedTuple):
    slope_bound: Fraction
    degrees: dict  # weight -> slope-<=h factor degree
    constant: bool


def local_piece_report(series: TwoVarCharSeries, slope_bound) -> LocalPieceReport:
    """Degree of the slope-at-most-h factor at each sample weight.

    A certified decomposition needs the polygon to break strictly above
    h; a slope exactly equal to h > 0 means the piece can jump within
    the disc and is surfaced as an error.  h = 0 is always clean because
    slopes cannot cross below the floor 0.
    """
    h = check_slope_bound(slope_bound)
    degrees: Dict[int, int] = {}
    for k, per_weight_series in series.samples:
        poly = newton_polygon(per_weight_series)
        floor = poly.next_slope_floor
        if floor is not None and floor <= h:
            raise PrecisionError(
                f"slopes near {h} not certified at weight {k} "
                f"(polygon floor {floor})"
            )
        if h > 0 and h in poly.slopes:
            raise PrecisionError(
                f"Newton break at exactly {h} at weight {k}: "
                "no slope-<= h decomposition certified"
            )
        degrees[k] = sum(
            mult for s, mult in zip(poly.slopes, poly.multiplicities) if s <= h
        )
    values = set(degrees.values())
    return LocalPieceReport(h, degrees, len(values) == 1)
