"""Overconvergent U_p spectral theory on Katz-expansion models.

Overconvergent forms of weight k are modelled as sums b_i * E_{p-1}^{-i}
with b_i running over the new echelon rows of the weight k + i(p-1)
Miller basis; the twist depth I plays the role of the overconvergence
radius and slopes are trusted where they are stable under increasing
I and certified by the Newton polygon at the working modulus.  The
model depends on (k, p, I) alone.  With D the Katz dimension, U_p and
the solve read 2D - 1 coefficients of each element f: its head, the
coefficients of q^0..q^(D-1), and its spine, those of q^0, q^p, ...,
q^(p(D-1)).  The Katz elements are built as these readouts and nothing
more: each is one series over Z/p^m of 2D coefficients, the head
followed by the spine.

Normalization bookkeeping: the solver computes the matrix of the
weight-independent q-expansion operator  f -> sum a_{np} q^n  (this is
U_p in any weight k >= 1).  Each normalization of
``hecke.NORMALIZATIONS`` is p^``normalization_shift(k, kind)`` times it
(p for the naive operator, p^{max(0, 1-k)} for the weight-k one), so
their polygons are exact slope shifts of the base polygon; the naive
shift is still cross-checked against an independently assembled matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import List, NamedTuple, Optional, Sequence

from .charseries import (
    CharSeries,
    NewtonPolygon,
    char_series,
    check_slope_bound,
    newton_polygon,
)
from .classical import Comparison, classical_up_spectrum, compare, comparison_bound
from .errors import ConfigError, VerificationError
from .forms import (
    MillerPowers,
    PowerTable,
    basis_dimension,
    check_level1_weight,
    check_theory_prime,
    eisenstein,
    miller_rows,
)
from .hecke import normalization_shift
from .linalg import solve_in_basis
from .padic import PadicMatrix
from .qexp import ZZ, ModRing, QSeries


class KatzBasis(NamedTuple):
    """Basis of the weight-k overconvergent model up to twist depth I.

    ``ladder`` holds the dimensions dim M_{k + i(p-1)}, i = 0..I.  Block
    i is the new Miller rows b_{i,j} of weight k + i(p-1), j from the
    dimension of rung i-1 on; the pair (i, b_{i,j}) stands for the
    element b_{i,j} * E_{p-1}^{-i}.  Only the ladder is stored:
    ``blocks`` builds the rows over Z, and ``elements_mod`` builds the
    elements' readouts over Z/p^m without building the rows.  Element
    with global index g has q-expansion q^g + O(q^(g+1)), which makes
    solving in the basis lossless.
    """

    p: int
    weight: int
    twist_depth: int
    ladder: tuple

    @property
    def qprec(self) -> int:
        """q-precision p*(D+4) of ``blocks``; ``elements_mod`` reads the
        elements through q^(p(D-1)) only."""
        return self.p * (self.dimension + 4)

    @property
    def dimension(self) -> int:
        return self.ladder[-1]

    @property
    def blocks(self) -> tuple:
        """The blocks over Z at the full q-precision, with the E4 and
        Delta powers taken from one shared table."""
        powers = MillerPowers(self.qprec, ZZ)
        return tuple(
            miller_rows(self.weight + i * (self.p - 1), lo, powers)
            for i, lo in enumerate((0,) + self.ladder[:-1])
        )

    def elements_mod(self, m: int) -> List[QSeries]:
        """The readouts of the elements b_{i,j} * E_{p-1}^{-i} over Z/p^m.

        The readout of an element f is one series of 2D coefficients:
        those of f at q^0..q^(D-1) (the head), then those at q^0, q^p,
        ..., q^(p(D-1)) (the spine).

        Row c of the Miller rows, new in rung i_c at weight w_c, is
        Delta^c times the factor E4^a E6^b of weight w_c - 12c before the
        rows after it in its rung clear its tail; the factor comes from
        ``forms.MillerPowers.factor``, the one owner of the Miller rule.
        So one running product R_c = Delta^c * E_{p-1}^{-i_c}, a full
        series through q^(p(D-1)), the last coefficient read, carries
        every element: R_c = R_{c-1} * Delta * E_{p-1}^{-g},
        g = i_c - i_{c-1}, and element c is R_c * E4^a E6^b.
        Each step factor is built once per gap g, and the table builds
        each E4^a E6^b once.  That last factor enters only the readout,
        by one dot product per coefficient read, and not at all when it
        is 1.  A rung with several new rows then gets the row operations
        of ``forms.miller_rows`` on its readouts, passed as a shadow of
        the Miller rows to q-precision D, which give the multipliers.
        Truncated series arithmetic over Z/p^m is exact, commutative and
        associative, so these are the readouts of the integral rows
        reduced mod p^m times E_{p-1}^{-i}, equal coefficient for
        coefficient.
        """
        ring = ModRing(self.p, m)
        d = self.dimension
        reads = [*range(d), *range(0, self.p * d, self.p)]  # head, then spine
        qprec = self.p * (d - 1) + 1 if d else 1  # through q^(p(D-1))
        powers = MillerPowers(qprec, ring)
        times, one = powers.product, powers.one
        # e_inv[0] is the table's one itself, so ``times`` skips it
        e_inv = PowerTable(eisenstein(self.p - 1, qprec, ring).inverse(), one)
        steps = {}  # gap g -> Delta * E_{p-1}^{-g}
        probes = None  # Miller powers to q-precision D, for the multipliers
        running = last = None  # R_c and i_c of the row before
        out: List[QSeries] = []
        for i, (lo, hi) in enumerate(zip((0,) + self.ladder, self.ladder)):
            weight = self.weight + i * (self.p - 1)
            block = []
            for c in range(lo, hi):
                if running is None:
                    running = e_inv[i]
                else:
                    gap = i - last
                    if gap not in steps:
                        steps[gap] = times(powers.delta[1], e_inv[gap])
                    running = times(running, steps[gap])
                last = i
                factor = powers.factor(weight - 12 * c)
                block.append(
                    running.select(reads) if factor is one else running.product_at(factor, reads)
                )
            if len(block) > 1:
                if probes is None:
                    probes = MillerPowers(d, ring)
                miller_rows(weight, lo, probes, block)
            out.extend(block)
        for g, element in enumerate(out):
            if element.leading_index() != g or element.coeffs[g] != 1:
                raise VerificationError(
                    f"Katz element {g} is not in echelon position"
                )
        return out


def katz_basis(k: int, p: int, twist_depth: int) -> KatzBasis:
    """The Katz-expansion basis at weight k and twist depth I.

    Block sizes are the jumps of the dimension ladder
    dim M_{k + i(p-1)}, which never falls: dim M_k does not drop along
    a step of p - 1 >= 4.  Only the ladder is computed here:
    ``KatzBasis.elements_mod`` builds the readouts of the new Miller rows
    of each rung, times E_{p-1}^{-i}, in the ring it evaluates over: the
    coefficients that one U_p application and the solve for its
    coordinates read.
    """
    check_theory_prime(p)
    check_level1_weight(k)
    if twist_depth < 0:
        raise ConfigError("twist depth must be >= 0")
    dims = tuple(basis_dimension(k + i * (p - 1)) for i in range(twist_depth + 1))
    return KatzBasis(p, k, twist_depth, dims)


def up_matrix(basis: KatzBasis, m: int, normalization: str = "weight") -> PadicMatrix:
    """Matrix of U_p on the Katz basis over Z/p^m.

    ``normalization`` selects the weight normalization (default), the
    naive operator, or the bare q-expansion operator (the kinds of
    ``hecke.NORMALIZATIONS``, resolved before any element is built); the
    matrix is assembled by applying the chosen operator and solving in
    the basis, which loses no digit.
    """
    shift = normalization_shift(basis.weight, normalization)
    elements = basis.elements_mod(m) if basis.dimension else []
    return _solve_up(basis, elements, m, shift)


def _solve_up(basis: KatzBasis, elements: Sequence[QSeries], m: int, shift: int) -> PadicMatrix:
    """``up_matrix`` on Katz element readouts over Z/p^M, M >= m: the
    heads make the basis matrix, and each spine, scaled by p^shift, is
    an image to solve for.  Element g is q^g + O(q^(g+1)), so the heads
    are lower unitriangular and the solve is one forward substitution
    over Z/p^m.  The matrix constructor reduces the heads and the solve
    its coordinates to Z/p^m, so readouts built at a higher modulus
    give the matrix at m."""
    scale = basis.p**shift
    d = basis.dimension
    bmat = PadicMatrix(tuple(zip(*(e.coeffs[:d] for e in elements))), basis.p, m)
    return solve_in_basis([[scale * c for c in e.coeffs[d:]] for e in elements], bmat).as_matrix()


def shift_polygon(poly: NewtonPolygon, shift: int) -> NewtonPolygon:
    """Polygon of the operator scaled by p^shift: every slope moves by shift."""
    floor = poly.next_slope_floor
    return poly._replace(
        vertices=tuple((j, v + shift * j) for j, v in poly.vertices),
        next_slope_floor=None if floor is None else floor + shift,
    )


class SlopeReport(NamedTuple):
    """Certified slope data of U_p at one weight, with the classical
    comparison attached for k >= 2 (None when not asked for)."""

    p: int
    weight: int
    twist_depth: int
    qprec: int
    m_requested: int
    m_working: int
    charseries: CharSeries  # weight-normalized coefficients
    qexp_polygon: NewtonPolygon
    slopes: NewtonPolygon  # weight-normalized
    naive_slopes: NewtonPolygon
    comparison: Optional[Comparison]
    naive_shift_checked: bool


def _spectrum_core(
    basis: KatzBasis,
    m: int,
    bound: Optional[Fraction],
    classical_slopes: Sequence[Fraction] = (),
):
    """q-expansion-operator series and polygon of ``basis``, raising the
    working modulus until the polygon certifies through the requested
    bound.

    This is the library's one certify-by-raising-m loop, and its rule
    of grid, plan and cap is stated here only.  The grid
    (``_spectrum_grid``): with bound b, m_work runs from
    max(m, floor(b) + 3) in steps of max(4, floor(b)) up to the cap
    m + ceil(b * max(D, 2)) + 16, D the Katz dimension; without a bound
    it is the one step m.  The loop returns at the first step whose
    polygon certifies through b, or at the cap, its last step, which
    always certifies.  The Katz element readouts, the
    U_p matrix and its characteristic series are built at one step M of
    the grid, and each step up to M reads the Newton polygon of that
    series reduced to Z/p^m_work.  This is exact: the solve has unit
    pivots and the series is computed by integral similarities and a
    division-free recurrence, so both commute with reduction.  The step
    that returns gives the readouts as built, over Z/p^M with
    M >= m_work; ``_solve_up`` reduces them when they are read.

    Why the cap certifies: the operator is integral and c_0 = 1, so the
    exact polygon of its series starts at (0, 0) with slopes >= 0.  Say
    j of its slopes lie below b, with sum v <= b * j.  Its vertices up
    to (j, v) lie no higher than v <= b * D < cap, so they read exactly
    mod p^cap, and a coefficient that reads saturated there, at height
    cap, lies above the polygon.  After j every known point lies on or
    above the slope-b line from (j, v), which reaches
    v + b(D - j) <= b * D < cap at D, so every saturated one does too.
    So the polygon at the cap is certified through (j, v), and its floor
    for any further slope is at least b.

    The plan: M is first the step ``_planned_modulus`` picks, the first
    at or past v + b(D - j), j and v as above for the slopes known to
    lie below b; the polygon certifies through b once its certified
    part ends at (j, v) and the point at D, saturated at height m_work,
    lies on the slope-b line from there.  ``classical_slopes`` are the
    slopes known below b: ``slope_spectrum`` passes the classical U_p
    slopes of weight k when k >= 2 and b <= k - 1, since slopes below
    k - 1 are classical (Coleman), whether or not it compares them, and
    none otherwise (j = v = 0, a target of b * D).  If no step up to the
    plan certifies, the elements are built once more, at the cap, and
    the walk goes on.  The plan chooses a cost, never a result: every
    step reads the same reduced series either way.
    """
    d = basis.dimension
    if bound is None:
        grid, planned = [m], m
    else:
        grid = _spectrum_grid(m, d, bound)
        planned = _planned_modulus(grid, d, bound, classical_slopes)
    built = 0
    for m_work in grid:
        if m_work > built:
            built = grid[-1] if built else planned
            top = basis.elements_mod(built)
            top_series = char_series(
                _solve_up(basis, top, built, normalization_shift(basis.weight, "qexp"))
            )
        series = CharSeries(top_series.coeffs, basis.p, m_work)
        poly = newton_polygon(series)
        if m_work == grid[-1] or poly.certifies_through(bound):
            return top, series, poly, m_work


def _spectrum_grid(m: int, d: int, bound: Fraction) -> List[int]:
    """The working moduli of ``_spectrum_core`` at requested modulus m,
    Katz dimension D and bound b, the last of them the cap."""
    cap = m + ceil(bound * max(d, 2)) + 16
    return [*range(max(m, int(bound) + 3), cap, max(4, int(bound))), cap]


def _planned_modulus(
    grid: Sequence[int], d: int, bound: Fraction, known: Sequence[Fraction]
) -> int:
    """The step of ``grid`` to build the Katz elements at first: the
    first at or past v + b(D - j), or past v when j >= D so that every
    coefficient is exact, j and v the number and sum of the slopes of
    ``known`` below b; the cap, the last step, when no step is.  With
    j = v = 0 the target is b * D."""
    below = [s for s in known if s < bound]
    j, v = len(below), sum(below)
    target = v + 1 if j >= d else v + bound * (d - j)
    return next((g for g in grid if g >= target), grid[-1])


def slope_spectrum(
    k: int,
    p: int,
    twist_depth: int,
    m: int,
    certify_below: Optional[Fraction] = None,
    classical: bool = True,
) -> SlopeReport:
    """Newton slopes of U_p on the weight-k overconvergent model.

    All normalized slopes are checked to be >= 0, and the naive spectrum
    is cross-checked to sit exactly inf{1,k} above the normalized one.
    For k >= 2 (unless ``classical`` is False) the normalized polygon is
    compared with the classical spectrum by ``classical.compare``, the
    one comparison, below min(k - 1, m - 2).  Bad input raises
    ``ConfigError`` before any work, in this order: a prime refused by
    ``forms.check_theory_prime``, an odd weight and a negative twist
    depth, which ``katz_basis`` refuses (it computes only the dimension
    ladder), then a negative ``certify_below``, then m < 3 when the
    spectra are compared.

    With ``certify_below`` = b the working modulus is raised until the
    q-expansion polygon certifies every slope below b, by the grid,
    plan and cap that ``_spectrum_core`` states; the cap certifies every
    b, so a certified report is always returned.  This is the library's
    one entry to a certified spectrum (``classicality_check`` and the
    theta probe call it).  The checks above run once, at the final
    modulus, and the classical spectrum is built once for the plan and
    the comparison both.  The naive cross-check is assembled
    independently from the element readouts as built, by a solve over
    Z/p^m_work that reduces what it reads.
    """
    basis = katz_basis(k, p, twist_depth)
    bound = None if certify_below is None else check_slope_bound(certify_below)
    compared = classical and k >= 2
    if compared:
        comparison_bound(k, m)  # refuses m < 3 before any work
    plans = bound is not None and 2 <= k and bound <= k - 1
    spectrum = classical_up_spectrum(k, p) if compared or plans else None
    elements, series, qpoly, m_work = _spectrum_core(basis, m, bound, spectrum if plans else ())
    shift = normalization_shift(k, "weight")
    norm_poly = shift_polygon(qpoly, shift)
    for s in norm_poly.slope_multiset():
        if s < 0:
            raise VerificationError(
                f"normalized U_p slope {s} < 0 at weight {k}: theory violated"
            )
    norm_series = _scaled_series(series, shift, p, m_work)

    # independent assembly of the naive matrix; its char series must be
    # the p^j-scaled one, which pins the slope relation exactly
    naive_shift = normalization_shift(k, "naive")
    naive_series = char_series(_solve_up(basis, elements, m_work, naive_shift))
    naive_checked = naive_series == _scaled_series(series, naive_shift, p, m_work)
    if not naive_checked:
        raise VerificationError("naive U_p char series fails the p-scaling relation")
    naive_poly = shift_polygon(qpoly, naive_shift)

    return SlopeReport(
        p=p,
        weight=k,
        twist_depth=twist_depth,
        qprec=basis.qprec,
        m_requested=m,
        m_working=m_work,
        charseries=norm_series,
        qexp_polygon=qpoly,
        slopes=norm_poly,
        naive_slopes=naive_poly,
        comparison=compare(k, m, spectrum, norm_poly) if compared else None,
        naive_shift_checked=naive_checked,
    )


def _scaled_series(series: CharSeries, shift: int, p: int, m: int) -> CharSeries:
    coeffs = tuple(c * p ** (shift * j) for j, c in enumerate(series.coeffs))
    return CharSeries(coeffs, p, m)


class ClassicalityReport(NamedTuple):
    p: int
    weight: int
    twist_depth: int
    m_requested: int
    m_working: int
    comparison: Comparison


def classicality_check(k: int, p: int, twist_depth: int, m: int) -> ClassicalityReport:
    """Compare overconvergent and classical slopes strictly below
    min(k-1, m-2): the comparison that ``slope_spectrum`` attaches when
    it certifies through that bound.

    Slope classes at exactly k-1 sit on the classicality boundary and
    are reported separately, never counted on either side.  The bound
    is checked first (k >= 2 and m >= 3 are required: below them
    nothing is compared), then ``slope_spectrum`` checks p and k and
    certifies the comparison range by the rule that ``_spectrum_core``
    states, whose cap always certifies it.  The verdict is the one
    ``classical.compare`` reads from that polygon, and the classical
    spectrum is built once.
    """
    bound = comparison_bound(k, m)
    report = slope_spectrum(k, p, twist_depth, m, certify_below=bound)
    return ClassicalityReport(p, k, twist_depth, m, report.m_working, report.comparison)
