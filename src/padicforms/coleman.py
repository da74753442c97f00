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
more.

Normalization bookkeeping: the solver computes the matrix of the
weight-independent q-expansion operator  f -> sum a_{np} q^n  (this is
U_p in any weight k >= 1).  The naive operator is p times it and the
weight-k normalized operator is p^{max(0, 1-k)} times it, so their
polygons are exact slope shifts of the base polygon; the shifts are
still cross-checked against independently assembled matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .charseries import (
    CharSeries,
    NewtonPolygon,
    char_series,
    newton_polygon,
)
from .errors import ConfigError, PrecisionError, VerificationError
from .forms import (
    SUPPORTED_PRIMES,
    MillerPowers,
    PowerTable,
    basis_dimension,
    clear_tails,
    e4_e6_exponents,
    eisenstein,
    miller_rows,
)
from .hida import tp_matrix
from .linalg import solve_in_basis
from .padic import PadicMatrix, is_prime
from .qexp import ZZ, ModRing, QSeries


def _check_even(k: int) -> None:
    if k % 2 != 0:
        raise ConfigError(f"odd weight {k}: level-1 q-expansion models are empty")


@dataclass(frozen=True)
class Readout:
    """What U_p and the solve read of one Katz element f over Z/p^m.

    ``head`` is f to q-precision D, and ``spine`` is sum_{n<D} a_{np} q^n,
    the q-expansion operator's image of f to q-precision D.  Row
    operations and reduction act on both alike.
    """

    head: QSeries
    spine: QSeries

    @classmethod
    def of(cls, series: QSeries, factor: Optional[QSeries], p: int, d: int) -> "Readout":
        """The readout of series * factor, or of series alone when factor
        is None."""
        head, spine = range(d), range(0, p * d, p)
        if factor is None:
            return cls(series.select(head), series.select(spine))
        return cls(series.product_at(factor, head), series.product_at(factor, spine))

    def __sub__(self, other: "Readout") -> "Readout":
        return Readout(self.head - other.head, self.spine - other.spine)

    def scale(self, c: int) -> "Readout":
        return Readout(self.head.scale(c), self.spine.scale(c))

    def to_ring(self, ring: ModRing) -> "Readout":
        return Readout(self.head.to_ring(ring), self.spine.to_ring(ring))


@dataclass(frozen=True)
class KatzBasis:
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
    def block_sizes(self) -> tuple:
        return tuple(hi - lo for lo, hi in zip((0,) + self.ladder, self.ladder))

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

    def elements_mod(self, m: int) -> List[Readout]:
        """The readouts of the elements b_{i,j} * E_{p-1}^{-i} over Z/p^m.

        Row c of the Miller rows, new in rung i_c at weight w_c, is
        E4^a E6^b Delta^c before the rows after it in its rung clear its
        tail, (a, b) by ``e4_e6_exponents(w_c - 12c)``.  So one running
        product R_c = Delta^c * E_{p-1}^{-i_c}, a full series through
        q^(p(D-1)), the last coefficient read, carries every element:
        R_c = R_{c-1} * Delta * E_{p-1}^{-g}, g = i_c - i_{c-1}, and
        element c is R_c * E4^a E6^b.
        Each step factor is built once per gap g and each E4^a E6^b once
        per (a, b).  That last factor enters only the readout, by one dot
        product per coefficient read, and not at all when it is 1.  A rung
        with several new rows then gets the row operations of
        ``forms.miller_rows`` on its readouts, with multipliers read from
        the Miller monomials to q-precision D only.  Truncated series
        arithmetic over Z/p^m is exact, commutative and associative, so
        these are the readouts of the integral rows reduced mod p^m times
        E_{p-1}^{-i}, equal coefficient for coefficient.
        """
        ring = ModRing(self.p, m)
        d = self.dimension
        qprec = self.p * (d - 1) + 1 if d else 1  # through q^(p(D-1))
        powers = MillerPowers(qprec, ring)
        times = powers.product
        # e_inv[0] is powers.one itself, so ``times`` skips it
        e_inv = PowerTable(eisenstein(self.p - 1, qprec, ring).inverse(), powers.one)
        steps = {}  # gap g -> Delta * E_{p-1}^{-g}
        monomials = {(0, 0): None}  # (a, b) -> E4^a E6^b, None for 1
        probes = None  # Miller powers to q-precision D, for the multipliers
        running = last = None  # R_c and i_c of the row before
        out: List[Readout] = []
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
                ab = e4_e6_exponents(weight - 12 * c)
                if ab not in monomials:
                    monomials[ab] = times(powers.e4[ab[0]], powers.e6 if ab[1] else powers.one)
                block.append(Readout.of(running, monomials[ab], self.p, d))
            if len(block) > 1:
                if probes is None:
                    probes = MillerPowers(d, ring)
                clear_tails([probes.monomial(weight, c) for c in range(lo, hi)], lo, block)
            out.extend(block)
        for g, element in enumerate(out):
            if element.head.leading_index() != g or element.head.coefficient(g) != 1:
                raise VerificationError(
                    f"Katz element {g} is not in echelon position"
                )
        return out


def katz_basis(k: int, p: int, twist_depth: int) -> KatzBasis:
    """The Katz-expansion basis at weight k and twist depth I.

    Block sizes are the jumps of the dimension ladder
    dim M_{k + i(p-1)}.  Only the ladder is computed here:
    ``KatzBasis.elements_mod`` builds the readouts of the new Miller rows
    of each rung, times E_{p-1}^{-i}, in the ring it evaluates over: the
    coefficients that one U_p application and the solve for its
    coordinates read.
    """
    if p not in SUPPORTED_PRIMES:
        raise ConfigError(f"p must be one of {SUPPORTED_PRIMES}, got {p}")
    _check_even(k)
    if twist_depth < 0:
        raise ConfigError("twist depth must be >= 0")
    dims = tuple(basis_dimension(k + i * (p - 1)) for i in range(twist_depth + 1))
    for lo, hi in zip(dims, dims[1:]):
        if hi < lo:
            raise VerificationError("dimension ladder must be nondecreasing")
    return KatzBasis(p, k, twist_depth, dims)


def normalization_shift(k: int, kind: str) -> int:
    """Slope shift of a normalization relative to the q-expansion operator."""
    if kind == "qexp":
        return 0
    if kind == "naive":
        return 1
    if kind == "weight":
        return max(0, 1 - k)
    raise ConfigError(f"unknown normalization {kind!r}")


def up_matrix(basis: KatzBasis, m: int, normalization: str = "weight") -> PadicMatrix:
    """Matrix of U_p on the Katz basis over Z/p^m.

    ``normalization`` selects the weight normalization (default), the
    naive operator, or the bare q-expansion operator; the matrix is
    assembled by applying the chosen operator and solving in the basis,
    which loses no digit.
    """
    elements = basis.elements_mod(m) if basis.dimension else []
    return _solve_up(basis, elements, m, normalization)


def _solve_up(
    basis: KatzBasis, elements: Sequence[Readout], m: int, normalization: str
) -> PadicMatrix:
    """``up_matrix`` on Katz element readouts already evaluated over
    Z/p^m: the heads make the basis matrix, and each spine, scaled by
    p^``normalization_shift``, is an image to solve for.  Element g is
    q^g + O(q^(g+1)), so the heads are lower unitriangular and the solve
    is one forward substitution over Z/p^m."""
    scale = basis.p ** normalization_shift(basis.weight, normalization)
    d = basis.dimension
    tag = f"katz:p{basis.p}:k{basis.weight}:I{basis.twist_depth}"
    coeff_rows = [[e.head.coeffs[c] for e in elements] for c in range(d)]
    bmat = PadicMatrix.from_rows(coeff_rows, basis.p, m)
    return solve_in_basis([e.spine.scale(scale).coeffs for e in elements], bmat).as_matrix(tag)


def shift_polygon(poly: NewtonPolygon, shift: int) -> NewtonPolygon:
    """Polygon of the operator scaled by p^shift: every slope moves by shift."""
    if shift == 0:
        return poly
    return NewtonPolygon(
        tuple(s + shift for s in poly.slopes),
        poly.multiplicities,
        tuple((j, v + shift * j) for j, v in poly.vertices),
        poly.certified_degree,
        None if poly.next_slope_floor is None else poly.next_slope_floor + shift,
        poly.warning,
    )


@dataclass(frozen=True)
class SlopeReport:
    """Certified slope data of U_p at one weight, with the classical
    comparison attached for k >= 2."""

    p: int
    weight: int
    twist_depth: int
    qprec: int
    m_requested: int
    m_working: int
    m_effective: int
    charseries: CharSeries  # weight-normalized coefficients
    qexp_polygon: NewtonPolygon
    slopes: NewtonPolygon  # weight-normalized
    naive_slopes: NewtonPolygon
    threshold: Fraction
    classical_slopes: Optional[tuple]
    verdicts: tuple
    naive_shift_checked: bool


def _spectrum_core(
    k: int,
    p: int,
    twist_depth: int,
    m: int,
    certify_below: Optional[Fraction],
):
    """q-expansion-operator matrix and polygon, raising the working
    modulus until the polygon certifies through the requested bound.

    This is the library's one certify-by-raising-m loop.  With bound b
    it starts at m_work = max(m, floor(b) + 3), steps by max(4, floor(b))
    and gives up with ``PrecisionError`` past the cap
    m + floor(b) * max(D, 2) + 16, D the Katz dimension.  Without a bound
    it runs once at m.  The Katz element readouts, the U_p matrix and its
    characteristic series are computed once, at the top modulus (the cap,
    or m without a bound); each step reads the Newton polygon of that
    series reduced to Z/p^m_work.  This is exact: the solve has unit
    pivots and the series is computed by integral similarities and a
    division-free recurrence, so both commute with reduction.  The step
    that certifies returns the matrix and the readouts reduced to its
    modulus.
    """
    basis = katz_basis(k, p, twist_depth)
    d = basis.dimension
    bound = None if certify_below is None else Fraction(certify_below)
    m_work = max(m, (int(bound) + 3) if bound is not None else m)
    cap = m + (int(bound) if bound is not None else 0) * max(d, 2) + 16
    m_top = max(m_work, cap) if bound is not None else m_work
    top = basis.elements_mod(m_top)
    top_matrix = _solve_up(basis, top, m_top, "qexp")
    top_series = char_series(top_matrix)
    while True:
        series = CharSeries(top_series.coeffs, p, m_work)
        poly = newton_polygon(series)
        if bound is None or poly.certifies_through(bound):
            ring = ModRing(p, m_work)
            elements = [e.to_ring(ring) for e in top]
            return basis, elements, top_matrix.reduce(m_work), series, poly, m_work
        if m_work >= cap:
            raise PrecisionError(
                f"slopes below {bound} not certified at modulus {p}^{m_work} "
                f"(indeterminate at requested precision)"
            )
        m_work = min(cap, m_work + max(4, int(bound)))


def slope_spectrum(
    k: int,
    p: int,
    twist_depth: int,
    m: int,
    certify_below: Optional[Fraction] = None,
    classical: bool = True,
) -> SlopeReport:
    """Newton slopes of U_p on the weight-k overconvergent model.

    All normalized slopes are checked to be >= 0, the naive spectrum is
    cross-checked to sit exactly inf{1,k} above the normalized one, and
    for k >= 2 the classical oracle is attached with a per-slope-class
    verdict below the classicality threshold k-1.

    With ``certify_below`` = b the working modulus is raised until the
    q-expansion polygon certifies every slope below b: from
    max(m, floor(b) + 3) in steps of max(4, floor(b)), up to the cap
    m + floor(b) * max(D, 2) + 16 (D the Katz dimension), past which
    ``PrecisionError`` is raised.  Every certified spectrum in the
    library, the theta probe's included, goes through this one rule.
    The checks above run once, at the final modulus.  The Katz elements,
    the U_p solve and the characteristic series are computed once per
    spectrum, at the cap (at m without a bound); each step only reduces
    the series to the working modulus and reads its polygon.  The naive
    cross-check is assembled independently from the element readouts
    reduced to the final modulus.
    """
    _check_even(k)
    basis, elements, matrix, series, qpoly, m_work = _spectrum_core(
        k, p, twist_depth, m, certify_below
    )
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
    naive_matrix = _solve_up(basis, elements, m_work, "naive")
    naive_series = char_series(naive_matrix)
    expected = _scaled_series(series, 1, p, m_work)
    naive_checked = naive_series == expected
    if not naive_checked:
        raise VerificationError("naive U_p char series fails the p-scaling relation")
    naive_poly = shift_polygon(qpoly, 1)

    threshold = Fraction(k - 1)
    classical_slopes = None
    verdicts: List[dict] = []
    if classical and k >= 2:
        classical_slopes = classical_up_spectrum(k, p)
        verdicts = _slope_class_verdicts(norm_poly, classical_slopes, threshold, m)
    return SlopeReport(
        p=p,
        weight=k,
        twist_depth=twist_depth,
        qprec=basis.qprec,
        m_requested=m,
        m_working=m_work,
        m_effective=matrix.m,
        charseries=norm_series,
        qexp_polygon=qpoly,
        slopes=norm_poly,
        naive_slopes=naive_poly,
        threshold=threshold,
        classical_slopes=tuple(classical_slopes) if classical_slopes is not None else None,
        verdicts=tuple(verdicts),
        naive_shift_checked=naive_checked,
    )


def _scaled_series(series: CharSeries, shift: int, p: int, m: int) -> CharSeries:
    coeffs = tuple(c * p ** (shift * j) for j, c in enumerate(series.coeffs))
    return CharSeries(coeffs, p, m)


def _slope_class_verdicts(poly, classical_slopes, threshold, m_requested) -> List[dict]:
    bound = min(threshold, Fraction(m_requested - 2))
    over = poly.slopes_below(bound) if poly.certifies_through(bound) else None
    out = []
    if over is None:
        return [{"slope": None, "verdict": "indeterminate"}]
    cl = [s for s in classical_slopes if s < bound]
    for s in sorted(set(over) | set(cl)):
        o, c = over.count(s), cl.count(s)
        verdict = "match" if o == c else ("extra-overconvergent" if o > c else "missing-overconvergent")
        out.append({"slope": s, "overconvergent": o, "classical": c, "verdict": verdict})
    return out


# ---------------------------------------------------------------------------
# classical side


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def genus_x0(p: int) -> int:
    """Genus of X_0(p) for prime p >= 5."""
    nu2 = 1 + _legendre(-1, p)
    nu3 = 1 + _legendre(-3, p)
    g = Fraction(p + 1, 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
    return int(g)


def dim_cusp_forms_gamma0_prime(k: int, p: int) -> int:
    """dim S_k(Gamma_0(p)) for prime p >= 5 and even k >= 2."""
    if not is_prime(p) or p < 5:
        raise ConfigError(f"dimension formula needs a prime p >= 5, got {p}")
    if k < 2 or k % 2 != 0:
        return 0
    g = genus_x0(p)
    if k == 2:
        return g
    nu2 = 1 + _legendre(-1, p)
    nu3 = 1 + _legendre(-3, p)
    return (k - 1) * (g - 1) + (k // 2 - 1) * 2 + nu2 * (k // 4) + nu3 * (k // 3)


def dim_new_cusp_forms_gamma0_prime(k: int, p: int) -> int:
    """dim S_k^new(Gamma_0(p)) = dim S_k(Gamma_0(p)) - 2 dim S_k(level 1)."""
    level1 = max(basis_dimension(k) - 1, 0)
    new = dim_cusp_forms_gamma0_prime(k, p) - 2 * level1
    if new < 0:
        raise VerificationError("negative new-form dimension: formula inputs corrupt")
    return new


def classical_up_spectrum(k: int, p: int) -> List[Fraction]:
    """U_p slope multiset on weight-k forms of level Gamma_0(p).

    Old part: Newton slopes of det(x^2 - x T_p + p^(k-1)) on the full
    level-1 space of dimension d, read from the 2d x 2d block companion
    matrix B = [[T_p, -p^(k-1)], [1, 0]] (so no eigensystem factoring is
    needed).  B is integral, so its series is computed mod p^M with
    M = d(k-1) + 1, which loses nothing: c_0 = 1 and c_2d = det(B) =
    p^(d(k-1)) exactly, so the lower hull runs from (0, 0) to
    (2d, d(k-1)) and by convexity never rises above d(k-1) < M.  A
    coefficient that reads 0 mod p^M therefore lies strictly above the
    hull, every nonzero residue has its exact valuation, and the polygon
    certifies through degree 2d with the integer slopes.  That
    certification is checked, not assumed.  New cuspidal part: slope
    (k-2)/2 with the new-form multiplicity, from the Atkin-Lehner
    relation; only the valuation is used, never the sign.  At k = 2 the
    only Eisenstein series is the ordinary stabilization, of slope 0.
    """
    if k < 2 or k % 2 != 0:
        raise ConfigError(f"classical oracle needs even k >= 2, got {k}")
    new_mult = dim_new_cusp_forms_gamma0_prime(k, p)  # ConfigError for p < 5 first
    slopes: List[Fraction] = []
    d1 = basis_dimension(k)
    if k == 2:
        slopes.append(Fraction(0))  # weight-2 Eisenstein stabilization
    elif d1 > 0:
        t_rows = tp_matrix(k, p)
        c = p ** (k - 1)
        block = [[0] * (2 * d1) for _ in range(2 * d1)]
        for i in range(d1):
            for j in range(d1):
                block[i][j] = t_rows[i][j]
            block[i][d1 + i] = -c
            block[d1 + i][i] = 1
        matrix = PadicMatrix.from_rows(block, p, d1 * (k - 1) + 1)
        poly = newton_polygon(char_series(matrix))
        if poly.certified_degree != 2 * d1 or poly.next_slope_floor is not None:
            raise VerificationError(
                f"classical polygon at weight {k} not certified through degree {2 * d1}"
            )
        slopes.extend(poly.slope_multiset())
    slopes.extend([Fraction(k - 2, 2)] * new_mult)
    return sorted(slopes)


@dataclass(frozen=True)
class ClassicalityReport:
    p: int
    weight: int
    twist_depth: int
    m_requested: int
    m_working: int
    compared_below: Fraction
    overconvergent: tuple
    classical: tuple
    boundary_overconvergent: Optional[int]
    boundary_classical: int
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def classicality_check(k: int, p: int, twist_depth: int, m: int) -> ClassicalityReport:
    """Compare overconvergent and classical slopes strictly below
    min(k-1, m-2).

    Slope classes at exactly k-1 sit on the classicality boundary and
    are reported separately, never counted on either side.  The working
    modulus is raised internally until the Newton polygon certifies the
    comparison range; if that fails within the cap the verdict is
    indeterminate.
    """
    if k < 2:
        raise ConfigError("classicality comparison needs k >= 2")
    threshold = Fraction(k - 1)
    bound = min(threshold, Fraction(m - 2))
    classical = classical_up_spectrum(k, p)
    try:
        report = slope_spectrum(
            k, p, twist_depth, m, certify_below=bound, classical=False
        )
    except PrecisionError:
        return ClassicalityReport(
            p, k, twist_depth, m, m, bound, (), tuple(s for s in classical if s < bound),
            None, sum(1 for s in classical if s == threshold), "indeterminate",
        )
    over_all = report.slopes
    over = sorted(over_all.slopes_below(bound))
    cl = sorted(s for s in classical if s < bound)
    boundary_over = (
        over_all.slopes_at(threshold)
        if over_all.certifies_through(threshold + Fraction(1, 2))
        else None
    )
    boundary_cl = sum(1 for s in classical if s == threshold)
    verdict = "pass" if over == cl else "fail"
    return ClassicalityReport(
        p=p,
        weight=k,
        twist_depth=twist_depth,
        m_requested=m,
        m_working=report.m_working,
        compared_below=bound,
        overconvergent=tuple(over),
        classical=tuple(cl),
        boundary_overconvergent=boundary_over,
        boundary_classical=boundary_cl,
        verdict=verdict,
    )
