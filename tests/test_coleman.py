import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicforms import classical, coleman
from padicforms.charseries import CharSeries, char_series, newton_polygon
from padicforms.classical import (
    Comparison,
    classical_up_spectrum,
    compare,
    dim_cusp_forms_gamma0_prime,
    dim_new_cusp_forms_gamma0_prime,
    genus_x0,
)
from padicforms.coleman import (
    KatzBasis,
    classicality_check,
    katz_basis,
    shift_polygon,
    slope_spectrum,
    up_matrix,
)
from padicforms.errors import ConfigError, VerificationError
from padicforms.forms import SUPPORTED_PRIMES, basis_dimension, eisenstein, miller_basis
from padicforms.hecke import NORMALIZATIONS, normalization_shift, up
from padicforms.hida import ordinary_rank_mod_p
from padicforms.linalg import invert_unimodular
from padicforms.padic import is_prime
from padicforms.qexp import ModRing, QSeries

from test_linalg import random_unimodular


def F(x):
    return Fraction(x)


def test_katz_basis_shapes():
    b = katz_basis(0, 5, 0)
    assert b.dimension == 1 and b.ladder == (1,)
    b = katz_basis(0, 5, 3)
    # dimension ladder 1, 1, 1, 2 at weights 0, 4, 8, 12
    assert b.ladder == (1, 1, 1, 2)
    assert b.dimension == 2
    b = katz_basis(4, 5, 2)
    assert b.ladder == (1, 1, 2)
    assert b.dimension == 2
    b = katz_basis(-2, 5, 3)
    assert b.ladder == (0, 0, 1, 1)


def test_katz_basis_validation():
    with pytest.raises(ConfigError):
        katz_basis(4, 3, 2)
    with pytest.raises(ConfigError):
        katz_basis(5, 5, 2)
    with pytest.raises(ConfigError, match="^twist depth must be >= 0$"):
        katz_basis(4, 5, -1)


def test_dimension_ladder_never_falls():
    # ``katz_basis`` reads block sizes as the ladder's jumps: dim M_k does
    # not drop along a step p - 1 >= 4 (it does along 2: dim M_14 = 1)
    for p in SUPPORTED_PRIMES:
        for k in range(-200, 601, 2):
            assert basis_dimension(k + p - 1) >= basis_dimension(k), (k, p)


def test_katz_elements_refuse_a_basis_out_of_echelon_form(monkeypatch):
    # with 2 E_{p-1} for E_{p-1}, element 1 of (4, 5, 2), new in rung 2,
    # leads with 1/4
    real = coleman.eisenstein
    monkeypatch.setattr(coleman, "eisenstein", lambda *args: real(*args).scale(2))
    with pytest.raises(VerificationError, match="^Katz element 1 is not in echelon position$"):
        katz_basis(4, 5, 2).elements_mod(8)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    st.integers(-5, 12).map(lambda h: 2 * h),
    st.sampled_from(SUPPORTED_PRIMES),
    st.integers(0, 12),
)
def test_katz_blocks_are_the_new_miller_rows(k, p, twist_depth):
    # block i is, by definition, rows prev..d of the full weight k + i(p-1)
    # Miller basis, prev and d the dimensions of rungs i-1 and i
    basis = katz_basis(k, p, twist_depth)
    prev = 0
    for i, block in enumerate(basis.blocks):
        forms = miller_basis(k + i * (p - 1), basis.qprec).forms
        assert block == forms[prev:]
        prev = len(forms)


# deep ladders beyond the drawn range: (4, 5, 60) one new row per rung;
# (12, 13, 20) a two-row first rung; (10, 11, 20) two-row rungs 4 -> 6,
# 9 -> 11 and 14 -> 16
@example(4, 5, 60, 8)
@example(12, 13, 20, 8)
@example(10, 11, 20, 8)
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    st.integers(-5, 12).map(lambda h: 2 * h),
    st.sampled_from(SUPPORTED_PRIMES),
    st.integers(0, 12),
    st.integers(1, 12),
)
def test_katz_elements_mod_match_integral_blocks(k, p, twist_depth, m):
    # the definition: the readouts of the Z blocks reduced mod p^m, times
    # E_{p-1}^{-i} stepped one rung at a time; a readout is f to
    # q-precision D followed by the q-expansion U_p image of f to
    # q-precision D, one series of 2D coefficients
    basis = katz_basis(k, p, twist_depth)
    d = basis.dimension
    ring = ModRing(p, m)
    e_inv = eisenstein(p - 1, basis.qprec, ring).inverse()
    power = QSeries.constant(1, basis.qprec, ring)
    expected = []
    for i, block in enumerate(basis.blocks):
        if i > 0:
            power = power * e_inv
        expected += [QSeries(ring, b.coeffs) * power for b in block]
    readouts = [
        QSeries.from_coeffs(e.coeffs[:d] + up(e, 1, p).coeffs[:d], ring) for e in expected
    ]
    assert basis.elements_mod(m) == readouts


def test_katz_elements_mod_product_count(monkeypatch):
    # one running product Delta^c E_{p-1}^{-i_c} carries every element:
    # 26 full series products at (4, 5, 60), against 88 when each row took
    # its own Miller monomial and E_{p-1}^{-i} products.  E4^a E6^b enters
    # only the readouts, by dot products: 20 at (14, 5, 34), against 32
    # when it multiplied the running product in full
    products = []
    multiply = QSeries.__mul__

    def counted(f, g):
        products.append(1)
        return multiply(f, g)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    for (k, p, twist_depth), most in [((4, 5, 60), 40), ((14, 5, 34), 20)]:
        products.clear()
        katz_basis(k, p, twist_depth).elements_mod(8)
        assert len(products) <= most


def test_katz_elements_echelon():
    b = katz_basis(4, 5, 6)
    elements = b.elements_mod(8)
    assert len(elements) == b.dimension
    for g, e in enumerate(elements):
        assert e.qprec == 2 * b.dimension
        assert e.leading_index() == g
        assert e.coefficient(g) == 1


@example(4, 5, 6, 3, 1)
@example(-4, 13, 4, 1, 40)
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    st.integers(-5, 12).map(lambda h: 2 * h),
    st.sampled_from(SUPPORTED_PRIMES),
    st.integers(0, 10),
    st.integers(1, 10),
    st.integers(1, 40),
)
def test_solve_up_reads_readouts_built_at_a_higher_modulus(k, p, twist_depth, m, extra):
    # _spectrum_core hands the readouts built at its largest modulus M to
    # the solve at the certifying modulus m <= M: the solve reduces them
    basis = katz_basis(k, p, twist_depth)
    elements = basis.elements_mod(m + extra)
    for kind in NORMALIZATIONS:
        shift = normalization_shift(k, kind)
        assert coleman._solve_up(basis, elements, m, shift) == up_matrix(basis, m, kind)


def test_up_matrix_weight_zero_constant():
    # constants are fixed by the q-expansion operator; the weight-0
    # normalization p^(-inf{1,0}) U_naive multiplies by p
    b = katz_basis(0, 5, 0)
    assert up_matrix(b, 6, normalization="qexp").rows == ((1,),)
    assert up_matrix(b, 6).rows == ((5,),)


@pytest.mark.parametrize("kind", NORMALIZATIONS)
def test_up_matrix_of_an_empty_basis(kind):
    # M_2 = 0 and depth 0 adds no rung: D = 0, no element, the 0 x 0 matrix
    basis = katz_basis(2, 5, 0)
    assert basis.dimension == 0 and basis.elements_mod(4) == []
    matrix = up_matrix(basis, 4, kind)
    assert (matrix.rows, matrix.p, matrix.m) == ((), 5, 4)


def test_up_matrix_ordinary_multiplicity_weight4():
    b = katz_basis(4, 5, 10)
    mat = up_matrix(b, 8)
    poly = newton_polygon(char_series(mat))
    assert poly.slope_multiset().count(0) == 1


def test_up_matrix_similarity_invariance():
    import random

    b = katz_basis(4, 5, 6)
    mat = up_matrix(b, 6)
    base = char_series(mat).coeffs
    rng = random.Random(3)
    for _ in range(3):
        g = random_unimodular(rng, mat.size, 5, 6)
        conj = invert_unimodular(g) @ mat @ g
        assert char_series(conj).coeffs == base


def test_up_matrix_normalization_scaling():
    # the three normalizations differ by exact p-power scalings
    for k in (4, 0, -2):
        b = katz_basis(k, 5, 8)
        q = up_matrix(b, 8, normalization="qexp")
        naive = up_matrix(b, 8, normalization="naive")
        weight = up_matrix(b, 8, normalization="weight")
        assert naive == q.scale(5)
        assert weight == q.scale(5 ** max(0, 1 - k))


def test_up_matrix_rejects_unknown_normalization_first(monkeypatch):
    # the kind is resolved before any Katz element is built
    def refuse(self, m):
        raise AssertionError("elements_mod ran before the normalization was checked")

    monkeypatch.setattr(KatzBasis, "elements_mod", refuse)
    with pytest.raises(ConfigError, match="unknown normalization 'bogus'"):
        up_matrix(katz_basis(4, 5, 120), 30, "bogus")


def test_slope_spectrum_weight4():
    rep = slope_spectrum(4, 5, 12, 9, certify_below=F(3))
    assert rep.slopes.slopes_below(F(3)) == [F(0), F(1)]
    assert rep.naive_shift_checked
    assert rep.naive_slopes.slope_multiset()[:2] == [F(1), F(2)]
    assert all(s >= 0 for s in rep.slopes.slope_multiset())
    assert rep.comparison.spectrum == (F(0), F(1), F(3))


def _count_builds(monkeypatch):
    """Record the modulus of every Katz element build and every char
    series that ``coleman`` makes."""
    calls, series_calls = [], []
    real_elements_mod = KatzBasis.elements_mod
    real_char_series = coleman.char_series

    def counting_elements_mod(self, m):
        calls.append(m)
        return real_elements_mod(self, m)

    def counting_char_series(matrix):
        series_calls.append(matrix.m)
        return real_char_series(matrix)

    monkeypatch.setattr(KatzBasis, "elements_mod", counting_elements_mod)
    monkeypatch.setattr(coleman, "char_series", counting_char_series)
    return calls, series_calls


def test_slope_spectrum_builds_katz_elements_once(monkeypatch):
    # at b = 8 <= k - 1, compared with the classical side or not, the
    # elements, the q-expansion solve and its char series are built once,
    # at the modulus the classical slopes predict, which certifies here,
    # not at the cap m + floor(b) * max(D, 2) + 16 = 130; without the
    # classical slopes the plan would be the first step past b * D = 104,
    # 107.  The m-raising steps only reduce that series, and the naive
    # cross-check takes the second char series, at the final modulus
    assert 10 + 8 * max(katz_basis(14, 5, 34).dimension, 2) + 16 == 130
    calls, series_calls = _count_builds(monkeypatch)
    for classical_side in (True, False):
        calls.clear()
        series_calls.clear()
        rep = slope_spectrum(14, 5, 34, 10, certify_below=F(8), classical=classical_side)
        assert rep.m_working == 91
        assert calls == [91]
        assert series_calls == [91, 91]


SPECTRUM_FIELDS = ("charseries", "m_working", "qexp_polygon", "slopes", "naive_slopes")


def _plan_the_cap(monkeypatch):
    """Make every spectrum build its Katz elements at the cap first."""
    monkeypatch.setattr(coleman, "_planned_modulus", lambda grid, *args: grid[-1])


def _spectrum_fields(k, p, twist_depth, m, bound, classical_side):
    """The fields of a spectrum that the classical side must not change."""
    rep = slope_spectrum(k, p, twist_depth, m, certify_below=bound, classical=classical_side)
    return tuple(getattr(rep, name) for name in SPECTRUM_FIELDS)


# (14, 11, 9, 10) plans 75 from the classical slopes below 8 and
# certifies at 59: the walk must start at the first step, not at the plan
@example(14, 11, 9, 10, F(8))
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    st.integers(1, 12).map(lambda h: 2 * h),
    st.sampled_from(SUPPORTED_PRIMES),
    st.integers(0, 20),
    st.integers(3, 12),
    st.integers(0, 30).map(lambda n: Fraction(n, 2)),
)
def test_planned_modulus_changes_no_result(k, p, twist_depth, m, b):
    # the plan only picks the modulus of the first build: built there or
    # at the cap, the same series, modulus and polygons (b up to 15 lies
    # both below and above k - 1, so both rules of the plan are read)
    planned = _spectrum_fields(k, p, twist_depth, m, b, True)
    with pytest.MonkeyPatch.context() as patch:
        _plan_the_cap(patch)
        assert _spectrum_fields(k, p, twist_depth, m, b, True) == planned


@pytest.mark.parametrize(
    "wrong_spectrum, elements_at",
    # all slopes 0 plans the first step, which does not certify, so the
    # elements are built again at the cap; no slope below b plans
    # 8 * D = 104, and so 107, past the certifying 91
    [([F(0)] * 40, [11, 130]), ([F(100)] * 40, [107])],
)
def test_wrong_classical_spectrum_changes_no_result(monkeypatch, wrong_spectrum, elements_at):
    want = _spectrum_fields(14, 5, 34, 10, F(8), False)
    monkeypatch.setattr(coleman, "classical_up_spectrum", lambda k, p: wrong_spectrum)
    calls, _ = _count_builds(monkeypatch)
    assert _spectrum_fields(14, 5, 34, 10, F(8), True) == want
    assert calls == elements_at


# every spectrum certified without the classical comparison by criteria
# 6 and 8 (at depths I and I + 2) and by the theta probes (source, then
# target), with the modulus its Katz elements are planned at: the first
# grid step past v + b(D - j), j and v the number and sum of the
# classical slopes below b for (12, 5), where b = 8 <= k - 1, and 0 for
# the rest, whose target is b * D
UNCOMPARED_SPECTRA = [
    (2, 5, 12, 10, F(2), 10),
    (2, 5, 14, 10, F(2), 10),
    (4, 5, 12, 10, F(4), 22),
    (4, 5, 14, 10, F(4), 26),
    (12, 5, 24, 10, F(8), 59),
    (12, 5, 26, 10, F(8), 59),
    (4, 7, 10, 10, F(4), 26),
    (4, 7, 12, 10, F(4), 30),
    (0, 5, 15, 10, F(4), 26),
    (2, 5, 22, 10, F(7), 59),
    (-2, 5, 17, 10, F(4), 26),
    (4, 5, 20, 10, F(9), 75),
    (-2, 7, 11, 10, F(4), 26),
    (4, 7, 14, 10, F(9), 75),
]


@pytest.mark.parametrize("k, p, twist_depth, m, b, plan", UNCOMPARED_SPECTRA)
def test_uncompared_spectra_build_once_at_their_plan(monkeypatch, k, p, twist_depth, m, b, plan):
    # each builds its elements once, at its plan, and reports what a
    # build at the cap reports
    cap = m + int(b) * max(katz_basis(k, p, twist_depth).dimension, 2) + 16
    calls, _ = _count_builds(monkeypatch)
    planned = _spectrum_fields(k, p, twist_depth, m, b, False)
    assert calls == [plan]
    calls.clear()
    _plan_the_cap(monkeypatch)
    assert _spectrum_fields(k, p, twist_depth, m, b, False) == planned
    assert calls == [cap]


def test_a_spectrum_uncertified_at_its_plan_rebuilds_at_the_cap(monkeypatch):
    """No step up to the plan 59 of (12, 5, I = 24) certifies here: the
    elements are built again at the cap before the walk reads step 67,
    which then certifies as it does from a build at the cap."""
    real = coleman.newton_polygon

    def uncertified_to_59(series):
        poly = real(series)
        return poly if series.m > 59 else poly._replace(next_slope_floor=F(0))

    monkeypatch.setattr(coleman, "newton_polygon", uncertified_to_59)
    calls, _ = _count_builds(monkeypatch)
    rebuilt = _spectrum_fields(12, 5, 24, 10, F(8), False)
    assert calls == [59, 106]
    assert rebuilt[SPECTRUM_FIELDS.index("m_working")] == 67
    calls.clear()
    _plan_the_cap(monkeypatch)
    assert _spectrum_fields(12, 5, 24, 10, F(8), False) == rebuilt
    assert calls == [106]


@pytest.mark.parametrize(
    "k, p, twist_depth, m, bound, m_working",
    [(14, 5, 34, 10, F(8), 91), (10, 11, 11, 12, F(9), 57)],
)
def test_spectrum_core_matches_a_direct_solve(k, p, twist_depth, m, bound, m_working):
    # reducing the cap's series equals solving at m_working
    basis = katz_basis(k, p, twist_depth)
    _, series, _, m_work = coleman._spectrum_core(basis, m, bound)
    assert m_work == m_working
    direct = up_matrix(basis, m_work, "qexp")
    assert series == char_series(direct)


def test_the_grid_of_an_integer_bound_is_unchanged():
    # the cap m + ceil(b * max(D, 2)) + 16 reads b where it read floor(b):
    # for an integer b it is the same cap, and so the same grid and plan
    for b in range(21):
        for d in range(91):
            for m in range(1, 13):
                cap = m + b * max(d, 2) + 16
                want = [*range(max(m, b + 3), cap, max(4, b)), cap]
                assert coleman._spectrum_grid(m, d, F(b)) == want, (b, d, m)


# the two fractional bounds whose cap, read at floor(b) = 0, did not
# certify: the series at the caps 24 and 19 stop short of b = 1/2
@example(4, 5, 150, 8, Fraction(1, 2))
@example(0, 5, 120, 3, Fraction(1, 2))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.integers(-2, 12).map(lambda h: 2 * h),
    st.sampled_from(SUPPORTED_PRIMES),
    st.integers(0, 12),
    st.integers(1, 12),
    st.builds(Fraction, st.integers(0, 24), st.sampled_from([1, 2, 3])),
)
def test_the_cap_certifies_every_bound(k, p, twist_depth, m, b):
    # the series built at the last step of the grid certifies every
    # slope below b, so the loop never runs out of steps
    basis = katz_basis(k, p, twist_depth)
    cap = coleman._spectrum_grid(m, basis.dimension, b)[-1]
    assert newton_polygon(char_series(up_matrix(basis, cap, "qexp"))).certifies_through(b)


@pytest.mark.parametrize(
    "k, p, twist_depth, m, m_working", [(4, 5, 150, 8, 28), (0, 5, 120, 3, 23)]
)
def test_a_fractional_bound_certifies(k, p, twist_depth, m, m_working):
    # without a comparison, which would certify through min(k - 1, m - 2)
    half = Fraction(1, 2)
    report = slope_spectrum(k, p, twist_depth, m, certify_below=half, classical=False)
    assert report.m_working == m_working
    assert report.qexp_polygon.certifies_through(half)
    assert report.slopes.certifies_through(half + normalization_shift(k, "weight"))


def test_a_negative_depth_is_refused_before_any_work(monkeypatch):
    built = []
    monkeypatch.setattr(coleman, "classical_up_spectrum", lambda k, p: built.append(k))
    monkeypatch.setattr(KatzBasis, "elements_mod", lambda self, m: built.append(m))
    with pytest.raises(ConfigError, match="twist depth must be >= 0"):
        slope_spectrum(12, 5, -1, 10)
    assert built == []


# slopes 0 and 1 (twice) through degree 3, c_4 saturated: floor 4;
# slopes 0 and 2 to the end: no floor; all saturated: floor 3/2, warned
SHIFT_CASES = [
    (CharSeries((1, 1, 0, 25, 0), 5, 6), (F(0), F(1)), (1, 2), 3, F(4)),
    (CharSeries((1, 1, 25), 5, 6), (F(0), F(2)), (1, 1), 2, None),
    (CharSeries((1, 0, 0), 5, 3), (), (), 0, Fraction(3, 2)),
]


@pytest.mark.parametrize("shift", [-1, 0, 1, 3])
@pytest.mark.parametrize(
    "series, slopes, mults, degree, floor", SHIFT_CASES, ids=["floor_4", "no_floor", "saturated"]
)
def test_shift_polygon_moves_the_slopes_and_the_floor(series, slopes, mults, degree, floor, shift):
    poly = newton_polygon(series)
    assert (poly.slopes, poly.multiplicities) == (slopes, mults)
    assert (poly.certified_degree, poly.next_slope_floor) == (degree, floor)
    moved = shift_polygon(poly, shift)
    assert moved.slopes == tuple(s + shift for s in slopes)
    assert moved.multiplicities == mults
    assert moved.certified_degree == degree
    assert moved.next_slope_floor == (None if floor is None else floor + shift)
    assert moved.warning == poly.warning


def test_slope_spectrum_weight_zero():
    rep = slope_spectrum(0, 5, 12, 9, classical=False)
    # constants are U_p-fixed: q-slope 0; normalized weight-0 slopes shift by 1
    assert rep.qexp_polygon.slope_multiset()[0] == F(0)
    assert rep.slopes.slope_multiset()[0] == F(1)
    assert all(s >= 0 for s in rep.slopes.slope_multiset())


def test_slope_spectrum_ordinary_consistency():
    for k, p in [(4, 5), (12, 5), (6, 7)]:
        rep = slope_spectrum(k, p, 10 if p == 5 else 8, 8, classical=False)
        assert rep.slopes.slope_multiset().count(0) == ordinary_rank_mod_p(k, p)


def test_truncation_stability_invariant():
    for k, p, depth in [(4, 5, 10), (2, 5, 10)]:
        m = 9
        bound = min(m - 1, k)
        a = slope_spectrum(k, p, depth, m, certify_below=F(bound), classical=False)
        b = slope_spectrum(k, p, depth + 2, m, certify_below=F(bound), classical=False)
        assert a.slopes.slopes_below(F(bound)) == b.slopes.slopes_below(F(bound))


def test_gamma0_dimension_formulas():
    assert [genus_x0(p) for p in (5, 7, 11, 13)] == [0, 0, 1, 0]
    assert dim_cusp_forms_gamma0_prime(4, 5) == 1
    assert dim_cusp_forms_gamma0_prime(12, 5) == 5
    assert dim_cusp_forms_gamma0_prime(2, 11) == 1
    assert dim_cusp_forms_gamma0_prime(4, 11) == 2
    assert dim_new_cusp_forms_gamma0_prime(12, 5) == 3
    assert dim_new_cusp_forms_gamma0_prime(4, 5) == 1
    with pytest.raises(ConfigError):
        dim_cusp_forms_gamma0_prime(4, 4)


def test_new_cusp_form_dimension_is_never_negative():
    # f(z) and f(pz) embed S_k(level 1) twice in S_k(Gamma_0(p))
    for p in filter(is_prime, range(5, 100)):
        for k in range(2, 201, 2):
            assert dim_new_cusp_forms_gamma0_prime(k, p) >= 0, (k, p)


def test_classical_spectrum_examples():
    assert classical_up_spectrum(4, 5) == [F(0), F(1), F(3)]
    assert classical_up_spectrum(12, 5) == [F(0), F(1), F(5), F(5), F(5), F(10), F(11)]
    assert classical_up_spectrum(2, 5) == [F(0)]
    assert classical_up_spectrum(4, 7) == [F(0), F(1), F(3)]
    with pytest.raises(ConfigError):
        classical_up_spectrum(3, 5)


def test_classical_spectrum_golden():
    # recorded from the exact integer charpoly: the mod-p^M oracle must
    # reproduce it for every even k in 2..60 and every supported p
    golden_file = Path(__file__).parent / "golden" / "classical_spectra.json"
    golden = json.loads(golden_file.read_text())
    assert sorted(golden) == sorted(str(p) for p in SUPPORTED_PRIMES)
    for p, by_weight in golden.items():
        assert sorted(by_weight, key=int) == [str(k) for k in range(2, 61, 2)]
        for k, slopes in by_weight.items():
            assert [str(s) for s in classical_up_spectrum(int(k), int(p))] == slopes


@pytest.mark.parametrize("k, p", [(4, 5), (12, 5), (24, 7)])
def test_classical_spectrum_checks_its_precision(monkeypatch, k, p):
    # one digit short of M = d(k-1)+1 the last coefficient det(B) reads 0
    # mod p^(M-1), so the polygon stops short of degree 2d and the oracle
    # must refuse to answer
    monkeypatch.setattr(classical, "char_series", lambda u: char_series(u.reduce(u.m - 1)))
    with pytest.raises(VerificationError, match="not certified"):
        classical_up_spectrum(k, p)


def test_classical_spectrum_delta_pair():
    # weight 12 Eisenstein pair {0, 11} and Delta pair {1, 10}
    slopes = classical_up_spectrum(12, 5)
    assert F(0) in slopes and F(11) in slopes
    assert F(1) in slopes and F(10) in slopes


def test_comparison_classes_give_each_slope_its_verdict():
    """One entry per slope on either side below the bound, with both
    counts, in slope order; the whole verdict is a pass only when every
    class matches."""
    half = Fraction(1, 2)
    spectrum = (Fraction(0), half, half, Fraction(2), Fraction(3))
    comparison = Comparison(Fraction(3), spectrum, (0, half, 2, 2), None, 1)
    assert comparison.classes == (
        {"slope": 0, "overconvergent": 1, "classical": 1, "verdict": "match"},
        {"slope": half, "overconvergent": 1, "classical": 2, "verdict": "missing-overconvergent"},
        {"slope": 2, "overconvergent": 2, "classical": 1, "verdict": "extra-overconvergent"},
    )
    assert comparison.verdict == "fail"
    matched = comparison._replace(overconvergent=(0, half, half, 2))
    assert [c["verdict"] for c in matched.classes] == ["match"] * 3
    assert matched.verdict == "pass"


def test_compare_refuses_an_uncertified_range():
    """A polygon whose floor for a further slope lies below the bound
    does not know every slope below it: ``compare`` refuses it rather
    than read a verdict.  Up to the floor it compares, and no slope
    against the classical ones is a fail."""
    polygon = newton_polygon(CharSeries((1, 0, 0), 5, 3))  # no slope, floor 3/2
    spectrum = (F(0), F(1), F(3))
    message = "^polygon at weight 4 not certified below the comparison bound 3$"
    with pytest.raises(VerificationError, match=message):
        compare(4, F(3), spectrum, polygon)
    comparison = compare(4, Fraction(3, 2), spectrum, polygon)
    assert comparison.overconvergent == ()
    assert comparison.classical == (F(0), F(1))
    assert comparison.verdict == "fail"


def test_a_comparison_certifies_its_whole_range():
    # certify_below 1/2 lies below the comparison bound min(k - 1, m - 2) = 3:
    # the spectrum is certified through 3 all the same, as with no bound
    report = slope_spectrum(4, 5, 12, 8, certify_below=Fraction(1, 2))
    assert report.comparison.verdict == "pass"
    assert report.qexp_polygon.certifies_through(F(3))
    assert report == slope_spectrum(4, 5, 12, 8)


def test_classicality_pass_weight4():
    report = classicality_check(4, 5, 12, 10)
    assert report.comparison.passed
    assert report.comparison.overconvergent == (F(0), F(1))
    assert report.comparison.classical == (F(0), F(1))
    assert report.comparison.boundary_classical == 1  # the p^(k-1) Eisenstein root


def test_classicality_weight2():
    report = classicality_check(2, 5, 12, 10)
    assert report.comparison.passed
    assert report.comparison.overconvergent == (F(0),)
    assert report.comparison.bound == F(1)


def test_classicality_refuses_m_below_3():
    # below m = 3 the ceiling m - 2 leaves nothing to compare
    for m in (2, 1):
        with pytest.raises(ConfigError, match="m must be >= 3"):
            classicality_check(4, 5, 6, m)


def _refuse_work(monkeypatch):
    """Fail the test if the Katz elements or the classical spectrum are
    built: ``katz_basis`` computes only the dimension ladder."""

    def refuse(*args):
        raise AssertionError("work was done before the input was checked")

    monkeypatch.setattr(KatzBasis, "elements_mod", refuse)
    monkeypatch.setattr(coleman, "classical_up_spectrum", refuse)


def test_slope_spectrum_comparison_refuses_m_below_3(monkeypatch):
    # at m = 2 the bound min(k - 1, m - 2) is 0: a comparison below it
    # compares nothing and must not read as all-match.  Refused up front,
    # with the message classicality_check gives
    _refuse_work(monkeypatch)
    with pytest.raises(ConfigError, match="m must be >= 3"):
        slope_spectrum(12, 5, 12, 2)
    with pytest.raises(ConfigError, match="m must be >= 3"):
        slope_spectrum(4, 5, 6, 1, certify_below=F(1))


def test_slope_spectrum_refuses_a_negative_bound_first(monkeypatch):
    _refuse_work(monkeypatch)
    for classical_side in (True, False):
        with pytest.raises(ConfigError, match="slope bound must be >= 0"):
            slope_spectrum(4, 5, 6, 8, certify_below=Fraction(-1, 2), classical=classical_side)


# (k, p, twist depth, m, certify_below) with two bad inputs each: p, k and
# the depth are refused by katz_basis, then the bound, then m
TWO_BAD_INPUTS = [
    ((3, 2, 6, 8, None), "p-adic theory is configured for p in"),
    ((3, 5, -1, 8, None), "odd weight 3 has no level-1 forms"),
    ((3, 5, 6, 2, None), "odd weight 3 has no level-1 forms"),
    ((4, 5, -1, 8, F(-1)), "twist depth must be >= 0"),
    ((4, 5, -1, 2, None), "twist depth must be >= 0"),
    ((4, 5, 6, 2, F(-1)), "slope bound must be >= 0"),
]


@pytest.mark.parametrize("args, message", TWO_BAD_INPUTS)
def test_slope_spectrum_refuses_p_k_depth_bound_then_m(monkeypatch, args, message):
    _refuse_work(monkeypatch)
    k, p, twist_depth, m, bound = args
    with pytest.raises(ConfigError, match=f"^{message}"):
        slope_spectrum(k, p, twist_depth, m, certify_below=bound)


def test_an_uncertified_spectrum_reports_the_cap(monkeypatch):
    """When no step of the grid certifies, ``slope_spectrum`` without a
    comparison returns the report of its last step, the cap
    m + ceil(b * max(D, 2)) + 16.  A comparison refuses the uncertified
    range, in ``classicality_check`` and in ``slope_spectrum`` alike,
    each having built the classical spectrum once, for its plan."""
    real = coleman.newton_polygon
    monkeypatch.setattr(
        coleman, "newton_polygon", lambda series: real(series)._replace(next_slope_floor=F(0))
    )
    built = []
    real_spectrum = coleman.classical_up_spectrum
    monkeypatch.setattr(
        coleman, "classical_up_spectrum", lambda k, p: built.append(k) or real_spectrum(k, p)
    )
    cap = 8 + 3 * katz_basis(4, 5, 12).dimension + 16
    report = slope_spectrum(4, 5, 12, 8, certify_below=F(3), classical=False)
    assert report.m_working == cap
    assert not report.qexp_polygon.certifies_through(F(3))
    message = "^polygon at weight 4 not certified below the comparison bound 3$"
    with pytest.raises(VerificationError, match=message):
        classicality_check(4, 5, 12, 8)
    with pytest.raises(VerificationError, match=message):
        slope_spectrum(4, 5, 12, 8)
    assert built == [4, 4, 4]  # once for the plan of each call


def test_slope_spectrum_refuses_a_negative_normalized_slope(monkeypatch):
    """A weight normalization of p^-1 at k = 4 puts the ordinary slope 0
    at -1, which the theory forbids."""
    real = coleman.normalization_shift
    monkeypatch.setattr(
        coleman,
        "normalization_shift",
        lambda k, kind: -1 if kind == "weight" else real(k, kind),
    )
    with pytest.raises(VerificationError) as exc:
        slope_spectrum(4, 5, 12, 9, certify_below=F(3))
    assert str(exc.value) == "normalized U_p slope -1 < 0 at weight 4: theory violated"


def test_slope_spectrum_refuses_a_wrong_naive_matrix(monkeypatch):
    """A naive matrix assembled at p^2 U instead of p U fails the
    p-scaling relation with the q-expansion series."""
    real = coleman._solve_up
    monkeypatch.setattr(
        coleman, "_solve_up", lambda basis, elements, m, shift: real(basis, elements, m, 2 * shift)
    )
    with pytest.raises(VerificationError) as exc:
        slope_spectrum(4, 5, 12, 9, certify_below=F(3))
    assert str(exc.value) == "naive U_p char series fails the p-scaling relation"


def test_classicality_weight12_full_threshold():
    # m = 13 puts the ceiling at the full threshold k - 1 = 11
    report = classicality_check(12, 5, 24, 13)
    assert report.comparison.passed
    want = (F(0), F(1), F(5), F(5), F(5), F(10))
    assert report.comparison.overconvergent == want
    assert report.comparison.classical == want
    # one boundary class at slope 11 on each side (critical Eisenstein)
    assert report.comparison.boundary_overconvergent == 1
    assert report.comparison.boundary_classical == 1
