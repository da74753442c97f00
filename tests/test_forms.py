from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.coleman import katz_basis, slope_spectrum
from padicforms.errors import ConfigError, PrecisionError
from padicforms.forms import (
    SUPPORTED_PRIMES,
    MillerPowers,
    SpaceBasis,
    basis_dimension,
    bernoulli,
    delta,
    eisenstein,
    eta_power_24,
    miller_basis,
    sigma_series,
)
from padicforms.hida import build_hasse_tower, control_check_h0, fit_family, ordinary_rank_mod_p
from padicforms.weights import WeightDisc
from padicforms.qexp import ZZ, ModRing, QSeries


def sigma_bruteforce(n, k):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(7) == 0


def test_sigma_series_matches_bruteforce():
    sig = sigma_series(3, 20)
    for n in range(1, 20):
        assert sig[n] == sigma_bruteforce(n, 3)


def test_eisenstein_small_weights():
    # divisor-sum oracle: sigma_3(1) = 1, sigma_3(2) = 9, sigma_5(2) = 33
    assert eisenstein(4, 3).coeffs == (1, 240, 2160)
    assert eisenstein(6, 3).coeffs == (1, -504, -16632)
    assert eisenstein(8, 2).coeffs == (1, 480)
    assert eisenstein(10, 2).coeffs == (1, -264)
    assert eisenstein(14, 2).coeffs == (1, -24)
    assert eisenstein(4, 1).coeffs == (1,)


@pytest.mark.parametrize("qprec", [0, -1])
def test_eisenstein_refuses_empty_precision(qprec):
    """No q-expansion without its constant term: E_k, Delta,
    ``QSeries.constant`` and ``QSeries.truncate`` refuse it with the one
    message of ``qexp._check_qprec``."""
    message = f"^a q-expansion needs q-precision >= 1, got {qprec}$"
    for refuse in (
        lambda: eisenstein(4, qprec),
        lambda: eisenstein(6, qprec, ModRing(7, 2)),
        lambda: delta(qprec),
        lambda: QSeries.constant(1, qprec),
        lambda: QSeries.from_coeffs([1, 2]).truncate(qprec),
    ):
        with pytest.raises(ValueError, match=message):
            refuse()


def test_eisenstein_nonintegral_weight_needs_padic_ring():
    with pytest.raises(ValueError):
        eisenstein(12, 5)
    f = eisenstein(12, 5, ModRing(13, 2))
    # 65520/691 mod 13^2, against a direct computation
    c = (65520 * pow(691, -1, 13**2)) % 13**2
    assert f.coeffs[1] == c
    with pytest.raises(ValueError, match="^E_12 is not 691-integral$"):
        eisenstein(12, 10, ModRing(691, 1))
    with pytest.raises(ValueError):
        eisenstein(5, 3)
    with pytest.raises(ValueError):
        eisenstein(2, 3)


def test_delta_at_q_precision_one():
    # Delta = q + O(q^2), so to q-precision 1 it is the zero series
    assert delta(1).coeffs == (0,)
    assert miller_basis(4, 1).forms[0].coeffs == (1,)
    with pytest.raises(ValueError, match="q-precision >= 1"):
        delta(0)


def test_delta_product_expansion():
    d = delta(10)
    # tau values: 1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643
    assert d.coeffs == (0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643)


def _eta_power_24_pentagonal(qprec):
    # Euler's pentagonal series for prod (1 - q^n), raised to the 24th power
    euler = [0] * qprec
    j = 0
    while j * (3 * j - 1) // 2 < qprec:
        for e in {j * (3 * j - 1) // 2, j * (3 * j + 1) // 2}:
            if e < qprec:
                euler[e] = (-1) ** j
        j += 1
    return list((QSeries.from_coeffs(euler) ** 24).coeffs)


@pytest.mark.parametrize("qprec", [1, 2, 3, 7, 10, 65, 151, 300])
def test_eta_power_24_matches_the_pentagonal_route(qprec):
    assert eta_power_24(qprec) == _eta_power_24_pentagonal(qprec)


def test_delta_against_e4_e6():
    q = 25
    e4, e6 = eisenstein(4, q), eisenstein(6, q)
    lhs = (e4**3 - e6**2).coeffs
    rhs = delta(q).scale(1728).coeffs
    assert lhs == rhs


def test_basis_dimension():
    assert basis_dimension(0) == 1
    assert basis_dimension(2) == 0
    assert basis_dimension(12) == 2
    assert basis_dimension(14) == 1
    assert basis_dimension(26) == 2
    assert basis_dimension(-4) == 0
    assert basis_dimension(7) == 0
    assert basis_dimension(120) == 11


def test_miller_basis_small():
    b = miller_basis(0, 5)
    assert b.dim == 1 and b.forms[0].coeffs == (1, 0, 0, 0, 0)
    assert miller_basis(2, 5).dim == 0
    b = miller_basis(12, 6)
    assert b.dim == 2
    # second form is Delta: q - 24 q^2 + ...
    assert b.forms[1].coeffs == delta(6).coeffs
    # first form has zero coefficient at q^1 (echelon)
    assert b.forms[0].coeffs[0] == 1 and b.forms[0].coeffs[1] == 0


def test_miller_basis_echelon_range():
    for k in range(0, 62, 2):
        b = miller_basis(k, 80)
        assert b.dim == basis_dimension(k)
        for j, f in enumerate(b.forms):
            assert f.coefficient(j) == 1
            assert all(f.coefficient(i) == 0 for i in range(b.dim) if i != j)


@pytest.mark.parametrize("ring", [ZZ, ModRing(5, 1)], ids=["Z", "F5"])
def test_miller_factor_is_built_once_per_exponent_pair(ring):
    """``factor(w)`` is E4^a E6^b with 4a + 6b = w, b <= 1, from one table
    for every weight: the same object for a repeated (a, b), the table's
    own 1 at weight 0."""
    table = MillerPowers(40, ring)
    e4, e6 = eisenstein(4, 40, ring), eisenstein(6, 40, ring)
    assert table.factor(0) is table.one
    built = {}
    for w in range(4, 62, 2):
        b = w % 4 // 2
        a = (w - 6 * b) // 4
        built[w] = table.factor(w)
        assert built[w] == prod([e4] * a + [e6] * b, start=QSeries.constant(1, 40, ring))
    assert all(table.factor(w) is f for w, f in built.items())


def test_miller_factor_refuses_a_weight_it_cannot_write():
    table = MillerPowers(10)
    for w in (-4, -2, -1, 1, 2, 3, 7, 9, 11, 61):
        with pytest.raises(ArithmeticError, match=f"no E4\\^a E6\\^b monomial of weight {w}"):
            table.factor(w)


def test_miller_basis_mod_p_stays_echelon():
    b = miller_basis(24, 30, ModRing(5, 1))
    assert b.dim == 3
    for j, f in enumerate(b.forms):
        assert f.coefficient(j) == 1
    with pytest.raises(PrecisionError, match="^q-precision 2 below dimension 3$"):
        miller_basis(24, 2)


def test_space_basis_checks_echelon_form():
    # form 0 must vanish at q^1 < dim
    with pytest.raises(ValueError, match="not q\\^0"):
        SpaceBasis(4, (QSeries.from_coeffs([1, 5, 0]), QSeries.from_coeffs([0, 1, 0])))
    # a basis of dimension 2 must carry q-precision 2
    with pytest.raises(ValueError, match="q-precision 1 below dimension 2"):
        SpaceBasis(4, (QSeries.from_coeffs([1]), QSeries.from_coeffs([0, 1])))
    basis = SpaceBasis(4, (QSeries.from_coeffs([1, 0, 7]), QSeries.from_coeffs([0, 1, 3])))
    assert basis.combination((2, 3)) == QSeries.from_coeffs([2, 3, 23])
    with pytest.raises(ValueError, match="3 coordinates"):
        basis.combination((2, 3, 4))
    with pytest.raises(PrecisionError):
        basis.contains_each((QSeries.from_coeffs([2]),))[0]
    # a series is compared on the q-precision it shares with the basis,
    # and one over another ring is refused
    assert basis.contains_each([QSeries.from_coeffs([2, 3]), QSeries.from_coeffs([2, 3, 24])]) == (
        True,
        False,
    )
    with pytest.raises(ValueError, match="ring mismatch"):
        basis.contains_each((QSeries.from_coeffs([2, 3, 23], ModRing(5, 1)),))[0]
    # the zero space holds the zero series only
    assert SpaceBasis(2, ()).contains_each((QSeries.from_coeffs([0, 0]),))[0]
    assert not SpaceBasis(2, ()).contains_each((QSeries.from_coeffs([0, 1]),))[0]


def test_combination_refuses_an_empty_basis():
    # the weight-2 space is zero: its basis has no forms, so no ring and
    # no q-precision to build a series at
    for ring in (ZZ, ModRing(5, 2)):
        basis = miller_basis(2, 5, ring)
        assert basis.dim == 0
        with pytest.raises(ValueError, match="^an empty basis has no q-precision to combine at$"):
            basis.combination([])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    k=st.integers(0, 20).map(lambda h: 2 * h),
    p=st.sampled_from(SUPPORTED_PRIMES),
    over_z=st.booleans(),
    extra=st.integers(1, 8),
    data=st.data(),
)
def test_space_basis_contains_exactly_its_combinations(k, p, over_z, extra, data):
    ring = ZZ if over_z else ModRing(p, 1)
    qprec = basis_dimension(k) + extra
    basis = miller_basis(k, qprec, ring)
    d = basis.dim
    coords = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d))
    g = basis.combination(coords) if d else QSeries.constant(0, qprec, ring)
    assert g.qprec == qprec and basis.contains_each((g,))[0]
    # each coefficient beyond the echelon coordinates is pinned down
    bumped = [
        QSeries(ring, tuple(a + (n == i) for n, a in enumerate(g.coeffs)))
        for i in range(d, qprec)
    ]
    assert not any(basis.contains_each((b,))[0] for b in bumped)
    # all at once, as one product of rows over Z/p (packed from 4 series on)
    assert basis.contains_each([g, *bumped, g]) == (True, *[False] * len(bumped), True)


def test_hasse_invariant_is_one():
    # E_{p-1} lifts the Hasse invariant: it reduces to 1 mod p
    for p in SUPPORTED_PRIMES:
        h = eisenstein(p - 1, 200, ModRing(p, 1))
        assert h == QSeries.constant(1, 200, ModRing(p, 1))


def test_hasse_divisibility_oracle():
    # all Eisenstein tail coefficients of E_{p-1} are divisible by p
    for p, k in [(5, 4), (7, 6), (13, 12)]:
        sig = sigma_series(k - 1, 50)
        if p == 13:
            c = 65520 * pow(691, -1, 13)
        else:
            c = {5: 240, 7: -504}[p]
        assert all((c * s) % p == 0 for s in sig[1:])


def test_prime_and_weight_rules_are_shared():
    """Every p-adic entry point refuses p = 3 and an odd weight with the
    one message of ``check_theory_prime`` or ``check_level1_weight``."""
    for refuse in (
        lambda: katz_basis(4, 3, 2),
        lambda: slope_spectrum(4, 3, 2, 8),
        lambda: build_hasse_tower(4, 3, 1),
        lambda: ordinary_rank_mod_p(4, 3),
        lambda: control_check_h0(4, 3, 1),
        lambda: WeightDisc(3, 0, (4,), 8),
        lambda: fit_family(3, 0, [4, 6], [2], m=4),
    ):
        with pytest.raises(ConfigError, match=r"configured for p in \(5, 7, 11, 13\), got 3"):
            refuse()
    for refuse in (
        lambda: katz_basis(5, 5, 2),
        lambda: slope_spectrum(5, 5, 2, 8),
        lambda: control_check_h0(5, 5, 1),
        lambda: miller_basis(5, 10),
        lambda: WeightDisc(5, 1, (5,), 8),
        lambda: fit_family(5, 1, [5, 9], [2], m=4),
    ):
        with pytest.raises(ConfigError, match="odd weight 5 has no level-1 forms"):
            refuse()
