import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.errors import ConfigError, PrecisionError
from padicforms.forms import delta, eisenstein, miller_basis
from padicforms.hecke import (
    NORMALIZATIONS,
    frobenius,
    hecke_tp,
    normalization_shift,
    up,
)
from padicforms.qexp import ZZ, ModRing, QSeries


def test_tp_eisenstein_eigenvalue():
    e4 = eisenstein(4, 255)
    assert hecke_tp(e4, 4, 5) == e4.scale(126).truncate(51)


def test_tp_delta_eigenvalue():
    d = delta(101)
    assert hecke_tp(d, 12, 2) == d.scale(-24).truncate(50)


def test_tp_weight_one_branches_agree():
    rng = random.Random(4)
    for _ in range(20):
        f = QSeries.from_coeffs([rng.randrange(-50, 50) for _ in range(40)])
        q = 40 // 5
        k_ge = hecke_tp(f, 1, 5)
        # k <= 1 branch computed by hand: p^0 a_{np} + a_{n/p}
        manual = []
        for n in range(q):
            c = f.coeffs[5 * n]
            if n % 5 == 0:
                c += f.coeffs[n // 5]
            manual.append(c)
        assert k_ge.coeffs == tuple(manual)


def test_up_fixed_geometric_series():
    f = QSeries.from_coeffs([1] * 25)
    assert up(f, 2, 5) == f.truncate(5)


def test_up_naive_examples():
    # the naive operator p U is U_p at k = 0, where a(0) = 1
    f = QSeries.from_coeffs([0, 1, 0, 0, 0, 0])
    assert up(f, 0, 5).coeffs == (0,)
    g = QSeries.from_coeffs(list(range(12)))
    assert up(g, 0, 5).coeffs == (0, 25)
    assert up(g, 1, 5).coeffs == (0, 5)
    assert up(g, -2, 5).coeffs == (0, 5**3 * 5)


def test_up_stabilized_eisenstein_eigenform():
    # E4(q) - 125 E4(q^5) has U_5 eigenvalue 1 (unit root of x^2-126x+125)
    q = 250
    e4 = eisenstein(4, q)
    stab = e4 - frobenius(e4, 5).scale(125)
    assert up(stab, 4, 5) == stab.truncate(50)


def test_frobenius_examples():
    one = QSeries.constant(1, 10)
    assert frobenius(one, 5) == one
    f = QSeries.from_coeffs([0, 1, 0, 0, 0, 0, 0])
    assert frobenius(f, 5).coeffs == (0, 0, 0, 0, 0, 1, 0)


def test_tp_decomposition_weight_ge_1():
    # T_p = U_p + p^(k-1) F, exactly on q-expansions
    e4 = eisenstein(4, 105)
    lhs = hecke_tp(e4, 4, 5)
    rhs = up(e4, 4, 5) + frobenius(e4, 5).scale(5**3).truncate(21)
    assert lhs == rhs


def test_tp_decomposition_weight_le_1():
    # T_p = F + U_p for k <= 1 (normalized U_p carries the p^(1-k))
    rng = random.Random(8)
    for k in (1, 0, -2):
        f = QSeries.from_coeffs([rng.randrange(-9, 9) for _ in range(60)])
        lhs = hecke_tp(f, k, 5)
        rhs = frobenius(f, 5).truncate(12) + up(f, k, 5)
        assert lhs == rhs


def test_tp_congruent_up_mod_p_on_forms():
    for k in (4, 8, 12, 16):
        basis = miller_basis(k, 60, ModRing(5, 1))
        for f in basis.forms:
            assert hecke_tp(f, k, 5) == up(f, k, 5)


def _theta(f):
    """theta = q d/dq: sum n a_n q^n."""
    return QSeries(f.ring, tuple(n * a for n, a in enumerate(f.coeffs)))


def test_theta_examples_and_commutation():
    # U_p^naive . theta = p . theta . U_p^naive, with U_p^naive = up(., 0, p)
    one = QSeries.constant(1, 10)
    assert _theta(one).is_zero()
    f = QSeries.from_coeffs([0, 1, 0, 0])
    assert _theta(f) == f
    rng = random.Random(15)
    for _ in range(10):
        g = QSeries.from_coeffs([rng.randrange(-20, 20) for _ in range(30)])
        assert up(_theta(g), 0, 5) == _theta(up(g, 0, 5)).scale(5)


def test_qprec_too_small():
    f = QSeries.from_coeffs([1, 2, 3])
    with pytest.raises(PrecisionError):
        hecke_tp(f, 4, 5)
    with pytest.raises(PrecisionError):
        up(f, 4, 5)
    with pytest.raises(ValueError):
        up(QSeries.from_coeffs([1] * 10), 2, 6)
    with pytest.raises(ValueError, match="^9 is not prime$"):
        hecke_tp(QSeries.from_coeffs([1] * 30), 12, 9)


@st.composite
def series_over_z_or_mod(draw):
    """(p, f): f over Z, or over Z/p^m for odd p, with q-precision >= p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    m = draw(st.none() | st.integers(1, 8)) if p > 2 else None
    ring = ZZ if m is None else ModRing(p, m)
    qprec = draw(st.integers(p, 3 * p * p))
    coeffs = draw(st.lists(st.integers(-(10**6), 10**6), min_size=qprec, max_size=qprec))
    return p, QSeries(ring, tuple(coeffs))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(series_over_z_or_mod(), st.integers(-12, 24))
def test_hecke_formula_at_every_weight(case, k):
    # T_p = p^max(0,1-k) U + p^max(0,k-1) F, written out coefficient by
    # coefficient; the two exponents swap under k <-> 2 - k
    p, f = case
    a, q = f.coeffs, f.qprec // p
    tp = [
        p ** max(0, 1 - k) * a[n * p] + (p ** max(0, k - 1) * a[n // p] if n % p == 0 else 0)
        for n in range(q)
    ]
    assert hecke_tp(f, k, p) == QSeries(f.ring, tuple(tp))
    assert up(f, 0, p) == QSeries(f.ring, tuple(p * a[n * p] for n in range(q)))
    frob = [a[n // p] if n % p == 0 else 0 for n in range(f.qprec)]
    assert frobenius(f, p) == QSeries(f.ring, tuple(frob))
    f_part = frobenius(f, p).scale(p ** max(0, k - 1)).truncate(q)
    assert hecke_tp(f, k, p) == up(f, k, p) + f_part
    assert up(f, k, p).scale(p) == up(f, 0, p).scale(p ** max(0, 1 - k))


def test_normalization_table():
    assert tuple(NORMALIZATIONS) == ("weight", "naive", "qexp")
    for k in (-4, 0, 1, 2, 12):
        assert normalization_shift(k, "weight") == max(0, 1 - k)
        assert normalization_shift(k, "naive") == 1
        assert normalization_shift(k, "qexp") == 0
    with pytest.raises(ConfigError, match="unknown normalization 'bogus'"):
        normalization_shift(4, "bogus")
