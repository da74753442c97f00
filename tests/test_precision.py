"""Precision-ledger properties: recomputing at a higher modulus and then
reducing must agree with the result computed at the lower one.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.charseries import char_series, newton_polygon
from padicforms.coleman import katz_basis, up_matrix
from padicforms.padic import PadicMatrix

LEDGER = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def matrix_and_lower_precision(draw):
    """A square matrix over Z/p^m (n <= 8) and some m' <= m.

    Entries are units times small p-powers, so the Newton polygons have
    slopes other than 0.
    """
    p = draw(st.sampled_from((5, 7)))
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 8))
    entry = st.builds(lambda u, e: u * p**e, st.integers(0, p**m - 1), st.integers(0, 3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return PadicMatrix.from_rows(rows, p, m), draw(st.integers(1, m))


@LEDGER
@given(matrix_and_lower_precision())
def test_char_series_commutes_with_reduction(case):
    matrix, m_low = case
    modulus = matrix.p**m_low
    high = char_series(matrix).coeffs
    assert char_series(matrix.reduce(m_low)).coeffs == tuple(c % modulus for c in high)


@LEDGER
@given(matrix_and_lower_precision())
def test_certified_slopes_survive_more_precision(case):
    matrix, m_low = case
    low = newton_polygon(char_series(matrix.reduce(m_low)))
    certified = low.slope_multiset()
    high = newton_polygon(char_series(matrix)).slope_multiset()
    assert high[: len(certified)] == certified
    further = high[len(certified):]
    if low.next_slope_floor is None:
        assert further == []
    else:
        assert all(s >= low.next_slope_floor for s in further)


@pytest.mark.parametrize(
    "k, p, twist_depth", [(0, 5, 4), (-2, 5, 6), (4, 5, 3), (2, 7, 3), (0, 7, 4), (-4, 7, 6)]
)
def test_up_matrix_commutes_with_reduction(k, p, twist_depth):
    basis = katz_basis(k, p, twist_depth)
    assert basis.dimension >= 2
    for m in (3, 6):
        assert up_matrix(basis, m + 4).reduce(m) == up_matrix(basis, m)
