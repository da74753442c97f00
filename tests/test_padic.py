import pytest

from padicforms.padic import PadicMatrix, val_p


def test_val_p():
    assert val_p(250, 5) == 3
    assert val_p(-250, 5) == 3
    assert val_p(12, 5) == 0
    assert val_p(0, 5, saturate=6) == 6
    assert val_p(630, 5, saturate=3) == 1
    assert val_p(125, 5, saturate=3) == 3  # saturated: 125 = 0 mod 5^3
    assert val_p(625, 5, saturate=3) == 3  # true valuation 4, capped at 3
    assert val_p(3, 7, saturate=2) == 0
    with pytest.raises(ValueError):
        val_p(0, 5)


def test_matrix_basics():
    a = PadicMatrix.from_rows([[1, 2], [3, 4]], 5, 3)
    b = PadicMatrix.identity(2, 5, 3)
    assert (a @ b).rows == a.rows
    assert (a + (-a)).is_zero()
    assert (a - a).is_zero()
    assert a.trace() == 5
    assert PadicMatrix.from_rows([[100, 0], [0, 30]], 5, 3).trace() == 5  # 130 mod 125
    assert a.transpose().rows == ((1, 3), (2, 4))
    assert (a**0).rows == b.rows
    assert (a**3).rows == (a @ a @ a).rows


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        PadicMatrix.from_rows([[1, 2, 3], [4, 5, 6]], 5, 3)
    a = PadicMatrix.identity(2, 5, 3)
    with pytest.raises(ValueError):
        a @ PadicMatrix.identity(3, 5, 3)
    with pytest.raises(ValueError):
        a @ PadicMatrix.identity(2, 7, 3)


def test_matrix_apply_and_scale():
    a = PadicMatrix.from_rows([[1, 2], [0, 1]], 5, 2)
    assert a.apply((1, 1)) == (3, 1)
    assert a.scale(5).min_valuation() == 1
    assert PadicMatrix.zero(2, 5, 2).min_valuation() == 2


def test_basis_tag_propagation():
    a = PadicMatrix.from_rows([[1, 0], [0, 1]], 5, 3, basis_tag="katz")
    b = PadicMatrix.from_rows([[2, 0], [0, 2]], 5, 3, basis_tag="katz")
    assert (a @ b).basis_tag == "katz"
    c = PadicMatrix.from_rows([[2, 0], [0, 2]], 5, 3, basis_tag="miller")
    assert (a @ c).basis_tag is None
    # tags are metadata: equality ignores them
    assert a == PadicMatrix.identity(2, 5, 3)
