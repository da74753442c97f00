import random

from padicforms.forms import miller_basis
from padicforms.hecke import frobenius, hecke_tp
from padicforms.hida import operator_matrix
from padicforms.qexp import ModRing, QSeries


def test_tp_tl_commute_on_level_one_spaces():
    # matrices in the Miller basis commute; q-precision >= p*l*dim
    for p, ell in [(5, 2), (7, 3)]:
        for k in (12, 16, 20):
            basis = miller_basis(k, p * ell * 8)
            tp = operator_matrix(basis, hecke_tp, p)
            tl = operator_matrix(basis, hecke_tp, ell)
            d = basis.dim
            lhs = [
                [sum(tp[i][t] * tl[t][j] for t in range(d)) for j in range(d)]
                for i in range(d)
            ]
            rhs = [
                [sum(tl[i][t] * tp[t][j] for t in range(d)) for j in range(d)]
                for i in range(d)
            ]
            assert lhs == rhs


def test_tp_congruent_frobenius_mod_p_low_weight():
    # T_p = F mod p for k <= 0, on random series and on Katz-model elements
    rng = random.Random(19)
    ring = ModRing(5, 1)
    for k in (0, -2, -4):
        for _ in range(10):
            f = QSeries.from_coeffs([rng.randrange(125) for _ in range(60)], ring)
            assert hecke_tp(f, k, 5) == frobenius(f, 5).truncate(12)
    from padicforms.coleman import katz_basis
    from padicforms.forms import eisenstein

    # the Katz elements b * E_4^{-i} at the basis' full q-precision p(D+4),
    # so that T_p and F are compared on D + 4 coefficients
    basis = katz_basis(-2, 5, 6)
    e_inv = eisenstein(4, basis.qprec, ring).inverse()
    power = QSeries.constant(1, basis.qprec, ring)
    elements = []
    for i, block in enumerate(basis.blocks):
        if i > 0:
            power = power * e_inv
        elements += [QSeries(ring, b.coeffs) * power for b in block]
    d = basis.dimension
    assert len(elements) == d == 2
    for element in elements:
        q = element.qprec // 5
        assert hecke_tp(element, -2, 5) == frobenius(element, 5).truncate(q)
    assert elements[0].qprec // 5 == d + 4
    # the readouts mod 5, head then spine: T_p = p^3 U_p + F at k = -2,
    # through q^(D-1)
    for element, readout in zip(elements, basis.elements_mod(1)):
        head, spine = readout.truncate(d), readout.select(range(d, 2 * d))
        tp = spine.scale(5**3) + frobenius(head, 5)
        assert tp == hecke_tp(element, -2, 5).truncate(d) == frobenius(head, 5)
