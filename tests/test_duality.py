import random

import pytest

from padicforms import coleman, duality
from padicforms.acceptance import THETA_CONFIGS
from padicforms.charseries import CharSeries, char_series, newton_polygon
from padicforms.coleman import katz_basis, up_matrix
from padicforms.duality import (
    DualFamily,
    adjunction_check,
    charseries_duality_check,
    dual_module,
    rank_duality_check,
    theta_probe,
    transpose_charseries_equal,
)
from padicforms.errors import ConfigError, PrecisionError
from padicforms.padic import PadicMatrix

from test_linalg import random_matrix, random_unimodular


def test_dual_module_rank_one():
    u = PadicMatrix.from_rows([[7]], 5, 4)
    dual = dual_module(u)
    assert dual.operator_on_dual.rows == ((7,),)
    assert dual.rank == 1


def test_dual_module_charpoly_equality():
    rng = random.Random(6)
    for _ in range(10):
        u = random_matrix(rng, 3, 5, 4)
        dual = dual_module(u)
        assert char_series(dual.operator_on_dual).coeffs == char_series(u).coeffs
    # with a nontrivial gram the dual operator is conjugate to U^T
    g = random_unimodular(rng, 3, 5, 4)
    u = random_matrix(rng, 3, 5, 4)
    dual = dual_module(u, g)
    assert char_series(dual.operator_on_dual).coeffs == char_series(u).coeffs


def test_dual_side_refuses_a_gram_of_the_wrong_size():
    u = PadicMatrix.identity(2, 5, 4)
    gram = PadicMatrix.identity(3, 5, 4)
    with pytest.raises(ValueError, match="gram matrix size mismatch"):
        dual_module(u, gram)
    with pytest.raises(ValueError, match="gram matrix size must equal the source rank"):
        DualFamily(2, gram, u)


def test_transpose_charseries_equal():
    rng = random.Random(9)
    for _ in range(20):
        assert transpose_charseries_equal(random_matrix(rng, 3, 7, 3))


def test_adjunction_identity_and_negative_control():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.choice([2, 3])
        u = random_matrix(rng, n, 5, 4)
        g = random_unimodular(rng, n, 5, 4)
        f = [rng.getrandbits(24) for _ in range(n)]
        h = [rng.getrandbits(24) for _ in range(n)]
        assert adjunction_check(f, h, u, g)
        assert adjunction_check(f, h, u)  # identity gram
        # perturbing F must break the identity for generic vectors
        f_op = dual_module(u, g).operator_on_dual
        perturbed = f_op - PadicMatrix.identity(n, 5, 4).scale(-1)
        assert not adjunction_check([1] * n, [1] * n, u, g, f_op=perturbed) or not adjunction_check(
            f, h, u, g, f_op=perturbed
        )


def _pairing(x, gram, y):
    # <x, y> = x^T gram y, written out as the double sum
    n = gram.size
    return sum(x[i] * gram.rows[i][j] * y[j] for i in range(n) for j in range(n)) % gram.modulus


def test_adjunction_check_matches_the_explicit_pairing():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(200):
        n, p, m = rng.choice([1, 2, 3, 5]), rng.choice([5, 7, 13]), rng.randint(1, 6)
        u = random_matrix(rng, n, p, m)
        g = random_unimodular(rng, n, p, m) if rng.random() < 0.8 else None
        gram = g or PadicMatrix.identity(n, p, m)
        f_op = dual_module(u, gram).operator_on_dual
        bump = [[0] * n for _ in range(n)]
        bump[rng.randrange(n)][rng.randrange(n)] = -(p ** rng.randrange(m))
        perturbed = f_op - PadicMatrix.from_rows(bump, p, m)
        f = [rng.getrandbits(30) - 2**29 for _ in range(n)]
        h = [rng.getrandbits(30) - 2**29 for _ in range(n)]
        for op in (None, f_op, perturbed):
            want = _pairing(u.apply(f), gram, h) == _pairing(f, gram, (op or f_op).apply(h))
            assert adjunction_check(f, h, u, g, f_op=op) == want
            outcomes.add((op is perturbed, want))
    # the dual operator always passes, and a perturbed one fails often
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_rank_duality_on_ordinary_blocks():
    mat = up_matrix(katz_basis(4, 5, 8), 8)
    res = rank_duality_check(mat)
    assert res["equal"] and res["rank_source"] == 1


# (source -> target q-slope, flag) for every class of each acceptance
# configuration; "kernel" marks the constants killed by theta at k = 2
THETA_CLASSES = {
    (2, 5): ((0, 1, "kernel"), (1, 2, "present")),
    (4, 5): ((0, 3, "present"), (2, 5, "present")),
    (4, 7): ((0, 3, "present"), (1, 4, "present"), (3, 6, "present")),
}


@pytest.mark.parametrize("k,p", THETA_CONFIGS)
def test_theta_probe(monkeypatch, k, p):
    calls = []
    real_katz_basis = coleman.katz_basis

    def counting_katz_basis(*args, **kwargs):
        calls.append(args)
        return real_katz_basis(*args, **kwargs)

    monkeypatch.setattr(coleman, "katz_basis", counting_katz_basis)
    probe = theta_probe(k, p, m=10)
    # one Katz basis per side: the certification loop reuses it
    assert len(calls) == 2
    assert probe.passed
    assert probe.shift == k - 1
    assert not probe.control_contained
    classes = tuple(
        (
            c.source_qslope,
            c.target_qslope,
            "kernel" if c.kernel_excluded else ("present" if c.present else "missing"),
        )
        for c in probe.classes
    )
    assert classes == THETA_CLASSES[(k, p)]


def test_theta_probe_records_a_missing_image(monkeypatch):
    """With the target slope 5 gone at (k, p) = (4, 5), the image of the
    source slope 2 is missing: its class is recorded absent, not
    excluded, and the probe fails."""
    real = duality.slope_spectrum
    # 1 + T + 5 T^2 + 5^4 T^3 + 5^12 T^4 + 5^22 T^5 over Z/5^30: slopes 0, 1, 3, 8, 10
    target = newton_polygon(CharSeries((1, 1, 5, 5**4, 5**12, 5**22), 5, 30))

    def spectrum(k, p, twist_depth, m, **kwargs):
        report = real(k, p, twist_depth, m, **kwargs)
        return report._replace(qexp_polygon=target) if k == 4 else report

    monkeypatch.setattr(duality, "slope_spectrum", spectrum)
    probe = theta_probe(4, 5, m=10)
    classes = [
        (c.source_qslope, c.target_qslope, c.present, c.kernel_excluded) for c in probe.classes
    ]
    assert classes == [(0, 3, True, False), (2, 5, False, False)]
    assert not probe.control_contained
    assert not probe.passed


def test_theta_probe_refuses_a_vacuous_probe(monkeypatch):
    """When the only source class below the bound at (k, p) = (2, 5) is
    the slope 0 that theta^(k-1) kills, no class is tested and the probe
    refuses to pass."""
    real = duality.slope_spectrum
    # 1 + T + 5^5 T^2 over Z/5^10: slopes 0 and 5
    source = newton_polygon(CharSeries((1, 1, 5**5), 5, 10))

    def spectrum(k, p, twist_depth, m, **kwargs):
        report = real(k, p, twist_depth, m, **kwargs)
        return report._replace(qexp_polygon=source) if k == 0 else report

    monkeypatch.setattr(duality, "slope_spectrum", spectrum)
    with pytest.raises(PrecisionError) as exc:
        theta_probe(2, 5, m=10)
    assert str(exc.value) == (
        "theta probe is vacuous: no non-kernel source classes below the bound"
    )


def test_theta_probe_control_with_repeated_source_slope():
    # source slopes 0, 0, 1, 2, 3: one 0 is the kernel of theta, and the
    # other four control images 2, 3, 4, 5 all lie in the target, so the
    # shift-by-k control does not discriminate at (2, 13)
    probe = theta_probe(2, 13, m=10)
    assert [c.source_qslope for c in probe.classes] == [0, 0, 1, 2, 3]
    assert sum(c.kernel_excluded for c in probe.classes) == 1
    assert probe.control_contained
    assert not probe.passed


def test_theta_probe_validation():
    with pytest.raises(ConfigError):
        theta_probe(1, 5, m=8)


def test_charseries_duality_check_refuses_low_weight_first(monkeypatch):
    calls = []
    real_elements_mod = coleman.KatzBasis.elements_mod

    def counting_elements_mod(self, m):
        calls.append(m)
        return real_elements_mod(self, m)

    monkeypatch.setattr(coleman.KatzBasis, "elements_mod", counting_elements_mod)
    for k in (0, -2):
        with pytest.raises(ConfigError, match="^theta probe needs k >= 2$"):
            charseries_duality_check(k, 5, twist_depth=4, m=8)
    assert calls == []


def test_charseries_duality_check():
    report = charseries_duality_check(4, 5, twist_depth=8, m=10)
    assert report.structural_equal
    assert report.rank_duality["equal"]
    assert report.theta.passed
    assert report.verdict == "pass"
