import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms import hida
from padicforms.errors import ConfigError
from padicforms.forms import miller_basis
from padicforms.hida import (
    build_hasse_tower,
    control_check_h0,
    fit_family,
    mod_p_space,
    operator_matrix,
    ordinary_rank_mod_p,
    tp_matrix,
    unit_root_of_stabilization,
)
from padicforms.hecke import hecke_tp, up
from padicforms.linalg import invert_unimodular
from padicforms.padic import PadicMatrix


def test_tp_matrix_eigenvalues_weight_12():
    rows = tp_matrix(12, 5)
    # trace = a_5(E_12) + tau(5) = (1 + 5^11) + 4830
    assert rows[0][0] + rows[1][1] == 1 + 5**11 + 4830
    # Delta is an eigenvector: column of the q-leading form
    assert rows[0][1] == 0
    assert rows[1][1] == 4830


def test_operator_matrix_detects_escape():
    basis = miller_basis(12, 60)
    with pytest.raises(Exception):
        operator_matrix(basis, lambda f: f.map_coeffs(lambda n, a: a + n))


def test_mod_p_space_examples():
    b = mod_p_space(4, 5)
    assert b.dim == 1
    assert set(b.forms[0].coeffs[1:]) == {0}  # E_4 = 1 mod 5
    b = mod_p_space(12, 5)
    assert b.dim == 2
    b = mod_p_space(0, 5)
    assert b.dim == 1


def test_ordinary_rank_examples():
    assert ordinary_rank_mod_p(4, 5) == 1
    assert ordinary_rank_mod_p(8, 5) == 1
    assert ordinary_rank_mod_p(12, 5) == 1  # tau(5) = 4830 = 0 mod 5
    assert ordinary_rank_mod_p(12, 11) == 2  # tau(11) is a unit mod 11
    with pytest.raises(ConfigError):
        ordinary_rank_mod_p(1, 5)
    with pytest.raises(ConfigError):
        ordinary_rank_mod_p(4, 3)


def test_rank_stability_along_hasse_progression():
    for p in (5, 7):
        for k in range(4, 42, 2):
            base = ordinary_rank_mod_p(k, p)
            assert ordinary_rank_mod_p(k + (p - 1), p) == base


def test_tp_equals_up_mod_p_matrices():
    for p in (5, 7):
        for k in (4, 8, 12, 16):
            basis = mod_p_space(k, p)
            tp_rows = operator_matrix(basis, lambda f: hecke_tp(f, k, p))
            up_rows = operator_matrix(basis, lambda f: up(f, k, p))
            assert tp_rows == up_rows


def test_hasse_tower_inclusions():
    tower = build_hasse_tower(4, 5, 3)
    assert [b.weight for b in tower.levels] == [4, 8, 12, 16]
    tower = build_hasse_tower(6, 7, 2)
    assert [b.weight for b in tower.levels] == [6, 12, 18]


def test_control_check_examples():
    # e(U_5) M_8(F_5) = span(E_8 mod 5) inside span(E_4 mod 5)
    report = control_check_h0(4, 5, 1)
    assert report.passed and report.rank_high == 1 and report.rank_low == 1
    report = control_check_h0(4, 5, 2)
    assert report.passed
    report = control_check_h0(4, 5, 0)
    assert report.passed  # degenerate n = 0
    assert not report.weight2_twist
    with pytest.raises(ConfigError):
        control_check_h0(0, 5, 1)


def test_control_check_weight2():
    # at k = 2 the target is the one-twist weight 2 + (p - 1)
    report = control_check_h0(2, 5, 1)
    assert report.weight2_twist and report.passed
    assert report.target_weight == 6
    # n = -1 would test the empty weight-(-2) space: a vacuous pass
    with pytest.raises(ConfigError):
        control_check_h0(2, 5, -1)
    with pytest.raises(ConfigError):
        control_check_h0(4, 5, -1)


@pytest.mark.parametrize("k, p, n", [(4, 5, 1), (12, 11, 2), (2, 5, 1)])
def test_control_check_builds_each_space_once(monkeypatch, k, p, n):
    built = []

    def counting_mod_p_space(weight, *args):
        built.append(weight)
        return mod_p_space(weight, *args)

    monkeypatch.setattr(hida, "mod_p_space", counting_mod_p_space)
    report = control_check_h0(k, p, n)
    assert sorted(built) == sorted([k + n * (p - 1), report.target_weight])
    assert report.rank_low == ordinary_rank_mod_p(report.target_weight, p)


def test_unit_root():
    # x^2 - 126x + 125 = (x-1)(x-125): unit root is exactly 1
    assert unit_root_of_stabilization(126, 4, 5, 6) == 1
    # Delta at p = 11: root of x^2 - tau(11) x + 11^11 congruent to tau(11) mod 11
    root = unit_root_of_stabilization(534612, 12, 11, 5)
    assert (root * root - 534612 * root + pow(11, 11, 11**5)) % 11**5 == 0
    assert root % 11 == 534612 % 11
    with pytest.raises(ValueError):
        unit_root_of_stabilization(4830, 12, 5, 4)
    # an ordinary root needs p | p^(k-1); smaller weights are rejected up front
    for k in (1, 0, -2):
        with pytest.raises(ValueError, match="k >= 2"):
            unit_root_of_stabilization(126, k, 5, 6)


def test_fit_family_eisenstein():
    fam = fit_family(5, 0, [4, 8, 12, 16], [2, 5], m=8)
    assert fam.rank == 1
    assert len(fam.keys) == 1
    for k in fam.sample_weights:
        assert fam.eigen_data[k][5] == (1,)  # U_5 unit root is exactly 1
        assert fam.eigen_data[k][2] == ((1 + 2 ** (k - 1)) % 5**8,)
    fit2 = fam.fitted[2][fam.keys[0]]
    # the family predicts a_2 at a held-out weight to the disc distance bound
    predicted = int(fit2.specialize(24))
    assert (predicted - (1 + 2**23)) % 5**2 == 0
    assert all(c["holds"] for c in fam.congruence_checks)


def test_fit_family_rank_only():
    fam = fit_family(5, 0, [4, 8, 12], [], m=4)
    assert fam.rank == 1
    assert fam.fitted == {}
    assert fam.keys == ()


def test_fit_family_splits_p11_weight12():
    # at p = 11 both E_12 and Delta are ordinary; T_2 separates them mod 11
    fam = fit_family(11, 2, [12, 22], [2, 11], m=4)
    assert fam.rank == 2
    assert len(fam.keys) == 2
    a2_12 = set(fam.eigen_data[12][2])
    assert (1 + 2**11) % 11**4 in a2_12
    assert (-24) % 11**4 in a2_12


def test_fit_family_validation():
    with pytest.raises(ConfigError):
        fit_family(5, 0, [4, 7], [2], m=4)
    with pytest.raises(ConfigError):
        fit_family(5, 0, [2], [2], m=4)
    with pytest.raises(ConfigError):
        fit_family(6, 0, [4, 8], [2], m=4)


def _conjugated(rng, p, m, blocks):
    """U B U^-1 for each prime's block-diagonal B (prime -> square blocks),
    with one random unimodular U shared by all primes."""
    modulus = p**m
    n = sum(len(b) for b in next(iter(blocks.values())))
    lower = [[int(i == j) or (rng.randrange(modulus) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) or (rng.randrange(modulus) if i < j else 0) for j in range(n)] for i in range(n)]
    u = PadicMatrix.from_rows(lower, p, m) @ PadicMatrix.from_rows(upper, p, m)
    u_inv = invert_unimodular(u)
    ops = {}
    for ell, parts in blocks.items():
        rows = [[0] * n for _ in range(n)]
        at = 0
        for part in parts:
            for i, row in enumerate(part):
                rows[at + i][at : at + len(part)] = row
            at += len(part)
        ops[ell] = u @ PadicMatrix.from_rows(rows, p, m) @ u_inv
    return ops


def _irreducible_quadratic_c(p):
    """c with x^2 - x - c irreducible mod p."""
    return next(c for c in range(1, p) if all((x * x - x - c) % p for x in range(p)))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    p=st.sampled_from((5, 7, 11, 13)),
    m=st.integers(1, 6),
    r=st.integers(2, 4),
    case=st.sampled_from(("distinct", "distinct_off_p", "repeated", "quadratic")),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_ordinary_systems_on_conjugated_diagonals(p, m, r, case, seed):
    rng = random.Random(seed)
    modulus = p**m
    primes = [2, 3, p]

    def lift(residue):
        return (residue + p * rng.randrange(p ** (m - 1))) % modulus

    units = [lift(x) for x in rng.sample(range(1, p), r)]
    if case == "distinct_off_p":
        # T_p is one residue mod p: the split must come from T_2 or T_3
        diag = {p: [lift(units[0] % p) for _ in range(r)], 2: units, 3: [lift(0)] * r}
    else:
        diag = {ell: [rng.randrange(modulus) for _ in range(r)] for ell in (2, 3)}
        diag[p] = units
    if case == "repeated":
        for ell in primes:
            diag[ell][1] = lift(diag[ell][0] % p)
    blocks = {ell: [[[x]] for x in values] for ell, values in diag.items()}
    if case == "quadratic":
        # a + bC with C the companion of x^2 - x - c: eigenvalues outside F_p
        c = _irreducible_quadratic_c(p)
        for ell in primes:
            a, b = rng.randrange(modulus), lift(rng.randrange(1, p))
            blocks[ell][:2] = [[[a, b * c % modulus], [b, (a + b) % modulus]]]
    systems, unsplit, rank = hida._split_ordinary_systems(12, _conjugated(rng, p, m, blocks), p, m, primes)

    assert rank == r
    if case in ("repeated", "quadratic"):
        assert systems == []
        assert len(unsplit) == 1 and unsplit[0]["rank"] == r
        assert sorted(unsplit[0]["charpoly_mod_p"]) == sorted(primes)
        return
    assert unsplit == []
    expected = sorted(
        (diag[2][i], diag[3][i], unit_root_of_stabilization(diag[p][i], 12, p, m)) for i in range(r)
    )
    assert sorted(tuple(s.eigenvalues[ell] for ell in primes) for s in systems) == expected
