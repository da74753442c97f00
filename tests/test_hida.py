import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms import acceptance, forms, hida
from padicforms.errors import ConfigError, VerificationError
from padicforms.forms import MillerPowers, SpaceBasis, miller_basis, miller_rows
from padicforms.hida import (
    ControlReport,
    build_hasse_tower,
    control_check_h0,
    default_qprec,
    fit_family,
    operator_matrix,
    ordinary_rank_mod_p,
    tp_matrix,
    unit_root_of_stabilization,
)
from padicforms.hecke import hecke_tp, up
from padicforms.linalg import independent_columns, invert_unimodular, ordinary_projector
from padicforms.padic import PadicMatrix
from padicforms.qexp import ZZ, ModRing, QSeries


def test_tp_matrix_eigenvalues_weight_12():
    rows = tp_matrix(12, 5)
    # trace = a_5(E_12) + tau(5) = (1 + 5^11) + 4830
    assert rows[0][0] + rows[1][1] == 1 + 5**11 + 4830
    # Delta is an eigenvector: column of the q-leading form
    assert rows[0][1] == 0
    assert rows[1][1] == 4830
    with pytest.raises(ConfigError, match="^4 is not prime$"):
        tp_matrix(12, 4)


def test_operator_matrix_detects_escape():
    basis = miller_basis(12, 60)
    with pytest.raises(VerificationError, match="leaves the space"):
        operator_matrix(basis, lambda f, k, ell: f + QSeries(f.ring, tuple(range(f.qprec))), 5)


def _mod_5_space(k):
    return miller_basis(k, default_qprec(k, [5]), ModRing(5, 1))


def test_mod_p_space_examples():
    b = _mod_5_space(4)
    assert b.dim == 1
    assert set(b.forms[0].coeffs[1:]) == {0}  # E_4 = 1 mod 5
    b = _mod_5_space(12)
    assert b.dim == 2
    b = _mod_5_space(0)
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
            basis = miller_basis(k, default_qprec(k, [p]), ModRing(p, 1))
            assert operator_matrix(basis, hecke_tp, p) == operator_matrix(basis, up, p)


def test_hasse_tower_inclusions():
    tower = build_hasse_tower(4, 5, 3)
    assert [b.weight for b in tower.levels] == [4, 8, 12, 16]
    tower = build_hasse_tower(6, 7, 2)
    assert [b.weight for b in tower.levels] == [6, 12, 18]
    assert [b.weight for b in build_hasse_tower(4, 5, 0).levels] == [4]
    # n = -1 would be a tower with no levels
    with pytest.raises(ConfigError, match="n must be >= 0"):
        build_hasse_tower(4, 5, -1)


def test_hasse_tower_reports_only_levels_it_holds():
    tower = build_hasse_tower(4, 5, 1)
    assert tower.report(1) == control_check_h0(4, 5, 1)
    for n in (-1, 2):
        with pytest.raises(ConfigError, match=f"a report of level {n} needs"):
            tower.report(n)
    # at k = 2 the target is level 1, which a tower over 2 holds from n = 1
    tower = build_hasse_tower(2, 5, 0)
    assert [b.weight for b in tower.levels] == [2]
    with pytest.raises(ConfigError, match="needs levels 0..1"):
        tower.report(0)
    assert build_hasse_tower(2, 5, 1).report(0).target_weight == 6
    # the tower is the one owner of k >= 2: no tower over weight -2
    with pytest.raises(ConfigError, match="a Hasse tower needs k >= 2, got -2"):
        build_hasse_tower(-2, 5, 1)


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


@pytest.mark.parametrize("p", [5, 7])
def test_hasse_tower_above_is_the_tower_built_there(p):
    """The tower above level i of a tower over k0 reports as the tower
    built over k0 + i(p-1), though its levels keep the full tower's
    q-precision; it holds the levels up to the same top, no more."""
    k0, top = 4, 5
    tower = build_hasse_tower(k0, p, top)
    for i in range(top - 2):
        above = tower.above(i)
        assert above.base_weight == k0 + i * (p - 1)
        built = build_hasse_tower(above.base_weight, p, 3)
        assert [above.report(n) for n in (1, 2, 3)] == [built.report(n) for n in (1, 2, 3)]
        with pytest.raises(ConfigError, match=f"a report of level {top - i + 1} needs"):
            above.report(top - i + 1)
    assert tower.above(0) == tower
    assert [b.weight for b in tower.above(top).levels] == [k0 + top * (p - 1)]
    for level in (-1, top + 1):
        with pytest.raises(ConfigError, match=f"has no level {level}"):
            tower.above(level)


def test_hasse_tower_catches_a_wrong_level(monkeypatch):
    # the weight-6 rows in place of the weight-8 ones: E_6 mod 5 spans a
    # T_5-stable line, but not one that holds E_4 = 1 mod 5
    rows = hida.miller_rows
    monkeypatch.setattr(
        hida, "miller_rows", lambda k, start, powers: rows(6 if k == 8 else k, start, powers)
    )
    with pytest.raises(VerificationError, match="inclusion fails from weight 4 to 8"):
        build_hasse_tower(4, 5, 2)


@pytest.fixture
def miller_tables(monkeypatch):
    """The q-precision of every ``forms.MillerPowers`` table built."""
    built = []
    init = forms.MillerPowers.__init__

    def counting_init(self, qprec, *args):
        built.append(qprec)
        init(self, qprec, *args)

    monkeypatch.setattr(forms.MillerPowers, "__init__", counting_init)
    return built


@pytest.mark.parametrize("k, p, n", [(4, 5, 1), (12, 11, 2), (2, 5, 1), (2, 5, 0)])
def test_control_check_builds_each_space_once(miller_tables, k, p, n):
    """One control check reads one Hasse tower: one table of E4, E6 and
    Delta at the top level's q-precision, up to level 1 at least under
    the k = 2 twist."""
    report = control_check_h0(k, p, n)
    top = max(k + n * (p - 1), report.target_weight)
    assert miller_tables == [default_qprec(top, [p])]
    assert report.rank_low == ordinary_rank_mod_p(report.target_weight, p)


def test_ordinary_rank_builds_one_level(miller_tables):
    """The rank reads level 0 alone, so its tower holds that level only,
    at k = 2 too, where the control check's target is level 1."""
    assert ordinary_rank_mod_p(2, 5) == 0  # M_2 = 0
    assert miller_tables == [default_qprec(2, [5])]


def test_criterion_4_builds_each_tower_once(monkeypatch, miller_tables):
    """One tower per class of even k in [4, 16] mod p - 1, p in {5, 7},
    from its least weight to three levels above its greatest: 5 tables,
    and one e(T_p) per level, 7 + 6 + 6 + 5 + 5 = 29 in all."""
    projectors = []

    def counting_projector(matrix, *args):
        projectors.append(matrix.size)
        return ordinary_projector(matrix, *args)

    monkeypatch.setattr(hida, "ordinary_projector", counting_projector)
    assert acceptance.criterion_4(0).passed
    assert len(miller_tables) == 5
    assert len(projectors) == 29


def test_criterion_3_builds_one_table_per_prime_and_ring(miller_tables):
    """Criterion 3 reads every mod-p space of a prime from one F_p table
    at the highest weight's q-precision, and its Z side from one more."""
    assert acceptance.criterion_3(0).passed
    assert miller_tables == [default_qprec(40, [5]), default_qprec(40, [7]), 100, 140]


@pytest.mark.parametrize(
    "p, component, weights, primes, m, qprec",
    [(5, 0, [4, 8, 12, 16], [2, 5], 8, 29), (11, 2, [12, 22, 32], [2, 3, 11], 6, 70)],
)
def test_fit_family_builds_one_table(miller_tables, p, component, weights, primes, m, qprec):
    """Every sample space of a family comes from one Z table, at the
    q-precision of the highest sample weight."""
    fit_family(p, component, weights, primes, m)
    assert miller_tables == [qprec]


def _two_space_control_check(k, p, n):
    """The control check from two separately built mod-p spaces at the
    top level's q-precision, each with its own e(T_p)."""
    twist = k == 2
    target_weight = k + (p - 1) if twist else k
    qprec = default_qprec(max(k + n * (p - 1), target_weight), [p])
    high, low = (miller_basis(w, qprec, ModRing(p, 1)) for w in (k + n * (p - 1), target_weight))

    def projector(basis):
        rows = operator_matrix(basis, hecke_tp, p)
        return ordinary_projector(PadicMatrix.from_rows(rows, p, 1))

    columns, _ = independent_columns(projector(high).idempotent)
    contained = all(low.contains_each((high.combination(c),))[0] for c in columns)
    return ControlReport(p, k, n, target_weight, len(columns), projector(low).rank, contained, twist)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    p=st.sampled_from((5, 7, 11, 13)),
    k=st.integers(1, 15).map(lambda h: 2 * h),
    n=st.integers(0, 3),
)
def test_control_check_matches_two_separate_spaces(p, k, n):
    assert control_check_h0(k, p, n) == _two_space_control_check(k, p, n)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    p=st.sampled_from((5, 7, 11, 13)),
    k=st.integers(0, 30).map(lambda h: 2 * h),
    exponent=st.sampled_from((0, 1, 4)),
)
def test_one_table_serves_every_weight(p, k, exponent):
    """The spaces of weights k + 24 and k read from one table equal the
    Miller bases built on their own, over Z (exponent 0), F_p and Z/p^4,
    and ``operator_matrix`` applies T_p at the space's weight."""
    ring = ModRing(p, exponent) if exponent else ZZ
    qprec = default_qprec(k + 24, [p])
    powers = MillerPowers(qprec, ring)
    for w in (k + 24, k):
        space = SpaceBasis(w, miller_rows(w, 0, powers))
        assert space == miller_basis(w, qprec, ring)
    images = [hecke_tp(f, k, p) for f in space.forms]
    reference = tuple(zip(*(im.coeffs[: space.dim] for im in images)))
    assert operator_matrix(space, hecke_tp, p) == reference


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
    # p and m are checked as at every other Z/p^m entry point
    with pytest.raises(ValueError, match="precision exponent"):
        unit_root_of_stabilization(1, 4, 5, 0)
    with pytest.raises(ValueError, match="prime"):
        unit_root_of_stabilization(1, 4, 6, 3)


def test_unit_root_checks_its_hensel_root(monkeypatch):
    # with every modular inverse read as 0, x stays t_p, and f(t_p) =
    # p^(k-1) is not 0 mod p^m when k - 1 < m
    monkeypatch.setattr(hida, "unit_inverse", lambda x, p, e: 0)
    with pytest.raises(VerificationError, match="^Hensel iteration for the unit root did not converge$"):
        unit_root_of_stabilization(126, 4, 5, 6)


def test_fit_family_eisenstein():
    fam = fit_family(5, 0, [4, 8, 12, 16], [2, 5], m=8)
    assert fam.rank == 1
    assert len(fam.keys) == 1
    for k in fam.disc.sample_weights:
        assert fam.eigen_data[k][5] == (1,)  # U_5 unit root is exactly 1
        assert fam.eigen_data[k][2] == ((1 + 2 ** (k - 1)) % 5**8,)
    fit2 = fam.fitted[2][fam.keys[0]]
    # the family predicts a_2 at a held-out weight to the disc distance bound
    predicted = int(fit2.specialize(24))
    assert (predicted - (1 + 2**23)) % 5**2 == 0
    assert all(c["holds"] for c in fam.congruence_checks)


def test_fit_family_carries_the_off_sample_cap():
    fam = fit_family(5, 0, [4, 8, 12, 16], [2, 5], m=8)
    fit2 = fam.fitted[2][fam.keys[0]]
    assert fit2.sample_weights == (4, 8, 12, 16)
    assert fit2.precision_at(4) == fit2.m
    # v_5(w_24 - w_k) = 2, 1, 1, 1 for k = 4, 8, 12, 16
    assert fit2.precision_at(24) == 5
    error = fit2.specialize(24) - (1 + 2**23)
    assert error % 5**5 == 0 and error % 5**6 != 0


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
    with pytest.raises(ConfigError, match="odd weight 5"):
        fit_family(5, 1, [5, 9], [2], m=4)
    with pytest.raises(ConfigError, match=">= 3 for the control theorem"):
        fit_family(5, 2, [2, 6], [2], m=4)
    with pytest.raises(ConfigError, match="^4 is not prime$"):
        fit_family(5, 0, [4, 8], [4], 6)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            lambda systems, rank: (systems, rank + 1),
            "ordinary rank is not constant across weights: {4: 1, 8: 2} "
            "(control theorem violation)",
        ),
        (
            lambda systems, rank: ([s._replace(key=s.key + (0,)) for s in systems], rank),
            "eigensystem keys do not match across weights; family matching failed",
        ),
    ],
    ids=["rank", "key"],
)
def test_fit_family_catches_each_mismatch_across_weights(monkeypatch, corrupt, message):
    # the split at weight 8 reads one more rank, or another key
    real = hida._split_ordinary_systems

    def split(weight, op_mats, p, m, primes):
        systems, blocks, rank = real(weight, op_mats, p, m, primes)
        if weight == 8:
            systems, rank = corrupt(systems, rank)
        return systems, blocks, rank

    monkeypatch.setattr(hida, "_split_ordinary_systems", split)
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        fit_family(5, 0, [4, 8], [2, 5], 4)


def test_fit_family_catches_a_failed_congruence(monkeypatch):
    entry = {"weights": (4, 8), "required": 1, "observed": 0, "holds": False}
    monkeypatch.setattr(hida, "congruence_table", lambda samples, p, m: [entry])
    message = f"interpolation congruence fails for a_2: {dict(entry, prime=2, system=0)}"
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        fit_family(5, 0, [4, 8], [2, 5], 4)


def test_fit_family_refuses_an_eigensystem_block_that_is_not_a_line(monkeypatch):
    def two_by_two(restricted, idem):
        return {ell: PadicMatrix.identity(2, 5, 4) for ell in restricted}

    monkeypatch.setattr(hida, "_restrict_operators_to_subblock", two_by_two)
    with pytest.raises(VerificationError, match="^eigensystem block is not one-dimensional$"):
        fit_family(5, 0, [4, 8], [2, 5], 4)


def test_fit_family_refuses_m_below_1_before_any_basis(monkeypatch):
    def no_basis(*args):
        raise AssertionError("a Miller basis was built")

    monkeypatch.setattr(hida, "miller_basis", no_basis)
    with pytest.raises(ConfigError, match="precision exponent must be >= 1, got 0"):
        fit_family(5, 0, [4, 8], [2], m=0)


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
