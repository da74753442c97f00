"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s and in the CLI's
``acceptance`` command, which runs the same engine).
"""

import pytest

from padicforms import acceptance, hecke, hida
from padicforms.charseries import CharSeries, newton_polygon
from padicforms.coleman import katz_basis, shift_polygon
from padicforms.eigencurve import TwoVarCharSeries
from padicforms.errors import ConfigError
from padicforms.linalg import ProjectorResult, rank_mod_p
from padicforms.padic import PadicMatrix
from padicforms.qexp import QSeries
from padicforms.weights import IwasawaTruncation

SEED = 0


def _run(criterion):
    result = criterion(SEED)
    print(result.line())
    for detail in result.details:
        print("   ", detail)
    assert result.passed, "\n".join([result.line()] + result.details)


def test_run_all_rejects_unknown_criteria_first(monkeypatch):
    def refuse(seed):
        raise AssertionError("criterion 2 ran before the numbers were checked")

    monkeypatch.setattr(acceptance, "criterion_2", refuse)
    for numbers, bad in (([0], [0]), ([-1], [-1]), ([11], [11]), ([2, 11, 0], [11, 0])):
        with pytest.raises(ConfigError) as exc:
            acceptance.run_all(0, numbers)
        assert str(exc.value) == f"unknown acceptance criteria {bad}"


def test_criterion_01_projector_algebra():
    _run(acceptance.criterion_1)


def test_criterion_02_hecke_normalization():
    _run(acceptance.criterion_2)


def test_criterion_03_mod_p_congruences():
    _run(acceptance.criterion_3)


def test_criterion_04_hida_control():
    _run(acceptance.criterion_4)


def test_criterion_05_family_interpolation():
    _run(acceptance.criterion_5)


def test_criterion_06_slope_floors():
    _run(acceptance.criterion_6)


def test_criterion_07_classicality():
    _run(acceptance.criterion_7)


def test_criterion_08_truncation_stability():
    _run(acceptance.criterion_8)


def test_criterion_09_eigencurve_disc():
    _run(acceptance.criterion_9)


def test_criterion_10_duality():
    _run(acceptance.criterion_10)


def _identity_if_singular(t, e):
    if rank_mod_p(t.rows, t.p) < t.size:
        return PadicMatrix.identity(t.size, t.p, t.m)


def _zero_if_invertible(t, e):
    if rank_mod_p(t.rows, t.p) == t.size:
        return PadicMatrix.from_rows([[0] * t.size] * t.size, t.p, t.m)


def _entry_moved(t, e):
    # With row and column 0 of T zero mod p off the diagonal, E_00
    # commutes with T mod p, so e + p^(m-1) E_00 still commutes with T
    # and equals e mod p: only e^2 = e sees the move.
    p, rows = t.p, t.rows
    if all(rows[0][j] % p == 0 == rows[j][0] % p for j in range(1, t.size)):
        moved = [list(row) for row in e.rows]
        moved[0][0] += p ** (t.m - 1)
        return PadicMatrix.from_rows(moved, p, t.m)


def _conjugated(t, e):
    # u e u^-1 with u = 1 + p^(m-1) E_01 is an idempotent equal to e mod p;
    # e is the only one that commutes with T, so a different one does not
    if 0 < rank_mod_p(e.rows, t.p) < t.size:
        step = [[0] * t.size for _ in range(t.size)]
        step[0][1] = t.p ** (t.m - 1)
        step = PadicMatrix.from_rows(step, t.p, t.m)
        one = PadicMatrix.identity(t.size, t.p, t.m)
        conjugate = (one - step.scale(-1)) @ e @ (one - step)
        if conjugate != e:
            return conjugate


@pytest.mark.parametrize(
    "corrupt", [_identity_if_singular, _zero_if_invertible, _entry_moved, _conjugated]
)
def test_criterion_1_catches_each_wrong_projector(monkeypatch, corrupt):
    """Each corruption breaks one identity of criterion 1: 1 for a singular
    T (the rank of T e + 1 - e), 0 for an invertible T (T^m kills ker e),
    an entry moved by p^(m-1) (e^2 = e) and an idempotent that does not
    commute with T (eT = Te).  The criterion fails at the first
    corrupted sample."""
    real = acceptance.ordinary_projector
    samples, corrupted = [], []

    def projector(t):
        result = real(t)
        wrong = corrupt(t, result.idempotent)
        samples.append(t)
        if wrong is None:
            return result
        corrupted.append(len(samples) - 1)
        return ProjectorResult(wrong, result.rank)

    monkeypatch.setattr(acceptance, "ordinary_projector", projector)
    result = acceptance.criterion_1(SEED)
    assert corrupted and corrupted[0] < 1000  # caught in the first (p, m)
    assert not result.passed
    assert result.details[-1] == f"failure at sample {corrupted[0]}"
    assert len(samples) == corrupted[0] + 1


# over Z/5^4: S = diag(1, 0, 0), and 1 (+) J with J the 2 x 2 shift,
# nilpotent mod p; S is the ordinary projector of both
_S = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
_JORDAN = ((1, 0, 0), (0, 0, 1), (0, 0, 0))
_ONE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "t, e, holds",
    [
        (_S, _S, True),
        (_JORDAN, _S, True),  # T - Te = J is not 0 mod p, J^4 is
        (_S, _ONE, False),  # e = 1 for a singular T
        (_S, ((1, 0, 0), (0, 1, 0), (0, 0, 0)), False),  # T e + (1 - e) has rank 2
        (_JORDAN, ((0, 0, 0),) * 3, False),  # T^4 (1 - e) = S
    ],
    ids=["split", "jordan", "one_for_singular", "image_too_large", "zero_for_jordan"],
)
def test_projector_algebra_reads_each_identity(t, e, holds):
    """Criterion 1's identities on hand-made T and e: the projector of each
    T passes, and each wrong idempotent commuting with T fails the one
    identity it breaks, on the identity route or the product route."""
    assert acceptance._projector_algebra_holds(t, e, _ONE, 5, 4) is holds


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (
            lambda r: r._replace(rank_low=r.rank_low + 1),
            lambda rank: f"rank not constant at (k,p)=(8,7): {[rank + 1, rank, rank, rank]}",
        ),
        (
            lambda r: r._replace(contained=False) if r.n == 2 else r,
            lambda rank: "containment FAILS at (k,p,n)=(8,7,2)",
        ),
    ],
    ids=["rank_low", "contained"],
)
def test_criterion_4_catches_each_wrong_report(monkeypatch, corrupt, detail):
    """Criterion 4 reads the ranks at k and k + n(p-1), n = 1, 2, 3, from
    the reports of one Hasse tower: a wrong rank at (k, p) = (8, 7)
    breaks their constancy, and a failed containment at n = 2 fails the
    criterion."""
    real = hida.HasseTower.report
    rank = real(hida.build_hasse_tower(8, 7, 1), 1).rank_low

    def report(tower, n):
        found = real(tower, n)
        return corrupt(found) if (tower.base_weight, tower.p) == (8, 7) else found

    monkeypatch.setattr(hida.HasseTower, "report", report)
    result = acceptance.criterion_4(SEED)
    assert not result.passed
    assert [d for d in result.details if "(k,p" in d] == [detail(rank)]


def test_criterion_8_catches_a_moved_slope(monkeypatch):
    """Criterion 8 compares the slopes below its bound at depths I and
    I + 2: a slope 1 that moves to 2 at I + 2 for (k, p) = (4, 7) fails
    it, with a != detail line for that configuration alone."""
    real = acceptance.slope_spectrum
    # 1 + T + 7^2 T^2 + 7^5 T^3 over Z/7^10: slopes 0, 2, 3
    moved = newton_polygon(CharSeries((1, 1, 7**2, 7**5), 7, 10))

    def spectrum(k, p, twist_depth, m, **kwargs):
        report = real(k, p, twist_depth, m, **kwargs)
        deeper = twist_depth == acceptance.SLOPE_CONFIGS[(k, p)]["I"] + 2
        return report._replace(slopes=moved) if (k, p) == (4, 7) and deeper else report

    monkeypatch.setattr(acceptance, "slope_spectrum", spectrum)
    result = acceptance.criterion_8(SEED)
    assert not result.passed
    assert [d for d in result.details if "!=" in d] == [
        "(k,p)=(4,7) below 4: ['0', '1', '3'] != ['0', '2', '3']"
    ]


@pytest.mark.parametrize("k, p", list(acceptance.SLOPE_CONFIGS))
def test_criterion_8_compares_two_katz_dimensions(k, p):
    """Criterion 8 compares the spectra at depths I and I + 2: unless the
    Katz dimension grows between them, both are one computation and the
    comparison cannot fail."""
    depth = acceptance.SLOPE_CONFIGS[(k, p)]["I"]
    assert katz_basis(k, p, depth + 2).dimension > katz_basis(k, p, depth).dimension


def _first_call_corrupted(real, corrupt):
    """``real`` with the result of its first call passed through ``corrupt``."""
    calls = []

    def wrapper(*args, **kwargs):
        found = real(*args, **kwargs)
        calls.append(args)
        return corrupt(found) if len(calls) == 1 else found

    return wrapper


def _constant_term_moved(f):
    return QSeries(f.ring, (f.coeffs[0] + 1,) + f.coeffs[1:])


def test_criterion_2_catches_a_wrong_k1_branch(monkeypatch):
    """Criterion 2 counts the random series on which both k = 1 branches
    agree with ``hecke_tp``: one wrong low branch leaves 99 of 100."""
    wrong = _first_call_corrupted(acceptance._tp_branch_low, _constant_term_moved)
    monkeypatch.setattr(acceptance, "_tp_branch_low", wrong)
    result = acceptance.criterion_2(SEED)
    assert not result.passed
    assert result.details[-1] == "k=1 branch agreement on 99/100 random series"


def test_criterion_3_catches_a_wrong_up_matrix_mod_p(monkeypatch):
    """A U_p matrix mod p with one entry moved at (k, p) = (10, 7), and
    only there, fails the congruence T_p = U_p mod p; the exact
    decomposition over Z still holds."""
    real = acceptance.operator_matrix

    def matrix(basis, op, ell):
        rows = real(basis, op, ell)
        if op is hecke.up and (basis.weight, ell) == (10, 7):
            return ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:]
        return rows

    monkeypatch.setattr(acceptance, "operator_matrix", matrix)
    result = acceptance.criterion_3(SEED)
    assert not result.passed
    assert result.details == [
        "mod-p congruence FAILS at (k,p)=(10,7)",
        "T_p = U_p + p^(k-1) F exactly over Z for k in [4,20], p in {5,7}",
    ]


def test_criterion_3_catches_a_wrong_frobenius(monkeypatch):
    """One wrong Frobenius image on the Z side, the first one (E_4 at
    p = 5), fails the exact decomposition there alone."""
    wrong = _first_call_corrupted(acceptance.frobenius, _constant_term_moved)
    monkeypatch.setattr(acceptance, "frobenius", wrong)
    result = acceptance.criterion_3(SEED)
    assert not result.passed
    assert result.details == [
        "matrix(T_p) = matrix(U_p) mod p for even k in [2,40], p in {5,7}",
        "decomposition FAILS at (k,p)=(4,5)",
    ]


def test_criterion_5_catches_a_wrong_sample_eigenvalue(monkeypatch):
    """a_2 of the fitted family moved at the sample weight 12 fails the
    check of a_2 = 1 + 2^(k-1) there; the fitted polynomials, which
    predict weight 24, are left as they are."""
    real = acceptance.fit_family

    def fit(*args, **kwargs):
        family = real(*args, **kwargs)
        data = {k: dict(eigen) for k, eigen in family.eigen_data.items()}
        data[12][2] = (data[12][2][0] + 1,)
        return family._replace(eigen_data=data)

    monkeypatch.setattr(acceptance, "fit_family", fit)
    result = acceptance.criterion_5(SEED)
    assert not result.passed
    assert result.details == [
        "rank 1 constant across weights (4, 8, 12, 16)",
        "a_2 differs from 1 + 2^(k-1) at weight 12",
        "a_2 congruences hold mod 5^m for k = k' mod 4*5^(m-1), m <= 3",
        "fitted a_2 predicts weight 24 mod 5^2",
    ]


def _constant_moved(fit):
    """The ``IwasawaTruncation`` ``fit`` with its constant term moved by 1."""
    coeffs = (fit.poly_coeffs[0] + 1,) + fit.poly_coeffs[1:]
    return IwasawaTruncation(fit.p, fit.component, coeffs, fit.m, fit.sample_weights)


def _with_a_2_fit_moved(family):
    """The family with the constant term of its fitted a_2 moved by 1."""
    key = family.keys[0]
    moved = _constant_moved(family.fitted[2][key])
    return family._replace(fitted={**family.fitted, 2: {key: moved}})


def _with_a_5_moved_at_8(family):
    data = {k: dict(eigen) for k, eigen in family.eigen_data.items()}
    data[8][5] = (2,)
    return family._replace(eigen_data=data)


def _with_a_2_fit_of_2_digits(family):
    """The family with its fitted a_2 cut to 2 digits: it agrees with
    itself mod 5^2 wherever w agrees, but claims no 3 digits anywhere."""
    key = family.keys[0]
    fit = family.fitted[2][key]
    cut = IwasawaTruncation(fit.p, fit.component, fit.poly_coeffs, 2, fit.sample_weights)
    return family._replace(fitted={**family.fitted, 2: {key: cut}})


def _with_one_congruence_failed(family):
    first, *rest = family.congruence_checks
    return family._replace(congruence_checks=({**first, "holds": False}, *rest))


_C5_RANK = "rank 1 constant across weights (4, 8, 12, 16)"
_C5_EXACT = "a_5 = 1 and a_2 = 1 + 2^(k-1) exactly at every sample weight"
_C5_CONGRUENCES = "a_2 congruences hold mod 5^m for k = k' mod 4*5^(m-1), m <= 3"
_C5_HELD_OUT = "fitted a_2 predicts weight 24 mod 5^2"


@pytest.mark.parametrize(
    "corrupt, details",
    [
        (
            lambda family: family._replace(rank=0),
            [
                "rank 0 constant across weights (4, 8, 12, 16)",
                _C5_EXACT,
                _C5_CONGRUENCES,
                _C5_HELD_OUT,
            ],
        ),
        (
            _with_a_5_moved_at_8,
            [_C5_RANK, "a_5 differs from 1 at weight 8", _C5_CONGRUENCES, _C5_HELD_OUT],
        ),
        (
            _with_a_2_fit_moved,
            [
                _C5_RANK,
                _C5_EXACT,
                _C5_CONGRUENCES,
                "fitted a_2 fails the held-out weight 24",
            ],
        ),
        (
            _with_one_congruence_failed,
            [
                _C5_RANK,
                _C5_EXACT,
                _C5_CONGRUENCES,
                _C5_HELD_OUT,
                "recorded interpolation congruences fail",
            ],
        ),
        (
            _with_a_2_fit_of_2_digits,
            [
                _C5_RANK,
                _C5_EXACT,
                *(f"congruence fails at m=3, k={k}" for k in (4, 8, 12, 16)),
                _C5_HELD_OUT,
            ],
        ),
    ],
    ids=["rank_0", "a_5", "held_out_24", "recorded_congruence", "fit_congruence"],
)
def test_criterion_5_catches_each_wrong_family(monkeypatch, corrupt, details):
    """Criterion 5 fails on a family of rank 0, on a_5 = 2 at the sample
    weight 8, on a fitted a_2 whose constant term is moved by 1 (it
    misses weight 24 mod 5^2; the sample data stay right), on one
    recorded interpolation congruence that does not hold, and on a
    fitted a_2 of 2 digits, which cannot claim a_2(k) = a_2(k + 100)
    mod 5^3; its line that the congruences hold is then left out."""
    real = acceptance.fit_family
    monkeypatch.setattr(acceptance, "fit_family", lambda *args, **kw: corrupt(real(*args, **kw)))
    result = acceptance.criterion_5(SEED)
    assert not result.passed
    assert result.details == details


def test_criterion_6_catches_a_naive_polygon_off_by_one(monkeypatch):
    """A naive polygon one more slope unit up at (k, p) = (4, 7) breaks
    naive = normalized + 1 there alone."""
    real = acceptance.slope_spectrum

    def spectrum(k, p, twist_depth, m, **kwargs):
        report = real(k, p, twist_depth, m, **kwargs)
        if (k, p) != (4, 7):
            return report
        return report._replace(naive_slopes=shift_polygon(report.naive_slopes, 1))

    monkeypatch.setattr(acceptance, "slope_spectrum", spectrum)
    result = acceptance.criterion_6(SEED)
    assert not result.passed
    assert [d for d in result.details if "fails" in d] == ["naive shift fails at (k,p)=(4,7)"]
    # the passing line of (4, 7) is not printed next to its failure
    assert not [d for d in result.details if d.startswith("(k,p)=(4,7)")]


def test_criterion_6_catches_a_negative_slope(monkeypatch):
    """Both polygons one slope unit down at (k, p) = (2, 5) keep
    naive = normalized + 1 but put a slope at -1, which fails there
    alone; the other three configurations print their passing lines."""
    real = acceptance.slope_spectrum

    def spectrum(k, p, twist_depth, m, **kwargs):
        report = real(k, p, twist_depth, m, **kwargs)
        if (k, p) != (2, 5):
            return report
        return report._replace(
            slopes=shift_polygon(report.slopes, -1),
            naive_slopes=shift_polygon(report.naive_slopes, -1),
        )

    monkeypatch.setattr(acceptance, "slope_spectrum", spectrum)
    result = acceptance.criterion_6(SEED)
    assert not result.passed
    assert result.details == [
        "negative normalized slope at (k,p)=(2,5)",
        "(k,p)=(4,5): certified slopes ['0', '1', '3'] >= 0, naive = +1",
        "(k,p)=(12,5): certified slopes ['0', '1', '5', '5', '5'] >= 0, naive = +1",
        "(k,p)=(4,7): certified slopes ['0', '1', '3', '4'] >= 0, naive = +1",
    ]


def test_criterion_7_catches_a_wrong_comparison(monkeypatch):
    """An overconvergent multiset missing one slope 5 at (k, p) = (12, 5)
    fails the classicality comparison there."""
    real = acceptance.classicality_check

    def check(k, p, twist_depth, m):
        report = real(k, p, twist_depth, m)
        if (k, p) != (12, 5):
            return report
        over = report.comparison.overconvergent[:-1]
        return report._replace(comparison=report.comparison._replace(overconvergent=over))

    monkeypatch.setattr(acceptance, "classicality_check", check)
    result = acceptance.criterion_7(SEED)
    assert not result.passed
    assert result.details[1] == (
        "(k,p)=(12,5) below 8: overconvergent ['0', '1', '5', '5'] vs classical "
        "['0', '1', '5', '5', '5'] -> fail"
    )


def test_criterion_9_catches_a_wrong_held_out_prediction(monkeypatch):
    """The refit without weight 12 predicts c_1 one off there; the full
    disc, which holds the direct series and the flat degree, is left as
    it is, so only the held-out line for 12 fails."""
    real = TwoVarCharSeries.refit

    def refit(full, weights):
        found = real(full, weights)
        if 12 in found.disc.sample_weights:
            return found
        moved = _constant_moved(found.coeffs[1])
        return found._replace(coeffs=(found.coeffs[0], moved) + found.coeffs[2:])

    monkeypatch.setattr(TwoVarCharSeries, "refit", refit)
    result = acceptance.criterion_9(SEED)
    assert not result.passed
    assert result.details == [
        *(
            f"held-out {k}: all 7 coefficients match mod 5^4: {'FAIL' if k == 12 else 'ok'}"
            for k in acceptance.DISC_SAMPLES
        ),
        "slope-0 factor degree across the disc: {4: 1, 8: 1, 12: 1, 16: 1, 20: 1} "
        "constant: True",
    ]


def _one_theta_class_missing(probe):
    if (probe.weight, probe.p) != (4, 7):
        return probe
    first, *rest = probe.classes
    return probe._replace(classes=(first._replace(present=False), *rest))


def _katz_call_corrupted(real, nth):
    """``real`` with its verdict on the ``nth`` Katz U_p matrix (the
    matrices over Z/p^m, m > 1) turned to unequal."""
    calls = []

    def wrapper(matrix):
        found = real(matrix)
        if matrix.m == 1:
            return found
        calls.append(matrix)
        return {**found, "equal": False} if len(calls) == nth else found

    return wrapper


_C10_TRANSPOSE = "char series of U_p and its transpose agree on all configured matrices"
_C10_RANKS = "rank e(U_p) = rank e(F) at every configured weight"


@pytest.mark.parametrize(
    "name, wrapper, detail, absent",
    [
        (
            "transpose_charseries_equal",
            lambda real: _first_call_corrupted(real, lambda found: False),
            "transpose equality FAILS at (k,p)=(2,5)",
            _C10_TRANSPOSE,
        ),
        (
            "rank_duality_check",
            lambda real: _first_call_corrupted(real, lambda found: {**found, "equal": False}),
            "rank duality FAILS at (k,p)=(4,5)",
            _C10_RANKS,
        ),
        (
            "rank_duality_check",
            lambda real: _katz_call_corrupted(real, 1),
            "Katz rank duality FAILS at (k,p)=(4,5)",
            _C10_RANKS,
        ),
        (
            "rank_duality_check",
            lambda real: _katz_call_corrupted(real, 2),
            "Katz rank duality FAILS at (k,p)=(12,5)",
            _C10_RANKS,
        ),
        (
            "adjunction_check",
            lambda real: _first_call_corrupted(real, lambda found: False),
            "adjunction <U_p f, g> = <f, F g> exact on 99/100 random tuples",
            None,
        ),
        (
            "theta_probe",
            lambda real: lambda *args, **kwargs: _one_theta_class_missing(real(*args, **kwargs)),
            "theta probe (k,p)=(4,7): 2 classes shift by 3; control shift 4 fails: True",
            None,
        ),
    ],
    ids=[
        "transpose",
        "rank_duality",
        "katz_rank_duality_4_5",
        "katz_rank_duality_12_5",
        "adjunction",
        "theta_probe",
    ],
)
def test_criterion_10_catches_each_wrong_check(monkeypatch, name, wrapper, detail, absent):
    """Criterion 10 fails on one wrong verdict of each of its checks: the
    transpose equality of the first U_p matrix ((k, p) = (2, 5)), the
    rank duality of the first mod-p matrix (k = 4, p = 5) and of each
    Katz matrix it checks, the first adjunction tuple, and one theta
    class at (k, p) = (4, 7).  The summary line of a failed check is not
    printed."""
    monkeypatch.setattr(acceptance, name, wrapper(getattr(acceptance, name)))
    result = acceptance.criterion_10(SEED)
    assert not result.passed
    assert detail in result.details
    assert absent not in result.details
