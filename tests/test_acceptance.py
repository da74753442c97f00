"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s and in the CLI's
``acceptance`` command, which runs the same engine).
"""

from dataclasses import replace

import pytest

from padicforms import acceptance, hida
from padicforms.charseries import CharSeries, newton_polygon
from padicforms.errors import ConfigError
from padicforms.linalg import ProjectorResult, rank_mod_p
from padicforms.padic import PadicMatrix

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


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (
            lambda r: replace(r, rank_low=r.rank_low + 1),
            lambda rank: f"rank not constant at (k,p)=(8,7): {[rank + 1, rank, rank, rank]}",
        ),
        (
            lambda r: replace(r, contained=False) if r.n == 2 else r,
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
        return replace(report, slopes=moved) if (k, p) == (4, 7) and deeper else report

    monkeypatch.setattr(acceptance, "slope_spectrum", spectrum)
    result = acceptance.criterion_8(SEED)
    assert not result.passed
    assert [d for d in result.details if "!=" in d] == [
        "(k,p)=(4,7) below 4: ['0', '1', '3'] != ['0', '2', '3']"
    ]
