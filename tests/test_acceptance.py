"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s and in the CLI's
``acceptance`` command, which runs the same engine).
"""

import pytest

from padicforms import acceptance
from padicforms.errors import ConfigError

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
