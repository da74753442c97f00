"""Every function the traced benchmark wraps must still exist, and
every attribute its extractors read from their results.

``perfbench/spans.py`` wraps the functions named in ``TARGETS`` by
looking them up in their owner's ``__dict__``, and reads values such as
``SolveResult.precision_loss`` and ``SlopeReport.m_working`` from what
they return; a refactor that removes or renames one breaks
``--trace 1`` without failing any package test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TARGETS = spans.TARGETS


@pytest.mark.parametrize("layer, modname, path", [t[:3] for t in TARGETS])
def test_bench_target_resolves(layer, modname, path):
    owner = importlib.import_module(f"padicforms.{modname}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = owner.__dict__[part]
    assert attr in owner.__dict__, f"{layer}: {modname}.{path} is gone"


def test_bench_extractors_read_live_attributes():
    # the two calls read SolveResult.precision_loss, SlopeReport.m_working,
    # KatzBasis.dimension and .qprec, and SpaceBasis.dim (the classical oracle)
    modules = {t[1]: importlib.import_module(f"padicforms.{t[1]}") for t in TARGETS}
    coleman, linalg, padic = modules["coleman"], modules["linalg"], modules["padic"]
    originals = (coleman.slope_spectrum, linalg.ordinary_projector)
    recorder = spans.Recorder()
    recorder.install(modules)
    try:
        coleman.slope_spectrum(4, 5, 6, 8, certify_below=3)
        linalg.ordinary_projector(padic.PadicMatrix.from_rows([[1, 0], [0, 5]], 5, 3))
    finally:
        recorder.restore()
    assert (coleman.slope_spectrum, linalg.ordinary_projector) == originals
    metrics = recorder.metrics()
    assert metrics["coleman.katz_basis.calls"] >= 1
    assert metrics["forms.miller_basis.rows_built"] >= 1
    assert metrics["linalg.solve_in_basis.calls"] >= 1
    assert metrics["linalg.solve_in_basis.pivot_loss"] == 0
    assert metrics["coleman.slope_spectrum.m_working_max"] >= 8
    assert metrics["linalg.ordinary_projector.failures"] == 0
