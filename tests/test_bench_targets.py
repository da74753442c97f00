"""Every function the traced benchmark wraps must still exist.

``perfbench/spans.py`` wraps the functions named in ``TARGETS`` by
looking them up in their owner's ``__dict__``; a refactor that removes
or renames one breaks ``--trace 1`` without failing any package test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("layer, modname, path", [t[:3] for t in TARGETS])
def test_bench_target_resolves(layer, modname, path):
    owner = importlib.import_module(f"padicforms.{modname}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = owner.__dict__[part]
    assert attr in owner.__dict__, f"{layer}: {modname}.{path} is gone"
