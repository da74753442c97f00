"""The outputs the benchmark checks, checked here too.

``perfbench/golden.json`` holds the digest of every slope report the
``slopes-deep`` workload can draw and the detail lines of the ten
acceptance criteria.  A change to those bytes would otherwise fail only
the benchmark run, as an incorrect job.  The file and the workload code
are read, never written.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from padicforms import acceptance, coleman, serialize

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
GOLDEN = workloads.load_golden()
PF = SimpleNamespace(acceptance=acceptance, coleman=coleman, serialize=serialize)


@pytest.mark.parametrize(
    "cfg", workloads.all_slope_configs(), ids=lambda cfg: workloads.slope_config_key(*cfg)
)
def test_slope_report_digest(cfg):
    report = workloads.run_slopes(PF, cfg)
    digest = workloads.slope_report_digest(PF, report)
    assert digest == GOLDEN["slopes-deep"][workloads.slope_config_key(*cfg)]


@pytest.mark.parametrize("number", range(1, 11))
def test_acceptance_details(number):
    (result,) = acceptance.run_all(0, [number])
    assert result.passed
    assert result.details == GOLDEN["acceptance"][str(number)]
