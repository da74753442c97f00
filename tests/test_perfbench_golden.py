"""The outputs the benchmark checks, checked here too.

``perfbench/golden.json`` holds the digest of every slope report the
``slopes-deep`` workload can draw and the detail lines of the ten
acceptance criteria; ``projector-random`` checks each projector by its
own integer algebra.  A change to those outputs would otherwise fail
only the benchmark run, as an incorrect job.  The file and the workload
code are read, never written.
"""

import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from padicforms import acceptance, coleman, linalg, padic, serialize

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
GOLDEN = workloads.load_golden()
PF = SimpleNamespace(
    acceptance=acceptance, coleman=coleman, linalg=linalg, padic=padic, serialize=serialize
)


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


def test_projector_random_round():
    """One round of ``projector-random`` as the benchmark draws it at seed
    7: each job runs through the workload's own call, ``max_iterations``
    keyword included, and passes its integer-algebra check."""
    workload = workloads.ProjectorRandom(GOLDEN)
    (jobs,) = workload.make_rounds(random.Random(f"{workload.name}:7"), 1)
    assert len(jobs) == 52
    for job in jobs:
        assert workload.check(PF, job, workload.run(PF, job))
