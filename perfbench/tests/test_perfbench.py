"""Tests of the benchmark itself, on smoke-sized inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import signal
import time

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pf():
    return run.import_package()


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


def smoke_rounds(name):
    """One small round per workload, tagged with strata: seconds, not minutes."""
    return run.with_strata([smoke_jobs(name)])


def smoke_jobs(name):
    if name == "slopes-deep":
        return list(workloads.SMOKE_SLOPES)
    if name == "projector-random":
        rng = random.Random(7)
        jobs = []
        for p, m, n in [(5, 4, 2), (5, 6, 3), (7, 4, 4), (7, 3, 5)]:
            jobs.append((p, m, [[rng.randrange(p**m) for _ in range(n)] for _ in range(n)]))
            jobs.append((p, m, workloads.random_conjugate(rng, n, n // 2, p, m)))
        return jobs
    return [(2, 3), (4, 3), (5, 3)]


def wrapped_everywhere():
    """(module, attribute) pairs in padicforms that still hold a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "padicforms" or name.startswith("padicforms."):
            for key, value in vars(mod).items():
                if hasattr(value, "__perfbench_original__"):
                    found.append((name, key))
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if hasattr(member, "__perfbench_original__"):
                            found.append((name, f"{key}.{attr}"))
    return found


def traced_pass(workload, pf, rounds):
    recorder = spans.Recorder()
    tally = run.run_rounds(workload, pf, rounds, recorder=recorder)
    assert wrapped_everywhere() == []
    return tally, recorder.metrics()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_round_passes_its_checks(name, pf, golden):
    workload = workloads.WORKLOADS[name](golden)
    tally = run.run_rounds(workload, pf, smoke_rounds(name))
    assert tally.attempted == len(smoke_rounds(name)[0])
    assert tally.failed == 0 and tally.wrong == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_plain_outputs_agree_and_counts_repeat(name, pf, golden):
    workload = workloads.WORKLOADS[name](golden)
    plain = run.run_rounds(workload, pf, smoke_rounds(name))
    first, first_metrics = traced_pass(workload, pf, smoke_rounds(name))
    second, second_metrics = traced_pass(workload, pf, smoke_rounds(name))
    assert first.digests == plain.digests == second.digests
    counts = [n for n, unit, _ in spans.metric_specs() if unit != "s"]
    assert {n: first_metrics[n] for n in counts} == {n: second_metrics[n] for n in counts}
    assert first_metrics["trace.spans"] > 0


def test_wrappers_cover_every_namespace_and_are_restored(pf):
    originals = {
        name: pf.coleman.__dict__[name] for name in ("katz_basis", "slope_spectrum", "up_matrix")
    }
    projector = pf.linalg.ordinary_projector
    recorder = spans.Recorder()
    recorder.install(vars(pf))
    try:
        # imported by name into other modules: those copies are wrapped too
        for mod in (pf.eigencurve, pf.duality, pf.acceptance):
            assert mod.katz_basis.__perfbench_original__ is originals["katz_basis"]
        assert pf.hida.ordinary_projector.__perfbench_original__ is projector
        assert pf.acceptance.ordinary_projector.__perfbench_original__ is projector
        assert hasattr(pf.qexp.QSeries.__dict__["__mul__"], "__perfbench_original__")
        assert hasattr(pf.padic.PadicMatrix.__dict__["__post_init__"], "__perfbench_original__")
        assert len(wrapped_everywhere()) > len(spans.TARGETS)
    finally:
        recorder.restore()
    assert wrapped_everywhere() == []
    assert pf.eigencurve.katz_basis is originals["katz_basis"]
    assert pf.acceptance.ordinary_projector is projector


def test_traced_counts_match_known_work(pf):
    recorder = spans.Recorder()
    recorder.install(vars(pf))
    try:
        a = pf.qexp.QSeries.from_coeffs(range(10))
        b = pf.qexp.QSeries.from_coeffs(range(7))
        a * b
        m = pf.padic.PadicMatrix.identity(3, 5, 2)
        m @ m
    finally:
        recorder.restore()
    metrics = recorder.metrics()
    assert metrics["qexp.QSeries.mul.calls"] == 1
    assert metrics["qexp.QSeries.mul.coeff_products"] == 7 * 8 // 2
    assert metrics["padic.PadicMatrix.matmul.entry_products"] == 27
    assert metrics["qexp.QSeries.new.calls"] == 3
    assert metrics["padic.PadicMatrix.new.calls"] == 2


def test_projector_over_its_cap_fails_alike_plain_and_traced(pf, golden):
    workload = workloads.ProjectorRandom(golden)
    # 2 has order 100 mod 125, so the projector stabilizes at step 11
    rounds = run.with_strata([[(5, 3, [[2, 0], [0, 5]])]])
    workload.max_iterations = 11
    assert run.run_rounds(workload, pf, rounds).failed == 0
    workload.max_iterations = 10
    plain = run.run_rounds(workload, pf, rounds)
    traced, metrics = traced_pass(workload, pf, rounds)
    assert plain.failed == traced.failed == 1 and plain.wrong == traced.wrong == 0
    assert plain.digests == traced.digests == ["raised VerificationError"]
    assert metrics["linalg.ordinary_projector.failures"] == 1


def test_checks_reject_wrong_outputs(pf, golden):
    projector = workloads.ProjectorRandom(golden)
    job = (5, 3, [[1, 0], [0, 5]])
    good = pf.linalg.ordinary_projector(pf.padic.PadicMatrix.from_rows(job[2], 5, 3))
    assert projector.check(pf, job, good)
    wrong = dataclasses.replace(good, idempotent=pf.padic.PadicMatrix.identity(2, 5, 3), rank=2)
    assert not projector.check(pf, job, wrong)

    acceptance = workloads.Acceptance(golden)
    result = pf.acceptance.run_all(0, [2])[0]
    assert acceptance.check(pf, (2, 0), result)
    result.details[-1] += " (altered)"
    assert not acceptance.check(pf, (2, 0), result)


def test_wall_s_sums_stratum_medians():
    tally = run.Tally()
    tally.strata = [0, 1, 0, 1, 0, 1]
    tally.latencies = [1.0, 5.0, 3.0, 6.0, 2.0, 100.0]
    assert tally.wall_s() == 2.0 + 6.0


def test_adjust_removes_kernel_time_and_scales_by_host_speed():
    sampler = hostspeed.Sampler()
    for i in range(11):  # a host twice as slow as the reference
        sampler.starts.append(0.1 * i)
        sampler.seconds.append(2 * hostspeed.REFERENCE_KERNEL_S)
    # five samples inside, 0.010 s of kernel time
    assert sampler.adjust(0.05, 0.55) == pytest.approx((0.5 - 0.010) / 2)


def test_sampler_samples_while_running_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * hostspeed.INTERVAL:
            pass
        t1 = time.perf_counter()
    assert len(sampler.seconds) >= 4
    assert sampler.adjust(t0, t1) > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_has_ten_jobs_beyond_it():
    latencies = [float(i) for i in range(1, 41)]
    value, percentile = run.tail(latencies)
    assert sum(1 for x in latencies if x > value) == 10
    assert (value, percentile) == (30.0, 75)


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.metric_specs()
    )
