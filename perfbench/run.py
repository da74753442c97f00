"""padicforms benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload slopes-deep --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  The load is a closed loop: one job at a time,
each starting when the previous one returns, in one process with no
extra threads.  The seed draws a list of rounds; each round is one job
per stratum of the workload.  A run is a fixed number of rounds, the
workload's count at 35 seconds scaled by ``--seconds``, and at least two,
so that the tail percentile has ten jobs beyond it.  Every output is
checked outside the timed job.

``--trace 0`` installs no wrappers and prints the end-to-end metrics, in
reference seconds: times adjusted for the host's speed, which a timer
samples all through the run (see hostspeed.py).  The measured seconds
are printed beside them.
``--trace 1`` runs each job of one round twice, back to back, plain and
with span wrappers on every layer, and prints the per-layer metrics and
the tracing overhead.  ``--workload all`` runs each workload in its own
process, one after the other.

Human-readable lines go to stdout; the last line is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = (
    "acceptance",
    "charseries",
    "coleman",
    "duality",
    "eigencurve",
    "errors",
    "forms",
    "hida",
    "linalg",
    "padic",
    "qexp",
    "serialize",
    "weights",
)
SETUP_REPEATS = 9
MIN_ROUNDS = 2  # the tail percentile needs ten jobs beyond it
REFERENCE_SECONDS = 35  # the run length the workloads' round counts are set for
TRACE_ROUNDS = 1
END_TO_END = {
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import padicforms afresh from the checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "padicforms" / "__init__.py").is_file():
        raise ImportError(f"no padicforms package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "padicforms" or n.startswith("padicforms.")]:
        del sys.modules[name]
    pkg = importlib.import_module("padicforms")
    if Path(pkg.__file__).resolve().parent != (src / "padicforms").resolve():
        raise ImportError(f"padicforms imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"padicforms.{name}") for name in MODULES}
    )


def with_strata(job_rounds):
    """Tag each job with its stratum: its place in the round as drawn."""
    return [list(enumerate(job_round)) for job_round in job_rounds]


def setup(workload, seed: int, rounds: int, sampler=None):
    """Import plus input generation; returns (modules, rounds, seconds),
    each round a list of (stratum, job)."""
    t0 = time.perf_counter()
    pf = import_package()
    rng = Random(f"{workload.name}:{seed}")
    job_rounds = with_strata(workload.make_rounds(rng, rounds))
    # Shuffled so that jobs of one size do not all run in the same few
    # seconds of host speed drift.
    for job_round in job_rounds:
        rng.shuffle(job_round)
    t1 = time.perf_counter()
    return pf, job_rounds, (sampler.adjust(t0, t1) if sampler else t1 - t0)


class Tally:
    """Job latencies and outcomes of one pass over a round list."""

    def __init__(self):
        self.latencies = []  # reference seconds when a sampler ran, else measured
        self.measured = []  # measured seconds
        self.strata = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.digests = []

    def wall_s(self, latencies=None) -> float:
        """Time of one round: the sum over strata of each stratum's
        median latency across the rounds."""
        by_stratum = {}
        for stratum, value in zip(self.strata, latencies or self.latencies):
            by_stratum.setdefault(stratum, []).append(value)
        return sum(statistics.median(values) for values in by_stratum.values())


def run_job(workload, pf, stratum, job, tally, recorder=None, sampler=None):
    """Run one job, with the recorder's wrappers installed around it when
    one is given, then check its output."""
    if recorder is not None:
        recorder.install(vars(pf))
    try:
        t0 = time.perf_counter()
        try:
            result = workload.run(pf, job)
        except (pf.errors.PrecisionError, pf.errors.VerificationError) as exc:
            result = exc
        t1 = time.perf_counter()
    finally:
        if recorder is not None:
            recorder.restore()
    elapsed = sampler.adjust(t0, t1) if sampler else t1 - t0
    tally.latencies.append(elapsed)
    tally.measured.append(t1 - t0)
    tally.strata.append(stratum)
    tally.attempted += 1
    if isinstance(result, Exception):
        tally.failed += 1
        tally.digests.append(f"raised {type(result).__name__}")
    else:
        tally.digests.append(workload.digest(pf, job, result))
        if not workload.check(pf, job, result):
            tally.failed += 1
            tally.wrong += 1


def run_rounds(workload, pf, rounds, recorder=None, sampler=None):
    """Closed loop over ``rounds`` of (stratum, job)."""
    tally = Tally()
    for job_round in rounds:
        for stratum, job in job_round:
            run_job(workload, pf, stratum, job, tally, recorder, sampler)
    return tally


def tail(latencies):
    """Highest percentile with at least ten jobs beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 10  # 1-based rank of the order statistic with ten above it
    return ordered[rank - 1], math.floor(100 * rank / n)


def metric(value, unit):
    return {"value": value, "unit": unit}


def round_count(workload, seconds: float) -> int:
    """Rounds in a run: fixed by ``seconds``, not by how fast the host
    runs, so that every run of a workload times the same job mix."""
    return max(MIN_ROUNDS, round(workload.rounds * seconds / REFERENCE_SECONDS))


def end_to_end(workload, seed, seconds):
    setups = []
    with hostspeed.Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            pf, rounds, setup_s = setup(workload, seed, round_count(workload, seconds), sampler)
            setups.append(setup_s)
        tally = run_rounds(workload, pf, rounds, sampler=sampler)
    tail_s, percentile = tail(tally.latencies)
    values = {
        "wall_s": tally.wall_s(),
        "job_s.p50": statistics.median(tally.latencies),
        "job_s.tail": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    measured = {
        "wall_s": tally.wall_s(tally.measured),
        "job_s.p50": statistics.median(tally.measured),
        "job_s.tail": tail(tally.measured)[0],
    }
    print(
        f"{workload.name}: seed {seed}, {len(rounds)} rounds, "
        f"{tally.attempted} jobs, tail is p{percentile} of {tally.attempted} jobs"
    )
    print(
        f"  host: reference kernel median {sampler.kernel_median() * 1e3:.3f} ms over "
        f"{len(sampler.seconds)} samples (reference {hostspeed.REFERENCE_KERNEL_S * 1e3:.3f} ms)"
    )
    print(f"  fail_rate = {tally.failed / tally.attempted:.4f} ({tally.failed}/{tally.attempted}, "
          f"{tally.wrong} wrong outputs)")
    for name, entry in metrics.items():
        seen = f" (measured {measured[name]:.6f} s)" if name in measured else ""
        print(f"  {name} = {entry['value']:.6f} {entry['unit']}{seen}")
    return tally, metrics


def traced(workload, seed, trace_dir):
    pf, rounds, _ = setup(workload, seed, TRACE_ROUNDS)
    recorder = spans.Recorder()
    plain, wrapped = Tally(), Tally()
    # Each job runs plain and traced back to back, the order alternating
    # from job to job, so that host speed drift cancels out of the overhead.
    for index, (stratum, job) in enumerate(rounds[0]):
        passes = [(plain, None), (wrapped, recorder)]
        if index % 2:
            passes.reverse()
        for tally, rec in passes:
            run_job(workload, pf, stratum, job, tally, rec)
    layer = recorder.metrics()
    layer["trace.overhead_s"] = wrapped.wall_s() - plain.wall_s()
    if wrapped.digests != plain.digests:
        print("traced and plain passes disagree", file=sys.stderr)
        wrapped.wrong += 1
    trace_dir.mkdir(exist_ok=True)
    recorder.write(trace_dir / f"{workload.name}-seed{seed}.json.gz")
    units = {name: unit for name, unit, _ in spans.metric_specs()}
    metrics = {name: metric(layer[name], units[name]) for name, _, _ in spans.metric_specs()}
    print(
        f"{workload.name} traced: seed {seed}, {len(rounds)} rounds, {wrapped.attempted} jobs, "
        f"plain wall_s {plain.wall_s():.6f} s, traced {wrapped.wall_s():.6f} s"
    )
    for name, entry in metrics.items():
        if entry["value"]:
            print(f"  {name} = {entry['value']} {entry['unit']}")
    return wrapped, metrics


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload](workloads.load_golden())
    try:
        if args.trace:
            tally, metrics = traced(workload, args.seed, ROOT / ".bench_trace")
        else:
            tally, metrics = end_to_end(workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
