"""The fork helper of ``tools/mutants.py``, which ``tools/reach.py``
runs its traced pytest runs with too: each job's exit status and
output, its time limit, and no child left running."""

import importlib.util
import os
import signal
import sys
import time
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
)
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def _prints():
    print("to stdout")
    print("to stderr", file=sys.stderr)
    os.write(2, b"to file descriptor 2\n")
    return 3


def _raises():
    raise RuntimeError("a job that raises")


def _sleeps():
    time.sleep(30)
    return 0


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_job_reads_its_status_and_writes_its_log(tmp_path, monkeypatch):
    monkeypatch.setattr(mutants, "LIMIT", 1)
    runs = list(mutants.forked([_prints, _raises, _sleeps, lambda: 0], tmp_path))
    statuses = [status for status, _, _ in runs]
    assert statuses == [3, os.EX_SOFTWARE, -signal.SIGALRM, 0]
    assert [mutants.VERDICTS.get(status, "ERROR") for status in statuses] == 3 * ["ERROR"] + [
        "SURVIVED"
    ]
    output = "to stdout\nto stderr\nto file descriptor 2"
    assert runs[0][2] == output and (tmp_path / "0.log").read_text() == output + "\n"
    assert runs[1][2].endswith("RuntimeError: a job that raises")
    assert 1 <= runs[2][1] < 10
    _assert_no_child_left()


def test_closing_early_ends_the_children_still_running(tmp_path):
    runs = mutants.forked([lambda: 1, _sleeps, _sleeps], tmp_path)
    assert next(runs)[0] == 1
    runs.close()
    _assert_no_child_left()
