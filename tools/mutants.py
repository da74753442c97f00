"""Mutant registry: deliberate faults that the tests must catch.

Each entry of ``MUTANTS`` is one fault: a file, the exact text to
replace, which must occur exactly once in that file, the text put in
its place, and the ids of the tests that must fail with it.  The script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and runs every named test there once on the unchanged code,
where all must pass.  Then it applies each mutant in turn, runs that
mutant's tests with ``-x`` and restores the file.

The run fails if an entry's old text is missing or occurs more than
once (a refactor moved it: update the entry, do not drop it), if a
named test fails on the unchanged code, or if a mutant survives, which
means a test is missing.  Never remove an entry to make the run pass.

Usage, from any directory, with pytest and hypothesis installed:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: Tuple[str, ...]


_CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_catches_each_wrong_projector"

MUTANTS = (
    # series and matrix product kernels
    Mutant(
        "two-point evaluation at X = 2^N with N one bit short",
        "src/padicforms/qexp.py",
        "        shift = 4 * width  # X = 2^shift\n",
        "        shift = 4 * width - 1  # X = 2^shift\n",
        ("tests/test_qexp.py::test_product_matches_plain_product",),
    ),
    Mutant(
        "slot rule rounds bits up by (bits + 6) // 8",
        "src/padicforms/padic.py",
        "    size = (bits + 7) // 8\n",
        "    size = (bits + 6) // 8\n",
        (
            "tests/test_padic.py::test_matmul_slot_width_worst_case",
            "tests/test_qexp.py::test_product_matches_plain_product",
        ),
    ),
    Mutant(
        "series product shifted back by s + t - 1 after skipping leading zeros",
        "src/padicforms/qexp.py",
        "        n = q - s - t\n",
        "        n = q - s - t + 1\n",
        ("tests/test_qexp.py::test_product_matches_plain_product",),
    ),
    Mutant(
        "matrix products packed from 3 rows and columns",
        "src/padicforms/padic.py",
        "_PACKED_MIN_SIDE = 4\n",
        "_PACKED_MIN_SIDE = 3\n",
        ("tests/test_padic.py::test_internal_results_are_canonical",),
    ),
    # acceptance criterion 1: each identity's check, one at a time
    Mutant(
        "criterion 1 without its fused e^2 = e and eT = Te check",
        "src/padicforms/acceptance.py",
        "            if product_rows(e, list(map(add, e, t.rows)), 2 * n, modulus)"
        " != tuple(map(add, e, te)):\n",
        "            if False:\n",
        (f"{_CRITERION_1}[_entry_moved]", f"{_CRITERION_1}[_conjugated]"),
    ),
    Mutant(
        "criterion 1 checks eT = Te only, not e^2 = e",
        "src/padicforms/acceptance.py",
        "            if product_rows(e, list(map(add, e, t.rows)), 2 * n, modulus)"
        " != tuple(map(add, e, te)):\n",
        "            if product_rows(e, t.rows, n, modulus) != te:\n",
        (f"{_CRITERION_1}[_entry_moved]",),
    ),
    Mutant(
        "criterion 1 checks e^2 = e only, not eT = Te",
        "src/padicforms/acceptance.py",
        "            if product_rows(e, list(map(add, e, t.rows)), 2 * n, modulus)"
        " != tuple(map(add, e, te)):\n",
        "            if product_rows(e, e, n, modulus) != e:\n",
        (f"{_CRITERION_1}[_conjugated]",),
    ),
    Mutant(
        "criterion 1 without the rank check of T e + (1 - e)",
        "src/padicforms/acceptance.py",
        "            if rank_mod_p([list(map(add, a, b)) for a, b in zip(te, one_minus_e)], p)"
        " != n:\n",
        "            if False:\n",
        (f"{_CRITERION_1}[_identity_if_singular]",),
    ),
    Mutant(
        "criterion 1 without the check that T^m kills ker e mod p",
        "src/padicforms/acceptance.py",
        "            if any(map(any, product_rows(power, onto_ker_e, n, p))):\n",
        "            if False:\n",
        (f"{_CRITERION_1}[_zero_if_invertible]",),
    ),
    # Katz readouts and the U_p solve
    Mutant(
        "Katz readout spine read from q^p on instead of q^0",
        "src/padicforms/coleman.py",
        "reads = [*range(d), *range(0, self.p * d, self.p)]",
        "reads = [*range(d), *range(self.p, self.p * (d + 1), self.p)]",
        ("tests/test_coleman.py::test_katz_elements_mod_match_integral_blocks",),
    ),
    Mutant(
        "U_p solve ignores the normalization's power of p",
        "src/padicforms/coleman.py",
        "[[scale * c for c in e.coeffs[d:]] for e in elements]",
        "[list(e.coeffs[d:]) for e in elements]",
        ("tests/test_coleman.py::test_up_matrix_weight_zero_constant",),
    ),
    # acceptance criterion 4 and the duality adjunction
    Mutant(
        "criterion 4 without its rank comparison",
        "src/padicforms/acceptance.py",
        "            if len(set(ranks)) != 1:\n",
        "            if False:\n",
        ("tests/test_acceptance.py::test_criterion_4_catches_each_wrong_report[rank_low]",),
    ),
    Mutant(
        "adjunction check's right side applies U_p in place of F",
        "src/padicforms/duality.py",
        "rhs = sum(map(mul, f_coords, gram.apply(f_op.apply(g_coords))))",
        "rhs = sum(map(mul, f_coords, gram.apply(up_mat.apply(g_coords))))",
        (
            "tests/test_duality.py::test_adjunction_identity_and_negative_control",
            "tests/test_duality.py::test_adjunction_check_matches_the_explicit_pairing",
        ),
    ),
)


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)


def _tail(result: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((result.stdout + result.stderr).splitlines()[-lines:])


def main() -> int:
    problems = []
    for mutant in MUTANTS:
        found = (ROOT / mutant.file).read_text().count(mutant.old)
        if found != 1:
            problems.append(f"{mutant.name}: old text occurs {found} times in {mutant.file}")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        tests = sorted({t for mutant in MUTANTS for t in mutant.tests})
        clean = _pytest(copy, tests)
        if clean.returncode != 0:
            print(f"the named tests fail on the unchanged code:\n{_tail(clean)}")
            return 1
        failed = 0
        for mutant in MUTANTS:
            path = copy / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                result = _pytest(copy, mutant.tests)
            finally:
                path.write_text(original)
            seconds = time.perf_counter() - start
            # pytest exits 1 when a test failed; other codes are errors
            # of the entry itself (no such test id, a usage error)
            verdict = {0: "SURVIVED", 1: "killed"}.get(result.returncode, "ERROR")
            print(f"{verdict:8} {seconds:5.1f} s  {mutant.name}")
            if verdict != "killed":
                failed += 1
                print(_tail(result))
        print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
