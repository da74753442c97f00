"""Line reach of ``src/``: what the system runs, what only unit tests run,
and what nothing runs.

The executable lines of ``src/padicforms`` are the lines of every
function body, read from the compiled code by ``co_lines``; the lines of
a comprehension count toward the function that encloses it, and
module-level and class-level code, which runs at import, is not counted.
Two pytest runs are traced, each in a child of ``mutants.forked`` (so
that no cache of the one warms the other), by ``sys.settrace`` over the
code of ``src/padicforms`` only:

- the system runs: every CLI golden and help screen of
  ``tests/test_cli.py`` (``test_golden_outputs``, ``test_help_goldens``)
  and ``tests/test_perfbench_golden.py``;
- the unit tests: the rest of ``tests/``.

The report prints each line of ``src/`` in one of three groups, by
module and function: reached by the system runs, reached only by unit
tests, never reached.  A unit-only line is code that only a test needs:
an argument refusal, or surface that should go.  Tracing makes the
tests about three times slower; the two runs take a few minutes.  The
exit status is 1 when any line is never reached or a traced run
fails, so CI runs the report as the check that ``src/`` holds no code
that nothing runs.

Usage, from any directory, with pytest and hypothesis installed:

    python tools/reach.py
"""

import json
import os
import sys
import tempfile
from functools import partial
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

from mutants import forked, run_pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "padicforms"
SYSTEM_TESTS = (
    "tests/test_cli.py::test_golden_outputs",
    "tests/test_cli.py::test_help_goldens",
    "tests/test_perfbench_golden.py",
)
UNIT_TESTS = (
    "tests",
    *(f"--deselect={test}" for test in SYSTEM_TESTS[:2]),
    f"--ignore={SYSTEM_TESTS[2]}",
)
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def function_lines(path: Path) -> dict:
    """{qualified function name: {line: the code objects that hold it}}
    for one module, each code object named by its first line and name."""
    out: dict = {}

    def walk(code, owner, prefix):
        if code.co_name in COMPREHENSIONS:
            name = owner  # None at module or class level
        elif code.co_flags & CO_OPTIMIZED:
            name = prefix + code.co_name
            prefix = name + ".<locals>."
        else:
            # the module or a class body: runs at import
            name = None
            if code.co_name != "<module>":
                prefix += code.co_name + "."
        if name is not None:
            lines = out.setdefault(name, {})
            for _, _, line in code.co_lines():
                if line is not None:
                    lines.setdefault(line, set()).add((code.co_firstlineno, code.co_name))
        for const in code.co_consts:
            if isinstance(const, CodeType):
                walk(const, name, prefix)

    walk(compile(path.read_text(), str(path), "exec"), None, "")
    return out


def trace_pytest(args, output: Path) -> int:
    """Run pytest with ``args`` in this process, recording every line of
    ``src/padicforms`` it executes with the code object that ran it, and
    write them as JSON to ``output``.  A call runs the first line of its
    code: the def line, which the module also runs at import, counts as
    reached only when the function is called."""
    prefix = str(PACKAGE) + os.sep
    ran: set = set()
    ours: dict = {}

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran.add((code.co_filename, code.co_firstlineno, code.co_name, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = code.co_filename.startswith(prefix)
        if not mine:
            return None
        ran.add((code.co_filename, code.co_firstlineno, code.co_name, code.co_firstlineno))
        return local

    sys.settrace(tracer)
    status = run_pytest(ROOT, args)
    sys.settrace(None)
    output.write_text(json.dumps(sorted(ran)))
    return status


def _ranges(lines) -> str:
    """Sorted line numbers as runs: 3-5, 9."""
    runs, lines = [], sorted(lines)
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        directory = Path(tmp)
        runs = {"system": SYSTEM_TESTS, "unit": UNIT_TESTS}
        # the two runs share nothing, so they run side by side
        jobs = [partial(trace_pytest, runs[label], directory / f"{label}.json") for label in runs]
        reached = {}
        for label, (status, _, output) in zip(runs, forked(jobs, directory)):
            if status != 0:
                print(f"the {label} run failed:\n{output}")
                return 1
            ran = json.loads((directory / f"{label}.json").read_text())
            reached[label] = {(Path(f).name, *rest) for f, *rest in ran}
    names = ("reached by the system runs", "reached only by unit tests", "never reached")
    groups = {name: {} for name in names}  # group -> module -> function -> lines
    for path in sorted(PACKAGE.glob("*.py")):
        for function, lines in function_lines(path).items():
            for line, codes in lines.items():
                keys = {(path.name, first, name, line) for first, name in codes}
                group = next(
                    (name for name, run in zip(names, ("system", "unit")) if keys & reached[run]),
                    names[2],
                )
                groups[group].setdefault(path.name, {}).setdefault(function, set()).add(line)
    totals = []
    for group, modules in groups.items():
        count = len(
            {(module, line) for module, functions in modules.items()
             for lines in functions.values() for line in lines}
        )
        totals.append(f"{count} {group}")
        print(f"{group}: {count} lines")
        for module, functions in modules.items():
            print(f"  {module}")
            for function, lines in sorted(functions.items(), key=lambda item: min(item[1])):
                print(f"    {function}: {_ranges(lines)}")
    print("executable lines of src/: " + ", ".join(totals))
    return 1 if groups[names[2]] else 0


if __name__ == "__main__":
    sys.exit("usage: python tools/reach.py (it takes no options)" if sys.argv[1:] else main())
