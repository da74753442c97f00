"""Every imported name is used, and every module-level function and
class of the package, and every method and property of its classes, is
referenced: stdlib ``ast`` scans of the package modules (re-exports in
``__init__.py`` excepted), of the tests and of the benchmark harness.
No package module holds a float literal or a ``float(...)`` call, or an
``import`` inside a function body, nor a test of the coefficient ring's
kind (``ring_branches``), and each imports every package name from the
module that defines it (``indirect_imports``; re-exports in
``__init__.py`` excepted).  ``linalg.ProjectorResult`` is the
package's only ``@dataclass``: a value type is a plain ``padic.Value``
subclass and a record that only carries what its builder computed a
``typing.NamedTuple``, neither of whose classes costs generated code to
create."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "padicforms").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = [path for path in PACKAGE + TESTS if path.name != "__init__.py"]
BENCHMARK = sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(source: str):
    """(line, name) of each imported name that no ``Name`` node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _referenced_names(tree):
    """Each name a ``Name``, attribute or ``from`` import refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _definitions(tree):
    """(label, node) of each module-level function or class, and of each
    method or property, dunders excepted, of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def unreferenced_definitions(package_sources, other_sources=()):
    """(module, label) of each definition of the package sources (module
    -> source) that no source refers to outside its own body; a method
    or property is labelled ``Class.name``."""
    trees = {name: ast.parse(source) for name, source in package_sources.items()}
    counts = Counter()
    for tree in [*trees.values(), *(ast.parse(source) for source in other_sources)]:
        counts.update(_referenced_names(tree))
    unreferenced = []
    for module, tree in trees.items():
        for label, node in _definitions(tree):
            own = sum(name == node.name for name in _referenced_names(node))
            if counts[node.name] == own:
                unreferenced.append((module, label))
    return sorted(unreferenced)


def float_uses(source: str):
    """(line, text) of each float literal and each ``float(...)`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float("))
    return sorted(found)


def function_imports(source: str):
    """(line, function) of each ``import`` inside a function body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.add((inner.lineno, node.name))
    return sorted(found)


def dataclasses_in(source: str):
    """Name of each ``@dataclass`` class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            found.append(node.name)
    return found


def ring_branches(source: str):
    """(line, text) of each test of the coefficient ring's kind: an
    ``isinstance`` call or a comparison naming ``IntegerRing`` or
    ``ModRing``, and a comparison of a ``modulus`` with ``None``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            operands, text = node.args[1:], "isinstance"
        elif isinstance(node, ast.Compare):
            operands, text = [node.left, *node.comparators], "comparison"
            names = {getattr(x, "id", getattr(x, "attr", None)) for x in operands}
            nones = [x for x in operands if isinstance(x, ast.Constant) and x.value is None]
            if "modulus" in names and nones:
                found.append((node.lineno, "modulus is None"))
        else:
            continue
        kinds = {getattr(x, "id", getattr(x, "attr", None)) for o in operands for x in ast.walk(o)}
        if kinds & {"IntegerRing", "ModRing"}:
            found.append((node.lineno, text))
    return sorted(found)


def _defined_names(tree):
    """Each name a module binds at its top level by a ``def``, a
    ``class`` or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def indirect_imports(package_sources):
    """(module, line, name, source) of each name that a package module
    (module -> source; ``__init__`` excepted) imports by
    ``from .source import name`` when ``source`` does not define it."""
    trees = {name: ast.parse(source) for name, source in package_sources.items()}
    defined = {name: set(_defined_names(tree)) for name, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in defined:
                found.extend(
                    (module, node.lineno, alias.name, node.module)
                    for alias in node.names
                    if alias.name not in defined[node.module]
                )
    return sorted(found)


def test_names_come_from_the_module_that_defines_them():
    # a name taken through a module that only imports it ties the importer
    # to that module's imports, and hides where the name is defined
    package = {path.stem: path.read_text() for path in PACKAGE}
    assert indirect_imports(package) == []


def test_scan_catches_indirect_imports():
    package = {
        "a": (
            "from typing import List\n"
            "X = 1\n"
            "Y: int = 2\n"
            "P, (Q, R) = 1, (2, 3)\n"
            "def f(): pass\n"
            "class C: pass\n"
        ),
        "b": (
            "from .a import C, P, R, X, Y, f\n"
            "from .a import List\n"
            "from . import a\n"
            "import os\n"
        ),
        "c": "from .a import C\nfrom .b import X as x, f\nfrom os import path\n",
        "__init__": "from .b import f\n",
    }
    assert indirect_imports(package) == [
        ("b", 2, "List", "a"),
        ("c", 2, "X", "b"),
        ("c", 2, "f", "b"),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_ring_kind_branches(path):
    # each coefficient ring of qexp owns its reduction, unit inverse,
    # packing width and sign, rows kernel and JSON name; a module that
    # asked which ring it holds would decide one of them a second time
    assert ring_branches(path.read_text()) == []


def test_scan_catches_ring_branches():
    source = (
        "from .qexp import IntegerRing, ModRing, ZZ\n"
        "def f(ring, g, modulus):\n"
        "    if isinstance(ring, ModRing):\n"
        "        return 1\n"
        "    if isinstance(g.ring, (qexp.IntegerRing, tuple)):\n"
        "        return 2\n"
        "    if ring.modulus is None or None is not g.ring.modulus:\n"
        "        return 3\n"
        "    x = 0 if modulus == None else type(ring) is IntegerRing\n"
        "    y = isinstance(ring, int) or ring.modulus is 7 or ring.p is None\n"
        "    return ring == ZZ or isinstance(ZZ, type(ring))\n"
    )
    assert ring_branches(source) == [
        (3, "isinstance"),
        (5, "isinstance"),
        (7, "modulus is None"),
        (7, "modulus is None"),
        (9, "comparison"),
        (9, "modulus is None"),
    ]


def test_projector_result_is_the_only_dataclass():
    # The benchmark's tests edit a ProjectorResult with dataclasses.replace,
    # which takes dataclasses only.  Each other @dataclass would compile
    # generated methods when the package is imported.
    found = {path.name: dataclasses_in(path.read_text()) for path in PACKAGE}
    assert {name: classes for name, classes in found.items() if classes} == {
        "linalg.py": ["ProjectorResult"]
    }


def test_scan_catches_dataclasses():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    p: int\n"
        "    def passed(self): return True\n"
        "@dataclasses.dataclass\n"
        "class Tally:\n"
        "    n: int\n"
        "@dataclass(frozen=True)\n"
        "class Value:\n"
        "    p: int\n"
        "    def __post_init__(self): pass\n"
        "class Record:\n"
        "    p: int\n"
    )
    assert dataclasses_in(source) == ["Report", "Tally", "Value"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_catches_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from typing import List, Optional\n"
        "from .qexp import QSeries as Q, ZZ\n"
        "def f(x: Optional[int]) -> List[int]:\n"
        "    return Q(ZZ, (x, sys.maxsize))\n"
    )
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert float_uses(path.read_text()) == []


def test_scan_catches_floating_point():
    source = (
        "def f(x):\n"
        "    y = 2.5 * x\n"
        "    return float(x) + y + 3\n"
        "def g(s):\n"
        "    return s.float('1') + 1e3\n"
    )
    assert float_uses(source) == [(2, "2.5"), (3, "float("), (5, "1000.0")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_imports_at_module_top(path):
    assert function_imports(path.read_text()) == []


def test_scan_catches_function_imports():
    source = (
        "import os\n"
        "def f():\n"
        "    from .weights import w_coordinate\n"
        "    return w_coordinate\n"
        "class C:\n"
        "    def g(self):\n"
        "        import sys\n"
        "        return sys\n"
    )
    assert function_imports(source) == [(3, "f"), (7, "g")]


def test_no_unreferenced_definitions():
    package = {path.stem: path.read_text() for path in PACKAGE}
    others = [path.read_text() for path in TESTS + BENCHMARK]
    assert unreferenced_definitions(package, others) == []


def test_scan_catches_unreferenced_definitions():
    package = {
        "a": (
            "def used(): return helper()\n"
            "def helper(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "class Dead: pass\n"
            "class Annotated: pass\n"
            "def typed(x: Annotated) -> None: pass\n"
        ),
        "b": "from .a import used\n",
    }
    tests = ["import a\na.typed(None)\n"]
    assert unreferenced_definitions(package, tests) == [("a", "Dead"), ("a", "recursive")]


def test_scan_catches_unreferenced_methods():
    package = {
        "a": (
            "class Report:\n"
            "    def __post_init__(self): pass\n"
            "    @property\n"
            "    def read(self): return self.helper()\n"
            "    def helper(self): return 1\n"
            "    def dead(self): return self.dead\n"
            "    def benched(self): return 2\n"
        ),
    }
    others = ["from a import Report\nReport().read\n", "def wrap(r): return r.benched()\n"]
    assert unreferenced_definitions(package, others) == [("a", "Report.dead")]
