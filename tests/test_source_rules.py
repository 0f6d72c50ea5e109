"""Rules for the runtime package, checked on its source with ``ast``.

Invariants that guard the maths raise real exceptions, so that they
still run under ``python -O``; the runtime imports nothing outside the
standard library and its own package; and every top-level function or
class is either public (in ``__all__``) or used by the package or the
benchmark, and every method and property is called as an attribute by
the package or the benchmark, so no library code lives only for the
tests.  Every name the benchmark's tracer wraps exists where it looks
for it.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dgorbits"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((ROOT / "dgbench").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"dgorbits"}


def _nodes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return ast.walk(tree)


def test_modules_found():
    assert {"linalg.py", "poset.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert(path):
    lines = [
        node.lineno for node in _nodes(path) if isinstance(node, ast.Assert)
    ]
    assert lines == [], f"assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_stdlib_or_own_package(path):
    outside = []
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [
            name for name in names
            if name.split(".")[0] not in ALLOWED
        ]
    assert outside == [], f"imports outside the standard library: {outside}"


def _references(node):
    """Names that ``node`` uses: loads, attributes, imports, and string
    constants (``getattr`` targets)."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def _attributes(node):
    """Attribute names that ``node`` uses (``x.name``).  Bare names do not
    count: the builtin ``sum`` or a benchmark function ``cell_of`` would
    hide a dead method of the same name."""
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    )


def _methods(tree):
    """(class name, definition) of every non-dunder method and property of
    a top-level class."""
    return [
        (cls.name, item)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]


def test_no_code_only_tests_use():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in MODULES + BENCH
    }
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    public = set()
    for node in trees[PACKAGE / "__init__.py"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            public |= set(ast.literal_eval(node.value))
    unused = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        and node.name not in public
        and refs[node.name] == _references(node)[node.name]
    ]
    # a method counts as used only where it is looked up outside its body
    attrs = sum((_attributes(tree) for tree in trees.values()), Counter())
    unused += [
        f"{path.name}:{cls}.{node.name}"
        for path in MODULES
        for cls, node in _methods(trees[path])
        if attrs[node.name] == _attributes(node)[node.name]
    ]
    assert unused == [], f"used by no module, benchmark or __all__: {unused}"


def test_bench_wrap_sites_resolve():
    # the tracer wraps owner.__dict__[attr]; a renamed or dropped import
    # (``poset.validate``, say) would otherwise fail only in a traced run
    spec = importlib.util.spec_from_file_location(
        "dgbench_tracing", ROOT / "dgbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    prog = SimpleNamespace(**{
        m: importlib.import_module("dgorbits." + m)
        for m in ("young", "linalg", "subspace", "poset", "canonical",
                  "serialize")
    })
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracing.layer_targets(prog)
        if attr not in owner.__dict__
    ]
    assert missing == [], f"wrap sites not found: {missing}"
