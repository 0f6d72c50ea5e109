"""Rules for the runtime package, checked on its source with ``ast``.

Invariants that guard the maths raise real exceptions, so that they
still run under ``python -O``; the runtime imports nothing outside the
standard library and its own package; and every top-level function,
class, method and property is reachable from the package's module-level
code (``__all__``, the CLI entry) or the benchmark, through code that is
itself reachable, so no library code lives only for the tests.  Every
name the benchmark's tracer wraps exists where it looks for it.
"""

import ast
import importlib
import importlib.util
import sys
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


def _references(nodes):
    """(every name, attribute names) that ``nodes`` use.  Every name means
    loads, attributes, imports and string constants (``getattr`` targets,
    ``__all__``); attribute names are only the ``x.name`` uses, so that
    the builtin ``sum`` or a benchmark function ``cell_of`` would not hide
    a dead method of the same name."""
    names, attrs = set(), set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
            attrs.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names, attrs


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_no_code_only_tests_use():
    """Every top-level function and class and every method is reachable
    from the roots: the module-level code of each package module (its
    imports, ``__all__`` and the CLI entry), the dunder methods, and every
    name the benchmark mentions.  A function or class is reached by any
    reference to its name, a method only by an attribute reference."""
    roots = [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in BENCH
    ]
    defs = []  # (label, name, reached by attribute only, body)
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{path.name}:{node.name}", node.name, False,
                             [node]))
            elif isinstance(node, ast.ClassDef):
                body = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if not isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        body.append(item)
                    elif _is_dunder(item.name):
                        roots.append(item)
                    else:
                        defs.append((f"{path.name}:{node.name}.{item.name}",
                                     item.name, True, [item]))
                defs.append((f"{path.name}:{node.name}", node.name, False,
                             body))
            else:
                roots.append(node)
    names, attrs = _references(roots)
    unreached = defs
    while reached := [
        entry for entry in unreached
        if entry[1] in (attrs if entry[2] else names)
    ]:
        unreached = [entry for entry in unreached if entry not in reached]
        more_names, more_attrs = _references(
            node for *_, body in reached for node in body
        )
        names |= more_names
        attrs |= more_attrs
    unused = [entry[0] for entry in unreached]
    assert unused == [], f"not reachable from the package or benchmark: {unused}"


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
