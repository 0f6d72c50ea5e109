"""Rules for the runtime package, checked on its source with ``ast``.

Invariants that guard the maths raise real exceptions, so that they
still run under ``python -O``; the runtime imports nothing outside the
standard library and its own package; and every top-level function,
class, method and property is reachable from the package's module-level
code (``__all__``, the CLI entry) or the benchmark, through code that is
itself reachable, so no library code lives only for the tests.  Every
parameter default is overridden by some call in the package or the
benchmark, so no default is a knob with one value.  Every name the
benchmark's tracer wraps exists where it looks for it.  Every assigned
local and every module-level import is read.  Every package name the
README spells out exists.
"""

import ast
import importlib
import importlib.util
import re
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


def _defaults(tree):
    """(call name, position, parameter) for every parameter default of
    every function and method in ``tree``.  A method's position does not
    count ``self`` or ``cls``; ``__init__`` is called by its class name.
    Keyword-only parameters have position None."""
    owner = {
        id(item): node.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name, args = node.name, node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        if id(node) in owner and "staticmethod" not in decorators:
            params = params[1:]
            if name == "__init__":
                name = owner[id(node)]
        out += [
            (name, params.index(param), param)
            for param in params[len(params) - len(args.defaults):]
        ]
        out += [
            (name, None, a.arg)
            for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return out


def _overrides(call, position, param):
    """Whether ``call`` passes its own value for a parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_no_one_value_defaults():
    """Every parameter default in the package is overridden by at least
    one call in the package or the benchmark, matched by name, so no
    default holds the only value a parameter ever takes.  ``main(argv)``
    is exempt: the tests pass ``argv``."""
    calls = {}
    for path in MODULES + BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    one_value = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, position, param in _defaults(tree):
            if (path.name, name) == ("cli.py", "main"):
                continue
            if not any(
                _overrides(call, position, param)
                for call in calls.get(name, ())
            ):
                one_value.append(f"{path.name}:{name}({param})")
    assert one_value == [], f"defaults no call overrides: {one_value}"


def _wrap_sites():
    """(owner, attribute) for every site the benchmark's tracer wraps."""
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
    return [(owner, attr) for owner, attr, _, _ in tracing.layer_targets(prog)]


def test_bench_wrap_sites_resolve():
    # the tracer wraps owner.__dict__[attr]; a renamed or dropped import
    # (``poset.validate``, say) would otherwise fail only in a traced run
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr in _wrap_sites()
        if attr not in owner.__dict__
    ]
    assert missing == [], f"wrap sites not found: {missing}"


def _scope_stores(func):
    """Names that ``func``'s own body assigns: nested functions, lambdas
    and classes are scopes of their own and are not entered."""
    out, todo = [], list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)
    return out


def test_no_unused_names():
    """Every local a function assigns is read in that function or a scope
    nested in it, and every module-level import is read in its module.
    ``__all__`` reads the package's re-exports; an import the benchmark's
    tracer wraps is exempt, since the tracer reads it there."""
    wrapped = {(owner.__name__, attr) for owner, attr in _wrap_sites()}
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = f"dgorbits.{path.stem}".removesuffix(".__init__")
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loads = {
                node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)
            }
            unused += [
                f"{path.name}:{node.lineno} {node.id}"
                for node in _scope_stores(func)
                if node.id not in loads and node.id != "_"
            ]
        loads = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]
            ):
                loads |= {elt.value for elt in node.value.elts}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in loads and (module, name) not in wrapped:
                    unused.append(f"{path.name}:{node.lineno} import {name}")
    assert unused == [], f"assigned or imported but never read: {unused}"


def test_readme_names_resolve():
    names = re.findall(
        r"dgorbits\.(\w+)\.(\w+)",
        (ROOT / "README.md").read_text(encoding="utf-8"),
    )
    assert names, "the README names no dgorbits.<module>.<NAME>"
    missing = [
        f"dgorbits.{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"dgorbits.{module}"), name)
    ]
    assert missing == [], f"README names that do not resolve: {missing}"
