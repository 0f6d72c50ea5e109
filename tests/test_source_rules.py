"""Rules for the runtime package, checked on its source with ``ast``.

Invariants that guard the maths raise real exceptions, so that they
still run under ``python -O``; and the runtime imports nothing outside
the standard library and its own package.
"""

import ast
import sys
from pathlib import Path

import pytest


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dgorbits"
MODULES = sorted(PACKAGE.glob("*.py"))
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
