"""Guard: the runtime needs only the standard library.

``pyproject.toml`` declares ``dependencies = []``; sympy and hypothesis are
test-only.  So no module under ``src/sixpoint`` may import anything but
standard-library modules and the package itself.
"""

import ast
import sys
from pathlib import Path

import sixpoint

ALLOWED = set(sys.stdlib_module_names) | {"sixpoint"}


def foreign_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name.partition(".")[0] not in ALLOWED
        ]
    return found


def test_the_guard_catches_each_kind_of_import():
    source = (
        "import sympy\n"
        "import os.path, numpy.linalg as la\n"
        "from hypothesis import given\n"
        "from fractions import Fraction\n"
        "from . import exact\n"
        "from .exact import echelon\n"
        "from sixpoint.exact import echelon\n"
        "def f():\n"
        "    import mpmath\n"
    )
    assert foreign_imports(source) == [
        "line 1: sympy",
        "line 2: numpy.linalg",
        "line 3: hypothesis",
        "line 9: mpmath",
    ]


def test_the_package_imports_only_the_standard_library():
    modules = sorted(Path(sixpoint.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    found = {
        module.name: foreign_imports(module.read_text(encoding="utf-8")) for module in modules
    }
    assert {name: imports for name, imports in found.items() if imports} == {}
