"""Guard: no floating point in the runtime.

Every decision in ``sixpoint`` is exact, so no module under
``src/sixpoint`` may hold a float literal, name ``float`` or reach for
``math.sqrt``, ``math.isfinite`` or ``math.inf``.
"""

import ast
from pathlib import Path

import sixpoint

FORBIDDEN_MATH = {"sqrt", "isfinite", "inf"}


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: name float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FORBIDDEN_MATH
        ):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{where}: from math import {alias.name}"
                for alias in node.names
                if alias.name in FORBIDDEN_MATH
            ]
    return found


def test_the_guard_catches_each_kind_of_use():
    source = (
        "import math\n"
        "from math import inf\n"
        "x = 1e-9\n"
        "y = float(2)\n"
        "z = math.sqrt(2) + math.isfinite(x)\n"
        "w = 3 / 2  # division alone is not a use\n"
    )
    assert len(float_uses(source)) == 5


def test_no_floating_point_in_the_package():
    modules = sorted(Path(sixpoint.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    uses = {
        module.name: float_uses(module.read_text(encoding="utf-8")) for module in modules
    }
    assert {name: found for name, found in uses.items() if found} == {}
