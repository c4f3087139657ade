"""Guard: no floating point in the runtime.

Every decision in ``sixpoint`` is exact, so no module under
``src/sixpoint`` may hold a float literal, name ``float`` or reach for
``math.sqrt``, ``math.isfinite`` or ``math.inf``.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import sixpoint
from sixpoint.divisors import CCurve, FCurve, SymmetricDivisor, boundary, from_k_psi
from sixpoint.exact import integer_vector
from sixpoint.genus2 import M2Divisor, Space, hassett_keel_divisor
from sixpoint.stability import PointConfiguration, WeightVector

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


FLOAT_INPUTS = {
    "SymmetricDivisor coefficient": lambda: SymmetricDivisor(6, {2: 0.5}),
    "SymmetricDivisor scalar": lambda: 0.5 * boundary(6, 2),
    "from_k_psi": lambda: from_k_psi(6, 0.5, 1),
    "FCurve": lambda: FCurve((1.9, 1, 1, 3)),
    "CCurve": lambda: CCurve(3.0),
    "M2Divisor": lambda: M2Divisor(Space.STACK, delta0=0.5),
    "hassett_keel_divisor": lambda: hassett_keel_divisor(0.7),
    "WeightVector": lambda: WeightVector(2, [0.5] * 6),
    "integer_vector": lambda: integer_vector([Fraction(1, 2), 0.25]),
    "PointConfiguration": lambda: PointConfiguration(2, [(1, 0.5, 0)]),
}


@pytest.mark.parametrize("build", FLOAT_INPUTS.values(), ids=FLOAT_INPUTS)
def test_float_input_is_rejected(build):
    # 0.7 as a double is not 7/10: converting it would move the slice off
    # the Point wall, so every exact entry point refuses it
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        build()
