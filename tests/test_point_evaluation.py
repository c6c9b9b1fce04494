"""Full-point evaluation to scalars has one path.

`poly.Substitution.values` evaluates polynomials at a point that gives
every variable a scalar; `PolyMatrix.subs` takes it for such a point.
The older idiom, `p.subs(point).constant_value()`, builds a constant
Poly per polynomial only to read it back.  This guard reads the
package's syntax trees and fails on any call of `.constant_value()` made
directly on the result of a `.subs(...)` call.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "g12calc"


def _subs_read_as_constant(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "constant_value"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Attribute)
                and node.func.value.func.attr == "subs"):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_subs_read_as_a_constant(path):
    lines = list(_subs_read_as_constant(ast.parse(path.read_text())))
    assert lines == [], (f"{path.name} evaluates a full point by "
                         f".subs(...).constant_value() at lines {lines}; "
                         f"use Substitution.values")


def test_guard_sees_the_old_idiom():
    old = ("rank([[g.subs(sub).constant_value() for g in gradient(f)]\n"
           "      for f in first_integrals()])\n")
    assert list(_subs_read_as_constant(ast.parse(old))) == [1]
