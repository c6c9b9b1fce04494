"""Substitution has one pass, and full-point evaluation one read-out.

`poly.Substitution.apply` is the one loop that folds a point into the
terms of polynomials: `Poly.subs`, `PolyMatrix.subs` and
`Substitution.values` all go through it.  The first guard reads the
package's syntax trees and fails on any read of `.monos` or use of
`mono_value` (the monomial values a fold reads) outside `poly`'s
`Substitution`, so a second fold cannot grow beside it.

`Substitution.values` evaluates polynomials at a point that gives every
variable a scalar.  The older idiom, `p.subs(point).constant_value()`,
builds a constant Poly per polynomial only to read it back.  The second
guard fails on any call of `.constant_value()` made directly on the
result of a `.subs(...)` call.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "g12calc"


def _fold_outside_substitution(tree, module):
    """Lines that read `.monos` or `.mono_value` outside the class
    Substitution of `poly`."""
    inside = set()
    if module == "poly.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Substitution":
                inside.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("monos", "mono_value")
                and id(node) not in inside):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_substitution_fold(path):
    lines = list(_fold_outside_substitution(ast.parse(path.read_text()),
                                            path.name))
    assert lines == [], (f"{path.name} folds monomial values outside "
                         f"poly.Substitution at lines {lines}; "
                         f"use Substitution.apply or values")


def test_fold_guard_sees_the_old_values_loop():
    old = ("def values(sub, polys):\n"
           "    monos = sub.monos\n"
           "    for p in polys:\n"
           "        for k, c in p.packed.items():\n"
           "            m = monos.get(k)\n"
           "            if m is None:\n"
           "                m = sub.mono_value(k)\n")
    assert list(_fold_outside_substitution(ast.parse(old), "linalg.py")) \
        == [2, 7]
    assert list(_fold_outside_substitution(ast.parse(old), "poly.py")) \
        == [2, 7]
    method = "class Substitution:\n" + "".join(
        "    " + line + "\n" for line in old.splitlines())
    assert list(_fold_outside_substitution(ast.parse(method), "poly.py")) \
        == []


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
