"""Every module-level import in the package is used by name, every
private module-level helper is read somewhere in the package, and so is
every field a class declares.

A refactor that deletes the last use of an imported name leaves the
import behind, one that deletes the last caller of a private helper
leaves the helper behind, and one that deletes the last reader of an
attribute leaves a slot or field that every instance still stores;
these guards read the modules' syntax trees and fail on a name that is
imported at module level but never read in the module, on a
module-level name with one leading underscore that no module of the
package reads, or on a `__slots__` entry or annotated class field that
no module of the package reads as an attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "g12calc"


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in read]
    assert unused == [], f"{path.name} imports {unused} without using them"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def _names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_private_module_names_are_read():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _names_read(tree)}
    orphans = [f"{module}:{name}" for module, tree in trees.items()
               for name in _private_definitions(tree) if name not in read]
    assert orphans == [], f"private names defined but never read: {orphans}"


def _class_fields(tree):
    """(class, field) of each `__slots__` entry and each annotated name in
    a class body, for every class of the module."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                yield cls.name, node.target.id
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets):
                slots = ast.literal_eval(node.value)
                for name in [slots] if isinstance(slots, str) else slots:
                    yield cls.name, name


def _attributes_read(tree):
    """Attribute names loaded (`x.name`, also as `x.name += ...`) or read
    by `getattr(x, "name")` with a constant name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.AugAssign) and \
                isinstance(node.target, ast.Attribute):
            yield node.target.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_class_fields_are_read():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values()
            for name in _attributes_read(tree)}
    unread = [f"{module}:{cls}.{name}" for module, tree in trees.items()
              for cls, name in _class_fields(tree) if name not in read]
    assert unread == [], f"class fields stored but never read: {unread}"
