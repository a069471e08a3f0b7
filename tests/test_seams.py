"""Module seams: no ietword module reaches into another one's private names.

A module importing a `_`-prefixed name from a sibling is using code that
was not meant as an interface, so either the name should be public or
the work belongs on the other side of the seam.
"""
import ast
from pathlib import Path

import ietword

PACKAGE = Path(ietword.__file__).parent


def private_imports(source: str) -> list[str]:
    """`_`-prefixed names an ietword module takes from another ietword
    module, by `from ... import` or as an attribute of an imported module."""
    found = []
    modules = set()  # local names bound to ietword modules
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "ietword":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                elif node.module is None or node.module == "ietword":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ietword" and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_guard_sees_private_imports():
    source = ("from .iet import _IntOrbit, natural_coding\n"
              "from ietword.words import _x as y\n"
              "from . import orders\n"
              "import ietword.rauzy as rz\n"
              "from fractions import _gcd\n"
              "orders._check_window(rz._Levels, self._x)\n")
    assert private_imports(source) == [
        "_IntOrbit", "_x", "orders._check_window", "rz._Levels"]


def test_no_module_imports_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    crossings = {path.name: private_imports(path.read_text())
                 for path in modules}
    assert {name: got for name, got in crossings.items() if got} == {}
