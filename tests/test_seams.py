"""Module seams: no ietword module reaches into another one's private names.

A module importing a `_`-prefixed name from a sibling is using code that
was not meant as an interface, so either the name should be public or
the work belongs on the other side of the seam.
"""
import ast
import importlib
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


def unused_names(source: str) -> list[str]:
    """Names a module imports but never reads, then names its `__all__`
    lists but the module does not bind at its top level."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
    return ([name for name in imported
             if name not in read and name not in exported]
            + [name for name in exported if name not in bound])


def test_guard_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from .words import FactorSet as FS, factors\n"
              "__all__ = ['factors', 'Graph', 'gone', 'LIMIT']\n"
              "LIMIT: int = 3\n"
              "@dataclass\n"
              "class Graph:\n"
              "    fs: FS\n")
    assert unused_names(source) == ["os", "field", "gone"]


def test_no_module_has_unused_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {path.name: unused_names(path.read_text()) for path in modules}
    assert {name: got for name, got in found.items() if got} == {}


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """`_`-prefixed functions, classes and methods, dunders aside, whose
    name no module of the package reads, as module:name."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append(f"{module}:{node.name}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name.split(":")[1] not in read]


def test_guard_sees_unreferenced_privates():
    sources = {
        "a.py": ("def _walk(n):\n"
                 "    return _step(n)\n"
                 "def _step(n):\n"
                 "    return n\n"
                 "class _Kernel:\n"
                 "    def __init__(self):\n"
                 "        self._hint = None\n"
                 "    def _locate(self):\n"
                 "        pass\n"
                 "    def _widen(self):\n"
                 "        pass\n"),
        "b.py": "from .a import _Kernel\n_Kernel()._widen()\n",
    }
    assert unreferenced_privates(sources) == ["a.py:_walk", "a.py:_locate"]


def test_no_module_has_unreferenced_privates():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    assert unreferenced_privates({path.name: path.read_text() for path in modules}) == []


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def spanned_names(source: str) -> list[str]:
    """layer.name for every name the `SPANNED` dict literal of a source
    lists under its layer."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets)):
            return [f"{layer}.{name}"
                    for layer, names in ast.literal_eval(node.value).items()
                    for name in names]
    return []


def test_guard_reads_spanned_names():
    source = ("SPANNED = {\n"
              "    'iet': ['natural_coding', 'cylinder'],\n"
              "    'cli': ['main'],\n"
              "}\n"
              "COMPARE = ['sign']\n")
    assert spanned_names(source) == ["iet.natural_coding", "iet.cylinder", "cli.main"]
    assert spanned_names("COMPARE = ['sign']\n") == []


def test_benchmark_spans_name_library_functions():
    # the traced benchmark wraps each of these; a missing one fails every traced run
    names = spanned_names(TRACER.read_text())
    assert len(names) >= 10
    missing = []
    for name in names:
        layer, attr = name.split(".")
        if not hasattr(importlib.import_module(f"ietword.{layer}"), attr):
            missing.append(name)
    assert missing == []
