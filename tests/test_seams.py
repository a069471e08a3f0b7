"""Module seams: no ietword module reaches into another one's private names.

A module importing a `_`-prefixed name from a sibling is using code that
was not meant as an interface, so either the name should be public or
the work belongs on the other side of the seam.  The other guards keep
dead names out: every import is read, every private and every public
name is read somewhere else, the benchmark's tracer names only code
that exists, and nothing outside the standard library is imported. In
the tests, no module imports a test module: what two of them share lives
in tests/corpus.py, and the references the differential tests compare
with live in tests/reference.py, which reads no private name or kernel
table of ietword.
"""
import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import ietword

PACKAGE = Path(ietword.__file__).parent
TESTS = Path(__file__).resolve().parent


def sources(directory: Path) -> dict[str, str]:
    """The source of each module of directory, by file name."""
    modules = sorted(directory.glob("*.py"))
    assert len(modules) >= 8
    return {path.name: path.read_text() for path in modules}


def findings(directory: Path, check) -> dict[str, list[str]]:
    """What check finds in each module of directory, where it finds anything."""
    found = {name: check(source) for name, source in sources(directory).items()}
    return {name: got for name, got in found.items() if got}


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
    assert findings(PACKAGE, private_imports) == {}


def unused_names(source: str) -> list[str]:
    """Names a module imports but never reads, then names its `__all__`
    lists but the module neither binds at its top level nor serves from
    a top-level `__getattr__` (the strings of the tuple, list or set
    literals that function holds)."""
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
            if node.name == "__getattr__":
                bound.update(elt.value for sub in ast.walk(node)
                             if isinstance(sub, (ast.Tuple, ast.List, ast.Set))
                             for elt in sub.elts if isinstance(elt, ast.Constant))
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
    # a name __getattr__ serves counts as bound; one it does not still fails
    served = (source.replace("'gone'", "'gone', 'lazy', 'late'")
              + "def __getattr__(name):\n"
              "    if name in ('lazy', 'other'):\n"
              "        return name\n"
              "    raise AttributeError(f'no {name}')\n")
    assert unused_names(served) == ["os", "field", "gone", "late"]


def test_no_module_has_unused_names():
    assert findings(PACKAGE, unused_names) == {}


def test_no_test_module_has_unused_names():
    assert findings(TESTS, unused_names) == {}


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
    assert unreferenced_privates(sources(PACKAGE)) == []


def names_read(tree: ast.AST) -> Counter:
    """How often each name is loaded, as a variable or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def unread_public_names(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """`__all__` entries and public methods of public classes, dunders
    aside, that no package source reads outside the name's own
    definition, and that no reader source reads or holds as a string in
    a list literal; as module:name or module:Class.method."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reader_trees = [ast.parse(source) for source in readers.values()]
    read = sum((names_read(tree) for tree in [*trees.values(), *reader_trees]), Counter())
    read.update(elt.value for tree in reader_trees for node in ast.walk(tree)
                if isinstance(node, ast.List) for elt in node.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    public = []  # (module:name, name, the definition whose own reads do not count)
    for module, tree in trees.items():
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                public += [(f"{module}:{name}", name, defs.get(name))
                           for name in ast.literal_eval(node.value)]
        for cls in defs.values():
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                public += [(f"{module}:{cls.name}.{m.name}", m.name, m) for m in cls.body
                           if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not m.name.startswith("_")]
    return [key for key, name, node in public
            if not (name.startswith("__") and name.endswith("__"))
            and read[name] - (names_read(node)[name] if node else 0) == 0]


def test_guard_sees_unread_public_names():
    sources = {
        "a.py": ("__all__ = ['walk', 'step', 'Kernel', 'LIMIT', 'spare', '__version__']\n"
                 "LIMIT = 3\n"
                 "__version__ = '1'\n"
                 "def walk(n):\n"
                 "    return walk(n - 1) if n else step(n)\n"
                 "def step(n):\n"
                 "    return n\n"
                 "def spare():\n"
                 "    pass\n"
                 "class Kernel:\n"
                 "    def locate(self):\n"
                 "        return self.locate()\n"
                 "    def widen(self):\n"
                 "        pass\n"
                 "    def __floor__(self):\n"
                 "        pass\n"
                 "class _Hidden:\n"
                 "    def probe(self):\n"
                 "        pass\n"),
        "b.py": "from .a import Kernel, LIMIT\nKernel().widen(LIMIT)\n",
    }
    readers = {"tracer.py": "HOOKS = {'a': ['spare']}\nSPARE = 'walk'\n"}
    assert unread_public_names(sources, readers) == ["a.py:walk", "a.py:Kernel.locate"]
    assert unread_public_names(sources, {}) == [
        "a.py:walk", "a.py:spare", "a.py:Kernel.locate"]


# entry points the README's library tour documents, read by no pipeline path
DOCUMENTED_ENTRY_POINTS = {
    "iet.py:orbit",
    "iet.py:IETSpec.index_of",
}
PERFBENCH = TESTS.parent / "perfbench"


def test_every_public_name_is_read():
    readers = {path.name: path.read_text() for path in sorted(PERFBENCH.glob("*.py"))}
    assert "tracer.py" in readers
    unread = unread_public_names(sources(PACKAGE), readers)
    assert sorted(unread) == sorted(DOCUMENTED_ENTRY_POINTS)


TRACER = PERFBENCH / "tracer.py"


def traced_names(source: str) -> list[str]:
    """What a tracer source wraps by name: layer.function for each name its
    `SPANNED` dict lists under a layer, then exact.ExactScalar.method for
    each name its `COMPARE` and `ARITH` lists hold."""
    lists = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COMPARE", "ARITH"):
                    lists[target.id] = ast.literal_eval(node.value)
    return ([f"{layer}.{name}"
             for layer, names in lists.get("SPANNED", {}).items() for name in names]
            + [f"exact.ExactScalar.{name}"
               for key in ("COMPARE", "ARITH") for name in lists.get(key, [])])


def test_guard_reads_spanned_names():
    source = ("SPANNED = {\n"
              "    'iet': ['natural_coding', 'cylinder'],\n"
              "    'cli': ['main'],\n"
              "}\n"
              "COMPARE = ['sign']\n"
              "ARITH = ['__add__', '__rtruediv__']\n"
              "HOT = ['__mul__']\n")
    assert traced_names(source) == [
        "iet.natural_coding", "iet.cylinder", "cli.main", "exact.ExactScalar.sign",
        "exact.ExactScalar.__add__", "exact.ExactScalar.__rtruediv__"]
    assert traced_names("HOT = ['sign']\n") == []


def test_benchmark_spans_name_library_functions():
    # the traced benchmark wraps each of these, the scalar hooks by getattr;
    # a missing one fails every traced run
    names = traced_names(TRACER.read_text())
    assert len(names) >= 10
    assert "exact.ExactScalar.__rtruediv__" in names
    missing = []
    for name in names:
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"ietword.{layer}")
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(name)
    assert missing == []


def imported_modules(source: str) -> list[str]:
    """Modules a source imports, relative imports aside."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    return imported


def foreign_imports(source: str) -> list[str]:
    """Modules a source imports that are neither relative nor part of the
    standard library."""
    return [name for name in imported_modules(source)
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_guard_sees_foreign_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy as np\n"
              "from collections import Counter\n"
              "from . import iet\n"
              "from .words import FactorSet\n"
              "from hypothesis.strategies import text\n"
              "def f():\n"
              "    import ietword.iet\n")
    assert foreign_imports(source) == ["numpy", "hypothesis.strategies", "ietword.iet"]


def test_package_imports_only_the_standard_library():
    assert findings(PACKAGE, foreign_imports) == {}


def imported_test_modules(source: str) -> list[str]:
    """`test_*` modules a source imports."""
    return [name for name in imported_modules(source)
            if name.split(".")[-1].startswith("test_")]


def test_guard_sees_test_module_imports():
    source = ("from test_iet import enumerate_cylinders\n"
              "import test_words as tw, pytest\n"
              "from corpus import near_miss, test_like\n"
              "from tests.test_cli import main\n"
              "from hypothesis import strategies\n")
    assert imported_test_modules(source) == ["test_iet", "test_words", "tests.test_cli"]


def test_no_test_module_imports_another():
    # what two test modules share lives in tests/corpus.py
    assert findings(TESTS, imported_test_modules) == {}


# an exchange's derived tables and kernel, and a walk's tree and tables
DERIVED = {"kernel", "disp", "refl", "dest_lo", "slot_start", "slot_of", "tree", "tables"}


def kernel_reads(source: str) -> list[str]:
    """What a source reads of ietword past its public names: its private
    imports, then each attribute it reads that is `_`-prefixed (dunders
    aside) or one of DERIVED, of any object."""
    return private_imports(source) + [
        node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)
        and (node.attr in DERIVED or node.attr.startswith("_") and not node.attr.endswith("__"))]


def test_guard_sees_kernel_reads():
    source = ("from fractions import _gcd\n"
              "from ietword import iet\n"
              "from ietword.iet import _IntOrbit, build_iet\n"
              "p = T.kernel.step(p)\n"
              "walk = iet._Cylinders(k, cuts, letters)\n"
              "x = T.lengths[0].coef + walk.tree[0] + T.slot_start[1]\n"
              "y = x.__class__(x.rat)\n")
    assert sorted(kernel_reads(source)) == [
        "_Cylinders", "_IntOrbit", "iet._Cylinders", "kernel", "slot_start", "tree"]


def test_reference_reads_only_public_names():
    # the references share no table or step rule with the kernel they check
    assert kernel_reads((TESTS / "reference.py").read_text()) == []
