"""Every name a module or test file imports is used in it, every public
definition of the package is used in it, and the package imports
nothing outside the standard library."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import konigmatch

PACKAGE = Path(konigmatch.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import json\nfrom .konig import konig_cover, z_set\nz_set()\n"
    assert _unused_imports(source) == ["line 1: json",
                                       "line 2: konig_cover"]


def _non_stdlib_imports(source: str) -> list[str]:
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return sorted(name for name in modules
                  if name.split(".")[0] not in sys.stdlib_module_names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert _non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_third_party_import():
    source = ("import json, numpy as np\nfrom .graph import build_graph\n"
              "def f():\n    from networkx.algorithms import bipartite\n")
    assert _non_stdlib_imports(source) == ["networkx.algorithms", "numpy"]


def _stray_limits(source: str) -> list[str]:
    """Each construction of ``BudgetExceeded`` or ``PathExplosion``, and
    each module-level name ``MAX_*`` or ``*_LIMIT`` bound: outside
    ``errors.py``, a limit is a row of ``errors.Limit`` and a refusal is
    built by that row's ``refusal``."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if name in ("BudgetExceeded", "PathExplosion"):
                found.append(f"line {node.lineno}: {name}(...)")
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [n.id for target in targets if target is not None
                     for n in ast.walk(target) if isinstance(n, ast.Name)]
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.startswith("MAX_") or name.endswith("_LIMIT")]
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "errors.py"],
    ids=lambda p: p.name)
def test_every_limit_is_defined_and_refused_in_the_table(path):
    assert _stray_limits(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_stray_limit():
    source = ("from .graph import MAX_VERTICES\nDEFAULT_PATH_LIMIT = 4096\n"
              "MAX_A, b = 1, 2\nMAX_B: int = 3\nlimit = 5\n"
              "def f(n):\n    MAX_LOCAL = 1\n"
              "    raise BudgetExceeded(f'{n}')\n"
              "def g():\n    raise errors.PathExplosion('x')\n")
    assert _stray_limits(source) == [
        "line 8: BudgetExceeded(...)", "line 10: PathExplosion(...)",
        "line 1: MAX_VERTICES", "line 2: DEFAULT_PATH_LIMIT",
        "line 3: MAX_A", "line 4: MAX_B"]


# Public definitions nothing else in the package uses, kept on purpose.
UNREFERENCED_BY_DESIGN = {
    # the package reads the neighbour masks themselves
    "BipartiteGraph.neighbors": "the public view of a vertex's neighbours",
    # the package reads U as the mask u_mask
    "BipartiteGraph.u_side": "the public view of the procedure's U side",
    "is_enumeratively_konig_egervary": "the paper's enumerative property",
    # the walk tests K(M) as a mask, with the helpers this verdict runs
    "is_minimal_cover": "the minimality verdict for a set given from "
                        "outside",
    # konig_cover reads K(M) itself, which the matching keeps
    "z_set": "the public view of the procedure's Z-set",
    # the structure check reads the masks these views are built from
    "path_structures": "the public view of a matching's structures",
}


def _references(node: ast.AST, attributes_only: bool = False) -> Counter:
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, kinds))


def _unreferenced(sources: list[str]) -> list[str]:
    """Public top-level functions and classes whose name appears as no
    name or attribute outside their own definition, and public methods
    whose name appears as no attribute outside it: a local variable of
    the same name does not call a method."""
    trees = [ast.parse(source) for source in sources]
    total = {attributes_only: sum((_references(tree, attributes_only)
                                   for tree in trees), Counter())
             for attributes_only in (False, True)}
    definitions = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{node.name}.{sub.name}", sub)
                                for sub in node.body
                                if isinstance(sub, ast.FunctionDef)]
    unreferenced = []
    for qualname, node in definitions:
        if any(part.startswith("_") for part in qualname.split(".")):
            continue
        name = node.name
        method = "." in qualname
        if total[method][name] == _references(node, method)[name]:
            unreferenced.append(qualname)
    return sorted(unreferenced)


def test_every_public_definition_is_used_in_the_package():
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))]
    assert _unreferenced(sources) == sorted(UNREFERENCED_BY_DESIGN)


def test_the_check_sees_an_unreferenced_definition():
    source = ("def used():\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Box:\n"
              "    def size(self):\n        return used()\n"
              "    def _hidden(self):\n        pass\n"
              "    def side(self):\n        pass\n"
              "Box().size()\n"
              "side = used()\n")
    assert _unreferenced([source]) == ["Box.side", "recursive"]
