"""Every name a module or test file imports is used in it, and the
package imports nothing outside the standard library."""

import ast
import sys
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
