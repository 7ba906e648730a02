"""Source hygiene checks that need no third-party linter."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "rankbandit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a library name may be used: the library, its tests and the benchmark
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (REPO / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` imports excepted)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


def test_finds_an_unused_import():
    source = "import math\nfrom os import path, sep\n\nprint(math.pi, sep)\n"
    assert unused_imports(source) == ["line 2: path"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def unreferenced_definitions(module, sources: dict) -> list[str]:
    """Module-level functions and classes of ``module`` whose name appears in
    no file of ``sources`` (path -> text) outside their own definition."""
    tree = ast.parse(sources[module])
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        word = re.compile(rf"\b{re.escape(node.name)}\b")
        own = range(node.lineno, node.end_lineno + 1)
        used = any(word.search(line)
                   for path, text in sources.items()
                   for k, line in enumerate(text.splitlines(), 1)
                   if not (path == module and k in own))
        if not used:
            out.append(f"line {node.lineno}: {node.name}")
    return out


def test_finds_an_unreferenced_definition():
    module = ("def used():\n    return 1\n\n\n"
              "def orphan():\n    return orphan()\n\n\n"
              "class Named:\n    pass\n")
    sources = {"pkg/mod.py": module,
               "tests/test_mod.py": "from pkg.mod import used\n",
               "bench/targets.py": 'TARGETS = ["mod.Named"]\n'}
    assert unreferenced_definitions("pkg/mod.py", sources) == ["line 5: orphan"]


@pytest.fixture(scope="module")
def sources():
    return {p: p.read_text() for p in SOURCES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(module, sources):
    assert unreferenced_definitions(module, sources) == []
