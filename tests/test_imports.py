"""Every name a module imports is read in that module, and every package
definition is read somewhere.

No linter ships with the project, so these scans stand in for the
unused-import and dead-code checks. The import scan covers the package,
the tests and the benchmark harness (`bench/`, read only); package
`__init__.py` files import to re-export and are skipped, as are
`from __future__` imports. The definition scan asks that every top-level
function and class, and every method that is not a dunder, of the
package's modules is read by name somewhere in those three trees: as a
loaded name, an attribute, or an imported name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shona_asr"
SOURCES = sorted(p for d, pattern in ((PACKAGE, "*.py"), (ROOT / "tests", "*.py"),
                                      (ROOT / "bench", "**/*.py"))
                 for p in d.glob(pattern))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression in the module loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_scan_finds_an_unused_import():
    assert unused_imports("import json\nimport os\nfrom a import b, c as d\nos.sep, d\n") == [
        "line 1: json", "line 3: b"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(ROOT).as_posix().removeprefix("src/"))
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list[str]:
    """Top-level functions and classes, and their non-dunder methods, as `f`, `C`, `C.m`."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(node.name)
        if isinstance(node, ast.ClassDef):
            defs.extend(f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__")))
    return defs


def read_names(source: str) -> set[str]:
    """Names a module loads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """Definitions of a module whose own name is not in read."""
    return [d for d in definitions(source) if d.split(".")[-1] not in read]


def test_scan_finds_an_unread_definition():
    source = ("def f(): pass\ndef g(): pass\nclass C:\n    def m(self): pass\n"
              "    def n(self): pass\n    def __len__(self): return 0\nclass D: pass\n")
    read = read_names("from a import D\nf()\nx.n\n") | read_names("import b.C\n")
    assert unread_definitions(source, read) == ["g", "C.m"]


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(read_names(p.read_text()) for p in SOURCES))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: "defs:" + p.relative_to(ROOT / "src").as_posix())
def test_package_definitions_are_read(path, read_anywhere):
    assert unread_definitions(path.read_text(), read_anywhere) == []
