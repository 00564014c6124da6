"""Every name a module imports is read in that module, and every package
definition is read somewhere outside itself.

No linter ships with the project, so these scans stand in for the
unused-import and dead-code checks. The import scan covers the package,
the tests and the benchmark harness (`bench/`, read only); package
`__init__.py` files import to re-export and are skipped, as are
`from __future__` imports. The definition scan asks that every top-level
function, class and constant, and every method that is not a dunder, of
the package's modules is read by name somewhere in those three trees
outside its own definition (so a function that only calls itself is
dead): as a loaded name, an attribute, or an imported name.
"""

import ast
from collections import Counter
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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Top-level functions, classes and constants, and the classes' non-dunder methods.

    Each comes with its node, as (`f`, node), (`C`, node), (`C.m`, node);
    a constant is a name a top-level assignment binds, dunders aside.
    """
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defs.extend((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not is_dunder(item.name))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        defs.extend((target.id, node) for t in targets for target in ast.walk(t)
                    if isinstance(target, ast.Name) and not is_dunder(target.id))
    return defs


def read_counts(tree: ast.AST) -> Counter:
    """How often each name is loaded, read as an attribute, or imported under `tree`."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def unread_definitions(source: str, read: Counter) -> list[str]:
    """Definitions of a module that `read` names only inside their own definition.

    `read` counts the reads of every scanned file, this module's included.
    """
    tree = ast.parse(source)
    return [d for d, node in definitions(tree)
            if read[d.split(".")[-1]] == read_counts(node)[d.split(".")[-1]]]


def test_scan_finds_an_unread_definition():
    source = ("def f(): pass\ndef g(): pass\nclass C:\n    def m(self): pass\n"
              "    def n(self): pass\n    def __len__(self): return 0\nclass D: pass\n"
              "def r(k): return r(k - 1)\nLIMIT, _MODE = 3, 'x'\nSCALE: float = LIMIT\n"
              "__all__ = ['f']\n")
    read = (read_counts(ast.parse(source)) + read_counts(ast.parse("from a import D\nf()\nx.n\n"))
            + read_counts(ast.parse("import b.C\n")))
    assert unread_definitions(source, read) == ["g", "C.m", "r", "_MODE", "SCALE"]


@pytest.fixture(scope="module")
def read_anywhere():
    return sum((read_counts(ast.parse(p.read_text())) for p in SOURCES), Counter())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: "defs:" + p.relative_to(ROOT / "src").as_posix())
def test_package_definitions_are_read(path, read_anywhere):
    assert unread_definitions(path.read_text(), read_anywhere) == []
