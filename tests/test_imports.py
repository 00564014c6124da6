"""Every name a module imports is read somewhere in that module.

No linter ships with the project, so this scan stands in for the
unused-import check. It covers the package, the tests and the benchmark
harness (`bench/`, read only). Package `__init__.py` files import to
re-export and are skipped, as are `from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d, pattern in ((ROOT / "src" / "shona_asr", "*.py"), (ROOT / "tests", "*.py"),
                                      (ROOT / "bench", "**/*.py"))
                 for p in d.glob(pattern) if p.name != "__init__.py")


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
