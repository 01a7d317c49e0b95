"""Every module-level or local import in the package and the tests is used.

Parsed with `ast`, so it needs no linter.  Package `__init__.py` files are
skipped (their imports are re-exports), and so is `from __future__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in [*ROOT.glob("src/bentforge/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
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
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport random as rnd\nfrom x import y, z\nprint(os, z)\n"
    assert unused_imports(source) == ["line 2: rnd", "line 3: y"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
