"""Every name a package, test or harness module imports is used there, or re-exported through its
``__all__``, and every such module parses as Python 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in (ROOT / "src" / "shc", ROOT / "tests", ROOT / "quality") for path in folder.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in dict.fromkeys(imported) if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads\nimport a.b\n__all__ = ['loads']\nsys.exit(a.b)\n"
    assert unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_3_10(path):
    """Every file parses under the Python 3.10 grammar, the floor in pyproject.toml.

    This guards the grammar only (no ``except*``, no PEP 695 generics).  It parses
    with the interpreter at hand and runs nothing under 3.10, so a library call newer
    than Python 3.10 or numpy 2.0 passes here; only CI's 3.10 / numpy 2.0 leg runs
    the code there.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
