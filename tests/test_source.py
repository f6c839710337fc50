"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "manifold_masks"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_finds_unused_import():
    source = "from os import path, sep\nimport numpy as np\nprint(sep)\n"
    assert unused_imports(source) == ["np (line 2)", "path (line 1)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def scipy_linalg_references(source: str) -> list[int]:
    """Lines where a module imports or reads ``scipy.linalg``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_finds_scipy_linalg():
    source = (
        "import scipy.linalg\nfrom scipy import linalg\nfrom scipy.linalg import eigh\n"
        "import scipy\nscipy.linalg.eigh(a)\nimport scipy.sparse\nnp.linalg.eigh(a)\n"
    )
    assert scipy_linalg_references(source) == [1, 2, 3, 5]


@pytest.mark.parametrize(
    "module", [p for p in MODULES if p.name != "embeddings.py"], ids=lambda p: p.name
)
def test_only_embeddings_reaches_scipy_linalg(module):
    """embeddings._eigenpairs is the package's one symmetric eigensolver, so
    no other module reaches SciPy's dense linear algebra."""
    assert scipy_linalg_references(module.read_text(encoding="utf-8")) == []
