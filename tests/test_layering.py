"""Intra-package import structure, read from the sources with ast.

``import jacbif.continuation`` runs ``jacbif/__init__.py``, which loads every
module, so ``sys.modules`` cannot show which module depends on which.
"""

import ast
from pathlib import Path

import pytest

import jacbif

PACKAGE = Path(jacbif.__file__).parent


def package_imports(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("jacbif."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("jacbif.")
            )
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("continuation", {"errors", "jacobi", "linearization"}),
        ("jacobi", {"errors"}),
    ],
)
def test_module_imports_only_lower_layers(module, allowed):
    assert package_imports(module) <= allowed
