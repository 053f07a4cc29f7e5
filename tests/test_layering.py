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
        ("linearization", {"errors", "jacobi"}),
        ("output", {"continuation", "linearization"}),
        ("geometry", {"errors", "jacobi"}),
        ("errors", set()),
        ("verification", {"continuation", "errors", "jacobi", "linearization", "output"}),
    ],
)
def test_module_imports_only_lower_layers(module, allowed):
    assert package_imports(module) <= allowed


MONOMIAL_ORACLES = {
    "exact_coeffs",
    "integrate_relative",
    "ExactPolynomial",
    "rel_weight_moments",
    "apply_L",
}


def test_linearization_uses_no_monomial_oracle():
    # the P_k^2 expansion runs on the three-term recurrence alone; the monomial
    # oracles of jacobi check it from the tests and verification
    tree = ast.parse((PACKAGE / "linearization.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & MONOMIAL_ORACLES
