"""Guarantees hold under ``python -O``: the package has no ``assert``."""

from __future__ import annotations

import ast
from pathlib import Path

import vnembed


def test_package_has_no_assert_statements():
    paths = sorted(Path(vnembed.__file__).resolve().parent.rglob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "python -O strips these checks; raise instead"
