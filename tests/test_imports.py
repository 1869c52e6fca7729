"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import permit_games

PACKAGE = Path(permit_games.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Imported names never read in ``source``; ``__all__`` entries count as reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from typing import Iterable, Optional\nx: Optional[int] = system.maxsize\n")
    assert unused_imports(source) == ["os (line 2)", "Iterable (line 3)"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


def test_package_modules_use_every_import():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if (unused := unused_imports(path.read_text()))}
    assert found == {}
