"""Module boundaries inside the dialign package."""

from __future__ import annotations

import ast
from pathlib import Path

import dialign

PACKAGE = Path(dialign.__file__).parent


def _private_imports(source: str, name: str) -> list[str]:
    """Each underscore name that module ``name`` imports from a dialign module,
    as ``name:line: imported name``."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "dialign"
        ):
            found += [f"{name}:{node.lineno}: {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_checker_finds_relative_and_absolute_private_imports() -> None:
    source = "from .rl import a, _b\nfrom dialign.scenarios import _c\nfrom os import _exit\n"
    assert _private_imports(source, "m.py") == ["m.py:1: _b", "m.py:2: _c"]


def test_no_dialign_module_imports_a_private_name_from_another() -> None:
    """A name with a leading underscore is private to its module: another
    module that needs it needs it public."""
    found = [entry for path in sorted(PACKAGE.glob("*.py"))
             for entry in _private_imports(path.read_text(), path.name)]
    assert found == []
